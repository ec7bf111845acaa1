"""Graph construction, Laplacian block extraction, and tree utilities.

Nodes are labeled 1..n at every interface. Graphs are simple, undirected,
unweighted, and connected (checked at construction); instances are immutable
and safe to share.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import (
    ArmTooShort,
    DenseTooLarge,
    DisconnectedGraph,
    DuplicateEdge,
    EndpointOutOfRange,
    InvalidLeaderConfig,
    NotATree,
    SelfLoop,
    TooFewNodes,
)


# 256 MiB per n×n float64 array (n ≤ 5,792), not per call: building the Green's
# function G̃ holds two at once, so a dense call peaks at about 2·n² floats
DENSE_BYTES_LIMIT = 2**28


def check_dense_size(n: int) -> None:
    """Raise DenseTooLarge when an n×n float64 array would exceed DENSE_BYTES_LIMIT.

    The size is computed from n alone, before anything n×n exists.
    """
    need = 8 * n * n
    if need > DENSE_BYTES_LIMIT:
        raise DenseTooLarge(
            f"a dense {n}×{n} matrix needs {need:,} bytes, over the limit of "
            f"{DENSE_BYTES_LIMIT:,} bytes (n ≤ {isqrt(DENSE_BYTES_LIMIT // 8):,})"
        )


@dataclass(frozen=True)
class EdgeIndex:
    """0-based edge arrays of a graph, for Laplacian products in O(|E|) per column.

    (rows[i], cols[i]) runs over every edge in both directions, grouped into
    slots: slot j matches each node of degree > j with its (j+1)-th smallest
    neighbour, so no row repeats within a slot. `slots` holds each slot's
    (rows, cols) views and `degree` every node's degree as a float.
    """

    rows: np.ndarray
    cols: np.ndarray
    slots: tuple
    degree: np.ndarray


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph over nodes 1..n.

    Derived structures (adjacency, edge arrays, rooted trees and the
    Green's function of `resistance.reference_green`) are built on first use
    and memoised on the instance; the graph is immutable, so they never go
    stale.
    """

    n: int
    edges: frozenset  # frozenset of (u, v) tuples with u < v

    _adj_cache: dict = field(default=None, repr=False, compare=False)
    _edge_cache: EdgeIndex = field(default=None, repr=False, compare=False)
    _tree_cache: dict = field(default=None, repr=False, compare=False)
    _green_cache: np.ndarray = field(default=None, repr=False, compare=False)

    def _memo(self, name: str, build):
        """The cache field `name`, filled by build() on first use.

        Callers racing on first use each build the same value; any one is kept.
        """
        value = getattr(self, name)
        if value is None:
            value = build()
            object.__setattr__(self, name, value)
        return value

    def neighbors(self, v: int) -> tuple:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    @property
    def _adjacency(self) -> dict:
        return self._memo("_adj_cache", self._build_adjacency)

    def _build_adjacency(self) -> dict:
        adj = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @property
    def edge_index(self) -> EdgeIndex:
        return self._memo("_edge_cache", self._build_edge_index)

    def _build_edge_index(self) -> EdgeIndex:
        slots = []  # slots[j]: (node, neighbour) pairs for each node's (j+1)-th neighbour
        for v, ns in self._adjacency.items():
            for j, w in enumerate(ns):
                if j == len(slots):
                    slots.append([])
                slots[j].append((v - 1, w - 1))
        pairs = np.array([p for slot in slots for p in slot], dtype=np.intp).reshape(-1, 2)
        rows, cols = pairs.T.copy()
        ends = np.cumsum([len(slot) for slot in slots]).tolist()
        return EdgeIndex(
            rows=rows,
            cols=cols,
            slots=tuple((rows[a:b], cols[a:b]) for a, b in zip([0] + ends, ends)),
            degree=np.array([len(ns) for ns in self._adjacency.values()], dtype=float),
        )

    def laplacian(self) -> np.ndarray:
        """Full n×n combinatorial Laplacian D − A; DenseTooLarge past DENSE_BYTES_LIMIT."""
        check_dense_size(self.n)
        ix = self.edge_index
        L = np.zeros((self.n, self.n))
        L[ix.rows, ix.cols] = -1.0
        L.ravel()[:: self.n + 1] = ix.degree
        return L

    def laplacian_times(self, P: np.ndarray) -> np.ndarray:
        """L @ P for a vector or matrix with n rows, from the edge arrays in O(|E|) per column."""
        ix = self.edge_index
        if P.ndim == 1:
            return ix.degree * P - np.bincount(ix.rows, P[ix.cols], self.n)
        out = ix.degree[:, None] * P
        for rows, cols in ix.slots:
            out[rows] -= P[cols]
        return out

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1

    def is_cycle(self) -> bool:
        """True for a single cycle through all n nodes: n edges, every degree 2."""
        return len(self.edges) == self.n and all(len(ns) == 2 for ns in self._adjacency.values())


@dataclass(frozen=True)
class LeaderConfig:
    """Disjoint 0-leader and 1-leader node sets."""

    zeros: frozenset
    ones: frozenset

    def __post_init__(self):
        zeros = frozenset(self.zeros)
        ones = frozenset(self.ones)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "ones", ones)
        if not zeros or not ones:
            raise InvalidLeaderConfig("both leader sets must be non-empty")
        if zeros & ones:
            raise InvalidLeaderConfig(f"leader sets overlap: {sorted(zeros & ones)}")

    @property
    def leaders(self) -> frozenset:
        return self.zeros | self.ones

    def validate(self, g: Graph) -> None:
        """Check the config against a concrete graph (range, non-empty followers)."""
        for v in self.leaders:
            if not 1 <= v <= g.n:
                raise InvalidLeaderConfig(f"leader {v} outside 1..{g.n}")
        if len(self.leaders) >= g.n:
            raise InvalidLeaderConfig("follower set is empty")

    def split(self, g: Graph) -> tuple:
        """0-based (leader, follower) index arrays on g, both ascending, after validate(g).

        The one place that orders followers: row i of every follower-indexed
        array in opdiv belongs to node F[i] + 1.
        """
        self.validate(g)
        S = np.array(sorted(self.leaders)) - 1
        free = np.ones(g.n, dtype=bool)
        free[S] = False
        return S, np.flatnonzero(free)


def row_index(F: np.ndarray) -> dict:
    """Node label -> row for the 0-based index array F (follower order from `split`)."""
    return dict(zip((F + 1).tolist(), range(len(F))))


def single_pair(l0: int, l1: int) -> LeaderConfig:
    """Convenience constructor for the one-0-leader / one-1-leader problems."""
    return LeaderConfig(zeros=frozenset({l0}), ones=frozenset({l1}))


@dataclass(frozen=True)
class LaplacianBlocks:
    """Follower-follower and follower-leader Laplacian blocks.

    Row ordering is ascending follower label (recorded in follower_index);
    column ordering of Lfl is ascending leader label (recorded in leader_order).
    """

    Lff: np.ndarray
    Lfl: np.ndarray
    follower_index: dict  # follower node -> row
    leader_order: tuple  # leader nodes in column order

    @property
    def followers(self) -> tuple:
        return tuple(sorted(self.follower_index, key=self.follower_index.get))


def build_graph(n: int, edges) -> Graph:
    """Validate and construct a Graph from an iterable of node pairs."""
    if n < 1:
        raise TooFewNodes(f"need at least one node, got n={n}")
    seen = set()
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise EndpointOutOfRange(f"edge ({u},{v}) outside 1..{n}")
        if u == v:
            raise SelfLoop(f"self-loop at node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"duplicate edge {key}")
        seen.add(key)
    if n > 1 and len(seen) < n - 1:
        # checked before anything n-sized exists, so a huge header fails fast
        raise DisconnectedGraph(
            f"{len(seen)} edges cannot connect {n} nodes (need at least {n - 1})"
        )
    g = Graph(n=n, edges=frozenset(seen))
    _check_connected(g)
    return g


def _check_connected(g: Graph) -> None:
    if g.n == 1:
        return
    reached = {1}
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != g.n:
        missing = sorted(set(range(1, g.n + 1)) - reached)
        raise DisconnectedGraph(f"nodes unreachable from node 1: {missing}")


def path(n: int) -> Graph:
    """Path graph with nodes numbered 1..n in order."""
    if n < 3:
        raise TooFewNodes(f"path needs n >= 3, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    """Cycle graph with nodes numbered 1..n clockwise."""
    if n < 3:
        raise TooFewNodes(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def y_tree(arm0: int, arm1: int, arm2: int) -> Graph:
    """Tree with one degree-3 center and three pendant paths (arm lengths in edges).

    Labeling: arm0 runs 1..arm0 from its leaf to the center, the center is
    arm0+1, then arm1 and arm2 are labeled outward from the center.
    """
    if min(arm0, arm1, arm2) < 1:
        raise ArmTooShort(f"all arms must have length >= 1, got {(arm0, arm1, arm2)}")
    n = arm0 + arm1 + arm2 + 1
    center = arm0 + 1
    fork = center + arm1  # the leaf of arm1; arm2 starts at fork + 1, off the center
    return build_graph(n, [(i, i + 1) for i in range(1, n) if i != fork] + [(center, fork + 1)])


def generate(spec: str) -> Graph:
    """Build a graph from a generator spec: path:N, cycle:N, or ytree:A,B,C."""
    kind, _, rest = spec.partition(":")
    if kind == "path":
        return path(int(rest))
    if kind == "cycle":
        return cycle(int(rest))
    if kind == "ytree":
        arms = [int(a) for a in rest.split(",")]
        if len(arms) != 3:
            raise ValueError(f"ytree spec needs 3 arm lengths, got {rest!r}")
        return y_tree(*arms)
    raise ValueError(f"unknown generator {kind!r} (expected path, cycle, or ytree)")


def laplacian_blocks(g: Graph, lc: LeaderConfig) -> LaplacianBlocks:
    """Extract the follower-follower and follower-leader Laplacian blocks."""
    S, F = lc.split(g)
    L = g.laplacian()
    return LaplacianBlocks(
        Lff=L[np.ix_(F, F)],
        Lfl=L[np.ix_(F, S)],
        follower_index=row_index(F),
        leader_order=tuple((S + 1).tolist()),
    )


@dataclass(frozen=True)
class RootedTree:
    """A tree rooted at one node by a single depth-first pass.

    `order` lists the nodes in DFS preorder, so every node comes after its
    parent and the subtree of v is the run of size[v] nodes starting at
    order[index[v]]. `parent`, `depth`, `size` and `index` are indexed by
    label (index 0 unused); the root's parent is 0, depth[v] is the distance
    d(root, v) and size[v] counts the nodes of v's subtree, v included.
    """

    root: int
    order: tuple
    parent: tuple
    depth: tuple
    size: tuple
    index: tuple

    def path_up(self, v: int) -> list:
        """Nodes from v up to the root, both included."""
        _check_node(len(self.parent) - 1, v)
        out = [v]
        while v != self.root:
            v = self.parent[v]
            out.append(v)
        return out

    def subtree(self, v: int) -> tuple:
        """The nodes of v's subtree, v first, in preorder."""
        start = self.index[v]
        return self.order[start : start + self.size[v]]

    def projection(self, target: int) -> tuple:
        """π(v) for every label v: the node where v's path meets the root–target spine.

        Spine nodes project to themselves, so π(root) = root and
        π(target) = target. Indexed by label; index 0 is unused.
        """
        pi = [0] * len(self.parent)
        for v in self.path_up(target):
            pi[v] = v
        for v in self.order:
            if not pi[v]:
                pi[v] = pi[self.parent[v]]
        return tuple(pi)

    def partition(self, target: int) -> tuple:
        """(P1, P2, P3) for leaders at the root and `target`, read off preorder runs.

        With p₁ the child of the root on the spine, P3 is the target's subtree
        less the target, P2 is p₁'s subtree less the target's, and P1 is every
        other node but the root. For target = root, P1 is all but the root.
        """
        spine = self.path_up(target)
        if len(spine) == 1:
            return set(self.order[1:]), set(), set()
        below_p1, below_target = set(self.subtree(spine[-2])), set(self.subtree(target))
        return set(self.order[1:]) - below_p1, below_p1 - below_target, below_target - {target}


def _check_node(n: int, v: int) -> None:
    if not 1 <= v <= n:
        raise EndpointOutOfRange(f"node {v} outside 1..{n}")


def rooted_tree(g: Graph, root: int) -> RootedTree:
    """Parent, depth, subtree size and DFS preorder of a tree rooted at `root`.

    Memoised per root on the graph: a second call with the same root
    returns the same RootedTree.
    """
    trees = g._memo("_tree_cache", dict)
    tree = trees.get(root)
    if tree is None:
        tree = trees[root] = _dfs_tree(g, root)
    return tree


def _dfs_tree(g: Graph, root: int) -> RootedTree:
    if not g.is_tree():
        raise NotATree(f"graph has {len(g.edges)} edges, a tree on {g.n} nodes has {g.n - 1}")
    _check_node(g.n, root)
    adj = g._adjacency
    parent = [0] * (g.n + 1)
    depth = [0] * (g.n + 1)
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in reversed(adj[v]):  # smallest neighbour visited first
            if w != parent[v]:  # in a tree the parent is the only neighbor already seen
                parent[w] = v
                depth[w] = depth[v] + 1
                stack.append(w)
    size = [0] + [1] * g.n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    index = [0] * (g.n + 1)
    for i, v in enumerate(order):
        index[v] = i
    return RootedTree(
        root=root, order=tuple(order), parent=tuple(parent), depth=tuple(depth),
        size=tuple(size), index=tuple(index),
    )


def cycle_order(g: Graph, start: int) -> list:
    """Nodes of a cycle graph in cycle order from `start`, heading toward its smaller neighbor."""
    order = [start, min(g.neighbors(start))]
    while len(order) < g.n:
        prev, cur = order[-2], order[-1]
        order.append(next(w for w in g.neighbors(cur) if w != prev))
    return order


def tree_path(g: Graph, a: int, b: int) -> list:
    """Unique path between a and b in a tree, inclusive of both endpoints."""
    return rooted_tree(g, a).path_up(b)[::-1]


def partition_followers(g: Graph, l0: int, l1: int) -> tuple:
    """Split followers into (P1, P2, P3) by which leader blocks their view of the other.

    P1: followers whose path to l1 passes through l0. P3: symmetric with the
    roles swapped. P2: everything between.
    """
    return rooted_tree(g, l0).partition(l1)


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list text format: `n <count>` then one `u v` line per edge.

    Blank lines and `#` comments are ignored.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or lines[0].split()[0] != "n":
        raise ValueError("edge list must start with a header line `n <count>`")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header {lines[0]!r}")
    n = int(header[1])
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


def write_edge_list(g: Graph) -> str:
    """Serialize to the canonical edge-list text (sorted edges; round-trips bit-exactly)."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
