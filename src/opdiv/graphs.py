"""Graph construction, Laplacian block extraction, and tree utilities.

Nodes are labeled 1..n at every interface. Graphs are simple, undirected,
unweighted, and connected (checked at construction); instances are immutable
and safe to share.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArmTooShort,
    DisconnectedGraph,
    DuplicateEdge,
    EndpointOutOfRange,
    InvalidLeaderConfig,
    NotATree,
    SelfLoop,
    TooFewNodes,
)


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph over nodes 1..n."""

    n: int
    edges: frozenset  # frozenset of (u, v) tuples with u < v

    def neighbors(self, v: int) -> tuple:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    @property
    def _adjacency(self) -> dict:
        adj = object.__getattribute__(self, "_adj_cache")
        if adj is None:
            adj = {v: [] for v in range(1, self.n + 1)}
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
            object.__setattr__(self, "_adj_cache", adj)
        return adj

    _adj_cache: dict = field(default=None, repr=False, compare=False)

    def laplacian(self) -> np.ndarray:
        """Full n×n combinatorial Laplacian D − A."""
        L = np.zeros((self.n, self.n))
        for u, v in self.edges:
            L[u - 1, v - 1] -= 1.0
            L[v - 1, u - 1] -= 1.0
            L[u - 1, u - 1] += 1.0
            L[v - 1, v - 1] += 1.0
        return L

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1


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
    edges = [(i, i + 1) for i in range(1, arm0 + 1)]
    prev = center
    for v in range(center + 1, center + 1 + arm1):
        edges.append((prev, v))
        prev = v
    prev = center
    for v in range(center + 1 + arm1, n + 1):
        edges.append((prev, v))
        prev = v
    return build_graph(n, edges)


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
    lc.validate(g)
    L = g.laplacian()
    followers = sorted(set(range(1, g.n + 1)) - lc.leaders)
    leaders = sorted(lc.leaders)
    fi = [v - 1 for v in followers]
    li = [v - 1 for v in leaders]
    return LaplacianBlocks(
        Lff=L[np.ix_(fi, fi)],
        Lfl=L[np.ix_(fi, li)],
        follower_index={v: i for i, v in enumerate(followers)},
        leader_order=tuple(leaders),
    )


def tree_path(g: Graph, a: int, b: int) -> list:
    """Unique path between a and b in a tree, inclusive of both endpoints."""
    if not g.is_tree():
        raise NotATree(f"graph has {len(g.edges)} edges, a tree on {g.n} nodes has {g.n - 1}")
    if a == b:
        return [a]
    parent = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if v == b:
            break
        for w in g.neighbors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    out = [b]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    out.reverse()
    return out


def partition_followers(g: Graph, l0: int, l1: int) -> tuple:
    """Split followers into (P1, P2, P3) by which leader blocks their view of the other.

    P1: followers whose path to l1 passes through l0. P3: symmetric with the
    roles swapped. P2: everything between.
    """
    if not g.is_tree():
        raise NotATree("follower partition is defined on trees")
    p1, p2, p3 = set(), set(), set()
    for v in range(1, g.n + 1):
        if v in (l0, l1):
            continue
        if l0 in tree_path(g, v, l1):
            p1.add(v)
        elif l1 in tree_path(g, v, l0):
            p3.add(v)
        else:
            p2.add(v)
    return p1, p2, p3


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
