"""Single 1-leader placement: brute-force search and closed-form predictors.

The brute force evaluates every candidate l1 and keeps the full score table,
so the measure-disagreement demonstration and table reproduction both fall out
of one call. Predictors return the analytically optimal node sets for paths,
cycles (l0 = 1 by convention), and Y-trees; each is cross-validated against the
brute force in tests rather than trusted. `prediction` is the one place that
decides which predictor applies to a graph in its own labels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diversity import (
    DiversityScore, SNAP_TOL, check_bins, histogram_rows, level_thresholds, score_rows,
)
from .errors import (
    DenseTooLarge,
    InvalidLeaderConfig,
    LeaderNotLeaf,
    NotAYTree,
    TooFewFollowers,
)
from .graphs import (
    DENSE_BYTES_LIMIT, Graph, check_dense_size, cycle_order, cycle_position, rooted_tree,
)
from .resistance import BLOCK, check_inverse, reference_green

TIE_TOL = 1e-9


@dataclass(frozen=True)
class PlacementResult:
    """Score table over all candidate 1-leader nodes plus both argmax sets."""

    scores: dict  # candidate node -> DiversityScore
    argmax_simpson: frozenset
    argmax_shannon: frozenset
    R: int


def brute_force_best(g: Graph, l0: int, R: int, snap_tol: float = SNAP_TOL) -> PlacementResult:
    """Evaluate every candidate l1 ≠ l0 and return the full score table.

    The one-l0 case of `brute_force_tables`, with the same checks, errors and
    argmax rules.
    """
    return brute_force_tables(g, [l0], R, snap_tol)[l0]


def brute_force_tables(g: Graph, L0, R: int, snap_tol: float = SNAP_TOL) -> dict:
    """{l0: `brute_force_best(g, l0, R, snap_tol)`} for every l0 in L0, from one count array.

    Each pair's bin counts come from the engine that `engine(g)` picks by the
    graph's shape: `tree_counts` on trees and `cycle_counts` on cycles count
    the exact opinions a/D in integers; `dense_counts` serves every other
    graph from its Green's function. Each engine call takes the pairs
    (l0, l1) of as many l0s as fit in BLOCK pairs, so every l0 of a graph
    with n ≤ 16 costs one call, and one `score_rows` call scores them all.
    R and snap_tol are checked before anything else is built. The n×n size
    guard applies to all three engines, and so does a guard on the
    k·(n − 1)·R count table (on trees, also on the depth, index and size of
    the k rooted trees memoised on g), checked before either exists.
    Simpson's argmax compares the integer numerators Σ c(c − 1) exactly. At
    R = 2 Shannon's is the same set, since with n_f fixed both indices fall
    strictly as |c₁ − c₂| grows; at R ≥ 3 it keeps every candidate within
    TIE_TOL of the best.
    """
    n = g.n
    if n - 2 < 2:
        raise TooFewFollowers(f"n={n} leaves fewer than 2 followers after placing l1")
    L0 = list(dict.fromkeys(L0))
    for l0 in L0:
        if not 1 <= l0 <= n:
            raise InvalidLeaderConfig(f"leader {l0} outside 1..{n}")
    check_bins(R, snap_tol)
    check_dense_size(n)
    k, m, count = len(L0), n - 1, engine(g)
    entries = k * m * R  # the count table
    if count is tree_counts:  # or the k rooted trees' depth, index and size, if more
        entries = max(entries, 3 * k * n)
    if 8 * entries > DENSE_BYTES_LIMIT:
        raise DenseTooLarge(
            f"{k} tables of {m}×{R} counts need {8 * entries:,} bytes, over the limit of "
            f"{DENSE_BYTES_LIMIT:,} bytes"
        )
    if not L0:
        return {}
    candidates = np.arange(1, n)
    candidates = candidates + (candidates >= np.array(L0)[:, None])  # row r: all nodes but L0[r]
    J, step = candidates - 1, max(1, BLOCK // m)
    chunks = [
        count(g, L0[a] if k == 1 else np.repeat(L0[a : a + step], m), J[a : a + step].ravel(),
              R, snap_tol)
        for a in range(0, k, step)
    ]
    counts = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    pairs = (counts * (counts - 1)).sum(axis=1).reshape(k, m)
    simpson, shannon = (x.reshape(k, m) for x in score_rows(counts))
    best_simpson = pairs == pairs.min(axis=1, keepdims=True)
    best_shannon = (
        best_simpson if R == 2 else shannon >= shannon.max(axis=1, keepdims=True) - TIE_TOL
    )
    rows = zip(L0, candidates, candidates.tolist(), simpson.tolist(), shannon.tolist(),
               best_simpson, best_shannon)
    return {
        l0: PlacementResult(
            scores={v: DiversityScore(simpson=s, shannon=h) for v, s, h in zip(cand, simp, shan)},
            argmax_simpson=frozenset(row[bs].tolist()),
            argmax_shannon=frozenset(row[bh].tolist()),
            R=R,
        )
        for l0, row, cand, simp, shan, bs, bh in rows
    }


def engine(g: Graph):
    """The count engine for g's shape: `tree_counts`, `cycle_counts` or `dense_counts`.

    Each scores pairs (l0, l1): it takes 0-based candidates J and either one
    l0 for all of them or an l0 per candidate, with J[k] ≠ l0[k] − 1, and
    returns one count row per pair. So `engine(g)(g, l0, np.array([l1 − 1]),
    R, snap_tol)[0]` is `place`'s count row for the pair (l0, l1), and one
    call serves every l0 of a graph.
    """
    return tree_counts if g.is_tree() else cycle_counts if g.is_cycle() else dense_counts


def dense_counts(g: Graph, l0, J: np.ndarray, R: int, snap_tol: float) -> np.ndarray:
    """(m, R) bin counts, row k for the leaders l0[k] and J[k] + 1, off the Green's function.

    Moving the ground of G̃ (`reference_green`) from node 1 to l0 gives G, the
    inverse of L grounded at l0: G(u, v) = G̃(u, v) − G̃(u, l0) − G̃(l0, v) +
    G̃(l0, l0), moved column by column to each pair's own l0. The opinions for
    the 1-leader at j are G[:, j] / G[j, j], the chance that a walk from each
    node hits j before l0. Columns are moved, checked (`check_inverse`) and
    binned BLOCK at a time: O(n²) time per table.
    """
    Gt, S = reference_green(g), np.atleast_1d(l0) - 1  # one ground for every pair, or one each
    counts = np.empty((len(J), R), dtype=np.intp)
    for a in range(0, len(J), BLOCK):
        Jb, Sb = J[a : a + BLOCK], S if len(S) == 1 else S[a : a + BLOCK]
        cols = np.arange(len(Jb))
        ground = Sb, cols  # (row, column) of each column's ground
        G = Gt[:, Jb] - Gt[:, Sb] - Gt[Sb, Jb] + Gt[Sb, Sb]
        G[ground] = 0.0
        check_inverse(g, G, ground, Jb)
        rows = histogram_rows((G / G[Jb, cols]).T, R, snap_tol)
        # each row also holds l0's own opinion 0 and l1's G[j, j] / G[j, j] = 1.0
        rows[:, 0] -= 1
        rows[:, -1] -= 1
        counts[a : a + BLOCK] = rows
    return counts


def tree_counts(g: Graph, l0, J: np.ndarray, R: int, snap_tol: float) -> np.ndarray:
    """`dense_counts` on a tree, exact, from subtree sizes on the tree rooted at each l0.

    With D = depth(l1) and p_a the ancestor of l1 at depth a, every follower
    in the subtree of p_a and not in that of p_{a+1} has opinion a/D, so for
    1 ≤ a ≤ D exactly size(p_a) − 1 followers have an opinion ≥ a/D. Each
    bin count is then a difference of two such numbers, taken at the levels
    `level_thresholds` gives. The ancestors of all pairs come from one
    `searchsorted` over the nodes of every rooted tree keyed by (root,
    depth, preorder index).
    """
    n = g.n
    roots, at = ([l0], 0) if np.isscalar(l0) else np.unique(l0, return_inverse=True)
    trees = [rooted_tree(g, int(r)) for r in roots]
    # row r, column v − 1: node v in the tree rooted at roots[r]
    rows = [getattr(t, f)[1:] for f in ("depth", "index", "size") for t in trees]
    depth, index, size = np.array(rows).reshape(3, len(trees), n)
    if len(trees) > 1:
        index += np.arange(len(trees))[:, None] * n * n  # keys sort by (row, depth, index)
    key = (depth * n + index).ravel()
    by_key = np.argsort(key)
    at_least = size.ravel()[by_key] - 1  # followers at or above a/D when the node is p_a
    l1 = at * n + J  # each pair's l1 in its l0's row
    levels = level_thresholds(max(max(t.depth) for t in trees), R, snap_tol) * n
    # p_a is the last node at depth a, in l0's tree, whose preorder index is at most l1's
    query = levels[depth.ravel()[l1]]
    query += index.ravel()[l1][:, None]
    p = np.searchsorted(key[by_key], query, "right")
    p -= 1
    return _bin_counts(n - 2, at_least[p])


def cycle_counts(g: Graph, l0, J: np.ndarray, R: int, snap_tol: float) -> np.ndarray:
    """`dense_counts` on a cycle, exact, from the two arcs between the leaders.

    An arc of L edges holds L − 1 followers with opinions i/L, i = 1..L − 1,
    so L − t of them have an opinion ≥ t/L for 1 ≤ t ≤ L. With l1 at p edges
    from l0, in either direction, the arcs have p and n − p edges; every p
    comes from the one `cycle_position` of g.
    """
    position = cycle_position(g)
    p = (position[J + 1] - position[l0]) % g.n
    levels = level_thresholds(g.n - 1, R, snap_tol)
    # (p − t_k(p)) + ((n − p) − t_k(n − p)) followers at or above boundary k
    return _bin_counts(g.n - 2, g.n - levels[p] - levels[g.n - p])


def _bin_counts(n_f: int, at_least: np.ndarray) -> np.ndarray:
    """(m, R) bin counts from the followers at or above each inner boundary k = 1..R − 1."""
    counts = np.empty((len(at_least), at_least.shape[1] + 1), dtype=np.intp)
    counts[:, 0] = n_f - at_least[:, 0]
    np.subtract(at_least[:, :-1], at_least[:, 1:], out=counts[:, 1:-1])
    counts[:, -1] = at_least[:, -1]
    return counts


def predict_path(n: int, k: int, R) -> frozenset:
    """Optimal 1-leader placements on a path of n nodes with l0 at node k.

    R = "nf": the endpoint farthest from l0 (both endpoints on a tie).
    R = 2: the node mirroring l0 about the path center, n−k+1 for k ≤ n/2 and
    n−k otherwise, clamped to node 1 when l0 is the far endpoint.
    """
    if R == 2:
        if k <= n / 2:
            return frozenset({n - k + 1})
        return frozenset({max(n - k, 1)})
    if n - k > k - 1:
        return frozenset({n})
    if k - 1 > n - k:
        return frozenset({1})
    return frozenset({1, n})


def predict_cycle(n: int, R) -> frozenset:
    """Optimal 1-leader placements on a cycle with l0 = 1.

    R = "nf": the two neighbors of l0. R = 2: every candidate when n_f is odd,
    the even-labeled candidates when n_f is even.
    """
    n_f = n - 2
    if R == 2:
        if n_f % 2 == 1:
            return frozenset(range(2, n + 1))
        return frozenset(range(2, n + 1, 2))
    return frozenset({2, n})


def predict_y_tree(g: Graph, l0: int) -> frozenset:
    """Optimal 1-leader placements on a Y-tree with l0 at a leaf.

    Returns the leaf ending the longest path from l0 together with its
    neighbor (the two are equivalent); ties include both far leaves and both
    neighbors. The neighbor is the center node itself when the winning arm has
    length 1. Raises NotAYTree unless g is a tree with exactly one degree-3
    node, and LeaderNotLeaf unless l0 is a leaf.
    """
    if not g.is_tree():
        raise NotAYTree("not a tree")
    degrees = [g.degree(v) for v in range(1, g.n + 1)]
    if degrees.count(3) != 1 or max(degrees) > 3:
        raise NotAYTree("need exactly one degree-3 node and all others degree <= 2")
    if g.degree(l0) != 1:
        raise LeaderNotLeaf(f"l0={l0} has degree {g.degree(l0)}, must be a leaf")
    others = [v for v in range(1, g.n + 1) if degrees[v - 1] == 1 and v != l0]
    depth = rooted_tree(g, l0).depth
    best = max(depth[v] for v in others)
    out = set()
    for v in others:
        if depth[v] == best:
            out.add(v)
            out.add(g.neighbors(v)[0])
    return frozenset(out)


def prediction(g: Graph, l0: int, R: int):
    """The predicted optimal 1-leader set in g's own labels, as (topology, nodes), or None.

    Paths and cycles, in any labelling, get a prediction at R = 2 and at
    R = n_f, by the R = 2 rule when both hold; Y-trees with l0 at a leaf get
    one at R = n_f. Every other graph, l0 or R gets None.
    """
    n_f = g.n - 2
    if g.is_cycle():
        kind = "cycle"
    elif g.is_tree() and max(g.degree(v) for v in range(1, g.n + 1)) <= 2:
        kind = "path"
    elif R == n_f and g.degree(l0) == 1:
        try:
            return "ytree", predict_y_tree(g, l0)
        except NotAYTree:
            return None
    else:
        return None
    if R not in (2, n_f):
        return None
    rule = 2 if R == 2 else "nf"
    if kind == "cycle":
        order, pred = cycle_order(g, l0), predict_cycle(g.n, rule)
    else:
        order = rooted_tree(g, min(v for v in range(1, g.n + 1) if g.degree(v) == 1)).order
        pred = predict_path(g.n, order.index(l0) + 1, rule)
    return kind, frozenset(order[i - 1] for i in pred)


def check_balanced_tree_placement(g: Graph, l0: int, l1: int) -> bool:
    """Certify an l1 placement on a tree as optimal for both measures at R = 2.

    True iff |P1| = |P3| and the P2 opinions split between the two bins with
    |c_1 − c_2| ≤ 1. The bins are exact: on a tree the opinion of v is
    d(l0, π(v)) / D with D = d(l0, l1), where π(v) is the node where v's path
    meets the l0–l1 spine. Rooted at l0, with p_a the ancestor of l1 at depth
    a, every count is a difference of subtree sizes: |P1| = n − size(p_1) − 1,
    |P3| = size(l1) − 1, |P2| = size(p_1) − size(l1), and the P2 followers in
    the upper bin (opinion ≥ 1/2) number size(p_⌈D/2⌉) − size(l1). No solve
    or snap tolerance is involved. A True result is sufficient, not
    necessary: optimal placements exist that fail the |P1| = |P3| condition.
    """
    if l0 == l1:
        raise InvalidLeaderConfig(f"l0 and l1 are both node {l0}")
    tree = rooted_tree(g, l0)
    spine = tree.path_up(l1)  # spine[D − a] is p_a
    D = len(spine) - 1
    size = tree.size
    p1 = g.n - size[spine[D - 1]] - 1
    if p1 != size[l1] - 1:
        return False
    p2 = size[spine[D - 1]] - size[l1]
    upper = size[spine[D - (D + 1) // 2]] - size[l1]  # c_2; c_1 = |P2| − c_2
    return abs(p2 - 2 * upper) <= 1
