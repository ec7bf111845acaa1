"""Single 1-leader placement: brute-force search and closed-form predictors.

The brute force evaluates every candidate l1 and keeps the full score table,
so the measure-disagreement demonstration and table reproduction both fall out
of one call. Predictors return the analytically optimal node sets for paths,
cycles (l0 = 1 by convention), and Y-trees; each is cross-validated against the
brute force in tests rather than trusted.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP

import numpy as np

from .diversity import DiversityScore, SNAP_TOL, histogram_rows, score_rows
from .errors import InvalidLeaderConfig, LeaderNotLeaf, NotAYTree, TooFewFollowers
from .graphs import Graph, rooted_tree
from .resistance import grounded_laplacian_inverse

TIE_TOL = 1e-9


@dataclass(frozen=True)
class PlacementResult:
    """Score table over all candidate 1-leader nodes plus both argmax sets."""

    scores: dict  # candidate node -> DiversityScore
    argmax_simpson: frozenset
    argmax_shannon: frozenset
    R: int

    def to_dict(self) -> dict:
        """The JSON payload as plain data: R, the score table and both argmax sets."""
        return {
            "R": self.R,
            "scores": {
                str(v): {"simpson": s.simpson, "shannon": s.shannon}
                for v, s in sorted(self.scores.items())
            },
            "argmax_simpson": sorted(self.argmax_simpson),
            "argmax_shannon": sorted(self.argmax_shannon),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_table(self) -> str:
        """Aligned text table, one candidate per row, 3 decimals, half-up."""
        rows = [("l1", "simpson", "shannon")]
        for v in sorted(self.scores):
            s = self.scores[v]
            rows.append((str(v), _round3(s.simpson), _round3(s.shannon)))
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
        ) + "\n"


def _round3(x: float) -> str:
    return str(Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def brute_force_best(g: Graph, l0: int, R: int, snap_tol: float = SNAP_TOL) -> PlacementResult:
    """Evaluate every candidate l1 ≠ l0 and return the full score table.

    One inverse serves every candidate. With G the inverse of the Laplacian
    grounded at l0 alone, the follower opinions for the 1-leader at l1 are
    G[:, l1] / G[l1, l1]: the probability that a random walk from each node
    hits l1 before l0. A table therefore costs one O(n³) factorisation.
    """
    if g.n - 2 < 2:
        raise TooFewFollowers(f"n={g.n} leaves fewer than 2 followers after placing l1")
    if not 1 <= l0 <= g.n:
        raise InvalidLeaderConfig(f"leader {l0} outside 1..{g.n}")
    F = np.flatnonzero(np.arange(g.n) != l0 - 1)
    G = grounded_laplacian_inverse(g, F)
    m = len(G)
    # row j: the opinions with the 1-leader at candidate j, minus its own entry
    X = (G / np.diag(G)).T[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    simpson, shannon = score_rows(histogram_rows(X, R, snap_tol))
    candidates = F + 1
    return PlacementResult(
        scores={
            v: DiversityScore(simpson=s, shannon=h)
            for v, s, h in zip(candidates.tolist(), simpson.tolist(), shannon.tolist())
        },
        argmax_simpson=frozenset(candidates[simpson >= simpson.max() - TIE_TOL].tolist()),
        argmax_shannon=frozenset(candidates[shannon >= shannon.max() - TIE_TOL].tolist()),
        R=R,
    )


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


def y_tree_structure(g: Graph) -> tuple:
    """Return (center, leaves) of a Y-tree, raising NotAYTree otherwise."""
    if not g.is_tree():
        raise NotAYTree("not a tree")
    degrees = {v: g.degree(v) for v in range(1, g.n + 1)}
    centers = [v for v, d in degrees.items() if d == 3]
    if len(centers) != 1 or any(d > 3 for d in degrees.values()):
        raise NotAYTree(f"need exactly one degree-3 node and all others degree <= 2")
    leaves = sorted(v for v, d in degrees.items() if d == 1)
    return centers[0], leaves


def predict_y_tree(g: Graph, l0: int) -> frozenset:
    """Optimal 1-leader placements on a Y-tree with l0 at a leaf.

    Returns the leaf ending the longest path from l0 together with its
    neighbor (the two are equivalent); ties include both far leaves and both
    neighbors. The neighbor is the center node itself when the winning arm has
    length 1.
    """
    center, leaves = y_tree_structure(g)
    if g.degree(l0) != 1:
        raise LeaderNotLeaf(f"l0={l0} has degree {g.degree(l0)}, must be a leaf")
    others = [v for v in leaves if v != l0]
    depth = rooted_tree(g, l0).depth
    best = max(depth[v] for v in others)
    out = set()
    for v in others:
        if depth[v] == best:
            out.add(v)
            out.add(g.neighbors(v)[0])
    return frozenset(out)


def check_balanced_tree_placement(g: Graph, l0: int, l1: int) -> bool:
    """Certify an l1 placement on a tree as optimal for both measures at R = 2.

    True iff |P1| = |P3| and the P2 opinions split between the two bins with
    |c_1 − c_2| ≤ 1. The bins are exact: on a tree the opinion of v is
    d(l0, π(v)) / D with D = d(l0, l1), where π(v) is the node where v's path
    meets the l0–l1 spine, so v goes in the 0-based bin min(2·d(l0, π(v)) // D, 1)
    and no solve or snap tolerance is involved. A True result is sufficient,
    not necessary: optimal placements exist that fail the |P1| = |P3| condition.
    """
    if l0 == l1:
        raise InvalidLeaderConfig(f"l0 and l1 are both node {l0}")
    tree = rooted_tree(g, l0)
    pi = tree.projection(l1)
    p1, p2, p3 = tree.partition(l1, pi)
    if len(p1) != len(p3):
        return False
    D = tree.depth[l1]
    upper = sum(min(2 * tree.depth[pi[v]] // D, 1) for v in p2)  # c_2; c_1 = |P2| − c_2
    return abs(len(p2) - 2 * upper) <= 1
