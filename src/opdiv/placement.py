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

from .diversity import DiversityScore, SNAP_TOL, bin_opinions, histogram_rows, score_rows
from .dynamics import OpinionVector, steady_state
from .errors import InvalidLeaderConfig, LeaderNotLeaf, NotATree, NotAYTree, TooFewFollowers
from .graphs import Graph, partition_followers, single_pair, tree_path
from .resistance import inverse_grounded_at

TIE_TOL = 1e-9


@dataclass(frozen=True)
class PlacementResult:
    """Score table over all candidate 1-leader nodes plus both argmax sets."""

    scores: dict  # candidate node -> DiversityScore
    argmax_simpson: frozenset
    argmax_shannon: frozenset
    R: int

    def to_json(self) -> str:
        payload = {
            "R": self.R,
            "scores": {
                str(v): {"simpson": s.simpson, "shannon": s.shannon}
                for v, s in sorted(self.scores.items())
            },
            "argmax_simpson": sorted(self.argmax_simpson),
            "argmax_shannon": sorted(self.argmax_shannon),
        }
        return json.dumps(payload, indent=2)

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
    green = inverse_grounded_at(g, {l0})
    G = green.inv
    m = len(G)
    # row j: the opinions with the 1-leader at candidate j, minus its own entry
    X = (G / np.diag(G)).T[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    simpson, shannon = score_rows(histogram_rows(X, R, snap_tol))
    scores = {
        v: DiversityScore(simpson=s, shannon=h)
        for v, s, h in zip(green.follower_index, simpson.tolist(), shannon.tolist())
    }
    best_s = max(s.simpson for s in scores.values())
    best_h = max(s.shannon for s in scores.values())
    return PlacementResult(
        scores=scores,
        argmax_simpson=frozenset(v for v, s in scores.items() if s.simpson >= best_s - TIE_TOL),
        argmax_shannon=frozenset(v for v, s in scores.items() if s.shannon >= best_h - TIE_TOL),
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
    dists = {v: len(tree_path(g, l0, v)) - 1 for v in others}
    best = max(dists.values())
    out = set()
    for v in others:
        if dists[v] == best:
            out.add(v)
            out.add(g.neighbors(v)[0])
    return frozenset(out)


def check_balanced_tree_placement(g: Graph, l0: int, l1: int, R: int = 2) -> bool:
    """Certify an l1 placement on a tree as optimal for both measures at R = 2.

    True iff |P1| = |P3| and the steady-state opinions of the P2 followers
    split between the two bins with |c_1 − c_2| ≤ 1 (evaluated numerically).
    A True result is sufficient, not necessary: optimal placements exist that
    fail the |P1| = |P3| condition.
    """
    if R != 2:
        raise ValueError(f"balanced-placement check is defined for R=2, got R={R}")
    if not g.is_tree():
        raise NotATree("balanced-placement check is defined on trees")
    p1, p2, p3 = partition_followers(g, l0, l1)
    if len(p1) != len(p3):
        return False
    x = steady_state(g, single_pair(l0, l1))
    h = bin_opinions(OpinionVector({v: x.values[v] for v in p2}), 2)
    return abs(h.counts[0] - h.counts[1]) <= 1
