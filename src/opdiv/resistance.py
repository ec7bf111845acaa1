"""Effective resistance grounded at the leader set.

All quantities come from the inverse of the grounded Laplacian Lff (leaders'
rows and columns removed): r(u, v) = Lff⁻¹(u,u) + Lff⁻¹(v,v) − 2·Lff⁻¹(u,v)
and r(u, leader set) = Lff⁻¹(u,u). This is not classical two-point resistance
on the full graph; it is equivalent to resistance in the network with every
leader merged into a single ground node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAFollower, SolveFailure
from .graphs import Graph, LeaderConfig

INVERSE_TOL = 1e-10  # per-entry tolerance on inv @ Lff − I


@dataclass(frozen=True)
class GroundedInverse:
    """Inverse of the grounded Laplacian for one leader configuration."""

    inv: np.ndarray
    follower_index: dict  # follower node -> row

    def _row(self, u: int) -> int:
        if u not in self.follower_index:
            raise NotAFollower(f"node {u} is not a follower")
        return self.follower_index[u]

    def entry(self, u: int, v: int) -> float:
        return float(self.inv[self._row(u), self._row(v)])


def grounded_inverse(g: Graph, lc: LeaderConfig) -> GroundedInverse:
    """Dense inverse of Lff, checked against the identity per entry."""
    lc.validate(g)
    return inverse_grounded_at(g, lc.leaders)


def inverse_grounded_at(g: Graph, grounded) -> GroundedInverse:
    """Inverse of the Laplacian with the `grounded` nodes' rows and columns removed.

    `grounded` is a non-empty proper subset of 1..n; the callers validate it.
    Every entry of inv @ Lff − I must be within INVERSE_TOL, else SolveFailure.
    Grounding a single node l0 gives the Green's function whose diagonal entry
    at u is the l0–u effective resistance.
    """
    followers = [v for v in range(1, g.n + 1) if v not in grounded]
    keep = [v - 1 for v in followers]
    Lff = g.laplacian()[np.ix_(keep, keep)]
    try:
        inv = np.linalg.inv(Lff)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"grounded Laplacian is singular: {exc}") from exc
    err = np.max(np.abs(inv @ Lff - np.eye(len(inv))))
    if not err <= INVERSE_TOL:
        raise SolveFailure(f"inverse check failed: max entry error {err:.3e}")
    return GroundedInverse(inv=inv, follower_index={v: i for i, v in enumerate(followers)})


def pairwise_resistance(gi: GroundedInverse, u: int, v: int) -> float:
    """Grounded effective resistance between followers u and v; zero iff u = v."""
    return gi.entry(u, u) + gi.entry(v, v) - 2.0 * gi.entry(u, v)


def leader_set_resistance(gi: GroundedInverse, u: int) -> float:
    """Resistance between follower u and the (merged) leader set."""
    return gi.entry(u, u)
