"""Effective resistance grounded at the leader set.

All quantities come from the inverse of the grounded Laplacian Lff (leaders'
rows and columns removed): r(u, v) = Lff⁻¹(u,u) + Lff⁻¹(v,v) − 2·Lff⁻¹(u,v)
and r(u, leader set) = Lff⁻¹(u,u). This is not classical two-point resistance
on the full graph; it is equivalent to resistance in the network with every
leader merged into a single ground node.

Every leader set is served from one reference Green's function per graph,
G̃ = `reference_green(g)`, plus a bordered solve whose size is the number of
leaders (`solve_bordered`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAFollower, SolveFailure
from .graphs import Graph, LeaderConfig, row_index

INVERSE_TOL = 1e-10  # per-entry tolerance on L·P − I off the grounded rows
BLOCK = 256  # columns per step of `check_inverse` and of the dense engine's binning


@dataclass(frozen=True)
class GroundedInverse:
    """Inverse of the grounded Laplacian for one leader configuration."""

    inv: np.ndarray
    follower_index: dict  # follower node -> row


def reference_green(g: Graph) -> np.ndarray:
    """G̃: the inverse of L grounded at node 1, padded with a zero row and column there.

    opdiv's only dense inverse: built on first use, checked by `check_inverse`
    and memoised on g, read-only, holding n² floats for as long as g lives.
    L·G̃ = I − e₁1ᵀ, so for any leader set S, x = G̃·s + c·1 with s supported
    on S and 1ᵀs = 0 is harmonic off S.
    """
    return g._memo("_green_cache", lambda: _padded_green(g))


def _padded_green(g: Graph) -> np.ndarray:
    try:  # L is freed on return, before G exists, and inv before the check: 2·n² floats
        inv = np.linalg.inv(g.laplacian()[1:, 1:])
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"grounded Laplacian is singular: {exc}") from exc
    G = np.zeros((g.n, g.n))
    G[1:, 1:] = inv
    del inv
    check_inverse(g, G[:, 1:], 0, np.arange(1, g.n))
    G.flags.writeable = False
    return G


def check_inverse(g: Graph, P: np.ndarray, ground, J: np.ndarray) -> None:
    """SolveFailure unless column k of P is column J[k] of L's inverse, grounded where P is zero.

    `ground` indexes the grounded entries of L·P: a row or rows that every
    column shares, or, when P has at most BLOCK columns, a (rows, columns)
    pair that grounds each column at its own row. Every other entry of
    L·P − I[:, J] must be within INVERSE_TOL; NaN fails. L·P comes from the
    edge arrays, BLOCK columns at a time: O(|E|) time per column, O(n·BLOCK)
    memory.
    """
    for a in range(0, len(J), BLOCK):
        E = g.laplacian_times(P[:, a : a + BLOCK])
        E[J[a : a + BLOCK], np.arange(E.shape[1])] -= 1.0
        E[ground] = 0.0
        err = np.abs(E, out=E).max()
        if not err <= INVERSE_TOL:
            raise SolveFailure(f"inverse check failed: max entry error {err:.3e}")


def solve_bordered(G: np.ndarray, S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve K·y = rhs for K = [[G̃[S,S], 1], [1ᵀ, 0]], the bordered matrix of leader set S.

    K is nonsingular for every non-empty proper S. Node 1 may be a leader:
    its zero row in G̃ then fixes the constant c.
    """
    k = len(S)
    K = np.ones((k + 1, k + 1))
    K[:k, :k] = G[S[:, None], S]
    K[k, k] = 0.0
    try:
        return np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"bordered Green's-function system is singular: {exc}") from exc


def grounded_inverse(g: Graph, lc: LeaderConfig) -> GroundedInverse:
    """Inverse of Lff from the graph's Green's function, checked by `check_inverse`.

    With B = [G̃[F,S], 1], Lff⁻¹ = G̃[F,F] − B·K⁻¹·Bᵀ: O(n²·|S|) per call
    once G̃ exists. P holds inv in its F rows and zeros elsewhere, so the
    check reads Lff @ inv as the F rows of L @ P: O(n·|E|), from the edge arrays.
    """
    S, F = lc.split(g)
    G = reference_green(g)
    B = np.ones((len(F), len(S) + 1))
    B[:, :-1] = G[F[:, None], S]
    inv = G[F[:, None], F] - B @ solve_bordered(G, S, B.T)
    P = np.zeros((g.n, len(F)))
    P[F] = inv
    check_inverse(g, P, S, F)
    return GroundedInverse(inv=inv, follower_index=row_index(F))


def leader_set_resistance(gi: GroundedInverse, u: int) -> float:
    """Resistance between follower u and the (merged) leader set, Lff⁻¹(u, u)."""
    if u not in gi.follower_index:
        raise NotAFollower(f"node {u} is not a follower")
    i = gi.follower_index[u]
    return float(gi.inv[i, i])
