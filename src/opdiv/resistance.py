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

INVERSE_TOL = 1e-10  # per-entry tolerance on Lff @ inv − I


@dataclass(frozen=True)
class GroundedInverse:
    """Inverse of the grounded Laplacian for one leader configuration."""

    inv: np.ndarray
    follower_index: dict  # follower node -> row


def reference_green(g: Graph) -> np.ndarray:
    """G̃: the inverse of L grounded at node 1, padded with a zero row and column there.

    Built on first use with the checked `grounded_laplacian_inverse` and
    memoised on g, read-only; it holds n² floats for as long as g lives.
    L·G̃ = I − e₁1ᵀ, so for any leader set S, x = G̃·s + c·1 with s supported
    on S and 1ᵀs = 0 is harmonic off S.
    """
    return g._memo("_green_cache", lambda: _padded_green(g))


def _padded_green(g: Graph) -> np.ndarray:
    inv = grounded_laplacian_inverse(g, np.arange(1, g.n))
    G = np.zeros((g.n, g.n))
    G[1:, 1:] = inv
    G.flags.writeable = False
    return G


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
    """Inverse of Lff from the graph's Green's function, checked against the identity.

    With B = [G̃[F,S], 1], Lff⁻¹ = G̃[F,F] − B·K⁻¹·Bᵀ: O(n²·|S|) per call
    once G̃ exists. The check reads Lff @ inv as the F rows of L @ P, where P
    holds inv in its F rows and zeros elsewhere: O(n·|E|), from the edge arrays.
    """
    S, F = lc.split(g)
    G = reference_green(g)
    B = np.ones((len(F), len(S) + 1))
    B[:, :-1] = G[F[:, None], S]
    inv = G[F[:, None], F] - B @ solve_bordered(G, S, B.T)
    P = np.zeros((g.n, len(F)))
    P[F] = inv
    _check_identity(g.laplacian_times(P)[F])
    return GroundedInverse(inv=inv, follower_index=row_index(F))


def grounded_laplacian_inverse(g: Graph, F: np.ndarray) -> np.ndarray:
    """Inverse of L[F, F] for a non-empty 0-based index array F of the kept nodes.

    The other nodes are grounded, so F must leave at least one out; the
    callers ensure it. Every entry of Lff @ inv − I must be within
    INVERSE_TOL, else SolveFailure; Lff is at hand here, and the dense product
    costs no more than the inverse. Keeping every node but l0 gives the
    Green's function whose diagonal entry at u is the l0–u effective resistance.
    """
    Lff = g.laplacian()[F[:, None], F]
    try:
        inv = np.linalg.inv(Lff)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"grounded Laplacian is singular: {exc}") from exc
    _check_identity(Lff @ inv)
    return inv


def _check_identity(product: np.ndarray) -> None:
    """SolveFailure unless every entry of `product` (Lff @ inv) − I is within INVERSE_TOL.

    NaN fails. `product` is overwritten.
    """
    product.ravel()[:: len(product) + 1] -= 1.0
    err = np.max(np.abs(product))
    if not err <= INVERSE_TOL:
        raise SolveFailure(f"inverse check failed: max entry error {err:.3e}")


def leader_set_resistance(gi: GroundedInverse, u: int) -> float:
    """Resistance between follower u and the (merged) leader set, Lff⁻¹(u, u)."""
    if u not in gi.follower_index:
        raise NotAFollower(f"node {u} is not a follower")
    i = gi.follower_index[u]
    return float(gi.inv[i, i])
