"""Steady-state follower opinions and ODE validation of the averaging dynamics.

The converged opinions solve Lff · x_f = −Lfl · x_l. They are read off the
graph's cached Green's function (`resistance.reference_green`) with one solve
whose size is the number of leaders; the explicit-Euler integrator exists to
cross-check that algebraic answer, not to replace it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenseTooLarge, LeaderOrderViolation, SolveFailure, UnstableStep
from .graphs import DENSE_BYTES_LIMIT, Graph, LeaderConfig, laplacian_blocks
from .resistance import reference_green, solve_bordered

RESIDUAL_TOL = 1e-10  # per follower, scaled by n_f at the check


@dataclass(frozen=True)
class OpinionVector:
    """Converged follower opinions, keyed by follower node label."""

    values: dict  # follower node -> opinion in [0, 1]


@dataclass(frozen=True)
class Trajectory:
    """Euler integration record: states[i] holds follower opinions at times[i]."""

    times: np.ndarray  # shape (T,)
    states: np.ndarray  # shape (T, n_f), columns in `followers` order
    followers: tuple

    def final(self) -> OpinionVector:
        return OpinionVector(dict(zip(self.followers, self.states[-1])))


def _leader_states(lc: LeaderConfig, leader_order: tuple) -> np.ndarray:
    return np.array([0.0 if v in lc.zeros else 1.0 for v in leader_order])


def steady_state(g: Graph, lc: LeaderConfig) -> OpinionVector:
    """Converged opinions from the graph's Green's function G̃, checked by their residual.

    With S the leaders and b their values, the bordered solve
    K·[s; c] = [b; 0] (`solve_bordered`) gives the opinions
    x_F = G̃[F,S]·s + c: O(n·|S|) per call once G̃ exists. ‖(L·x)_F‖ must be
    within RESIDUAL_TOL·n_f.
    """
    S, F = lc.split(g)
    b = _leader_states(lc, (S + 1).tolist())
    G = reference_green(g)
    sol = solve_bordered(G, S, np.append(b, 0.0))
    x = G[:, S] @ sol[:-1] + sol[-1]
    x[S] = b
    residual = np.linalg.norm(g.laplacian_times(x)[F])
    n_f = len(F)
    if not residual <= RESIDUAL_TOL * n_f:
        raise SolveFailure(f"residual {residual:.3e} exceeds {RESIDUAL_TOL * n_f:.3e}")
    return OpinionVector(dict(zip((F + 1).tolist(), x[F].tolist())))


def path_closed_form(n: int, k: int, j: int) -> OpinionVector:
    """Closed-form steady state on a path with l0 at node k and l1 at node j, k < j.

    Followers strictly between the leaders interpolate linearly, (v−k)/(j−k);
    followers below k sit at 0 and followers above j at 1.
    """
    if k >= j:
        raise LeaderOrderViolation(f"need k < j, got k={k}, j={j}")
    if not (1 <= k and j <= n):
        raise LeaderOrderViolation(f"leaders ({k},{j}) outside 1..{n}")
    values = {}
    for v in range(1, n + 1):
        if v == k or v == j:
            continue
        if v < k:
            values[v] = 0.0
        elif v > j:
            values[v] = 1.0
        else:
            values[v] = (v - k) / (j - k)
    return OpinionVector(values)


def default_step(g: Graph) -> float:
    max_deg = max(g.degree(v) for v in range(1, g.n + 1))
    return 1.0 / (2.0 * max_deg)


def _step_count(horizon: float, step: float, n_f: int) -> int:
    """⌈horizon / step⌉, raising DenseTooLarge when recording that many states would
    exceed DENSE_BYTES_LIMIT."""
    nsteps = max(1, int(np.ceil(horizon / step)))
    need = 8 * (nsteps + 1) * n_f
    if need > DENSE_BYTES_LIMIT:
        raise DenseTooLarge(
            f"at least {nsteps + 1:,} states of {n_f} followers need {need:,} bytes, "
            f"over the limit of {DENSE_BYTES_LIMIT:,} bytes"
        )
    return nsteps


def simulate(
    g: Graph,
    lc: LeaderConfig,
    x0: dict,
    step: float = None,
    horizon: float = None,
) -> Trajectory:
    """Explicit-Euler integration of the follower dynamics ẋ_f = −Lff x_f − Lfl x_l.

    x0 maps nodes to initial opinions in [0, 1]; leader entries are ignored and
    pinned to 0/1. Raises UnstableStep when the step exceeds the 2/λ_max Euler
    stability bound, and DenseTooLarge when the recorded states would exceed
    DENSE_BYTES_LIMIT.
    """
    blocks = laplacian_blocks(g, lc)
    followers = blocks.followers
    n_f = len(followers)
    if step is None:
        step = default_step(g)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if step <= 2.0 * default_step(g):
        # A step ≤ 1/max_deg is stable, as λ_max ≤ 2·max_deg (Gershgorin), so no
        # UnstableStep is due: refuse an oversized run before the eigensolve.
        # λ_min ≤ 1ᵀ·Lff·1 / n_f = e(F, S) / n_f, with e(F, S) the follower–leader
        # edges, bounds the default horizon 20/λ_min from below.
        least = 20.0 * n_f / -blocks.Lfl.sum() if horizon is None else horizon
        _step_count(least, step, n_f)
    eigenvalues = np.linalg.eigvalsh(blocks.Lff)  # ascending
    bound = 2.0 / float(eigenvalues[-1])
    if step > bound:
        raise UnstableStep(f"step {step} exceeds explicit-Euler bound 2/λ_max = {bound:.6g}")
    if horizon is None:
        # slowest mode decays like exp(-λ_min t); aim its residual below 1e-8
        horizon = 20.0 / float(eigenvalues[0])
    nsteps = _step_count(horizon, step, n_f)

    x = np.array([float(x0[v]) for v in followers])
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("initial opinions must lie in [0, 1]")
    rhs_leaders = blocks.Lfl @ _leader_states(lc, blocks.leader_order)

    times = np.empty(nsteps + 1)
    states = np.empty((nsteps + 1, n_f))
    times[0] = 0.0
    states[0] = x
    for i in range(1, nsteps + 1):
        x = x + step * (-blocks.Lff @ x - rhs_leaders)
        times[i] = i * step
        states[i] = x
    return Trajectory(times=times, states=states, followers=followers)
