"""Exhaustive and randomized sweeps checking the predictors against brute force.

Each sweep returns a list of counterexample strings (empty means verified) so
the CLI and the test suite share one implementation. All randomness is seeded;
a sweep is a deterministic function of its arguments.
"""
from __future__ import annotations

import bisect
import random

import numpy as np

from . import graphs
from .diversity import max_diversity
from .dynamics import steady_state
from .placement import (
    brute_force_best,
    check_balanced_tree_placement,
    predict_cycle,
    predict_path,
    predict_y_tree,
)
from .resistance import grounded_inverse

NUM_TOL = 1e-9
DEFAULT_SEED = 20180212


def random_tree(n: int, rng: random.Random) -> graphs.Graph:
    """Uniform random labeled tree on n nodes via a Prüfer sequence."""
    if n == 2:
        return graphs.build_graph(2, [(1, 2)])
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    return graphs.build_graph(n, prufer_edges(n, seq))


def prufer_edges(n: int, seq: list) -> list:
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in degree if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return edges


def audit_theorem2(max_n: int) -> list:
    """Report, per (n, k), whether the stated R=2 placement j attains the optimum.

    The stated rule is j = n−k+1 for k < n/2 and j = n−k otherwise; rows where
    it produces an invalid node (j = k or j < 1) or a suboptimal one are
    reported verbatim. This is an audit, not a pass/fail check.
    """
    lines = []
    for n in range(4, max_n + 1):
        g = graphs.path(n)
        for k in range(1, n + 1):
            result = brute_force_best(g, k, 2)
            j = n - k + 1 if k < n / 2 else n - k
            if j == k or not 1 <= j <= n:
                verdict = f"invalid (j={j})"
            elif j in result.argmax_simpson and j in result.argmax_shannon:
                verdict = "optimal"
            else:
                verdict = (
                    f"suboptimal (argmax_simpson={sorted(result.argmax_simpson)}, "
                    f"argmax_shannon={sorted(result.argmax_shannon)})"
                )
            lines.append(f"path n={n} k={k}: stated j={j}: {verdict}")
    return lines


def _argmax_miss(pred: set, result, equal: bool = False) -> str:
    """Empty when pred lies in both argmax sets of result (with `equal`, is both),
    else the counterexample's text."""
    simpson, shannon = result.argmax_simpson, result.argmax_shannon
    if (pred == simpson == shannon) if equal else (pred <= simpson and pred <= shannon):
        return ""
    return (
        f"predicted {sorted(pred)} {'!=' if equal else 'not in'} argmax "
        f"(simpson {sorted(simpson)}, shannon {sorted(shannon)})"
    )


def verify_paths(max_n: int) -> list:
    """Theorem sweeps on paths: farthest-endpoint at R=n_f, mirror node at R=2."""
    bad = []
    for n in range(4, max_n + 1):
        g = graphs.path(n)
        for k in range(1, n + 1):
            tables = {}
            for R in dict.fromkeys((n - 2, 2)):  # one table at n = 4, where n − 2 = 2
                result = tables[R] = brute_force_best(g, k, R)
                pred = predict_path(n, k, "nf" if R != 2 else 2)
                if miss := _argmax_miss(pred, result):
                    bad.append(f"path n={n} k={k} R={R}: {miss}")
            # post-Theorem-1 shortfall: optimal Simpson = 1 − m(m−1)/(n_f(n_f−1))
            # with m zeros-side followers for the better endpoint
            n_f = n - 2
            m = min(k - 1, n - k)
            expect = 1.0 - m * (m - 1) / (n_f * (n_f - 1))
            attained = max(s.simpson for s in tables[n_f].scores.values())
            if abs(attained - expect) > NUM_TOL:
                bad.append(f"path n={n} k={k}: Simpson optimum {attained} != {expect}")
    return bad


def verify_cycles(max_n: int) -> list:
    """Theorem sweeps on cycles with l0 = 1, at R = n_f and R = 2: the exact
    argmax sets, whose members attain `max_diversity`."""
    bad = []
    for n in range(4, max_n + 1):
        g = graphs.cycle(n)
        n_f = n - 2
        for R in dict.fromkeys((n_f, 2)):  # one table at n = 4, where n_f = 2
            result = brute_force_best(g, 1, R)
            expected = predict_cycle(n, "nf" if R != 2 else 2)
            if miss := _argmax_miss(expected, result, equal=True):
                bad.append(f"cycle n={n} R={R}: {miss}")
            best = result.scores[min(expected)]
            for measure in ("simpson", "shannon"):
                got, bound = getattr(best, measure), max_diversity(n_f, R, measure)
                if abs(got - bound) > NUM_TOL:
                    bad.append(f"cycle n={n} R={R} {measure}: optimum {got} != bound {bound}")
    return bad


def verify_ytrees(max_arm: int) -> list:
    """Theorem sweep on Y-trees: farthest leaf and its neighbor, R = n_f."""
    bad = []
    for a0 in range(1, max_arm + 1):
        for a1 in range(1, max_arm + 1):
            for a2 in range(1, max_arm + 1):
                g = graphs.y_tree(a0, a1, a2)
                result = brute_force_best(g, 1, g.n - 2)
                if miss := _argmax_miss(predict_y_tree(g, 1), result):
                    bad.append(f"ytree({a0},{a1},{a2}): {miss}")
    return bad


def verify_trees_r2(max_n: int, n_trees: int = 200, seed: int = DEFAULT_SEED) -> list:
    """Balanced-placement certification: whenever the check passes, the
    placement must attain the brute-force optimum for both measures at R = 2."""
    rng = random.Random(seed)
    bad = []
    for _ in range(n_trees):
        n = rng.randrange(5, max_n + 1)
        g = random_tree(n, rng)
        results = {}
        for l0 in range(1, n + 1):
            for l1 in range(1, n + 1):
                if l1 == l0:
                    continue
                if not check_balanced_tree_placement(g, l0, l1):
                    continue
                if l0 not in results:
                    results[l0] = brute_force_best(g, l0, 2)
                if miss := _argmax_miss({l1}, results[l0]):
                    label = f"tree n={n} edges={sorted(g.edges)} l0={l0} l1={l1}"
                    bad.append(f"{label} certified: {miss}")
    return bad


def _merged_components(tree: graphs.RootedTree, l1: int, x: int) -> list:
    """Follower components after deleting follower x, with the two leaders merged.

    `tree` is rooted at the 0-leader. Deleting x leaves x's child subtrees
    and the rest of the tree, which holds the root; the child subtree that
    holds l1 joins the rest through the merged leaders. The leader side comes
    first, then the other subtrees by smallest label.
    """
    leaders = {tree.root, l1}
    inside = set(tree.subtree(x))
    side = set(tree.order) - inside
    comps = []
    for c in tree.subtree(x)[1:]:
        if tree.parent[c] == x:
            sub = set(tree.subtree(c))
            if l1 in sub:
                side |= sub
            else:
                comps.append(sub)
    return [side - leaders] + sorted(comps, key=min)


def verify_appendix(max_n: int, n_trees: int = 200, seed: int = DEFAULT_SEED) -> list:
    """Resistance lemmas on random trees with leaf leader pairs.

    Checks cutpoint additivity through every separating follower, the
    branch-opinion equality at junctions on the leader path, the cut identity
    Lff⁻¹(u,u) − r(u,t) − Lff⁻¹(t,t) = 0, and consistency of the grounded
    inverse with the steady-state solve. Every resistance is read off one
    matrix per tree, r = d·1ᵀ + 1·dᵀ − 2·Lff⁻¹ with d = diag(Lff⁻¹).
    """
    rng = random.Random(seed)
    bad = []
    trees = 0
    while trees < n_trees:
        n = rng.randrange(5, max_n + 1)
        g = random_tree(n, rng)
        leaves = sorted(v for v in range(1, n + 1) if g.degree(v) == 1)
        if len(leaves) < 2:
            continue
        l0, l1 = rng.sample(leaves, 2)
        trees += 1
        label = f"tree n={n} edges={sorted(g.edges)} l0={l0} l1={l1}"
        lc = graphs.single_pair(l0, l1)
        _, F = lc.split(g)
        inv = grounded_inverse(g, lc).inv
        diag = np.diag(inv)
        r = (diag[:, None] + diag[None, :] - 2.0 * inv).tolist()
        d = diag.tolist()
        row = graphs.row_index(F)
        followers = (F + 1).tolist()

        # cutpoint additivity through every separating follower x
        tree = graphs.rooted_tree(g, l0)
        for x in followers:
            comps = _merged_components(tree, l1, x)
            for i, cu in enumerate(comps):
                for cv in comps[i + 1 :]:
                    for u in sorted(cu):
                        for v in sorted(cv):
                            lhs = r[row[u]][row[v]]
                            rhs = r[row[u]][row[x]] + r[row[x]][row[v]]
                            if abs(lhs - rhs) > NUM_TOL:
                                bad.append(
                                    f"{label}: r({u},{v})={lhs} != r({u},{x})+r({x},{v})={rhs}"
                                )

        # branch-opinion equality and the cut identity at each junction: the
        # interior spine node t = π(u) where an off-spine follower u hangs
        x = steady_state(g, lc)
        pi = tree.projection(l1)
        for u in followers:
            t = pi[u]
            if t in (u, l0, l1):
                continue
            if abs(x.values[u] - x.values[t]) > NUM_TOL:
                bad.append(f"{label}: opinion({u})={x.values[u]} != opinion({t})={x.values[t]}")
            ident = d[row[u]] - r[row[u]][row[t]] - d[row[t]]
            if abs(ident) > NUM_TOL:
                bad.append(f"{label}: cut identity at u={u}, t={t} off by {ident}")

        # grounded inverse vs. steady state: Lfl·x_l is (L·x_l)[F] with x_l zero on F
        xl = np.zeros(n)
        xl[l1 - 1] = 1.0
        recon = -inv @ g.laplacian_times(xl)[F]
        for v in followers:
            if abs(recon[row[v]] - x.values[v]) > NUM_TOL:
                bad.append(f"{label}: inverse-based opinion mismatch at node {v}")
    return bad


# Each lambda looks its sweep up in this module's namespace at call time, so a
# tracer that rebinds verify_paths and the rest (bench/spans.py) sees the calls.
# Binding the functions themselves here would keep the originals and hide the
# sweeps from its spans without any error.
SUITES = {
    "paths": lambda bound: verify_paths(bound),
    "cycles": lambda bound: verify_cycles(bound),
    "ytrees": lambda bound: verify_ytrees(bound),
    "trees-R2": lambda bound: verify_trees_r2(bound),
    "appendix": lambda bound: verify_appendix(bound),
}
