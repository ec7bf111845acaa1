"""One follower split, one checked inverse, and the array-based appendix suite.

`LeaderConfig.split` is the only place that orders followers, so every
follower-keyed output must list F + 1 in row order. `verify_appendix` reads
its resistances off one matrix per tree; the oracle below is the earlier
scalar version, built from the `pairwise_resistance` oracle in conftest,
`leader_set_resistance` and `laplacian_blocks`, and with `NUM_TOL` patched to −1 every comparison emits
its message, so equal message lists mean equal values at every check.
"""
import random
from collections import deque

import numpy as np
import pytest

from opdiv import (
    LeaderConfig,
    cycle,
    grounded_inverse,
    laplacian_blocks,
    leader_set_resistance,
    path,
    simulate,
    single_pair,
    steady_state,
)
from opdiv import dynamics, graphs, verify
from opdiv.errors import SolveFailure
from opdiv.resistance import reference_green
from opdiv.verify import random_tree

from conftest import pairwise_resistance
from test_green import with_extra_edges


def merged_components(g, leaders, removed):
    """Follower components after merging the leaders into node 0 and deleting one node.

    The earlier graph search behind `verify._merged_components`: the leader
    side comes first (holding the sentinel 0), then the rest by smallest label.
    """
    ground = 0
    adj = {ground: set()}
    for v in range(1, g.n + 1):
        if v in leaders or v == removed:
            continue
        adj[v] = set()
    for u, v in g.edges:
        cu = ground if u in leaders else u
        cv = ground if v in leaders else v
        if cu in adj and cv in adj and cu != cv:
            adj[cu].add(cv)
            adj[cv].add(cu)
    comps = []
    seen = set()
    for s in adj:
        if s in seen:
            continue
        comp = {s}
        queue = deque([s])
        seen.add(s)
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def scalar_verify_appendix(max_n, n_trees, seed=verify.DEFAULT_SEED):
    """`verify_appendix` as it was: one scalar lookup per resistance."""
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
        gi = grounded_inverse(g, lc)
        followers = sorted(gi.follower_index)

        for x in followers:
            comps = merged_components(g, {l0, l1}, x)
            for i, cu in enumerate(comps):
                for cv in comps[i + 1 :]:
                    for u in sorted(cu - {0}):
                        for v in sorted(cv - {0}):
                            lhs = pairwise_resistance(gi, u, v)
                            rhs = pairwise_resistance(gi, u, x) + pairwise_resistance(gi, x, v)
                            if abs(lhs - rhs) > verify.NUM_TOL:
                                bad.append(
                                    f"{label}: r({u},{v})={lhs} != r({u},{x})+r({x},{v})={rhs}"
                                )

        x = steady_state(g, lc)
        pi = graphs.rooted_tree(g, l0).projection(l1)
        for u in followers:
            t = pi[u]
            if t in (u, l0, l1):
                continue
            if abs(x.values[u] - x.values[t]) > verify.NUM_TOL:
                bad.append(f"{label}: opinion({u})={x.values[u]} != opinion({t})={x.values[t]}")
            ident = (
                leader_set_resistance(gi, u)
                - pairwise_resistance(gi, u, t)
                - leader_set_resistance(gi, t)
            )
            if abs(ident) > verify.NUM_TOL:
                bad.append(f"{label}: cut identity at u={u}, t={t} off by {ident}")

        blocks = graphs.laplacian_blocks(g, lc)
        xl = [0.0 if v in lc.zeros else 1.0 for v in blocks.leader_order]
        recon = -gi.inv @ (blocks.Lfl @ xl)
        for v in followers:
            if abs(recon[gi.follower_index[v]] - x.values[v]) > verify.NUM_TOL:
                bad.append(f"{label}: inverse-based opinion mismatch at node {v}")
    return bad


class TestAppendixAgainstScalarOracle:
    @pytest.mark.parametrize("max_n,n_trees,messages", [(12, 200, 7988), (30, 40, 17700)])
    def test_every_message_identical(self, monkeypatch, max_n, n_trees, messages):
        monkeypatch.setattr(verify, "NUM_TOL", -1.0)
        want = scalar_verify_appendix(max_n, n_trees)
        assert len(want) == messages
        assert verify.verify_appendix(max_n, n_trees) == want

    def test_components_match_the_graph_search(self):
        rng = random.Random(17)
        for _ in range(150):
            g = random_tree(rng.randrange(5, 25), rng)
            l0, l1 = rng.sample(range(1, g.n + 1), 2)
            tree = graphs.rooted_tree(g, l0)
            for x in set(range(1, g.n + 1)) - {l0, l1}:
                want = [comp - {0} for comp in merged_components(g, {l0, l1}, x)]
                assert verify._merged_components(tree, l1, x) == want

    def test_default_run_clean_on_both(self):
        assert verify.verify_appendix(12) == scalar_verify_appendix(12, 200) == []


def split_families():
    rng = random.Random(6)
    out = [path(n) for n in (3, 4, 9)] + [cycle(n) for n in (3, 6, 11)]
    out += [random_tree(rng.randrange(5, 30), rng) for _ in range(4)]
    out += [with_extra_edges(random_tree(rng.randrange(6, 30), rng), 3, rng) for _ in range(4)]
    return out


def split_configs(g, rng):
    nodes = range(1, g.n + 1)
    configs = [single_pair(*rng.sample(nodes, 2)) for _ in range(3)]
    configs.append(single_pair(g.n, 1))
    for _ in range(3):
        k = rng.randrange(2, g.n)
        chosen = rng.sample(nodes, k)
        cut = rng.randrange(1, k)
        configs.append(LeaderConfig(zeros=frozenset(chosen[:cut]), ones=frozenset(chosen[cut:])))
    return configs


class TestFollowerSplit:
    @pytest.mark.parametrize("g", split_families(), ids=lambda g: f"n{g.n}e{len(g.edges)}")
    def test_every_follower_keyed_output_uses_the_split_order(self, g):
        rng = random.Random(g.n * 1000 + len(g.edges))
        for lc in split_configs(g, rng):
            S, F = lc.split(g)
            labels = (F + 1).tolist()
            assert labels == sorted(set(range(1, g.n + 1)) - lc.leaders)
            blocks = laplacian_blocks(g, lc)
            gi = grounded_inverse(g, lc)
            for index in (blocks.follower_index, gi.follower_index):
                assert list(index) == labels
                assert list(index.values()) == list(range(len(F)))
            assert list(steady_state(g, lc).values) == labels
            assert list(blocks.leader_order) == (S + 1).tolist() == sorted(lc.leaders)


class TestCheckedInverse:
    def test_matches_dense_inverse_of_the_block(self):
        g = with_extra_edges(random_tree(20, random.Random(2)), 4, random.Random(3))
        F = np.array([0, 3, 4, 7, 8, 12, 19])
        leaders = sorted(set(range(1, 21)) - set((F + 1).tolist()))
        inv = grounded_inverse(g, LeaderConfig(zeros=leaders[:5], ones=leaders[5:])).inv
        assert np.allclose(inv @ g.laplacian()[np.ix_(F, F)], np.eye(len(F)), atol=1e-12)
        G = reference_green(g)  # the one inverse behind it, of L grounded at node 1
        assert np.allclose(G[1:, 1:] @ g.laplacian()[1:, 1:], np.eye(19), atol=1e-12)

    def test_singular_block_is_a_solve_failure(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        g = path(4)
        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(SolveFailure, match="singular"):
            steady_state(g, single_pair(1, 4))
        assert g._green_cache is None


class TestWorkCounts:
    def test_paths_suite_builds_each_table_once(self, monkeypatch):
        calls = []
        real = verify.brute_force_best

        def counted(g, l0, R):
            calls.append((g.n, l0, R))
            return real(g, l0, R)

        monkeypatch.setattr(verify, "brute_force_best", counted)
        assert verify.verify_paths(9) == []
        assert sorted(calls) == sorted({
            (n, k, R) for n in range(4, 10) for k in range(1, n + 1) for R in (n - 2, 2)
        })

    def test_audit_builds_one_path_per_n(self, monkeypatch):
        built = []
        real = graphs.path
        monkeypatch.setattr(graphs, "path", lambda n: built.append(n) or real(n))
        lines = verify.audit_theorem2(8)
        assert built == list(range(4, 9))
        assert len(lines) == sum(range(4, 9))

    def test_simulate_decomposes_once(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(dynamics.np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
        simulate(path(5), single_pair(1, 5), {v: 0.5 for v in range(1, 6)})
        assert len(calls) == 1
