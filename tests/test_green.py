"""The Green's-function steady state and grounded inverse against the dense solves they replaced.

`steady_state` and `grounded_inverse` read every leader set off one cached
reference Green's function per graph, G̃ (the inverse of L grounded at node
1, padded with zeros), plus a bordered solve of size |S| + 1. The oracles
below are the earlier implementations: `laplacian_blocks` with
`np.linalg.solve` for the steady state, and a direct `np.linalg.inv` of Lff
checked by the dense product inv @ Lff.
"""
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from opdiv import (
    LeaderConfig,
    brute_force_best,
    build_graph,
    check_balanced_tree_placement,
    cycle,
    grounded_inverse,
    laplacian_blocks,
    path,
    read_edge_list,
    simulate,
    single_pair,
    steady_state,
    write_edge_list,
    y_tree,
)
from opdiv import dynamics, resistance
from opdiv.errors import DenseTooLarge, EndpointOutOfRange, InvalidLeaderConfig, SolveFailure
from opdiv.graphs import DENSE_BYTES_LIMIT, RootedTree, check_dense_size, rooted_tree
from opdiv.resistance import reference_green
from opdiv.verify import random_tree

VALUE_TOL = 1e-12  # opinions lie in [0, 1]
INV_RTOL = 1e-10  # inverse entries, relative to the largest entry


def oracle_steady_state(g, lc):
    """Follower -> opinion from laplacian_blocks and one dense solve, residual-checked."""
    blocks = laplacian_blocks(g, lc)
    xl = np.array([0.0 if v in lc.zeros else 1.0 for v in blocks.leader_order])
    rhs = -blocks.Lfl @ xl
    x = np.linalg.solve(blocks.Lff, rhs)
    residual = np.linalg.norm(blocks.Lff @ x - rhs)
    if residual > dynamics.RESIDUAL_TOL * len(x):
        raise SolveFailure(f"residual {residual:.3e}")
    return dict(zip(blocks.followers, x.tolist()))


def oracle_grounded_inverse(g, lc):
    """(inv, follower_index) from a direct inverse of Lff, identity-checked per entry."""
    blocks = laplacian_blocks(g, lc)
    inv = np.linalg.inv(blocks.Lff)
    err = np.max(np.abs(inv @ blocks.Lff - np.eye(len(inv))))
    if not err <= resistance.INVERSE_TOL:
        raise SolveFailure(f"inverse check failed: max entry error {err:.3e}")
    return inv, blocks.follower_index


def with_extra_edges(g, k, rng):
    edges = set(g.edges)
    while len(edges) < len(g.edges) + k:
        u, v = sorted(rng.sample(range(1, g.n + 1), 2))
        edges.add((u, v))
    return build_graph(g.n, edges)


def families():
    """(label, graph) over paths, cycles, Y-trees, Prüfer trees and trees plus extra edges."""
    rng = random.Random(20180212)
    out = [(f"path:{n}", path(n)) for n in (3, 4, 7, 30)]
    out += [(f"cycle:{n}", cycle(n)) for n in (3, 5, 12, 31)]
    out += [(f"ytree:{a}", y_tree(*a)) for a in ((1, 1, 1), (2, 3, 4), (6, 1, 5))]
    for i in range(6):
        out.append((f"prufer-{i}", random_tree(rng.randrange(5, 41), rng)))
    for i in range(6):
        t = random_tree(rng.randrange(6, 41), rng)
        out.append((f"tree+edges-{i}", with_extra_edges(t, 1 + t.n // 8, rng)))
    return out


FAMILIES = families()


def leader_configs(g, rng):
    """Single pairs, multi-leader configs, and configs with node 1 in either set."""
    nodes = range(1, g.n + 1)
    configs = [single_pair(*rng.sample(nodes, 2)) for _ in range(4)]
    configs += [single_pair(1, rng.randrange(2, g.n + 1)), single_pair(g.n, 1)]
    for _ in range(4):
        k = rng.randrange(2, g.n)  # leaves at least one follower
        chosen = rng.sample(nodes, k)
        cut = rng.randrange(1, k)
        configs.append(LeaderConfig(zeros=frozenset(chosen[:cut]), ones=frozenset(chosen[cut:])))
    if g.n >= 4:
        others = rng.sample(range(2, g.n + 1), 2)
        configs.append(LeaderConfig(zeros=frozenset({1, others[0]}), ones=frozenset({others[1]})))
        configs.append(LeaderConfig(zeros=frozenset({others[0]}), ones=frozenset({1, others[1]})))
    return configs


@pytest.mark.parametrize("label,g", FAMILIES, ids=[label for label, _ in FAMILIES])
class TestAgainstDenseOracles:
    def test_steady_state(self, label, g):
        rng = random.Random(label)
        for lc in leader_configs(g, rng):
            want = oracle_steady_state(g, lc)
            got = steady_state(g, lc).values
            assert list(got) == list(want)
            assert max(abs(got[v] - want[v]) for v in want) <= VALUE_TOL, (label, lc)

    def test_grounded_inverse(self, label, g):
        rng = random.Random(label)
        for lc in leader_configs(g, rng):
            inv, index = oracle_grounded_inverse(g, lc)
            gi = grounded_inverse(g, lc)
            assert gi.follower_index == index
            assert np.max(np.abs(gi.inv - inv)) <= INV_RTOL * np.max(np.abs(inv)), (label, lc)


class TestHistoryIndependence:
    def test_reused_graph_matches_fresh_bit_for_bit(self):
        rng = random.Random(7)
        t = random_tree(60, rng)
        for g in (t, with_extra_edges(t, 8, rng)):
            text = write_edge_list(g)
            configs = leader_configs(g, rng)
            # warm every cache on g with other work first
            brute_force_best(g, 3, 2)
            for lc in configs[::-1]:
                steady_state(g, lc)
                grounded_inverse(g, lc)
            for lc in configs:
                fresh = read_edge_list(text)
                assert fresh._green_cache is None
                assert steady_state(g, lc).values == steady_state(fresh, lc).values
                assert np.array_equal(grounded_inverse(g, lc).inv,
                                      grounded_inverse(read_edge_list(text), lc).inv)

    def test_cache_filled_on_first_use_only(self):
        g = read_edge_list(write_edge_list(cycle(9)))
        assert g._green_cache is None and build_graph(4, path(4).edges)._green_cache is None
        steady_state(g, single_pair(2, 5))
        G = g._green_cache
        assert G.shape == (9, 9) and not G[0].any() and not G[:, 0].any()
        grounded_inverse(g, single_pair(3, 7))
        assert reference_green(g) is G

    def test_green_is_read_only(self):
        G = reference_green(path(5))
        with pytest.raises(ValueError):
            G[1, 1] = 0.0

    def test_invalid_config_raises_before_any_cache(self):
        g = path(5)
        for call in (steady_state, grounded_inverse):
            with pytest.raises(InvalidLeaderConfig):
                call(g, single_pair(1, 6))
        assert g._green_cache is None


class TestSolveFailureParity:
    def test_residual_check(self, monkeypatch):
        g, lc = cycle(8), single_pair(1, 4)
        steady_state(g, lc)  # the check must fail on a warm cache too
        monkeypatch.setattr("opdiv.dynamics.RESIDUAL_TOL", -1.0)
        with pytest.raises(SolveFailure):
            oracle_steady_state(g, lc)
        with pytest.raises(SolveFailure):
            steady_state(g, lc)

    def test_inverse_check(self, monkeypatch):
        g, lc = random_tree(12, random.Random(3)), single_pair(2, 9)
        grounded_inverse(g, lc)
        monkeypatch.setattr("opdiv.resistance.INVERSE_TOL", -1.0)
        with pytest.raises(SolveFailure):
            oracle_grounded_inverse(g, lc)
        with pytest.raises(SolveFailure):
            grounded_inverse(g, lc)

    def test_failed_green_is_not_cached(self, monkeypatch):
        g, lc = path(7), single_pair(2, 6)
        monkeypatch.setattr("opdiv.resistance.INVERSE_TOL", -1.0)
        with pytest.raises(SolveFailure):
            steady_state(g, lc)
        assert g._green_cache is None
        monkeypatch.undo()
        assert steady_state(g, lc).values == steady_state(path(7), lc).values

    def test_nan_fails_inverse_check(self):
        with pytest.raises(SolveFailure):
            resistance.check_inverse(path(3), np.full((3, 2), np.nan), 0, np.array([1, 2]))


def laplacian_loop(g):
    """The per-edge loop the vectorised Laplacian replaced."""
    L = np.zeros((g.n, g.n))
    for u, v in g.edges:
        L[u - 1, v - 1] -= 1.0
        L[v - 1, u - 1] -= 1.0
        L[u - 1, u - 1] += 1.0
        L[v - 1, v - 1] += 1.0
    return L


@pytest.mark.parametrize("label,g", FAMILIES + [("n1", build_graph(1, []))],
                         ids=[label for label, _ in FAMILIES] + ["n1"])
class TestEdgeIndex:
    def test_laplacian_bit_identical_to_loop(self, label, g):
        assert np.array_equal(g.laplacian(), laplacian_loop(g))

    def test_laplacian_times_matches_dense(self, label, g):
        rng = np.random.default_rng(5)
        L = laplacian_loop(g)
        for shape in ((g.n,), (g.n, 3), (g.n, g.n)):
            P = rng.standard_normal(shape)
            assert np.allclose(g.laplacian_times(P), L @ P, rtol=0, atol=1e-12)

    def test_slots_cover_each_edge_twice_without_repeated_rows(self, label, g):
        ix = g.edge_index
        assert sorted(zip(ix.rows.tolist(), ix.cols.tolist())) == sorted(
            (r, c) for rows, cols in ix.slots for r, c in zip(rows.tolist(), cols.tolist()))
        pairs = sorted(zip(ix.rows.tolist(), ix.cols.tolist()))
        assert pairs == sorted([(u - 1, v - 1) for u, v in g.edges] +
                               [(v - 1, u - 1) for u, v in g.edges])
        for rows, _ in ix.slots:
            assert len(set(rows.tolist())) == len(rows)


class TestDenseSizeGuard:
    N = 10**5

    @pytest.fixture(scope="class")
    def big_path(self):
        text = f"n {self.N}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, self.N))
        return read_edge_list(text)

    @pytest.mark.parametrize("call", [
        lambda g: steady_state(g, single_pair(1, g.n)),
        lambda g: grounded_inverse(g, single_pair(1, g.n)),
        lambda g: brute_force_best(g, 1, 2),
        lambda g: laplacian_blocks(g, single_pair(1, g.n)),
        lambda g: simulate(g, single_pair(1, g.n), {}),
        reference_green,
    ], ids=["steady_state", "grounded_inverse", "brute_force_best", "laplacian_blocks",
            "simulate", "reference_green"])
    def test_raises_before_allocating(self, big_path, call):
        tracemalloc.start()
        try:
            with pytest.raises(DenseTooLarge, match=f"{DENSE_BYTES_LIMIT:,} bytes"):
                call(big_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20  # the n×n array would be 80 GB
        assert big_path._green_cache is None

    def test_limit_boundary(self):
        largest = int((DENSE_BYTES_LIMIT // 8) ** 0.5)
        check_dense_size(largest)  # computes a size, allocates nothing
        with pytest.raises(DenseTooLarge, match=f"n ≤ {largest:,}"):
            check_dense_size(largest + 1)

    def test_dense_place_peak(self):
        # G̃ and the inverse it is copied from are the only n×n arrays; the columns of
        # each l0 are moved, checked and binned in blocks. Measured: 2.79·n² floats
        # (numpy 2.4, Python 3.11).
        n = 600
        g = with_extra_edges(random_tree(n, random.Random(n)), n // 25, random.Random(1))
        tracemalloc.start()
        try:
            result = brute_force_best(g, 1, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.scores) == n - 1
        assert peak <= 3.0 * 8 * n * n


class TestRootedTreeMemo:
    def test_same_object_per_root(self, fig3):
        t = rooted_tree(fig3, 4)
        assert rooted_tree(fig3, 4) is t
        assert rooted_tree(fig3, 5) is not t
        assert rooted_tree(build_graph(fig3.n, fig3.edges), 4) == t

    def test_errors_are_not_cached(self, fig3):
        for _ in range(2):
            with pytest.raises(EndpointOutOfRange):
                rooted_tree(fig3, 12)
        assert 12 not in fig3._tree_cache

    def test_balanced_check_never_projects(self, monkeypatch):
        # every count comes from subtree sizes on the memoised rooted tree
        calls = []
        projection = RootedTree.projection

        def counted(self, target):
            calls.append(target)
            return projection(self, target)

        monkeypatch.setattr(RootedTree, "projection", counted)
        g = random_tree(14, random.Random(11))
        for l0, l1 in itertools.permutations(range(1, g.n + 1), 2):
            check_balanced_tree_placement(g, l0, l1)
        assert calls == []
