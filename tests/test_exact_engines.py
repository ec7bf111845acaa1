"""The exact tree and cycle engines of `brute_force_best` against the dense kernel.

On trees and cycles every follower opinion is an exact ratio a/D, so
`tree_counts` and `cycle_counts` count bins in integers. The dense kernel
(`dense_counts`, read off the graph's Green's function) stays as their oracle: wherever
no opinion lies within rounding of snap_tol from a boundary, the two must give
the same (m, R) count arrays, so every score is bit-identical.
"""
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from opdiv import OpinionVector, bin_opinions, brute_force_best, build_graph, cycle, path, y_tree
from opdiv import cli, placement
from opdiv.diversity import SNAP_TOL, bin_index, histogram_rows, level_thresholds
from opdiv.errors import DenseTooLarge, SnapToleranceOutOfRange, UnsupportedBinCount
from opdiv.graphs import DENSE_BYTES_LIMIT
from opdiv.placement import TIE_TOL, brute_force_tables, cycle_counts, dense_counts, tree_counts
from opdiv.verify import random_tree

from test_dense_oracle import chorded_cycle, graphs as oracle_graphs
from test_placement import exact_cycle_opinions, exact_path_opinions, exact_table
from test_tree_spine import labelled_trees


def followers_of(g, l0):
    return np.flatnonzero(np.arange(g.n) != l0 - 1)


def all_pairs(g):
    """(L0, J) over every ordered pair of distinct nodes, l0 1-based and j 0-based."""
    i = np.arange(g.n - 1)
    return np.repeat(np.arange(1, g.n + 1), g.n - 1), (i + (i >= np.arange(g.n)[:, None])).ravel()


def assert_same_counts(g, l0, R, snap_tol):
    F = followers_of(g, l0)
    engine = tree_counts if g.is_tree() else cycle_counts
    want = dense_counts(g, l0, F, R, snap_tol)
    got = engine(g, l0, F, R, snap_tol)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (sorted(g.edges), l0, R, snap_tol)


class TestAgainstDenseKernel:
    def test_every_labelled_tree_up_to_6(self):
        # each engine call scores every pair (l0, l1) of the tree: n tables at once
        tables = 0
        for g in labelled_trees(6):
            if g.n < 4:
                continue
            L0, J = all_pairs(g)
            for R in dict.fromkeys((2, 3, g.n - 2)):
                for snap_tol in (SNAP_TOL, 1e-6):
                    got = tree_counts(g, L0, J, R, snap_tol)
                    want = dense_counts(g, L0, J, R, snap_tol)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (sorted(g.edges), R, snap_tol)
                    tables += g.n
        # every l0 of the n^(n-2) labelled trees, n = 4..6; R = n − 2 is 2 at n = 4 and 3 at n = 5
        assert tables == 2 * (16 * 4 * 2 + 125 * 5 * 2 + 1296 * 6 * 3)

    @pytest.mark.parametrize("n", range(4, 61))
    def test_cycles(self, n):
        g = cycle(n)
        for l0 in sorted({1, 2, n // 2, n}):
            for R in dict.fromkeys((2, 3, 5, n - 2)):
                for snap_tol in (SNAP_TOL, 1e-6):
                    assert_same_counts(g, l0, R, snap_tol)

    @pytest.mark.parametrize("n", [7, 19, 40, 83, 150, 300])
    def test_pruefer_trees(self, n):
        rng = random.Random(n)
        for _ in range(3 if n <= 40 else 1):
            g = random_tree(n, rng)
            for l0 in rng.sample(range(1, n + 1), 3):
                for R in (2, 3, 5, n - 2):
                    for snap_tol in (SNAP_TOL, 1e-6):
                        assert_same_counts(g, l0, R, snap_tol)

    def test_paths_and_ytrees(self):
        for g in (path(4), path(25), path(64), y_tree(3, 5, 2), y_tree(7, 7, 7)):
            for l0 in (1, 2, g.n // 2, g.n):
                for R in (2, 4, g.n - 2):
                    assert_same_counts(g, l0, R, SNAP_TOL)


class TestExactOpinionsAtZeroSnap:
    # with snap_tol = 0 an opinion k/R must land in bin k + 1 exactly; the
    # dense kernel raises OpinionOutOfRange on an opinion of 1.0000000000000002
    @pytest.mark.parametrize("g,l0,tables", [
        (path(100), 2, {j: exact_path_opinions(100, 2, j) for j in range(1, 101) if j != 2}),
        (path(60), 45, {j: exact_path_opinions(60, 45, j) for j in range(1, 61) if j != 45}),
        (cycle(100), 1, {j: exact_cycle_opinions(100, j) for j in range(2, 101)}),
        (cycle(37), 1, {j: exact_cycle_opinions(37, j) for j in range(2, 38)}),
    ])
    def test_score_tables(self, g, l0, tables):
        for R in (2, 5, g.n - 2):
            got = brute_force_best(g, l0, R, snap_tol=0.0)
            simpson, shannon, arg_s, arg_h = exact_table(tables, R)
            assert set(got.scores) == set(simpson)
            for v, s in got.scores.items():
                assert abs(s.simpson - float(simpson[v])) <= 1e-12
                assert abs(s.shannon - shannon[v]) <= 1e-12
            assert got.argmax_simpson == arg_s and got.argmax_shannon == arg_h


def near_snap_edge(a, D, R, snap_tol):
    """True when a/D + snap_tol sits within float rounding of a boundary k/R.

    There `bin_index`, which sees a/D as a float, may decide either way.
    """
    q = Fraction(a, D) + Fraction(snap_tol)
    return any(abs(q - Fraction(k, R)) < Fraction(1, 10**12) for k in range(R + 1))


def snap_tols(R, a, D):
    """snap_tol anywhere in [0, 1/(2R)), or the float nearest a snap edge of a/D."""
    return st.one_of(
        st.sampled_from([0.0, SNAP_TOL, 1e-6]),
        st.floats(0, 1 / (2 * R), exclude_max=True),
        st.integers(0, R).map(lambda k: float(Fraction(k, R) - Fraction(a, D))),
    ).filter(lambda s: 0 <= 2 * R * s < 1)


class TestLevelThresholds:
    @given(D=st.integers(1, 200), R=st.integers(2, 40), data=st.data())
    def test_match_bin_index(self, D, R, data):
        a = data.draw(st.integers(0, D))
        snap_tol = data.draw(snap_tols(R, a, D))
        assume(not near_snap_edge(a, D, R, snap_tol))
        t = level_thresholds(D, R, snap_tol)[D]
        assert int((a >= t).sum()) == bin_index(a / D, R, snap_tol) - 1

    @given(D=st.integers(1, 200), R=st.integers(2, 40), data=st.data())
    def test_match_exact_rule(self, D, R, data):
        # the bin rule min(⌊(a/D + snap_tol)·R⌋, R − 1) in exact arithmetic,
        # including the float snap_tol nearest each edge, on either side of it
        a = data.draw(st.integers(0, D))
        snap_tol = data.draw(snap_tols(R, a, D))
        want = min(math.floor((Fraction(a, D) + Fraction(snap_tol)) * R), R - 1)
        t = level_thresholds(D, R, snap_tol)[D]
        assert int((a >= t).sum()) == want

    def test_shape_and_range(self):
        t = level_thresholds(9, 4, SNAP_TOL)
        assert t.shape == (10, 3)
        assert t[8].tolist() == [2, 4, 6] and t[9].tolist() == [3, 5, 7]
        assert (t[1:] >= 1).all() and (t[1:] <= np.arange(1, 10)[:, None]).all()


@pytest.fixture
def no_inverse(monkeypatch):
    def refuse(*args):
        raise AssertionError("unexpected dense inverse")

    monkeypatch.setattr(np.linalg, "inv", refuse)


@pytest.fixture
def inverses(monkeypatch):
    """The sizes of the matrices that `np.linalg.inv` is asked to invert, in call order."""
    calls, real = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(len(a)) or real(a))
    return calls


class TestEngineChoice:
    GRAPHS = [path(12), cycle(12), y_tree(2, 3, 4), random_tree(30, random.Random(4))]

    @pytest.mark.parametrize("g", GRAPHS, ids=["path", "cycle", "ytree", "tree"])
    def test_trees_and_cycles_make_no_inverse(self, no_inverse, g):
        for R in (2, 5, g.n - 2):
            brute_force_best(g, 1, R)

    def test_place_makes_no_inverse(self, no_inverse, capsys):
        for spec in ("path:40", "cycle:40", "ytree:3,4,5"):
            for fmt in ("table", "json"):
                assert cli.main(["place", "--gen", spec, "--l0", "2", "--format", fmt]) == 0
        capsys.readouterr()

    def test_other_graphs_use_the_dense_kernel(self, inverses):
        chorded = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)])
        assert placement.engine(chorded) is dense_counts
        brute_force_best(chorded, 1, 2)
        assert inverses == [5]  # G̃: L grounded at node 1

    def test_one_inverse_serves_every_l0_and_dump(self, inverses, monkeypatch, capsys):
        chorded = build_graph(9, [(i, i % 9 + 1) for i in range(1, 10)] + [(2, 6), (3, 8)])
        for l0 in range(1, 10):
            for R in (2, 7):
                brute_force_best(chorded, l0, R)
        monkeypatch.setattr(cli, "_load_graph", lambda args: chorded)
        assert cli.main(["dump", "--gen", "unused", "--l0", "4", "--l1", "7"]) == 0
        capsys.readouterr()
        assert inverses == [8]

    def test_is_cycle(self, fig3):
        assert cycle(3).is_cycle() and cycle(40).is_cycle()
        assert not path(5).is_cycle() and not fig3.is_cycle()
        chorded = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)])
        assert not chorded.is_cycle()
        # n edges, but a triangle 2-3-4 with pendants 1 and 5 (degrees 1, 3, 2, 3, 1)
        lollipop = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 2), (4, 5)])
        assert len(lollipop.edges) == lollipop.n and not lollipop.is_cycle()

    @pytest.mark.parametrize("kind", ["path", "cycle", "cycle+chord"])
    def test_size_guard_on_every_engine(self, kind):
        n = int((DENSE_BYTES_LIMIT // 8) ** 0.5) + 1
        edges = [(i, i + 1) for i in range(1, n)]
        if kind != "path":
            edges.append((n, 1))
        if kind == "cycle+chord":
            edges.append((1, n // 2))
        g = build_graph(n, edges)
        with pytest.raises(DenseTooLarge):
            brute_force_best(g, 1, 2)


class TestSnapToleranceDomain:
    CHORDED = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)])

    @pytest.mark.parametrize("snap_tol", [-1e-12, 1 / 8, math.nan, math.inf],
                             ids=["-1e-12", "1/(2R)", "nan", "inf"])
    def test_every_entry_point_rejects(self, no_inverse, snap_tol):
        R = 4
        calls = [
            lambda: bin_index(0.5, R, snap_tol),
            lambda: histogram_rows(np.array([[0.5, 0.25]]), R, snap_tol),
            lambda: level_thresholds(5, R, snap_tol),
            lambda: bin_opinions(OpinionVector({1: 0.5, 2: 0.25}), R, snap_tol),
        ]
        calls += [lambda g=g: brute_force_best(g, 1, R, snap_tol)
                  for g in (random_tree(12, random.Random(5)), cycle(9), self.CHORDED)]
        for call in calls:
            with pytest.raises(SnapToleranceOutOfRange, match=r"outside \[0, 1/\(2R\)\)"):
                call()

    def test_bad_bin_count_fails_before_the_inverse(self, no_inverse):
        with pytest.raises(UnsupportedBinCount):
            brute_force_best(self.CHORDED, 1, 1)

    def test_nearest_boundary_snap_is_rejected(self):
        # from snap_tol = 1/(2R) on, every opinion once snapped to its nearest boundary
        with pytest.raises(SnapToleranceOutOfRange):
            brute_force_best(path(6), 1, 2, snap_tol=0.3)

    def test_largest_tolerance_is_accepted(self):
        below = math.nextafter(1 / 8, 0)  # the largest float in [0, 1/(2R)) at R = 4
        assert bin_index(0.5, 4, below) == 3
        # 1/8 + below falls short of the boundary 1/4 in exact arithmetic
        assert level_thresholds(8, 4, below)[8].tolist() == [2, 4, 6]
        for g in (path(9), cycle(9), self.CHORDED):
            assert len(brute_force_best(g, 1, 4, snap_tol=below).scores) == g.n - 1


def assert_batch_is_best_per_l0(g):
    """Every l0 of g in one `brute_force_tables` call equals `brute_force_best` per l0."""
    for R in dict.fromkeys((2, 5, g.n - 2)):
        batch = brute_force_tables(g, range(1, g.n + 1), R)
        assert list(batch) == list(range(1, g.n + 1))
        for l0, result in batch.items():
            single = brute_force_best(g, l0, R)
            assert result == single, (sorted(g.edges), l0, R)
            assert list(result.scores) == list(single.scores)
            if R == 2:  # inside the size guard the exact rule keeps TIE_TOL's set
                best = max(s.shannon for s in result.scores.values())
                tied = {v for v, s in result.scores.items() if s.shannon >= best - TIE_TOL}
                assert result.argmax_shannon == tied == result.argmax_simpson


CHORDED = [build_graph(*chorded_cycle(n, chords)) for n, chords in (
    (9, [(2, 6), (3, 8)]), (20, [(1, 11), (4, 15)]), (40, [(1, 21), (5, 30), (12, 13 + 20)]),
)]


class TestBatch:
    def test_every_labelled_tree_up_to_6(self):
        for g in labelled_trees(6):
            if g.n >= 4:
                assert_batch_is_best_per_l0(g)

    @pytest.mark.parametrize("n", range(4, 61))
    def test_cycles(self, n):
        assert_batch_is_best_per_l0(cycle(n))

    @pytest.mark.parametrize("n,edges", [*oracle_graphs().values(), *(
        (g.n, sorted(g.edges)) for g in CHORDED)],
        ids=[*oracle_graphs().keys(), *(f"chorded{g.n}" for g in CHORDED)])
    def test_dense_graphs(self, n, edges):
        assert_batch_is_best_per_l0(build_graph(n, edges))

    @pytest.mark.parametrize("g", [random_tree(20, random.Random(3)), cycle(17), CHORDED[1]],
                             ids=["tree", "cycle", "chorded"])
    def test_engines_take_pairs_in_any_order(self, g):
        L0, J = all_pairs(g)
        shuffle = np.random.default_rng(g.n).permutation(len(J))
        count = placement.engine(g)
        for R in (2, 5, g.n - 2):
            per_l0 = np.concatenate([
                count(g, l0, followers_of(g, l0), R, SNAP_TOL) for l0 in range(1, g.n + 1)
            ])
            got = count(g, L0[shuffle], J[shuffle], R, SNAP_TOL)
            assert np.array_equal(got, per_l0[shuffle])

    def test_dense_batch_makes_one_inverse(self, inverses):
        g = CHORDED[2]
        for R in (2, 5, g.n - 2):
            assert len(brute_force_tables(g, range(1, g.n + 1), R)) == g.n
        assert inverses == [g.n - 1]

    @pytest.mark.parametrize("kind,n,R", [
        ("tree", 3000, "nf"), ("cycle", 3000, "nf"), ("cycle+chord", 3000, "nf"), ("tree", 4000, 2),
    ])
    def test_oversized_table_raises_before_allocating(self, kind, n, R):
        # R = n_f: one l0 needs 72 MB of counts, all 3000 need 216 GB. R = 2 on a
        # 4000-node tree: the counts fit (255.9 MB), the 4000 rooted trees do not (384 MB)
        edges = [(i, i + 1) for i in range(1, n)]
        if kind != "tree":
            edges.append((n, 1))
        if kind == "cycle+chord":
            edges.append((1, n // 2))
        g = build_graph(n, edges)
        tracemalloc.start()
        try:
            with pytest.raises(DenseTooLarge, match=f"{DENSE_BYTES_LIMIT:,} bytes"):
                brute_force_tables(g, range(1, n + 1), n - 2 if R == "nf" else R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert g._tree_cache is None and g._green_cache is None


def test_shannon_argmax_is_exact_at_r2_past_the_guard(monkeypatch):
    # neighbouring Shannon values differ by less than TIE_TOL here, so the TIE_TOL rule
    # admitted 99996..100000; at R = 2 the argmax is Simpson's exact set
    monkeypatch.setattr(placement, "check_dense_size", lambda n: None)
    n = 10**5
    result = brute_force_best(path(n), 1, 2)
    assert result.argmax_simpson == result.argmax_shannon == {n}


def test_empty_batch_checks_its_inputs_and_builds_nothing(no_inverse):
    g = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)])
    assert brute_force_tables(g, [], 2) == {}
    with pytest.raises(UnsupportedBinCount):
        brute_force_tables(g, [], 1)
    assert g._tree_cache is None and g._green_cache is None
