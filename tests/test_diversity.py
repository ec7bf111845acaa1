import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from opdiv import (
    OpinionVector,
    bin_opinions,
    cli,
    max_diversity,
    path,
    path_closed_form,
    shannon_index,
    simpson_index,
    single_pair,
    steady_state,
)
from opdiv.diversity import SNAP_TOL, BinHistogram, bin_index, histogram_rows
from opdiv.errors import OpinionOutOfRange, TooFewFollowers, UnsupportedBinCount


def histogram(*counts):
    return BinHistogram(R=len(counts), counts=tuple(counts))


def weak_compositions(total, parts):
    """Every tuple of `parts` non-negative integers summing to `total` (stars and bars)."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *bars, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


class TestBinning:
    def test_uniform_path_one_per_bin(self):
        x = steady_state(path(5), single_pair(1, 5))
        assert bin_opinions(x, 3).counts == (1, 1, 1)

    def test_shifted_leader_top_bin_doubles(self):
        x = steady_state(path(6), single_pair(1, 5))
        assert bin_opinions(x, 4).counts == (0, 1, 1, 2)

    def test_all_at_one(self):
        x = OpinionVector({v: 1.0 for v in range(1, 7)})
        assert bin_opinions(x, 5).counts == (0, 0, 0, 0, 6)

    def test_boundary_lands_right(self):
        # exact boundary i/R goes to the upper bin; 1.0 stays in the last
        assert bin_index(0.0, 4) == 1
        assert bin_index(0.25, 4) == 2
        assert bin_index(0.75, 4) == 4
        assert bin_index(1.0, 4) == 4

    def test_exact_rational_opinions(self):
        # opinions i/L as on paths and cycles, against floor(R·i/L) in exact arithmetic;
        # an opinion on a boundary k/R must not land one bin low
        for L in range(1, 61):
            for R in range(2, 61):
                exact = [min(math.floor(Fraction(i, L) * R), R - 1) + 1 for i in range(L + 1)]
                values = [i / L for i in range(L + 1)]
                assert [bin_index(v, R) for v in values] == exact
                counts = histogram_rows(np.array([values]), R)[0]
                assert counts.tolist() == [exact.count(b) for b in range(1, R + 1)]

    @given(st.data())
    def test_histogram_rows_match_bin_index(self, data):
        # boundary values and arbitrary ones, with tolerances up to the edge of
        # the domain [0, 1/(2R)), so values snap from outside [0, 1] too
        R = data.draw(st.integers(min_value=2, max_value=40))
        snap_tol = data.draw(st.one_of(
            st.sampled_from([0.0, SNAP_TOL, 1e-6]),
            st.floats(min_value=0, max_value=1 / (2 * R), exclude_max=True),
        ))
        assume(2 * R * snap_tol < 1)
        boundary = st.integers(min_value=0, max_value=R).map(lambda k: k / R)
        anywhere = st.floats(min_value=-snap_tol, max_value=1 + snap_tol)
        values = data.draw(st.lists(st.one_of(boundary, anywhere), min_size=1, max_size=30))
        expect = [0] * R
        for v in values:
            expect[bin_index(v, R, snap_tol) - 1] += 1
        assert histogram_rows(np.array([values]), R, snap_tol)[0].tolist() == expect
        x = OpinionVector(dict(enumerate(values, start=1)))
        assert bin_opinions(x, R, snap_tol).counts == tuple(expect)

    def test_snap_tolerance(self):
        assert bin_index(0.25 - 1e-12, 4) == 2
        assert bin_index(0.25 - 1e-6, 4) == 1

    def test_out_of_range(self):
        with pytest.raises(OpinionOutOfRange):
            bin_opinions(OpinionVector({1: 1.5}), 2)
        with pytest.raises(OpinionOutOfRange):
            bin_opinions(OpinionVector({1: 0.5, 2: float("nan")}), 2)
        with pytest.raises(UnsupportedBinCount):
            bin_opinions(OpinionVector({1: 0.5}), 1)

    def test_count_conservation(self):
        x = steady_state(path(9), single_pair(2, 7))
        for R in range(2, 12):
            assert sum(bin_opinions(x, R).counts) == 7


class TestIndices:
    def test_simpson_uniform_is_one(self):
        assert simpson_index(histogram(1, 1, 1, 1, 1)) == 1.0

    def test_simpson_concentrated_is_zero(self):
        assert simpson_index(histogram(7, 0, 0, 0, 0, 0, 0)) == 0.0

    def test_shannon_uniform_is_log(self):
        assert shannon_index(histogram(1, 1, 1, 1)) == pytest.approx(math.log(4))

    def test_shannon_concentrated_is_zero(self):
        assert shannon_index(histogram(0, 5, 0)) == 0.0

    def test_fig3_worked_rows(self, fig3):
        x = steady_state(fig3, single_pair(1, 11))
        assert simpson_index(bin_opinions(x, 9)) == pytest.approx(0.639, abs=5e-4)
        x = steady_state(fig3, single_pair(1, 5))
        assert shannon_index(bin_opinions(x, 9)) == pytest.approx(1.003, abs=5e-4)

    def test_too_few(self):
        with pytest.raises(TooFewFollowers):
            simpson_index(histogram(1, 0))

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=10)
           .filter(lambda c: sum(c) >= 2))
    def test_bounds_hold(self, counts):
        h = histogram(*counts)
        assert 0.0 <= simpson_index(h) <= 1.0
        assert 0.0 <= shannon_index(h) <= math.log(h.R) + 1e-12

    @given(st.permutations(list(range(6))))
    def test_permutation_invariance(self, perm):
        base = (3, 0, 1, 4, 0, 2)
        h1, h2 = histogram(*base), histogram(*[base[i] for i in perm])
        assert simpson_index(h1) == pytest.approx(simpson_index(h2))
        assert shannon_index(h1) == pytest.approx(shannon_index(h2))

    def test_simpson_maximal_iff_spread(self):
        # over all histograms with R = n_f <= 8: index hits the max iff no bin
        # holds more than one opinion
        seen = set()
        for n_f in range(2, 9):
            for counts in weak_compositions(n_f, n_f):
                seen.add(counts)
                h = histogram(*counts)
                maximal = simpson_index(h) >= max_diversity(n_f, n_f, "simpson") - 1e-12
                assert maximal == all(c <= 1 for c in counts)
        # every histogram of n_f opinions in n_f bins, each once: C(2n_f - 1, n_f - 1) of them
        assert len(seen) == sum(math.comb(2 * n_f - 1, n_f - 1) for n_f in range(2, 9)) == 8787
        assert all(len(c) == sum(c) for c in seen)


class TestMaxDiversity:
    def test_full_resolution(self):
        assert max_diversity(9, 9, "simpson") == 1.0
        assert max_diversity(9, 9, "shannon") == pytest.approx(math.log(9))

    def test_two_bins_even(self):
        assert max_diversity(4, 2, "simpson") == pytest.approx(1 - 4 / 12)

    def test_two_bins_odd(self):
        expect = -(2 / 5) * math.log(2 / 5) - (3 / 5) * math.log(3 / 5)
        assert max_diversity(5, 2, "shannon") == pytest.approx(expect)

    def test_unsupported_bin_count(self):
        with pytest.raises(UnsupportedBinCount):
            max_diversity(9, 5, "simpson")

    def test_floor_ceil_split_is_optimal(self):
        # exhaustive over all (c1, c2) splits, both measures
        for n_f in range(2, 25):
            best_s = max(simpson_index(histogram(c, n_f - c)) for c in range(n_f + 1))
            best_h = max(shannon_index(histogram(c, n_f - c)) for c in range(n_f + 1))
            assert best_s == pytest.approx(max_diversity(n_f, 2, "simpson"))
            assert best_h == pytest.approx(max_diversity(n_f, 2, "shannon"))

    def test_closed_form_opinions_respect_lemmas(self):
        # Lemma-style checks through the whole pipeline: leaders at both path
        # ends give one opinion per bin; 1-leader one step in doubles the top
        for n in range(4, 12):
            n_f = n - 2
            x = path_closed_form(n, 1, n)
            assert bin_opinions(x, n_f).counts == tuple([1] * n_f)
            x = path_closed_form(n, 1, n - 1)
            counts = bin_opinions(x, n_f).counts
            assert counts[0] == 0 and counts[-1] == 2
            assert all(c == 1 for c in counts[1:-1])


class TestSerialization:
    def test_histogram_json(self):
        h = histogram(0, 1, 1, 2)
        assert cli._histogram_json(h) == '{"R": 4, "n_f": 4, "counts": [0, 1, 1, 2]}'
