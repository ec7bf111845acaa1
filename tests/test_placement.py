import json
import math
import random
from fractions import Fraction

import pytest

from opdiv import (
    bin_opinions,
    brute_force_best,
    build_graph,
    check_balanced_tree_placement,
    cli,
    cycle,
    max_diversity,
    path,
    predict_cycle,
    predict_path,
    predict_y_tree,
    shannon_index,
    single_pair,
    steady_state,
    write_edge_list,
    y_tree,
)
from opdiv.diversity import BinHistogram, SNAP_TOL, score
from opdiv.errors import (
    InvalidLeaderConfig,
    LeaderNotLeaf,
    NotATree,
    NotAYTree,
    SnapToleranceOutOfRange,
    SolveFailure,
    TooFewFollowers,
    UnsupportedBinCount,
)
from opdiv.placement import TIE_TOL, prediction
from opdiv.verify import random_tree, verify_cycles, verify_paths, verify_trees_r2, verify_ytrees


def per_candidate_table(g, l0, R, snap_tol=SNAP_TOL, opinions=None):
    """Scores and argmax sets from one steady-state solve per candidate l1.

    The reference for brute_force_best. `opinions` may hold the solves of an
    earlier call on the same (g, l0), keyed by l1.
    """
    if opinions is None:
        opinions = {l1: steady_state(g, single_pair(l0, l1)) for l1 in range(1, g.n + 1)
                    if l1 != l0}
    scores = {l1: score(bin_opinions(x, R, snap_tol)) for l1, x in opinions.items()}
    best_s = max(s.simpson for s in scores.values())
    best_h = max(s.shannon for s in scores.values())
    return (
        scores,
        {v for v, s in scores.items() if s.simpson >= best_s - TIE_TOL},
        {v for v, s in scores.items() if s.shannon >= best_h - TIE_TOL},
    )


def oracle_graphs():
    """(label, graph) pairs: paths, cycles, Y-trees, Prüfer trees, trees plus edges."""
    rng = random.Random(20181108)
    out = [(f"path:{n}", path(n)) for n in (4, 5, 9, 16, 31)]
    out += [(f"cycle:{n}", cycle(n)) for n in (4, 7, 12, 25)]
    out += [(f"ytree:{a}", y_tree(*a)) for a in ((1, 1, 1), (2, 4, 2), (3, 1, 5), (5, 5, 5))]
    for n in (6, 11, 18, 27, 40):
        tree = random_tree(n, rng)
        out.append((f"tree:{n}", tree))
        edges = set(tree.edges)
        while len(edges) < n - 1 + max(1, n // 10):
            u, v = sorted(rng.sample(range(1, n + 1), 2))
            edges.add((u, v))
        out.append((f"tree+edges:{n}", build_graph(n, sorted(edges))))
    return out


ORACLE_GRAPHS = oracle_graphs()


class TestKernelAgainstPerCandidateSolve:
    @pytest.mark.parametrize("label,g", ORACLE_GRAPHS, ids=[label for label, _ in ORACLE_GRAPHS])
    def test_scores_and_argmax_sets(self, label, g):
        rng = random.Random(label)
        for l0 in sorted(rng.sample(range(1, g.n + 1), min(g.n, 3))):
            opinions = {l1: steady_state(g, single_pair(l0, l1)) for l1 in range(1, g.n + 1)
                        if l1 != l0}
            for R in (2, 5, g.n - 2):
                for snap_tol in (SNAP_TOL, 1e-6):
                    got = brute_force_best(g, l0, R, snap_tol)
                    scores, arg_s, arg_h = per_candidate_table(g, l0, R, snap_tol, opinions)
                    assert set(got.scores) == set(scores)
                    for v, s in scores.items():
                        assert abs(got.scores[v].simpson - s.simpson) <= 1e-12
                        assert abs(got.scores[v].shannon - s.shannon) <= 1e-12
                    assert got.argmax_simpson == arg_s and got.argmax_shannon == arg_h

    @pytest.mark.parametrize("g,l0,R,snap_tol,error", [
        (path(3), 1, 2, SNAP_TOL, TooFewFollowers),
        (path(6), 1, 1, SNAP_TOL, UnsupportedBinCount),
        (cycle(6), 2, 0, SNAP_TOL, UnsupportedBinCount),
        (path(6), 1, 4, -0.1, SnapToleranceOutOfRange),
        (path(6), 0, 4, SNAP_TOL, InvalidLeaderConfig),
        (cycle(5), 6, 2, SNAP_TOL, InvalidLeaderConfig),
    ])
    def test_same_exceptions(self, g, l0, R, snap_tol, error):
        with pytest.raises(error):
            per_candidate_table(g, l0, R, snap_tol)
        with pytest.raises(error):
            brute_force_best(g, l0, R, snap_tol)

    def test_failed_inverse_check_raises(self, monkeypatch):
        # a cycle with a chord: neither a tree nor a cycle, so the dense kernel serves it
        monkeypatch.setattr("opdiv.resistance.INVERSE_TOL", -1.0)
        with pytest.raises(SolveFailure):
            brute_force_best(build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)]), 1, 4)

    def test_failed_block_check_raises_on_a_checked_green(self, monkeypatch):
        # G̃ passed its own check; the columns moved to l0 are checked again
        g = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)])
        steady_state(g, single_pair(1, 4))
        monkeypatch.setattr("opdiv.resistance.INVERSE_TOL", -1.0)
        with pytest.raises(SolveFailure):
            brute_force_best(g, 2, 4)


def exact_path_opinions(n, k, j):
    """Follower -> exact opinion on a path with l0 = k and l1 = j."""
    def x(v):
        if min(k, j) < v < max(k, j):
            return Fraction(abs(v - k), abs(j - k))
        beyond_l1 = v > j if j > k else v < j
        return Fraction(int(beyond_l1))
    return {v: x(v) for v in range(1, n + 1) if v not in (k, j)}


def exact_cycle_opinions(n, j):
    """Follower -> exact opinion on a cycle with l0 = 1 and l1 = j: i/L along each arc."""
    return {v: Fraction(v - 1, j - 1) if v < j else Fraction(n + 1 - v, n + 1 - j)
            for v in range(2, n + 1) if v != j}


def exact_table(tables, R):
    """Exact Simpson fractions, Shannon indices and argmax sets of exact opinions."""
    simpson, shannon = {}, {}
    for l1, opinions in tables.items():
        counts = [0] * R
        for x in opinions.values():
            counts[min(math.floor(x * R), R - 1)] += 1
        n_f = len(opinions)
        simpson[l1] = 1 - Fraction(sum(c * (c - 1) for c in counts), n_f * (n_f - 1))
        shannon[l1] = shannon_index(BinHistogram(R=R, counts=tuple(counts)))
    best_h = max(shannon.values())
    return (
        simpson,
        shannon,
        {v for v, s in simpson.items() if s == max(simpson.values())},
        {v for v, h in shannon.items() if h >= best_h - TIE_TOL},
    )


class TestKernelAgainstExactOpinions:
    # opinions i/L fall exactly on bin boundaries, where a one-bin-low
    # rounding error changes scores and argmax sets
    @pytest.mark.parametrize("g,l0,tables", [
        (path(100), 2, {j: exact_path_opinions(100, 2, j) for j in range(1, 101) if j != 2}),
        (path(60), 45, {j: exact_path_opinions(60, 45, j) for j in range(1, 61) if j != 45}),
        (cycle(100), 1, {j: exact_cycle_opinions(100, j) for j in range(2, 101)}),
        (cycle(37), 1, {j: exact_cycle_opinions(37, j) for j in range(2, 38)}),
    ])
    def test_score_tables(self, g, l0, tables):
        for R in (2, 5, g.n - 2):
            got = brute_force_best(g, l0, R)
            simpson, shannon, arg_s, arg_h = exact_table(tables, R)
            assert set(got.scores) == set(simpson)
            for v, s in got.scores.items():
                assert abs(s.simpson - float(simpson[v])) <= 1e-12
                assert abs(s.shannon - shannon[v]) <= 1e-12
            assert got.argmax_simpson == arg_s and got.argmax_shannon == arg_h


class TestBruteForce:
    def test_fig3_measures_disagree(self, fig3):
        r = brute_force_best(fig3, 1, 9)
        assert r.argmax_simpson == {10, 11}
        assert r.argmax_shannon == {5, 6}

    def test_path6_far_end(self):
        r = brute_force_best(path(6), 1, 4)
        assert r.argmax_simpson == {6} and r.argmax_shannon == {6}

    def test_cycle5_neighbors(self):
        r = brute_force_best(cycle(5), 1, 4)
        assert r.argmax_simpson == {2, 5} and r.argmax_shannon == {2, 5}

    def test_full_score_table(self, fig3):
        r = brute_force_best(fig3, 1, 9)
        assert set(r.scores) == set(range(2, 12))

    def test_too_small(self):
        with pytest.raises(TooFewFollowers):
            brute_force_best(path(3), 1, 2)

    def test_json_round_trip(self, fig3, tmp_path, capsys):
        source = tmp_path / "fig3.edges"
        source.write_text(write_edge_list(fig3))
        assert cli.main(["place", "--graph", str(source), "--l0", "1", "--R", "9",
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["argmax_simpson"] == [10, 11]
        assert payload["scores"]["5"]["shannon"] == pytest.approx(1.003, abs=5e-4)


class TestPredictPath:
    def test_far_end(self):
        assert predict_path(10, 3, "nf") == {10}

    def test_near_end(self):
        assert predict_path(10, 8, "nf") == {1}

    def test_endpoint_tie(self):
        assert predict_path(9, 5, "nf") == {1, 9}

    def test_mirror_r2(self):
        assert predict_path(10, 3, 2) == {8}

    def test_r2_far_l0(self):
        assert predict_path(10, 10, 2) == {1}

    def test_sound_against_brute_force(self):
        assert verify_paths(14) == []


class TestPredictCycle:
    def test_neighbors_full_resolution(self):
        assert predict_cycle(6, "nf") == {2, 6}

    def test_r2_odd_followers_all_tie(self):
        assert predict_cycle(7, 2) == {2, 3, 4, 5, 6, 7}

    def test_r2_even_followers(self):
        assert predict_cycle(8, 2) == {2, 4, 6, 8}

    def test_sound_against_brute_force(self):
        assert verify_cycles(14) == []

    def test_reflection_symmetry(self):
        # argmax sets are invariant under the cycle reflection fixing l0=1
        for n in range(4, 13):
            for R in (n - 2, 2):
                r = brute_force_best(cycle(n), 1, R)
                for s in (r.argmax_simpson, r.argmax_shannon):
                    assert s == {1 if v == 1 else n + 2 - v for v in s}

    def test_max_diversity_attained(self):
        for n in range(4, 13):
            n_f = n - 2
            r = brute_force_best(cycle(n), 1, n_f)
            best = r.scores[2]
            assert best.simpson == pytest.approx(1.0)
            assert best.shannon == pytest.approx(math.log(n_f))


class TestPredictYTree:
    def test_longest_arm_and_neighbor(self):
        g = y_tree(2, 4, 2)
        # center is node 3; arm1 is nodes 4..7 with leaf 7
        assert predict_y_tree(g, 1) == {7, 6}

    def test_tie_includes_both_arms(self):
        g = y_tree(2, 3, 3)
        assert predict_y_tree(g, 1) == {6, 5, 9, 8}

    def test_arm_of_one_uses_center(self):
        g = y_tree(3, 1, 1)  # center 4, leaves 5 and 6 both at distance 4
        assert predict_y_tree(g, 1) == {4, 5, 6}

    def test_fig3_rejected(self, fig3):
        with pytest.raises(NotAYTree):
            predict_y_tree(fig3, 1)

    def test_l0_must_be_leaf(self):
        with pytest.raises(LeaderNotLeaf):
            predict_y_tree(y_tree(2, 2, 2), 2)

    def test_sound_against_brute_force(self):
        assert verify_ytrees(4) == []


def relabelled(g, rng):
    """g with its node labels permuted at random."""
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


class TestPrediction:
    """`prediction` maps the predictors onto a graph's own labels."""

    ARMS = [(1, 1, 1), (3, 1, 1), (2, 4, 2), (2, 3, 3), (1, 2, 5), (4, 3, 4)]

    def test_relabelled_graphs_inside_brute_force_argmax(self):
        rng = random.Random(20180212)
        cases = [("path", path(n)) for n in range(4, 13)]
        cases += [("cycle", cycle(n)) for n in range(4, 13)]
        cases += [("ytree", y_tree(*arms)) for arms in self.ARMS]
        for kind, canonical in cases:
            g = relabelled(canonical, rng)
            n_f = g.n - 2
            for l0 in range(1, g.n + 1):
                if n_f != 3:
                    assert prediction(g, l0, 3) is None
                for R in dict.fromkeys((2, n_f)):
                    got = prediction(g, l0, R)
                    if kind == "ytree" and (R != n_f or g.degree(l0) != 1):
                        assert got is None, (kind, sorted(g.edges), l0, R)
                        continue
                    topology, pred = got
                    assert topology == kind
                    r = brute_force_best(g, l0, R)
                    for argmax in (r.argmax_simpson, r.argmax_shannon):
                        assert (pred == argmax if kind == "cycle" else pred <= argmax), (
                            kind, sorted(g.edges), l0, R, sorted(pred), sorted(argmax)
                        )

    def test_other_graphs_get_none(self, fig3):
        assert prediction(fig3, 1, 9) is None  # a tree with a degree-4 node
        chorded = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)])
        assert prediction(chorded, 1, 2) is None


class TestBalancedTreePlacement:
    def test_fig3_node_11_certified(self, fig3):
        assert check_balanced_tree_placement(fig3, 1, 11)

    def test_fig3_node_10_not_certified_but_optimal(self, fig3):
        assert not check_balanced_tree_placement(fig3, 1, 10)
        assert 10 in brute_force_best(fig3, 1, 2).argmax_simpson

    def test_path_leaders_at_ends(self):
        assert check_balanced_tree_placement(path(6), 1, 6)

    def test_rejects_cycles(self):
        with pytest.raises(NotATree):
            check_balanced_tree_placement(cycle(5), 1, 3)

    def test_certified_implies_optimal(self):
        assert verify_trees_r2(12, n_trees=60) == []


class TestDiversityBounds:
    def test_attained_never_exceeds_bound(self):
        for n in range(4, 13):
            n_f = n - 2
            for g in (path(n), cycle(n)):
                for R in (n_f, 2):
                    r = brute_force_best(g, 1, R)
                    for s in r.scores.values():
                        assert s.simpson <= max_diversity(n_f, R, "simpson") + 1e-9
                        assert s.shannon <= max_diversity(n_f, R, "shannon") + 1e-9

    def test_path_shortfall_formula(self):
        # optimal Simpson on a path falls short of 1 by m(m−1)/(n_f(n_f−1))
        # where m followers sit behind the nearer endpoint
        for n in range(5, 15):
            for k in range(1, n + 1):
                n_f = n - 2
                r = brute_force_best(path(n), k, n_f)
                m = min(k - 1, n - k)
                expect = 1 - m * (m - 1) / (n_f * (n_f - 1))
                assert max(s.simpson for s in r.scores.values()) == pytest.approx(expect)


class TestTableRendering:
    def test_three_decimals_half_up(self, fig3):
        table = cli._table(brute_force_best(fig3, 1, 9))
        assert "0.639" in table and "1.003" in table
        rows = table.strip().splitlines()
        assert len(rows) == 11  # header + 10 candidates
