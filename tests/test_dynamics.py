import random
import tracemalloc

import numpy as np
import pytest

from opdiv import (
    cli,
    cycle,
    path,
    path_closed_form,
    simulate,
    single_pair,
    steady_state,
    y_tree,
)
from opdiv.errors import DenseTooLarge, LeaderOrderViolation, UnstableStep
from opdiv.graphs import DENSE_BYTES_LIMIT
from opdiv.verify import random_tree


class TestSteadyState:
    def test_path5_quarters(self):
        x = steady_state(path(5), single_pair(1, 5))
        assert x.values == pytest.approx({2: 0.25, 3: 0.5, 4: 0.75})

    def test_p3_midpoint(self):
        x = steady_state(path(3), single_pair(1, 3))
        assert x.values[2] == pytest.approx(0.5)

    def test_fig3_all_behind_l1(self, fig3):
        # l1 at node 2 cuts every follower off from the 0-leader
        x = steady_state(fig3, single_pair(1, 2))
        assert all(v == pytest.approx(1.0) for v in x.values.values())

    def test_values_in_unit_interval(self):
        rng = random.Random(3)
        gens = [lambda: random_tree(rng.randrange(4, 51), rng),
                lambda: path(rng.randrange(4, 51)),
                lambda: cycle(rng.randrange(4, 51))]
        for _ in range(60):
            g = rng.choice(gens)()
            l0, l1 = rng.sample(range(1, g.n + 1), 2)
            x = steady_state(g, single_pair(l0, l1))
            arr = np.array(list(x.values.values()))
            assert np.all(arr >= -1e-12) and np.all(arr <= 1 + 1e-12)

    def test_csv_format(self):
        x = steady_state(path(5), single_pair(1, 5))
        assert cli._opinions_csv(x) == "node,opinion\n2,0.25\n3,0.5\n4,0.75\n"


class TestPathClosedForm:
    def test_leaders_at_ends(self):
        x = path_closed_form(5, 1, 5)
        assert x.values == pytest.approx({2: 0.25, 3: 0.5, 4: 0.75})

    def test_interior_leaders(self):
        x = path_closed_form(6, 2, 5)
        assert x.values == pytest.approx({1: 0.0, 3: 1 / 3, 4: 2 / 3, 6: 1.0})

    def test_midpoint(self):
        assert path_closed_form(3, 1, 3).values[2] == 0.5

    def test_order_violation(self):
        with pytest.raises(LeaderOrderViolation):
            path_closed_form(5, 4, 2)
        with pytest.raises(LeaderOrderViolation):
            path_closed_form(5, 3, 3)

    def test_matches_solver_everywhere(self):
        # oracle equivalence on every path instance up to n=30, one graph per n
        for n in range(3, 31):
            g = path(n)
            for k in range(1, n):
                for j in range(k + 1, n + 1):
                    exact = path_closed_form(n, k, j)
                    solved = steady_state(g, single_pair(k, j))
                    err = max(abs(exact.values[v] - solved.values[v]) for v in exact.values)
                    assert err <= 1e-9, (n, k, j, err)

    def test_monotone_between_leaders(self):
        for n in (6, 11, 17):
            for k in range(1, n - 1):
                x = steady_state(path(n), single_pair(k, n))
                between = [x.values[v] for v in range(k + 1, n)]
                assert all(a < b for a, b in zip(between, between[1:]))


class TestSimulate:
    def test_symmetric_fixed_point(self):
        traj = simulate(path(3), single_pair(1, 3), {2: 0.0})
        assert traj.final().values[2] == pytest.approx(0.5, abs=1e-6)

    def test_steady_state_is_fixed(self, fig3):
        lc = single_pair(1, 11)
        x = steady_state(fig3, lc)
        traj = simulate(fig3, lc, x.values, horizon=5.0)
        drift = np.max(np.abs(traj.states - traj.states[0]))
        assert drift <= 1e-9

    def test_converges_to_steady_state(self, fig3):
        lc = single_pair(1, 11)
        x0 = {v: 0.0 for v in range(1, 12)}
        traj = simulate(fig3, lc, x0)
        x = steady_state(fig3, lc)
        err = max(abs(traj.final().values[v] - x.values[v]) for v in x.values)
        assert err <= 1e-6

    def test_initial_state_preserved(self):
        x0 = {2: 0.3, 3: 0.9, 4: 0.1}
        traj = simulate(path(5), single_pair(1, 5), x0, horizon=1.0)
        assert list(traj.states[0]) == [0.3, 0.9, 0.1]
        assert traj.times[0] == 0.0

    def test_unstable_step_rejected(self):
        g = y_tree(2, 2, 2)
        with pytest.raises(UnstableStep):
            simulate(g, single_pair(1, 7), {v: 0.5 for v in range(1, 8)}, step=3.0)

    def test_oversized_trajectory_rejected_before_allocating(self, monkeypatch):
        # the default horizon on path(1000) with the leaders side by side is
        # 32,325,592 steps of 998 followers: 258 GB of states. Its lower bound
        # from λ_min ≤ e(F, S) / n_f, 79,840 steps, already needs 637 MB, so
        # no eigensolve is needed to refuse it
        def no_eigensolve(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        tracemalloc.start()
        try:
            with pytest.raises(DenseTooLarge, match=f"limit of {DENSE_BYTES_LIMIT:,} bytes"):
                simulate(path(1000), single_pair(1, 2), {v: 0.0 for v in range(1, 1001)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < DENSE_BYTES_LIMIT // 8

    def test_fixed_suite_convergence(self):
        cases = [
            (path(8), 2, 7),
            (cycle(9), 1, 4),
            (y_tree(2, 3, 2), 1, 6),
        ]
        for g, l0, l1 in cases:
            lc = single_pair(l0, l1)
            x = steady_state(g, lc)
            traj = simulate(g, lc, {v: 0.0 for v in range(1, g.n + 1)})
            err = max(abs(traj.final().values[v] - x.values[v]) for v in x.values)
            assert err <= 1e-6, (g.n, l0, l1, err)
