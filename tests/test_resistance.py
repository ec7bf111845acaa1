import numpy as np
import pytest

from opdiv import (
    build_graph,
    grounded_inverse,
    leader_set_resistance,
    path,
    single_pair,
    steady_state,
)
from opdiv.errors import NotAFollower
from opdiv.verify import verify_appendix

from conftest import pairwise_resistance


class TestGroundedInverse:
    def test_path3_scalar(self):
        gi = grounded_inverse(path(3), single_pair(1, 3))
        assert gi.inv.shape == (1, 1)
        assert gi.inv[0, 0] == pytest.approx(0.5)

    def test_path4_by_hand(self):
        # Lff = [[2,-1],[-1,2]] inverts to [[2/3,1/3],[1/3,2/3]]
        gi = grounded_inverse(path(4), single_pair(1, 4))
        assert gi.inv == pytest.approx(np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]))

    def test_symmetric(self, fig3):
        gi = grounded_inverse(fig3, single_pair(1, 11))
        assert np.allclose(gi.inv, gi.inv.T)

    def test_entries_positive(self, fig3):
        gi = grounded_inverse(fig3, single_pair(1, 6))
        assert np.all(gi.inv > 0)


class TestPairwiseResistance:
    def test_same_node_zero(self):
        gi = grounded_inverse(path(4), single_pair(1, 4))
        assert pairwise_resistance(gi, 2, 2) == 0.0

    def test_path4_adjacent_followers(self):
        gi = grounded_inverse(path(4), single_pair(1, 4))
        assert pairwise_resistance(gi, 2, 3) == pytest.approx(2 / 3)

    def test_not_a_follower(self):
        gi = grounded_inverse(path(4), single_pair(1, 4))
        with pytest.raises(NotAFollower):
            pairwise_resistance(gi, 1, 2)

    def test_cutpoint_additivity_by_hand(self):
        # star with a pendant path: node 3 separates 2 from 4
        g = build_graph(5, [(1, 3), (2, 3), (3, 4), (4, 5)])
        gi = grounded_inverse(g, single_pair(1, 5))
        lhs = pairwise_resistance(gi, 2, 4)
        rhs = pairwise_resistance(gi, 2, 3) + pairwise_resistance(gi, 3, 4)
        assert lhs == pytest.approx(rhs)


class TestLeaderSetResistance:
    def test_path3(self):
        gi = grounded_inverse(path(3), single_pair(1, 3))
        assert leader_set_resistance(gi, 2) == pytest.approx(0.5)

    def test_path4(self):
        gi = grounded_inverse(path(4), single_pair(1, 4))
        assert leader_set_resistance(gi, 2) == pytest.approx(2 / 3)

    def test_leaf_follower_on_leader(self):
        # follower 3 hangs off leader 2 by a single unit edge
        g = build_graph(4, [(1, 2), (2, 3), (2, 4)])
        gi = grounded_inverse(g, single_pair(1, 2))
        assert leader_set_resistance(gi, 3) == pytest.approx(1.0)

    def test_not_a_follower(self):
        gi = grounded_inverse(path(4), single_pair(1, 4))
        for leader in (1, 4):
            with pytest.raises(NotAFollower):
                leader_set_resistance(gi, leader)


class TestAppendixLemmas:
    def test_random_tree_suite(self):
        assert verify_appendix(12, n_trees=60) == []

    def test_inverse_consistent_with_steady_state(self, fig3):
        from opdiv import laplacian_blocks

        lc = single_pair(1, 11)
        gi = grounded_inverse(fig3, lc)
        blocks = laplacian_blocks(fig3, lc)
        xl = np.array([0.0 if v in lc.zeros else 1.0 for v in blocks.leader_order])
        recon = -gi.inv @ (blocks.Lfl @ xl)
        x = steady_state(fig3, lc)
        for v, row in gi.follower_index.items():
            assert recon[row] == pytest.approx(x.values[v], abs=1e-9)
