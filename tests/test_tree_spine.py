"""The rooted-tree path against the per-node BFS and solver it replaced.

The oracles below are the earlier implementations: a BFS `tree_path` per
follower for the P1/P2/P3 split, and a steady-state solve binned with the
snap tolerance for the balanced-placement check. The package now reads both
from one depth-first pass from l0: the split from the preorder runs of the
subtrees along the l0–l1 spine, the balanced check from their sizes.
"""
import functools
import itertools
import random
from collections import deque

import pytest

from opdiv import (
    OpinionVector,
    bin_opinions,
    build_graph,
    check_balanced_tree_placement,
    cycle,
    partition_followers,
    path,
    single_pair,
    steady_state,
    tree_path,
    verify,
)
from opdiv.diversity import SNAP_TOL, bin_index
from opdiv.errors import EndpointOutOfRange, InvalidLeaderConfig, NotATree
from opdiv.graphs import rooted_tree
from opdiv.verify import prufer_edges, random_tree, verify_appendix, verify_trees_r2


def bfs_path(g, a, b):
    """Path a..b by a BFS from a that stops at b."""
    parent = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if v == b:
            break
        for w in g.neighbors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    out = [b]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]


def oracle_partition(g, l0, l1, path=bfs_path):
    """(P1, P2, P3) from two BFS paths per follower, found by `path`: `bfs_path` or a memo of it."""
    p1, p2, p3 = set(), set(), set()
    for v in range(1, g.n + 1):
        if v in (l0, l1):
            continue
        if l0 in path(g, v, l1):
            p1.add(v)
        elif l1 in path(g, v, l0):
            p3.add(v)
        else:
            p2.add(v)
    return p1, p2, p3


def oracle_balanced(g, l0, l1, parts):
    """|P1| = |P3| and the solved, snapped P2 opinions split within one across two bins.

    `parts` is `oracle_partition(g, l0, l1)`.
    """
    p1, p2, p3 = parts
    if len(p1) != len(p3):
        return False
    x = steady_state(g, single_pair(l0, l1))
    h = bin_opinions(OpinionVector({v: x.values[v] for v in p2}), 2)
    return abs(h.counts[0] - h.counts[1]) <= 1


def labelled_trees(max_n):
    """Every labelled tree on 3..max_n nodes, by Prüfer sequence."""
    for n in range(3, max_n + 1):
        for seq in itertools.product(range(1, n + 1), repeat=n - 2):
            yield build_graph(n, prufer_edges(n, list(seq)))


class TestRootedTree:
    def test_fig3_from_node_1(self, fig3):
        t = rooted_tree(fig3, 1)
        assert t.order[0] == 1 and sorted(t.order) == list(range(1, 12))
        assert [t.depth[v] for v in (1, 2, 7, 10, 11, 6)] == [0, 1, 2, 3, 4, 5]
        assert t.parent[11] == 10 and t.parent[1] == 0
        assert all(t.order.index(t.parent[v]) < t.order.index(v) for v in t.order[1:])

    def test_projection_onto_spine(self, fig3):
        pi = rooted_tree(fig3, 1).projection(11)
        # spine 1-2-7-10-11; 3..6 hang off 2, 8 and 9 off 7
        assert [pi[v] for v in range(1, 12)] == [1, 2, 2, 2, 2, 2, 7, 7, 7, 10, 11]

    def test_sizes_and_preorder_subtrees(self):
        # size[v] and subtree(v) against the nodes whose root path passes through v
        rng = random.Random(9)
        trees = list(labelled_trees(5)) + [random_tree(rng.randrange(6, 30), rng) for _ in range(10)]
        for g in trees:
            for root in range(1, g.n + 1):
                t = rooted_tree(g, root)
                below = {v: {u for u in range(1, g.n + 1) if v in t.path_up(u)}
                         for v in range(1, g.n + 1)}
                for v in range(1, g.n + 1):
                    assert t.order[t.index[v]] == v
                    assert t.size[v] == len(below[v])
                    assert t.subtree(v)[0] == v and set(t.subtree(v)) == below[v]

    def test_path_order_from_a_leaf(self):
        assert list(rooted_tree(path(6), 6).order) == [6, 5, 4, 3, 2, 1]

    def test_rejects_non_trees_and_unknown_nodes(self, fig3):
        with pytest.raises(NotATree):
            rooted_tree(cycle(5), 1)
        with pytest.raises(EndpointOutOfRange):
            rooted_tree(fig3, 12)
        with pytest.raises(EndpointOutOfRange):
            rooted_tree(fig3, 1).projection(0)
        with pytest.raises(EndpointOutOfRange):
            rooted_tree(fig3, 1).partition(12)
        with pytest.raises(EndpointOutOfRange):
            tree_path(fig3, 1, -1)

    def test_partition_at_the_root(self, fig3):
        # both leaders at the root: every other node is in P1
        assert rooted_tree(fig3, 2).partition(2) == (set(range(1, 12)) - {2}, set(), set())


class TestAgainstOracles:
    def test_every_labelled_tree_up_to_6(self):
        pairs = certified = 0
        for g in labelled_trees(6):
            path = functools.cache(bfs_path)  # each BFS path of g found once, for every pair
            for l0, l1 in itertools.permutations(range(1, g.n + 1), 2):
                parts = oracle_partition(g, l0, l1, path)
                assert tree_path(g, l0, l1) == path(g, l0, l1)
                assert partition_followers(g, l0, l1) == parts
                balanced = check_balanced_tree_placement(g, l0, l1)
                assert balanced == oracle_balanced(g, l0, l1, parts)
                pairs += 1
                certified += balanced
        # n(n-1) ordered pairs on each of the n^(n-2) labelled trees, n = 3..6
        assert pairs == sum(n ** (n - 2) * n * (n - 1) for n in range(3, 7))
        assert 0 < certified < pairs

    def test_default_trees_r2_sweep(self, monkeypatch):
        # the sweep `opdiv verify trees-R2` runs at its default bound
        checked = []
        path = functools.cache(bfs_path)  # each BFS path of each tree found once

        def both(g, l0, l1):
            parts = oracle_partition(g, l0, l1, path)
            got = check_balanced_tree_placement(g, l0, l1)
            assert got == oracle_balanced(g, l0, l1, parts), (sorted(g.edges), l0, l1)
            assert partition_followers(g, l0, l1) == parts
            checked.append(got)
            return got

        monkeypatch.setattr(verify, "check_balanced_tree_placement", both)
        assert verify_trees_r2(12) == []
        assert len(checked) == 13578
        assert sum(checked) == 1027

    def test_p2_opinion_exactly_one_half(self):
        # spine 1-2-3-4-5 (D = 4) with leaf 7 off node 2 and leaf 6 off node 3:
        # P2 opinions 1/4, 1/4, 1/2, 1/2, 3/4. The two at 1/2 belong to the
        # upper bin, giving (2, 3); in the lower bin they would give (4, 1).
        g = build_graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (2, 7)])
        tree = rooted_tree(g, 1)
        pi = tree.projection(5)
        assert [2 * tree.depth[pi[v]] // tree.depth[5] for v in (2, 3, 4, 6, 7)] == [0, 1, 1, 1, 0]
        assert check_balanced_tree_placement(g, 1, 5)
        # the solve lands near 1/2, not on it; the snap tolerance puts it in the upper bin
        x = steady_state(g, single_pair(1, 5))
        assert all(abs(x.values[v] - 0.5) <= SNAP_TOL for v in (3, 6))
        assert bin_index(x.values[3], 2) == bin_index(x.values[6], 2) == 2
        assert oracle_balanced(g, 1, 5, oracle_partition(g, 1, 5))

    def test_equal_leaders_rejected(self, fig3):
        with pytest.raises(InvalidLeaderConfig):
            check_balanced_tree_placement(fig3, 3, 3)

    def test_random_larger_trees(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_tree(rng.randrange(13, 31), rng)
            for l0, l1 in itertools.permutations(rng.sample(range(1, g.n + 1), 5), 2):
                assert tree_path(g, l0, l1) == bfs_path(g, l0, l1)
                parts = oracle_partition(g, l0, l1)
                assert partition_followers(g, l0, l1) == parts
                assert check_balanced_tree_placement(g, l0, l1) == oracle_balanced(g, l0, l1, parts)


class TestDeeperSweeps:
    # beside the CLI's default bounds (12), which stay as they are
    def test_trees_r2_to_30(self):
        assert verify_trees_r2(30, n_trees=40) == []

    def test_appendix_to_30(self):
        assert verify_appendix(30, n_trees=40) == []
