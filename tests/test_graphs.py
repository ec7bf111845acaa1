import itertools
import random
import tracemalloc

import numpy as np
import pytest

from opdiv import (
    LeaderConfig,
    build_graph,
    cycle,
    generate,
    laplacian_blocks,
    partition_followers,
    path,
    read_edge_list,
    single_pair,
    tree_path,
    write_edge_list,
    y_tree,
)
from opdiv.errors import (
    ArmTooShort,
    DisconnectedGraph,
    DuplicateEdge,
    EndpointOutOfRange,
    InvalidLeaderConfig,
    NotATree,
    SelfLoop,
    TooFewNodes,
)
from opdiv.verify import prufer_edges, random_tree

from conftest import FIG3_EDGES


class TestBuildGraph:
    def test_p3(self):
        g = build_graph(3, [(1, 2), (2, 3)])
        assert g.n == 3
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_fig3_tree(self, fig3):
        assert fig3.n == 11
        assert fig3.is_tree()
        assert fig3.degree(2) == 3 and fig3.degree(7) == 4

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            build_graph(4, [(1, 2), (3, 4)])
        with pytest.raises(DisconnectedGraph):  # n - 1 edges, one node unreached
            build_graph(4, [(1, 2), (2, 3), (1, 3)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph(3, [(1, 1), (1, 2), (2, 3)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(1, 2), (2, 1), (2, 3)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(EndpointOutOfRange):
            build_graph(3, [(1, 2), (2, 4)])


class TestGenerators:
    def test_path5(self):
        assert path(5).edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})

    def test_cycle4(self):
        assert cycle(4).edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})

    def test_y_tree_shape(self):
        g = y_tree(2, 3, 1)
        assert g.n == 7
        degrees = [g.degree(v) for v in range(1, 8)]
        assert degrees.count(3) == 1
        assert degrees.count(1) == 3
        # arm0 runs leaf-to-center, so the center is node arm0+1
        assert g.degree(3) == 3

    def test_too_small(self):
        with pytest.raises(TooFewNodes):
            path(2)
        with pytest.raises(TooFewNodes):
            cycle(2)

    def test_arm_too_short(self):
        with pytest.raises(ArmTooShort):
            y_tree(0, 2, 2)

    def test_generate_specs(self):
        assert generate("path:5").edges == path(5).edges
        assert generate("cycle:6").edges == cycle(6).edges
        assert generate("ytree:2,3,1").edges == y_tree(2, 3, 1).edges
        with pytest.raises(ValueError):
            generate("torus:4")


class TestLaplacianBlocks:
    def test_p3_leaders_at_ends(self):
        b = laplacian_blocks(path(3), single_pair(1, 3))
        assert b.Lff.shape == (1, 1) and b.Lff[0, 0] == 2.0
        assert list(b.Lfl[0]) == [-1.0, -1.0]
        assert b.follower_index == {2: 0}

    def test_p3_leaders_adjacent(self):
        b = laplacian_blocks(path(3), single_pair(1, 2))
        assert b.Lff[0, 0] == 1.0  # node 3 has degree 1
        assert b.Lfl[0].sum() == -1.0

    def test_cycle4_opposite_leaders(self):
        b = laplacian_blocks(cycle(4), single_pair(1, 3))
        assert np.array_equal(b.Lff, np.diag([2.0, 2.0]))
        assert np.array_equal(b.Lfl, np.full((2, 2), -1.0))

    def test_row_sums_zero(self, fig3):
        b = laplacian_blocks(fig3, single_pair(1, 11))
        total = b.Lff.sum(axis=1) + b.Lfl.sum(axis=1)
        assert np.array_equal(total, np.zeros(9))

    def test_positive_definite(self, fig3):
        for l0, l1 in [(1, 2), (1, 11), (5, 9)]:
            b = laplacian_blocks(fig3, single_pair(l0, l1))
            np.linalg.cholesky(b.Lff)  # raises if not PD

    def test_invalid_configs(self, fig3):
        with pytest.raises(InvalidLeaderConfig):
            single_pair(3, 3)
        with pytest.raises(InvalidLeaderConfig):
            laplacian_blocks(fig3, single_pair(1, 12))
        with pytest.raises(InvalidLeaderConfig):
            laplacian_blocks(path(3), LeaderConfig(zeros=frozenset({1}), ones=frozenset({2, 3})))


class TestTreePath:
    def test_fig3_long_path(self, fig3):
        assert tree_path(fig3, 1, 11) == [1, 2, 7, 10, 11]

    def test_self_path(self, fig3):
        assert tree_path(fig3, 4, 4) == [4]

    def test_cycle_rejected(self):
        with pytest.raises(NotATree):
            tree_path(cycle(4), 1, 3)

    def test_reversal(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_tree(rng.randrange(3, 11), rng)
            a, b = rng.sample(range(1, g.n + 1), 2)
            assert tree_path(g, a, b) == tree_path(g, b, a)[::-1]


class TestPartition:
    def test_worked_example(self, partition_tree):
        p1, p2, p3 = partition_followers(partition_tree, 11, 12)
        assert p1 == {1, 2, 3}
        assert p2 == {4, 5, 6, 7}
        assert p3 == {8, 9, 10}

    def test_path_leaders_at_leaves(self):
        p1, p2, p3 = partition_followers(path(5), 1, 5)
        assert p1 == set() and p3 == set()
        assert p2 == {2, 3, 4}

    def test_fig3_empty_sides(self, fig3):
        p1, p2, p3 = partition_followers(fig3, 1, 11)
        assert p1 == set() and p3 == set() and len(p2) == 9

    def test_disjoint_cover_exhaustive_small(self):
        # all labeled trees for n <= 6 via Prüfer enumeration
        for n in range(3, 7):
            for seq in itertools.product(range(1, n + 1), repeat=n - 2):
                g = build_graph(n, prufer_edges(n, list(seq)))
                for l0, l1 in itertools.permutations(range(1, n + 1), 2):
                    p1, p2, p3 = partition_followers(g, l0, l1)
                    assert len(p1) + len(p2) + len(p3) == n - 2
                    assert p1 | p2 | p3 == set(range(1, n + 1)) - {l0, l1}

    def test_disjoint_cover_random_larger(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_tree(rng.randrange(7, 11), rng)
            for l0, l1 in itertools.permutations(range(1, g.n + 1), 2):
                p1, p2, p3 = partition_followers(g, l0, l1)
                assert not (p1 & p2 or p1 & p3 or p2 & p3)
                assert p1 | p2 | p3 == set(range(1, g.n + 1)) - {l0, l1}


class TestEdgeListFormat:
    def test_round_trip(self, fig3):
        assert read_edge_list(write_edge_list(fig3)).edges == fig3.edges
        assert write_edge_list(read_edge_list(write_edge_list(fig3))) == write_edge_list(fig3)

    def test_comments_and_blanks(self):
        text = "# a path\nn 3\n\n1 2  # first edge\n2 3\n"
        assert read_edge_list(text).edges == frozenset({(1, 2), (2, 3)})

    def test_huge_header_fails_before_allocating(self):
        # an n-entry adjacency for this header would exhaust memory
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraph):
                read_edge_list("n 1000000000000\n1 2\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_missing_header(self):
        with pytest.raises(ValueError):
            read_edge_list("1 2\n2 3\n")

    def test_fig3_literal(self):
        text = "n 11\n" + "\n".join(f"{u} {v}" for u, v in FIG3_EDGES) + "\n"
        g = read_edge_list(text)
        assert g.n == 11 and g.is_tree()
