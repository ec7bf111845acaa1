import pytest

from opdiv import build_graph, leader_set_resistance

# 11-node tree used throughout: a 6-node spine 1..6 with a hub at node 7
# hanging off node 2 and a pendant path 10-11.
FIG3_EDGES = [
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
    (2, 7), (7, 8), (7, 9), (7, 10), (10, 11),
]

# 12-node tree with leaders at 11 (0-leader) and 12 (1-leader); followers
# labeled 1..10 so the partition example (P1={1,2,3}, P2={4,5,6,7},
# P3={8,9,10}) reads off directly.
PARTITION_EDGES = [
    (1, 3), (2, 3), (3, 11), (11, 4), (4, 5), (5, 6),
    (6, 12), (12, 8), (8, 9), (8, 10), (4, 7),
]


@pytest.fixture
def fig3():
    return build_graph(11, FIG3_EDGES)


@pytest.fixture
def partition_tree():
    return build_graph(12, PARTITION_EDGES)


def pairwise_resistance(gi, u, v):
    """Grounded effective resistance between followers u and v, the scalar oracle.

    r(u, v) = Lff⁻¹(u, u) + Lff⁻¹(v, v) − 2·Lff⁻¹(u, v), read off a
    `GroundedInverse`; zero iff u = v, and NotAFollower when u or v is a leader.
    """
    ru, rv = leader_set_resistance(gi, u), leader_set_resistance(gi, v)
    return ru + rv - 2.0 * float(gi.inv[gi.follower_index[u], gi.follower_index[v]])
