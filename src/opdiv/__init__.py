"""Opinion diversity in leader-follower averaging networks.

Computes steady-state opinions with pinned 0/1 leaders, scores their
diversity with binned Simpson and Shannon indices, and solves/verifies the
optimal single 1-leader placement on paths, cycles, and trees.
"""

from .graphs import (
    Graph,
    LaplacianBlocks,
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
from .dynamics import OpinionVector, Trajectory, path_closed_form, simulate, steady_state
from .diversity import (
    BinHistogram,
    DiversityScore,
    bin_opinions,
    max_diversity,
    shannon_index,
    simpson_index,
)
from .placement import (
    PlacementResult,
    brute_force_best,
    check_balanced_tree_placement,
    predict_cycle,
    predict_path,
    predict_y_tree,
)
from .resistance import (
    GroundedInverse,
    grounded_inverse,
    leader_set_resistance,
)

__all__ = [
    "Graph",
    "LaplacianBlocks",
    "LeaderConfig",
    "OpinionVector",
    "Trajectory",
    "BinHistogram",
    "DiversityScore",
    "PlacementResult",
    "GroundedInverse",
    "build_graph",
    "generate",
    "path",
    "cycle",
    "y_tree",
    "read_edge_list",
    "write_edge_list",
    "single_pair",
    "laplacian_blocks",
    "tree_path",
    "partition_followers",
    "steady_state",
    "path_closed_form",
    "simulate",
    "bin_opinions",
    "simpson_index",
    "shannon_index",
    "max_diversity",
    "brute_force_best",
    "predict_path",
    "predict_cycle",
    "predict_y_tree",
    "check_balanced_tree_placement",
    "grounded_inverse",
    "leader_set_resistance",
]

__version__ = "0.1.0"
