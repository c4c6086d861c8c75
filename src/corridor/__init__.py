"""Dissimilar road-corridor selection over terrain elevation grids."""

from .cost import CostModel, EdgeCoster, astar_heuristic, edge_cost
from .dissimilarity import AreaConfig, Decision, Outcome, accept, area_diff, pairwise_areas
from .graph import (
    AugVertex,
    GraphStats,
    HeightMask,
    expanding_height_mask,
    graph_stats,
    simple_height_mask,
    successors2do,
    successors3do,
)
from .multipath import (
    MultipathConfig,
    MultipathResult,
    run_bds,
    run_hybrid,
    run_ipa,
    run_kspa,
    run_se,
    sensitivity,
    solve,
)
from .search import BidiEngine, CellFilter, CellPenalty, Path, SearchStats, astar, bidi_engine, dijkstra
from .terrain import (
    TerrainClassBreakdown,
    TerrainGrid,
    classify,
    ground_profile,
    load_grid,
    max_grade,
    save_grid,
    synth_terrain,
)

__version__ = "0.1.0"
