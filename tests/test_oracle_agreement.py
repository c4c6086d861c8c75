"""Every solved result on a random small map passes the benchmark's oracle.

``perfbench/oracle.py`` prices moves, checks the 45-degree rule and the
height band, finds the optimum over the explicit state graph and measures
area differences, all without importing ``corridor``.  Here it judges the
corridor sets of all five algorithms, with and without A*.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings

from corridor.multipath import ALGORITHMS, MultipathConfig, solve

from strategies import small_instances

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402

K, MIN_DIFF, MAX_DIFF = 2, 5.0, 30.0


@settings(max_examples=20, deadline=None)
@given(small_instances())
def test_solved_results_pass_the_oracle(inst):
    grid, model, mask, src, dst = inst
    if mask is None:
        # No mask: the band is the map's whole vertical hull.
        lo = np.full((grid.ny, grid.nx), grid.z_min_index)
        hi = np.full((grid.ny, grid.nx), grid.z_max_index)
    else:
        lo, hi = mask.z_lo, mask.z_hi
    rates = oracle.Rates(model.paving_rate, model.cut_rate, model.fill_rate, model.road_width)
    check = oracle.Instance(grid.z, grid.dxy, grid.dz, rates, lo, hi, src, dst)
    for algorithm in ALGORITHMS:
        for use_astar in (False, True):
            cfg = MultipathConfig(k=K, min_diff=MIN_DIFF, max_diff=MAX_DIFF, algorithm=algorithm,
                                  use_astar=use_astar, timeout=60.0)
            result = solve(grid, model, mask, src, dst, cfg)
            if not result.solved:
                continue
            paths = [(np.array(p.vertices, dtype=np.int64).reshape(-1, 5), p.edge_costs, p.total_cost)
                     for p in result.paths]
            assert check.check_set(paths, K, MIN_DIFF, MAX_DIFF) == [], (algorithm, use_astar)
