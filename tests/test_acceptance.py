"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest output.
"""

import math
import time

import numpy as np
import pytest

from corridor import (
    CostModel,
    TerrainGrid,
    bidi_engine,
    expanding_height_mask,
    graph_stats,
    simple_height_mask,
)
from corridor.bench import profile
from corridor.cli import main as cli_main
from corridor.cost import EdgeCoster
from corridor.dissimilarity import AreaConfig, area_diff, area_diff_with_ops
from corridor.graph import AugVertex, successors2do, successors3do, z_bounds
from corridor.multipath import MultipathConfig, sensitivity, solve
from corridor.pathio import read_path_set, write_path_set
from corridor.search import Path, SearchStats, astar, dijkstra
from corridor.terrain import synth_terrain

from conftest import flat_grid, lane_grid
from test_bench import fake_record
from test_search import exhaustive_best


def _report(num, name, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}")
    assert ok, f"criterion {num:02d} failed: {name}"


def test_c01_structural_bounds():
    ok = True
    for seed in (1, 2, 3):
        g = synth_terrain(seed, 8, 6, 3.0)
        s2 = graph_stats(g, model="2do")
        ok &= s2.vertexCount == 8 * g.nx * g.ny
        s3 = graph_stats(g)
        ok &= s3.vertexCount == 24 * g.nx * g.ny * g.n_levels
        ok &= s3.edgeCount <= 9 * s3.vertexCount
        lo, hi = g.z_min_index, g.z_max_index
        for y in range(g.ny):
            for x in range(g.nx):
                for h in range(8):
                    ok &= len(successors2do(g, x, y, h)) <= 3
                    if 0 < x < g.nx - 1 and 0 < y < g.ny - 1:
                        ok &= len(successors2do(g, x, y, h)) == 3
                    for z in range(lo, hi + 1):
                        for v in (-1, 0, 1):
                            deg = len(successors3do(g, AugVertex(x, y, z, h, v)))
                            ok &= deg <= 9
                            if 0 < x < g.nx - 1 and 0 < y < g.ny - 1 and lo < z < hi:
                                ok &= deg == (9 if v == 0 else 6)
    _report(1, "augmented-graph structural bounds", ok)


def test_c02_oracle_equivalence(model):
    t0 = time.monotonic()
    ok = True
    for seed in range(100):
        relief = (seed % 9) * 0.5
        g = synth_terrain(seed, 20, 10, relief)
        mask = simple_height_mask(g, 1.0, 1)
        src, dst = (0, 5), (19, 5)
        opt = dijkstra(g, model, mask, src, dst).total_cost
        a = astar(g, model, mask, src, dst).total_cost
        b = min(p.total_cost for p in bidi_engine(g, model, mask, src, dst, cutoff=opt).events())
        bi = min(p.total_cost for p in
                 bidi_engine(g, model, mask, src, dst, cutoff=opt, use_ikeda=True).events())
        for other in (a, b, bi):
            ok &= abs(other - opt) <= 1e-9 * max(1.0, opt)
    for seed, (sx, sy) in [(1, (0.03, 0.02)), (2, (0.05, -0.03)), (3, (0.0, 0.06))]:
        xs, ys = np.meshgrid(np.arange(6) * 10.0, np.arange(6) * 10.0)
        g = TerrainGrid(nx=6, ny=6, dxy=10, dz=1, z=sx * xs + sy * ys + 3.0)
        mask = simple_height_mask(g, 1.0, 0)
        brute = exhaustive_best(g, model, mask, (0, 2), (5, 3), 9)
        ok &= dijkstra(g, model, mask, (0, 2), (5, 3)).total_cost == brute
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    _report(2, f"engine oracle equivalence (100 instances, {elapsed:.0f}s)", ok)


def test_c03_sensitivity_example():
    z = np.full((5, 5), 10.0)
    z[3, 2] = 9.2
    z[4, 2] = 9.5
    z[1, 2] = 10.1
    z[0, 2] = 9.8
    g = TerrainGrid(nx=5, ny=5, dxy=10, dz=1, z=z)
    path = Path(vertices=[AugVertex(1, 2, 10, 0, 0), AugVertex(2, 2, 10, 0, 0)],
                total_cost=0.0, edge_costs=[0.0])
    score = sensitivity(path, g, w=2)[0]
    _report(3, "sensitivity worked example 0.39", abs(score - 0.39) <= 1e-12)


def test_c04_solution_validity_from_emitted_files(tmp_path):
    model = CostModel(cut_rate=3.0, fill_rate=3.0)
    maps = [
        ("lanes", lane_grid(), (0, 12), (52, 12)),
        ("asym", lane_grid(nx=53, ny=24, walls=(9, 16), wall_height=8.0), (0, 12), (52, 12)),
        ("synth", synth_terrain(41, 32, 16, 4.0), (0, 8), (31, 8)),
    ]
    violations = 0
    runs = solved_runs = 0
    for name, grid, src, dst in maps:
        mask = simple_height_mask(grid, 1.0, 3)
        for algo in ("se", "ipa", "kspa", "bds", "hybrid"):
            cfg = MultipathConfig(algorithm=algo, use_astar=True, timeout=90)
            result = solve(grid, model, mask, src, dst, cfg)
            runs += 1
            if not result.solved:
                continue
            solved_runs += 1
            out = tmp_path / f"{name}-{algo}.paths"
            write_path_set(out, result)
            paths, meta = read_path_set(out)
            coster = EdgeCoster(grid, model)
            acfg = AreaConfig(
                min_diff=cfg.min_diff,
                map_width=grid.width_m,
                endpoint_distance=math.hypot((dst[0] - src[0]) * grid.dxy,
                                             (dst[1] - src[1]) * grid.dxy),
                dxy=grid.dxy,
            )
            # independent recomputation from the emitted file
            recomputed = []
            for p in paths:
                costs = [coster(a, b) for a, b in zip(p.vertices, p.vertices[1:])]
                recomputed.append(math.fsum(costs))
            opt = min(recomputed)
            if len(paths) != cfg.k:
                violations += 1
            if abs(recomputed[0] - result.optimal_cost) > 1e-6 * max(1.0, opt):
                violations += 1
            if any(c > 1.10 * opt * (1 + 1e-9) for c in recomputed):
                violations += 1
            for i in range(len(paths)):
                for j in range(i + 1, len(paths)):
                    if area_diff(paths[i], paths[j], acfg) < 12.0 - 1e-9:
                        violations += 1
    ok = violations == 0 and solved_runs >= 8
    _report(
        4,
        f"three-criteria validity from emitted files "
        f"({solved_runs}/{runs} solved, {violations} violations)",
        ok,
    )


def test_c05_pruning_monotonicity(model):
    ok = True
    # expansion ordering and mask-solvability on seeded instances
    for seed in range(10):
        g = synth_terrain(seed, 16, 10, 2.0 + (seed % 4))
        src, dst = (0, 5), (15, 5)
        mask = simple_height_mask(g, 1.0, 3)
        s_d, s_a, s_h = SearchStats(), SearchStats(), SearchStats()
        pd = dijkstra(g, model, None, src, dst, stats=s_d)
        astar(g, model, None, src, dst, stats=s_a)
        ph = astar(g, model, mask, src, dst, stats=s_h)
        ok &= s_h.expansions <= s_a.expansions <= s_d.expansions
        if pd is not None:
            inside = all(
                z_bounds(g, mask, v.x, v.y)[0] <= v.z <= z_bounds(g, mask, v.x, v.y)[1]
                for v in pd.vertices
            )
            if inside:
                ok &= ph is not None and abs(ph.total_cost - pd.total_cost) <= 1e-9 * pd.total_cost
    # EHR and HR produce identical path sets on the fixture suite; the
    # expanded band costs wall time on the single-source engine (the
    # bidirectional engine's smaller-heap interleaving is not mask-monotone,
    # so timing it would compare interleavings, not the restrictions).
    lane_model = CostModel(cut_rate=3.0, fill_rate=3.0)
    for walls in ((9, 15), (9, 16)):
        grid = lane_grid(nx=53, ny=24, walls=walls, wall_height=8.0)
        src, dst = (0, 12), (52, 12)
        cfg = MultipathConfig(algorithm="bds", use_astar=True, timeout=120)
        hr = simple_height_mask(grid, 1.0, 3)
        ehr = expanding_height_mask(grid, 0.5, lane_model.max_grade, src=src, dst=dst)
        r_hr = solve(grid, lane_model, hr, src, dst, cfg)
        r_ehr = solve(grid, lane_model, ehr, src, dst, cfg)
        ok &= [p.vertices for p in r_hr.paths] == [p.vertices for p in r_ehr.paths]
        # the expanded band is a per-column superset on this terrain
        lo_clip = np.maximum(hr.z_lo, grid.z_min_index)
        hi_clip = np.minimum(hr.z_hi, grid.z_max_index)
        elo_clip = np.maximum(ehr.z_lo, grid.z_min_index)
        ehi_clip = np.minimum(ehr.z_hi, grid.z_max_index)
        ok &= bool(np.all(elo_clip <= lo_clip) and np.all(ehi_clip >= hi_clip))
        t0 = time.monotonic()
        simple_height_mask(grid, 1.0, 3)
        astar(grid, lane_model, hr, src, dst)
        t_hr = time.monotonic() - t0
        t0 = time.monotonic()
        expanding_height_mask(grid, 0.5, lane_model.max_grade, src=src, dst=dst)
        astar(grid, lane_model, ehr, src, dst)
        t_ehr = time.monotonic() - t0
        ok &= t_ehr >= t_hr
    _report(5, "height-restriction pruning monotonicity", ok)


def test_c06_hybrid_reduction(model):
    ok = True
    for seed in range(20):
        g = synth_terrain(seed, 16, 10, 2.0 + (seed % 4))
        mask = simple_height_mask(g, 1.0, 1)
        src, dst = (0, 5), (15, 5)
        rb = solve(g, model, mask, src, dst, MultipathConfig(algorithm="bds", timeout=60))
        rh = solve(g, model, mask, src, dst,
                   MultipathConfig(algorithm="hybrid", ka=1, timeout=60))
        ok &= [p.vertices for p in rb.paths] == [p.vertices for p in rh.paths]
        ok &= rb.solved == rh.solved
    _report(6, "hybrid with ka=1 reproduces bidirectional selection", ok)


def test_c07_kspa_pathology(model):
    wide = flat_grid(nx=20, ny=40)
    r_kspa = solve(wide, model, None, (0, 20), (19, 20),
                   MultipathConfig(algorithm="kspa", timeout=120))
    long_ = flat_grid(nx=42, ny=16)
    r_bds = solve(long_, model, None, (0, 8), (41, 8),
                  MultipathConfig(algorithm="bds", timeout=120))
    ok = len(r_kspa.paths) == 1 and len(r_bds.paths) == 3 and r_bds.solved
    _report(7, "uniform-grid collapse (kspa=1 path) vs bds k=3", ok)


def test_c08_area_metric():
    cfg = AreaConfig(min_diff=12, map_width=200.0, endpoint_distance=50.0, dxy=10.0)

    def station_path(points):
        return Path(vertices=[AugVertex(x, y, 0, 0, 0) for x, y in points],
                    total_cost=0.0, edge_costs=None)

    p = station_path([(x, 0) for x in range(6)])
    q = station_path([(0, 0), (1, 12.5), (2, 12.5), (3, 12.5), (4, 12.5), (5, 0)])
    ok = area_diff(p, p, cfg) == 0.0
    ok &= abs(area_diff(p, q, cfg) - 50.0) <= 1e-9
    # operation count grows linearly in total path length
    lengths = [10, 50, 100, 250, 500, 1000]
    ops = []
    rng = np.random.default_rng(0)
    for n in lengths:
        ys = np.cumsum(rng.integers(-1, 2, size=n))
        ys[0] = ys[-1] = 0
        a = station_path([(x, 0) for x in range(n)])
        b = station_path([(x, int(y)) for x, y in enumerate(ys)])
        big = AreaConfig(min_diff=12, map_width=1000.0, endpoint_distance=10.0 * n, dxy=10.0)
        ops.append(area_diff_with_ops(a, b, big)[1])
    x = np.array([2 * n for n in lengths], dtype=float)
    y = np.array(ops, dtype=float)
    r = np.corrcoef(x, y)[0, 1]
    ok &= r * r >= 0.99
    _report(8, f"area metric exactness and linearity (R2={r * r:.5f})", ok)


def test_c09_performance_profile():
    records = [
        fake_record("p1", "A", True, 10.0),
        fake_record("p1", "B", True, 30.0),
        fake_record("p2", "A", True, 20.0),
        fake_record("p2", "B", False, 20.0),
        fake_record("p3", "A", False, 20.0),
        fake_record("p3", "B", False, 20.0),
    ]
    prof = profile(records, ["A", "B"], metric="wall_time")
    ok = prof.points["A"] == [(1.0, 1.0)]
    ok &= prof.points["B"] == [(3.0, 0.5)]
    ok &= prof.value_at("B", 2.999) == 0.0
    ok &= prof.value_at("B", 3.0) == 0.5
    _report(9, "performance profile step function and exclusion rule", ok)


def test_c10_bench_determinism(tmp_path):
    outputs = []
    for run in ("one", "two"):
        cfg = tmp_path / f"{run}.cfg"
        out = tmp_path / run
        cfg.write_text(
            "maps = synth:31:16:8:3,synth:32:16:8:4\n"
            "solvers = bds+astar,bds+astar+hr\n"
            "timeout = 60\n"
            f"out_dir = {out}\n"
        )
        assert cli_main(["bench", str(cfg)]) == 0
        outputs.append(tuple(
            (out / name).read_bytes() for name in ("records.csv", "profile.csv")
        ))
    ok = outputs[0] == outputs[1]
    _report(10, "bench emits byte-identical CSVs across reruns", ok)
