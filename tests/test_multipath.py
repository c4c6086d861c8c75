import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor import CostModel, TerrainGrid, bidi_engine, simple_height_mask
from corridor.dissimilarity import Outcome, accept, assert_pairwise_dissimilar, cost_bar
from corridor.graph import AugVertex
from corridor.multipath import (
    IPA_TOLERANCE,
    IpaBracket,
    MultipathConfig,
    _select_meets,
    _Solve,
    run_bds,
    run_hybrid,
    run_ipa,
    run_kspa,
    run_se,
    sensitivity,
    sensitivity_width,
    solve,
)
from corridor.search import Path, dijkstra

from conftest import LANES_DST, LANES_SRC, canyon_grid, crossing_grid, flat_grid, lane_grid, one_label_path
from strategies import small_instances


@pytest.fixture(scope="module")
def lane_runs(lanes, lanes_mask, lane_model):
    """Solve the three-lane fixture once per algorithm."""
    runs = {}
    for algo in ("se", "ipa", "kspa", "bds", "hybrid"):
        cfg = MultipathConfig(algorithm=algo, timeout=120)
        runs[algo] = solve(lanes, lane_model, lanes_mask, LANES_SRC, LANES_DST, cfg)
    return runs


class TestSensitivity:
    def test_worked_example(self):
        z = np.full((5, 5), 10.0)
        z[3, 2] = 9.2   # left offsets (heading +x): +y side
        z[4, 2] = 9.5
        z[1, 2] = 10.1  # right offsets: -y side
        z[0, 2] = 9.8
        g = TerrainGrid(nx=5, ny=5, dxy=10, dz=1, z=z)
        path = Path(
            vertices=[AugVertex(1, 2, 10, 0, 0), AugVertex(2, 2, 10, 0, 0)],
            total_cost=0.0,
            edge_costs=[0.0],
        )
        scores = sensitivity(path, g, w=2)
        assert scores == [pytest.approx(0.39, abs=1e-12)]

    def test_flat_ground_scores_zero(self, model):
        g = flat_grid(nx=10, ny=7)
        p = dijkstra(g, model, None, (0, 3), (9, 3))
        assert all(s == 0.0 for s in sensitivity(p, g, w=2))

    def test_off_map_offsets_contribute_zero(self):
        z = np.full((3, 5), 4.0)
        z[0, 2] = 3.0
        g = TerrainGrid(nx=5, ny=3, dxy=10, dz=1, z=z)
        path = Path(
            vertices=[AugVertex(1, 0, 4, 0, 0), AugVertex(2, 0, 4, 0, 0)],
            total_cost=0.0,
            edge_costs=[0.0],
        )
        # Head at y=0: the -y side falls off the map entirely, so one factor is 0.
        assert sensitivity(path, g, w=2) == [0.0]

    def test_width_derivation(self):
        assert sensitivity_width(12.0, 20) == 2
        assert sensitivity_width(12.0, 5) == 1  # floor clamps to at least 1


class TestIpaBracket:
    def test_double_then_bisect_trace(self):
        br = IpaBracket(10.0, 320.0)
        assert br.step("similar") and br.width == 20.0
        assert br.step("similar") and br.width == 40.0
        assert br.step("expensive") and br.width == 30.0

    def test_repeated_width_stops(self):
        br = IpaBracket(10.0, 320.0)
        br.step("similar")      # width 20, lower 10
        br.step("expensive")    # width 15, upper 20
        br.step("similar")      # width 17.5, lower 15
        assert br.step("expensive") is True   # width (15+17.5)/2 = 16.25
        br.tried.add(0.5 * (16.25 + 17.5))
        assert br.step("similar") is False    # next midpoint already tried

    def test_penalty_max_stops(self):
        br = IpaBracket(200.0, 320.0)
        assert br.step("similar") is False    # doubling to 400 exceeds the cap

    def test_alternating_outcomes_stop_at_tolerance(self):
        br = IpaBracket(10.0, 320.0)
        steps = 0
        while br.step("similar" if steps % 2 == 0 else "expensive"):
            steps += 1
            assert steps < 30, "bracket never closed"
        # Each step halves a bracket of width 10; it closes near 1e-3 * 16.7.
        assert 8 <= steps <= 14
        assert br.upper - br.lower < IPA_TOLERANCE * br.width
        assert 16.0 < br.lower < br.upper < 17.0

    def test_accept_clears_bracket(self):
        br = IpaBracket(10.0, 320.0)
        br.step("similar")
        br.step("similar")
        assert br.step("accepted")
        assert br.lower == 0.0 and br.upper is None and br.tried == {40.0}


class TestLaneFixture:
    def test_all_algorithms_solve(self, lane_runs):
        for algo, result in lane_runs.items():
            assert result.solved, f"{algo} failed on the lane fixture"
            assert len(result.paths) == 3

    def test_counts_unchanged(self, lane_runs):
        # expansions / peak_labels / iterations of each algorithm; a change
        # to an engine that keeps the corridors but moves these is a finding.
        # bds and hybrid stop at the dearest of the k held corridors.
        counts = {algo: (r.expansions, r.peak_labels, r.iterations) for algo, r in lane_runs.items()}
        assert counts == {
            "se": (73_304, 23_928, 7),
            "ipa": (63_616, 25_202, 5),
            "kspa": (14_175, 27_325, 14_175),
            "bds": (53_746, 84_572, 993),
            "hybrid": (56_068, 91_071, 1_024),
        }

    def test_three_criteria(self, lane_runs):
        for result in lane_runs.values():
            assert all(r <= 1.10 + 1e-12 for r in result.cost_ratios)
            n = len(result.paths)
            for i in range(n):
                for j in range(i + 1, n):
                    assert result.area_matrix[i][j] >= 12.0 - 1e-9

    def test_optimum_is_first(self, lanes, lanes_mask, lane_model, lane_runs):
        opt = dijkstra(lanes, lane_model, lanes_mask, LANES_SRC, LANES_DST)
        for result in lane_runs.values():
            assert result.paths[0].total_cost == pytest.approx(opt.total_cost, rel=1e-9)

    def test_paths_validate(self, lanes, lanes_mask, lane_model, lane_runs):
        for result in lane_runs.values():
            for p in result.paths:
                p.validate(lanes, lane_model, lanes_mask)

    def test_distinct_lanes_found(self, lane_runs):
        for result in lane_runs.values():
            mean_ys = sorted(
                np.mean([v.y for v in p.vertices]) for p in result.paths
            )
            assert mean_ys[0] < 11 and 11 < mean_ys[1] < 13 and mean_ys[2] > 13


class TestSensitiveElimination:
    def test_two_lane_cut_finds_second_path(self, lane_model):
        # narrow center lane: the first wall cut blocks it outright, so the
        # re-search must produce a genuinely different corridor
        g = lane_grid(nx=37, ny=14, walls=(10, 12), wall_height=8.0)
        mask = simple_height_mask(g, 1.0, 1)
        cfg = MultipathConfig(k=2, algorithm="se", timeout=60)
        r = run_se(g, lane_model, mask, (0, 11), (36, 11), cfg)
        assert r.solved and len(r.paths) == 2
        # one cut was enough: optimal search plus one re-search
        assert r.iterations == 2

    def test_canyon_stops_early_unsolved(self, lane_model):
        g = canyon_grid()
        mask = simple_height_mask(g, 1.0, 1)
        cfg = MultipathConfig(algorithm="se", timeout=60)
        r = run_se(g, lane_model, mask, (0, 5), (30, 5), cfg)
        assert not r.solved
        assert len(r.paths) >= 1  # the optimum is still reported

    def test_flat_map_behaviour(self, model):
        g = flat_grid(nx=24, ny=12)
        cfg = MultipathConfig(algorithm="se", timeout=30)
        r = run_se(g, model, None, (0, 6), (23, 6), cfg)
        # Degenerate sensitivities: either unsolved or solved via repeated cuts.
        assert r.paths
        if r.solved:
            assert r.iterations > cfg.k

    def test_restore_preserves_optimum(self, lanes, lanes_mask, lane_model, lane_runs):
        # After a full run (walls placed and restored), a fresh engine
        # reproduces the same optimum: no residual state leaks.
        fresh = dijkstra(lanes, lane_model, lanes_mask, LANES_SRC, LANES_DST)
        assert fresh.total_cost == pytest.approx(
            lane_runs["se"].paths[0].total_cost, rel=1e-12
        )


class TestIterativePenalty:
    def test_reported_costs_are_unpenalized(self, lanes, lanes_mask, lane_model, lane_runs):
        for p in lane_runs["ipa"].paths:
            q = Path(vertices=p.vertices, total_cost=0.0, edge_costs=None)
            from corridor.cost import EdgeCoster
            q.price(EdgeCoster(lanes, lane_model))
            assert p.total_cost == pytest.approx(q.total_cost, rel=1e-12)

    def test_solves_quickly_on_lanes(self, lane_runs):
        assert lane_runs["ipa"].solved
        assert lane_runs["ipa"].iterations <= 10

    def test_default_initial_width(self):
        assert MultipathConfig().penalty_width == 10.0


class TestKShortestAdaptation:
    def test_uniform_grid_collapses_to_one_path(self, model):
        # Wider than long: every lateral divergence affordable under the cost
        # bar stays below the dissimilarity bar, so per-vertex label sets can
        # never hold a second path and only one road reaches the destination.
        g = flat_grid(nx=20, ny=40)
        cfg = MultipathConfig(algorithm="kspa", timeout=120)
        r = run_kspa(g, model, None, (0, 20), (19, 20), cfg)
        assert len(r.paths) == 1
        assert not r.solved

    def test_two_lane_kappa_two(self, lane_model):
        g = lane_grid(nx=37, ny=14, walls=(8,), wall_height=8.0)
        mask = simple_height_mask(g, 1.0, 1)
        cfg = MultipathConfig(k=2, algorithm="kspa", timeout=60)
        r = run_kspa(g, lane_model, mask, (0, 11), (36, 11), cfg)
        assert r.solved and len(r.paths) == 2

    def test_kappa_one_matches_dijkstra(self, lane_model):
        # kspa's side with one label per state is Dijkstra.
        g = lane_grid(nx=37, ny=14, walls=(8,), wall_height=8.0)
        mask = simple_height_mask(g, 1.0, 1)
        r = one_label_path(g, lane_model, mask, (0, 11), (36, 11))
        p = dijkstra(g, lane_model, mask, (0, 11), (36, 11))
        assert r.vertices == p.vertices
        assert r.total_cost == pytest.approx(p.total_cost, rel=1e-12)

    def test_astar_same_paths_fewer_expansions(self, lanes, lanes_mask, lane_model):
        from corridor.terrain import synth_terrain
        c04 = synth_terrain(41, 32, 16, 4.0)
        cases = [
            (lanes, lanes_mask, LANES_SRC, LANES_DST),
            (c04, simple_height_mask(c04, 1.0, 3), (0, 8), (31, 8)),
        ]
        for grid, mask, src, dst in cases:
            plain = run_kspa(grid, lane_model, mask, src, dst, MultipathConfig(algorithm="kspa", timeout=120))
            guided = run_kspa(grid, lane_model, mask, src, dst,
                              MultipathConfig(algorithm="kspa", use_astar=True, timeout=120))
            assert [p.vertices for p in guided.paths] == [p.vertices for p in plain.paths]
            assert guided.expansions < plain.expansions


class TestBidirectionalSelection:
    def test_flat_wide_grid_finds_three(self, model):
        g = flat_grid(nx=42, ny=16)
        cfg = MultipathConfig(algorithm="bds", timeout=120)
        r = run_bds(g, model, None, (0, 8), (41, 8), cfg)
        assert r.solved and len(r.paths) == 3

    def test_crossing_channels(self, lane_model):
        g = crossing_grid()
        mask = simple_height_mask(g, 1.0, 1)
        cfg = MultipathConfig(k=2, algorithm="bds", timeout=120)
        src, dst = (0, 10), (40, 10)
        r = run_bds(g, lane_model, mask, src, dst, cfg)
        assert r.solved

        def station_means(path):
            cols = {}
            for v in path.vertices:
                cols.setdefault(v.x, []).append(v.y)
            return {x: sum(v) / len(v) for x, v in cols.items()}

        # Concatenated candidates are free to cross each other at an angle:
        # some meet-event path swaps sides against the accepted optimum.
        ref = station_means(r.paths[0])
        from corridor import bidi_engine
        eng = bidi_engine(g, lane_model, mask, src, dst,
                          cutoff=1.10 * r.paths[0].total_cost)
        crossing = False
        for path in eng.events():
            prof = station_means(path)
            diffs = [prof[x] - ref[x] for x in prof if x in ref]
            if min(diffs) < -0.5 and max(diffs) > 0.5:
                crossing = True
                break
        assert crossing

    def test_asymmetric_lane_ratios_regression(self, lane_model):
        g = lane_grid(nx=53, ny=24, walls=(9, 16), wall_height=8.0)
        mask = simple_height_mask(g, 1.0, 1)
        cfg = MultipathConfig(algorithm="bds", timeout=120)
        r = run_bds(g, lane_model, mask, (0, 12), (52, 12), cfg)
        assert r.solved
        assert r.cost_ratios[0] == pytest.approx(1.0)
        assert 1.03 < r.cost_ratios[1] < r.cost_ratios[2] <= 1.10

    def test_deterministic(self, lanes, lanes_mask, lane_model, lane_runs):
        cfg = MultipathConfig(algorithm="bds", timeout=120)
        again = run_bds(lanes, lane_model, lanes_mask, LANES_SRC, LANES_DST, cfg)
        first = lane_runs["bds"]
        assert [p.vertices for p in again.paths] == [p.vertices for p in first.paths]

    def test_timeout_marks_incomplete(self, lanes, lanes_mask, lane_model):
        cfg = MultipathConfig(algorithm="bds", timeout=0.0)
        r = run_bds(lanes, lane_model, lanes_mask, LANES_SRC, LANES_DST, cfg)
        assert r.incomplete and not r.solved

    def test_label_cap_marks_incomplete(self, lanes, lanes_mask, lane_model):
        cfg = MultipathConfig(algorithm="bds", timeout=60, label_cap=100)
        r = run_bds(lanes, lane_model, lanes_mask, LANES_SRC, LANES_DST, cfg)
        assert r.incomplete and not r.solved


class TestLimitsInsideSearches:
    """se and ipa hand the timeout and the label cap to every search they run."""

    @pytest.fixture(scope="class")
    def relief(self):
        from corridor.terrain import synth_terrain
        g = synth_terrain(2, 40, 20, 8.0)
        return g, simple_height_mask(g, 1.0, 3)

    @pytest.mark.parametrize("run", [run_se, run_ipa])
    def test_timeout_cuts_the_first_search(self, relief, model, run):
        # Unlimited, the first search alone settles 43,551 states.
        g, mask = relief
        r = run(g, model, mask, (0, 10), (39, 10), MultipathConfig(timeout=0.0))
        assert r.incomplete and not r.solved
        assert r.expansions < 100

    @pytest.mark.parametrize("run", [run_se, run_ipa])
    def test_label_cap_cuts_the_first_search(self, relief, model, run):
        g, mask = relief
        r = run(g, model, mask, (0, 10), (39, 10), MultipathConfig(timeout=60, label_cap=500))
        assert r.incomplete and not r.solved and r.paths == []
        assert r.peak_labels <= 500


class TestHybrid:
    def test_defaults(self):
        assert MultipathConfig().ka == 2

    def test_ka_one_reduces_to_bds(self, lane_model):
        for seed in (1, 2, 3, 4, 5):
            from corridor.terrain import synth_terrain
            g = synth_terrain(seed, 16, 10, 4.0)
            mask = simple_height_mask(g, 1.0, 1)
            src, dst = (0, 5), (15, 5)
            cfg_b = MultipathConfig(algorithm="bds", timeout=60)
            cfg_h = MultipathConfig(algorithm="hybrid", ka=1, timeout=60)
            rb = run_bds(g, lane_model, mask, src, dst, cfg_b)
            rh = run_hybrid(g, lane_model, mask, src, dst, cfg_h)
            assert [p.vertices for p in rb.paths] == [p.vertices for p in rh.paths]
            assert rb.solved == rh.solved

    def test_solves_where_bds_solves(self, lane_runs):
        assert lane_runs["bds"].solved
        assert lane_runs["hybrid"].solved

    def test_label_cap_marks_incomplete(self, lanes, lanes_mask, lane_model):
        cfg = MultipathConfig(algorithm="hybrid", timeout=60, label_cap=100)
        r = run_hybrid(lanes, lane_model, lanes_mask, LANES_SRC, LANES_DST, cfg)
        assert r.incomplete and not r.solved


class TestDispatcher:
    def test_unknown_algorithm(self, model):
        g = flat_grid(nx=6, ny=4)
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve(g, model, None, (0, 1), (5, 1), MultipathConfig(algorithm="nope"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MultipathConfig(k=1)
        with pytest.raises(ValueError):
            MultipathConfig(ka=0)

    # A negative max_diff would reject the optimum itself, and a penalty
    # width that is not positive prices no corridor or a negative one.  A
    # penalty_max at or below the width stops ipa after its first search,
    # and a negative timeout stops every algorithm before its first.  A
    # label_cap below 1 ends every search at its first settle, unsolved.
    @pytest.mark.parametrize("value", [
        dict(max_diff=-5.0), dict(penalty_width=-5.0), dict(penalty_width=0.0),
        dict(penalty_max=10.0), dict(penalty_max=-5.0), dict(timeout=-1.0),
        dict(label_cap=0), dict(label_cap=-5),
    ], ids=["max_diff=-5", "penalty_width=-5", "penalty_width=0", "penalty_max=penalty_width",
            "penalty_max=-5", "timeout=-1", "label_cap=0", "label_cap=-5"])
    def test_config_rejects_values_that_cannot_work(self, value):
        with pytest.raises(ValueError):
            MultipathConfig(**value)

    # A NaN passes every "< 0" test, so each of these used to be accepted and
    # fail later: a negative min_diff in the area metric, a NaN one in the
    # accepted-set invariant.
    @pytest.mark.parametrize("key, value", [
        ("min_diff", -1.0), ("min_diff", math.nan), ("max_diff", math.nan),
        ("penalty_width", math.nan), ("penalty_max", math.nan), ("timeout", math.nan),
    ])
    def test_config_rejects_nan_and_negative_min_diff(self, key, value):
        with pytest.raises(ValueError, match=key):
            MultipathConfig(**{key: value})


def untightened_select(name, grid, model, mask, src, dst, cfg, ka):
    """The meet selection with the engine's cutoff lowered only when a
    cheaper meet lowers the optimum, as it was before it also stopped at
    the dearest held corridor."""
    run = _Solve(name, grid, model, mask, src, dst, cfg)
    engine = bidi_engine(
        grid, model, mask, src, dst, use_ikeda=cfg.use_astar, stats=run.stats, coster=run.coster,
        labels=ka, min_diff=cfg.min_diff, max_diff=cfg.max_diff, deadline=run.deadline, label_cap=cfg.label_cap,
    )
    accepted, seen, mu = [], set(), None
    for path in engine.events():
        run.iterations += 1
        if mu is None or path.total_cost < mu:
            mu = path.total_cost
            engine.set_cutoff(cost_bar(mu, cfg.max_diff))
        key = path.key()
        if key in seen:
            continue
        seen.add(key)
        if accept(path, accepted, run.acfg, cfg.k, cfg.max_diff, mu).outcome is not Outcome.REJECT:
            assert_pairwise_dissimilar(accepted, run.acfg)
    return run.result(accepted, mu)


@settings(max_examples=100, deadline=None)
@given(small_instances(), st.sampled_from((1, 2)), st.booleans(), st.sampled_from((2, 3)),
       st.sampled_from((0.5, 3.0, 12.0)), st.sampled_from((10.0, 30.0)))
def test_stopping_at_the_dearest_held_corridor_keeps_the_selection(inst, ka, use_astar, k, min_diff, max_diff):
    # Once k corridors are held, place replaces one only with a cheaper
    # meet, so every meet the tighter cutoff skips would have been rejected.
    # Low min_diff and high max_diff let small maps hold k corridors.
    grid, model, mask, src, dst = inst
    cfg = MultipathConfig(k=k, min_diff=min_diff, max_diff=max_diff, algorithm="hybrid", ka=ka,
                          use_astar=use_astar, timeout=60)
    got = _select_meets("hybrid", grid, model, mask, src, dst, cfg, ka)
    want = untightened_select("hybrid", grid, model, mask, src, dst, cfg, ka)
    assert [p.total_cost for p in got.paths] == [p.total_cost for p in want.paths]
    assert [p.vertices for p in got.paths] == [p.vertices for p in want.paths]
    assert (got.solved, got.optimal_cost) == (want.solved, want.optimal_cost)
    assert got.expansions <= want.expansions and got.iterations <= want.iterations
