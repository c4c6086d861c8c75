from dataclasses import replace

import pytest

from corridor import CostModel
from corridor.bench import (
    BenchMap,
    BenchSolver,
    ExperimentRecord,
    make_solver,
    profile,
    profile_to_csv,
    records_from_csv,
    records_to_csv,
    run_matrix,
    synth_map_set,
    terrain_table,
)
from corridor.multipath import MultipathConfig
from corridor.search import SearchStats, astar, dijkstra
from corridor.graph import simple_height_mask

from conftest import lane_grid


def fake_record(map_id, solver, solved, wall_time, expansions=100):
    return ExperimentRecord(
        map_id=map_id, dim_x=10, dim_y=10, dim_z=3,
        frac_a=1.0, frac_b=0.0, frac_c=0.0,
        solver=solver, algorithm=solver.split("+")[0],
        astar=False, hr=False, ehr=False,
        wall_time=wall_time, expansions=expansions, peak_labels=0,
        solved=solved, path_costs=(1.0, 1.05, 1.08), pairwise_areas=(15.0, 14.0, 20.0),
    )


class TestSolverSpec:
    def test_parse_modifiers(self):
        s = make_solver("bds+astar+hr")
        assert s.algorithm == "bds" and s.use_astar and s.mask == "hr"

    def test_default_hr_parameters(self):
        s = make_solver("bds+hr")
        assert s.r == 3 and s.hm == 1.0

    def test_bad_mask(self):
        with pytest.raises(ValueError):
            BenchSolver(name="x", algorithm="bds", mask="wat")

    @pytest.mark.parametrize("spec", ["bds+astr+hr", "se+HR", "ipa+astar+", "kspa+ehr+x"])
    def test_unknown_part_rejected(self, spec):
        with pytest.raises(ValueError, match="unknown part"):
            make_solver(spec)

    @pytest.mark.parametrize("spec, why", [
        ("bds+astar+astar", "repeated"),
        ("bds+hr+hr", "repeated"),
        ("bds+hr+ehr", "both masks"),
        ("bsd+astar", "unknown algorithm 'bsd'"),
    ])
    def test_spec_that_cannot_run_under_its_name_rejected(self, spec, why):
        # bds+hr+ehr used to run EHR only and file the record as hr=0, ehr=1.
        with pytest.raises(ValueError, match=why):
            make_solver(spec)

    def test_cli_reports_unknown_algorithm(self, tmp_path, capsys):
        # This config used to exit 0 with a ValueError recorded in every bsd cell.
        from corridor.cli import main

        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"maps = synth:1:8:6:2\nsolvers = bsd+astar,bds+hr+ehr\nout_dir = {tmp_path}\n")
        assert main(["bench", str(cfg)]) == 1
        assert "unknown algorithm 'bsd'" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    def test_cli_reports_unknown_part(self, tmp_path, capsys):
        from corridor.cli import main

        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"maps = synth:1:8:6:2\nsolvers = bds+astr\nout_dir = {tmp_path}\n")
        assert main(["bench", str(cfg)]) == 1
        assert "astr" in capsys.readouterr().err


class TestRunMatrix:
    @pytest.fixture(scope="class")
    @classmethod
    def records(cls):
        maps = []
        for i, (nx, ny, walls) in enumerate([(29, 12, (4, 7)), (33, 14, (5, 8))]):
            grid = lane_grid(nx=nx, ny=ny, walls=walls, wall_height=8.0)
            maps.append(BenchMap(map_id=f"lane{i}", grid=grid,
                                 src=(0, ny - 3), dst=(nx - 1, ny - 3)))
        solvers = [make_solver(s) for s in ("se+astar", "ipa+astar", "bds+astar")]
        model = CostModel(cut_rate=3.0, fill_rate=3.0)
        return run_matrix(maps, solvers, model, MultipathConfig(timeout=60))

    def test_cardinality(self, records):
        assert len(records) == 6  # 3 solvers x 2 maps

    def test_sorted_by_key(self, records):
        keys = [(r.map_id, r.solver) for r in records]
        assert keys == sorted(keys)

    def test_no_errors(self, records):
        assert all(r.error == "" for r in records)

    def test_csv_round_trip(self, records, tmp_path):
        p = tmp_path / "records.csv"
        records_to_csv(records, p)
        back = records_from_csv(p)
        assert back == records

    def test_deterministic_csv_round_trip(self, records, tmp_path):
        # Deterministic mode leaves the wall_time column out; it reads back as 0.
        p = tmp_path / "records.csv"
        records_to_csv(records, p, include_wall_time=False)
        assert "wall_time" not in p.read_text().splitlines()[0]
        assert records_from_csv(p) == [replace(r, wall_time=0.0) for r in records]

    def test_profile_round_trip(self, records, tmp_path):
        solvers = sorted({r.solver for r in records})
        p = tmp_path / "records.csv"
        records_to_csv(records, p)
        prof1 = profile(records, solvers)
        prof2 = profile(records_from_csv(p), solvers)
        assert prof1.points == prof2.points

    def test_classify_once_per_map(self, monkeypatch):
        import corridor.bench as bench

        calls = []
        classify = bench.classify
        monkeypatch.setattr(bench, "classify", lambda grid: calls.append(grid) or classify(grid))
        maps = synth_map_set(1, [(8, 6, 2.0), (9, 6, 2.0)])
        recs = run_matrix(maps, [make_solver("bds"), make_solver("se+hr")])
        assert len(recs) == 4 and len(calls) == 2
        assert {(r.map_id, r.frac_a) for r in recs} == {
            (m.map_id, classify(m.grid).fracA) for m in maps}

    def test_failures_recorded_not_raised(self):
        maps = synth_map_set(1, [(8, 6, 2.0)])
        bad = BenchSolver(name="boom", algorithm="nope")
        recs = run_matrix(maps, [bad])
        assert len(recs) == 1 and not recs[0].solved and "ValueError" in recs[0].error


class TestProfile:
    def test_two_solver_hand_case(self):
        records = [
            fake_record("p1", "A", True, 10.0),
            fake_record("p1", "B", True, 20.0),
        ]
        prof = profile(records, ["A", "B"], metric="wall_time")
        assert prof.points["A"] == [(1.0, 1.0)]
        assert prof.points["B"] == [(2.0, 1.0)]
        assert prof.value_at("A", 1.0) == 1.0
        assert prof.value_at("B", 1.9) == 0.0
        assert prof.value_at("B", 2.0) == 1.0

    def test_unsolved_everywhere_excluded(self):
        records = [
            fake_record("p1", "A", True, 10.0),
            fake_record("p1", "B", True, 30.0),
            fake_record("p2", "A", False, 5.0),
            fake_record("p2", "B", False, 5.0),
        ]
        prof = profile(records, ["A", "B"], metric="wall_time")
        # p2 is dropped: fractions are over one problem, not two
        assert prof.points["A"] == [(1.0, 1.0)]
        assert prof.points["B"] == [(3.0, 1.0)]

    def test_all_fail_solver_flat_zero(self):
        records = [
            fake_record("p1", "A", True, 10.0),
            fake_record("p1", "B", False, 10.0),
        ]
        prof = profile(records, ["A", "B"], metric="wall_time")
        assert prof.points["B"] == []
        assert prof.value_at("B", 100.0) == 0.0

    def test_single_solver_fraction(self):
        records = [
            fake_record("p1", "A", True, 10.0),
            fake_record("p2", "A", False, 10.0),
            fake_record("p3", "A", True, 30.0),
        ]
        prof = profile(records, ["A"], metric="wall_time")
        # p2 excluded entirely (unsolved by every listed solver)
        assert prof.value_at("A", 1.0) == 1.0

    def test_fractions_monotone(self):
        records = [
            fake_record("p1", "A", True, 10.0),
            fake_record("p2", "A", True, 25.0),
            fake_record("p1", "B", True, 12.0),
            fake_record("p2", "B", True, 20.0),
        ]
        prof = profile(records, ["A", "B"], metric="wall_time")
        for pts in prof.points.values():
            fracs = [f for _, f in pts]
            assert fracs == sorted(fracs)
            assert all(0.0 <= f <= 1.0 for f in fracs)

    def test_empty_records_error(self):
        with pytest.raises(ValueError):
            profile([], ["A"])

    def test_profile_csv(self, tmp_path):
        prof = profile([fake_record("p1", "A", True, 10.0)], ["A"], metric="wall_time")
        p = tmp_path / "prof.csv"
        profile_to_csv(prof, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "solver,tau,fraction"
        assert lines[1] == "A,1.0,1.0"


class TestExpansionOrdering:
    def test_hr_astar_dijkstra_monotone(self, model):
        from corridor.terrain import synth_terrain
        g = synth_terrain(17, 18, 10, 4.0)
        src, dst = (0, 5), (17, 5)
        mask = simple_height_mask(g, 1.0, 3)
        s_base, s_astar, s_hr = SearchStats(), SearchStats(), SearchStats()
        dijkstra(g, model, None, src, dst, stats=s_base)
        astar(g, model, None, src, dst, stats=s_astar)
        astar(g, model, mask, src, dst, stats=s_hr)
        assert s_hr.expansions <= s_astar.expansions <= s_base.expansions


class TestTerrainTable:
    def test_schema(self):
        maps = synth_map_set(3, [(12, 8, 5.0), (16, 8, 20.0)])
        rows = terrain_table(maps)
        assert [list(r.keys()) for r in rows] == [["Dim x", "Dim y", "Dim z", "A", "B", "C"]] * 2
        assert rows[0]["Dim x"] == 12
        for r in rows:
            assert r["A"] + r["B"] + r["C"] in (99, 100, 101)  # rounded percentages
