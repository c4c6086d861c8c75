import json

import pytest

from corridor import CostModel, MultipathConfig, load_grid, save_grid, simple_height_mask
from corridor.bench import BenchSolver
from corridor.cli import _bool, _build, main, parse_config, BENCH_DEFAULTS, MASK_KEYS, SOLVE_DEFAULTS
from corridor.pathio import read_path_set

from conftest import canyon_grid, flat_grid, lane_grid


@pytest.fixture()
def lane_setup(tmp_path):
    grid = lane_grid(nx=51, ny=18, walls=(5, 11), wall_height=8.0)
    grid_path = tmp_path / "lanes.grid"
    save_grid(grid, grid_path)
    cfg = tmp_path / "solve.cfg"
    out = tmp_path / "out"
    cfg.write_text(
        f"grid = {grid_path}\n"
        "src = 0,8\n"
        "dst = 50,8\n"
        "algorithm = bds\n"
        "astar = true\n"
        "cut_rate = 3\n"
        "fill_rate = 3\n"
        "timeout = 120\n"
        f"out_dir = {out}\n"
    )
    return grid, cfg, out


class TestSolve:
    def test_solved_exit_zero_and_files(self, lane_setup, capsys):
        grid, cfg, out = lane_setup
        assert main(["solve", str(cfg)]) == 0
        assert (out / "paths.txt").exists() and (out / "summary.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solved"] is True and len(summary["costs"]) == 3

    def test_emitted_paths_revalidate(self, lane_setup):
        grid, cfg, out = lane_setup
        main(["solve", str(cfg)])
        paths, meta = read_path_set(out / "paths.txt")
        assert meta["solved"] and meta["count"] == len(paths) == 3
        model = CostModel(cut_rate=3.0, fill_rate=3.0)
        mask = simple_height_mask(grid, 1.0, 3)
        for p, declared in zip(paths, meta["costs"]):
            p.validate(grid, model, mask)
            assert p.total_cost == pytest.approx(declared, rel=1e-9)
        assert len(meta["areas"]) == 3

    def test_unsolved_exit_two(self, tmp_path):
        grid_path = tmp_path / "canyon.grid"
        save_grid(canyon_grid(), grid_path)
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(
            f"grid = {grid_path}\n"
            "src = 0,5\ndst = 30,5\n"
            "algorithm = bds\nastar = true\n"
            "cut_rate = 3\nfill_rate = 3\n"
            f"out_dir = {tmp_path / 'out'}\n"
        )
        assert main(["solve", str(cfg)]) == 2

    def test_missing_grid_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("grid = nowhere.grid\nsrc = 0,0\ndst = 5,5\n")
        assert main(["solve", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err

    def test_same_endpoints_rejected(self, tmp_path, lane_setup):
        grid, _, _ = lane_setup
        grid_path = tmp_path / "g.grid"
        save_grid(grid, grid_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"grid = {grid_path}\nsrc = 1,1\ndst = 1,1\n")
        assert main(["solve", str(cfg)]) == 1

    # kb, w and kappa were settings once: hybrid selects k paths, the se
    # wall width follows min_diff and the map width, and kspa keeps k labels.
    @pytest.mark.parametrize("key", ["bogus", "kb", "w", "kappa"])
    def test_unknown_key_rejected(self, tmp_path, key, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"grid = x\nsrc = 0,0\ndst = 1,1\n{key} = 7\n")
        assert main(["solve", str(cfg)]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_unknown_mask_kind_rejected(self, lane_setup, capsys):
        _, cfg, _ = lane_setup
        cfg.write_text(cfg.read_text() + "mask = wat\n")
        assert main(["solve", str(cfg)]) == 1
        assert "unknown mask kind 'wat'" in capsys.readouterr().err

    # min_diff = nan used to run and stop on the accepted-set invariant
    # ("... apart (min nan%)"); max_diff = nan ran and exited 2 with one path.
    @pytest.mark.parametrize("key", ["min_diff", "max_diff"])
    def test_nan_target_rejected(self, lane_setup, key, capsys):
        _, cfg, out = lane_setup
        cfg.write_text(cfg.read_text() + f"{key} = nan\n")
        assert main(["solve", str(cfg)]) == 1
        assert f"{key} must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_boolean_rejected(self, lane_setup, capsys):
        _, cfg, _ = lane_setup
        cfg.write_text(cfg.read_text().replace("astar = true", "astar = ture"))
        assert main(["solve", str(cfg)]) == 1
        assert "is not a boolean" in capsys.readouterr().err

    def test_boolean_spellings(self):
        for value, meaning in (("1", True), ("TRUE", True), ("Yes", True), (" on ", True),
                               ("0", False), ("False", False), ("NO", False), ("off", False)):
            assert _bool(value) is meaning

    def test_hybrid_selects_k_paths_by_default(self, tmp_path):
        grid_path = tmp_path / "flat.grid"
        save_grid(flat_grid(), grid_path)
        cfg = tmp_path / "solve.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"grid = {grid_path}\n"
            "src = 0,8\ndst = 41,8\n"
            "algorithm = hybrid\nk = 2\nmask = none\n"
            f"out_dir = {out}\n"
        )
        assert main(["solve", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solved"] is True and len(summary["costs"]) == 2

    def test_label_cap_cuts_the_search_short(self, lane_setup):
        _, cfg, out = lane_setup
        cfg.write_text(cfg.read_text() + "label_cap = 50\n")
        assert main(["solve", str(cfg)]) == 2
        assert json.loads((out / "summary.json").read_text())["incomplete"] is True

    def test_config_comments_and_defaults(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\ngrid = g.txt  # trailing\n")
        parsed = parse_config(cfg, SOLVE_DEFAULTS)
        assert parsed["grid"] == "g.txt"
        assert parsed["k"] == 3 and parsed["min_diff"] == 12.0
        assert parsed["r"] == 3 and parsed["hm"] == 1.0 and parsed["hi"] == 0.5
        assert parsed["penalty_width"] == 10.0 and parsed["ka"] == 2

    def test_key_counts(self):
        assert len(SOLVE_DEFAULTS) == 23 and len(BENCH_DEFAULTS) == 16

    def test_defaults_are_the_dataclass_defaults(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("grid = g.txt\nsrc = 0,0\ndst = 1,1\n")
        parsed = parse_config(cfg, SOLVE_DEFAULTS)
        # repr tells 3 from 3.0, so each field also keeps its type.
        assert repr(_build(MultipathConfig, parsed)) == repr(MultipathConfig())
        assert repr(_build(CostModel, parsed)) == repr(CostModel())
        band = BenchSolver(name="x", algorithm="bds")
        assert [repr(parsed[key]) for key in MASK_KEYS] == [repr(getattr(band, key)) for key in MASK_KEYS]

    def test_repeated_key_rejected(self, lane_setup, capsys):
        _, cfg, out = lane_setup
        lines = cfg.read_text().count("\n")
        cfg.write_text(cfg.read_text() + "algorithm = se\n")
        assert main(["solve", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:{lines + 1}: algorithm is already set on line 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("line, kind", [("k = 2.5", "an integer"), ("r = x", "an integer"),
                                            ("hi = x", "a number"), ("label_cap =", "an integer")])
    def test_unparsed_value_names_its_key(self, lane_setup, line, kind, capsys):
        _, cfg, out = lane_setup
        lines = cfg.read_text().count("\n")
        cfg.write_text(cfg.read_text() + line + "\n")
        assert main(["solve", str(cfg)]) == 1
        key, value = (s.strip() for s in line.split("="))
        assert f"{cfg}:{lines + 1}: {key} = {value!r} is not {kind}" in capsys.readouterr().err
        assert not out.exists()


class TestTerrainCommands:
    def test_synth_then_classify(self, tmp_path, capsys):
        out = tmp_path / "t.grid"
        assert main(["terrain", "synth", "--seed", "3", "--nx", "20", "--ny", "10",
                     "--relief", "0", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["terrain", "classify", str(out)]) == 0
        text = capsys.readouterr().out.strip()
        assert text == "A=100.0% B=0.0% C=0.0%"

    def test_synth_deterministic_file(self, tmp_path):
        a, b = tmp_path / "a.grid", tmp_path / "b.grid"
        for p in (a, b):
            main(["terrain", "synth", "--seed", "9", "--nx", "15", "--ny", "8",
                  "--relief", "12", "-o", str(p)])
        assert a.read_bytes() == b.read_bytes()

    def test_classify_missing_file(self, capsys):
        assert main(["terrain", "classify", "missing.grid"]) == 1

    def test_classify_rejects_nan_spacing(self, tmp_path, capsys):
        # This file used to classify as A=0.0% B=100.0% C=0.0%.
        grid = tmp_path / "nan.grid"
        grid.write_text("3 2 nan 1.0\n0 1 2\n0 1 2\n")
        assert main(["terrain", "classify", str(grid)]) == 1
        assert "finite" in capsys.readouterr().err


class TestBench:
    def bench_cfg(self, tmp_path, out_name):
        cfg = tmp_path / f"{out_name}.cfg"
        cfg.write_text(
            "maps = synth:21:18:10:3,synth:22:18:10:5\n"
            "solvers = bds+astar,bds+astar+hr\n"
            "timeout = 60\n"
            f"out_dir = {tmp_path / out_name}\n"
        )
        return cfg

    def test_bench_outputs(self, tmp_path, capsys):
        cfg = self.bench_cfg(tmp_path, "out1")
        assert main(["bench", str(cfg)]) == 0
        records = (tmp_path / "out1" / "records.csv").read_text().splitlines()
        assert len(records) == 1 + 4  # header + 2 maps x 2 solvers
        assert "wall_time" not in records[0]  # deterministic mode
        assert (tmp_path / "out1" / "profile.csv").exists()

    def test_bench_byte_identical_reruns(self, tmp_path):
        cfg1 = self.bench_cfg(tmp_path, "outA")
        cfg2 = self.bench_cfg(tmp_path, "outB")
        assert main(["bench", str(cfg1)]) == 0
        assert main(["bench", str(cfg2)]) == 0
        for name in ("records.csv", "profile.csv"):
            a = (tmp_path / "outA" / name).read_bytes()
            b = (tmp_path / "outB" / name).read_bytes()
            assert a == b

    def test_bench_wall_time_mode(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(
            "maps = synth:21:14:8:2\n"
            "solvers = bds+astar\n"
            "deterministic = false\n"
            "timeout = 60\n"
            f"out_dir = {tmp_path / 'outw'}\n"
        )
        assert main(["bench", str(cfg)]) == 0
        header = (tmp_path / "outw" / "records.csv").read_text().splitlines()[0]
        assert "wall_time" in header

    def test_bench_rejects_negative_min_diff(self, tmp_path, capsys):
        # This config used to exit 0 with a ValueError recorded in every cell.
        cfg = self.bench_cfg(tmp_path, "outm")
        cfg.write_text(cfg.read_text() + "min_diff = -1\n")
        assert main(["bench", str(cfg)]) == 1
        assert "min_diff must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "outm").exists()

    def test_bench_rejects_negative_timeout(self, tmp_path, capsys):
        # This config used to exit 0 with no corridor in any cell.
        cfg = self.bench_cfg(tmp_path, "outt")
        cfg.write_text(cfg.read_text().replace("timeout = 60", "timeout = -1"))
        assert main(["bench", str(cfg)]) == 1
        assert "timeout must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "outt").exists()

    def test_bench_unknown_boolean_rejected(self, tmp_path, capsys):
        cfg = self.bench_cfg(tmp_path, "outf")
        cfg.write_text(cfg.read_text() + "deterministic = flase\n")
        assert main(["bench", str(cfg)]) == 1
        assert "is not a boolean" in capsys.readouterr().err
        assert not (tmp_path / "outf").exists()
