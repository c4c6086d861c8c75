"""Command-line entry points.

Commands:

  corridor solve <config>                 solve one instance, emit path set + summary
  corridor bench <config>                 run a benchmark matrix, emit CSVs
  corridor terrain classify <grid>        print terrain class percentages
  corridor terrain synth --seed S --nx N --ny M --relief R -o FILE

Configs are flat ``key = value`` text files; ``#`` starts a comment.  Keys and
defaults are documented in :data:`SOLVE_DEFAULTS` and :data:`BENCH_DEFAULTS`,
which both include :data:`SHARED_DEFAULTS`; a key that sets a field of
:class:`MultipathConfig`, :class:`CostModel` or :class:`BenchSolver` takes the
field's name (``astar`` sets ``use_astar``), type and default.  Each key is set
at most once, and its value is read as its default's type; a boolean is one of
1/0, true/false, yes/no or on/off, in any case.
Exit codes: 0 solved, 2 valid run without a solution, 1 any error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .bench import (
    BenchMap,
    BenchSolver,
    make_solver,
    profile,
    profile_to_csv,
    records_to_csv,
    run_matrix,
    synth_map_set,
)
from .cost import CostModel
from .graph import height_mask
from .multipath import MultipathConfig, solve
from .pathio import write_path_set, write_summary
from .terrain import classify, load_grid, save_grid, synth_terrain

# A field read under another key.
_KEYS = {"use_astar": "astar"}


def _defaults(cls, names=None) -> dict:
    """The defaults of ``cls``'s fields (or of those in ``names``), by key."""
    return {_KEYS.get(f.name, f.name): f.default for f in fields(cls) if names is None or f.name in names}


MASK_KEYS = ("r", "hm", "hi")

# The keys that both ``solve`` and ``bench`` read.
SHARED_DEFAULTS = {
    **_defaults(MultipathConfig, ("k", "min_diff", "max_diff", "timeout")),
    **_defaults(CostModel),
    **_defaults(BenchSolver, MASK_KEYS),
    "out_dir": "out",
}

SOLVE_DEFAULTS = {
    "grid": "",              # path to a grid file (required)
    "src": "",               # "x,y" grid coordinates (required)
    "dst": "",               # "x,y" grid coordinates (required)
    "mask": "hr",            # none | hr | ehr
    **_defaults(MultipathConfig),  # algorithm: se | ipa | kspa | bds | hybrid
    **SHARED_DEFAULTS,
}

BENCH_DEFAULTS = {
    "maps": "",              # comma list: grid paths or synth:SEED:NX:NY:RELIEF
    "solvers": "se,ipa,kspa,bds,hybrid",
    "deterministic": True,   # omit wall times from CSV; profile by expansions
    **SHARED_DEFAULTS,
}

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_KINDS = {bool: "a boolean", int: "an integer", float: "a number"}


def _bool(text: str) -> bool:
    return _BOOLS[text.strip().lower()]


def parse_config(path, defaults: dict) -> dict:
    """``defaults`` with the file's values, each read as its default's type."""
    cfg = dict(defaults)
    seen = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in defaults:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ValueError(f"{path}:{lineno}: {key} is already set on line {seen[key]}")
            seen[key] = lineno
            kind = type(defaults[key])
            try:
                cfg[key] = _bool(value) if kind is bool else kind(value)
            except (KeyError, ValueError):
                raise ValueError(f"{path}:{lineno}: {key} = {value!r} is not {_KINDS[kind]}") from None
    return cfg


def _xy(s: str) -> tuple[int, int]:
    x, y = s.split(",")
    return int(x), int(y)


def _build(cls, cfg: dict):
    """A ``cls`` from the keys of ``cfg`` that name its fields."""
    return cls(**{f.name: cfg[key] for f in fields(cls) if (key := _KEYS.get(f.name, f.name)) in cfg})


def cmd_solve(config_path: str) -> int:
    cfg = parse_config(config_path, SOLVE_DEFAULTS)
    if not cfg["grid"] or not cfg["src"] or not cfg["dst"]:
        raise ValueError("config must set grid, src and dst")
    grid = load_grid(cfg["grid"])
    src = _xy(cfg["src"])
    dst = _xy(cfg["dst"])
    if src == dst:
        raise ValueError("src and dst must differ")
    for x, y in (src, dst):
        if not (0 <= x < grid.nx and 0 <= y < grid.ny):
            raise ValueError(f"endpoint ({x},{y}) outside grid")
    model = _build(CostModel, cfg)
    mask = height_mask(grid, cfg["mask"], cfg["hm"], cfg["r"], cfg["hi"], model.max_grade, src, dst)
    result = solve(grid, model, mask, src, dst, _build(MultipathConfig, cfg))
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    write_path_set(os.path.join(out_dir, "paths.txt"), result)
    write_summary(os.path.join(out_dir, "summary.json"), result, extra={
        "grid": cfg["grid"], "src": list(src), "dst": list(dst), "mask": cfg["mask"],
    })
    print(f"{result.algorithm}: {'solved' if result.solved else 'unsolved'}"
          f" paths={len(result.paths)} expansions={result.expansions}")
    return 0 if result.solved else 2


def _parse_maps(spec: str) -> list[BenchMap]:
    maps = []
    for i, item in enumerate(s.strip() for s in spec.split(",") if s.strip()):
        if item.startswith("synth:"):
            _, seed, nx, ny, relief = item.split(":")
            maps.extend(synth_map_set(int(seed), [(int(nx), int(ny), float(relief))]))
        else:
            grid = load_grid(item)
            name = os.path.splitext(os.path.basename(item))[0]
            maps.append(BenchMap(
                map_id=f"{name}-{i}",
                grid=grid,
                src=(0, grid.ny // 2),
                dst=(grid.nx - 1, grid.ny // 2),
            ))
    if not maps:
        raise ValueError("bench config lists no maps")
    return maps


def cmd_bench(config_path: str) -> int:
    cfg = parse_config(config_path, BENCH_DEFAULTS)
    deterministic = cfg["deterministic"]
    maps = _parse_maps(cfg["maps"])
    band = {key: cfg[key] for key in MASK_KEYS}
    solvers = [make_solver(s.strip(), **band) for s in cfg["solvers"].split(",") if s.strip()]
    records = run_matrix(maps, solvers, _build(CostModel, cfg), _build(MultipathConfig, cfg))
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    records_to_csv(records, os.path.join(out_dir, "records.csv"),
                   include_wall_time=not deterministic)
    metric = "expansions" if deterministic else "wall_time"
    prof = profile(records, [s.name for s in solvers], metric=metric)
    profile_to_csv(prof, os.path.join(out_dir, "profile.csv"))
    solved = sum(1 for r in records if r.solved)
    print(f"bench: {len(records)} runs, {solved} solved -> {out_dir}/records.csv")
    return 0


def cmd_terrain_classify(grid_path: str) -> int:
    b = classify(load_grid(grid_path))
    print(f"A={100 * b.fracA:.1f}% B={100 * b.fracB:.1f}% C={100 * b.fracC:.1f}%")
    return 0


def cmd_terrain_synth(seed: int, nx: int, ny: int, relief: float, out: str) -> int:
    save_grid(synth_terrain(seed, nx, ny, relief), out)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="corridor",
                                     description="dissimilar road-corridor selection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance from a config file")
    p_solve.add_argument("config")

    p_bench = sub.add_parser("bench", help="run a benchmark matrix from a config file")
    p_bench.add_argument("config")

    p_terrain = sub.add_parser("terrain", help="terrain utilities")
    tsub = p_terrain.add_subparsers(dest="terrain_command", required=True)
    p_cls = tsub.add_parser("classify", help="print terrain class percentages")
    p_cls.add_argument("grid")
    p_syn = tsub.add_parser("synth", help="write a synthetic terrain grid")
    p_syn.add_argument("--seed", type=int, required=True)
    p_syn.add_argument("--nx", type=int, required=True)
    p_syn.add_argument("--ny", type=int, required=True)
    p_syn.add_argument("--relief", type=float, required=True)
    p_syn.add_argument("-o", "--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.config)
        if args.command == "bench":
            return cmd_bench(args.config)
        if args.command == "terrain":
            if args.terrain_command == "classify":
                return cmd_terrain_classify(args.grid)
            return cmd_terrain_synth(args.seed, args.nx, args.ny, args.relief, args.out)
        raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
