"""Corridor benchmark: time to k dissimilar corridors, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload lanes --seed 1 --seconds 30 --trace 0

The run builds its maps, times whole rounds of the workload's operations
until the next round would end after ``--seconds`` (always at least one
round), checks every output against `oracle.py`, and prints one JSON object
as its last line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same rounds under `tracing.py` and reports the per-layer metrics.
Details go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One thread per process: numeric libraries read these at import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

K, MIN_DIFF, MAX_DIFF = 3, 12.0, 10.0   # corridors asked for, % area apart, % over optimum
HM, R = 1.0, 3                          # simple height restriction (HR)
HI = 0.5                                # expanding height restriction (EHR) initial band
SETUP_PROBES = 9
LANE_GAP = 4
DATUM_LEVELS = 5
ALGORITHMS = ("se", "ipa", "kspa", "bds", "hybrid")


@dataclass(frozen=True)
class MapSpec:
    name: str
    recipe: tuple           # ("lanes", walls) or ("synth", seed, nx, ny, relief_m)
    src: tuple[int, int]
    dst: tuple[int, int]
    distinct_lanes: bool = False


# Within 10% of the optimum no lane of lanes-9-15 holds two corridors 12%
# apart, so its corridors must take distinct lanes.  The middle lane of
# lanes-9-16 is one cell wider: a corridor along its far edge is 12% apart
# from the straight optimum, so two corridors may share it there.
LANES_A = MapSpec("lanes-9-15", ("lanes", (9, 15)), (0, 12), (52, 12), distinct_lanes=True)
LANES_B = MapSpec("lanes-9-16", ("lanes", (9, 16)), (0, 12), (52, 12))
RELIEF_5 = MapSpec("synth-5-60x30", ("synth", 5, 60, 30, 20.0), (0, 15), (59, 15))
RELIEF_2 = MapSpec("synth-2-40x20", ("synth", 2, 40, 20, 8.0), (0, 10), (39, 10))

# best_reps: best-corridor queries per (map, mask) per round, spread over the
# round.  best_s is their median over the run, so more repetitions read more
# steadily.  relief-best is sized to run four to seven rounds; a lanes or
# relief-k3 round outlasts a run, so those run one round.  bds and hybrid on
# lanes-9-16, and se, bds and hybrid on relief-k3, are left out so that a
# full measurement, 70 runs, ends within 3,420 s (README.md).
WORKLOADS = {
    "lanes": dict(
        maps=(LANES_A, LANES_B), best_reps=12, use_astar=True,
        solves=[(LANES_A, a) for a in ALGORITHMS] + [(LANES_B, a) for a in ("se", "ipa", "kspa")],
    ),
    "relief-best": dict(maps=(RELIEF_5,), best_reps=1, use_astar=True, solves=[]),
    "relief-k3": dict(
        maps=(RELIEF_2,), best_reps=6, use_astar=False,
        solves=[(RELIEF_2, a) for a in ("ipa", "kspa")],
    ),
}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "best_s.hr": "s", "best_s.ehr": "s",
                    "corridors_found": "count", "peak_rss_mb": "MB"}


@dataclass
class Record:
    """One timed operation and what it returned."""

    op: tuple                       # ("best", map, "hr"|"ehr") or ("solve", map, algorithm)
    seconds: float
    paths: list = field(default_factory=list)
    mask: object = None
    incomplete: bool = False
    error: str = ""
    result: object = None


def lane_terrain(corridor, walls, nx=53, ny=24, wall_height=8.0):
    """Flat map split into three lanes by walls that stop LANE_GAP columns
    short of each end (the lane fixture of the test suite)."""
    import numpy as np

    z = np.zeros((ny, nx))
    for y in walls:
        z[y, LANE_GAP:nx - LANE_GAP] = wall_height
    return corridor.TerrainGrid(nx=nx, ny=ny, dxy=10.0, dz=1.0, z=z)


def write_maps(corridor, specs, datum: int) -> dict[str, Path]:
    """Write each map lifted by ``datum`` z levels.  A whole-level lift
    changes no price, corridor or expansion count, so the seed varies the
    program's input files without varying the work they ask for."""
    files = {}
    (OUT / "inputs").mkdir(parents=True, exist_ok=True)
    for spec in specs:
        if spec.recipe[0] == "lanes":
            grid = lane_terrain(corridor, spec.recipe[1])
        else:
            _, seed, nx, ny, relief = spec.recipe
            grid = corridor.synth_terrain(seed, nx, ny, relief)
        grid = corridor.TerrainGrid(nx=grid.nx, ny=grid.ny, dxy=grid.dxy, dz=grid.dz,
                                    z=grid.z + datum * grid.dz)
        files[spec.name] = OUT / "inputs" / f"{spec.name}.grid"
        corridor.save_grid(grid, files[spec.name])
    return files


def cost_model(corridor, spec: MapSpec):
    # Steep earthwork on the lane maps keeps wall crossings uncompetitive.
    if spec.recipe[0] == "lanes":
        return corridor.CostModel(cut_rate=3.0, fill_rate=3.0)
    return corridor.CostModel()


def setup_probes(files) -> list[float]:
    """Cold set-ups in fresh interpreters: import corridor, load every map."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), *map(str, files)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def make_mask(api, grid, model, spec, kind):
    if kind == "hr":
        return api.simple_height_mask(grid, HM, R)
    return api.expanding_height_mask(grid, HI, model.max_grade, spec.src, spec.dst)


def run_op(api, corridor, maps, op, use_astar) -> Record:
    kind, spec, arg = op
    grid, model = maps[spec.name]
    rec = Record(op=op, seconds=0.0)
    t0 = time.perf_counter()
    try:
        if kind == "best":
            rec.mask = make_mask(api, grid, model, spec, arg)
            path = api.astar(grid, model, rec.mask, spec.src, spec.dst)
            rec.paths = [] if path is None else [path]
        else:
            rec.mask = make_mask(api, grid, model, spec, "hr")
            cfg = corridor.MultipathConfig(k=K, min_diff=MIN_DIFF, max_diff=MAX_DIFF,
                                           algorithm=arg, use_astar=use_astar)
            rec.result = api.solve(grid, model, rec.mask, spec.src, spec.dst, cfg)
            rec.paths = rec.result.paths
            rec.incomplete = rec.result.incomplete
    except Exception as exc:  # a failed operation is counted, the run goes on
        rec.error = f"{type(exc).__name__}: {exc}"
    rec.seconds = time.perf_counter() - t0
    return rec


def op_label(op) -> str:
    return f"{op[0]}:{op[1].name}:{op[2]}"


def run_rounds(api, corridor, maps, ops, use_astar, seconds, tr=None) -> list[list[Record]]:
    """Whole rounds of ``ops`` until the next round would end after ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records = []
        for op in ops:
            gc.collect()
            if tr is not None:
                tr.op = op_label(op)
            records.append(run_op(api, corridor, maps, op, use_astar))
        rounds.append(records)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return rounds


# -- checks -------------------------------------------------------------------


def instance_for(oracle, grid, model, spec, mask):
    rates = oracle.Rates(model.paving_rate, model.cut_rate, model.fill_rate, model.road_width)
    return oracle.Instance(grid.z, grid.dxy, grid.dz, rates, mask.z_lo, mask.z_hi, spec.src, spec.dst)


def mask_problems(oracle, grid, kind, mask) -> list[str]:
    """HR must equal the benchmark's own band; EHR must at least hold the
    initial +-HI band around the ground."""
    if kind == "hr":
        lo, hi = oracle.hr_band(grid.z, grid.dz, HM, R)
        if not ((mask.z_lo == lo).all() and (mask.z_hi == hi).all()):
            return ["HR mask differs from the window-extrema band"]
        return []
    import numpy as np

    lo = np.floor((grid.z - HI) / grid.dz + 1e-12)
    hi = np.ceil((grid.z + HI) / grid.dz - 1e-12)
    if not ((mask.z_lo <= lo).all() and (mask.z_hi >= hi).all()):
        return ["EHR mask does not contain the initial band"]
    return []


def check_rounds(maps, rounds) -> tuple[int, int, list[str], float]:
    """Check every record; returns (attempted, failed, problems, pathio seconds)."""
    import oracle

    instances: dict[tuple, tuple] = {}
    verdicts: dict[tuple, list[str]] = {}
    attempted = failed = 0
    problems: list[str] = []
    pathio_s = 0.0
    scratch = OUT / "roundtrip.paths"
    for records in rounds:
        for rec in records:
            attempted += 1
            kind, spec, arg = rec.op
            label = op_label(rec.op)
            if rec.error or rec.incomplete:
                failed += 1
                print(f"failed {label}: {rec.error or 'incomplete'}", file=sys.stderr)
                continue
            grid, model = maps[spec.name]
            mask_kind = arg if kind == "best" else "hr"
            key = (spec.name, mask_kind)
            if key not in instances:
                instances[key] = (rec.mask, instance_for(oracle, grid, model, spec, rec.mask),
                                  mask_problems(oracle, grid, mask_kind, rec.mask))
            mask0, inst, found = instances[key]
            found = list(found)
            if not ((rec.mask.z_lo == mask0.z_lo).all() and (rec.mask.z_hi == mask0.z_hi).all()):
                found.append("mask differs between operations")
            # A repeated operation that returns the same corridors gets the same verdict.
            output = (key, kind, tuple((tuple(p.vertices), tuple(p.edge_costs or ()), p.total_cost)
                                       for p in rec.paths))
            if output not in verdicts:
                verdicts[output] = path_problems(oracle, inst, spec, grid, kind, rec.paths)
            found += verdicts[output]
            if rec.paths:
                t0 = time.perf_counter()
                found += roundtrip(rec, scratch)
                pathio_s += time.perf_counter() - t0
            if found:
                failed += 1
                problems += [f"{label}: {p}" for p in found]
    scratch.unlink(missing_ok=True)
    return attempted, failed, problems, pathio_s / len(rounds)


def path_problems(oracle, inst, spec, grid, kind, paths) -> list[str]:
    """The oracle's checks of one returned corridor set, plus the lane checks."""
    import numpy as np

    as_arrays = [(np.array(p.vertices, dtype=np.int64).reshape(-1, 5), p.edge_costs, p.total_cost)
                 for p in paths]
    found = inst.check_set(as_arrays, 1 if kind == "best" else K, MIN_DIFF, MAX_DIFF)
    if spec.recipe[0] == "lanes" and not found:
        walls = spec.recipe[1]
        lanes = [oracle.lane_of(v, walls, LANE_GAP, grid.nx - 1 - LANE_GAP) for v, _, _ in as_arrays]
        if None in lanes:
            found.append(f"a corridor touches or crosses a wall: lanes {lanes}")
        elif spec.distinct_lanes and len(set(lanes)) != len(lanes):
            found.append(f"corridors share a lane: {lanes}")
    return found


def roundtrip(rec, scratch) -> list[str]:
    """Write the result with pathio and read it back."""
    from corridor.multipath import MultipathResult
    from corridor.pathio import read_path_set, write_path_set

    result = rec.result or MultipathResult(
        algorithm="astar", paths=rec.paths, optimal_cost=rec.paths[0].total_cost,
        cost_ratios=[1.0], area_matrix=[[0.0]], solved=False)
    write_path_set(scratch, result)
    back, _ = read_path_set(scratch)
    if [p.vertices for p in back] != [p.vertices for p in rec.paths]:
        return ["path file does not read back the same vertices"]
    for p, q in zip(back, rec.paths):
        if abs(p.total_cost - q.total_cost) > 1e-9 * max(1.0, q.total_cost):
            return ["path file does not read back the same costs"]
    return []


# -- metrics ------------------------------------------------------------------


def run_figures(rounds) -> dict[str, float]:
    """``solve_s`` and ``corridors_found`` are medians over rounds.
    ``best_s.<mask>`` is the median best-corridor query over all its
    repetitions in the run, summed over the workload's maps."""
    best: dict[tuple, list[float]] = {}
    for records in rounds:
        for rec in records:
            if rec.op[0] == "best":
                best.setdefault(rec.op, []).append(rec.seconds)
    out = {"solve_s": statistics.median(sum(r.seconds for r in records) for records in rounds),
           "corridors_found": statistics.median(sum(len(r.paths) for r in records) for records in rounds)}
    for kind in ("hr", "ehr"):
        out[f"best_s.{kind}"] = sum(statistics.median(t) for op, t in best.items() if op[2] == kind)
    return out


def layer_metrics(tr, rounds, maps, load_s, replayed) -> dict[str, tuple[float, str]]:
    from corridor.graph import z_bounds

    n = len(rounds)
    c = tr.counts

    def per_round(key):
        return c[key] / n

    def ratio(a, b):
        return a / b if b else 0.0

    band_states = 0
    masks = {}
    for rec in rounds[0]:
        if rec.mask is not None:
            mask_kind = rec.op[2] if rec.op[0] == "best" else "hr"
            masks[(rec.op[1].name, mask_kind)] = (maps[rec.op[1].name][0], rec.mask)
    for grid, mask in masks.values():
        for y in range(grid.ny):
            for x in range(grid.nx):
                lo, hi = z_bounds(grid, mask, x, y)
                band_states += 24 * (hi - lo + 1)

    label_s = tr.name_s["solve.kspa"] + tr.name_s["solve.hybrid"]
    m = {
        "terrain.load_s": (load_s, "s"),
        "graph.mask_hr_s": (statistics.median(tr.durations["mask_hr"]), "s"),
        "graph.mask_ehr_s": (statistics.median(tr.durations["mask_ehr"]), "s"),
        "graph.band_states": (band_states, "count"),
        "graph.succ_calls": (per_round("graph.succ_calls"), "count"),
        "graph.succ_per_s": (replayed["graph.succ_per_s"], "1/s"),
        "cost.price_calls": (per_round("cost.price_calls"), "count"),
        "cost.price_computed": (per_round("cost.price_computed"), "count"),
        "cost.memo_hit_ratio": (1.0 - ratio(c["cost.price_computed"], c["cost.price_calls"]), "ratio"),
        "cost.price_cold_per_s": (replayed["cost.price_cold_per_s"], "1/s"),
        "cost.price_warm_per_s": (replayed["cost.price_warm_per_s"], "1/s"),
        "search.queries": (per_round("search.queries"), "count"),
        "search.expansions": (per_round("search.expansions"), "count"),
        "search.settle_per_s": (ratio(c["search.expansions"], tr.self_s["search"]), "1/s"),
        "search.peak_labels": (tr.peaks["search.peak_labels"], "count"),
        "search.meet_events": (per_round("search.meet_events"), "count"),
        "search.self_s": (tr.self_s["search"] / n, "s"),
        "multipath.iterations": (per_round("multipath.iterations"), "count"),
        "multipath.labels_per_s": (ratio(c["multipath.label_settles"], label_s), "1/s"),
        "multipath.self_s": (tr.self_s["multipath"] / n, "s"),
        "dissimilarity.accept_calls": (per_round("dissimilarity.accept_calls"), "count"),
        "dissimilarity.area_calls": (per_round("dissimilarity.area_calls"), "count"),
        "dissimilarity.accept_changed_ratio": (
            ratio(c["dissimilarity.accept_changed"], c["dissimilarity.accept_calls"]), "ratio"),
        "dissimilarity.area_per_s": (replayed["dissimilarity.area_per_s"], "1/s"),
        "dissimilarity.self_s": (tr.self_s["dissimilarity"] / n, "s"),
        "trace.solve_s": (run_figures(rounds)["solve_s"], "s"),
    }
    for alg in ALGORITHMS:
        m[f"multipath.{alg}_s"] = (tr.name_s[f"solve.{alg}"] / n, "s")
    return m


def area_pairs(corridor, maps, records) -> list[tuple]:
    """Corridor pairs on a shared map from one round, for the area replay."""
    by_map: dict[str, list] = {}
    pairs = []
    for rec in records:
        spec = rec.op[1]
        grid = maps[spec.name][0]
        d = math.hypot(spec.dst[0] - spec.src[0], spec.dst[1] - spec.src[1]) * grid.dxy
        cfg = corridor.AreaConfig(min_diff=MIN_DIFF, map_width=grid.width_m,
                                  endpoint_distance=max(d, grid.dxy), dxy=grid.dxy)
        if rec.op[0] == "best":
            by_map.setdefault(spec.name, []).extend((p, cfg) for p in rec.paths)
        else:
            pairs += [(p, q, cfg) for i, p in enumerate(rec.paths) for q in rec.paths[i + 1:]]
    for found in by_map.values():
        pairs += [(p, q, cfg) for i, (p, cfg) in enumerate(found) for q, _ in found[i + 1:]]
    return pairs


def save_json(workload: str, mode: str, payload: dict, spans=None) -> None:
    path = OUT / f"{workload}.json"
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged[mode] = payload
    plain, traced = merged.get("plain"), merged.get("traced")
    if plain and traced:
        merged["trace_overhead"] = (traced["metrics"]["trace.solve_s"]["value"]
                                    / plain["metrics"]["solve_s"]["value"] - 1.0)
    path.write_text(json.dumps(merged, indent=1) + "\n")
    if spans is not None:
        keys = ("layer", "name", "start", "end", "parent", "id", "op")
        (OUT / f"{workload}-spans.json").write_text(json.dumps([dict(zip(keys, s)) for s in spans]) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="lifts every map by seed %% 5 z levels")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "corridor" / "__init__.py").is_file():
        print(f"perfbench: no corridor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import corridor

    wl = WORKLOADS[args.workload]
    files = write_maps(corridor, wl["maps"], args.seed % DATUM_LEVELS)
    setup = [] if args.trace else setup_probes(files.values())

    load_times = []
    for _ in range(1 if not args.trace else 5):
        t0 = time.perf_counter()
        grids = {name: corridor.load_grid(path) for name, path in files.items()}
        load_times.append(time.perf_counter() - t0)
    maps = {spec.name: (grids[spec.name], cost_model(corridor, spec)) for spec in wl["maps"]}

    # A fixed order, since the peak RSS of a process depends on the order in
    # which its operations fragment the heap.  The best-corridor repetitions
    # are spread over the round, so that a slow spell of the machine cannot
    # cover them all.
    reps = wl["best_reps"]
    solves = [("solve", spec, alg) for spec, alg in wl["solves"]]
    ops = []
    for i in range(reps):
        ops += [("best", spec, kind) for spec in wl["maps"] for kind in ("hr", "ehr")]
        ops += solves[i * len(solves) // reps:(i + 1) * len(solves) // reps]

    api = SimpleNamespace(simple_height_mask=corridor.simple_height_mask,
                          expanding_height_mask=corridor.expanding_height_mask,
                          astar=corridor.astar, solve=corridor.solve)
    tr = None
    if args.trace:
        import tracing

        tr = tracing.Tracer()
        with tracing.install(tr):
            rounds = run_rounds(tracing.traced_api(tr, api), corridor, maps, ops, wl["use_astar"],
                                args.seconds, tr)
    else:
        rounds = run_rounds(api, corridor, maps, ops, wl["use_astar"], args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, problems, pathio_s = check_rounds(maps, rounds)
    for p in problems:
        print(f"wrong output: {p}", file=sys.stderr)

    if args.trace:
        replayed = tracing.replay(tr, area_pairs(corridor, maps, rounds[0]))
        values = layer_metrics(tr, rounds, maps, statistics.median(load_times), replayed)
        values["pathio.roundtrip_s"] = (pathio_s, "s")
    else:
        values = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb, **run_figures(rounds)}
        values = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}

    report = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    detail = dict(report, seed=args.seed, seconds=args.seconds, rounds=len(rounds),
                  setup_probes_s=setup, problems=problems,
                  ops=[{"op": op_label(r.op), "seconds": r.seconds, "costs": [p.total_cost for p in r.paths],
                        "error": r.error, "incomplete": r.incomplete} for r in rounds[0]])
    save_json(args.workload, "traced" if args.trace else "plain", detail, tr.spans if tr else None)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
