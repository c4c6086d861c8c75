"""Record a parent commit's and a change's benchmark figures in one JSON file.

Run from the repository root, with a checkout of each commit:

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR -o BENCH_<n>.json

For each workload of ``perfbench/run.py`` it makes ``PAIRS`` pairs of
plain runs (``--trace 0``, with ``SEED`` and ``SECONDS``), one per
checkout, alternating which side runs first, and records each side's
median and quartiles per end-to-end metric, with every run's ``correct``
flag and failure count.  Then it solves the
cases of :func:`counts` with ``bds``, ``hybrid`` and ``kspa``, A* on and
off, and with ``se`` and ``ipa``, A* on, and runs the benchmark's
best-corridor ``astar`` query per map and mask, all with each checkout's
library.  It records the deterministic counts (expansions, iterations, peak
labels), the solved flag, the path costs, a digest of each returned vertex
list and the CPU seconds of each.  Last it measures the one-label and the
label-side settle rates of each checkout (:func:`settle_rate`), alternating
the two, and keeps the best of ``RATE_RUNS`` per figure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lanes", "relief-best", "relief-k3")
PAIRS = 10  # a gain must show in nine of ten pairs
SEED = 1
SECONDS = 30
COUNTED = ("bds", "hybrid", "kspa")
GUIDED = ("se", "ipa")  # A* re-searches: each query starts unguided by the planar field
RATE_RUNS = 3
# One-label settle rates: HR Dijkstra on relief-best's map and on a 100x50 map.
RATE_MAPS = {"synth-5-60x30": ((5, 60, 30, 20.0), (0, 15), (59, 15)),
             "synth-3-100x50": ((3, 100, 50, 20.0), (0, 25), (99, 25))}
# The label-side settle rate: unguided kspa with HR 1/3 on relief-k3's map.
LABEL_MAP = ("synth-2-40x20", (2, 40, 20, 8.0), (0, 10), (39, 10))


def digest(path) -> str:
    """A short hash of a path's vertex list, as plain (x, y, z, h, v) tuples."""
    return hashlib.sha256(repr([tuple(v) for v in path.vertices]).encode()).hexdigest()[:16]


def counts(checkout: str) -> dict:
    """Solve every counted case with the library under ``checkout``/src, on
    the benchmark's four maps with HR 1/3, and on ``lanes-9-15`` with HR 1/1,
    and run each map's best-corridor queries as the benchmark does."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(ROOT, "perfbench")]
    import corridor
    import run as bench

    def setting(spec):
        kind, *recipe = spec.recipe
        grid = bench.lane_terrain(corridor, *recipe) if kind == "lanes" else corridor.synth_terrain(*recipe)
        return grid, bench.cost_model(corridor, spec)

    out = {}
    for spec in (bench.LANES_A, bench.LANES_B, bench.RELIEF_2, bench.RELIEF_5):
        grid, model = setting(spec)
        for kind in ("hr", "ehr"):
            stats = corridor.SearchStats()
            t0 = time.process_time()
            path = corridor.astar(grid, model, bench.make_mask(corridor, grid, model, spec, kind),
                                  spec.src, spec.dst, stats=stats)
            out[f"{spec.name}/{kind}/best"] = dict(
                expansions=stats.expansions, costs=[repr(path.total_cost)], paths=[digest(path)],
                cpu_s=round(time.process_time() - t0, 3),
            )
    cases = [(bench.LANES_A, 3), (bench.LANES_B, 3), (bench.LANES_A, 1), (bench.RELIEF_2, 3), (bench.RELIEF_5, 3)]
    for spec, r in cases:
        grid, model = setting(spec)
        mask = corridor.simple_height_mask(grid, 1.0, r)
        for use_astar in (True, False):
            for alg in COUNTED + (GUIDED if use_astar else ()):
                cfg = corridor.MultipathConfig(algorithm=alg, use_astar=use_astar)
                t0 = time.process_time()
                res = corridor.solve(grid, model, mask, spec.src, spec.dst, cfg)
                out[f"{spec.name}/hr{r}/{alg}/{'astar' if use_astar else 'plain'}"] = dict(
                    expansions=res.expansions, iterations=res.iterations, peak_labels=res.peak_labels,
                    solved=res.solved, costs=[repr(p.total_cost) for p in res.paths],
                    paths=[digest(p) for p in res.paths],
                    cpu_s=round(time.process_time() - t0, 3),
                )
    return out


def settle_rate(checkout: str) -> dict:
    """Per map of ``RATE_MAPS``: settles per CPU second of one HR Dijkstra
    query on a cold price memo, and of the same query again on the memo it
    filled (warm).  On ``LABEL_MAP``: settles per CPU second of one unguided
    ``kspa`` solve, whose single multi-label side does every settle."""
    sys.path[:0] = [os.path.join(checkout, "src")]
    import corridor

    name, recipe, src, dst = LABEL_MAP
    grid = corridor.synth_terrain(*recipe)
    mask = corridor.simple_height_mask(grid, 1.0, 3)
    cfg = corridor.MultipathConfig(algorithm="kspa", use_astar=False)
    t0 = time.process_time()
    res = corridor.solve(grid, corridor.CostModel(), mask, src, dst, cfg)
    out = {f"{name}/kspa": res.expansions / (time.process_time() - t0), f"{name}/kspa_settles": res.expansions}
    for name, (recipe, src, dst) in RATE_MAPS.items():
        grid = corridor.synth_terrain(*recipe)
        model = corridor.CostModel()
        mask = corridor.simple_height_mask(grid, 1.0, 3)
        coster = corridor.EdgeCoster(grid, model)
        for memo in ("cold", "warm"):
            stats = corridor.SearchStats()
            t0 = time.process_time()
            corridor.dijkstra(grid, model, mask, src, dst, stats=stats, coster=coster)
            out[f"{name}/{memo}"] = stats.expansions / (time.process_time() - t0)
        out[f"{name}/settles"] = stats.expansions
    return out


def perfbench(checkout: str, workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    """Median and quartiles per metric, with each run's correctness."""
    out = {"runs": len(runs), "correct": [r["correct"] for r in runs], "failed": [r["failed"] for r in runs]}
    for metric in runs[0]["metrics"]:
        values = sorted(r["metrics"][metric]["value"] for r in runs)
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                       "unit": runs[0]["metrics"][metric]["unit"], "values": values}
    return out


def own_process(mode: str, checkout: str) -> dict:
    done = subprocess.run([sys.executable, os.path.abspath(__file__), mode, checkout],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--counts"]:  # one checkout's counts, in a process of its own
        print(json.dumps(counts(argv[1])))
        return 0
    if argv[:1] == ["--rate"]:  # one checkout's settle rates, in a process of its own
        print(json.dumps(settle_rate(argv[1])))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("-o", "--out", required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    record = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
              "command": f"perfbench/run.py --seed {SEED} --seconds {SECONDS} --trace 0",
              "end_to_end": {}, "counts": {}, "settle_rate": {}}
    for workload in WORKLOADS:
        runs = {side: [] for side in sides}
        for i in range(PAIRS):
            for side in (sides if i % 2 == 0 else reversed(sides)):
                runs[side].append(perfbench(sides[side], workload))
                print(workload, side, json.dumps(runs[side][-1]["metrics"]), file=sys.stderr)
        record["end_to_end"][workload] = {side: summary(r) for side, r in runs.items()}
    for side, checkout in sides.items():
        record["counts"][side] = own_process("--counts", checkout)
    rates = {side: [] for side in sides}
    for i in range(RATE_RUNS):
        for side in (sides if i % 2 == 0 else reversed(sides)):
            rates[side].append(own_process("--rate", sides[side]))
    record["settle_rate"] = {side: {key: max(r[key] for r in runs) for key in runs[0]}
                             for side, runs in rates.items()}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
