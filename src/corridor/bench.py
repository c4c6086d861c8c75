"""Batch experiment driver: algorithm-by-map matrices and performance profiles.

A matrix run pairs every map with every solver configuration, records per-run
outcomes, and never aborts on a single failure.  Profiles report, for each
solver, the fraction of problems solved within a factor tau of the fastest
solver on each problem; problems no solver could handle are dropped from the
denominator.  The default comparison metric is the expansion count, which is
deterministic across runs; wall time is recorded as well and can be selected
for profile computation.

Matrix cells are independent; runs execute sequentially and the record list
is keyed and sorted by (map, config), so merging results from elsewhere stays
deterministic.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

from .cost import CostModel
from .graph import MASK_KINDS, height_mask
from .multipath import ALGORITHMS, MultipathConfig, MultipathResult, solve
from .terrain import TerrainClassBreakdown, TerrainGrid, classify, synth_terrain


@dataclass(frozen=True)
class BenchMap:
    map_id: str
    grid: TerrainGrid
    src: tuple[int, int]
    dst: tuple[int, int]


@dataclass(frozen=True)
class BenchSolver:
    """One matrix column: an algorithm plus optional A* and height-band flags."""

    name: str
    algorithm: str
    use_astar: bool = False
    mask: str = "none"          # none | hr | ehr
    r: int = 3
    hm: float = 1.0
    hi: float = 0.5

    def __post_init__(self):
        if self.mask not in MASK_KINDS:
            raise ValueError(f"unknown mask kind {self.mask!r}")


@dataclass
class ExperimentRecord:
    map_id: str
    dim_x: int
    dim_y: int
    dim_z: int
    frac_a: float
    frac_b: float
    frac_c: float
    solver: str
    algorithm: str
    astar: bool
    hr: bool
    ehr: bool
    wall_time: float
    expansions: int
    peak_labels: int
    solved: bool
    path_costs: tuple[float, ...]
    pairwise_areas: tuple[float, ...]
    error: str = ""


@dataclass
class PerformanceProfile:
    """Per-solver cumulative step functions of solve-ratio versus tau."""

    points: dict[str, list[tuple[float, float]]]

    def value_at(self, solver: str, tau: float) -> float:
        frac = 0.0
        for t, f in self.points[solver]:
            if t <= tau:
                frac = f
            else:
                break
        return frac


SOLVER_MODIFIERS = ("astar", "hr", "ehr")


def make_solver(spec: str, **band) -> BenchSolver:
    """Parse a solver spec like ``bds+astar+hr`` into a BenchSolver; ``band``
    sets its ``r``, ``hm`` and ``hi``.

    Raises ValueError on an unknown algorithm, on a modifier other than
    ``astar``, ``hr`` or ``ehr``, on a repeated modifier and on both masks,
    so no spec can run a different solver under its name."""
    algorithm, *mods = spec.split("+")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"solver spec {spec!r}: unknown algorithm {algorithm!r}")
    unknown = [p for p in mods if p not in SOLVER_MODIFIERS]
    if unknown:
        raise ValueError(f"solver spec {spec!r}: unknown part(s) {', '.join(map(repr, unknown))}")
    if len(set(mods)) < len(mods):
        raise ValueError(f"solver spec {spec!r}: a modifier is repeated")
    if "hr" in mods and "ehr" in mods:
        raise ValueError(f"solver spec {spec!r}: names both masks, hr and ehr")
    mask = "hr" if "hr" in mods else "ehr" if "ehr" in mods else "none"
    return BenchSolver(name=spec, algorithm=algorithm, use_astar="astar" in mods,
                       mask=mask, **band)


def _upper_triangle(matrix: list[list[float]]) -> tuple[float, ...]:
    n = len(matrix)
    return tuple(matrix[i][j] for i in range(n) for j in range(i + 1, n))


def run_cell(
    bmap: BenchMap,
    solver: BenchSolver,
    model: CostModel,
    base_cfg: MultipathConfig,
    breakdown: TerrainClassBreakdown,
) -> ExperimentRecord:
    """Run one (map, solver) cell; mask construction counts toward wall time.
    ``breakdown`` is the map's :func:`classify` result."""
    grid = bmap.grid
    cfg = replace(base_cfg, algorithm=solver.algorithm, use_astar=solver.use_astar)
    t0 = time.perf_counter()
    error = ""
    # A failed cell records the empty result: no paths, unsolved.
    result = MultipathResult(algorithm=solver.algorithm, paths=[], optimal_cost=None,
                             cost_ratios=[], area_matrix=[], solved=False)
    try:
        mask = height_mask(grid, solver.mask, solver.hm, solver.r, solver.hi,
                           model.max_grade, bmap.src, bmap.dst)
        result = solve(grid, model, mask, bmap.src, bmap.dst, cfg)
    except Exception as exc:  # record, never abort the matrix
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return ExperimentRecord(
        map_id=bmap.map_id, dim_x=grid.nx, dim_y=grid.ny, dim_z=grid.n_levels,
        frac_a=breakdown.fracA, frac_b=breakdown.fracB, frac_c=breakdown.fracC,
        solver=solver.name, algorithm=solver.algorithm,
        astar=solver.use_astar, hr=solver.mask == "hr", ehr=solver.mask == "ehr",
        wall_time=wall, expansions=result.expansions, peak_labels=result.peak_labels,
        solved=result.solved,
        path_costs=tuple(p.total_cost for p in result.paths),
        pairwise_areas=_upper_triangle(result.area_matrix),
        error=error,
    )


def run_matrix(
    maps: Sequence[BenchMap],
    solvers: Sequence[BenchSolver],
    model: Optional[CostModel] = None,
    base_cfg: Optional[MultipathConfig] = None,
) -> list[ExperimentRecord]:
    """One record per (map, solver) pair, sorted by that key."""
    model = model if model is not None else CostModel()
    base_cfg = base_cfg if base_cfg is not None else MultipathConfig()
    records = []
    for bmap in maps:
        breakdown = classify(bmap.grid)
        for solver in solvers:
            records.append(run_cell(bmap, solver, model, base_cfg, breakdown))
    records.sort(key=lambda r: (r.map_id, r.solver))
    return records


def profile(
    records: Sequence[ExperimentRecord],
    solvers: Sequence[str],
    metric: str = "expansions",
) -> PerformanceProfile:
    """Cumulative solve-fraction step functions over per-problem best ratios.

    Problems unsolved by every listed solver are excluded from the
    denominator; a solver's unsolved problems contribute an infinite ratio
    and therefore never appear among its breakpoints.
    """
    if not records:
        raise ValueError("empty record set")
    if metric not in ("expansions", "wall_time"):
        raise ValueError(f"unknown metric {metric!r}")
    by_problem: dict[str, dict[str, ExperimentRecord]] = {}
    for rec in records:
        if rec.solver in solvers:
            by_problem.setdefault(rec.map_id, {})[rec.solver] = rec
    included = []
    for map_id, cells in sorted(by_problem.items()):
        if any(rec.solved for rec in cells.values()):
            included.append(map_id)
    n = len(included)
    points: dict[str, list[tuple[float, float]]] = {}
    for solver in solvers:
        ratios = []
        for map_id in included:
            cells = by_problem[map_id]
            best = min(
                getattr(rec, metric)
                for rec in cells.values()
                if rec.solved
            )
            rec = cells.get(solver)
            if rec is not None and rec.solved:
                t = getattr(rec, metric)
                ratios.append(t / best if best > 0 else 1.0)
        ratios.sort()
        pts = []
        solved_count = 0
        for r in ratios:
            solved_count += 1
            if pts and pts[-1][0] == r:
                pts[-1] = (r, solved_count / n)
            else:
                pts.append((r, solved_count / n))
        points[solver] = pts
    return PerformanceProfile(points=points)


# ---------------------------------------------------------------------------
# CSV serialization (plot-ready; parsed back for round-trip checks)
# ---------------------------------------------------------------------------

# Each field type's CSV text and how it reads back.  A column the file leaves
# out (wall_time, in deterministic mode) reads as the empty string.
_CODECS = {
    "str": (str, str),
    "int": (str, int),
    "float": (repr, lambda s: float(s or 0.0)),
    "bool": (lambda v: "1" if v else "0", lambda s: s == "1"),
    "tuple[float, ...]": (lambda v: ";".join(map(repr, v)), lambda s: tuple(float(x) for x in s.split(";") if x)),
}


def records_to_csv(records: Sequence[ExperimentRecord], path, include_wall_time: bool = True) -> None:
    """One column per :class:`ExperimentRecord` field, in field order."""
    cols = [f for f in fields(ExperimentRecord) if include_wall_time or f.name != "wall_time"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(f.name for f in cols)
        out.writerows([_CODECS[f.type][0](getattr(rec, f.name)) for f in cols] for rec in records)


def records_from_csv(path) -> list[ExperimentRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [ExperimentRecord(**{f.name: _CODECS[f.type][1](raw.get(f.name, ""))
                                    for f in fields(ExperimentRecord)})
                for raw in csv.DictReader(fh, restval="")]


def profile_to_csv(prof: PerformanceProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("solver,tau,fraction\n")
        for solver in sorted(prof.points):
            for tau, frac in prof.points[solver]:
                fh.write(f"{solver},{tau!r},{frac!r}\n")


def terrain_table(maps: Sequence[BenchMap]) -> list[dict]:
    """Per-map dimension and terrain-class rows (Dim x, Dim y, Dim z, A, B, C)."""
    rows = []
    for bmap in maps:
        b = classify(bmap.grid)
        rows.append({
            "Dim x": bmap.grid.nx,
            "Dim y": bmap.grid.ny,
            "Dim z": bmap.grid.n_levels,
            "A": round(100.0 * b.fracA),
            "B": round(100.0 * b.fracB),
            "C": round(100.0 * b.fracC),
        })
    return rows


def synth_map_set(seed: int, specs: Sequence[tuple[int, int, float]]) -> list[BenchMap]:
    """Deterministic synthetic maps; endpoints at mid-height of the short edges."""
    maps = []
    for i, (nx, ny, relief) in enumerate(specs):
        grid = synth_terrain(seed + i, nx, ny, relief)
        maps.append(BenchMap(
            map_id=f"synth-{seed + i}-{nx}x{ny}",
            grid=grid,
            src=(0, ny // 2),
            dst=(nx - 1, ny // 2),
        ))
    return maps
