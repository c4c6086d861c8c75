"""Five algorithms that return up to k near-optimal, spatially-dissimilar paths.

All of them share the same outer contract: paths are valid oriented grid
paths, the cheapest one is the engine optimum, no path costs more than
``max_diff`` percent over it, and every pair differs by at least ``min_diff``
percent of projected area.  A result is *solved* only when all three hold with
exactly k paths.

The algorithms:

``se``      cut a wall through the most cost-sensitive edge of the last path
            and re-search, restoring the wall when the cut fails;
``ipa``     additive decaying corridor penalties around accepted paths, with a
            bracketed penalty-width adjustment;
``kspa``    one multi-label sweep keeping up to k mutually-dissimilar
            labels per augmented vertex;
``bds``     consume meet paths of the bidirectional engine, maintaining the
            accepted set with add/replace/reject rules;
``hybrid``  bidirectional multi-label growth (ka labels per vertex each side)
            with the same selection rules as ``bds``; ka=1 reduces to it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .cost import CostModel, EdgeCoster
from .dissimilarity import (
    AreaConfig,
    Outcome,
    Profile,
    accept,
    area_diff,
    assert_pairwise_dissimilar,
    cost_bar,
    pairwise_areas,
)
# perfbench/tracing.py rebinds the successor functions here too, so they stay imported.
from .graph import AugVertex, rev_successors3do, successors3do
from .search import (
    CellFilter,
    CellPenalty,
    Path,
    SearchStats,
    _LabelSide,
    _ground_cell,
    _settles,
    astar,
    bidi_engine,
    dijkstra,
)
from .terrain import DIR8, TerrainGrid


@dataclass
class MultipathConfig:
    """Targets and per-algorithm knobs; defaults ask for k=3 corridors with
    12% minimum area difference and 10% cost headroom over the optimum."""

    k: int = 3
    min_diff: float = 12.0
    max_diff: float = 10.0
    algorithm: str = "bds"
    penalty_width: float = 10.0
    penalty_max: float = 320.0
    ka: int = 2                        # labels per vertex per side (hybrid)
    timeout: float = 300.0
    use_astar: bool = False
    label_cap: int = 2_000_000

    def __post_init__(self):
        # Written so that NaN fails each check.
        if self.k <= 1:
            raise ValueError("k must exceed 1")
        if not self.min_diff >= 0:
            raise ValueError("min_diff must be >= 0")
        if not self.max_diff >= 0:
            raise ValueError("max_diff must be >= 0")
        if not self.penalty_width > 0:
            raise ValueError("penalty_width must be positive")
        if not self.penalty_max > self.penalty_width:
            raise ValueError("penalty_max must exceed penalty_width")
        if not self.timeout >= 0:
            raise ValueError("timeout must be >= 0")
        if self.ka < 1:
            raise ValueError("ka must be >= 1")
        if self.label_cap < 1:
            raise ValueError("label_cap must be >= 1")


@dataclass
class MultipathResult:
    algorithm: str
    paths: list[Path]
    optimal_cost: Optional[float]
    cost_ratios: list[float]
    area_matrix: list[list[float]]
    solved: bool
    expansions: int = 0
    iterations: int = 0
    peak_labels: int = 0
    incomplete: bool = False


def sensitivity_width(min_diff_percent: float, map_width_cells: int) -> int:
    """Wall half-width from the dissimilarity target and the map width."""
    return max(1, int(math.floor(min_diff_percent / 100.0 * map_width_cells)))


def sensitivity(path: Path, grid: TerrainGrid, w: int) -> list[float]:
    """Per-edge sensitivity: how much the ground varies to the sides.

    For each edge's head vertex, elevation differences between the vertex and
    its w offsets perpendicular to the incoming heading are collected on each
    side; the two sums of absolute differences are multiplied, so edges that
    are sensitive on both sides rank first.  Off-map offsets contribute 0.
    """
    if w < 1:
        raise ValueError("sensitivity width must be >= 1")
    z = grid.z
    scores = []
    for head in path.vertices[1:]:
        z0 = float(z[head.y, head.x])
        sums = [sum(abs(float(z[y, x]) - z0) for x, y in cells) for cells in _lateral_cells(grid, head, w)]
        scores.append(sums[0] * sums[1])
    return scores


def _lateral_cells(grid: TerrainGrid, head: AugVertex, w: int) -> list[list[tuple[int, int]]]:
    """The on-map cells 1..w steps to the left and to the right of ``head``'s heading."""
    sides = []
    for dx, dy in (DIR8[(head.h + 2) % 8], DIR8[(head.h - 2) % 8]):
        cells = [(head.x + d * dx, head.y + d * dy) for d in range(1, w + 1)]
        sides.append([(x, y) for x, y in cells if 0 <= x < grid.nx and 0 <= y < grid.ny])
    return sides


class _Solve:
    """What every search of one solve shares, and how the solve ends: the
    counters, the ``EdgeCoster`` price memo, the limits, the endpoints'
    :class:`AreaConfig` and the iteration count.  The searches and area
    functions are looked up as module globals at each call, because
    perfbench/tracing.py rebinds them."""

    def __init__(self, algorithm: str, grid: TerrainGrid, model: CostModel, mask, src, dst, cfg: MultipathConfig):
        self.algorithm, self.grid, self.model, self.mask = algorithm, grid, model, mask
        self.src, self.dst, self.cfg = src, dst, cfg
        self.stats = SearchStats()
        self.coster = EdgeCoster(grid, model)
        self.deadline = time.monotonic() + cfg.timeout
        self.iterations = 0
        d = math.hypot((dst[0] - src[0]) * grid.dxy, (dst[1] - src[1]) * grid.dxy)
        self.acfg = AreaConfig(min_diff=cfg.min_diff, map_width=grid.width_m,
                               endpoint_distance=max(d, grid.dxy), dxy=grid.dxy)

    def search(self, **kwargs) -> Optional[Path]:
        """One A* or Dijkstra query, as ``use_astar`` says, under the shared
        counters, memo and limits; ``kwargs`` adds a filter or a penalty.
        Each query is one iteration."""
        self.iterations += 1
        searcher = astar if self.cfg.use_astar else dijkstra
        return searcher(self.grid, self.model, self.mask, self.src, self.dst, stats=self.stats,
                        coster=self.coster, deadline=self.deadline, label_cap=self.cfg.label_cap, **kwargs)

    def result(self, paths: list[Path], opt_cost: Optional[float]) -> MultipathResult:
        """Price and sort ``paths`` and judge them against the three criteria."""
        cfg, stats = self.cfg, self.stats
        for p in paths:
            p.price(self.coster)
        paths = sorted(paths, key=lambda p: (p.total_cost, tuple(p.vertices)))
        ratios = [p.total_cost / opt_cost for p in paths] if opt_cost else []
        matrix = pairwise_areas(paths, self.acfg)
        solved = (
            not stats.incomplete
            and opt_cost is not None
            and len(paths) == cfg.k
            and abs(paths[0].total_cost - opt_cost) <= 1e-9 * max(1.0, opt_cost)
            and all(p.total_cost <= cost_bar(opt_cost, cfg.max_diff) for p in paths)
            and all(
                matrix[i][j] >= cfg.min_diff - 1e-9
                for i in range(len(paths))
                for j in range(i + 1, len(paths))
            )
        )
        return MultipathResult(
            algorithm=self.algorithm, paths=paths, optimal_cost=opt_cost, cost_ratios=ratios,
            area_matrix=matrix, solved=solved, expansions=stats.expansions, iterations=self.iterations,
            peak_labels=stats.peak_labels, incomplete=stats.incomplete,
        )


# ---------------------------------------------------------------------------
# Sensitive elimination
# ---------------------------------------------------------------------------


def _wall_positions(grid: TerrainGrid, head: AugVertex, w: int) -> set[tuple[int, int]]:
    left, right = _lateral_cells(grid, head, w)
    return {(head.x, head.y), *left, *right}


def run_se(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Wall-cutting search: remove the most sensitive stretch of the previous
    path and re-run the engine; failed cuts are restored and the next most
    sensitive untried edge is cut instead.  Stops early once a candidate is
    too expensive, since later candidates only get costlier."""
    run = _Solve("se", grid, model, mask, src, dst, cfg)
    w = sensitivity_width(cfg.min_diff, grid.ny)

    blocked: set[tuple[int, int]] = set()
    walls: list[set[tuple[int, int]]] = []

    opt = run.search()
    if opt is None:
        return run.result([], None)
    paths = [opt]
    bar = cost_bar(opt.total_cost, cfg.max_diff)

    cuts = None  # edges of the last accepted path, most sensitive first
    while len(paths) < cfg.k:
        if cuts is None:
            scores = sensitivity(paths[-1], grid, w)
            cuts = iter(sorted(range(len(scores)), key=lambda i: (-scores[i], i)))
        edge = next(cuts, None)
        if edge is None:
            break
        wall = _wall_positions(grid, paths[-1].vertices[edge + 1], w)
        walls.append(wall)
        blocked.update(wall)
        cand = run.search(edge_filter=CellFilter(grid, blocked))
        if run.stats.incomplete:
            break
        too_costly = cand is not None and cand.total_cost > bar
        if cand is not None and not too_costly and all(area_diff(cand, p, run.acfg) >= cfg.min_diff for p in paths):
            paths.append(cand)
            cuts = None
            continue
        # The cut failed: restore the wall.  A candidate over the bar ends
        # the search, since later candidates only get costlier.
        walls.pop()
        blocked.clear()
        blocked.update(*walls)
        if too_costly:
            break
    return run.result(paths, opt.total_cost)


# ---------------------------------------------------------------------------
# Iterative penalty adaptation
# ---------------------------------------------------------------------------


# The penalty-width bracket stops once upper - lower is narrower than this
# share of the width: bisecting further re-runs whole searches at widths that
# differ only in the last digits.
IPA_TOLERANCE = 1e-3


class IpaBracket:
    """Penalty-width bracket: double while candidates stay too similar, then
    bisect toward whichever bound the last outcome established, until the
    bracket is narrower than ``IPA_TOLERANCE`` times the width."""

    def __init__(self, initial: float, penalty_max: float):
        self.width = initial
        self.penalty_max = penalty_max
        self.lower = 0.0
        self.upper: Optional[float] = None
        self.tried: set[float] = set()

    def step(self, outcome: str) -> bool:
        """Advance the bracket; False means the algorithm must stop."""
        self.tried.add(self.width)
        if outcome == "accepted":
            # Fresh bracket for the next path; only the current width is burnt.
            self.tried = {self.width}
            self.lower, self.upper = 0.0, None
            return True
        if outcome == "expensive":
            self.upper = self.width
            new = 0.5 * (self.lower + self.width)
        elif outcome == "similar":
            self.lower = self.width
            new = 0.5 * (self.width + self.upper) if self.upper is not None else 2.0 * self.width
            if new > self.penalty_max:
                return False
        else:
            raise ValueError(f"unknown outcome {outcome!r}")
        if new in self.tried:
            return False
        if self.upper is not None and self.upper - self.lower < IPA_TOLERANCE * self.width:
            return False
        self.width = new
        return True


def _corridor_penalty(grid: TerrainGrid, paths: list[Path], width_percent: float) -> CellPenalty:
    """Additive triangular surcharge around each accepted path, on every
    move into a column.

    The width knob is a percentage and scales both triangle dimensions: the
    peak equals width% of the path's mean edge cost and the lateral reach
    equals width% of the map width, decaying linearly to zero from the
    path's per-column centerline.  Scaling both together keeps a fixed
    length-to-height ratio while doubling genuinely widens the region a
    candidate must leave to shed the surcharge.
    """
    reach = max(1.0, (width_percent / 100.0) * (grid.ny - 1))
    per_path = []
    for p in paths:
        # The centerline per map column, held at its end values outside the
        # path's x-hull.
        lo, means = Profile.of_path(p.vertices).means()
        ybar = [means[min(max(x - lo, 0), len(means) - 1)] for x in range(grid.nx)]
        peak = (width_percent / 100.0) * (p.total_cost / max(1, len(p.vertices) - 1))
        per_path.append((ybar, peak))

    def surcharge(x: int, y: int) -> float:
        total = 0.0
        for ybar, peak in per_path:
            lateral = abs(y - ybar[x])
            if lateral < reach:
                total += peak * (1.0 - lateral / reach)
        return total

    return CellPenalty(grid, [[surcharge(x, y) for x in range(grid.nx)] for y in range(grid.ny)])


def run_ipa(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Penalize corridors around accepted paths and re-search, adapting the
    penalty width by the bracket rules until k paths are found or the bracket
    is exhausted.  Reported path costs are always un-penalized."""
    run = _Solve("ipa", grid, model, mask, src, dst, cfg)
    opt = run.search()
    if opt is None:
        return run.result([], None)
    paths = [opt]
    bar = cost_bar(opt.total_cost, cfg.max_diff)
    bracket = IpaBracket(cfg.penalty_width, cfg.penalty_max)

    while len(paths) < cfg.k:
        penalty = _corridor_penalty(grid, paths, bracket.width)
        cand = run.search(penalty=penalty)
        if cand is None:  # disconnected, or cut short by a limit
            break
        if cand.total_cost > bar:
            outcome = "expensive"
        elif any(area_diff(cand, p, run.acfg) < cfg.min_diff for p in paths):
            outcome = "similar"
        else:
            outcome = "accepted"
            paths.append(cand)
        if not bracket.step(outcome):
            break
    return run.result(paths, opt.total_cost)


# ---------------------------------------------------------------------------
# Multi-label sweep
# ---------------------------------------------------------------------------


def run_kspa(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Single multi-label sweep from the source, keeping up to k mutually
    dissimilar labels per augmented vertex, until k paths reach the
    destination or every remaining label prices out.  With ``use_astar`` the
    sweep is keyed by the A* potential to the destination, as :func:`astar`
    and the bidirectional engine are."""
    run = _Solve("kspa", grid, model, mask, src, dst, cfg)
    potential = run.coster.astar_potential(mask, dst) if cfg.use_astar else None
    side = _LabelSide(grid, mask, run.coster, src, True, cfg.k, cfg.min_diff, cfg.max_diff, potential)
    goal = run.coster.states.position(*_ground_cell(grid, dst))
    dst_paths: list[Path] = []
    opt_cost: Optional[float] = None

    for _, key, s, label in _settles(side, run.stats, run.deadline, cfg.label_cap):
        # Keys are popped in order, so once one passes the bar every later
        # label reaches the destination too expensive.
        if opt_cost is not None and key > cost_bar(opt_cost, cfg.max_diff):
            break
        if s // 24 == goal:
            cand = Path(vertices=side.chain(label), total_cost=0.0).price(run.coster)
            if opt_cost is None:
                opt_cost = cand.total_cost
            accept(cand, dst_paths, run.acfg, cfg.k, cfg.max_diff, opt_cost)
            if len(dst_paths) >= cfg.k:
                break
    run.iterations = run.stats.expansions  # every settle is one iteration
    return run.result(dst_paths, opt_cost)


# ---------------------------------------------------------------------------
# Bidirectional selection and the hybrid
# ---------------------------------------------------------------------------


def _select_meets(name, grid, model, mask, src, dst, cfg: MultipathConfig, ka: int) -> MultipathResult:
    """Consume the meet paths of a bidirectional engine with ``ka`` labels
    per state and side, keeping up to k paths by the add/replace/reject
    rules; a rejected candidate is never reconsidered, and meets are told
    apart by their chains of int states.  Expansion stops once no future
    meet can be kept, or at the timeout or the label cap: the engine's
    cutoff is the cost bar over the cheapest meet, and once k paths are
    held, no more than the dearest of them, since ``place`` replaces a held
    path only with a cheaper one.  The cutoff's slack still lets meets of
    equal cost through."""
    run = _Solve(name, grid, model, mask, src, dst, cfg)
    engine = bidi_engine(
        grid, model, mask, src, dst, use_ikeda=cfg.use_astar, stats=run.stats, coster=run.coster,
        labels=ka, min_diff=cfg.min_diff, max_diff=cfg.max_diff, deadline=run.deadline, label_cap=cfg.label_cap,
    )
    accepted: list[Path] = []
    seen: set[tuple] = set()
    mu: Optional[float] = None

    def tighten() -> None:
        cutoff = cost_bar(mu, cfg.max_diff)
        if len(accepted) >= cfg.k:
            cutoff = min(cutoff, max(p.total_cost for p in accepted))
        engine.set_cutoff(cutoff)

    for path in engine.events():
        run.iterations += 1
        if mu is None or path.total_cost < mu:
            mu = path.total_cost
            tighten()
        key = path.key()
        if key in seen:
            continue
        seen.add(key)
        if accept(path, accepted, run.acfg, cfg.k, cfg.max_diff, mu).outcome is not Outcome.REJECT:
            assert_pairwise_dissimilar(accepted, run.acfg)
            tighten()
    return run.result(accepted, mu)


def run_bds(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Consume the meet paths of the one-label bidirectional engine."""
    return _select_meets("bds", grid, model, mask, src, dst, cfg, 1)


def run_hybrid(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Bidirectional multi-label growth: each side keeps up to ka labels per
    vertex under the per-vertex dissimilarity rules, meets combine settled
    labels of matching orientation, and up to k paths are selected by the
    same rules as ``bds`` (which this is when ka == 1)."""
    return _select_meets("hybrid", grid, model, mask, src, dst, cfg, cfg.ka)


ALGORITHMS = {
    "se": run_se,
    "ipa": run_ipa,
    "kspa": run_kspa,
    "bds": run_bds,
    "hybrid": run_hybrid,
}


def solve(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Dispatch to the configured algorithm."""
    try:
        fn = ALGORITHMS[cfg.algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}") from None
    return fn(grid, model, mask, src, dst, cfg)
