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
``kspa``    one multi-label sweep keeping up to kappa mutually-dissimilar
            labels per augmented vertex;
``bds``     consume meet events of the bidirectional engine, maintaining the
            accepted set with add/replace/reject rules;
``hybrid``  bidirectional multi-label growth (ka labels per vertex each side)
            with the same selection rules as ``bds``; ka=1 reduces to it.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .cost import CostModel, EdgeCoster, astar_heuristic, ikeda_potentials
from .dissimilarity import (
    AreaConfig,
    Outcome,
    accept,
    apply_decision,
    area_diff,
    assert_pairwise_dissimilar,
    pairwise_areas,
)
from .graph import (
    AugVertex,
    HeightMask,
    flip_state,
    ground_z_index,
    rev_successors3do,
    successors3do,
)
from .search import Path, SearchStats, astar, bidi_engine, dijkstra
from .terrain import DIR8, TerrainGrid


@dataclass
class MultipathConfig:
    """Targets and per-algorithm knobs; defaults ask for k=3 corridors with
    12% minimum area difference and 10% cost headroom over the optimum."""

    k: int = 3
    min_diff: float = 12.0
    max_diff: float = 10.0
    algorithm: str = "bds"
    w: Optional[int] = None            # sensitivity width; derived when None
    penalty_width: float = 10.0
    penalty_max: float = 320.0
    kappa: Optional[int] = None        # labels per vertex (kspa); defaults to k
    ka: int = 2                        # labels per vertex per side (hybrid)
    kb: Optional[int] = None           # paths selected (hybrid); defaults to k
    timeout: float = 300.0
    use_astar: bool = False
    label_cap: int = 2_000_000

    def __post_init__(self):
        if self.k <= 1:
            raise ValueError("k must exceed 1")
        if self.w is not None and self.w < 1:
            raise ValueError("sensitivity width must be >= 1")
        if self.ka < 1:
            raise ValueError("ka must be >= 1")
        if self.kappa is not None and self.kappa < 1:
            raise ValueError("kappa must be >= 1")


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
        sums = []
        for side in ((head.h + 2) % 8, (head.h - 2) % 8):
            dx, dy = DIR8[side]
            s = 0.0
            for d in range(1, w + 1):
                x, y = head.x + d * dx, head.y + d * dy
                if 0 <= x < grid.nx and 0 <= y < grid.ny:
                    s += abs(float(z[y, x]) - z0)
            sums.append(s)
        scores.append(sums[0] * sums[1])
    return scores


def _area_config(grid: TerrainGrid, src, dst, min_diff: float) -> AreaConfig:
    d = math.hypot((dst[0] - src[0]) * grid.dxy, (dst[1] - src[1]) * grid.dxy)
    return AreaConfig(
        min_diff=min_diff,
        map_width=grid.width_m,
        endpoint_distance=max(d, grid.dxy),
        dxy=grid.dxy,
    )


def _cost_bar(opt_cost: float, max_diff: float) -> float:
    return (1.0 + max_diff / 100.0) * opt_cost * (1.0 + 1e-12)


def _finalize(
    algorithm: str,
    paths: list[Path],
    opt_cost: Optional[float],
    cfg: MultipathConfig,
    acfg: AreaConfig,
    stats: SearchStats,
    iterations: int,
    coster: Optional[EdgeCoster] = None,
    incomplete: bool = False,
) -> MultipathResult:
    if coster is not None:
        for p in paths:
            p.price(coster)
    paths = sorted(paths, key=lambda p: (p.total_cost, tuple(p.vertices)))
    ratios = [p.total_cost / opt_cost for p in paths] if opt_cost else []
    matrix = pairwise_areas(paths, acfg)
    solved = (
        not incomplete
        and opt_cost is not None
        and len(paths) == cfg.k
        and abs(paths[0].total_cost - opt_cost) <= 1e-9 * max(1.0, opt_cost)
        and all(r <= 1.0 + cfg.max_diff / 100.0 + 1e-12 for r in ratios)
        and all(
            matrix[i][j] >= cfg.min_diff - 1e-9
            for i in range(len(paths))
            for j in range(i + 1, len(paths))
        )
    )
    if solved:
        assert_pairwise_dissimilar(paths, acfg)
    return MultipathResult(
        algorithm=algorithm,
        paths=paths,
        optimal_cost=opt_cost,
        cost_ratios=ratios,
        area_matrix=matrix,
        solved=solved,
        expansions=stats.expansions,
        iterations=iterations,
        peak_labels=stats.peak_labels,
        incomplete=incomplete,
    )


# ---------------------------------------------------------------------------
# Sensitive elimination
# ---------------------------------------------------------------------------


def _wall_positions(grid: TerrainGrid, head: AugVertex, w: int) -> set[tuple[int, int]]:
    cells = {(head.x, head.y)}
    for side in ((head.h + 2) % 8, (head.h - 2) % 8):
        dx, dy = DIR8[side]
        for d in range(1, w + 1):
            x, y = head.x + d * dx, head.y + d * dy
            if 0 <= x < grid.nx and 0 <= y < grid.ny:
                cells.add((x, y))
    return cells


def run_se(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Wall-cutting search: remove the most sensitive stretch of the previous
    path and re-run the engine; failed cuts are restored and the next most
    sensitive untried edge is cut instead.  Stops early once a candidate is
    too expensive, since later candidates only get costlier."""
    deadline = time.monotonic() + cfg.timeout
    stats = SearchStats()
    coster = EdgeCoster(grid, model)
    searcher = astar if cfg.use_astar else dijkstra
    acfg = _area_config(grid, src, dst, cfg.min_diff)
    w = cfg.w if cfg.w is not None else sensitivity_width(cfg.min_diff, grid.ny)

    blocked: set[tuple[int, int]] = set()
    walls: list[set[tuple[int, int]]] = []

    def edge_filter(u: AugVertex, v: AugVertex) -> bool:
        return (v.x, v.y) not in blocked

    def rebuild_blocked():
        blocked.clear()
        for cells in walls:
            blocked.update(cells)

    opt = searcher(grid, model, mask, src, dst, stats=stats, coster=coster)
    iterations = 1
    if opt is None:
        return _finalize("se", [], None, cfg, acfg, stats, iterations, coster)
    paths = [opt]
    bar = _cost_bar(opt.total_cost, cfg.max_diff)

    current = opt
    scores = sensitivity(current, grid, w)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    next_idx = 0
    timed_out = False

    while len(paths) < cfg.k:
        if time.monotonic() > deadline:
            timed_out = True
            break
        if next_idx >= len(order):
            break
        head = current.vertices[order[next_idx] + 1]
        next_idx += 1
        wall = _wall_positions(grid, head, w)
        walls.append(wall)
        blocked.update(wall)
        cand = searcher(grid, model, mask, src, dst, edge_filter=edge_filter, stats=stats, coster=coster)
        iterations += 1
        if cand is None:
            walls.pop()
            rebuild_blocked()
            continue
        if cand.total_cost > bar:
            walls.pop()
            rebuild_blocked()
            break
        if any(area_diff(cand, p, acfg) < cfg.min_diff for p in paths):
            walls.pop()
            rebuild_blocked()
            continue
        paths.append(cand)
        current = cand
        scores = sensitivity(current, grid, w)
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        next_idx = 0
    return _finalize("se", paths, opt.total_cost, cfg, acfg, stats, iterations, coster, incomplete=timed_out)


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


def _corridor_penalty(grid: TerrainGrid, paths: list[Path], width_percent: float):
    """Additive triangular surcharge around each accepted path.

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
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for vtx in p.vertices:
            sums[vtx.x] = sums.get(vtx.x, 0.0) + vtx.y
            counts[vtx.x] = counts.get(vtx.x, 0) + 1
        means = {x: sums[x] / counts[x] for x in sums}
        lo, hi = min(means), max(means)
        peak = (width_percent / 100.0) * (p.total_cost / max(1, len(p.vertices) - 1))
        per_path.append((means, lo, hi, peak))

    def penalty(u: AugVertex, v: AugVertex) -> float:
        total = 0.0
        for means, lo, hi, peak in per_path:
            ybar = means.get(v.x)
            if ybar is None:
                ybar = means[lo] if v.x < lo else means[hi]
            lateral = abs(v.y - ybar)
            if lateral < reach:
                total += peak * (1.0 - lateral / reach)
        return total

    return penalty


def run_ipa(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Penalize corridors around accepted paths and re-search, adapting the
    penalty width by the bracket rules until k paths are found or the bracket
    is exhausted.  Reported path costs are always un-penalized."""
    deadline = time.monotonic() + cfg.timeout
    stats = SearchStats()
    coster = EdgeCoster(grid, model)
    searcher = astar if cfg.use_astar else dijkstra
    acfg = _area_config(grid, src, dst, cfg.min_diff)

    opt = searcher(grid, model, mask, src, dst, stats=stats, coster=coster)
    iterations = 1
    if opt is None:
        return _finalize("ipa", [], None, cfg, acfg, stats, iterations, coster)
    paths = [opt]
    bar = _cost_bar(opt.total_cost, cfg.max_diff)
    bracket = IpaBracket(cfg.penalty_width, cfg.penalty_max)
    timed_out = False

    while len(paths) < cfg.k:
        if time.monotonic() > deadline:
            timed_out = True
            break
        penalty = _corridor_penalty(grid, paths, bracket.width)
        cand = searcher(
            grid, model, mask, src, dst, penalty=penalty, stats=stats, coster=coster
        )
        iterations += 1
        if cand is None:
            break
        if cand.total_cost > bar:
            outcome = "expensive"
        elif any(area_diff(cand, p, acfg) < cfg.min_diff for p in paths):
            outcome = "similar"
        else:
            outcome = "accepted"
            paths.append(cand)
        if not bracket.step(outcome):
            break
    return _finalize("ipa", paths, opt.total_cost, cfg, acfg, stats, iterations, coster, incomplete=timed_out)


# ---------------------------------------------------------------------------
# Multi-label machinery (kspa and the bidirectional hybrid)
# ---------------------------------------------------------------------------


class _Label:
    """A partial path: cost, tip state, parent link and its lateral profile.

    The profile is stored densely over the contiguous x-hull [lo, hi] as
    per-column y sums and visit counts; ``means`` is derived lazily and
    cached, since settled labels are compared against many candidates.
    """

    __slots__ = ("cost", "state", "parent", "alive", "sums", "counts", "lo", "hi", "seq", "means")

    def __init__(self, cost, state, parent, sums, counts, lo, hi, seq):
        self.cost = cost
        self.state = state
        self.parent = parent
        self.alive = True
        self.sums = sums
        self.counts = counts
        self.lo = lo
        self.hi = hi
        self.seq = seq
        self.means = None

    def mean_profile(self) -> list[float]:
        if self.means is None:
            self.means = [s / c for s, c in zip(self.sums, self.counts)]
        return self.means


class _LabelSide:
    """One direction of a multi-label sweep with per-vertex dissimilarity.

    Keeps up to ``cap`` mutually-dissimilar labels per augmented state; a new
    label must price within ``max_diff`` of the state's cheapest label, and it
    either joins, replaces the most expensive, or replaces the single similar
    label it beats.  States on the backward side are stored in reverse
    orientation and advance through the reversed graph.
    """

    def __init__(
        self,
        grid: TerrainGrid,
        mask: Optional[HeightMask],
        coster: EdgeCoster,
        origin: tuple[int, int],
        forward: bool,
        cap: int,
        min_diff: float,
        max_diff: float,
        potential: Optional[Callable[[int, int], float]] = None,
    ):
        self.grid = grid
        self.mask = mask
        self.coster = coster
        self.forward = forward
        self.cap = cap
        self.min_diff = min_diff
        self.max_diff = max_diff
        self.potential = potential
        self.origin = origin
        self.labels: dict[AugVertex, list[_Label]] = {}
        self.settled: dict[AugVertex, list[_Label]] = {}
        self.heap: list = []
        self.alive_count = 0
        self._seq = 0
        ox, oy = origin
        oz = ground_z_index(grid, ox, oy)
        if mask is not None and not mask.admits(ox, oy, oz):
            raise ValueError(f"ground level at {origin} not admissible under mask")
        for h in range(8):
            for v in (-1, 0, 1):
                state = AugVertex(ox, oy, oz, h, v)
                self._push(_Label(0.0, state, None, [float(oy)], [1], ox, ox, self._next_seq()))

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _key(self, label: _Label) -> tuple:
        s = label.state
        c = label.cost + self.potential(s.x, s.y) if self.potential else label.cost
        return (c, s.x, s.y, s.z, s.h, s.v, label.seq)

    def _push(self, label: _Label) -> None:
        self.labels.setdefault(label.state, []).append(label)
        self.alive_count += 1
        heapq.heappush(self.heap, (self._key(label), label))

    def _kill(self, label: _Label) -> None:
        label.alive = False
        self.labels[label.state].remove(label)
        self.alive_count -= 1

    def top_key(self) -> Optional[float]:
        return self.heap[0][0][0] if self.heap else None

    def pop_settle(self) -> Optional[_Label]:
        while self.heap:
            _, label = heapq.heappop(self.heap)
            if label.alive:
                self.settled.setdefault(label.state, []).append(label)
                return label
        return None

    def _norm_dist(self, state: AugVertex) -> float:
        d = math.hypot(state.x - self.origin[0], state.y - self.origin[1]) * self.grid.dxy
        return max(d, self.grid.dxy)

    def relax(self, label: _Label) -> None:
        succ = successors3do if self.forward else rev_successors3do
        for w in succ(self.grid, label.state, self.mask):
            if self.forward:
                c = self.coster(label.state, w)
            else:
                c = self.coster(w, label.state)
            self._offer(label, w, label.cost + c)

    def _make_label(self, parent: _Label, state: AugVertex, cost: float) -> _Label:
        hx = state.x
        y = float(state.y)
        if hx < parent.lo:
            sums = [y] + parent.sums
            counts = [1] + parent.counts
            lo, hi = hx, parent.hi
        elif hx > parent.hi:
            sums = parent.sums + [y]
            counts = parent.counts + [1]
            lo, hi = parent.lo, hx
        else:
            sums = list(parent.sums)
            counts = list(parent.counts)
            i = hx - parent.lo
            sums[i] += y
            counts[i] += 1
            lo, hi = parent.lo, parent.hi
        return _Label(cost, state, parent, sums, counts, lo, hi, self._next_seq())

    @staticmethod
    def _candidate_means(parent: _Label, head: AugVertex) -> tuple[int, list[float]]:
        hx = head.x
        y = float(head.y)
        ps, pc = parent.sums, parent.counts
        if hx < parent.lo:
            return hx, [y] + parent.mean_profile()
        if hx > parent.hi:
            return parent.lo, parent.mean_profile() + [y]
        means = parent.mean_profile().copy()
        i = hx - parent.lo
        means[i] = (ps[i] + y) / (pc[i] + 1)
        return parent.lo, means

    def _similar(self, cand_lo: int, cand_means: list[float], other: _Label, stop_cells: float) -> bool:
        # True when the area between the candidate and the label stays below
        # the dissimilarity threshold (early exit once it cannot).
        mb = other.mean_profile()
        o_lo = other.lo
        nb1 = len(mb) - 1
        ma = cand_means
        na1 = len(ma) - 1
        lo = min(cand_lo, o_lo)
        hi = max(cand_lo + na1, o_lo + nb1)
        area = 0.0
        for x in range(lo, hi + 1):
            ia = x - cand_lo
            va = ma[0 if ia < 0 else (na1 if ia > na1 else ia)]
            ib = x - o_lo
            vb = mb[0 if ib < 0 else (nb1 if ib > nb1 else ib)]
            d = va - vb
            area += d if d >= 0.0 else -d
            if area >= stop_cells:
                return False
        return True

    def _stop_cells(self, norm: float) -> float:
        dxy = self.grid.dxy
        return self.min_diff * self.grid.width_m * norm / (100.0 * dxy * dxy)

    def _offer(self, parent: _Label, state: AugVertex, cost: float) -> None:
        bucket = self.labels.get(state)
        if not bucket:
            self._push(self._make_label(parent, state, cost))
            return
        cheapest = min(l.cost for l in bucket)
        if cost > _cost_bar(cheapest, self.max_diff):
            return
        stop = self._stop_cells(self._norm_dist(state))
        cand_lo, cand_means = self._candidate_means(parent, state)
        similar = [l for l in bucket if self._similar(cand_lo, cand_means, l, stop)]
        if not similar:
            if len(bucket) < self.cap:
                self._push(self._make_label(parent, state, cost))
            else:
                worst = max(bucket, key=lambda l: (l.cost, l.seq))
                if cost < worst.cost:
                    self._kill(worst)
                    self._push(self._make_label(parent, state, cost))
        elif len(similar) == 1 and cost < similar[0].cost:
            self._kill(similar[0])
            self._push(self._make_label(parent, state, cost))

    def chain(self, label: _Label) -> list[AugVertex]:
        states = []
        l: Optional[_Label] = label
        while l is not None:
            states.append(l.state)
            l = l.parent
        states.reverse()
        return states


def _path_from_vertices(vertices: list[AugVertex], coster: EdgeCoster) -> Path:
    edge_costs = [coster(a, b) for a, b in zip(vertices, vertices[1:])]
    return Path(vertices=vertices, total_cost=math.fsum(edge_costs), edge_costs=edge_costs)


def run_kspa(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Single multi-label sweep from the source, keeping up to kappa mutually
    dissimilar labels per augmented vertex, until k paths reach the
    destination or every remaining label prices out."""
    deadline = time.monotonic() + cfg.timeout

    stats = SearchStats()
    coster = EdgeCoster(grid, model)
    acfg = _area_config(grid, src, dst, cfg.min_diff)
    kappa = cfg.kappa if cfg.kappa is not None else cfg.k
    side = _LabelSide(grid, mask, coster, src, True, kappa, cfg.min_diff, cfg.max_diff)
    dst_x, dst_y = dst
    dst_z = ground_z_index(grid, dst_x, dst_y)
    dst_paths: list[Path] = []
    opt_cost: Optional[float] = None
    iterations = 0
    timed_out = False
    overflow = False

    while side.heap:
        if time.monotonic() > deadline:
            timed_out = True
            break
        if side.alive_count > cfg.label_cap:
            overflow = True
            break
        label = side.pop_settle()
        if label is None:
            break
        iterations += 1
        stats.expansions += 1
        stats.note_labels(side.alive_count)
        if opt_cost is not None and label.cost > _cost_bar(opt_cost, cfg.max_diff):
            break
        s = label.state
        if s.x == dst_x and s.y == dst_y and s.z == dst_z:
            cand = _path_from_vertices(side.chain(label), coster)
            if opt_cost is None:
                opt_cost = cand.total_cost
            decision = accept(cand, dst_paths, acfg, cfg.k, cfg.max_diff, opt_cost)
            apply_decision(cand, dst_paths, decision)
            if len(dst_paths) >= cfg.k:
                break
        side.relax(label)

    return _finalize(
        "kspa", dst_paths, opt_cost, cfg, acfg, stats, iterations, coster,
        incomplete=timed_out or overflow,
    )


# ---------------------------------------------------------------------------
# Bidirectional selection and the hybrid
# ---------------------------------------------------------------------------


def run_bds(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Consume bidirectional meet events, keeping the accepted set by the
    add/replace/reject rules; a rejected candidate is never reconsidered.
    Expansion stops once no future meet can price within the cost bar."""
    deadline = time.monotonic() + cfg.timeout
    stats = SearchStats()
    coster = EdgeCoster(grid, model)
    engine = bidi_engine(
        grid, model, mask, src, dst, use_ikeda=cfg.use_astar, stats=stats, coster=coster
    )
    acfg = _area_config(grid, src, dst, cfg.min_diff)
    accepted: list[Path] = []
    seen: set[tuple] = set()
    mu: Optional[float] = None
    iterations = 0
    timed_out = False
    for event in engine.events():
        if time.monotonic() > deadline:
            timed_out = True
            break
        iterations += 1
        if mu is None or event.total < mu:
            mu = event.total
            engine.set_cutoff((1.0 + cfg.max_diff / 100.0) * mu)
        key = event.path.key()
        if key in seen:
            continue
        seen.add(key)
        decision = accept(event.path, accepted, acfg, cfg.k, cfg.max_diff, mu)
        if apply_decision(event.path, accepted, decision):
            assert_pairwise_dissimilar(accepted, acfg)
    return _finalize(
        "bds", accepted, mu, cfg, acfg, stats, iterations, coster, incomplete=timed_out
    )


def run_hybrid(grid, model, mask, src, dst, cfg: MultipathConfig) -> MultipathResult:
    """Bidirectional multi-label growth: each side keeps up to ka labels per
    vertex under the per-vertex dissimilarity rules, meets combine settled
    labels of matching orientation, and the accepted set follows the same
    selection rules as ``bds`` (which this reduces to when ka == 1)."""
    deadline = time.monotonic() + cfg.timeout
    stats = SearchStats()
    coster = EdgeCoster(grid, model)
    acfg = _area_config(grid, src, dst, cfg.min_diff)
    kb = cfg.kb if cfg.kb is not None else cfg.k
    if cfg.use_astar:
        dxy = grid.dxy
        src_m = (src[0] * dxy, src[1] * dxy)
        dst_m = (dst[0] * dxy, dst[1] * dxy)
        hf = lambda x, y: astar_heuristic(model, (x * dxy, y * dxy), dst_m)
        hb = lambda x, y: astar_heuristic(model, (x * dxy, y * dxy), src_m)
        pf, pb = ikeda_potentials(hf, hb)
    else:
        pf = pb = None
    fwd = _LabelSide(grid, mask, coster, src, True, cfg.ka, cfg.min_diff, cfg.max_diff, potential=pf)
    bwd = _LabelSide(grid, mask, coster, dst, False, cfg.ka, cfg.min_diff, cfg.max_diff, potential=pb)

    accepted: list[Path] = []
    seen: set[tuple] = set()
    mu: Optional[float] = None
    iterations = 0
    timed_out = False
    overflow = False

    def cutoff_bar() -> float:
        if mu is None:
            return math.inf
        return (1.0 + cfg.max_diff / 100.0) * mu * (1.0 + 1e-9) + 1e-9

    def future_bound() -> float:
        bounds = []
        tf = fwd.top_key()
        if tf is not None:
            bounds.append(tf - pf(*dst) if pf else tf)
        tb = bwd.top_key()
        if tb is not None:
            bounds.append(tb + pf(*src) if pf else tb)
        return min(bounds) if bounds else math.inf

    while fwd.heap or bwd.heap:
        if time.monotonic() > deadline:
            timed_out = True
            break
        if fwd.alive_count + bwd.alive_count > cfg.label_cap:
            overflow = True
            break
        if future_bound() > cutoff_bar():
            break
        grow_forward = len(fwd.heap) <= len(bwd.heap) if fwd.heap else False
        if not bwd.heap:
            grow_forward = True
        side, other = (fwd, bwd) if grow_forward else (bwd, fwd)
        label = side.pop_settle()
        if label is None:
            continue
        stats.expansions += 1
        stats.note_labels(fwd.alive_count + bwd.alive_count)
        side.relax(label)
        mates = other.settled.get(flip_state(label.state), ())
        for mate in mates:
            total = label.cost + mate.cost
            if total > cutoff_bar():
                continue
            iterations += 1
            if mu is None or total < mu:
                mu = total
            f_label, b_label = (label, mate) if grow_forward else (mate, label)
            vertices = fwd.chain(f_label) + [flip_state(s) for s in reversed(bwd.chain(b_label))][1:]
            cand = Path(vertices=vertices, total_cost=total, edge_costs=None)
            key = cand.key()
            if key in seen:
                continue
            seen.add(key)
            decision = accept(cand, accepted, acfg, kb, cfg.max_diff, mu)
            if apply_decision(cand, accepted, decision):
                assert_pairwise_dissimilar(accepted, acfg)

    return _finalize(
        "hybrid", accepted, mu, cfg, acfg, stats, iterations, coster,
        incomplete=timed_out or overflow,
    )


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
