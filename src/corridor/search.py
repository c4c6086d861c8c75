"""Shortest-path engines over the implicit oriented 3D grid graph.

Three engines share the same contract: :func:`dijkstra`, :func:`astar` and the
:class:`BidiEngine` (bidirectional search exposing settled meeting states as a
stream of events).  All of them

  * seed the source position with all 24 (h, v) orientations at cost 0 and
    accept any orientation at the destination,
  * break priority ties lexicographically on (x, y, z, h, v) so runs are
    reproducible,
  * use a binary heap with lazy deletion (stale entries are skipped on pop).

Engine state lives entirely inside one call, so any number of queries may run
concurrently over the same immutable grid, model and mask.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .cost import CostModel, EdgeCoster, astar_heuristic, ikeda_potentials
from .graph import (
    AugVertex,
    HeightMask,
    flip_state,
    ground_z_index,
    rev_successors3do,
    successors3do,
)
from .terrain import TerrainGrid

EdgeFilter = Callable[[AugVertex, AugVertex], bool]
EdgePenalty = Callable[[AugVertex, AugVertex], float]


@dataclass
class SearchStats:
    """Counters exported for benchmarking: settles and peak stored labels."""

    expansions: int = 0
    peak_labels: int = 0
    settle_keys: list = field(default_factory=list)
    record_settles: bool = False

    def note_labels(self, count: int) -> None:
        if count > self.peak_labels:
            self.peak_labels = count


@dataclass
class Path:
    """An oriented vertex sequence with its cost breakdown.

    ``edge_costs`` may be None on transient candidate paths (the engines
    defer pricing until a path is actually kept); call :meth:`price` to
    fill them in.  Every path handed out of the solvers is fully priced.
    """

    vertices: list[AugVertex]
    total_cost: float
    edge_costs: Optional[list[float]] = None

    def key(self) -> tuple:
        return tuple(self.vertices)

    def price(self, coster: EdgeCoster) -> "Path":
        """Fill per-edge costs and tighten total_cost to their exact sum."""
        if self.edge_costs is None:
            self.edge_costs = [coster(a, b) for a, b in zip(self.vertices, self.vertices[1:])]
            self.total_cost = math.fsum(self.edge_costs)
        return self

    def validate(self, grid: TerrainGrid, model: CostModel, mask: Optional[HeightMask] = None) -> None:
        """Assert connectivity, cost additivity and endpoint sanity."""
        assert self.vertices, "empty path"
        assert self.edge_costs is not None, "path has not been priced"
        assert len(self.edge_costs) == len(self.vertices) - 1
        coster = EdgeCoster(grid, model)
        total = 0.0
        for i, (u, w) in enumerate(zip(self.vertices, self.vertices[1:])):
            assert w in successors3do(grid, u, mask), f"edge {u} -> {w} not a legal move"
            c = coster(u, w)
            assert abs(c - self.edge_costs[i]) <= 1e-9 * max(1.0, abs(c))
            total += self.edge_costs[i]
        assert abs(total - self.total_cost) <= 1e-9 * max(1.0, abs(total))


def _seed_states(grid, mask, xy) -> list[AugVertex]:
    x, y = xy
    z = ground_z_index(grid, x, y)
    if mask is not None and not mask.admits(x, y, z):
        raise ValueError(f"ground level at {xy} not admissible under mask")
    return [AugVertex(x, y, z, h, v) for h in range(8) for v in (-1, 0, 1)]


def _extract(parent, end_state, coster) -> Path:
    chain = [end_state]
    u = end_state
    while u in parent:
        u = parent[u]
        chain.append(u)
    chain.reverse()
    edge_costs = [coster(a, b) for a, b in zip(chain, chain[1:])]
    return Path(vertices=chain, total_cost=math.fsum(edge_costs), edge_costs=edge_costs)


def _single_source(
    grid: TerrainGrid,
    model: CostModel,
    mask: Optional[HeightMask],
    src: tuple[int, int],
    dst: tuple[int, int],
    edge_filter: Optional[EdgeFilter],
    penalty: Optional[EdgePenalty],
    stats: Optional[SearchStats],
    guided: bool,
    coster: Optional[EdgeCoster],
) -> Optional[Path]:
    if coster is None:
        coster = EdgeCoster(grid, model)
    dst_x, dst_y = dst
    dst_z = ground_z_index(grid, dst_x, dst_y)
    potential: Optional[Callable[[int, int], float]] = None
    switch_at = -1
    if guided:
        rows = coster.astar_potential(mask, dst, build=False)
        if rows is not None:
            potential = lambda x, y: rows[y][x]
        else:
            # Start on the straight-line bound; the planar field pays for
            # itself only once the query has done about as much work.
            dxy = grid.dxy
            dest_m = (dst_x * dxy, dst_y * dxy)
            potential = lambda x, y: astar_heuristic(model, (x * dxy, y * dxy), dest_m)
            switch_at = grid.nx * grid.ny
    dist: dict[AugVertex, float] = {}
    parent: dict[AugVertex, AugVertex] = {}
    settled: set[AugVertex] = set()
    heap: list[tuple[float, AugVertex]] = []
    pot0 = potential(src[0], src[1]) if potential else 0.0
    for s in _seed_states(grid, mask, src):
        dist[s] = 0.0
        heapq.heappush(heap, (pot0, s))
    while heap:
        key, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if stats is not None:
            stats.expansions += 1
            stats.note_labels(len(dist))
            if stats.record_settles:
                stats.settle_keys.append(key)
        if u.x == dst_x and u.y == dst_y and u.z == dst_z:
            return _extract(parent, u, coster)
        if len(settled) == switch_at:
            # Switch to the planar field and re-key the open states.  The new
            # potential is at least the old one, so settle keys stay monotone.
            rows = coster.astar_potential(mask, dst)
            potential = lambda x, y: rows[y][x]
            heap = [(dist[w] + rows[w.y][w.x], w) for w in {w for _, w in heap if w not in settled}]
            heapq.heapify(heap)
        du = dist[u]
        for w in successors3do(grid, u, mask):
            if w in settled:
                continue
            if edge_filter is not None and not edge_filter(u, w):
                continue
            c = coster(u, w)
            if penalty is not None:
                p = penalty(u, w)
                if c + p < 0.0:
                    raise ValueError("negative effective edge weight from penalty")
                c += p
            nd = du + c
            old = dist.get(w)
            if old is None or nd < old:
                dist[w] = nd
                parent[w] = u
                wkey = nd + (potential(w.x, w.y) if potential else 0.0)
                heapq.heappush(heap, (wkey, w))
    return None


def dijkstra(
    grid: TerrainGrid,
    model: CostModel,
    mask: Optional[HeightMask],
    src: tuple[int, int],
    dst: tuple[int, int],
    edge_filter: Optional[EdgeFilter] = None,
    penalty: Optional[EdgePenalty] = None,
    stats: Optional[SearchStats] = None,
    coster: Optional[EdgeCoster] = None,
) -> Optional[Path]:
    """Minimum-cost path between ground points, or None if disconnected."""
    return _single_source(grid, model, mask, src, dst, edge_filter, penalty, stats, False, coster)


def astar(
    grid: TerrainGrid,
    model: CostModel,
    mask: Optional[HeightMask],
    src: tuple[int, int],
    dst: tuple[int, int],
    edge_filter: Optional[EdgeFilter] = None,
    penalty: Optional[EdgePenalty] = None,
    stats: Optional[SearchStats] = None,
    coster: Optional[EdgeCoster] = None,
) -> Optional[Path]:
    """Same result contract as :func:`dijkstra`, guided by a consistent
    lower bound on the remaining cost, so it never settles more states.

    A query starts on the straight-line paving bound.  Once it has settled
    as many states as the grid has columns, it builds the planar bound
    (:func:`corridor.cost.planar_bound`, which also prices earthwork) and
    continues on the larger of the two.  The field is memoised on
    ``coster`` per (mask, dst), so later queries that share the coster use
    it from their first settle.  Filters only remove edges, so both bounds
    hold under any ``edge_filter``; a ``penalty`` must be non-negative.
    """
    return _single_source(grid, model, mask, src, dst, edge_filter, penalty, stats, True, coster)


@dataclass(frozen=True)
class MeetEvent:
    """A state settled from both directions, with the through-path it induces."""

    state: AugVertex
    cost_from_src: float
    cost_to_dst: float
    total: float
    path: Path


class BidiEngine:
    """Bidirectional search emitting every settled meeting state as an event.

    The backward search runs on the reversed graph with states stored in
    reverse orientation (``flip_state``); a forward label with orientation
    (h, v) therefore pairs with the backward label at (h+4 mod 8, -v) on the
    same position — other orientation pairs are distinct meets.  An event's
    path is the cheapest source-to-state path concatenated with the cheapest
    state-to-destination continuation.

    A cutoff (settable at construction or any time via :meth:`set_cutoff`)
    stops event production once both frontiers can no longer produce a meet
    at or below it.
    """

    def __init__(
        self,
        grid: TerrainGrid,
        model: CostModel,
        mask: Optional[HeightMask],
        src: tuple[int, int],
        dst: tuple[int, int],
        use_ikeda: bool = False,
        cutoff: Optional[float] = None,
        stats: Optional[SearchStats] = None,
        coster: Optional[EdgeCoster] = None,
    ):
        self.grid = grid
        self.model = model
        self.mask = mask
        self.stats = stats
        self.coster = coster if coster is not None else EdgeCoster(grid, model)
        self._cutoff = math.inf if cutoff is None else cutoff
        self._src = (src[0], src[1])
        self._dst = (dst[0], dst[1])
        dxy = grid.dxy
        src_m = (src[0] * dxy, src[1] * dxy)
        dst_m = (dst[0] * dxy, dst[1] * dxy)
        if use_ikeda:
            hf = lambda x, y: astar_heuristic(model, (x * dxy, y * dxy), dst_m)
            hb = lambda x, y: astar_heuristic(model, (x * dxy, y * dxy), src_m)
            self._pf, self._pb = ikeda_potentials(hf, hb)
        else:
            self._pf = self._pb = None
        self._dist_f: dict[AugVertex, float] = {}
        self._dist_b: dict[AugVertex, float] = {}
        self._parent_f: dict[AugVertex, AugVertex] = {}
        self._parent_b: dict[AugVertex, AugVertex] = {}
        self._settled_f: set[AugVertex] = set()
        self._settled_b: set[AugVertex] = set()
        self._heap_f: list[tuple[float, AugVertex]] = []
        self._heap_b: list[tuple[float, AugVertex]] = []
        for s in _seed_states(grid, mask, src):
            self._dist_f[s] = 0.0
            heapq.heappush(self._heap_f, (self._fkey(s, 0.0), s))
        for s in _seed_states(grid, mask, dst):
            self._dist_b[s] = 0.0
            heapq.heappush(self._heap_b, (self._bkey(s, 0.0), s))
        self.best_meet: Optional[float] = None

    def _fkey(self, state: AugVertex, d: float) -> float:
        return d + self._pf(state.x, state.y) if self._pf else d

    def _bkey(self, state: AugVertex, d: float) -> float:
        return d + self._pb(state.x, state.y) if self._pb else d

    def set_cutoff(self, cutoff: float) -> None:
        self._cutoff = cutoff

    def _future_total_bound(self) -> float:
        """No event produced after this point can have a smaller total."""
        bounds = []
        if self._heap_f:
            top_f = self._heap_f[0][0]
            # Keys carry potentials; un-shift by the opposite endpoint's term.
            bounds.append(top_f - self._pf(*self._dst) if self._pf else top_f)
        if self._heap_b:
            top_b = self._heap_b[0][0]
            bounds.append(top_b + self._pf(*self._src) if self._pf else top_b)
        return min(bounds) if bounds else math.inf

    def _cutoff_bar(self) -> float:
        return self._cutoff * (1.0 + 1e-9) + 1e-9

    def events(self) -> Iterator[MeetEvent]:
        """Generate meet events until both frontiers pass the cutoff or drain."""
        while self._heap_f or self._heap_b:
            if self._future_total_bound() > self._cutoff_bar():
                return
            grow_forward = len(self._heap_f) <= len(self._heap_b) if self._heap_f else False
            if not self._heap_b:
                grow_forward = True
            event = self._grow(forward=grow_forward)
            if event is not None and event.total <= self._cutoff_bar():
                yield event

    def _grow(self, forward: bool) -> Optional[MeetEvent]:
        heap = self._heap_f if forward else self._heap_b
        settled = self._settled_f if forward else self._settled_b
        dist = self._dist_f if forward else self._dist_b
        parent = self._parent_f if forward else self._parent_b
        while heap:
            _, u = heapq.heappop(heap)
            if u not in settled:
                break
        else:
            return None
        settled.add(u)
        if self.stats is not None:
            self.stats.expansions += 1
            self.stats.note_labels(len(self._dist_f) + len(self._dist_b))
        du = dist[u]
        succ = successors3do(self.grid, u, self.mask) if forward else rev_successors3do(self.grid, u, self.mask)
        for w in succ:
            if w in settled:
                continue
            c = self.coster(u, w) if forward else self.coster(w, u)
            nd = du + c
            old = dist.get(w)
            if old is None or nd < old:
                dist[w] = nd
                parent[w] = u
                key = self._fkey(w, nd) if forward else self._bkey(w, nd)
                heapq.heappush(heap, (key, w))
        mate = flip_state(u)
        other_settled = self._settled_b if forward else self._settled_f
        if mate in other_settled:
            state = u if forward else mate
            return self._emit(state)
        return None

    def _emit(self, state: AugVertex) -> MeetEvent:
        cf = self._dist_f[state]
        cb = self._dist_b[flip_state(state)]
        total = cf + cb
        if self.best_meet is None or total < self.best_meet:
            self.best_meet = total
        fwd = [state]
        u = state
        parent_f = self._parent_f
        while u in parent_f:
            u = parent_f[u]
            fwd.append(u)
        fwd.reverse()
        u = flip_state(state)
        parent_b = self._parent_b
        while u in parent_b:
            u = parent_b[u]
            fwd.append(flip_state(u))
        path = Path(vertices=fwd, total_cost=total, edge_costs=None)
        return MeetEvent(state=state, cost_from_src=cf, cost_to_dst=cb, total=total, path=path)


def bidi_engine(
    grid: TerrainGrid,
    model: CostModel,
    mask: Optional[HeightMask],
    src: tuple[int, int],
    dst: tuple[int, int],
    use_ikeda: bool = False,
    cutoff: Optional[float] = None,
    stats: Optional[SearchStats] = None,
    coster: Optional[EdgeCoster] = None,
) -> BidiEngine:
    """Construct a :class:`BidiEngine`; iterate its ``events()`` for meets."""
    return BidiEngine(grid, model, mask, src, dst, use_ikeda=use_ikeda, cutoff=cutoff, stats=stats, coster=coster)
