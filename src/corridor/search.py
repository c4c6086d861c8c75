"""Shortest-path engines over the implicit oriented 3D grid graph.

Two label-setting loops serve every search.  :func:`dijkstra` and
:func:`astar` run a single-source loop that keeps one label per state in
dicts.  The :class:`BidiEngine` grows two :class:`_LabelSide` sweeps towards
each other and exposes settled meeting states as a stream of events; a side
keeps one label per state (``bds``) or several mutually dissimilar ones
(``hybrid``), and one side on its own is the ``kspa`` sweep.  All of them

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
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .cost import CostModel, EdgeCoster, astar_heuristic, ikeda_potentials
from .dissimilarity import Profile, area_cells, cost_bar, place
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
    """Counters exported for benchmarking: settles and peak stored labels.
    ``incomplete`` is set when a deadline or a label cap cut a search short."""

    expansions: int = 0
    peak_labels: int = 0
    settle_keys: list = field(default_factory=list)
    record_settles: bool = False
    incomplete: bool = False

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
    return Path(vertices=chain, total_cost=0.0).price(coster)


def straight_line_potential(grid: TerrainGrid, model: CostModel, dst: tuple[int, int]) -> Callable[[int, int], float]:
    """The straight-line paving bound to ``dst`` as a function of a grid column."""
    dxy = grid.dxy
    dst_m = (dst[0] * dxy, dst[1] * dxy)
    return lambda x, y: astar_heuristic(model, (x * dxy, y * dxy), dst_m)


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
    deadline: Optional[float],
    label_cap: Optional[int],
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
            potential = straight_line_potential(grid, model, dst)
            switch_at = grid.nx * grid.ny
    dist: dict[AugVertex, float] = {}
    parent: dict[AugVertex, AugVertex] = {}
    settled: set[AugVertex] = set()
    heap: list[tuple[float, AugVertex]] = []
    pot0 = potential(src[0], src[1]) if potential else 0.0
    for s in _seed_states(grid, mask, src):
        dist[s] = 0.0
        heapq.heappush(heap, (pot0, s))
    deadline = math.inf if deadline is None else deadline
    label_cap = math.inf if label_cap is None else label_cap
    while heap:
        key, u = heapq.heappop(heap)
        if u in settled:
            continue
        if time.monotonic() > deadline or len(dist) > label_cap:
            if stats is not None:
                stats.incomplete = True
            return None
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
                if p < 0.0:
                    raise ValueError("negative edge penalty")
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
    *,
    deadline: Optional[float] = None,
    label_cap: Optional[int] = None,
) -> Optional[Path]:
    """Minimum-cost path between ground points, or None if disconnected.

    A ``penalty`` is added to each edge's price; a negative one raises
    ``ValueError``.  The search gives up, returning None and setting
    ``stats.incomplete``, when a settle finds ``deadline`` (a
    :func:`time.monotonic` time) passed or more than ``label_cap`` states
    labelled.
    """
    return _single_source(
        grid, model, mask, src, dst, edge_filter, penalty, stats, False, coster, deadline, label_cap
    )


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
    *,
    deadline: Optional[float] = None,
    label_cap: Optional[int] = None,
) -> Optional[Path]:
    """Same result contract as :func:`dijkstra`, guided by a consistent
    lower bound on the remaining cost, so it never settles more states.

    A query starts on the straight-line paving bound.  Once it has settled
    as many states as the grid has columns, it builds the planar bound
    (:func:`corridor.cost.planar_bound`, which also prices earthwork) and
    continues on the larger of the two.  The field is memoised on
    ``coster`` per (mask, dst), so later queries that share the coster use
    it from their first settle.  Filters only remove edges, so both bounds
    hold under any ``edge_filter``.  Neither holds under a negative
    ``penalty``, which raises ``ValueError`` as in :func:`dijkstra`.
    """
    return _single_source(
        grid, model, mask, src, dst, edge_filter, penalty, stats, True, coster, deadline, label_cap
    )


class _Label(Profile):
    """A partial path: cost, tip state, parent link and, on a multi-label
    side, the lateral :class:`~corridor.dissimilarity.Profile` of its states.

    Labels grown by a one-label side carry no profile.  ``seq`` is the push
    order, set when the label enters the heap.
    """

    __slots__ = ("cost", "state", "parent", "alive", "seq")

    def __init__(self, cost, state, parent, profiled):
        self.cost = cost
        self.state = state
        self.parent = parent
        self.alive = True
        if profiled:
            Profile.__init__(self, parent, state.x, state.y)


class _LabelSide:
    """One direction of a label-setting sweep, up to ``cap`` labels per state.

    With ``cap == 1`` a state keeps its cheapest label, as in Dijkstra, and
    grown labels carry no profile.  With more, the labels of a state are
    mutually dissimilar: a new label must price within the cost bar of the
    state's cheapest label, and :func:`~corridor.dissimilarity.place`
    decides whether it joins, replaces a label or is rejected.  A state
    whose ``cap`` labels have settled is closed and skipped before pricing:
    with a consistent potential a later offer costs at least as much as
    every settled label there, so it would be rejected anyway.  States on
    the backward side are stored in reverse orientation and advance through
    the reversed graph.  Heap entries are ``(key, state, seq, label)``, so
    ties break on the state and then on the push order.
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
        # The potential is looked up once per push, so it is tabulated per column.
        self.rows = None
        if potential is not None:
            self.rows = [[potential(x, y) for x in range(grid.nx)] for y in range(grid.ny)]
        self.origin = origin
        self.labels: dict[AugVertex, list[_Label]] = {}
        self.settled: dict[AugVertex, list[_Label]] = {}
        self.closed: set[AugVertex] = set()
        self.heap: list = []
        self.alive_count = 0
        self._seq = 0
        self._offer = self._keep_cheapest if cap == 1 else self._keep_dissimilar
        for state in _seed_states(grid, mask, origin):
            self._push(_Label(0.0, state, None, cap > 1))

    def _push(self, label: _Label) -> None:
        self._seq += 1
        label.seq = self._seq
        state = label.state
        self.labels.setdefault(state, []).append(label)
        self.alive_count += 1
        key = label.cost + self.rows[state.y][state.x] if self.rows else label.cost
        heapq.heappush(self.heap, (key, state, self._seq, label))

    def _kill(self, label: _Label) -> None:
        label.alive = False
        self.labels[label.state].remove(label)
        self.alive_count -= 1

    def top_key(self) -> Optional[float]:
        return self.heap[0][0] if self.heap else None

    def pop_settle(self) -> Optional[_Label]:
        heap = self.heap
        while heap:
            label = heapq.heappop(heap)[3]
            if label.alive:
                done = self.settled.setdefault(label.state, [])
                done.append(label)
                if len(done) == self.cap:
                    self.closed.add(label.state)
                return label
        return None

    def relax(self, label: _Label) -> None:
        u = label.state
        cost = label.cost
        closed = self.closed
        coster = self.coster
        offer = self._offer
        if self.forward:
            for w in successors3do(self.grid, u, self.mask):
                if w not in closed:
                    offer(label, w, cost + coster(u, w))
        else:
            for w in rev_successors3do(self.grid, u, self.mask):
                if w not in closed:
                    offer(label, w, cost + coster(w, u))

    def _keep_cheapest(self, parent: _Label, state: AugVertex, cost: float) -> None:
        bucket = self.labels.get(state)
        if bucket:
            if cost >= bucket[0].cost:
                return
            self._kill(bucket[0])
        self._push(_Label(cost, state, parent, False))

    def _stop_cells(self, state: AugVertex) -> float:
        # min_diff percent of the map width times the distance from the
        # origin (at least one cell), as an area in grid cells.
        dxy = self.grid.dxy
        norm = max(math.hypot(state.x - self.origin[0], state.y - self.origin[1]) * dxy, dxy)
        return self.min_diff * self.grid.width_m * norm / (100.0 * dxy * dxy)

    def _keep_dissimilar(self, parent: _Label, state: AugVertex, cost: float) -> None:
        bucket = self.labels.get(state)
        if bucket and cost > cost_bar(min(l.cost for l in bucket), self.max_diff):
            return
        label = _Label(cost, state, parent, True)
        if bucket:
            stop = self._stop_cells(state)
            similar = [i for i, other in enumerate(bucket) if area_cells(label, other, stop) < stop]
            where = place([l.cost for l in bucket], similar, cost, self.cap)
            if where == "reject":
                return
            if where != "add":
                self._kill(bucket[where])
            # Many kept labels are never compared against; dropping the means
            # until one is keeps them out of memory.
            label._means = None
        self._push(label)

    def chain(self, label: _Label) -> list[AugVertex]:
        states = []
        l: Optional[_Label] = label
        while l is not None:
            states.append(l.state)
            l = l.parent
        states.reverse()
        return states


@dataclass(frozen=True)
class MeetEvent:
    """A state settled from both directions, with the through-path it induces."""

    state: AugVertex
    cost_from_src: float
    cost_to_dst: float
    total: float
    path: Path


class BidiEngine:
    """Bidirectional search emitting every settled meeting pair as an event.

    Each direction is a :class:`_LabelSide` keeping up to ``labels`` labels
    per state; ``min_diff`` and ``max_diff`` set its per-state rule when
    ``labels`` exceeds 1.  With ``use_ikeda`` the sides are keyed by the
    average-difference potentials of the straight-line bounds.  The backward
    search runs on the reversed graph with states stored in reverse
    orientation (``flip_state``); a forward label with orientation (h, v)
    therefore pairs with the backward labels at (h+4 mod 8, -v) on the same
    position — other orientation pairs are distinct meets.  Each settle
    yields one event per settled label at its mate state; the event's path
    concatenates the two labels' chains.

    A cutoff (settable at construction or any time via :meth:`set_cutoff`)
    stops event production once both frontiers can no longer produce a meet
    at or below it.  The search also stops, and sets ``incomplete`` here and
    on ``stats``, when a settle finds ``deadline`` (a :func:`time.monotonic`
    time) passed or the two sides holding more than ``label_cap`` labels.
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
        labels: int = 1,
        min_diff: float = 0.0,
        max_diff: float = 0.0,
        deadline: Optional[float] = None,
        label_cap: Optional[int] = None,
    ):
        self.stats = stats
        coster = coster if coster is not None else EdgeCoster(grid, model)
        self._cutoff = math.inf if cutoff is None else cutoff
        self._deadline = math.inf if deadline is None else deadline
        self._label_cap = math.inf if label_cap is None else label_cap
        if use_ikeda:
            hf = straight_line_potential(grid, model, dst)
            hb = straight_line_potential(grid, model, src)
            pf, pb = ikeda_potentials(hf, hb)
            # Keys carry potentials; a frontier key less the opposite
            # endpoint's term bounds the totals of the meets it can make.
            self._shift_f, self._shift_b = pf(*dst), pb(*src)
        else:
            pf = pb = None
            self._shift_f = self._shift_b = 0.0
        self._fwd = _LabelSide(grid, mask, coster, src, True, labels, min_diff, max_diff, pf)
        self._bwd = _LabelSide(grid, mask, coster, dst, False, labels, min_diff, max_diff, pb)
        self.best_meet: Optional[float] = None
        self.incomplete = False

    def set_cutoff(self, cutoff: float) -> None:
        self._cutoff = cutoff

    def _future_total_bound(self) -> float:
        """No event produced after this point can have a smaller total."""
        bounds = []
        top_f = self._fwd.top_key()
        if top_f is not None:
            bounds.append(top_f - self._shift_f)
        top_b = self._bwd.top_key()
        if top_b is not None:
            bounds.append(top_b - self._shift_b)
        return min(bounds) if bounds else math.inf

    def _cutoff_bar(self) -> float:
        return self._cutoff * (1.0 + 1e-9) + 1e-9

    def events(self) -> Iterator[MeetEvent]:
        """Generate meet events until both frontiers pass the cutoff or drain,
        or a limit stops the search."""
        fwd, bwd = self._fwd, self._bwd
        stats = self.stats
        while fwd.heap or bwd.heap:
            if time.monotonic() > self._deadline or fwd.alive_count + bwd.alive_count > self._label_cap:
                self.incomplete = True
                if stats is not None:
                    stats.incomplete = True
                return
            if self._future_total_bound() > self._cutoff_bar():
                return
            # Grow the side with the smaller heap, forward on a tie.
            forward = not bwd.heap or 0 < len(fwd.heap) <= len(bwd.heap)
            side, other = (fwd, bwd) if forward else (bwd, fwd)
            label = side.pop_settle()
            if label is None:
                continue
            if stats is not None:
                stats.expansions += 1
                stats.note_labels(fwd.alive_count + bwd.alive_count)
            side.relax(label)
            for mate in other.settled.get(flip_state(label.state), ()):
                f, b = (label, mate) if forward else (mate, label)
                total = f.cost + b.cost
                if self.best_meet is None or total < self.best_meet:
                    self.best_meet = total
                if total <= self._cutoff_bar():
                    yield self._event(f, b, total)

    def _event(self, f: _Label, b: _Label, total: float) -> MeetEvent:
        vertices = self._fwd.chain(f)
        u = b.parent
        while u is not None:
            vertices.append(flip_state(u.state))
            u = u.parent
        path = Path(vertices=vertices, total_cost=total, edge_costs=None)
        return MeetEvent(state=f.state, cost_from_src=f.cost, cost_to_dst=b.cost, total=total, path=path)


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
    labels: int = 1,
    min_diff: float = 0.0,
    max_diff: float = 0.0,
    deadline: Optional[float] = None,
    label_cap: Optional[int] = None,
) -> BidiEngine:
    """Construct a :class:`BidiEngine`; iterate its ``events()`` for meets."""
    return BidiEngine(
        grid, model, mask, src, dst, use_ikeda=use_ikeda, cutoff=cutoff, stats=stats, coster=coster,
        labels=labels, min_diff=min_diff, max_diff=max_diff, deadline=deadline, label_cap=label_cap,
    )
