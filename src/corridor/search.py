"""Shortest-path engines over the implicit oriented 3D grid graph.

Two kinds of sweep serve every search, driven by one settle loop that holds
the deadline, the label cap and the counters.  A :class:`_Sweep` keeps one
label per state in dicts: :func:`dijkstra` and :func:`astar` run one, and
the :class:`BidiEngine` grows two towards each other (``bds``), always the
one whose lowest key is smaller, and exposes settled meeting states as a
stream of paths.  A :class:`_LabelSide` keeps several mutually dissimilar
labels per state: the engine grows two of them for ``hybrid``, and one on
its own is the ``kspa`` sweep.  All of them

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
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .cost import CostModel, EdgeCoster, straight_line_rows
from .dissimilarity import ADD, REJECT, Profile, area_cells, cost_bar, place
from .graph import (
    AugVertex,
    HeightMask,
    check_mask_shape,
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
    ``incomplete`` is set when a deadline or a label cap cut a search short,
    and a list given as ``settle_keys`` receives every settled key."""

    expansions: int = 0
    peak_labels: int = 0
    settle_keys: Optional[list] = None
    incomplete: bool = False


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
    check_mask_shape(grid, mask)
    x, y = xy
    z = ground_z_index(grid, x, y)
    if mask is not None and not mask.admits(x, y, z):
        raise ValueError(f"ground level at {xy} not admissible under mask")
    return [AugVertex(x, y, z, h, v) for h in range(8) for v in (-1, 0, 1)]


class _Sweep:
    """One direction of a one-label sweep: each state keeps its cheapest cost
    in ``dist`` and its predecessor in ``parent``, as in Dijkstra.

    ``rows[y][x]``, if given, is a consistent potential added to each heap
    key, and :meth:`rekey` swaps in one that is nowhere smaller.  A backward
    sweep stores states in reverse orientation and advances through the
    reversed graph; ``edge_filter`` and ``penalty`` see each move ``(u, w)``
    in the sweep's own direction, and the price of a unit move does not
    depend on its direction.  Heap entries are ``(key, state)``, and a
    popped entry whose state has settled is skipped.
    """

    def __init__(
        self,
        grid: TerrainGrid,
        mask: Optional[HeightMask],
        coster: EdgeCoster,
        origin: tuple[int, int],
        forward: bool = True,
        rows: Optional[list[list[float]]] = None,
        edge_filter: Optional[EdgeFilter] = None,
        penalty: Optional[EdgePenalty] = None,
    ):
        self.grid = grid
        self.mask = mask
        self.coster = coster
        self.forward = forward
        self.rows = rows
        self.edge_filter = edge_filter
        self.penalty = penalty
        seeds = _seed_states(grid, mask, origin)
        self.dist: dict[AugVertex, float] = dict.fromkeys(seeds, 0.0)
        self.parent: dict[AugVertex, AugVertex] = {}
        self.settled: set[AugVertex] = set()
        key = rows[origin[1]][origin[0]] if rows is not None else 0.0
        self.heap = sorted((key, s) for s in seeds)

    def pick(self) -> Optional[_Sweep]:
        return self if self.heap else None

    def held(self) -> int:
        return len(self.dist)

    def pop_settle(self) -> Optional[tuple[float, AugVertex, AugVertex]]:
        heap, settled = self.heap, self.settled
        while heap:
            key, u = heapq.heappop(heap)
            if u not in settled:
                settled.add(u)
                return key, u, u
        return None

    def relax(self, u: AugVertex) -> None:
        dist, parent, settled, rows = self.dist, self.parent, self.settled, self.rows
        coster, edge_filter, penalty, heap = self.coster, self.edge_filter, self.penalty, self.heap
        du = dist[u]
        for w in (successors3do if self.forward else rev_successors3do)(self.grid, u, self.mask):
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
                heapq.heappush(heap, (nd + rows[w.y][w.x] if rows is not None else nd, w))

    def rekey(self, rows: list[list[float]]) -> None:
        """Key the open states by the potential ``rows``."""
        dist, settled = self.dist, self.settled
        self.rows = rows
        self.heap = [(dist[w] + rows[w.y][w.x], w) for w in {w for _, w in self.heap if w not in settled}]
        heapq.heapify(self.heap)

    def cost(self, u: AugVertex) -> float:
        return self.dist[u]

    def mates(self, state: AugVertex) -> tuple:
        """The settled items at ``state``."""
        return (state,) if state in self.settled else ()

    def chain(self, u: AugVertex) -> list[AugVertex]:
        """The states from the origin to ``u``."""
        states = [u]
        parent = self.parent
        while u in parent:
            u = parent[u]
            states.append(u)
        states.reverse()
        return states


def _settles(front, stats: SearchStats, deadline: Optional[float], label_cap: Optional[int]):
    """Settle labels one at a time, yielding ``(side, key, state, item)``;
    the item is relaxed when the consumer asks for the next one.

    ``front`` is one side, or the engine over two: ``front.pick()`` names
    the side to grow, or None to stop, and ``front.held()`` counts the
    labels held.  A settle that finds ``deadline`` (a :func:`time.monotonic`
    time) passed, or more than ``label_cap`` labels held, ends the sweep and
    sets ``stats.incomplete``.
    """
    deadline = math.inf if deadline is None else deadline
    label_cap = math.inf if label_cap is None else label_cap
    keys = stats.settle_keys
    while True:
        side = front.pick()
        if side is None:
            return
        held = front.held()
        if time.monotonic() > deadline or held > label_cap:
            stats.incomplete = True
            return
        popped = side.pop_settle()
        if popped is None:
            continue
        key, state, item = popped
        stats.expansions += 1
        if held > stats.peak_labels:
            stats.peak_labels = held
        if keys is not None:
            keys.append(key)
        yield side, key, state, item
        side.relax(item)


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
    coster = coster if coster is not None else EdgeCoster(grid, model)
    rows = coster.astar_potential(mask, dst, build=False) if guided else None
    switch_at = -1
    if guided and rows is None:
        # Start on the straight-line bound and build the planar field once
        # the query has spent about what a build costs (the ski-rental rule):
        # one build takes as long as nx*ny/2 to nx*ny/6 cold straight-line
        # settles on the benchmark maps, so switch after nx*ny/4.  A query
        # that ends sooner, like the 76-settle ones on the lane maps, never
        # pays for a field.
        rows = straight_line_rows(grid, model, dst)
        switch_at = grid.nx * grid.ny // 4
    sweep = _Sweep(grid, mask, coster, src, rows=rows, edge_filter=edge_filter, penalty=penalty)
    dst_x, dst_y = dst
    dst_z = ground_z_index(grid, dst_x, dst_y)
    stats = stats if stats is not None else SearchStats()
    for _, _, u, _ in _settles(sweep, stats, deadline, label_cap):
        if u.x == dst_x and u.y == dst_y and u.z == dst_z:
            return Path(vertices=sweep.chain(u), total_cost=0.0).price(coster)
        if len(sweep.settled) == switch_at:
            # The planar field is at least the straight-line bound, so
            # settle keys stay monotone across the switch.
            sweep.rekey(coster.astar_potential(mask, dst))
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
    a quarter as many states as the grid has columns, about what one build
    costs, it builds the planar bound (:func:`corridor.cost.planar_bound`,
    which also prices earthwork) and continues on the larger of the two.
    The field is memoised on ``coster`` per (mask, dst), so later queries
    that share the coster use it from their first settle.  Filters only remove edges, so both bounds
    hold under any ``edge_filter``.  Neither holds under a negative
    ``penalty``, which raises ``ValueError`` as in :func:`dijkstra`.
    """
    return _single_source(
        grid, model, mask, src, dst, edge_filter, penalty, stats, True, coster, deadline, label_cap
    )


class _Label(Profile):
    """A partial path of a multi-label side: cost, tip state, parent link and
    the lateral :class:`~corridor.dissimilarity.Profile` of its states."""

    __slots__ = ("cost", "state", "parent", "alive")

    def __init__(self, cost, state, parent):
        self.cost = cost
        self.state = state
        self.parent = parent
        self.alive = True
        Profile.__init__(self, parent, state.x, state.y)


class _LabelSide:
    """One direction of a multi-label sweep, up to ``cap`` mutually
    dissimilar labels per state, with the settle interface of :class:`_Sweep`.

    A new label must price within the cost bar of the state's cheapest
    label.  An offer below the cheapest cost first drops the labels above
    its lowered bar; then :func:`~corridor.dissimilarity.place` decides
    whether it joins, replaces a label or is rejected.  A state
    whose ``cap`` labels have settled is closed and skipped before pricing:
    with a consistent potential a later offer costs at least as much as
    every settled label there, so it would be rejected anyway.  Heap
    entries are ``(key, state, seq, label)``, so ties break on the state
    and then on the push order.
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
        rows: Optional[list[list[float]]] = None,
    ):
        self.grid = grid
        self.mask = mask
        self.coster = coster
        self.forward = forward
        self.cap = cap
        self.min_diff = min_diff
        self.max_diff = max_diff
        self.rows = rows
        self.origin = origin
        self.labels: dict[AugVertex, list[_Label]] = {}
        self.settled: dict[AugVertex, list[_Label]] = {}
        self.closed: set[AugVertex] = set()
        self.heap: list = []
        self._held = 0
        self._seq = 0
        for state in _seed_states(grid, mask, origin):
            self._push(_Label(0.0, state, None))

    def _push(self, label: _Label) -> None:
        self._seq += 1
        state = label.state
        self.labels.setdefault(state, []).append(label)
        self._held += 1
        key = label.cost + self.rows[state.y][state.x] if self.rows is not None else label.cost
        heapq.heappush(self.heap, (key, state, self._seq, label))

    def _kill(self, label: _Label) -> None:
        label.alive = False
        self.labels[label.state].remove(label)
        self._held -= 1

    def pick(self) -> Optional[_LabelSide]:
        return self if self.heap else None

    def held(self) -> int:
        return self._held

    def pop_settle(self) -> Optional[tuple[float, AugVertex, _Label]]:
        heap = self.heap
        while heap:
            key, state, _, label = heapq.heappop(heap)
            if label.alive:
                done = self.settled.setdefault(state, [])
                done.append(label)
                if len(done) == self.cap:
                    self.closed.add(state)
                return key, state, label
        return None

    def relax(self, label: _Label) -> None:
        u, cost, closed, coster = label.state, label.cost, self.closed, self.coster
        for w in (successors3do if self.forward else rev_successors3do)(self.grid, u, self.mask):
            if w not in closed:
                self._keep_dissimilar(label, w, cost + coster(u, w))

    def _stop_cells(self, state: AugVertex) -> float:
        # min_diff percent of the map width times the distance from the
        # origin (at least one cell), as an area in grid cells.
        dxy = self.grid.dxy
        norm = max(math.hypot(state.x - self.origin[0], state.y - self.origin[1]) * dxy, dxy)
        return self.min_diff * self.grid.width_m * norm / (100.0 * dxy * dxy)

    def _keep_dissimilar(self, parent: _Label, state: AugVertex, cost: float) -> None:
        bucket = self.labels.get(state)
        cheapest = min(l.cost for l in bucket) if bucket else math.inf
        if cost > cost_bar(cheapest, self.max_diff):
            return
        if bucket and cost < cheapest:
            for other in [l for l in bucket if l.cost > cost_bar(cost, self.max_diff)]:
                self._kill(other)
        label = _Label(cost, state, parent)
        if bucket:
            stop, mine = self._stop_cells(state), label.means()
            similar = [i for i, other in enumerate(bucket) if area_cells(mine, other.means(), stop) < stop]
            decision = place([l.cost for l in bucket], similar, cost, self.cap)
            if decision is REJECT:
                return
            if decision is not ADD:
                self._kill(bucket[decision.index])
        self._push(label)

    def cost(self, label: _Label) -> float:
        return label.cost

    def mates(self, state: AugVertex) -> list[_Label]:
        """The settled labels at ``state``."""
        return self.settled.get(state, [])

    def chain(self, label: _Label) -> list[AugVertex]:
        """The states from the origin to ``label``'s tip."""
        states = []
        l: Optional[_Label] = label
        while l is not None:
            states.append(l.state)
            l = l.parent
        states.reverse()
        return states


class BidiEngine:
    """Bidirectional search emitting every settled meeting pair as a path.

    Each direction is a :class:`_Sweep` when ``labels`` is 1, else a
    :class:`_LabelSide` keeping up to ``labels`` labels per state, whose
    per-state rule ``min_diff`` and ``max_diff`` set.  With ``use_ikeda``
    each side is keyed by the A* potential to its far end
    (:meth:`~corridor.cost.EdgeCoster.astar_potential`), else by plain
    cost.  The backward search runs on the reversed graph
    with states stored in reverse orientation (``flip_state``); a forward
    label with orientation (h, v) therefore pairs with the backward labels
    at (h+4 mod 8, -v) on the same position — other orientation pairs are
    distinct meets.  Each settle yields one unpriced :class:`Path` per
    settled label at its mate state: the two labels' chains joined, with
    the sum of their costs as ``total_cost``.

    The side with the lower key grows (:meth:`pick`).  A cutoff (settable
    at construction or any time via :meth:`set_cutoff`) stops the search
    once both keys pass it, having emitted every meet within it.  The
    search also stops, and sets ``stats.incomplete``, when a settle finds
    ``deadline`` (a :func:`time.monotonic` time) passed or the two sides
    holding more than ``label_cap`` labels.
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
        self.stats = stats if stats is not None else SearchStats()
        coster = coster if coster is not None else EdgeCoster(grid, model)
        self._cutoff = math.inf if cutoff is None else cutoff
        self._deadline = deadline
        self._label_cap = label_cap
        rows_f = rows_b = None
        if use_ikeda:
            rows_f, rows_b = coster.astar_potential(mask, dst), coster.astar_potential(mask, src)
        if labels == 1:
            self._fwd = _Sweep(grid, mask, coster, src, True, rows_f)
            self._bwd = _Sweep(grid, mask, coster, dst, False, rows_b)
        else:
            self._fwd = _LabelSide(grid, mask, coster, src, True, labels, min_diff, max_diff, rows_f)
            self._bwd = _LabelSide(grid, mask, coster, dst, False, labels, min_diff, max_diff, rows_b)

    def set_cutoff(self, cutoff: float) -> None:
        self._cutoff = cutoff

    def _cutoff_bar(self) -> float:
        return self._cutoff * (1.0 + 1e-9) + 1e-9

    def pick(self):
        """The side whose lowest key is smaller, forward on a tie; None once
        that key is above the cutoff bar or both sides have drained.  A meet
        through a state costs at least either side's key there, so no meet
        made after that point can price within the cutoff."""
        fwd, bwd = self._fwd, self._bwd
        top_f = fwd.heap[0][0] if fwd.heap else math.inf
        top_b = bwd.heap[0][0] if bwd.heap else math.inf
        side, top = (fwd, top_f) if top_f <= top_b else (bwd, top_b)
        return side if top < math.inf and top <= self._cutoff_bar() else None

    def held(self) -> int:
        return self._fwd.held() + self._bwd.held()

    def events(self) -> Iterator[Path]:
        """Generate meet paths until both frontiers pass the cutoff or drain,
        or a limit stops the search."""
        fwd, bwd = self._fwd, self._bwd
        for side, _, state, item in _settles(self, self.stats, self._deadline, self._label_cap):
            forward = side is fwd
            for mate in (bwd if forward else fwd).mates(flip_state(state)):
                f, b = (item, mate) if forward else (mate, item)
                total = fwd.cost(f) + bwd.cost(b)
                if total <= self._cutoff_bar():
                    yield self._meet(f, b, total)

    def _meet(self, f, b, total: float) -> Path:
        back = self._bwd.chain(b)
        back.pop()
        return Path(vertices=self._fwd.chain(f) + [flip_state(s) for s in reversed(back)], total_cost=total)


# The engine's constructor is the public entry point; iterate ``events()``.
bidi_engine = BidiEngine
