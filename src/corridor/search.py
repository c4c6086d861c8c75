"""Shortest-path engines over the implicit oriented 3D grid graph.

Two kinds of sweep serve every search, driven by one settle loop that holds
the deadline, the label cap and the counters.  Both run on states numbered
by ints (:class:`~corridor.graph.StateNumbering`): moves are arithmetic,
labels and the price memo are int-keyed dicts, a guided side adds the A*
potential of the state's column to each key, and an
:class:`~corridor.graph.AugVertex` is built only for a returned path or
a read meet.  A
search's rules are per column (:class:`CellFilter`, :class:`CellPenalty`).
A :class:`_Sweep` keeps one label per state:
:func:`dijkstra` and :func:`astar` run one, and the :class:`BidiEngine`
grows two towards each other (``bds``), always the one whose lowest key is
smaller, and exposes settled meeting states as a stream of paths.  A
:class:`_LabelSide` keeps several mutually dissimilar labels per state: the
engine grows two of them for ``hybrid``, and one on its own is the
``kspa`` sweep.  All of them

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
from typing import Iterator, Optional

from .cost import CostModel, EdgeCoster, straight_line_rows, x_major
from .dissimilarity import ADD, REJECT, Profile, cost_bar, place, profile_area
# perfbench/tracing.py rebinds the successor functions here, so they stay
# imported; only Path.validate calls one.
from .graph import (
    AugVertex, HeightMask, StateNumbering, check_mask_shape, ground_z_index, rev_successors3do, successors3do,
)
from .terrain import TerrainGrid

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
    The lateral :meth:`profile` is built on first use and kept, so the
    vertices must not change after it.
    """

    vertices: list[AugVertex]
    total_cost: float
    edge_costs: Optional[list[float]] = None
    _profile: Optional[Profile] = field(default=None, init=False, repr=False, compare=False)

    def ends(self) -> tuple[AugVertex, AugVertex]:
        """The first and the last vertex; an empty path raises ``ValueError``."""
        if not self.vertices:
            raise ValueError("paths must be non-empty")
        return self.vertices[0], self.vertices[-1]

    def profile(self) -> Profile:
        """The lateral profile of the vertices, built on the first call."""
        if self._profile is None:
            self._profile = Profile.of_path(self.vertices)
        return self._profile

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


class Meet(Path):
    """A meet of the :class:`BidiEngine`: its chain of int ``states`` from
    the source to the destination, numbered by ``numbering``, unpriced at
    the sum of its two labels' costs.  :meth:`key` is the chain, the
    profile is built from the states' columns, and ``vertices`` are decoded
    on first read, so a meet that is only compared decodes just its ends."""

    def __init__(self, states: tuple[int, ...], numbering: StateNumbering, total_cost: float):
        self.states, self.numbering = states, numbering
        self.total_cost, self.edge_costs = total_cost, None
        self._vertices = self._profile = None

    @property
    def vertices(self) -> list[AugVertex]:
        if self._vertices is None:
            self._vertices = [self.numbering.decode(s) for s in self.states]
        return self._vertices

    def key(self) -> tuple[int, ...]:
        return self.states

    def ends(self) -> tuple[AugVertex, AugVertex]:
        return self.numbering.decode(self.states[0]), self.numbering.decode(self.states[-1])

    def profile(self) -> Profile:
        if self._profile is None:
            per_column, ny = 24 * self.numbering.nz, self.numbering.ny
            self._profile = Profile.of_columns(divmod(s // per_column, ny) for s in self.states)
        return self._profile


def _column(grid, xy, what: str) -> tuple[int, int]:
    """``xy`` as ``(x, y)``; a column off the grid raises ``ValueError``."""
    x, y = xy
    if not (0 <= x < grid.nx and 0 <= y < grid.ny):
        raise ValueError(f"{what} {tuple(xy)} outside grid")
    return x, y


def _ground_cell(grid, xy) -> tuple[int, int, int]:
    """The ground cell at ``xy``; a column off the grid raises ``ValueError``."""
    x, y = _column(grid, xy, "endpoint")
    return x, y, ground_z_index(grid, x, y)


class CellFilter:
    """A search rule that drops every move into a ``blocked`` column; a
    column off the grid raises ``ValueError``."""

    def __init__(self, grid: TerrainGrid, blocked):
        self.shape = (grid.nx, grid.ny)
        self.open = [True] * (grid.nx * grid.ny)
        for xy in blocked:
            x, y = _column(grid, xy, "blocked column")
            self.open[x * grid.ny + y] = False


class CellPenalty:
    """A search rule that adds ``rows[y][x]`` to the price of every move into
    column (x, y).  Rows that are not ``grid.ny`` rows of ``grid.nx``
    values, or a negative or NaN entry, raise ``ValueError``."""

    def __init__(self, grid: TerrainGrid, rows: list[list[float]]):
        self.shape = (grid.nx, grid.ny)
        if len(rows) != grid.ny or any(len(row) != grid.nx for row in rows):
            raise ValueError(f"penalty rows must be {grid.ny} rows of {grid.nx} values")
        self.by_cell = x_major(rows)
        if not all(p >= 0.0 for p in self.by_cell):
            raise ValueError("negative or NaN edge penalty")


class _Side:
    """The setup both side types share: the 24 seed states at the origin's
    ground cell, the mask's bands, the coster's price memo and the optional
    ``potential``, consistent per column numbered x-major and added to each
    heap key.  A backward side stores states in reverse orientation and
    advances through the reversed graph; a unit move costs the same in
    either direction."""

    def __init__(
        self,
        grid: TerrainGrid,
        mask: Optional[HeightMask],
        coster: EdgeCoster,
        origin: tuple[int, int],
        forward: bool,
        potential: Optional[list[float]],
    ):
        check_mask_shape(grid, mask)
        x, y, z = _ground_cell(grid, origin)
        if mask is not None and not mask.admits(x, y, z):
            raise ValueError(f"ground level at {origin} not admissible under mask")
        self.states = coster.states
        self.coster = coster
        # Looked up on the instance, so that a rebound _compute sees each miss.
        self.compute = coster._compute
        self.forward = forward
        self.potential = potential
        self.lo, self.hi = coster.bands(mask)
        first = 24 * self.states.position(x, y, z)
        self.seeds = range(first, first + 24)
        self.seed_key = potential[x * grid.ny + y] if potential is not None else 0.0
        self.heap: list = []

    def pick(self) -> Optional[_Side]:
        return self if self.heap else None

    def chain(self, item) -> list[AugVertex]:
        """The states from the origin to ``item``'s tip."""
        chain = list(self.trail(item))
        chain.reverse()
        return [self.states.decode(s) for s in chain]


class _Sweep(_Side):
    """One direction of a one-label sweep: each state keeps its cheapest
    cost in the int-keyed dict ``dist`` and its predecessor in ``parent``,
    as in Dijkstra, so memory grows with the states touched.

    :meth:`rekey` swaps in a potential that is nowhere smaller.
    ``edge_filter`` and ``penalty`` are read at the column each move enters;
    a rule built for a grid of another shape raises ``ValueError``.
    Heap entries are ``(key, state)``, and a popped entry whose state has
    settled is skipped.
    """

    def __init__(
        self,
        grid: TerrainGrid,
        mask: Optional[HeightMask],
        coster: EdgeCoster,
        origin: tuple[int, int],
        forward: bool = True,
        potential: Optional[list[float]] = None,
        edge_filter: Optional[CellFilter] = None,
        penalty: Optional[CellPenalty] = None,
    ):
        super().__init__(grid, mask, coster, origin, forward, potential)
        for rule in (edge_filter, penalty):
            if rule is not None and rule.shape != (grid.nx, grid.ny):
                raise ValueError(f"{type(rule).__name__} built for a {rule.shape} grid, searched on {(grid.nx, grid.ny)}")
        self.cells = edge_filter.open if edge_filter is not None else None
        self.surcharge = penalty.by_cell if penalty is not None else None
        self.dist: dict[int, float] = dict.fromkeys(self.seeds, 0.0)
        self.parent: dict[int, int] = {}
        self.settled: set[int] = set()
        self.heap = [(self.seed_key, s) for s in self.seeds]

    def held(self) -> int:
        return len(self.dist)

    def pop_settle(self) -> Optional[tuple[float, int, int]]:
        heap, settled = self.heap, self.settled
        while heap:
            key, s = heapq.heappop(heap)
            if s not in settled:
                settled.add(s)
                return key, s, s
        return None

    def relax(self, s: int) -> None:
        dist, parent, settled, heap = self.dist, self.parent, self.settled, self.heap
        potential, cells, surcharge = self.potential, self.cells, self.surcharge
        prices, span = self.coster.prices, self.coster.span
        states = self.states
        nz = states.nz
        du = dist[s]
        p = s // 24
        pk = p * span
        inf = math.inf
        push = heapq.heappush
        for w in states.moves(s, self.lo, self.hi, self.forward):
            if w in settled:
                continue
            p2 = w // 24
            c2 = p2 // nz
            if cells is not None and not cells[c2]:
                continue
            key = pk + p2 if p < p2 else p2 * span + p
            c = prices.get(key)
            if c is None:
                c = prices[key] = self.compute(*states.xyz(min(p, p2)), *states.xyz(max(p, p2)))
            if surcharge is not None:
                c = c + surcharge[c2]
            nd = du + c
            if nd < dist.get(w, inf):
                dist[w] = nd
                parent[w] = s
                push(heap, (nd + potential[c2] if potential is not None else nd, w))

    def rekey(self, potential: list[float]) -> None:
        """Key the open states by ``potential``."""
        dist, settled, nz = self.dist, self.settled, self.states.nz
        self.potential = potential
        self.heap = [(dist[w] + potential[w // 24 // nz], w) for w in {w for _, w in self.heap if w not in settled}]
        heapq.heapify(self.heap)

    def cost(self, s: int) -> float:
        return self.dist[s]

    def mates(self, s: int) -> tuple:
        """The settled items at state ``s``."""
        return (s,) if s in self.settled else ()

    def trail(self, s: int) -> Iterator[int]:
        """The states from ``s`` back to the origin."""
        parent = self.parent
        yield s
        while s in parent:
            s = parent[s]
            yield s


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
    edge_filter: Optional[CellFilter],
    penalty: Optional[CellPenalty],
    stats: Optional[SearchStats],
    guided: bool,
    coster: Optional[EdgeCoster],
    deadline: Optional[float],
    label_cap: Optional[int],
) -> Optional[Path]:
    for name, rule, kind in (("edge_filter", edge_filter, CellFilter), ("penalty", penalty, CellPenalty)):
        if rule is not None and not isinstance(rule, kind):
            raise TypeError(f"{name} must be a {kind.__name__}, not {type(rule).__name__}")
    coster = coster if coster is not None else EdgeCoster(grid, model)
    potential = coster.astar_potential(mask, dst, build=False) if guided else None
    switch_at = -1
    if guided and potential is None:
        # Start on the straight-line bound and build the planar field once
        # the query has spent about what a build costs (the ski-rental rule):
        # one build takes as long as nx*ny/2 to nx*ny/6 cold straight-line
        # settles on the benchmark maps, so switch after nx*ny/4.  A query
        # that ends sooner, like the 76-settle ones on the lane maps, never
        # pays for a field.
        potential = x_major(straight_line_rows(grid, model, dst))
        switch_at = grid.nx * grid.ny // 4
    sweep = _Sweep(grid, mask, coster, src, potential=potential, edge_filter=edge_filter, penalty=penalty)
    goal = coster.states.position(*_ground_cell(grid, dst))
    stats = stats if stats is not None else SearchStats()
    for _, _, s, _ in _settles(sweep, stats, deadline, label_cap):
        if s // 24 == goal:
            return Path(vertices=sweep.chain(s), total_cost=0.0).price(coster)
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
    edge_filter: Optional[CellFilter] = None,
    penalty: Optional[CellPenalty] = None,
    stats: Optional[SearchStats] = None,
    coster: Optional[EdgeCoster] = None,
    *,
    deadline: Optional[float] = None,
    label_cap: Optional[int] = None,
) -> Optional[Path]:
    """Minimum-cost path between ground points, or None if disconnected.

    ``edge_filter`` is a :class:`CellFilter` and ``penalty`` a
    :class:`CellPenalty`; another type raises ``TypeError``.  The search
    gives up, returning None and setting ``stats.incomplete``, when a
    settle finds ``deadline`` (a :func:`time.monotonic` time) passed or
    more than ``label_cap`` states labelled.
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
    edge_filter: Optional[CellFilter] = None,
    penalty: Optional[CellPenalty] = None,
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
    that share the coster use it from their first settle.  Both bounds
    hold under every rule a search accepts: an ``edge_filter`` only
    removes edges, and a :class:`CellPenalty` is never negative.
    """
    return _single_source(
        grid, model, mask, src, dst, edge_filter, penalty, stats, True, coster, deadline, label_cap
    )


class _Label(Profile):
    """A partial path of a multi-label side: cost, tip state, parent link and
    the lateral :class:`~corridor.dissimilarity.Profile` of its states; the
    tip's column is ``(x, y)``."""

    __slots__ = ("cost", "state", "parent", "alive")

    def __init__(self, cost, state, parent, x, y):
        self.cost = cost
        self.state = state
        self.parent = parent
        self.alive = True
        Profile.__init__(self, parent, x, y)


class _LabelSide(_Side):
    """One direction of a multi-label sweep, up to ``cap`` mutually
    dissimilar labels per state, with the settle interface of :class:`_Sweep`.

    A new label must price within the cost bar of the state's cheapest
    label.  An offer below the cheapest cost first drops the labels above
    its lowered bar; then :func:`~corridor.dissimilarity.place` decides
    whether it joins, replaces a label or is rejected, taking two labels as
    too similar when :func:`~corridor.dissimilarity.profile_area` is below
    ``stop_cells`` at their column (``min_diff`` percent of the map width
    times its distance from the origin, in grid cells).  A state
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
        potential: Optional[list[float]] = None,
    ):
        super().__init__(grid, mask, coster, origin, forward, potential)
        self.cap = cap
        self.max_diff = max_diff
        self.per_column = 24 * self.states.nz
        dxy, (ox, oy) = grid.dxy, origin
        self.stop_cells = [min_diff * grid.width_m * max(math.hypot(x - ox, y - oy) * dxy, dxy) / (100.0 * dxy * dxy)
                           for x in range(grid.nx) for y in range(grid.ny)]
        self.labels: dict[int, list[_Label]] = {}
        self.settled: dict[int, list[_Label]] = {}
        self.closed: set[int] = set()
        self._held = 0
        self._seq = 0
        for s in self.seeds:
            self._push(_Label(0.0, s, None, *origin))

    def _push(self, label: _Label) -> None:
        self._seq += 1
        state = label.state
        self.labels.setdefault(state, []).append(label)
        self._held += 1
        key = label.cost
        if self.potential is not None:
            key += self.potential[state // self.per_column]
        heapq.heappush(self.heap, (key, state, self._seq, label))

    def _kill(self, label: _Label) -> None:
        label.alive = False
        self.labels[label.state].remove(label)
        self._held -= 1

    def held(self) -> int:
        return self._held

    def pop_settle(self) -> Optional[tuple[float, int, _Label]]:
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
        s, cost, closed, keep = label.state, label.cost, self.closed, self._keep_dissimilar
        prices, span, xyz = self.coster.prices, self.coster.span, self.states.xyz
        p = s // 24
        pk = p * span
        for w in self.states.moves(s, self.lo, self.hi, self.forward):
            if w in closed:
                continue
            p2 = w // 24
            key = pk + p2 if p < p2 else p2 * span + p
            c = prices.get(key)
            if c is None:
                c = prices[key] = self.compute(*xyz(min(p, p2)), *xyz(max(p, p2)))
            keep(label, w, cost + c)

    def _keep_dissimilar(self, parent: _Label, state: int, cost: float) -> None:
        bucket = self.labels.get(state)
        cheapest = math.inf
        for l in bucket or ():
            if l.cost < cheapest:
                cheapest = l.cost
        if cost > cost_bar(cheapest, self.max_diff):
            return
        if bucket and cost < cheapest:
            for other in [l for l in bucket if l.cost > cost_bar(cost, self.max_diff)]:
                self._kill(other)
        column = state // self.per_column
        x, y = divmod(column, self.states.ny)
        label = None
        if bucket:
            stop = self.stop_cells[column]

            def too_similar(i: int) -> bool:
                nonlocal label
                if label is None:
                    label = _Label(cost, state, parent, x, y)
                return profile_area(label, bucket[i], stop) < stop

            decision = place([l.cost for l in bucket], too_similar, cost, self.cap)
            if decision is REJECT:
                return
            if decision is not ADD:
                self._kill(bucket[decision.index])
        self._push(label if label is not None else _Label(cost, state, parent, x, y))

    def cost(self, label: _Label) -> float:
        return label.cost

    def mates(self, state: int) -> list[_Label]:
        """The settled labels at ``state``."""
        return self.settled.get(state, [])

    def trail(self, label: _Label) -> Iterator[int]:
        """The states from ``label``'s tip back to the origin."""
        l: Optional[_Label] = label
        while l is not None:
            yield l.state
            l = l.parent


class BidiEngine:
    """Bidirectional search emitting every settled meeting pair as a path.

    Each direction is a :class:`_Sweep` when ``labels`` is 1, else a
    :class:`_LabelSide` keeping up to ``labels`` labels per state, whose
    per-state rule ``min_diff`` and ``max_diff`` set; both run on int
    states.  With ``use_ikeda`` each side is keyed by the per-column A*
    potential to its far end
    (:meth:`~corridor.cost.EdgeCoster.astar_potential`), else by plain
    cost.  The backward search runs on the reversed graph with states
    stored in reverse orientation
    (:meth:`~corridor.graph.StateNumbering.flip`); a forward label with
    orientation (h, v) therefore pairs with the backward labels at
    (h+4 mod 8, -v) on the same position — other orientation pairs are
    distinct meets.  Each settle yields one unpriced :class:`Meet` per
    settled label at its mate state: the two labels' chains of int states
    joined, with the sum of their costs as ``total_cost``; no vertex is
    decoded until a consumer reads one.

    The side with the lower key grows (:meth:`pick`).  A cutoff (settable
    at construction or any time via :meth:`set_cutoff`) stops the search
    once both keys pass it, having emitted every meet within it; the
    ``bds`` and ``hybrid`` selection lowers it as meets come in, to the
    dearest held corridor once it holds k of them.  The
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
        to_dst = coster.astar_potential(mask, dst) if use_ikeda else None
        to_src = coster.astar_potential(mask, src) if use_ikeda else None
        if labels == 1:
            self._fwd = _Sweep(grid, mask, coster, src, True, to_dst)
            self._bwd = _Sweep(grid, mask, coster, dst, False, to_src)
        else:
            self._fwd = _LabelSide(grid, mask, coster, src, True, labels, min_diff, max_diff, to_dst)
            self._bwd = _LabelSide(grid, mask, coster, dst, False, labels, min_diff, max_diff, to_src)

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

    def events(self) -> Iterator[Meet]:
        """Generate meet paths until both frontiers pass the cutoff or drain,
        or a limit stops the search."""
        fwd, bwd = self._fwd, self._bwd
        for side, _, state, item in _settles(self, self.stats, self._deadline, self._label_cap):
            forward = side is fwd
            for mate in (bwd if forward else fwd).mates(side.states.flip(state)):
                f, b = (item, mate) if forward else (mate, item)
                total = fwd.cost(f) + bwd.cost(b)
                if total <= self._cutoff_bar():
                    yield self._meet(f, b, total)

    def _meet(self, f, b, total: float) -> Meet:
        states = list(self._fwd.trail(f))
        states.reverse()
        back = self._bwd.trail(b)
        next(back)  # the meeting state, already the forward chain's tip
        states.extend(map(StateNumbering.flip, back))
        return Meet(tuple(states), self._fwd.states, total)


# The engine's constructor is the public entry point; iterate ``events()``.
bidi_engine = BidiEngine
