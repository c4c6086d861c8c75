"""Properties of the relaxed planar lower bound that guides A*.

Random small grids, masks (none, HR, EHR) and destinations.  A guided query
builds the field once it has settled a quarter as many states as the grid
has columns.  On grids this small almost every query gets that far, so the
searches below run across the switch to the planar field.  The field built
in column blocks is checked against the whole-band build it replaced.
"""

import dataclasses
import heapq
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor import cost, expanding_height_mask, simple_height_mask
from corridor.cost import CostModel, EdgeCoster, astar_heuristic, planar_bound, straight_line_rows, unit_move_prices
from corridor.graph import AugVertex, z_bounds
from corridor.search import SearchStats, astar, dijkstra
from corridor.terrain import DIR8, synth_terrain

from conftest import LANES_DST, LANES_SRC
from strategies import small_instances


def unit_moves(grid, mask):
    """Every (x, y, z) -> (x', y', z') move that some augmented edge makes."""
    for y in range(grid.ny):
        for x in range(grid.nx):
            lo, hi = z_bounds(grid, mask, x, y)
            for dx, dy in DIR8:
                x1, y1 = x + dx, y + dy
                if not (0 <= x1 < grid.nx and 0 <= y1 < grid.ny):
                    continue
                lo1, hi1 = z_bounds(grid, mask, x1, y1)
                for z in range(lo, hi + 1):
                    for z1 in (z - 1, z, z + 1):
                        if lo1 <= z1 <= hi1:
                            yield x, y, z, x1, y1, z1


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_consistent_on_every_edge(inst):
    grid, model, mask, _, dst = inst
    h = EdgeCoster(grid, model).astar_potential(mask, dst)
    for x, y, z, x1, y1, z1 in unit_moves(grid, mask):
        # A fresh coster per direction: the memo keeps whichever it priced first.
        for u, w in (((x, y, z), (x1, y1, z1)), ((x1, y1, z1), (x, y, z))):
            c = EdgeCoster(grid, model)._compute(*u, *w)
            assert h[u[0] * grid.ny + u[1]] <= c + h[w[0] * grid.ny + w[1]]


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_unit_moves_priced_the_same_both_ways(inst):
    grid, model, mask, _, _ = inst
    # One coster prices each unordered pair from one end, the other from the
    # other end, so neither memo answers for the opposite direction.
    pairs = {min(m[:3], m[3:]) + max(m[:3], m[3:]) for m in unit_moves(grid, mask)}
    ahead, back = EdgeCoster(grid, model), EdgeCoster(grid, model)
    for x, y, z, x1, y1, z1 in pairs:
        u, w = AugVertex(x, y, z, 0, 0), AugVertex(x1, y1, z1, 0, 0)
        assert ahead(u, w) == back(w, u)


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_zero_at_dst_and_above_straight_line(inst):
    grid, model, mask, _, dst = inst
    h = EdgeCoster(grid, model).astar_potential(mask, dst)
    assert h[dst[0] * grid.ny + dst[1]] == 0.0
    planar = planar_bound(grid, model, mask, dst)
    assert planar[dst[1], dst[0]] == 0.0
    dest_m = (dst[0] * grid.dxy, dst[1] * grid.dxy)
    rows = straight_line_rows(grid, model, dst)
    for y in range(grid.ny):
        for x in range(grid.nx):
            straight = astar_heuristic(model, (x * grid.dxy, y * grid.dxy), dest_m)
            assert rows[y][x] == straight
            assert h[x * grid.ny + y] >= straight
            assert h[x * grid.ny + y] == max(straight, planar[y, x])


@settings(max_examples=40, deadline=None)
@given(small_instances())
def test_vector_pricer_matches_scalar(inst):
    grid, model, mask, _, _ = inst
    moves = np.array(list(unit_moves(grid, mask)), dtype=np.int64)
    got = unit_move_prices(grid, model, *moves.T)
    coster = EdgeCoster(grid, model)
    want = np.array([coster._compute(*m) for m in moves.tolist()])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(want, 1e-300))


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_astar_equals_dijkstra_across_the_switch(inst):
    grid, model, mask, src, dst = inst
    sd, sa = SearchStats(), SearchStats(settle_keys=[])
    pd = dijkstra(grid, model, mask, src, dst, stats=sd)
    pa = astar(grid, model, mask, src, dst, stats=sa)
    assert (pa is None) == (pd is None)
    if pd is not None:
        assert pa.total_cost == pytest.approx(pd.total_cost, rel=1e-9, abs=1e-9)
    assert sa.expansions <= sd.expansions
    keys = sa.settle_keys
    assert all(a <= b + 1e-12 * max(1.0, abs(b)) for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("kind", ["hr", "ehr"])
def test_switch_on_relief(kind, model):
    grid = synth_terrain(2, 40, 20, 8.0)
    src, dst = (0, 10), (39, 10)
    if kind == "hr":
        mask = simple_height_mask(grid, 1.0, 3)
    else:
        mask = expanding_height_mask(grid, 0.5, model.max_grade, src=src, dst=dst)
    sd, sa = SearchStats(), SearchStats(settle_keys=[])
    pd = dijkstra(grid, model, mask, src, dst, stats=sd)
    pa = astar(grid, model, mask, src, dst, stats=sa)
    switch = grid.nx * grid.ny // 4
    assert sa.expansions > switch, "the query never reached the switch"
    # 268 settles under either mask; left on their straight-line keys, the
    # open states at the switch would drag it to about 1,000.
    assert sa.expansions < 1.5 * switch
    assert pa.total_cost == pytest.approx(pd.total_cost, rel=1e-12)
    assert sa.expansions <= sd.expansions
    keys = sa.settle_keys
    assert all(a <= b for a, b in zip(keys, keys[1:]))


def test_integer_spacings(model):
    # A grid may be given dxy and dz as ints; the field and every price it
    # is built from are those of the same grid with float spacings.
    grid = synth_terrain(2, 40, 20, 8.0, dxy=10, dz=1)
    floats = synth_terrain(2, 40, 20, 8.0, dxy=10.0, dz=1.0)
    mask = simple_height_mask(grid, 1.0, 3)
    src, dst = (0, 10), (39, 10)
    assert np.array_equal(planar_bound(grid, model, mask, dst), planar_bound(floats, model, mask, dst))
    moves = np.array(list(unit_moves(grid, mask)), dtype=np.int64)
    assert np.array_equal(unit_move_prices(grid, model, *moves.T), unit_move_prices(floats, model, *moves.T))
    sa = SearchStats()
    pa = astar(grid, model, mask, src, dst, stats=sa)
    assert sa.expansions > grid.nx * grid.ny // 4, "the query never reached the switch"
    assert pa.total_cost == pytest.approx(dijkstra(grid, model, mask, src, dst).total_cost, rel=1e-12)


def count_builds(monkeypatch) -> list:
    """Patch :func:`corridor.cost.planar_bound` to log the (mask, dst) of
    each build it makes."""
    builds = []
    build = cost.planar_bound
    monkeypatch.setattr(cost, "planar_bound", lambda *a: builds.append(a[2:]) or build(*a))
    return builds


def test_short_query_builds_no_field(lanes, lane_model, lanes_mask, monkeypatch):
    # A build would cost several times this whole query.
    builds = count_builds(monkeypatch)
    stats = SearchStats()
    path = astar(lanes, lane_model, lanes_mask, LANES_SRC, LANES_DST, stats=stats)
    assert path is not None and stats.expansions == 76 < lanes.nx * lanes.ny // 4
    assert builds == []


def test_field_memoised_per_mask_and_dst(model, monkeypatch):
    builds = count_builds(monkeypatch)
    grid = synth_terrain(2, 40, 20, 8.0)
    mask = simple_height_mask(grid, 1.0, 3)
    src, dst = (0, 10), (39, 10)
    coster = EdgeCoster(grid, model)
    first, second = SearchStats(), SearchStats()
    p1 = astar(grid, model, mask, src, dst, stats=first, coster=coster)
    p2 = astar(grid, model, mask, src, dst, stats=second, coster=coster)
    assert len(builds) == 1
    # The second query uses the field from its first settle.
    assert second.expansions < first.expansions
    assert p1.vertices == p2.vertices
    astar(grid, model, simple_height_mask(grid, 1.0, 3), src, dst, coster=coster)
    assert len(builds) == 2, "another mask object gets its own field"
    astar(grid, model, mask, dst, src, coster=coster)
    assert len(builds) == 3, "another destination gets its own field"
    assert math.isfinite(coster.astar_potential(mask, src, build=False)[dst[0] * grid.ny + dst[1]])


# The field as it was built before the band was priced in column blocks:
# every admissible (x, y, z) cell at once.
def whole_band_bound(grid, model, mask, dst):
    nx, ny = grid.nx, grid.ny
    lo = np.full((ny, nx), grid.z_min_index, dtype=np.int64)
    hi = np.full((ny, nx), grid.z_max_index, dtype=np.int64)
    if mask is not None:
        lo = np.maximum(lo, mask.z_lo)
        hi = np.minimum(hi, mask.z_hi)
    lo, hi = lo.ravel(), hi.ravel()
    sizes = hi - lo + 1
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    col = np.repeat(np.arange(nx * ny), sizes)
    cz = lo[col] + np.arange(col.size) - starts[col]
    cx, cy = col % nx, col // nx
    ground = grid.z.ravel()
    g0 = ground[col]
    r0 = cz * grid.dz
    offsets, weights = [], []
    for dx, dy in DIR8[:4]:
        tx, ty = cx + dx, cy + dy
        on = (tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
        tcol = np.where(on, ty * nx + tx, col)
        g1 = ground[tcol]
        if dx and dy:
            a, b = ground[cy * nx + np.where(on, tx, cx)], ground[np.where(on, ty, cy) * nx + cx]
            gm = 0.25 * (g0 + g1 + a + b) if dx > 0 else 0.25 * (g1 + g0 + b + a)
            length_2d = grid.dxy * 1.4142135623730951
        else:
            gm = 0.5 * (g0 + g1)
            length_2d = grid.dxy
        best = np.full(col.size, np.inf)
        for step in (-1, 0, 1):
            tz = cz + step
            i = np.nonzero(on & (tz >= lo[tcol]) & (tz <= hi[tcol]))[0]
            ga, gb, r1 = g0[i], g1[i], tz[i] * grid.dz
            if dx >= 0:
                price = cost._move_prices(model, ga, gm[i], gb, length_2d, r0[i], r1)
            else:
                price = cost._move_prices(model, gb, gm[i], ga, length_2d, r1, r0[i])
            best[i] = np.minimum(best[i], price)
        w = np.minimum.reduceat(best, starts) * (1.0 - 1e-12)
        back = np.full(nx * ny, np.inf)
        ok = np.nonzero(np.isfinite(w))[0]
        back[ok + dy * nx + dx] = w[ok]
        offsets += [dy * nx + dx, -(dy * nx + dx)]
        weights += [w, back]
    dist = [math.inf] * (nx * ny)
    t = dst[1] * nx + dst[0]
    dist[t] = 0.0
    heap = [(0.0, t)]
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue
        for off, w in zip(offsets, weights):
            if w[i] < math.inf and d + w[i] < dist[i + off]:
                dist[i + off] = d + w[i]
                heapq.heappush(heap, (d + w[i], i + off))
    return np.array(dist).reshape(ny, nx)


RATES = st.sampled_from((0.0, 0.5, 1.0, 3.0))


@settings(max_examples=80, deadline=None)
@given(small_instances(), RATES, RATES, RATES, st.sampled_from((1, 2, 7, 40, 4096)))
def test_blocks_equal_the_whole_band_build(inst, paving, cut, fill, block):
    grid, model, mask, _, dst = inst
    model = dataclasses.replace(model, paving_rate=paving, cut_rate=cut, fill_rate=fill)
    # Small blocks split these bands into many blocks, some a lone column
    # taller than the block.
    with mock.patch.object(cost, "_BLOCK_CELLS", block):
        got = planar_bound(grid, model, mask, dst)
    assert np.array_equal(got, whole_band_bound(grid, model, mask, dst))


def test_blocks_hold_the_grid_not_the_band():
    # With no mask every column spans the grid's whole relief, 105,000
    # cells here; priced all at once, they held about 30 MB.
    grid = synth_terrain(3, 100, 50, 20.0)
    tracemalloc.start()
    try:
        planar_bound(grid, CostModel(), None, (99, 25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
