"""Properties of the relaxed planar lower bound that guides A*.

Random small grids, masks (none, HR, EHR) and destinations.  On grids this
small almost every query settles more states than the grid has columns, so
the searches below run across the switch to the planar field.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from corridor import expanding_height_mask, simple_height_mask
from corridor.cost import EdgeCoster, astar_heuristic, planar_bound, straight_line_rows, unit_move_prices
from corridor.graph import AugVertex, z_bounds
from corridor.search import SearchStats, astar, dijkstra
from corridor.terrain import DIR8, synth_terrain

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
            assert h[u[1]][u[0]] <= c + h[w[1]][w[0]]


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
    assert h[dst[1]][dst[0]] == 0.0
    planar = planar_bound(grid, model, mask, dst)
    assert planar[dst[1], dst[0]] == 0.0
    dest_m = (dst[0] * grid.dxy, dst[1] * grid.dxy)
    rows = straight_line_rows(grid, model, dst)
    for y in range(grid.ny):
        for x in range(grid.nx):
            straight = astar_heuristic(model, (x * grid.dxy, y * grid.dxy), dest_m)
            assert rows[y][x] == straight
            assert h[y][x] >= straight
            assert h[y][x] == max(straight, planar[y, x])


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
    assert sa.expansions > grid.nx * grid.ny, "the query never reached the switch"
    # 861 settles under either mask; left on their straight-line keys, the
    # open states at the switch would drag it to about 3,000.
    assert sa.expansions < 1.25 * grid.nx * grid.ny
    assert pa.total_cost == pytest.approx(pd.total_cost, rel=1e-12)
    assert sa.expansions <= sd.expansions
    keys = sa.settle_keys
    assert all(a <= b for a, b in zip(keys, keys[1:]))


def test_field_memoised_per_mask_and_dst(model, monkeypatch):
    import corridor.cost as cost

    builds = []
    build = cost.planar_bound
    monkeypatch.setattr(cost, "planar_bound", lambda *a: builds.append(a[2:]) or build(*a))
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
    assert math.isfinite(coster.astar_potential(mask, src, build=False)[dst[1]][dst[0]])
