import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor import CostModel, HeightMask, MultipathConfig, TerrainGrid, bidi_engine, simple_height_mask, solve
from corridor.cost import EdgeCoster
from corridor.graph import AugVertex, ground_z_index, successors3do
from corridor.multipath import _corridor_penalty
from corridor.search import CellFilter, CellPenalty, SearchStats, _LabelSide, _settles, astar, dijkstra
from corridor.terrain import synth_terrain

from conftest import flat_grid, lane_grid
from strategies import small_instances


def exhaustive_best(grid, model, mask, src, dst, max_edges):
    """Depth-first enumeration of all state-simple paths up to a hop bound."""
    coster = EdgeCoster(grid, model)
    dst_state = (dst[0], dst[1], ground_z_index(grid, dst[0], dst[1]))
    best = [math.inf]

    def dfs(state, cost, visited, edges_left, path_costs):
        if cost >= best[0]:
            return
        if (state.x, state.y, state.z) == dst_state:
            total = math.fsum(path_costs)
            if total < best[0]:
                best[0] = total
        if edges_left == 0:
            return
        succ = sorted(successors3do(grid, state, mask), key=lambda w: coster(state, w))
        for w in succ:
            if w in visited:
                continue
            ec = coster(state, w)
            visited.add(w)
            path_costs.append(ec)
            dfs(w, cost + ec, visited, edges_left - 1, path_costs)
            path_costs.pop()
            visited.remove(w)

    sz = ground_z_index(grid, src[0], src[1])
    for h in range(8):
        for v in (-1, 0, 1):
            s = AugVertex(src[0], src[1], sz, h, v)
            dfs(s, 0.0, {s}, max_edges, [])
    return best[0]


def random_instance(seed, nx=12, ny=8, relief=4.0):
    grid = synth_terrain(seed, nx, ny, relief)
    mask = simple_height_mask(grid, 1.0, 1)
    return grid, mask, (0, ny // 2), (nx - 1, ny // 2)


class TestDijkstra:
    def test_flat_grid_straight_line(self, model):
        g = flat_grid(nx=20, ny=9)
        p = dijkstra(g, model, None, (0, 4), (19, 4))
        assert [v.y for v in p.vertices] == [4] * 20
        assert [v.x for v in p.vertices] == list(range(20))
        assert p.total_cost == pytest.approx(19 * 10.0)

    def test_wall_disconnects(self, model):
        g = flat_grid(nx=10, ny=5)
        blocked = lambda u, w: w.x != 5
        assert dijkstra(g, model, None, (0, 2), (9, 2), edge_filter=blocked) is None

    def test_matches_exhaustive_enumeration(self, model):
        for seed, (a, b) in [(1, (0.03, 0.02)), (2, (0.05, -0.03)), (3, (0.0, 0.06))]:
            xs, ys = np.meshgrid(np.arange(6) * 10.0, np.arange(6) * 10.0)
            g = TerrainGrid(nx=6, ny=6, dxy=10, dz=1, z=a * xs + b * ys + 3.0)
            mask = simple_height_mask(g, 1.0, 0)
            brute = exhaustive_best(g, model, mask, (0, 2), (5, 3), 9)
            p = dijkstra(g, model, mask, (0, 2), (5, 3))
            assert len(p.vertices) - 1 <= 9  # enumeration bound covers the optimum
            assert p.total_cost == brute

    def test_path_invariants(self, model):
        grid, mask, src, dst = random_instance(7)
        p = dijkstra(grid, model, mask, src, dst)
        p.validate(grid, model, mask)

    def test_deterministic(self, model):
        grid, mask, src, dst = random_instance(9)
        p1 = dijkstra(grid, model, mask, src, dst)
        p2 = dijkstra(grid, model, mask, src, dst)
        assert p1.vertices == p2.vertices

    def test_negative_penalty_rejected(self, model):
        g = flat_grid(nx=6, ny=4)
        with pytest.raises(ValueError):
            dijkstra(g, model, None, (0, 1), (5, 1), penalty=lambda u, w: -100.0)

    def test_expansions_on_fixture_unchanged(self, model, lane_model):
        # Figures of the engine before the vertical hull was cached.
        grid, mask, src, dst = random_instance(3)
        stats = SearchStats()
        assert dijkstra(grid, model, mask, src, dst, stats=stats).total_cost == 277.8038062961107
        assert stats.expansions == 1144
        lanes = lane_grid()
        stats = SearchStats()
        dijkstra(lanes, lane_model, simple_height_mask(lanes, 1.0, 3), (0, 12), (52, 12), stats=stats)
        assert stats.expansions == 11644

    @pytest.mark.parametrize("search", [dijkstra, astar])
    def test_limits_cut_the_search_short(self, model, search):
        grid, mask, src, dst = random_instance(3)
        for limits in (dict(deadline=0.0), dict(label_cap=50)):
            stats = SearchStats()
            assert search(grid, model, mask, src, dst, stats=stats, **limits) is None
            assert stats.incomplete and stats.expansions <= 50
        stats = SearchStats()
        loose = search(grid, model, mask, src, dst, stats=stats, deadline=math.inf, label_cap=10**9)
        assert loose.vertices == search(grid, model, mask, src, dst).vertices
        assert not stats.incomplete

    def test_settle_order_monotone(self, model):
        grid, mask, src, dst = random_instance(3)
        stats = SearchStats(settle_keys=[])
        dijkstra(grid, model, mask, src, dst, stats=stats)
        keys = stats.settle_keys
        assert all(a <= b + 1e-12 for a, b in zip(keys, keys[1:]))


class TestAstar:
    def test_same_cost_as_dijkstra(self, model):
        for seed in range(20):
            grid, mask, src, dst = random_instance(seed)
            pd = dijkstra(grid, model, mask, src, dst)
            pa = astar(grid, model, mask, src, dst)
            assert pa.total_cost == pytest.approx(pd.total_cost, rel=1e-9)

    def test_expansions_never_exceed_dijkstra(self, model):
        for seed in range(10):
            grid, mask, src, dst = random_instance(seed)
            sd, sa = SearchStats(), SearchStats()
            dijkstra(grid, model, mask, src, dst, stats=sd)
            astar(grid, model, mask, src, dst, stats=sa)
            assert sa.expansions <= sd.expansions

    def test_src_equals_dst(self, model):
        g = flat_grid(nx=6, ny=4)
        p = astar(g, model, None, (2, 2), (2, 2))
        assert p.total_cost == 0.0 and len(p.vertices) == 1

    def test_negative_penalty_rejected(self, model):
        # A negative penalty breaks both bounds even where c + p stays >= 0.
        # With it on edges into row 0, dijkstra used to find an effective
        # cost of 92.56 and astar to return 190.0.  Both raise on the first
        # negative penalty they price; astar never prices an edge into row 0
        # there, so it is given the penalty on row 3, next to its route.
        g = flat_grid(nx=20, ny=9)
        coster = EdgeCoster(g, model)
        for search, row in ((dijkstra, 0), (astar, 3)):
            penalty = lambda u, w: -0.9 * coster(u, w) if w.y == row else 0.0
            with pytest.raises(ValueError):
                search(g, model, None, (0, 4), (19, 4), penalty=penalty)

    def test_settle_order_monotone_on_reduced_keys(self, model):
        grid, mask, src, dst = random_instance(5)
        stats = SearchStats(settle_keys=[])
        astar(grid, model, mask, src, dst, stats=stats)
        keys = stats.settle_keys
        assert all(a <= b + 1e-12 for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("search", [dijkstra, astar])
def test_nan_penalty_rejected(model, search):
    # With the penalty NaN on edges into row 2, dijkstra used to return a
    # cost of 98.28 (a detour via row 4) and astar 92.43 (through row 2).
    g = flat_grid(nx=8, ny=5)
    with pytest.raises(ValueError, match="NaN"):
        search(g, model, None, (0, 2), (7, 2), penalty=lambda u, w: math.nan if w.y == 2 else 0.0)


@pytest.mark.parametrize("search", [dijkstra, astar])
@pytest.mark.parametrize("src, dst", [((0, 2), (1, -1)), ((0, 2), (8, 0)), ((-1, 2), (7, 2)), ((0, 5), (7, 2))])
def test_endpoints_off_the_grid_rejected(model, search, src, dst):
    # States are numbered x-major, so (1, -1) would be read as (0, 4).
    with pytest.raises(ValueError, match="outside grid"):
        search(flat_grid(nx=8, ny=5), model, None, src, dst)


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_cell_penalty_rows_checked_when_built(bad):
    rows = [[0.0] * 4 for _ in range(3)]
    rows[1][2] = bad
    with pytest.raises(ValueError, match="negative or NaN"):
        CellPenalty(flat_grid(nx=4, ny=3), rows)


@st.composite
def cell_rules(draw):
    """An instance with blocked columns and a penalty per column."""
    inst = draw(small_instances())
    grid = inst[0]
    cells = [(x, y) for x in range(grid.nx) for y in range(grid.ny)]
    blocked = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 3))
    levels = st.sampled_from((0.0, 0.5, 2.0, 7.25, 40.0))
    rows = draw(st.lists(st.lists(levels, min_size=grid.nx, max_size=grid.nx), min_size=grid.ny, max_size=grid.ny))
    return inst, blocked, rows


@settings(max_examples=60, deadline=None)
@given(cell_rules(), st.booleans(), st.sampled_from((10.0, 40.0, 160.0)))
def test_cell_rules_search_as_callables(case, guided, width):
    # se's walls and ipa's surcharge are read per column; as (u, w)
    # callables the same rules give the same path, cost and settles.
    (grid, model, mask, src, dst), blocked, rows = case
    search = astar if guided else dijkstra
    best = search(grid, model, mask, src, dst)
    accepted = [] if best is None else [best]
    ipa = _corridor_penalty(grid, accepted, width)
    cases = [
        (dict(edge_filter=CellFilter(grid, blocked)), dict(edge_filter=lambda u, w: (w.x, w.y) not in blocked)),
        (dict(penalty=CellPenalty(grid, rows)), dict(penalty=lambda u, w: rows[w.y][w.x])),
        (dict(penalty=ipa), dict(penalty=lambda u, w: ipa.by_cell[w.x * grid.ny + w.y])),
        (dict(edge_filter=CellFilter(grid, blocked), penalty=CellPenalty(grid, rows)),
         dict(edge_filter=lambda u, w: (w.x, w.y) not in blocked, penalty=lambda u, w: rows[w.y][w.x])),
    ]
    for per_cell, per_edge in cases:
        runs = []
        for rules in (per_cell, per_edge):
            stats = SearchStats()
            p = search(grid, model, mask, src, dst, stats=stats, **rules)
            runs.append((None if p is None else (p.vertices, repr(p.total_cost)), stats.expansions))
        assert runs[0] == runs[1]


class TestBidiEngine:
    def test_optimal_cutoff_reaches_optimum(self, model):
        for seed in range(10):
            grid, mask, src, dst = random_instance(seed)
            opt = dijkstra(grid, model, mask, src, dst).total_cost
            eng = bidi_engine(grid, model, mask, src, dst, cutoff=opt)
            totals = [p.total_cost for p in eng.events()]
            assert totals, "no meets produced"
            assert min(totals) == pytest.approx(opt, rel=1e-9)
            # cutoff semantics: nothing beyond the bar is emitted
            assert all(t <= opt * (1 + 1e-9) + 1e-9 for t in totals)

    def test_ikeda_matches_dijkstra(self, model):
        for seed in range(10):
            grid, mask, src, dst = random_instance(seed)
            opt = dijkstra(grid, model, mask, src, dst).total_cost
            eng = bidi_engine(grid, model, mask, src, dst, cutoff=opt, use_ikeda=True)
            totals = [p.total_cost for p in eng.events()]
            assert totals and min(totals) == pytest.approx(opt, rel=1e-9)

    def test_event_paths_are_valid(self, model):
        grid, mask, src, dst = random_instance(2)
        opt = dijkstra(grid, mask=mask, model=model, src=src, dst=dst).total_cost
        eng = bidi_engine(grid, model, mask, src, dst, cutoff=1.05 * opt)
        coster = EdgeCoster(grid, model)
        n = 0
        for path in eng.events():
            total = path.total_cost
            path.price(coster)
            path.validate(grid, model, mask)
            assert path.total_cost == pytest.approx(total, rel=1e-9)
            assert path.vertices[0].x == src[0] and path.vertices[-1].x == dst[0]
            n += 1
            if n > 200:
                break
        assert n > 0

    def test_flat_grid_includes_straight_and_lateral_meets(self, model):
        g = flat_grid(nx=36, ny=9)
        src, dst = (0, 4), (35, 4)
        opt = 35 * 10.0
        eng = bidi_engine(g, model, None, src, dst, cutoff=1.10 * opt)
        lateral = 0
        straight = 0
        for path in eng.events():
            ys = [v.y for v in path.vertices]
            if max(abs(y - 4) for y in ys) >= 3:
                lateral += 1
            if all(y == 4 for y in ys):
                straight += 1
        assert straight > 0 and lateral > 0

    def test_cutoff_stops_expansion(self, model):
        grid, mask, src, dst = random_instance(4)
        opt = dijkstra(grid, model, mask, src, dst).total_cost
        tight = SearchStats()
        loose = SearchStats()
        list(bidi_engine(grid, model, mask, src, dst, cutoff=opt, stats=tight).events())
        list(bidi_engine(grid, model, mask, src, dst, cutoff=1.2 * opt, stats=loose).events())
        assert tight.expansions < loose.expansions


# On an 8x5 grid, the (5, 9) and (6, 8) masks used to make dijkstra and astar
# return a path over the wrong band, and the (1, 8) mask an IndexError.
@pytest.mark.parametrize("shape", [(5, 9), (6, 8), (1, 8)])
@pytest.mark.parametrize("run", [
    lambda g, m, mask: dijkstra(g, m, mask, (0, 2), (7, 2)),
    lambda g, m, mask: astar(g, m, mask, (0, 2), (7, 2)),
    lambda g, m, mask: list(bidi_engine(g, m, mask, (0, 2), (7, 2)).events()),
    *(lambda g, m, mask, a=a: solve(g, m, mask, (0, 2), (7, 2), MultipathConfig(k=2, algorithm=a))
      for a in ("se", "ipa", "kspa", "bds", "hybrid")),
    # The guided engine and kspa build the planar bound before any state is seeded.
    lambda g, m, mask: list(bidi_engine(g, m, mask, (0, 2), (7, 2), use_ikeda=True).events()),
    *(lambda g, m, mask, a=a: solve(g, m, mask, (0, 2), (7, 2), MultipathConfig(k=2, algorithm=a, use_astar=True))
      for a in ("kspa", "bds", "hybrid")),
], ids=["dijkstra", "astar", "bidi_engine", "se", "ipa", "kspa", "bds", "hybrid",
        "bidi_engine+ikeda", "kspa+astar", "bds+astar", "hybrid+astar"])
def test_mask_of_another_shape_rejected(model, shape, run):
    mask = HeightMask(np.full(shape, -2), np.full(shape, 2))
    with pytest.raises(ValueError, match=r"mask of shape \(\d+, \d+\) on a grid of shape \(5, 8\)"):
        run(flat_grid(nx=8, ny=5), model, mask)


def meets(inst, labels, guided, cutoff, stats=None):
    grid, model, mask, src, dst = inst
    eng = bidi_engine(grid, model, mask, src, dst, use_ikeda=guided, cutoff=cutoff, stats=stats,
                      labels=labels, min_diff=12.0, max_diff=10.0)
    return [(p.key(), p.total_cost) for p in eng.events()], eng._cutoff_bar()


@settings(max_examples=40, deadline=None)
@given(small_instances(), st.sampled_from((1, 2)), st.booleans())
def test_cutoff_keeps_every_meet_within_it(inst, labels, guided):
    # A meet costs at least either side's key at its state, so the engine
    # stops once both keys pass the cutoff: by then it has emitted every meet
    # within it, and settled no key above it but the one per side whose pop
    # ends that side.
    grid, model, mask, src, dst = inst
    best = dijkstra(grid, model, mask, src, dst)
    if best is None:
        return
    stats = SearchStats(settle_keys=[])
    cut, bar = meets(inst, labels, guided, 1.1 * best.total_cost, stats)
    assert sum(key > bar for key in stats.settle_keys) <= 2
    whole, _ = meets(inst, labels, guided, None)
    assert cut and cut == [m for m in whole if m[1] <= bar]


@settings(max_examples=40, deadline=None)
@given(small_instances())
def test_guided_engine_emits_the_unguided_meets(inst):
    # One label per state: both engines settle every state within the bar
    # at its true distance, so they make the same meets.  With several
    # labels, which of two equal-cost labels a state keeps depends on the
    # settle order, and on flat maps the two can keep different ones.
    grid, model, mask, src, dst = inst
    best = dijkstra(grid, model, mask, src, dst)
    if best is None:
        return
    plain, guided = (sorted(t for _, t in meets(inst, 1, g, 1.1 * best.total_cost)[0]) for g in (False, True))
    assert plain and len(guided) == len(plain)
    assert guided == pytest.approx(plain, rel=1e-9, abs=0.0)


def test_dropped_sides_are_freed_without_the_cycle_collector(model):
    # A side holds no reference back to itself, so dropping it frees its
    # labels at once instead of at the next cyclic collection.
    grid, mask, src, dst = random_instance(3)
    refs = []
    gc.disable()
    try:
        for labels in (1, 2):
            eng = bidi_engine(grid, model, mask, src, dst, labels=labels, min_diff=12.0, max_diff=10.0)
            assert sum(1 for _ in zip(range(50), eng.events())) == 50
            refs += [weakref.ref(eng._fwd), weakref.ref(eng._bwd)]
            del eng
        side = _LabelSide(grid, mask, EdgeCoster(grid, model), src, True, 3, 12.0, 10.0)  # as kspa builds it
        assert sum(1 for _ in zip(range(50), _settles(side, SearchStats(), None, None))) == 50
        refs.append(weakref.ref(side))
        del side
        assert [ref() for ref in refs] == [None] * 5
    finally:
        gc.enable()

