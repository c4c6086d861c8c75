import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor import CostModel, HeightMask, MultipathConfig, TerrainGrid, bidi_engine, simple_height_mask, solve
from corridor.cost import EdgeCoster
from corridor.dissimilarity import Profile
from corridor.graph import AugVertex, ground_z_index, successors3do
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
        wall = CellFilter(g, [(5, y) for y in range(5)])
        assert dijkstra(g, model, None, (0, 2), (9, 2), edge_filter=wall) is None

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

    def test_settle_order_monotone_on_reduced_keys(self, model):
        grid, mask, src, dst = random_instance(5)
        stats = SearchStats(settle_keys=[])
        astar(grid, model, mask, src, dst, stats=stats)
        keys = stats.settle_keys
        assert all(a <= b + 1e-12 for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("search", [dijkstra, astar])
@pytest.mark.parametrize("rule, kind", [("edge_filter", "CellFilter"), ("penalty", "CellPenalty")])
def test_callable_rules_rejected(model, search, rule, kind):
    # Rules are per column.  This per-edge callable, negative on moves into
    # row 0, used to make astar return 190.0 without pricing such a move.
    g = flat_grid(nx=20, ny=9)
    with pytest.raises(TypeError, match=kind):
        search(g, model, None, (0, 4), (19, 4), **{rule: lambda u, w: -9.0 if w.y == 0 else 0.0})


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


@pytest.mark.parametrize("shape", [(8, 5), (3, 8), (5, 7), (5, 9)])
def test_cell_penalty_rows_must_be_ny_rows_of_nx(shape):
    # 8 rows of 5 used to be read in the wrong layout, 3 rows of 8 to fail
    # with IndexError inside the search.
    rows = [[1.0] * shape[1] for _ in range(shape[0])]
    with pytest.raises(ValueError, match="5 rows of 8 values"):
        CellPenalty(flat_grid(nx=8, ny=5), rows)


@pytest.mark.parametrize("column", [(0, 5), (0, -1), (8, 0), (-1, 2)])
def test_cell_filter_rejects_a_column_off_the_grid(column):
    # (0, 5) used to block (1, 0), and (0, -1) to block (7, 4).
    with pytest.raises(ValueError, match=rf"blocked column \({column[0]}, {column[1]}\) outside grid"):
        CellFilter(flat_grid(nx=8, ny=5), {(3, 2), column})


@pytest.mark.parametrize("search", [dijkstra, astar])
def test_wall_table_of_a_transposed_grid_rejected(model, search):
    # The same nx * ny cells: a wall at x = 2 built on 8x5 used to block
    # (1, 2)-(1, 6) on 5x8, and the path detoured through x = 0.
    wall = CellFilter(flat_grid(nx=8, ny=5), {(2, y) for y in range(5)})
    with pytest.raises(ValueError, match=r"CellFilter built for a \(8, 5\) grid, searched on \(5, 8\)"):
        search(flat_grid(nx=5, ny=8), model, None, (1, 0), (1, 7), edge_filter=wall)


@pytest.mark.parametrize("search", [dijkstra, astar])
@pytest.mark.parametrize("rule", ["edge_filter", "penalty"])
def test_table_of_a_smaller_grid_rejected(model, search, rule):
    # An open table built on 8x5 used to raise IndexError inside the sweep
    # once a 10x5 search reached x = 8.
    small = flat_grid(nx=8, ny=5)
    table = CellFilter(small, ()) if rule == "edge_filter" else CellPenalty(small, [[0.0] * 8 for _ in range(5)])
    with pytest.raises(ValueError, match=rf"{type(table).__name__} built for a \(8, 5\) grid, searched on \(10, 5\)"):
        search(flat_grid(nx=10, ny=5), model, None, (0, 2), (9, 2), **{rule: table})


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


@settings(max_examples=40, deadline=None)
@given(small_instances(), st.sampled_from((1, 2)), st.booleans())
def test_a_meet_is_its_chain_of_int_states(inst, labels, guided):
    # A meet carries the int states of its chain; the vertices it decodes on
    # first read are those of both sides' chains decoded, the backward one
    # flipped, and its profile, built from the states' columns, is the
    # decoded path's.
    grid, model, mask, src, dst = inst
    eng = bidi_engine(grid, model, mask, src, dst, use_ikeda=guided, labels=labels, min_diff=12.0, max_diff=10.0)
    numbering, meet = eng._fwd.states, eng._meet
    decoded = []

    def spy(f, b, total):
        back = eng._bwd.trail(b)
        next(back)
        decoded.append(eng._fwd.chain(f) + [numbering.decode(numbering.flip(s)) for s in back])
        return meet(f, b, total)

    eng._meet = spy
    chains = {}
    for n, m in enumerate(itertools.islice(eng.events(), 300)):
        key, prof = m.key(), m.profile()
        assert m._vertices is None  # neither the key nor the profile decodes
        assert m.vertices == decoded[n]
        assert key == m.states == tuple(numbering.encode(v) for v in m.vertices)
        assert prof.means() == Profile.of_path(m.vertices).means()
        assert chains.setdefault(key, tuple(m.vertices)) == tuple(m.vertices)
    assert len(set(chains.values())) == len(chains)


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

