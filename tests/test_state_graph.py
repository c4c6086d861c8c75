"""The one-label engines against scipy's Dijkstra on the explicit state graph.

Random small maps, cost models, masks (none, HR, EHR), endpoints and
per-column search rules.  The graph is enumerated from the 24 source seeds
through ``successors3do`` and priced by ``EdgeCoster``, so the oracle shares
the successor rule and the pricing with the engines but none of their search
code or their per-column tables.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor import bidi_engine
from corridor.cost import EdgeCoster
from corridor.graph import AugVertex, ground_z_index, successors3do
from corridor.search import CellFilter, CellPenalty, astar, dijkstra

from strategies import small_instances


def state_graph_optimum(grid, model, mask, src, dst, blocked=frozenset(), rows=None):
    """The cheapest cost from the source seeds to a destination ground state,
    by scipy's Dijkstra over the state graph enumerated with successors3do.
    An edge into a ``blocked`` column is dropped, and ``rows[y][x]`` is added
    to the price of each edge into column (x, y)."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    coster = EdgeCoster(grid, model)
    z = ground_z_index(grid, src[0], src[1])
    seeds = [AugVertex(src[0], src[1], z, h, v) for h in range(8) for v in (-1, 0, 1)]
    index = {s: i for i, s in enumerate(seeds)}
    heads, tails, prices = [], [], []
    todo = list(seeds)
    while todo:
        u = todo.pop()
        for w in successors3do(grid, u, mask):
            if (w.x, w.y) in blocked:
                continue
            if w not in index:
                index[w] = len(index)
                todo.append(w)
            heads.append(index[u])
            tails.append(index[w])
            prices.append(coster(u, w) + (rows[w.y][w.x] if rows is not None else 0.0))
    n = len(index)
    graph = sparse.csr_matrix((prices, (heads, tails)), shape=(n, n))
    dist = csgraph.dijkstra(graph, indices=list(range(len(seeds))), min_only=True)
    end = (dst[0], dst[1], ground_z_index(grid, dst[0], dst[1]))
    return min((dist[i] for s, i in index.items() if (s.x, s.y, s.z) == end), default=math.inf)


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.booleans())
def test_engines_match_the_state_graph_oracle(inst, use_ikeda):
    grid, model, mask, src, dst = inst
    want = state_graph_optimum(grid, model, mask, src, dst)
    found = [search(grid, model, mask, src, dst) for search in (dijkstra, astar)]
    got = [math.inf if p is None else p.total_cost for p in found]
    # The backward side of the engine runs the reversed graph.
    events = bidi_engine(grid, model, mask, src, dst, use_ikeda=use_ikeda).events()
    got.append(min((p.total_cost for p in events), default=math.inf))
    if math.isinf(want):
        assert got == [math.inf] * 3
    else:
        assert got == [pytest.approx(want, rel=1e-9, abs=0.0)] * 3


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
@given(cell_rules(), st.booleans(), st.booleans())
def test_cell_rules_match_the_state_graph_oracle(case, walls, surcharge):
    # se's walls and ipa's surcharge are read per column; the oracle drops
    # and prices the state graph's edges instead.
    (grid, model, mask, src, dst), blocked, rows = case
    blocked = blocked if walls else frozenset()
    rows = rows if surcharge else None
    rules = dict(edge_filter=CellFilter(grid, blocked) if walls else None,
                 penalty=CellPenalty(grid, rows) if surcharge else None)
    want = state_graph_optimum(grid, model, mask, src, dst, blocked, rows)
    for search in (dijkstra, astar):
        p = search(grid, model, mask, src, dst, **rules)
        if math.isinf(want):
            assert p is None
            continue
        entered = p.vertices[1:]
        assert not any((v.x, v.y) in blocked for v in entered)
        extra = math.fsum(rows[v.y][v.x] for v in entered) if rows is not None else 0.0
        assert p.total_cost + extra == pytest.approx(want, rel=1e-9, abs=0.0)
