"""The one-label engines against scipy's Dijkstra on the explicit state graph.

Random small maps, cost models, masks (none, HR, EHR) and endpoints.  The
graph is enumerated from the 24 source seeds through ``successors3do`` and
priced by ``EdgeCoster``, so the oracle shares the successor rule and the
pricing with the engines but none of their search code.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor import bidi_engine
from corridor.cost import EdgeCoster
from corridor.graph import AugVertex, ground_z_index, successors3do
from corridor.search import astar, dijkstra

from strategies import small_instances


def state_graph_optimum(grid, model, mask, src, dst):
    """The cheapest cost from the source seeds to a destination ground state,
    by scipy's Dijkstra over the state graph enumerated with successors3do."""
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
            if w not in index:
                index[w] = len(index)
                todo.append(w)
            heads.append(index[u])
            tails.append(index[w])
            prices.append(coster(u, w))
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
