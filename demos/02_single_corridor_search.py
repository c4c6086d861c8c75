"""One corridor, three engines.

Runs plain Dijkstra, A*, and the bidirectional engine on the same instance
and compares costs and expansion counts.  All engines seed every arrival
orientation at the source and accept any at the destination, so they agree
on the optimum exactly.
"""

from corridor import CostModel, bidi_engine, dijkstra, simple_height_mask, synth_terrain
from corridor.search import SearchStats, astar

grid = synth_terrain(seed=11, nx=30, ny=14, relief=8.0)
model = CostModel(paving_rate=1.0, cut_rate=1.0, fill_rate=1.0, road_width=10.0)
mask = simple_height_mask(grid, hm=1.0, r=2)
src, dst = (0, 7), (29, 7)

stats_d = SearchStats()
best = dijkstra(grid, model, mask, src, dst, stats=stats_d)
print(f"dijkstra: cost {best.total_cost:10.2f}  expansions {stats_d.expansions:6d}")

stats_a = SearchStats()
guided = astar(grid, model, mask, src, dst, stats=stats_a)
print(f"astar:    cost {guided.total_cost:10.2f}  expansions {stats_a.expansions:6d}")

stats_b = SearchStats()
engine = bidi_engine(grid, model, mask, src, dst, use_ikeda=True,
                     cutoff=best.total_cost, stats=stats_b)
meet = min(engine.events(), key=lambda p: p.total_cost)
print(f"bidi+pot: cost {meet.total_cost:10.2f}  expansions {stats_b.expansions:6d}")

# The optimal corridor as grid coordinates with cumulative cost.
print("\noptimal corridor (x, y, z, heading, climb) -> cumulative cost")
cum = 0.0
for i, v in enumerate(best.vertices):
    if i:
        cum += best.edge_costs[i - 1]
    if i % 5 == 0 or i == len(best.vertices) - 1:
        print(f"  ({v.x:2d}, {v.y:2d}, {v.z:3d}, h={v.h}, v={v.v:+d})  {cum:9.2f}")
