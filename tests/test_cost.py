import math

import numpy as np
import pytest

from corridor import CostModel, TerrainGrid, astar_heuristic, edge_cost
from corridor.cost import EdgeCoster
from corridor.graph import AugVertex, simple_height_mask
from corridor.search import dijkstra
from corridor.terrain import synth_terrain


@pytest.fixture(scope="module")
def flat():
    return TerrainGrid(nx=5, ny=5, dxy=10, dz=1, z=np.zeros((5, 5)))


class TestEdgeCost:
    def test_on_ground_paving_only(self, flat):
        m = CostModel(paving_rate=2.0, cut_rate=5.0, fill_rate=5.0, road_width=10.0)
        c = edge_cost(m, ((0, 0, 0), (10, 0, 0)), flat)
        assert c == pytest.approx(2.0 * 10.0)

    def test_fill_volume(self, flat):
        # Level edge 1 m above flat ground: 10 m2 section area, width 10.
        m = CostModel(paving_rate=1.0, cut_rate=0.0, fill_rate=2.0, road_width=10.0)
        c = edge_cost(m, ((0, 0, 1), (10, 0, 1)), flat)
        assert c == pytest.approx(1.0 * 10.0 + 2.0 * 100.0)

    def test_cut_and_fill_split_at_crossing(self, flat):
        # Road from -1 m to +1 m over flat ground: two 2.5 m2 triangles.
        m = CostModel(paving_rate=1.0, cut_rate=3.0, fill_rate=7.0, road_width=10.0)
        c = edge_cost(m, ((0, 0, -1), (10, 0, 1)), flat)
        paving = math.hypot(10.0, 2.0)
        assert c == pytest.approx(paving + 3.0 * 25.0 + 7.0 * 25.0)

    def test_never_below_paving(self):
        g = synth_terrain(8, 8, 8, 6.0)
        m = CostModel()
        rng = np.random.default_rng(0)
        for _ in range(50):
            x0, y0 = rng.integers(0, 7, 2)
            z0 = float(rng.uniform(-2, 8))
            z1 = float(rng.uniform(-2, 8))
            edge = ((x0 * 10.0, y0 * 10.0, z0), (x0 * 10.0 + 10.0, y0 * 10.0, z1))
            length3d = math.hypot(10.0, z1 - z0)
            assert edge_cost(m, edge, g) >= length3d * m.paving_rate - 1e-9

    def test_rate_scaling_preserves_argmin(self):
        g = synth_terrain(12, 9, 7, 4.0)
        mask = simple_height_mask(g, 1.0, 1)
        m1 = CostModel(paving_rate=1.0, cut_rate=0.8, fill_rate=0.8)
        m3 = CostModel(paving_rate=3.0, cut_rate=2.4, fill_rate=2.4)
        p1 = dijkstra(g, m1, mask, (0, 3), (8, 3))
        p3 = dijkstra(g, m3, mask, (0, 3), (8, 3))
        assert p1.vertices == p3.vertices
        assert p3.total_cost == pytest.approx(3.0 * p1.total_cost, rel=1e-9)

    def test_coster_matches_edge_cost(self):
        g = synth_terrain(5, 8, 6, 5.0)
        m = CostModel()
        coster = EdgeCoster(g, m)
        rng = np.random.default_rng(1)
        for _ in range(60):
            x, y = int(rng.integers(0, 7)), int(rng.integers(0, 5))
            h = int(rng.integers(0, 8))
            from corridor.terrain import DIR8
            dx, dy = DIR8[h]
            x2, y2 = x + dx, y + dy
            if not (0 <= x2 < 8 and 0 <= y2 < 6):
                continue
            z0, z1 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            u = AugVertex(x, y, z0, h, 0)
            w = AugVertex(x2, y2, z1, h, 0)
            direct = edge_cost(m, ((x * 10.0, y * 10.0, float(z0)),
                                   (x2 * 10.0, y2 * 10.0, float(z1))), g)
            assert coster(u, w) == pytest.approx(direct, rel=1e-12)
            assert coster(w, u) == coster(u, w)

    def test_coster_rejects_a_non_unit_move(self):
        coster = EdgeCoster(synth_terrain(5, 8, 6, 5.0), CostModel())
        for w in (AugVertex(2, 0, 0, 0, 0), AugVertex(0, 0, 1, 0, 0)):
            with pytest.raises(ValueError, match="unit grid move"):
                coster(AugVertex(0, 0, 0, 0, 0), w)

    def test_fresh_costers_agree_in_either_direction(self):
        # Computed from whichever end was asked first, this move priced
        # 23.29070265370882 forwards and 23.290702653708877 backwards.
        g = synth_terrain(5, 60, 30, 20.0)
        u, w = AugVertex(0, 0, 10, 1, -1), AugVertex(1, 1, 9, 1, -1)
        assert EdgeCoster(g, CostModel())(u, w) == EdgeCoster(g, CostModel())(w, u)

    def test_moves_off_the_hull_priced_apart(self, flat):
        # The flat grid's hull is one level, so the cells (1, 0, 1) and
        # (1, 1, 0) would share a memo position; each move keeps its price.
        coster, m = EdgeCoster(flat, CostModel()), CostModel()
        u = AugVertex(0, 0, 0, 0, 0)
        for w in (AugVertex(1, 0, 1, 0, 1), AugVertex(1, 1, 0, 1, 0), AugVertex(1, 0, 1, 0, 1)):
            direct = edge_cost(m, ((0.0, 0.0, 0.0), (w.x * 10.0, w.y * 10.0, float(w.z))), flat)
            assert coster(u, w) == pytest.approx(direct, rel=1e-12)


class TestHeuristic:
    def test_zero_at_destination(self):
        m = CostModel(paving_rate=2.0)
        assert astar_heuristic(m, (30, 40), (30, 40)) == 0.0

    def test_straight_line_price(self):
        m = CostModel(paving_rate=2.0)
        assert astar_heuristic(m, (0, 0), (60, 80)) == pytest.approx(200.0)

    def test_admissible_against_optimum(self):
        g = synth_terrain(21, 20, 20, 3.0)
        mask = simple_height_mask(g, 1.0, 1)
        m = CostModel()
        src, dst = (0, 10), (19, 10)
        p = dijkstra(g, m, mask, src, dst)
        h = astar_heuristic(m, (0.0, 100.0), (190.0, 100.0))
        assert h <= p.total_cost + 1e-9


# A rate of inf priced a flat move as NaN, and dijkstra returned a path whose
# total_cost was nan.
@pytest.mark.parametrize("key, value", [
    ("paving_rate", math.inf), ("cut_rate", math.inf), ("fill_rate", math.nan),
    ("road_width", math.inf), ("road_width", math.nan), ("max_grade", math.nan),
])
def test_cost_model_rejects_non_finite_settings(key, value):
    with pytest.raises(ValueError):
        CostModel(**{key: value})
