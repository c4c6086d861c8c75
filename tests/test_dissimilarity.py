import pytest

from corridor import AreaConfig, accept, area_diff
from corridor.dissimilarity import (
    Outcome,
    area_diff_with_ops,
    assert_pairwise_dissimilar,
    pairwise_areas,
)
from corridor.graph import AugVertex
from corridor.search import Path


def station_path(points, cost=100.0):
    """Build a bare path from (x, y) stations; orientations are irrelevant here."""
    vertices = [AugVertex(x, y, 0, 0, 0) for x, y in points]
    return Path(vertices=vertices, total_cost=cost, edge_costs=[0.0] * (len(vertices) - 1))


def straight(n, y, cost=100.0):
    return station_path([(x, y) for x in range(n)], cost)


class TestAreaDiff:
    def test_identity_zero(self):
        cfg = AreaConfig(min_diff=12, map_width=200, endpoint_distance=400, dxy=10)
        p = straight(41, 10)
        assert area_diff(p, p, cfg) == 0.0

    def test_parallel_offset_half(self):
        # Offset of 12.5 cells (125 m) over 4 interior stations; rectangle
        # 200 m x 50 m. Hand integration: 4 * 125 * 10 / (200 * 50) = 1/2.
        cfg = AreaConfig(min_diff=12, map_width=200.0, endpoint_distance=50.0, dxy=10.0)
        p = station_path([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)])
        q = station_path([(0, 0), (1, 12.5), (2, 12.5), (3, 12.5), (4, 12.5), (5, 0)])
        assert area_diff(p, q, cfg) == pytest.approx(50.0, abs=1e-9)

    def test_symmetry(self):
        cfg = AreaConfig(min_diff=12, map_width=150, endpoint_distance=300, dxy=10)
        p = station_path([(x, (x * 3) % 5) for x in range(30)])
        q = station_path([(x, (x * 7) % 4) for x in range(30)])
        q.vertices[0] = p.vertices[0]
        q.vertices[-1] = p.vertices[-1]
        assert area_diff(p, q, cfg) == pytest.approx(area_diff(q, p, cfg))
        assert area_diff(p, q, cfg) >= 0.0

    def test_backtracking_uses_station_mean(self):
        # q revisits column 1 at y=0 and y=2: its station mean there is 1.
        cfg = AreaConfig(min_diff=12, map_width=100, endpoint_distance=20, dxy=10)
        p = station_path([(0, 0), (1, 0), (2, 0)])
        q = station_path([(0, 0), (1, 0), (2, 1), (1, 2), (2, 0)])
        # station means for q: x0 -> 0, x1 -> 1, x2 -> 0.5
        expected = 100.0 * ((1.0 + 0.5) * 10 * 10) / (100 * 20)
        assert area_diff(p, q, cfg) == pytest.approx(expected)

    def test_endpoint_mismatch(self):
        cfg = AreaConfig(min_diff=12, map_width=100, endpoint_distance=100, dxy=10)
        with pytest.raises(ValueError, match="endpoint"):
            area_diff(straight(5, 0), straight(5, 2), cfg)

    def test_linear_op_count(self):
        cfg = AreaConfig(min_diff=12, map_width=100, endpoint_distance=1000, dxy=10)
        sizes = [10, 100, 400]
        ops = []
        for n in sizes:
            p = straight(n, 0)
            q = station_path([(0, 0)] + [(x, 3) for x in range(1, n - 1)] + [(n - 1, 0)])
            ops.append(area_diff_with_ops(p, q, cfg)[1])
        assert ops[2] - ops[1] == pytest.approx((ops[1] - ops[0]) * (300 / 90), rel=0.05)

    def test_regression_triple(self):
        # Stored three-path geometry engineered to land on 15/13/28 exactly.
        cfg = AreaConfig(min_diff=12, map_width=400.0, endpoint_distance=1000.0, dxy=10.0)
        n = 101
        p1 = straight(n, 20)
        delta2 = [0.0] * n
        delta3 = [0.0] * n
        for x in range(1, 61):
            delta2[x] = 10.0     # 60 stations x 10 cells -> 15% of 400k m2
        for x in range(1, 53):
            delta3[x] = 10.0     # 52 stations x 10 cells -> 13% more
        p2 = station_path([(x, 20 + delta2[x]) for x in range(n)])
        p3 = station_path([(x, 20 + delta2[x] + delta3[x]) for x in range(n)])
        assert area_diff(p1, p2, cfg) == pytest.approx(15.0, abs=1e-9)
        assert area_diff(p2, p3, cfg) == pytest.approx(13.0, abs=1e-9)
        assert area_diff(p1, p3, cfg) == pytest.approx(28.0, abs=1e-9)


class TestAccept:
    cfg = AreaConfig(min_diff=12, map_width=100.0, endpoint_distance=200.0, dxy=10.0)

    def far(self, y, cost):
        # 20-station path at lateral y; pairwise area vs y'=0 is y * 9.5%.
        pts = [(0, 0)] + [(x, y) for x in range(1, 20)] + [(20, 0)]
        return station_path(pts, cost)

    def test_empty_adds(self):
        kept, cand = [], self.far(0, 100.0)
        d = accept(cand, kept, self.cfg, 3, 10.0, 100.0)
        assert d.outcome is Outcome.ADD and kept == [cand]

    def test_too_expensive_rejected(self):
        d = accept(self.far(9, 111.0), [self.far(0, 100.0)], self.cfg, 3, 10.0, 100.0)
        assert d.outcome is Outcome.REJECT

    def test_similar_to_one_and_cheaper_replaces(self):
        kept = [self.far(0, 100.0), self.far(9, 108.0)]
        cand = self.far(8.8, 104.0)  # close to the second, cheaper
        d = accept(cand, kept, self.cfg, 3, 10.0, 100.0)
        assert d.outcome is Outcome.REPLACE and d.index == 1
        assert kept[1] is cand
        assert_pairwise_dissimilar(kept, self.cfg)

    def test_similar_to_two_rejected(self):
        kept = [self.far(0, 100.0), self.far(2, 101.0)]
        cand = self.far(1, 100.5)  # within min_diff of both
        d = accept(cand, kept, self.cfg, 3, 10.0, 100.0)
        assert d.outcome is Outcome.REJECT and cand not in kept and len(kept) == 2

    def test_full_set_replaces_most_expensive(self):
        kept = [self.far(0, 100.0), self.far(4, 108.0), self.far(8, 106.0)]
        cand = self.far(-4, 103.0)  # dissimilar to all three, cheaper than max
        d = accept(cand, kept, self.cfg, 3, 10.0, 100.0)
        assert d.outcome is Outcome.REPLACE and d.index == 1
        assert max(p.total_cost for p in kept) == pytest.approx(106.0)

    def test_dissimilar_full_but_pricier_rejected(self):
        kept = [self.far(0, 100.0), self.far(4, 103.0), self.far(8, 105.0)]
        cand = self.far(-4, 109.0)
        d = accept(cand, kept, self.cfg, 3, 10.0, 100.0)
        assert d.outcome is Outcome.REJECT

    def test_boundary_area_counts_as_dissimilar(self):
        kept = [self.far(0, 100.0)]
        # min_diff percent corresponds to exactly 12%: areas at the boundary
        # are treated as dissimilar (added, not replaced).
        y = 12.0 * (100.0 * 200.0) / (100.0 * 19 * 10 * 10)
        cand = self.far(y, 101.0)
        assert area_diff(cand, kept[0], self.cfg) == pytest.approx(12.0, abs=1e-12)
        d = accept(cand, kept, self.cfg, 3, 10.0, 100.0)
        assert d.outcome is Outcome.ADD

    def test_pairwise_matrix_symmetric(self):
        paths = [self.far(0, 100.0), self.far(5, 104.0), self.far(-5, 105.0)]
        m = pairwise_areas(paths, self.cfg)
        for i in range(3):
            assert m[i][i] == 0.0
            for j in range(3):
                assert m[i][j] == m[j][i]


@pytest.mark.parametrize("key", ["min_diff", "map_width", "endpoint_distance", "dxy"])
def test_area_config_rejects_nan(key):
    values = dict(min_diff=12.0, map_width=100.0, endpoint_distance=100.0, dxy=10.0)
    with pytest.raises(ValueError):
        AreaConfig(**{**values, key: float("nan")})
