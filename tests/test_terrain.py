import math

import numpy as np
import pytest

from corridor import (
    TerrainGrid,
    classify,
    ground_profile,
    load_grid,
    max_grade,
    save_grid,
    synth_terrain,
)
from corridor.terrain import DIR8, GridFormatError


def write(tmp_path, text):
    p = tmp_path / "grid.txt"
    p.write_text(text)
    return p


class TestLoadGrid:
    def test_flat_2x2(self, tmp_path):
        g = load_grid(write(tmp_path, "2 2 10 1\n0 0\n0 0\n"))
        assert (g.nx, g.ny) == (2, 2)
        assert np.all(g.z == 0.0)

    def test_header_spacings(self, tmp_path):
        g = load_grid(write(tmp_path, "2 2 10 1\n0 0\n0 0\n"))
        assert g.dxy == 10.0 and g.dz == 1.0

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(GridFormatError, match="count mismatch"):
            load_grid(write(tmp_path, "3 3 10 1\n0 0 0\n0 0 0\n0 0\n"))

    def test_malformed_header(self, tmp_path):
        with pytest.raises(GridFormatError, match="header"):
            load_grid(write(tmp_path, "3 3 10\n0 0 0\n"))

    def test_non_finite(self, tmp_path):
        with pytest.raises(GridFormatError):
            load_grid(write(tmp_path, "2 2 10 1\n0 nan\n0 0\n"))

    def test_round_trip_bit_exact(self, tmp_path):
        g = synth_terrain(7, 12, 9, 23.7)
        p = tmp_path / "rt.txt"
        save_grid(g, p)
        g2 = load_grid(p)
        assert g2.nx == g.nx and g2.ny == g.ny
        assert g2.dxy == g.dxy and g2.dz == g.dz
        assert np.array_equal(g2.z, g.z)


class TestInvariants:
    def test_too_small(self):
        with pytest.raises(ValueError):
            TerrainGrid(nx=1, ny=2, dxy=10, dz=1, z=np.zeros((2, 1)))

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            TerrainGrid(nx=2, ny=2, dxy=0, dz=1, z=np.zeros((2, 2)))

    def test_immutable(self):
        g = synth_terrain(1, 4, 4, 2.0)
        with pytest.raises(ValueError):
            g.z[0, 0] = 5.0

    def test_vertical_hull_cached(self):
        rng = np.random.default_rng(3)
        grids = [synth_terrain(s, 7, 5, r) for s, r in ((1, 0.0), (2, 3.7), (3, 20.0))]
        grids.append(TerrainGrid(nx=4, ny=3, dxy=10, dz=0.7, z=rng.uniform(-9.0, 4.0, (3, 4))))
        for g in grids:
            assert g.z_min_index == int(math.floor(float(g.z.min()) / g.dz))
            assert g.z_max_index == int(math.ceil(float(g.z.max()) / g.dz))
            assert g.n_levels == g.z_max_index - g.z_min_index + 1


class TestMaxGrade:
    def test_flat(self):
        g = TerrainGrid(nx=3, ny=3, dxy=10, dz=1, z=np.zeros((3, 3)))
        assert max_grade(g, 1, 1) == 0.0

    def test_orthogonal_step(self):
        z = np.zeros((2, 2))
        z[0, 1] = 1.0
        g = TerrainGrid(nx=2, ny=2, dxy=10, dz=1, z=z)
        assert max_grade(g, 0, 0) == pytest.approx(0.10)

    def test_diagonal_only(self):
        z = np.zeros((2, 2))
        z[1, 1] = 1.0
        g = TerrainGrid(nx=2, ny=2, dxy=10, dz=1, z=z)
        assert max_grade(g, 0, 0) == pytest.approx(1.0 / (10.0 * math.sqrt(2.0)))

    def test_direction_symmetry(self):
        z = np.zeros((2, 2))
        z[0, 1] = 1.0
        g = TerrainGrid(nx=2, ny=2, dxy=10, dz=1, z=z)
        assert max_grade(g, 0, 0) == max_grade(g, 1, 0)

    def test_out_of_bounds(self):
        g = TerrainGrid(nx=2, ny=2, dxy=10, dz=1, z=np.zeros((2, 2)))
        with pytest.raises(IndexError):
            max_grade(g, 2, 0)

    def test_equals_the_scalar_loop(self):
        # The per-vertex loop max_grade used to run, kept as the reference.
        def scalar(g, i, j):
            worst = 0.0
            for h, (dx, dy) in enumerate(DIR8):
                x, y = i + dx, j + dy
                if 0 <= x < g.nx and 0 <= y < g.ny:
                    run = g.dxy * (math.sqrt(2.0) if h % 2 else 1.0)
                    worst = max(worst, abs(float(g.z[y, x]) - float(g.z[j, i])) / run)
            return worst

        g = synth_terrain(4, 9, 6, 30.0)
        for j in range(g.ny):
            for i in range(g.nx):
                assert max_grade(g, i, j) == scalar(g, i, j)


class TestClassify:
    def test_flat_all_a(self):
        g = TerrainGrid(nx=4, ny=3, dxy=10, dz=1, z=np.zeros((3, 4)))
        b = classify(g)
        assert (b.fracA, b.fracB, b.fracC) == (1.0, 0.0, 0.0)

    def test_mid_grade_is_b(self):
        # Every vertex sees exactly a 15% steepest grade.
        z = np.array([[0.0, 1.5], [1.5, 0.0]])
        g = TerrainGrid(nx=2, ny=2, dxy=10, dz=1, z=z)
        assert classify(g).fracB == 1.0

    def test_twenty_percent_is_c(self):
        z = np.array([[0.0, 2.0], [2.0, 0.0]])
        g = TerrainGrid(nx=2, ny=2, dxy=10, dz=1, z=z)
        assert classify(g).fracC == 1.0

    def test_fractions_sum(self):
        for seed in (1, 2, 3):
            b = classify(synth_terrain(seed, 15, 11, 30.0))
            assert abs(b.fracA + b.fracB + b.fracC - 1.0) < 1e-9


class TestSynth:
    def test_deterministic(self):
        a = synth_terrain(5, 10, 8, 12.0)
        b = synth_terrain(5, 10, 8, 12.0)
        assert np.array_equal(a.z, b.z)

    def test_relief_zero_flat(self):
        g = synth_terrain(5, 10, 8, 0.0)
        assert np.all(g.z == 0.0)

    def test_relief_bound(self):
        g = synth_terrain(9, 20, 12, 17.0)
        assert float(g.z.max() - g.z.min()) == pytest.approx(17.0)

    def test_classify_reproducible(self):
        b1 = classify(synth_terrain(1, 25, 15, 50.0))
        b2 = classify(synth_terrain(1, 25, 15, 50.0))
        assert (b1.fracA, b1.fracB, b1.fracC) == (b2.fracA, b2.fracB, b2.fracC)


class TestGroundProfile:
    def test_flat_constant(self):
        g = TerrainGrid(nx=4, ny=4, dxy=10, dz=1, z=np.zeros((4, 4)))
        prof = ground_profile(g, (0, 0), (30, 30))
        assert [z for _, z in prof] == [0.0, 0.0, 0.0]

    def test_planar_slope_exact(self):
        # z = x / 10 in meters: bilinear interpolation reproduces the plane.
        z = np.tile(np.arange(4, dtype=float), (3, 1))
        g = TerrainGrid(nx=4, ny=3, dxy=10, dz=1, z=z)
        prof = ground_profile(g, (0, 10), (10, 10))
        assert prof == [(0.0, 0.0), (5.0, 0.5), (10.0, 1.0)]

    def test_affine_surface_exact(self):
        rng = np.random.default_rng(3)
        a, b, c0 = 0.03, -0.05, 4.0
        xs, ys = np.meshgrid(np.arange(6) * 10.0, np.arange(5) * 10.0)
        g = TerrainGrid(nx=6, ny=5, dxy=10, dz=1, z=a * xs + b * ys + c0)
        for _ in range(20):
            p0 = (rng.uniform(0, 50), rng.uniform(0, 40))
            p1 = (rng.uniform(0, 50), rng.uniform(0, 40))
            for s, zv in ground_profile(g, p0, p1):
                length = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
                t = s / length if length else 0.0
                x = p0[0] + t * (p1[0] - p0[0])
                y = p0[1] + t * (p1[1] - p0[1])
                assert zv == pytest.approx(a * x + b * y + c0, abs=1e-9)

    def test_outside_extent(self):
        g = TerrainGrid(nx=4, ny=4, dxy=10, dz=1, z=np.zeros((4, 4)))
        with pytest.raises(ValueError):
            ground_profile(g, (0, 0), (100, 0))
