import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corridor import TerrainGrid, expanding_height_mask, graph_stats, simple_height_mask
from corridor.graph import (
    AugVertex,
    HeightMask,
    _snapped,
    flip_state,
    ground_z_index,
    rev_successors3do,
    successors2do,
    successors3do,
)
from corridor.terrain import DIR8, synth_terrain

from strategies import small_instances


@pytest.fixture(scope="module")
def box():
    # Flat at 2 m with corner spikes pinning the vertical hull to [0, 4]:
    # interior states at z=2 have full vertical freedom.
    z = np.full((5, 6), 2.0)
    z[0, 0] = 0.0
    z[4, 5] = 4.0
    return TerrainGrid(nx=6, ny=5, dxy=10, dz=1, z=z)


@pytest.fixture(scope="module")
def box_mask(box):
    return simple_height_mask(box, 1.0, 0)


class TestSuccessors3do:
    def test_interior_level_has_nine(self, box, box_mask):
        u = AugVertex(2, 2, 2, 0, 0)
        assert len(successors3do(box, u, box_mask)) == 9

    def test_interior_climbing_has_six(self, box, box_mask):
        for v in (-1, 1):
            u = AugVertex(2, 2, 2, 0, v)
            assert len(successors3do(box, u, box_mask)) == 6

    def test_corner_facing_out(self, box, box_mask):
        u = AugVertex(0, 0, 2, 4, 0)  # heading -x at the low corner
        succ = successors3do(box, u, box_mask)
        assert all(0 <= w.x < box.nx and 0 <= w.y < box.ny for w in succ)
        assert len(succ) < 9

    def test_turn_constraint(self, box, box_mask):
        for h in range(8):
            for v in (-1, 0, 1):
                u = AugVertex(3, 2, 2, h, v)
                for w in successors3do(box, u, box_mask):
                    assert (w.h - u.h) % 8 in (0, 1, 7)
                    assert w.z == u.z + w.v

    def test_mask_prunes(self, box, box_mask):
        top = AugVertex(2, 2, 3, 0, 1)  # at the band ceiling, still climbing
        succ = successors3do(box, top, box_mask)
        assert succ and all(w.z <= 3 for w in succ)
        assert all(w.v in (0, 1) for w in succ)


class TestEdgeSymmetry:
    def _admissible_states(self, grid, mask):
        from corridor.graph import z_bounds
        for y in range(grid.ny):
            for x in range(grid.nx):
                lo, hi = z_bounds(grid, mask, x, y)
                for z in range(lo, hi + 1):
                    for h in range(8):
                        for v in (-1, 0, 1):
                            yield AugVertex(x, y, z, h, v)

    def test_forward_reverse_bijection(self, box, box_mask):
        for u in self._admissible_states(box, box_mask):
            for w in successors3do(box, u, box_mask):
                assert flip_state(u) in rev_successors3do(box, flip_state(w), box_mask)

    def test_reverse_forward_bijection(self, box, box_mask):
        for u in self._admissible_states(box, box_mask):
            for w in rev_successors3do(box, u, box_mask):
                assert flip_state(u) in successors3do(box, flip_state(w), box_mask)

    @settings(max_examples=40, deadline=None)
    @given(small_instances())
    def test_bijection_on_random_masks(self, inst):
        # Every forward move u -> w is the reversed move flip(w) -> flip(u),
        # and the other way round, over every state of the band.
        grid, _, mask, _, _ = inst
        states = list(self._admissible_states(grid, mask))
        forward = {(u, w) for u in states for w in successors3do(grid, u, mask)}
        mirrored = {(flip_state(w), flip_state(u)) for u in states for w in rev_successors3do(grid, u, mask)}
        assert forward == mirrored

    def test_flip_involution(self):
        u = AugVertex(3, 4, 2, 6, -1)
        assert flip_state(flip_state(u)) == u


class TestSuccessors2do:
    def test_interior_three(self, box):
        assert len(successors2do(box, 2, 2, 0)) == 3

    def test_wraparound(self, box):
        headings = {h for _, _, h in successors2do(box, 2, 2, 7)}
        assert headings == {6, 7, 0}

    def test_boundary_fewer(self, box):
        assert len(successors2do(box, 0, 0, 4)) < 3


class TestSimpleHeightMask:
    def test_flat_band(self):
        flat = TerrainGrid(nx=6, ny=5, dxy=10, dz=1, z=np.full((5, 6), 2.0))
        m = simple_height_mask(flat, 1.0, 3)
        assert np.all(m.z_lo == 1) and np.all(m.z_hi == 3)

    def test_window_neighbor_raises_ceiling(self):
        z = np.zeros((5, 5))
        z[2, 4] = 5.0
        g = TerrainGrid(nx=5, ny=5, dxy=10, dz=1, z=z)
        m = simple_height_mask(g, 1.0, 2)
        # delta-h+ at the center = max(window max 5, 0 + 1) - 0 = 5
        assert m.z_hi[2, 2] == 5
        assert m.z_lo[2, 2] == -1

    def test_r_zero_tight_band(self):
        g = synth_terrain(4, 8, 6, 7.0)
        m = simple_height_mask(g, 1.0, 0)
        up = m.z_hi - np.ceil(g.z - 1e-12)
        dn = np.floor(g.z + 1e-12) - m.z_lo
        assert np.all(up <= 1 + 1e-9) and np.all(dn <= 1 + 1e-9)

    def test_monotone_in_hm_and_r(self):
        g = synth_terrain(11, 10, 8, 9.0)
        base = simple_height_mask(g, 1.0, 1)
        for other in (simple_height_mask(g, 2.0, 1), simple_height_mask(g, 1.0, 2)):
            assert np.all(other.z_lo <= base.z_lo)
            assert np.all(other.z_hi >= base.z_hi)

    def test_ground_always_admissible(self):
        for seed in (1, 5, 9):
            g = synth_terrain(seed, 12, 9, 11.0)
            m = simple_height_mask(g, 1.0, 3)
            assert np.all(m.z_lo * g.dz <= g.z)
            assert np.all(m.z_hi * g.dz >= g.z)


class TestExpandingHeightMask:
    def test_flat_equals_simple(self):
        g = TerrainGrid(nx=8, ny=6, dxy=10, dz=1, z=np.zeros((6, 8)))
        ehr = expanding_height_mask(g, 0.5, 0.10)
        hr = simple_height_mask(g, 0.5, 0)
        assert np.array_equal(ehr.z_lo, hr.z_lo)
        assert np.array_equal(ehr.z_hi, hr.z_hi)

    def test_cliff_ramp_widening(self):
        # 10 m step: columns within 100 m of the base reach the cliff top.
        z = np.zeros((5, 30))
        z[:, 15:] = 10.0
        g = TerrainGrid(nx=30, ny=5, dxy=10, dz=1, z=z)
        m = expanding_height_mask(g, 0.5, 0.10)
        for x in range(5, 15):  # within 10 cells of the base at x=14
            assert m.z_hi[2, x] >= 10
        assert m.z_hi[2, 0] <= 2  # far from the cliff: tight band

    def test_sightline_ridge_admits_line(self):
        z = np.zeros((5, 21))
        z[:, 9:12] = 10.0  # ridge across the middle
        g = TerrainGrid(nx=21, ny=5, dxy=10, dz=1, z=z)
        m = expanding_height_mask(g, 0.5, 0.10, src=(0, 2), dst=(20, 2))
        # The straight line runs at z=0; the ridge columns must admit it.
        assert m.z_lo[2, 10] <= 0

    def test_ground_admissible(self):
        g = synth_terrain(3, 14, 8, 12.0)
        m = expanding_height_mask(g, 0.5, 0.10)
        assert np.all(m.z_lo * g.dz <= g.z + 1e-9)
        assert np.all(m.z_hi * g.dz >= g.z - 1e-9)


class TestBandSettings:
    def test_window_wider_than_the_grid(self):
        # A window at or past the grid's extent covers the whole grid from
        # every cell; it used to raise numpy's broadcast error.
        g = synth_terrain(1, 5, 4, 3.0)
        full = simple_height_mask(g, 1.0, max(g.nx, g.ny) - 1)
        for r in (max(g.nx, g.ny), 9, 1000):
            m = simple_height_mask(g, 1.0, r)
            assert np.array_equal(m.z_lo, full.z_lo) and np.array_equal(m.z_hi, full.z_hi)
        assert np.all(full.z_lo * g.dz <= g.z.min()) and np.all(full.z_hi * g.dz >= g.z.max())

    # NaN and inf used to pass the sign checks; numpy then warned about the
    # cast and A* failed inside its planar bound.
    @pytest.mark.parametrize("build, args", [
        (simple_height_mask, (math.nan, 1)),
        (simple_height_mask, (math.inf, 1)),
        (simple_height_mask, (-1.0, 1)),
        (simple_height_mask, (1.0, -1)),
        (expanding_height_mask, (math.nan, 0.1)),
        (expanding_height_mask, (math.inf, 0.1)),
        (expanding_height_mask, (0.0, 0.1)),
        (expanding_height_mask, (0.5, math.nan)),
        (expanding_height_mask, (0.5, 0.0)),
    ])
    def test_rejects_bad_settings(self, build, args):
        with pytest.raises(ValueError, match="must be"):
            build(synth_terrain(1, 5, 4, 3.0), *args)

    # A negative endpoint used to wrap to the far edge with no error, and one
    # past the grid failed inside numpy.
    @pytest.mark.parametrize("end", ["src", "dst"])
    @pytest.mark.parametrize("point", [(-2, 1), (3, -1), (6, 1), (3, 4)])
    def test_rejects_endpoints_off_the_grid(self, end, point):
        ends = {"src": (0, 1), "dst": (5, 2), end: point}
        with pytest.raises(ValueError, match=rf"^{end} \({point[0]}, {point[1]}\) outside grid"):
            expanding_height_mask(synth_terrain(1, 6, 4, 3.0), 0.5, 0.1, **ends)

    def test_mask_holds_one_read_only_int32_band(self):
        m = simple_height_mask(synth_terrain(1, 5, 4, 3.0), 1.0, 1)
        assert m.z_lo.dtype == m.z_hi.dtype == np.int32
        assert m.z_lo.base is m.z_hi.base and not m.z_lo.base.flags.writeable
        with pytest.raises(ValueError, match="32 bits"):
            HeightMask(np.zeros((2, 2)), np.full((2, 2), 2**31))


# The per-cell loops the mask builders ran before they became array code,
# kept as references: the window of simple_height_mask, and both rules of
# expanding_height_mask with the disc fill it called _clamp_within.

def _scalar_window_mask(grid, hm, r):
    z = grid.z
    lo, hi = np.empty_like(z), np.empty_like(z)
    for y in range(grid.ny):
        for x in range(grid.nx):
            win = z[max(0, y - r):y + r + 1, max(0, x - r):x + r + 1]
            lo[y, x] = min(win.min(), z[y, x] - hm)
            hi[y, x] = max(win.max(), z[y, x] + hm)
    return _snapped(grid, lo, hi)


def _clamp_within(elev, center, rad, target, dxy, ramp_m, up):
    cx, cy = center
    ny, nx = elev.shape
    for y in range(max(0, cy - rad), min(ny, cy + rad + 1)):
        for x in range(max(0, cx - rad), min(nx, cx + rad + 1)):
            if math.hypot(x - cx, y - cy) * dxy <= ramp_m:
                if (elev[y, x] < target) if up else (elev[y, x] > target):
                    elev[y, x] = target


def _scalar_expanding_mask(grid, hi, max_grade, src, dst):
    z = grid.z
    hi_elev, lo_elev = z + hi, z - hi
    for h in (0, 1, 2, 3):
        dx, dy = DIR8[h]
        run = grid.dxy * (math.sqrt(2.0) if h % 2 else 1.0)
        for y in range(grid.ny):
            for x in range(grid.nx):
                xb, yb = x + dx, y + dy
                if not (0 <= xb < grid.nx and 0 <= yb < grid.ny):
                    continue
                step = z[yb, xb] - z[y, x]
                if abs(step) / run <= max_grade:
                    continue
                low, high = ((x, y), (xb, yb)) if step > 0 else ((xb, yb), (x, y))
                z_base, z_top = z[low[1], low[0]], z[high[1], high[0]]
                ramp_m = (z_top - z_base) / max_grade
                rad = int(math.ceil(ramp_m / grid.dxy))
                _clamp_within(hi_elev, low, rad, z_top + hi, grid.dxy, ramp_m, True)
                _clamp_within(lo_elev, high, rad, z_base - hi, grid.dxy, ramp_m, False)
    if src is not None and dst is not None:
        (sx, sy), (tx, ty) = src, dst
        zs, zd = float(z[sy, sx]), float(z[ty, tx])
        steps = max(abs(tx - sx), abs(ty - sy)) * 2
        for k in range(steps + 1):
            t = k / steps if steps else 0.0
            cx, cy = int(round(sx + t * (tx - sx))), int(round(sy + t * (ty - sy)))
            z_line = zs + t * (zd - zs)
            if z[cy, cx] > z_line + hi:
                lo_elev[cy, cx] = min(lo_elev[cy, cx], z_line)
    return _snapped(grid, lo_elev, hi_elev)


@st.composite
def cliff_cases(draw):
    """A small grid of a few elevation levels plus noise, with endpoints
    (sometimes equal), a window radius up to past the grid and band settings.
    The levels lie on a flat base, either as one lifted block or scattered
    over the cells; whole levels over dyadic spacings and grades now and
    then put a cell exactly one ramp length from a cliff."""
    nx, ny = draw(st.integers(2, 10)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.choice((0.0, 1.0, 2.0, 5.0, 12.0), size=draw(st.integers(1, 3)))
    if draw(st.booleans()):
        z = np.full((ny, nx), levels[0])
        x0, y0 = rng.integers(nx), rng.integers(ny)
        z[y0:y0 + rng.integers(1, ny + 1), x0:x0 + rng.integers(1, nx + 1)] = levels[-1]
    else:
        z = rng.choice(levels, size=(ny, nx))
    z = z + draw(st.sampled_from((0.0, 0.0, 0.01, 0.3))) * rng.standard_normal((ny, nx))
    grid = TerrainGrid(nx=nx, ny=ny, dxy=draw(st.sampled_from((0.5, 1.0, 2.0, 3.0))),
                       dz=draw(st.sampled_from((0.25, 0.5, 1.0))), z=z)
    src = (draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1)))
    dst = src if draw(st.booleans()) else (draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1)))
    return (grid, src, dst, draw(st.sampled_from((0.0, 0.5, 2.0))), draw(st.integers(0, max(nx, ny) + 3)),
            draw(st.sampled_from((0.25, 0.5, 3.0))), draw(st.sampled_from((0.1, 0.25, 0.5, 1.0, 2.0))))


# A straight 1 m cliff at 50% grade: the columns exactly one ramp length
# (2 m) from its foot and from its top lie on the edge of their discs.
_CLIFF = TerrainGrid(nx=8, ny=4, dxy=1.0, dz=1.0, z=np.repeat([[0.0] * 5 + [1.0] * 3], 4, axis=0))


@settings(max_examples=150, deadline=None)
@given(cliff_cases())
@example((_CLIFF, (0, 1), (7, 2), 0.5, 9, 0.5, 0.5))
def test_masks_equal_the_scalar_loops(case):
    grid, src, dst, hm, r, hi, max_grade = case
    for got, want in (
        (simple_height_mask(grid, hm, r), _scalar_window_mask(grid, hm, r)),
        (expanding_height_mask(grid, hi, max_grade), _scalar_expanding_mask(grid, hi, max_grade, None, None)),
        (expanding_height_mask(grid, hi, max_grade, src=src, dst=dst),
         _scalar_expanding_mask(grid, hi, max_grade, src, dst)),
    ):
        assert np.array_equal(got.z_lo, want.z_lo) and np.array_equal(got.z_hi, want.z_hi)


class TestGraphStats:
    def test_2do_counts(self):
        g = synth_terrain(2, 7, 5, 3.0)
        s = graph_stats(g, model="2do")
        assert s.vertexCount == 8 * 7 * 5
        assert s.edgeCount <= 3 * s.vertexCount

    def test_3do_unmasked_counts(self):
        g = synth_terrain(2, 6, 4, 3.0)
        s = graph_stats(g)
        assert s.vertexCount == 24 * 6 * 4 * g.n_levels
        assert s.edgeCount <= 9 * s.vertexCount

    def test_3do_masked_counts(self):
        g = synth_terrain(2, 6, 4, 3.0)
        m = simple_height_mask(g, 1.0, 1)
        s = graph_stats(g, m)
        lo = np.maximum(m.z_lo, g.z_min_index)
        hi = np.minimum(m.z_hi, g.z_max_index)
        assert s.vertexCount == 24 * int(np.sum(hi - lo + 1))
        assert s.vertexCount <= graph_stats(g).vertexCount

    def test_ground_z_index(self):
        g = TerrainGrid(nx=2, ny=2, dxy=10, dz=1, z=np.full((2, 2), 3.4))
        assert ground_z_index(g, 0, 0) == 3
