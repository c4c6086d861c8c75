import numpy as np
import pytest
from hypothesis import given, settings

from corridor import TerrainGrid, expanding_height_mask, graph_stats, simple_height_mask
from corridor.graph import (
    AugVertex,
    flip_state,
    ground_z_index,
    rev_successors3do,
    successors2do,
    successors3do,
)
from corridor.terrain import synth_terrain

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
