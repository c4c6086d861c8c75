"""Hand-computed cases for the benchmark's reference computations.

Run: python3 -m pytest perfbench/test_oracle.py
"""

import math

import numpy as np
import pytest

import oracle

UNIT = oracle.Rates(paving=1.0, cut=1.0, fill=1.0, width=10.0)


def flat(nx, ny):
    return np.zeros((ny, nx))


def test_flat_moves_cost_their_paving_length():
    z = flat(3, 3)
    assert oracle.price(z, 10.0, 1.0, UNIT, 0, 0, 0, 1, 0, 0) == pytest.approx(10.0)
    assert oracle.price(z, 10.0, 1.0, UNIT, 0, 0, 0, 1, 1, 0) == pytest.approx(10.0 * math.sqrt(2))


def test_single_step_fill():
    # Road climbs 0 -> 1 m over 10 m of flat ground: a 5 m^2 fill triangle.
    cost = oracle.price(flat(2, 2), 10.0, 1.0, UNIT, 0, 0, 0, 1, 0, 1)
    assert cost == pytest.approx(math.hypot(10.0, 1.0) + 10.0 * 5.0)


def test_single_step_cut():
    # Level road over ground rising 0 -> 1 m: a 5 m^2 cut triangle.
    z = flat(2, 2)
    z[:, 1] = 1.0
    rates = oracle.Rates(paving=1.0, cut=2.0, fill=1.0, width=10.0)
    assert oracle.price(z, 10.0, 1.0, rates, 0, 0, 0, 1, 0, 0) == pytest.approx(10.0 + 10.0 * 2.0 * 5.0)


def test_crossing_splits_cut_and_fill():
    # Road level at 1 m over ground 0 -> 2 m: 2.5 m^2 fill, then 2.5 m^2 cut.
    z = flat(2, 2)
    z[:, 1] = 2.0
    rates = oracle.Rates(paving=1.0, cut=1.0, fill=3.0, width=10.0)
    assert oracle.price(z, 10.0, 1.0, rates, 0, 0, 1, 1, 0, 1) == pytest.approx(10.0 + 10.0 * (3 * 2.5 + 2.5))


def test_diagonal_midpoint_is_cell_centre():
    # Ground 4 m at one off-diagonal corner: the midpoint sits 1 m high.
    z = flat(2, 2)
    z[0, 1] = 4.0
    run = 10.0 * math.sqrt(2)
    # Level road at 0 over ground 0 -> 1 -> 0: two cut triangles of height 1.
    assert oracle.price(z, 10.0, 1.0, UNIT, 0, 0, 0, 1, 1, 0) == pytest.approx(run + 10.0 * run / 2)


def test_legal_steps():
    assert oracle.legal_step((0, 0, 0, 0, 0), (1, 0, 0, 0, 0))
    assert oracle.legal_step((0, 0, 0, 0, 0), (1, 1, 1, 1, 1))
    assert not oracle.legal_step((0, 0, 0, 0, 0), (0, 1, 0, 2, 0))      # 90-degree turn
    assert not oracle.legal_step((0, 0, 0, 0, -1), (1, 0, 1, 0, 1))     # trend jumps -1 -> 1
    assert not oracle.legal_step((0, 0, 0, 0, 0), (1, 0, 1, 0, 0))      # z moves against the trend
    assert oracle.legal_step((0, 0, 0, 0, 0), (1, -1, 0, 7, 0))         # turn wraps 0 -> 7


def test_area_of_a_three_cell_bump():
    p = np.array([(x, 2, 0, 0, 0) for x in range(5)])
    q = np.array([(0, 2, 0, 0, 0), (1, 3, 0, 1, 0), (2, 3, 0, 0, 0), (3, 3, 0, 0, 0), (4, 2, 0, 7, 0)])
    # 3 cells of 100 m^2 over a 40 m wide map and 40 m between endpoints.
    assert oracle.area_percent(p, q, 40.0, 40.0, 10.0) == pytest.approx(18.75)
    assert oracle.area_percent(q, p, 40.0, 40.0, 10.0) == pytest.approx(18.75)


def test_area_holds_profiles_at_their_ends():
    # q doubles back over column 1, so its mean there is (1 + 3) / 2.
    p = np.array([(0, 1, 0, 0, 0), (1, 1, 0, 0, 0), (2, 1, 0, 0, 0)])
    q = np.array([(0, 1, 0, 0, 0), (1, 1, 0, 0, 0), (1, 3, 0, 2, 0), (2, 1, 0, 0, 0)])
    assert oracle.column_means(q)[1].tolist() == [1.0, 2.0, 1.0]
    assert oracle.area_percent(p, q, 10.0, 10.0, 10.0) == pytest.approx(100.0)


def test_flat_optimum_is_paving_length():
    z = flat(5, 3)
    lo = np.full(z.shape, -1)
    hi = np.full(z.shape, 1)
    assert oracle.optimum(z, 10.0, 1.0, UNIT, lo, hi, (0, 1), (4, 1)) == pytest.approx(40.0)
    assert oracle.optimum(z, 10.0, 1.0, UNIT, lo, hi, (0, 0), (2, 2)) == pytest.approx(20.0 * math.sqrt(2))


def test_optimum_detours_round_an_empty_column():
    # Column (2, 1) admits only level 1, above the flat map's hull, so the
    # road swerves round it within the 45-degree rule.
    z = flat(5, 3)
    lo = np.zeros(z.shape, dtype=int)
    hi = np.zeros(z.shape, dtype=int)
    lo[1, 2] = hi[1, 2] = 1
    assert oracle.optimum(z, 10.0, 1.0, UNIT, lo, hi, (0, 1), (4, 1)) == pytest.approx(20.0 + 20.0 * math.sqrt(2))


def test_optimum_climbs_with_the_ground():
    # Ground steps 0 -> 1 m between columns 1 and 2.  Climbing on that same
    # stretch keeps the road on the ground, so only paving is paid; the only
    # two-step routes are straight, as a swerve would need a 90-degree turn.
    z = flat(3, 2)
    z[:, 2] = 1.0
    lo = np.zeros(z.shape, dtype=int)
    hi = np.ones(z.shape, dtype=int)
    got = oracle.optimum(z, 10.0, 1.0, UNIT, lo, hi, (0, 0), (2, 0))
    assert got == pytest.approx(10.0 + math.hypot(10.0, 1.0))


def test_hr_band_by_hand():
    z = flat(5, 5)
    z[2, 2] = 5.0
    lo, hi = oracle.hr_band(z, 1.0, hm=1.0, r=1)
    assert lo[2, 2] == 0 and lo[0, 0] == -1
    assert hi[1, 1] == 5 and hi[3, 2] == 5 and hi[0, 0] == 1 and hi[4, 4] == 1


def test_check_path_flags_wrong_price_and_band():
    z = flat(4, 2)
    lo = np.zeros(z.shape, dtype=int)
    hi = np.zeros(z.shape, dtype=int)
    inst = oracle.Instance(z, 10.0, 1.0, UNIT, lo, hi, (0, 0), (3, 0))
    path = np.array([(x, 0, 0, 0, 0) for x in range(4)])
    assert inst.check_path(path, [10.0] * 3, 30.0) == []
    assert inst.check_set([(path, [10.0] * 3, 30.0)], 1, 12.0, 10.0) == []
    assert "priced" in inst.check_path(path, [10.0, 11.0, 10.0], 31.0)[0]
    hump = np.array([(0, 0, 0, 0, 0), (1, 0, 1, 0, 1), (2, 0, 1, 0, 0), (3, 0, 0, 0, -1)])
    assert "outside the height band" in inst.check_path(hump, None, 0.0)[0]


def test_lane_of():
    walls = (2, 5)
    inside = np.array([(x, 3, 0, 0, 0) for x in range(6)])
    crossing = np.array([(0, 3, 0, 0, 0), (1, 4, 0, 1, 0), (2, 5, 0, 1, 0), (3, 6, 0, 1, 0)])
    assert oracle.lane_of(inside, walls, 1, 4) == 1
    assert oracle.lane_of(crossing, walls, 1, 4) is None
