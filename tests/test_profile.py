"""Properties of the shared dissimilarity pieces: the lateral profile, the
area integral and the placement rule, on random station paths (one vertex
per column, any y) and random 8-neighbour vertex walks (which may double
back over a column)."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor.dissimilarity import (
    AreaConfig,
    Profile,
    accept,
    area_cells,
    area_diff,
    assert_pairwise_dissimilar,
    cost_bar,
    Decision,
    Outcome,
    place,
)
from corridor.graph import AugVertex
from corridor.multipath import _corridor_penalty
from corridor.search import Path
from corridor.terrain import synth_terrain

STEPS = st.sampled_from([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])


def to_path(points, cost=100.0):
    vertices = [AugVertex(x, y, 0, 0, 0) for x, y in points]
    return Path(vertices=vertices, total_cost=cost, edge_costs=[0.0] * (len(vertices) - 1))


@st.composite
def station_points(draw, n=None, ends=None):
    n = n if n is not None else draw(st.integers(1, 30))
    ys = draw(st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=n, max_size=n))
    if ends is not None:
        ys[0], ys[-1] = ends
    return [(x, y) for x, y in enumerate(ys)]


@st.composite
def walk_points(draw, start=(5, 5), end=None):
    x, y = start
    points = [(x, y)]
    for dx, dy in draw(st.lists(STEPS, max_size=40)):
        x, y = x + dx, y + dy
        points.append((x, y))
    if end is not None:
        # Head straight for ``end``, one 8-neighbour step at a time.
        while (x, y) != end:
            x += (end[0] > x) - (end[0] < x)
            y += (end[1] > y) - (end[1] < y)
            points.append((x, y))
    return points


@st.composite
def path_pairs(draw):
    """Two paths with a shared source and destination."""
    if draw(st.booleans()):
        p = draw(station_points())
        q = draw(station_points(n=len(p), ends=(p[0][1], p[-1][1])))
    else:
        p = draw(walk_points())
        q = draw(walk_points(end=p[-1]))
    return to_path(p), to_path(q)


def reference_area(p, q, cfg):
    """The area metric as first written: dict profiles, held at their ends."""
    def means(path):
        cols = {}
        for v in path.vertices:
            cols.setdefault(v.x, []).append(v.y)
        return {x: sum(ys) / len(ys) for x, ys in cols.items()}

    mp, mq = means(p), means(q)
    cells = 0.0
    for x in range(min(min(mp), min(mq)), max(max(mp), max(mq)) + 1):
        yp = mp[min(max(x, min(mp)), max(mp))]
        yq = mq[min(max(x, min(mq)), max(mq))]
        cells += abs(yp - yq)
    return 100.0 * (cells * cfg.dxy * cfg.dxy) / (cfg.map_width * cfg.endpoint_distance)


CFG = AreaConfig(min_diff=12.0, map_width=200.0, endpoint_distance=300.0, dxy=10.0)


def columns(profile):
    """(y sum, visit count) per column from lo to hi, walked from the tip."""
    left, p = [], profile
    while p is not None:
        left.append((p.ysum, p.n))
        p = p.left
    right, p = [], profile.right
    while p is not None:
        right.append((p.ysum, p.n))
        p = p.right
    return left[::-1] + right


@settings(max_examples=200, deadline=None)
@given(st.one_of(station_points(), walk_points()))
def test_extended_profile_equals_whole_path_profile(points):
    grown = None
    for x, y in points:
        grown = Profile(grown, x, y)
    whole = Profile.of_path(to_path(points).vertices)
    # The y values of each column, summed in path order.
    ys = {}
    for x, y in points:
        ys.setdefault(x, []).append(y)
    expected = [(sum(ys[x]), len(ys[x])) for x in sorted(ys)]
    lo, means = grown.means()
    assert (lo, lo + len(means) - 1) == (min(ys), max(ys))
    assert columns(grown) == columns(whole) == expected
    assert grown.means() == whole.means() == (lo, [s / n for s, n in expected])


def test_a_long_walk_keeps_every_profile_small():
    # Labels keep every intermediate profile alive; extending one copies
    # nothing, so 2,000 of them fit in well under 2 MB.
    tracemalloc.start()
    try:
        profiles = [Profile(None, 0, 0.0)]
        for x in range(1, 2000):
            profiles.append(Profile(profiles[-1], x, x % 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profiles[-1].means()[0] == 0 and len(profiles[-1].means()[1]) == 2000
    assert peak < 2_000_000


@settings(max_examples=200, deadline=None)
@given(path_pairs())
def test_area_diff_equals_dict_reference(pair):
    p, q = pair
    assert area_diff(p, q, CFG) == reference_area(p, q, CFG)
    assert area_diff(p, q, CFG) == area_diff(q, p, CFG)


@settings(max_examples=200, deadline=None)
@given(path_pairs(), st.floats(0.0, 2.0), st.booleans())
def test_early_stop_decides_like_the_full_integral(pair, share, at_full):
    a, b = (Profile.of_path(p.vertices).means() for p in pair)
    full = area_cells(a, b)
    stop = full if at_full else share * full
    stopped = area_cells(a, b, stop)
    assert (stopped < stop) == (full < stop)
    assert stopped <= full


def by_the_docstring(costs, similar, cost, room):
    """The rule as :func:`accept` states it, written out case by case."""
    reject = Decision(Outcome.REJECT)
    if len(similar) >= 2:
        return reject
    if len(similar) == 1:
        return Decision(Outcome.REPLACE, similar[0]) if cost < costs[similar[0]] else reject
    if len(costs) < room:
        return Decision(Outcome.ADD)
    top = max(costs)
    last_top = max(i for i, c in enumerate(costs) if c == top)
    return Decision(Outcome.REPLACE, last_top) if cost < top else reject


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from((100.0, 103.0, 105.0, 108.0)), max_size=5),
    st.data(),
    st.sampled_from((99.0, 103.0, 104.0, 109.0)),
    st.integers(1, 5),
)
def test_place_follows_the_accept_docstring(costs, data, cost, room):
    similar = sorted(data.draw(st.sets(st.integers(0, len(costs) - 1))) if costs else [])
    assert place(costs, similar, cost, room) == by_the_docstring(costs, similar, cost, room)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), st.floats(100.0, 115.0)), min_size=1, max_size=12))
def test_accepted_set_stays_dissimilar_and_within_the_bar(candidates):
    # Each candidate holds lateral offset y over 19 interior stations.
    cfg = AreaConfig(min_diff=12.0, map_width=100.0, endpoint_distance=200.0, dxy=10.0)
    accepted = []
    for y, cost in candidates:
        cand = to_path([(0, 0)] + [(x, y) for x in range(1, 20)] + [(20, 0)], cost)
        accept(cand, accepted, cfg, 3, 10.0, 100.0)
        assert_pairwise_dissimilar(accepted, cfg)
        assert len(accepted) <= 3
        assert all(p.total_cost <= cost_bar(100.0, 10.0) for p in accepted)


def test_profile_rejects_a_skipped_column():
    with pytest.raises(ValueError, match="one column apart"):
        Profile.of_path(to_path([(0, 0), (2, 0)]).vertices)


def test_mean_is_held_at_the_hull_ends():
    # ipa's corridor penalty peaks on a path's per-column means, held at the
    # end values outside the path's x-hull.
    path = to_path([(3, 1), (4, 2), (4, 4), (5, 7)])
    assert Profile.of_path(path.vertices).means() == (3, [1.0, 3.0, 7.0])
    penalty = _corridor_penalty(synth_terrain(0, 10, 9, 0.0), [path], 50.0)
    at = [penalty(None, AugVertex(x, y, 0, 0, 0)) for x, y in ((0, 1), (3, 1), (4, 3), (5, 7), (9, 7))]
    assert at == [at[0]] * 5 and at[0] > penalty(None, AugVertex(0, 2, 0, 0, 0))
