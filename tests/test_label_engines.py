"""The multi-label engines on random small maps, masks and endpoints.

``kspa`` with one label per state is Dijkstra, and a multi-label side run
to exhaustion holds, at every state, labels whose profiles match their
chains and which obey the side's dissimilarity and cost rules.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor import CostModel
from corridor.cost import EdgeCoster, straight_line_rows
from corridor.dissimilarity import Profile, area_cells, cost_bar
from corridor.search import SearchStats, _LabelSide, _settles, dijkstra
from corridor.terrain import synth_terrain

from conftest import one_label_path
from strategies import small_instances


@settings(max_examples=40, deadline=None)
@given(small_instances())
def test_kspa_with_one_label_is_dijkstra(inst):
    # kspa and hybrid build on the label side; with one label per state it
    # must settle the destination along Dijkstra's path at Dijkstra's cost.
    grid, model, mask, src, dst = inst
    best = dijkstra(grid, model, mask, src, dst)
    path = one_label_path(grid, model, mask, src, dst)
    if best is None:
        assert path is None
        return
    assert path.vertices == best.vertices
    assert path.total_cost == best.total_cost


def exhausted_side(inst, cap, min_diff, max_diff, keyed, forward):
    """A label side from ``src`` (``dst`` if not ``forward``) run until its
    heap is empty."""
    grid, model, mask, src, dst = inst
    origin, goal = (src, dst) if forward else (dst, src)
    rows = straight_line_rows(grid, model, goal) if keyed else None
    side = _LabelSide(grid, mask, EdgeCoster(grid, model), origin, forward, cap, min_diff, max_diff, rows)
    for _ in _settles(side, SearchStats(), None, None):
        pass
    return side


def assert_within_cost_bar(side, max_diff):
    for bucket in side.labels.values():
        bar = cost_bar(min(l.cost for l in bucket), max_diff)
        assert all(l.cost <= bar for l in bucket)


SIDES = (st.sampled_from((2, 3)), st.sampled_from((2.0, 12.0)), st.sampled_from((5.0, 30.0)), st.booleans())


@settings(max_examples=40, deadline=None)
@given(small_instances(), *SIDES, st.booleans())
def test_held_labels_keep_the_side_rules(inst, cap, min_diff, max_diff, keyed, forward):
    # Both directions: a forward state's orientation fixes the position its
    # offers come from, so they arrive in cost order, and only on a backward
    # side can a later, cheaper offer replace a held label.
    side = exhausted_side(inst, cap, min_diff, max_diff, keyed, forward)
    for state, bucket in side.labels.items():
        assert len(bucket) <= cap
        for label in bucket:
            assert label.means() == Profile.of_path(side.chain(label)).means()
        stop = side._stop_cells(state)
        for a, b in itertools.combinations(bucket, 2):
            assert area_cells(a.means(), b.means(), stop) >= stop


@settings(max_examples=40, deadline=None)
@given(small_instances(), *SIDES)
def test_forward_labels_keep_the_cost_bar(inst, cap, min_diff, max_diff, keyed):
    assert_within_cost_bar(exhausted_side(inst, cap, min_diff, max_diff, keyed, True), max_diff)


@pytest.mark.xfail(
    strict=True,
    reason="the cost bar is tested only when a label is offered; on a backward side a later, "
    "cheaper label can lower it and leave held labels above it",
)
def test_backward_labels_keep_the_cost_bar():
    grid = synth_terrain(0, 6, 5, 4.0)
    side = exhausted_side((grid, CostModel(), None, (0, 2), (5, 2)), 2, 2.0, 5.0, False, False)
    assert_within_cost_bar(side, 5.0)
