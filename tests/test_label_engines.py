"""The multi-label engines on random small maps, masks and endpoints.

``kspa`` with one label per state is Dijkstra, and a multi-label side run
to exhaustion holds, at every state, labels whose profiles match their
chains and which obey the side's dissimilarity and cost rules.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from corridor import CostModel
from corridor.cost import EdgeCoster
from corridor.dissimilarity import Profile, area_cells, cost_bar
from corridor.graph import AugVertex, ground_z_index
from corridor.search import SearchStats, _Label, _LabelSide, _settles, dijkstra
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
    heap is empty, keyed, if ``keyed``, by the A* potential to its far end
    as in ``kspa`` and ``hybrid``."""
    grid, model, mask, src, dst = inst
    origin, goal = (src, dst) if forward else (dst, src)
    coster = EdgeCoster(grid, model)
    potential = coster.astar_potential(mask, goal) if keyed else None
    side = _LabelSide(grid, mask, coster, origin, forward, cap, min_diff, max_diff, potential)
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
        stop = side._stop_cells(*side.states.decode(state)[:2])
        for a, b in itertools.combinations(bucket, 2):
            assert area_cells(a.means(), b.means(), stop) >= stop


@settings(max_examples=40, deadline=None)
@given(small_instances(), *SIDES)
def test_forward_labels_keep_the_cost_bar(inst, cap, min_diff, max_diff, keyed):
    assert_within_cost_bar(exhausted_side(inst, cap, min_diff, max_diff, keyed, True), max_diff)


# On a backward side a later, cheaper label can lower a state's cost bar;
# the labels it leaves above the bar are dropped.  The bar used to be tested
# only when a label was offered, and the side of the example held labels
# above it.
@settings(max_examples=40, deadline=None)
@given(small_instances(), *SIDES)
@example((synth_terrain(0, 6, 5, 4.0), CostModel(), None, (0, 2), (5, 2)), 2, 2.0, 5.0, False)
def test_backward_labels_keep_the_cost_bar(inst, cap, min_diff, max_diff, keyed):
    assert_within_cost_bar(exhausted_side(inst, cap, min_diff, max_diff, keyed, False), max_diff)


def test_a_cheaper_offer_lowers_the_bar_before_it_is_placed():
    # Held at one backward state: A=10 and B=10.4, within 5 % of A.  An
    # offer N=9.9, similar to both, first drops B (above 9.9 * 1.05) and
    # then replaces A, so the state keeps its cheapest label.  Placed
    # against both, N would have been rejected.
    grid = synth_terrain(0, 6, 5, 4.0)
    side = _LabelSide(grid, None, EdgeCoster(grid, CostModel()), (5, 2), False, 3, 2.0, 5.0)
    state = side.states.encode(AugVertex(2, 2, ground_z_index(grid, 2, 2), 0, 0))
    held = [_Label(10.0, state, None, 2, 2), _Label(10.4, state, None, 2, 2)]
    for label in held:
        side._push(label)
    side._keep_dissimilar(None, state, 9.9)
    assert [l.cost for l in side.labels[state]] == [9.9]
    assert not any(l.alive for l in held)
