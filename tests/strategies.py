"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from corridor import CostModel, expanding_height_mask, simple_height_mask
from corridor.terrain import synth_terrain


SMALL_MODELS = (CostModel(), CostModel(paving_rate=0.5, cut_rate=3.0, fill_rate=1.5, road_width=6.0))


@st.composite
def small_instances(draw):
    """A random small relief map, cost model, endpoints and mask (none, HR
    or EHR), as ``(grid, model, mask, src, dst)``."""
    nx = draw(st.integers(3, 9))
    ny = draw(st.integers(3, 7))
    grid = synth_terrain(draw(st.integers(0, 10_000)), nx, ny, draw(st.sampled_from((0.0, 1.5, 4.0, 9.0))))
    model = draw(st.sampled_from(SMALL_MODELS))
    src = (draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1)))
    dst = (draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1)))
    kind = draw(st.sampled_from(("none", "hr", "ehr")))
    if kind == "hr":
        mask = simple_height_mask(grid, 1.0, draw(st.integers(0, 2)))
    elif kind == "ehr":
        mask = expanding_height_mask(grid, 0.5, model.max_grade, src=src, dst=dst)
    else:
        mask = None
    return grid, model, mask, src, dst
