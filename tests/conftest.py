"""Shared fixtures: hand-built terrains with known corridor structure."""

from __future__ import annotations

import numpy as np
import pytest

from corridor import CostModel, TerrainGrid, simple_height_mask
from corridor.cost import EdgeCoster
from corridor.graph import ground_z_index
from corridor.multipath import MultipathConfig
from corridor.search import Path, SearchStats, _LabelSide, _settles


def lane_grid(nx=53, ny=24, walls=(9, 15), wall_height=8.0, gap=4, dxy=10.0):
    """Flat map with long walls splitting it into three lanes.

    The walls stop ``gap`` columns short of each map end, so corridors can
    switch lanes cheaply near the endpoints but nowhere else.
    """
    z = np.zeros((ny, nx))
    for y in walls:
        z[y, gap:nx - gap] = wall_height
    return TerrainGrid(nx=nx, ny=ny, dxy=dxy, dz=1.0, z=z)


def canyon_grid(nx=31, ny=12, walls=(4, 7), wall_height=8.0):
    """A single corridor: walls run the full map length with no gaps."""
    z = np.zeros((ny, nx))
    for y in walls:
        z[y, :] = wall_height
    return TerrainGrid(nx=nx, ny=ny, dxy=10.0, dz=1.0, z=z)


def crossing_grid(nx=41, ny=21, plateau=6.0, amp=4.0):
    """Two smooth channels through a plateau that cross mid-map at an angle."""
    z = np.full((ny, nx), plateau)
    mid = ny // 2
    for x in range(nx):
        swing = amp * np.sin(2.0 * np.pi * x / (nx - 1))
        for offset in (swing, -swing):
            yc = int(round(mid + offset))
            for y in (yc - 1, yc, yc + 1):
                if 0 <= y < ny:
                    z[y, x] = 0.0
    return TerrainGrid(nx=nx, ny=ny, dxy=10.0, dz=1.0, z=z)


def flat_grid(nx=42, ny=16, dxy=10.0):
    return TerrainGrid(nx=nx, ny=ny, dxy=dxy, dz=1.0, z=np.zeros((ny, nx)))


def one_label_path(grid, model, mask, src, dst):
    """The path a forward, unguided side holding one label per state settles at dst.

    kspa and hybrid build on this side; with one label per state it is
    Dijkstra. Returns None when dst is never settled.
    """
    coster = EdgeCoster(grid, model)
    cfg = MultipathConfig()
    side = _LabelSide(grid, mask, coster, src, True, 1, cfg.min_diff, cfg.max_diff)
    position = coster.states.position(*dst, ground_z_index(grid, *dst))
    found = next((l for _, _, s, l in _settles(side, SearchStats(), None, None) if s // 24 == position), None)
    if found is None:
        return None
    return Path(vertices=side.chain(found), total_cost=0.0).price(coster)


@pytest.fixture(scope="session")
def model():
    return CostModel()

@pytest.fixture(scope="session")
def lane_model():
    # Steep earthwork pricing keeps wall crossings decisively uncompetitive.
    return CostModel(cut_rate=3.0, fill_rate=3.0)


@pytest.fixture(scope="session")
def lanes():
    return lane_grid()


@pytest.fixture(scope="session")
def lanes_mask(lanes):
    return simple_height_mask(lanes, 1.0, 1)


LANES_SRC = (0, 12)
LANES_DST = (52, 12)
