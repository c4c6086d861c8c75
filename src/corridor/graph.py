"""Orientation-augmented grid graphs and vertical search-band restrictions.

Road corridors are searched on an implicit graph whose states carry, on top of
the 3D grid position, the orientation of the edge that *arrived* there: a
horizontal heading ``h`` in 0..7 (45-degree steps, see ``terrain.DIR8``) and a
vertical trend ``v`` in {-1, 0, 1}.  An outgoing edge may change the heading
by at most one step and the vertical trend by at most one unit, which encodes
the maximum-45-degree-turn rule as a plain shortest-path problem.

Two vertical restrictions prune states far from the ground: a fixed band
around the local terrain (:func:`simple_height_mask`) and a rule-expanded
variant (:func:`expanding_height_mask`) that widens the band where climbing
ramps or straight-through cuts may be needed.  :func:`height_mask` builds
either, or none, by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .terrain import DIR8, TerrainGrid


class AugVertex(NamedTuple):
    """Grid position plus arrival orientation; orders lexicographically."""

    x: int
    y: int
    z: int
    h: int
    v: int


@dataclass(frozen=True)
class HeightMask:
    """Per-column admissible vertical band [z_lo, z_hi] in grid units."""

    z_lo: np.ndarray
    z_hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.z_lo, dtype=np.int64).copy()
        hi = np.asarray(self.z_hi, dtype=np.int64).copy()
        if lo.shape != hi.shape:
            raise ValueError("mask bound arrays must have equal shape")
        if (lo > hi).any():
            raise ValueError("mask has empty columns (z_lo > z_hi)")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "z_lo", lo)
        object.__setattr__(self, "z_hi", hi)

    def admits(self, x: int, y: int, z: int) -> bool:
        return self.z_lo[y, x] <= z <= self.z_hi[y, x]


@dataclass(frozen=True)
class GraphStats:
    vertexCount: int
    edgeCount: int


def check_mask_shape(grid: TerrainGrid, mask: Optional[HeightMask]) -> None:
    """Raise ``ValueError`` unless ``mask`` is None or has one band per grid column."""
    if mask is not None and mask.z_lo.shape != (grid.ny, grid.nx):
        raise ValueError(f"mask of shape {mask.z_lo.shape} on a grid of shape {(grid.ny, grid.nx)}")


def ground_z_index(grid: TerrainGrid, x: int, y: int) -> int:
    """Ground elevation at a grid vertex snapped to the nearest z level."""
    return int(round(float(grid.z[y, x]) / grid.dz))


def z_bounds(grid: TerrainGrid, mask: Optional[HeightMask], x: int, y: int) -> tuple[int, int]:
    """Admissible z-index range for a column.

    The search universe is the grid's vertical hull; a mask only narrows it
    (its band is intersected with the hull, so masking can never admit states
    an unmasked search would not — pruning stays monotone).  The intersection
    is never empty: both the hull and any band contain the ground level.
    """
    zmin, zmax = grid.z_min_index, grid.z_max_index
    if mask is None:
        return zmin, zmax
    lo = int(mask.z_lo[y, x])
    hi = int(mask.z_hi[y, x])
    return (lo if lo > zmin else zmin), (hi if hi < zmax else zmax)


def flip_state(u: AugVertex) -> AugVertex:
    """Orientation of the same geometric arrival when traveling in reverse."""
    return AugVertex(u.x, u.y, u.z, (u.h + 4) % 8, -u.v)


def _v_options(v: int) -> tuple[int, ...]:
    # {min(v+1, 1), v, max(v-1, -1)} in ascending order, deduplicated.
    if v == 0:
        return (-1, 0, 1)
    if v == 1:
        return (0, 1)
    return (-1, 0)


def successors3do(
    grid: TerrainGrid,
    u: AugVertex,
    mask: Optional[HeightMask] = None,
) -> list[AugVertex]:
    """Forward moves from ``u``: one cell along h' in {h-1, h, h+1} (mod 8),
    z changing by the new vertical trend v'.  Off-grid or off-mask successors
    are dropped, so boundary states simply fan out less."""
    out = []
    nx, ny = grid.nx, grid.ny
    for hp in ((u.h - 1) % 8, u.h, (u.h + 1) % 8):
        dx, dy = DIR8[hp]
        x, y = u.x + dx, u.y + dy
        if not (0 <= x < nx and 0 <= y < ny):
            continue
        lo, hi = z_bounds(grid, mask, x, y)
        for vp in _v_options(u.v):
            z = u.z + vp
            if lo <= z <= hi:
                out.append(AugVertex(x, y, z, hp, vp))
    return out


def rev_successors3do(
    grid: TerrainGrid,
    u: AugVertex,
    mask: Optional[HeightMask] = None,
) -> list[AugVertex]:
    """Moves of the reversed graph, for states stored in reverse orientation.

    From a reverse-oriented state the position advances one cell along the
    *current* heading and z changes by the *current* trend; the new orientation
    is then free within the usual one-step neighborhoods.  Together with
    :func:`flip_state` this mirrors :func:`successors3do` exactly:
    ``w in successors3do(u)``  iff  ``flip_state(u) in rev_successors3do(flip_state(w))``.
    """
    dx, dy = DIR8[u.h]
    x, y = u.x + dx, u.y + dy
    if not (0 <= x < grid.nx and 0 <= y < grid.ny):
        return []
    z = u.z + u.v
    lo, hi = z_bounds(grid, mask, x, y)
    if not (lo <= z <= hi):
        return []
    out = []
    for hp in ((u.h - 1) % 8, u.h, (u.h + 1) % 8):
        for vp in _v_options(u.v):
            out.append(AugVertex(x, y, z, hp, vp))
    return out


def successors2do(grid: TerrainGrid, x: int, y: int, h: int) -> list[tuple[int, int, int]]:
    """Planar variant: (x', y', h') triples reachable under the 45-degree rule."""
    out = []
    for hp in ((h - 1) % 8, h, (h + 1) % 8):
        dx, dy = DIR8[hp]
        xp, yp = x + dx, y + dy
        if 0 <= xp < grid.nx and 0 <= yp < grid.ny:
            out.append((xp, yp, hp))
    return out


def _window_extrema(z: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of z over the (2R+1)^2 window around each cell, clipped at edges."""
    wmax = z.copy()
    wmin = z.copy()
    ny, nx = z.shape
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            xs = slice(max(0, -dx), nx - max(0, dx))
            ys = slice(max(0, -dy), ny - max(0, dy))
            xt = slice(max(0, dx), nx - max(0, -dx))
            yt = slice(max(0, dy), ny - max(0, -dy))
            np.maximum(wmax[ys, xs], z[yt, xt], out=wmax[ys, xs])
            np.minimum(wmin[ys, xs], z[yt, xt], out=wmin[ys, xs])
    return wmax, wmin


def simple_height_mask(grid: TerrainGrid, hm: float, r: int) -> HeightMask:
    """Fixed band: each column admits z within ``hm`` meters of the ground,
    relaxed to the extrema of the ground over the (2r+1)^2 surrounding window
    so that abrupt elevation changes nearby stay connectable.  Bounds snap
    outward to whole z levels, so the band never under-covers."""
    if hm < 0 or r < 0:
        raise ValueError("hm and r must be non-negative")
    z = np.asarray(grid.z, dtype=float)
    wmax, wmin = _window_extrema(z, r)
    return _snapped(grid, np.minimum(wmin, z - hm), np.maximum(wmax, z + hm))


def _snapped(grid: TerrainGrid, lo_elev: np.ndarray, hi_elev: np.ndarray) -> HeightMask:
    """The band between two elevation fields, snapped outward to whole z levels."""
    z_hi = np.ceil(hi_elev / grid.dz - 1e-12).astype(np.int64)
    z_lo = np.floor(lo_elev / grid.dz + 1e-12).astype(np.int64)
    return HeightMask(z_lo=z_lo, z_hi=z_hi)


def expanding_height_mask(
    grid: TerrainGrid,
    hi: float,
    max_grade: float,
    src: Optional[tuple[int, int]] = None,
    dst: Optional[tuple[int, int]] = None,
) -> HeightMask:
    """Rule-expanded band: start from a tight +-``hi`` band around the ground,
    then widen it where the terrain demands it.

    Rule 1 (ramps): wherever an adjacent-cell step is steeper than
    ``max_grade``, every column within the ramp length ``step / max_grade`` of
    the lower cell gets its ceiling raised to the top of the step (and columns
    near the upper cell get their floor dropped to its base), so a climbing
    road can actually be built.

    Rule 2 (straight-through cuts): when ``src`` and ``dst`` grid coordinates
    are given, columns on the straight sight-line between them whose ground
    rises more than ``hi`` above the line have their floor lowered to the line
    elevation, keeping a direct cut through the obstacle admissible.
    """
    if hi <= 0:
        raise ValueError("hi must be positive")
    if max_grade <= 0:
        raise ValueError("max_grade must be positive")
    z = np.asarray(grid.z, dtype=float)
    ny, nx = z.shape
    hi_elev = z + hi
    lo_elev = z - hi

    # Rule 1: scan the four unique adjacency directions for over-grade steps.
    for h in (0, 1, 2, 3):
        dx, dy = DIR8[h]
        run = grid.dxy * (math.sqrt(2.0) if h % 2 else 1.0)
        for y in range(ny):
            yb = y + dy
            if not (0 <= yb < ny):
                continue
            for x in range(nx):
                xb = x + dx
                if not (0 <= xb < nx):
                    continue
                za, zb = z[y, x], z[yb, xb]
                step = zb - za
                if abs(step) / run <= max_grade:
                    continue
                if step > 0:
                    low_xy, high_xy = (x, y), (xb, yb)
                    z_base, z_top = za, zb
                else:
                    low_xy, high_xy = (xb, yb), (x, y)
                    z_base, z_top = zb, za
                ramp_m = (z_top - z_base) / max_grade
                rad = int(math.ceil(ramp_m / grid.dxy))
                _clamp_within(hi_elev, low_xy, rad, z_top + hi, grid.dxy, ramp_m, True)
                _clamp_within(lo_elev, high_xy, rad, z_base - hi, grid.dxy, ramp_m, False)

    # Rule 2: admit the straight source-destination line through blocking ridges.
    if src is not None and dst is not None:
        sx, sy = src
        dx_, dy_ = dst
        zs = float(z[sy, sx])
        zd = float(z[dy_, dx_])
        steps = max(abs(dx_ - sx), abs(dy_ - sy)) * 2
        for k in range(steps + 1):
            t = k / steps if steps else 0.0
            cx = int(round(sx + t * (dx_ - sx)))
            cy = int(round(sy + t * (dy_ - sy)))
            z_line = zs + t * (zd - zs)
            if z[cy, cx] > z_line + hi:
                lo_elev[cy, cx] = min(lo_elev[cy, cx], z_line)

    return _snapped(grid, lo_elev, hi_elev)


MASK_KINDS = ("none", "hr", "ehr")


def height_mask(grid: TerrainGrid, kind: str, hm: float, r: int, hi: float, max_grade: float,
                src: tuple[int, int], dst: tuple[int, int]) -> Optional[HeightMask]:
    """The mask of one of :data:`MASK_KINDS`: ``none`` (no mask), ``hr``
    (:func:`simple_height_mask` with ``hm`` and ``r``) or ``ehr``
    (:func:`expanding_height_mask` with ``hi``, ``max_grade`` and the
    endpoints).  Any other kind raises ``ValueError``."""
    if kind == "hr":
        return simple_height_mask(grid, hm, r)
    if kind == "ehr":
        return expanding_height_mask(grid, hi, max_grade, src=src, dst=dst)
    if kind == "none":
        return None
    raise ValueError(f"unknown mask kind {kind!r}")


def _clamp_within(elev, center, rad, target, dxy, ramp_m, up: bool):
    """Raise (``up``) or lower every cell of ``elev`` within ``ramp_m``
    meters of ``center`` to ``target``; cells already past it stay."""
    cx, cy = center
    ny, nx = elev.shape
    for y in range(max(0, cy - rad), min(ny, cy + rad + 1)):
        row = elev[y]
        for x in range(max(0, cx - rad), min(nx, cx + rad + 1)):
            if math.hypot(x - cx, y - cy) * dxy <= ramp_m:
                if (row[x] < target) if up else (row[x] > target):
                    row[x] = target


def graph_stats(
    grid: TerrainGrid,
    mask: Optional[HeightMask] = None,
    model: str = "3do",
) -> GraphStats:
    """Exact augmented vertex and directed-edge counts by full enumeration."""
    if model == "2do":
        n_vertices = 8 * grid.nx * grid.ny
        n_edges = 0
        for y in range(grid.ny):
            for x in range(grid.nx):
                for h in range(8):
                    n_edges += len(successors2do(grid, x, y, h))
        return GraphStats(vertexCount=n_vertices, edgeCount=n_edges)
    if model != "3do":
        raise ValueError(f"unknown model {model!r}")
    n_vertices = 0
    n_edges = 0
    for y in range(grid.ny):
        for x in range(grid.nx):
            lo, hi = z_bounds(grid, mask, x, y)
            n_vertices += 24 * (hi - lo + 1)
            for zi in range(lo, hi + 1):
                for h in range(8):
                    for v in (-1, 0, 1):
                        n_edges += len(successors3do(grid, AugVertex(x, y, zi, h, v), mask))
    return GraphStats(vertexCount=n_vertices, edgeCount=n_edges)
