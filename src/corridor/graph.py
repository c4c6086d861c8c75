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

from .terrain import DIR8, TerrainGrid, shifted


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
        lo = np.asarray(self.z_lo, dtype=np.int64)
        hi = np.asarray(self.z_hi, dtype=np.int64)
        if lo.shape != hi.shape:
            raise ValueError("mask bound arrays must have equal shape")
        if (lo > hi).any():
            raise ValueError("mask has empty columns (z_lo > z_hi)")
        # Both bounds share one read-only int32 buffer, half the memory of two
        # int64 arrays; callers such as the benchmark keep a mask per operation.
        band = np.array((lo, hi), dtype=np.int32)
        if (band != (lo, hi)).any():
            raise ValueError("mask levels must fit in 32 bits")
        band.setflags(write=False)
        object.__setattr__(self, "z_lo", band[0])
        object.__setattr__(self, "z_hi", band[1])

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
    lo = mask.z_lo.item(y, x)
    hi = mask.z_hi.item(y, x)
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


def _offsets(shape: tuple[int, int], radius: int):
    """The offsets (dx, dy) of the (2R+1)^2 window, clipped to those that
    join two cells of a grid of ``shape``."""
    ry, rx = min(radius, shape[0] - 1), min(radius, shape[1] - 1)
    return ((dx, dy) for dy in range(-ry, ry + 1) for dx in range(-rx, rx + 1))


def _window_extrema(z: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of z over the (2R+1)^2 window around each cell, clipped at edges."""
    wmax = z.copy()
    wmin = z.copy()
    for dx, dy in _offsets(z.shape, radius):
        a, b = shifted(z.shape, dx, dy)
        zb = z[b]
        np.maximum(wmax[a], zb, out=wmax[a])
        np.minimum(wmin[a], zb, out=wmin[a])
    return wmax, wmin


def simple_height_mask(grid: TerrainGrid, hm: float, r: int) -> HeightMask:
    """Fixed band: each column admits z within ``hm`` meters of the ground,
    relaxed to the extrema of the ground over the (2r+1)^2 surrounding window
    so that abrupt elevation changes nearby stay connectable.  Bounds snap
    outward to whole z levels, so the band never under-covers."""
    if not 0 <= hm < math.inf or r < 0:
        raise ValueError("hm must be non-negative and finite, and r non-negative")
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
    elevation, keeping a direct cut through the obstacle admissible.  An
    endpoint off the grid raises ``ValueError``.
    """
    if not 0 < hi < math.inf:
        raise ValueError("hi must be positive and finite")
    if not max_grade > 0:
        raise ValueError("max_grade must be positive")
    for name, point in (("src", src), ("dst", dst)):
        if point is not None and not (0 <= point[0] < grid.nx and 0 <= point[1] < grid.ny):
            raise ValueError(f"{name} {tuple(point)} outside grid")
    z = np.asarray(grid.z, dtype=float)
    hi_elev = z + hi
    lo_elev = z - hi

    # Rule 1: each cell's highest over-grade neighbor above (top) and lowest
    # below (base), the cell itself where it has none.  The step to either has
    # the longest ramp and the most extreme target of all the cell's steps, so
    # its disc covers theirs; a ramp of 0 leaves the band as it is.
    top = z.copy()
    base = z.copy()
    for h, (dx, dy) in enumerate(DIR8):
        a, b = shifted(z.shape, dx, dy)
        za, zb = z[a], z[b]
        run = grid.dxy * (math.sqrt(2.0) if h % 2 else 1.0)
        end = np.where(np.abs(zb - za) / run > max_grade, zb, za)
        np.maximum(top[a], end, out=top[a])
        np.minimum(base[a], end, out=base[a])
    ramp_up = (top - z) / max_grade
    ramp_dn = (z - base) / max_grade
    rad_up = np.ceil(ramp_up / grid.dxy)
    rad_dn = np.ceil(ramp_dn / grid.dxy)
    reach = max(ramp_up.max(), ramp_dn.max())
    for ox, oy in _offsets(z.shape, math.ceil(reach / grid.dxy)):
        dist = math.hypot(ox, oy) * grid.dxy
        if dist > reach:
            continue
        box = max(abs(ox), abs(oy))
        a, b = shifted(z.shape, ox, oy)
        up = (ramp_up[a] >= dist) & (rad_up[a] >= box)
        dn = (ramp_dn[a] >= dist) & (rad_dn[a] >= box)
        np.maximum(hi_elev[b], np.where(up, top[a] + hi, -math.inf), out=hi_elev[b])
        np.minimum(lo_elev[b], np.where(dn, base[a] - hi, math.inf), out=lo_elev[b])

    # Rule 2: admit the straight source-destination line through blocking ridges.
    if src is not None and dst is not None:
        (sx, sy), (tx, ty) = src, dst
        steps = max(abs(tx - sx), abs(ty - sy)) * 2
        t = np.arange(steps + 1) / max(steps, 1)
        cx = np.rint(sx + t * (tx - sx)).astype(np.int64)
        cy = np.rint(sy + t * (ty - sy)).astype(np.int64)
        zs = float(z[sy, sx])
        z_line = zs + t * (float(z[ty, tx]) - zs)
        cut = z[cy, cx] > z_line + hi
        np.minimum.at(lo_elev, (cy[cut], cx[cut]), z_line[cut])

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
