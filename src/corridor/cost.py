"""Edge pricing (paving plus earthwork) and admissible search heuristics."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import AugVertex, HeightMask, check_mask_shape
from .terrain import DIR8, TerrainGrid, ground_profile

Point3 = tuple[float, float, float]


@dataclass(frozen=True)
class CostModel:
    """Unit rates for pricing a road edge.

    ``paving_rate`` is cost per meter of road, ``cut_rate`` and ``fill_rate``
    cost per cubic meter of excavation/embankment, ``road_width`` the width
    used to turn cross-section areas into volumes, and ``max_grade`` the
    steepest permissible grade (used by the expanding height restriction).
    """

    paving_rate: float = 1.0
    cut_rate: float = 1.0
    fill_rate: float = 1.0
    road_width: float = 10.0
    max_grade: float = 0.10

    def __post_init__(self):
        # Written so that NaN fails each check.
        if not all(0 <= rate < math.inf for rate in (self.paving_rate, self.cut_rate, self.fill_rate)):
            raise ValueError("rates must be non-negative and finite")
        if not 0 < self.road_width < math.inf:
            raise ValueError("road width must be positive and finite")
        if math.isnan(self.max_grade):
            raise ValueError("max_grade must not be NaN")


def edge_cost(model: CostModel, edge: tuple[Point3, Point3], grid: TerrainGrid) -> float:
    """Price a straight 3D edge: paving on its 3D length plus cut/fill volumes.

    The earthwork term integrates the signed gap between the (linear) road and
    the piecewise-linear ground profile along the edge footprint, splitting
    pieces at grade crossings; areas above ground are filled, below ground cut,
    and both are multiplied by the road width to obtain volumes.
    """
    (x0, y0, z0), (x1, y1, z1) = edge
    profile = ground_profile(grid, (x0, y0), (x1, y1))
    length_2d = profile[-1][0]
    length_3d = math.hypot(length_2d, z1 - z0)
    cut_area = 0.0
    fill_area = 0.0
    if length_2d > 0.0:
        for (sa, ga), (sb, gb) in zip(profile, profile[1:]):
            ra = z0 + (z1 - z0) * (sa / length_2d)
            rb = z0 + (z1 - z0) * (sb / length_2d)
            da = ra - ga
            db = rb - gb
            width = sb - sa
            if da * db >= 0.0:
                area = 0.5 * (da + db) * width
                if area >= 0.0:
                    fill_area += area
                else:
                    cut_area -= area
            else:
                s_cross = width * da / (da - db)
                a0 = 0.5 * da * s_cross
                a1 = 0.5 * db * (width - s_cross)
                for a in (a0, a1):
                    if a >= 0.0:
                        fill_area += a
                    else:
                        cut_area -= a
    return (
        model.paving_rate * length_3d
        + model.cut_rate * cut_area * model.road_width
        + model.fill_rate * fill_area * model.road_width
    )


class EdgeCoster:
    """Memoized pricing of unit grid moves between augmented states of one
    grid/model pair, by a closed form of :func:`edge_cost` for such moves.

    The midpoint ground elevation is computed in closed form (orthogonal:
    mean of the endpoints, diagonal: mean of the 4 cell corners — both
    exactly the bilinear value).  Any other move raises ``ValueError``.
    """

    def __init__(self, grid: TerrainGrid, model: CostModel):
        self.grid = grid
        self.model = model
        self._z = [[float(v) for v in row] for row in grid.z]
        self._cache: dict[tuple[int, int, int, int, int, int], float] = {}
        # (id(mask), dst) -> (mask, potential rows); the entry holds the mask
        # so its id cannot be reused by another mask while the entry lives.
        self._potentials: dict[tuple, tuple[Optional[HeightMask], list[list[float]]]] = {}

    def __call__(self, u: AugVertex, w: AugVertex) -> float:
        a = (u.x, u.y, u.z)
        b = (w.x, w.y, w.z)
        # One price per unordered pair, computed from its smaller end, so a
        # move costs the same to the last bit in either direction.
        key = a + b if a <= b else b + a
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        c = self._compute(*key)
        self._cache[key] = c
        return c

    def _compute(self, x0, y0, zi0, x1, y1, zi1) -> float:
        grid = self.grid
        model = self.model
        dxy = grid.dxy
        z = self._z
        g0 = z[y0][x0]
        g1 = z[y1][x1]
        dx = x1 - x0
        dy = y1 - y0
        if not (abs(dx) <= 1 and abs(dy) <= 1 and (dx or dy)):
            raise ValueError(f"not a unit grid move: ({x0}, {y0}) -> ({x1}, {y1})")
        if dx and dy:
            gm = 0.25 * (g0 + g1 + z[y0][x1] + z[y1][x0])
            length_2d = dxy * 1.4142135623730951
        else:
            gm = 0.5 * (g0 + g1)
            length_2d = dxy
        r0 = zi0 * grid.dz
        r1 = zi1 * grid.dz
        rm = 0.5 * (r0 + r1)
        cut = 0.0
        fill = 0.0
        half = 0.5 * length_2d
        for da, db in ((r0 - g0, rm - gm), (rm - gm, r1 - g1)):
            if da * db >= 0.0:
                area = 0.5 * (da + db) * half
                if area >= 0.0:
                    fill += area
                else:
                    cut -= area
            else:
                s_cross = half * da / (da - db)
                a0 = 0.5 * da * s_cross
                a1 = 0.5 * db * (half - s_cross)
                if a0 >= 0.0:
                    fill += a0
                else:
                    cut -= a0
                if a1 >= 0.0:
                    fill += a1
                else:
                    cut -= a1
        length_3d = math.hypot(length_2d, r1 - r0)
        return (
            model.paving_rate * length_3d
            + model.cut_rate * cut * model.road_width
            + model.fill_rate * fill * model.road_width
        )


    def astar_potential(
        self, mask: Optional[HeightMask], dst: tuple[int, int], build: bool = True
    ) -> Optional[list[list[float]]]:
        """Rows ``[y][x]`` of the A* potential toward ``dst``: the larger of
        the straight-line bound and :func:`planar_bound`.  Both are consistent,
        so their maximum is too.  Built once per (mask, dst) and memoised;
        with ``build=False`` only a memoised table is returned, else None."""
        dst = (int(dst[0]), int(dst[1]))
        key = (id(mask), dst)
        entry = self._potentials.get(key)
        if entry is not None:
            return entry[1]
        if not build:
            return None
        planar = planar_bound(self.grid, self.model, mask, dst).tolist()
        straight = straight_line_rows(self.grid, self.model, dst)
        rows = [list(map(max, line, row)) for line, row in zip(straight, planar)]
        self._potentials[key] = (mask, rows)
        return rows


def unit_move_prices(
    grid: TerrainGrid,
    model: CostModel,
    x0: np.ndarray,
    y0: np.ndarray,
    z0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    z1: np.ndarray,
) -> np.ndarray:
    """Prices of many unit grid moves (x0, y0, z0) -> (x1, y1, z1) at once.

    The same closed form as :meth:`EdgeCoster._compute`, operation for
    operation, so the two agree to the last bit except where ``np.hypot``
    and ``math.hypot`` round the 3D length differently.  Arguments are
    integer arrays of one shape; every move must be one of the 8 unit steps.
    """
    z = grid.z
    g0 = z[y0, x0]
    g1 = z[y1, x1]
    diag = (x0 != x1) & (y0 != y1)
    gm = np.where(diag, 0.25 * (g0 + g1 + z[y0, x1] + z[y1, x0]), 0.5 * (g0 + g1))
    length_2d = np.where(diag, grid.dxy * 1.4142135623730951, grid.dxy)
    return _move_prices(model, g0, gm, g1, length_2d, z0 * grid.dz, z1 * grid.dz)


def _move_prices(model, g0, gm, g1, length_2d, r0, r1) -> np.ndarray:
    """:func:`unit_move_prices` from ground elevations at the start, middle
    and end of each move, its planar length and its road elevations."""
    rm = 0.5 * (r0 + r1)
    half = 0.5 * length_2d
    cut = np.zeros(np.shape(r0))
    fill = np.zeros(np.shape(r0))
    with np.errstate(divide="ignore", invalid="ignore"):
        for da, db in ((r0 - g0, rm - gm), (rm - gm, r1 - g1)):
            same_side = da * db >= 0.0
            s_cross = half * da / (da - db)
            # One area when the piece stays on one side of the ground, else
            # the two triangles either side of the crossing, in that order.
            a0 = np.where(same_side, 0.5 * (da + db) * half, 0.5 * da * s_cross)
            a1 = np.where(same_side, 0.0, 0.5 * db * (half - s_cross))
            for a in (a0, a1):
                above = a >= 0.0
                fill = fill + np.where(above, a, 0.0)
                cut = cut - np.where(above, 0.0, a)
    length_3d = np.hypot(length_2d, r1 - r0)
    return (
        model.paving_rate * length_3d
        + model.cut_rate * cut * model.road_width
        + model.fill_rate * fill * model.road_width
    )


# Relative slack taken off every relaxed move price.  It covers the last-bit
# differences between the two pricers in the 3D length, so the planar bound
# stays below every edge price in floating point and not only in exact
# arithmetic.
_BOUND_SLACK = 1e-12

# Cells priced at once by :func:`planar_bound`; a taller column is a block of
# its own.  A block's temporaries take about 200 bytes a cell.
_BLOCK_CELLS = 4096


def planar_bound(
    grid: TerrainGrid, model: CostModel, mask: Optional[HeightMask], dst: tuple[int, int]
) -> np.ndarray:
    """Exact cost to ``dst`` on the relaxed graph of grid columns, shape (ny, nx).

    The relaxed graph keeps the 8-neighbour moves between columns and drops
    the 45-degree turn rule.  Each move costs the cheapest unit move between
    its two columns over all admissible z pairs (the column bands of
    :func:`graph.z_bounds`, with |dz| <= 1), priced like
    :class:`EdgeCoster` from the move's lexicographically smaller end.  Every
    augmented path maps onto a relaxed path that costs no more, and each
    relaxed move never overprices the augmented edges above it, so the field
    is a consistent A* potential.  Columns that cannot reach ``dst`` read inf.
    """
    check_mask_shape(grid, mask)
    nx, ny = grid.nx, grid.ny
    # Moves along the first four headings, then their reversals.
    edges: list[tuple[int, list[float]]] = []
    for (dx, dy), w in zip(DIR8, _move_weights(grid, model, mask)):
        back = np.full(nx * ny, np.inf)
        ok = np.nonzero(np.isfinite(w))[0]
        back[ok + dy * nx + dx] = w[ok]
        edges += [(dy * nx + dx, w.tolist()), (-(dy * nx + dx), back.tolist())]

    # Reverse Dijkstra from dst; the relaxed graph is undirected.
    inf = math.inf
    dist = [inf] * (nx * ny)
    t = dst[1] * nx + dst[0]
    dist[t] = 0.0
    heap = [(0.0, t)]
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue
        for off, w in edges:
            c = w[i]
            if c == inf:
                continue
            j = i + off
            nd = d + c
            if nd < dist[j]:
                dist[j] = nd
                heapq.heappush(heap, (nd, j))
    return np.array(dist).reshape(ny, nx)


def _move_weights(grid: TerrainGrid, model: CostModel, mask: Optional[HeightMask]) -> list[np.ndarray]:
    """Per flat column and per heading of ``DIR8[:4]``, the relaxed price of
    the move to the next column (inf where there is none).

    The admissible (x, y, z) cells are priced in blocks of whole columns, at
    most :data:`_BLOCK_CELLS` cells a block, so temporaries grow with the grid
    and not with the band.
    """
    n = grid.nx * grid.ny
    lo = np.full(n, grid.z_min_index, dtype=np.int64)
    hi = np.full(n, grid.z_max_index, dtype=np.int64)
    if mask is not None:
        np.maximum(lo, mask.z_lo.ravel(), out=lo)
        np.minimum(hi, mask.z_hi.ravel(), out=hi)
    sizes = hi - lo + 1
    ends = np.cumsum(sizes)
    ground = grid.z.ravel()
    col = np.arange(n)
    cx, cy = col % grid.nx, col // grid.nx

    # What depends only on the start column, per heading: the band of the
    # target column (empty off the grid), its ground and the ground at the
    # move's middle.  The smaller end of a move is its start, except on
    # heading (-1, 1), which is priced from its target.
    headings = []
    for dx, dy in DIR8[:4]:
        tx, ty = cx + dx, cy + dy
        on = (tx >= 0) & (tx < grid.nx) & (ty >= 0) & (ty < grid.ny)
        tcol = np.where(on, ty * grid.nx + tx, col)
        g1 = ground[tcol]
        if dx and dy:
            # The two corners off the move, summed in the priced direction's order.
            a = ground[cy * grid.nx + np.where(on, tx, cx)]
            b = ground[np.where(on, ty, cy) * grid.nx + cx]
            gm = 0.25 * (ground + g1 + a + b) if dx > 0 else 0.25 * (g1 + ground + b + a)
            length_2d = grid.dxy * 1.4142135623730951
        else:
            gm = 0.5 * (ground + g1)
            length_2d = grid.dxy
        band = np.where(on, lo[tcol], 1), np.where(on, hi[tcol], 0)
        headings.append((dx >= 0, band, g1, gm, length_2d, np.empty(n)))

    start = 0
    while start < n:
        # Whole columns from ``start`` on; the first one even if it is taller.
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _BLOCK_CELLS, side="right")))
        firsts = ends[start:stop] - sizes[start:stop] - base
        c = np.repeat(col[start:stop], sizes[start:stop])
        cz = lo[c] + np.arange(c.size) - firsts[c - start]
        g0 = ground[c]
        r0 = cz * grid.dz
        for forward, (t_lo, t_hi), g1, gm, length_2d, w in headings:
            t_lo, t_hi, gt, gmid = t_lo[c], t_hi[c], g1[c], gm[c]
            best = np.full(c.size, np.inf)
            for step in (-1, 0, 1):
                # Every cell is priced; only the moves that land in the
                # target's band count.
                tz = cz + step
                r1 = tz * grid.dz
                if forward:
                    price = _move_prices(model, g0, gmid, gt, length_2d, r0, r1)
                else:
                    price = _move_prices(model, gt, gmid, g0, length_2d, r1, r0)
                np.minimum(best, price, out=best, where=(tz >= t_lo) & (tz <= t_hi))
            w[start:stop] = np.minimum.reduceat(best, firsts) * (1.0 - _BOUND_SLACK)
        start = stop
    return [h[-1] for h in headings]


def astar_heuristic(model: CostModel, p: tuple[float, float], dest: tuple[float, float]) -> float:
    """Admissible remaining-cost bound: paving a straight road to ``dest``.

    Every path pays at least the paving of its planar length, which is at
    least the straight-line distance, and earthwork is non-negative.
    """
    return model.paving_rate * math.hypot(dest[0] - p[0], dest[1] - p[1])


def straight_line_rows(grid: TerrainGrid, model: CostModel, dst: tuple[int, int]) -> list[list[float]]:
    """Rows ``[y][x]`` of :func:`astar_heuristic` toward the column ``dst``,
    with the same arithmetic inlined: a query tabulates the whole grid."""
    dxy, rate, hypot = grid.dxy, model.paving_rate, math.hypot
    gaps_x = [dst[0] * dxy - x * dxy for x in range(grid.nx)]
    gaps_y = [dst[1] * dxy - y * dxy for y in range(grid.ny)]
    return [[rate * hypot(gx, gy) for gx in gaps_x] for gy in gaps_y]

