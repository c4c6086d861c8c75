"""Terrain elevation grids: file I/O, synthesis, slope classification, profiles.

A :class:`TerrainGrid` is an immutable ny-by-nx field of ground elevations with
a fixed horizontal spacing ``dxy`` (meters between adjacent grid columns/rows)
and a vertical quantum ``dz`` (meters between admissible road levels).  It is
the single source of ground truth for every other module; once built it is
never mutated, so grids can be shared freely between concurrent solver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridFormatError(ValueError):
    """Raised when a grid file does not conform to the expected layout."""


@dataclass(frozen=True)
class TerrainGrid:
    """Elevation field ``z[y, x]`` in meters over an nx-by-ny vertex lattice."""

    nx: int
    ny: int
    dxy: float
    dz: float
    z: np.ndarray

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2x2 vertices")
        if not (0 < self.dxy < math.inf and 0 < self.dz < math.inf):
            raise ValueError("grid spacings must be positive and finite")
        z = np.asarray(self.z, dtype=float)
        if z.shape != (self.ny, self.nx):
            raise ValueError(f"elevation array shape {z.shape} != (ny={self.ny}, nx={self.nx})")
        if not np.isfinite(z).all():
            raise ValueError("non-finite elevation value")
        z = z.copy()
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        # The vertical hull is read on every successor step; scan the grid once.
        object.__setattr__(self, "_z_min_index", int(math.floor(float(z.min()) / self.dz)))
        object.__setattr__(self, "_z_max_index", int(math.ceil(float(z.max()) / self.dz)))

    # -- extents -----------------------------------------------------------

    @property
    def length_m(self) -> float:
        """Map extent along x in meters."""
        return (self.nx - 1) * self.dxy

    @property
    def width_m(self) -> float:
        """Map extent along y in meters."""
        return (self.ny - 1) * self.dxy

    @property
    def z_min_index(self) -> int:
        return self._z_min_index

    @property
    def z_max_index(self) -> int:
        return self._z_max_index

    @property
    def n_levels(self) -> int:
        """Number of vertical grid levels spanned by the terrain."""
        return self.z_max_index - self.z_min_index + 1

    @cached_property
    def neighbour_cells(self) -> list[int]:
        """With the columns numbered x-major (``x * ny + y``), entry
        ``8 * cell + h`` is the column one step along ``DIR8[h]``, or -1 off
        the grid.  Built once per grid: searches read it on every settle."""
        ny = self.ny
        return [
            (x + dx) * ny + y + dy if 0 <= x + dx < self.nx and 0 <= y + dy < ny else -1
            for x in range(self.nx) for y in range(ny) for dx, dy in DIR8
        ]

    # -- sampling ----------------------------------------------------------

    def in_extent(self, x_m: float, y_m: float) -> bool:
        return 0.0 <= x_m <= self.length_m + 1e-9 and 0.0 <= y_m <= self.width_m + 1e-9

    def elevation(self, x_m: float, y_m: float) -> float:
        """Bilinear ground elevation at a planar point given in meters."""
        if not self.in_extent(x_m, y_m):
            raise ValueError(f"point ({x_m}, {y_m}) outside grid extent")
        fx = min(max(x_m / self.dxy, 0.0), self.nx - 1.0)
        fy = min(max(y_m / self.dxy, 0.0), self.ny - 1.0)
        i0 = min(int(fx), self.nx - 2)
        j0 = min(int(fy), self.ny - 2)
        tx = fx - i0
        ty = fy - j0
        z = self.z
        return float(
            z[j0, i0] * (1 - tx) * (1 - ty)
            + z[j0, i0 + 1] * tx * (1 - ty)
            + z[j0 + 1, i0] * (1 - tx) * ty
            + z[j0 + 1, i0 + 1] * tx * ty
        )


@dataclass(frozen=True)
class TerrainClassBreakdown:
    """Fractions of vertices whose steepest local grade is mild/medium/steep."""

    fracA: float
    fracB: float
    fracC: float

    def __post_init__(self):
        total = self.fracA + self.fracB + self.fracC
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class fractions sum to {total}, expected 1")


def load_grid(path) -> TerrainGrid:
    """Read a grid file: header line ``nx ny dxy dz``, then row-major elevations."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise GridFormatError("empty grid file")
    header = lines[0].split()
    if len(header) != 4:
        raise GridFormatError(f"malformed header: expected 'nx ny dxy dz', got {lines[0]!r}")
    try:
        nx, ny = int(header[0]), int(header[1])
        dxy, dz = float(header[2]), float(header[3])
    except ValueError as exc:
        raise GridFormatError(f"malformed header: {exc}") from exc
    values: list[float] = []
    for line in lines[1:]:
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError as exc:
                raise GridFormatError(f"bad elevation value {tok!r}") from exc
    if len(values) != nx * ny:
        raise GridFormatError(
            f"elevation count mismatch: header declares {nx}x{ny}={nx * ny}, file has {len(values)}"
        )
    z = np.array(values, dtype=float).reshape(ny, nx)
    if not np.isfinite(z).all():
        raise GridFormatError("non-finite elevation value")
    return TerrainGrid(nx=nx, ny=ny, dxy=dxy, dz=dz, z=z)


def save_grid(grid: TerrainGrid, path) -> None:
    """Write a grid file that :func:`load_grid` reads back bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{grid.nx} {grid.ny} {grid.dxy!r} {grid.dz!r}\n")
        for row in grid.z:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# Eight planar step directions, index h = 0..7 counterclockwise from +x.
DIR8: tuple[tuple[int, int], ...] = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)

_SQRT2 = math.sqrt(2.0)


def shifted(shape: tuple[int, int], dx: int, dy: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """Index pair ``(a, b)`` into arrays of ``shape`` (ny, nx): ``arr[b]`` is
    the neighbor at offset (dx, dy) of each cell of ``arr[a]``.  Both select
    nothing once the offset leaves the grid."""
    ny, nx = shape
    return ((slice(max(0, -dy), max(0, ny - dy)), slice(max(0, -dx), max(0, nx - dx))),
            (slice(max(0, dy), max(0, ny + dy)), slice(max(0, dx), max(0, nx + dx))))


def _steepest_grades(grid: TerrainGrid) -> np.ndarray:
    """:func:`max_grade` of every vertex, as an array of shape (ny, nx)."""
    m = np.zeros((grid.ny, grid.nx), dtype=float)
    z = grid.z
    for h, (dx, dy) in enumerate(DIR8):
        a, b = shifted(z.shape, dx, dy)
        np.maximum(m[a], np.abs(z[b] - z[a]) / (grid.dxy * (_SQRT2 if h % 2 else 1.0)), out=m[a])
    return m


def max_grade(grid: TerrainGrid, i: int, j: int) -> float:
    """Steepest |rise|/run toward any in-grid neighbor of vertex (i, j).

    Orthogonal runs are ``dxy``, diagonal runs ``dxy * sqrt(2)``.  Boundary
    vertices use only the directions that stay inside the grid.
    """
    if not (0 <= i < grid.nx and 0 <= j < grid.ny):
        raise IndexError(f"vertex ({i}, {j}) outside grid")
    return float(_steepest_grades(grid)[j, i])


def classify(grid: TerrainGrid) -> TerrainClassBreakdown:
    """Per-vertex steepest-grade classes: A if <= 10%, B strictly between, C if >= 20%."""
    m = _steepest_grades(grid)
    n = m.size
    frac_a = float(np.count_nonzero(m <= 0.10)) / n
    frac_c = float(np.count_nonzero(m >= 0.20)) / n
    frac_b = 1.0 - frac_a - frac_c
    return TerrainClassBreakdown(fracA=frac_a, fracB=frac_b, fracC=frac_c)


def synth_terrain(
    seed: int,
    nx: int,
    ny: int,
    relief: float,
    dxy: float = 10.0,
    dz: float = 1.0,
    n_bumps: int = 8,
) -> TerrainGrid:
    """Deterministic synthetic terrain: seeded smooth bumps rescaled to ``relief``.

    The result satisfies ``max(z) - min(z) == relief`` exactly (0 when relief
    is 0), so the vertical extent of test instances is controlled directly.
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid needs at least 2x2 vertices")
    if relief < 0:
        raise ValueError("relief must be non-negative")
    rng = np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    field = np.zeros((ny, nx), dtype=float)
    span = max(nx, ny)
    for _ in range(n_bumps):
        cx = rng.uniform(0, nx - 1)
        cy = rng.uniform(0, ny - 1)
        sigma = rng.uniform(0.08, 0.35) * span
        amp = rng.uniform(-1.0, 1.0)
        field += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2))
    lo, hi = float(field.min()), float(field.max())
    if relief == 0 or hi - lo < 1e-12:
        field = np.zeros((ny, nx), dtype=float)
    else:
        field = (field - lo) * (relief / (hi - lo))
    return TerrainGrid(nx=nx, ny=ny, dxy=dxy, dz=dz, z=field)


def ground_profile(
    grid: TerrainGrid,
    p0: tuple[float, float],
    p1: tuple[float, float],
) -> list[tuple[float, float]]:
    """Piecewise-linear ground elevation along the segment p0 -> p1 (meters).

    Returns breakpoints ``(s, z)`` with s the planar distance from p0, sampled
    at the endpoints and the midpoint via bilinear interpolation.  Keeping a
    single interior breakpoint keeps earthwork integration O(1) per edge.
    """
    x0, y0 = p0
    x1, y1 = p1
    length = math.hypot(x1 - x0, y1 - y0)
    z0 = grid.elevation(x0, y0)
    z1 = grid.elevation(x1, y1)
    if length == 0.0:
        return [(0.0, z0), (0.0, z1)]
    zm = grid.elevation((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    return [(0.0, z0), (length / 2.0, zm), (length, z1)]
