"""Reference computations for checking solver outputs, written apart from `corridor`.

Nothing here imports the program.  A map is given as its elevation array
``z[y, x]`` plus the spacings ``dxy`` and ``dz``; a height band as two integer
arrays ``lo[y, x]`` and ``hi[y, x]`` of admissible z levels; a cost model as
its paving, cut and fill rates and the road width.  From these the module
derives, on its own terms:

* the price of a unit move: paving on the 3D length, plus cut and fill
  between the straight road and the ground profile sampled bilinearly at the
  two ends and the midpoint, times the road width;
* the 45-degree successor rule over (x, y, z, heading, trend) states;
* the column-mean area difference between two corridors;
* the simple height band (window extrema plus a fixed margin);
* the optimum cost between two ground points, by
  ``scipy.sparse.csgraph.dijkstra`` over the explicit state graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Heading h points at angle h * 45 degrees, counterclockwise from +x.
DIRS = tuple((round(math.cos(h * math.pi / 4)), round(math.sin(h * math.pi / 4))) for h in range(8))


@dataclass(frozen=True)
class Rates:
    paving: float
    cut: float
    fill: float
    width: float


def ground_level(z: np.ndarray, dz: float, x: int, y: int) -> int:
    """Ground elevation of a vertex snapped to the nearest z level."""
    return int(round(float(z[y, x]) / dz))


def hull(z: np.ndarray, dz: float) -> tuple[int, int]:
    """Lowest and highest z level that any state may take on this map."""
    return int(math.floor(float(z.min()) / dz)), int(math.ceil(float(z.max()) / dz))


def band(z: np.ndarray, dz: float, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A mask's band intersected with the map's vertical hull."""
    zmin, zmax = hull(z, dz)
    return np.maximum(lo, zmin).astype(np.int64), np.minimum(hi, zmax).astype(np.int64)


def hr_band(z: np.ndarray, dz: float, hm: float, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Simple height restriction: the ground +- hm, widened to the ground's
    extrema over the (2r+1)^2 window clipped at the map edge, snapped outward."""
    from scipy.ndimage import maximum_filter, minimum_filter

    size = 2 * r + 1
    top = np.maximum(maximum_filter(z, size=size, mode="nearest"), z + hm)
    bottom = np.minimum(minimum_filter(z, size=size, mode="nearest"), z - hm)
    return (np.floor(bottom / dz + 1e-12).astype(np.int64),
            np.ceil(top / dz - 1e-12).astype(np.int64))


def _bilinear(z: np.ndarray, fx, fy):
    ny, nx = z.shape
    i0 = np.clip(np.floor(fx).astype(np.int64), 0, nx - 2)
    j0 = np.clip(np.floor(fy).astype(np.int64), 0, ny - 2)
    tx = fx - i0
    ty = fy - j0
    return (z[j0, i0] * (1 - tx) * (1 - ty) + z[j0, i0 + 1] * tx * (1 - ty)
            + z[j0 + 1, i0] * (1 - tx) * ty + z[j0 + 1, i0 + 1] * tx * ty)


def _positive_part(a, b):
    """Mean over t in [0, 1] of max(a + (b - a) t, 0)."""
    pa = np.maximum(a, 0.0)
    pb = np.maximum(b, 0.0)
    diff = a - b
    same = diff == 0.0
    safe = np.where(same, 1.0, diff)
    return np.where(same, pa, (pa * pa - pb * pb) / (2.0 * safe))


def price(z: np.ndarray, dxy: float, dz: float, rates: Rates, x0, y0, k0, x1, y1, k1):
    """Price of unit moves (x0, y0, level k0) -> (x1, y1, level k1); arrays or scalars."""
    x0, y0, k0, x1, y1, k1 = (np.asarray(a) for a in (x0, y0, k0, x1, y1, k1))
    run = dxy * np.hypot(x1 - x0, y1 - y0)
    g0 = z[y0, x0]
    g1 = z[y1, x1]
    gm = _bilinear(z, (x0 + x1) / 2.0, (y0 + y1) / 2.0)
    r0 = k0 * dz
    r1 = k1 * dz
    rm = (r0 + r1) / 2.0
    d0, dm, d1 = r0 - g0, rm - gm, r1 - g1
    half = run / 2.0
    fill = half * (_positive_part(d0, dm) + _positive_part(dm, d1))
    cut = half * (_positive_part(-d0, -dm) + _positive_part(-dm, -d1))
    return rates.paving * np.hypot(run, r1 - r0) + rates.width * (rates.cut * cut + rates.fill * fill)


def legal_step(u, w) -> bool:
    """True when state w = (x, y, z, h, v) may follow state u under the 45-degree rule."""
    turn = (w[3] - u[3]) % 8
    if turn not in (0, 1, 7) or not -1 <= w[4] <= 1 or abs(w[4] - u[4]) > 1:
        return False
    dx, dy = DIRS[w[3]]
    return (w[0], w[1], w[2]) == (u[0] + dx, u[1] + dy, u[2] + w[4])


def column_means(vertices: np.ndarray) -> tuple[int, np.ndarray]:
    """First x column and the mean y of the path's vertices in each column."""
    xs = vertices[:, 0]
    lo = int(xs.min())
    counts = np.bincount(xs - lo)
    sums = np.bincount(xs - lo, weights=vertices[:, 1].astype(float))
    if (counts == 0).any():
        raise ValueError("path skips an x column")
    return lo, sums / counts


def area_percent(p: np.ndarray, q: np.ndarray, map_width_m: float, endpoint_m: float, dxy: float) -> float:
    """Area between two corridors' column-mean profiles, as a percentage of
    map width times endpoint distance.  Outside a corridor's x range its
    profile is held at its end values."""
    lp, mp = column_means(p)
    lq, mq = column_means(q)
    lo = min(lp, lq)
    hi = max(lp + len(mp), lq + len(mq))
    cols = np.arange(lo, hi)
    yp = mp[np.clip(cols - lp, 0, len(mp) - 1)]
    yq = mq[np.clip(cols - lq, 0, len(mq) - 1)]
    cells = float(np.abs(yp - yq).sum())
    return 100.0 * cells * dxy * dxy / (map_width_m * endpoint_m)


def optimum(z, dxy, dz, rates: Rates, lo, hi, src, dst) -> float:
    """Cheapest cost from the source ground point (any orientation) to the
    destination ground point over the explicit state graph under band [lo, hi]."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    ny, nx = z.shape
    zmin, zmax = hull(z, dz)
    lo, hi = band(z, dz, lo, hi)
    levels = np.arange(zmin, zmax + 1)
    # valid[y, x, k]: level zmin + k lies in the column's band.
    valid = (levels[None, None, :] >= lo[:, :, None]) & (levels[None, None, :] <= hi[:, :, None])
    pos_id = np.full(valid.shape, -1, dtype=np.int64)
    pos_id[valid] = np.arange(int(valid.sum()))
    n_states = int(valid.sum()) * 24

    def state(pid, h, v):
        return pid * 24 + h * 3 + (v + 1)

    rows, cols, weights = [], [], []
    ys, xs, ks = np.nonzero(valid)
    for hp, (dx, dy) in enumerate(DIRS):
        for vp in (-1, 0, 1):
            x1, y1, k1 = xs + dx, ys + dy, ks + vp
            ok = (x1 >= 0) & (x1 < nx) & (y1 >= 0) & (y1 < ny) & (k1 >= 0) & (k1 < len(levels))
            a = np.nonzero(ok)[0]
            ok[a] = valid[y1[a], x1[a], k1[a]]
            a = np.nonzero(ok)[0]
            if not len(a):
                continue
            cost = price(z, dxy, dz, rates, xs[a], ys[a], ks[a] + zmin, x1[a], y1[a], k1[a] + zmin)
            tail = pos_id[ys[a], xs[a], ks[a]]
            head = state(pos_id[y1[a], x1[a], k1[a]], hp, vp)
            for h in ((hp - 1) % 8, hp, (hp + 1) % 8):
                for v in (vp - 1, vp, vp + 1):
                    if -1 <= v <= 1:
                        rows.append(state(tail, h, v))
                        cols.append(head)
                        weights.append(cost)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    weights = np.concatenate(weights)
    # A zero-priced edge would read as "no edge" to csgraph; prices are >= paving > 0.
    if not (weights > 0).all():
        raise ValueError("non-positive edge price")
    graph = coo_matrix((weights, (rows, cols)), shape=(n_states, n_states)).tocsr()

    def ground_states(xy):
        x, y = xy
        k = ground_level(z, dz, x, y) - zmin
        if not (0 <= k < len(levels) and valid[y, x, k]):
            raise ValueError(f"ground level at {xy} outside the band")
        pid = pos_id[y, x, k]
        return np.array([state(pid, h, v) for h in range(8) for v in (-1, 0, 1)])

    dist = dijkstra(graph, directed=True, indices=ground_states(src), min_only=True)
    best = float(dist[ground_states(dst)].min())
    if not math.isfinite(best):
        raise ValueError("destination unreachable")
    return best


@dataclass
class Instance:
    """One (map, band, rates, endpoints) problem, with the checks every
    corridor returned on it must pass."""

    z: np.ndarray
    dxy: float
    dz: float
    rates: Rates
    lo: np.ndarray
    hi: np.ndarray
    src: tuple[int, int]
    dst: tuple[int, int]

    def __post_init__(self):
        self.lo, self.hi = band(self.z, self.dz, self.lo, self.hi)
        self._optimum = None

    def optimum(self) -> float:
        if self._optimum is None:
            self._optimum = optimum(self.z, self.dxy, self.dz, self.rates, self.lo, self.hi, self.src, self.dst)
        return self._optimum

    def area(self, p: np.ndarray, q: np.ndarray) -> float:
        ny, _ = self.z.shape
        endpoint_m = max(math.hypot(self.dst[0] - self.src[0], self.dst[1] - self.src[1]) * self.dxy, self.dxy)
        return area_percent(p, q, (ny - 1) * self.dxy, endpoint_m, self.dxy)

    def check_path(self, vertices: np.ndarray, edge_costs, total: float) -> list[str]:
        """Problems with one corridor: endpoints, moves, band and prices."""
        problems = []
        ny, nx = self.z.shape
        first, last = vertices[0], vertices[-1]
        for name, v, xy in (("start", first, self.src), ("end", last, self.dst)):
            if (v[0], v[1], v[2]) != (xy[0], xy[1], ground_level(self.z, self.dz, *xy)):
                problems.append(f"{name} {tuple(v[:3])} is not the ground point at {xy}")
        if not (0 <= first[3] < 8 and -1 <= first[4] <= 1):
            problems.append(f"start orientation {tuple(first[3:])} out of range")
        for u, w in zip(vertices, vertices[1:]):
            if not legal_step(u, w):
                problems.append(f"illegal move {tuple(u)} -> {tuple(w)}")
                break
        xs, ys, ks = vertices[:, 0], vertices[:, 1], vertices[:, 2]
        if problems or not ((xs >= 0).all() and (xs < nx).all() and (ys >= 0).all() and (ys < ny).all()):
            return problems or ["vertex off the map"]
        outside = (ks < self.lo[ys, xs]) | (ks > self.hi[ys, xs])
        if outside.any():
            problems.append(f"vertex {tuple(vertices[np.argmax(outside)])} outside the height band")
        if edge_costs is None or len(edge_costs) != len(vertices) - 1:
            return problems + ["edge costs missing"]
        expect = price(self.z, self.dxy, self.dz, self.rates,
                       xs[:-1], ys[:-1], ks[:-1], xs[1:], ys[1:], ks[1:])
        got = np.asarray(edge_costs, dtype=float)
        bad = np.abs(got - expect) > 1e-9 * np.maximum(1.0, expect)
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(f"edge {i} priced {got[i]!r}, expected {expect[i]!r}")
        if abs(total - math.fsum(expect)) > 1e-9 * max(1.0, total):
            problems.append(f"total {total!r} != sum of prices {math.fsum(expect)!r}")
        return problems

    def check_set(self, paths: list[tuple[np.ndarray, list, float]], k: int,
                  min_diff: float, max_diff: float) -> list[str]:
        """Problems with a corridor set: each corridor, the optimum, the cost
        bar and pairwise dissimilarity."""
        if not paths:
            return ["no corridor returned"]
        if len(paths) > k:
            return [f"{len(paths)} corridors returned, k is {k}"]
        problems = []
        for i, (vertices, edge_costs, total) in enumerate(paths):
            problems += [f"corridor {i}: {p}" for p in self.check_path(vertices, edge_costs, total)]
        opt = self.optimum()
        cheapest = min(total for _, _, total in paths)
        if abs(cheapest - opt) > 1e-9 * max(1.0, opt):
            problems.append(f"cheapest corridor costs {cheapest!r}, optimum is {opt!r}")
        bar = (1.0 + max_diff / 100.0) * opt * (1.0 + 1e-9)
        for i, (_, _, total) in enumerate(paths):
            if total > bar:
                problems.append(f"corridor {i} costs {total!r}, over the bar {bar!r}")
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                a = self.area(paths[i][0], paths[j][0])
                if a < min_diff - 1e-9:
                    problems.append(f"corridors {i} and {j} differ by {a:.4f}% < {min_diff}%")
        return problems


def lane_of(vertices: np.ndarray, walls: tuple[int, ...], x_lo: int, x_hi: int) -> int | None:
    """Index of the lane a corridor keeps between walled columns x_lo..x_hi
    (0 below the first wall), or None if it touches or crosses a wall."""
    inside = vertices[(vertices[:, 0] >= x_lo) & (vertices[:, 0] <= x_hi)]
    lanes = {sum(int(y > w) for w in walls) for y in inside[:, 1]}
    if len(lanes) != 1 or any(y in walls for y in inside[:, 1]):
        return None
    return lanes.pop()
