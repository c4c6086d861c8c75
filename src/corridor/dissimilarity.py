"""Projected area difference between paths and the path-set acceptance rules.

Two corridors are compared by projecting both onto the x-y plane, reducing
each to one representative lateral offset per x grid column (the mean of its
y values there, so backtracking paths are still handled in linear time), and
integrating the absolute offset gap column by column.  The result is reported
as a percentage of a normalizing rectangle: map width times the straight-line
distance between the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:
    from .search import Path


@dataclass(frozen=True)
class AreaConfig:
    """Normalization constants for the area metric (all lengths in meters)."""

    min_diff: float
    map_width: float
    endpoint_distance: float
    dxy: float = 10.0

    def __post_init__(self):
        if self.min_diff < 0:
            raise ValueError("min_diff must be non-negative")
        if self.map_width <= 0 or self.endpoint_distance <= 0 or self.dxy <= 0:
            raise ValueError("map_width, endpoint_distance and dxy must be positive")


def cost_bar(opt_cost: float, max_diff: float) -> float:
    """The most a path may cost: ``max_diff`` percent over ``opt_cost``,
    with a relative slack of 1e-12 for rounding."""
    return (1.0 + max_diff / 100.0) * opt_cost * (1.0 + 1e-12)


class Profile:
    """The lateral profile of a path, as a persistent structure.

    It holds the column ``x`` of the path's last vertex, the y sum ``ysum``
    and visit count ``n`` of the path's vertices there, and ``left`` and
    ``right``: the profiles that ended at the path's last visits to columns
    ``x - 1`` and ``x + 1`` (None past the path's x-hull), which hold those
    columns' final sums.  Consecutive vertices are at most one column
    apart, as on every grid path, so extending a profile is O(1) and copies
    nothing.  The search engine's labels extend this class, so a label's
    profile costs no extra object.
    """

    __slots__ = ("x", "ysum", "n", "left", "right")

    def __init__(self, base: Optional[Profile], x: int, y: float):
        """The profile of ``base`` extended by a vertex at (x, y); with no
        ``base``, the profile of that one vertex."""
        if base is None:
            prev = left = right = None
        else:
            step = x - base.x
            if step == 0:
                prev, left, right = base, base.left, base.right
            elif step == 1:
                prev = base.right
                left, right = base, prev.right if prev is not None else None
            elif step == -1:
                prev = base.left
                left, right = prev.left if prev is not None else None, base
            else:
                raise ValueError("consecutive path vertices must be at most one column apart")
        self.x, self.left, self.right = x, left, right
        if prev is None:
            self.ysum, self.n = float(y), 1
        else:
            self.ysum, self.n = prev.ysum + y, prev.n + 1

    @staticmethod
    def of_path(vertices: Sequence) -> Profile:
        """The profile of a whole vertex sequence, extended vertex by vertex."""
        prof = None
        for v in vertices:
            prof = Profile(prof, v.x, v.y)
        return prof

    def means(self) -> tuple[int, list[float]]:
        """``(lo, means)``: the mean y per column of the x-hull from its first
        column ``lo``, walked from the tip to the left and then to the right."""
        means = []
        p = self
        while p is not None:
            means.append(p.ysum / p.n)
            p = p.left
        means.reverse()
        lo = self.x - len(means) + 1
        p = self.right
        while p is not None:
            means.append(p.ysum / p.n)
            p = p.right
        return lo, means


def area_cells(a: tuple[int, list[float]], b: tuple[int, list[float]], stop: float = math.inf) -> float:
    """Area in grid cells between two profiles given as their ``means()``:
    the sum of |mean gap| over the union of their hulls, each profile held
    at its end values outside its own hull.  Once the running sum reaches
    ``stop`` it is returned as it stands, so ``area_cells(a, b, s) < s``
    decides like the full sum."""
    (a_lo, ma), (b_lo, mb) = a, b
    na1, nb1 = len(ma) - 1, len(mb) - 1
    area = 0.0
    for x in range(min(a_lo, b_lo), max(a_lo + na1, b_lo + nb1) + 1):
        ia = x - a_lo
        ib = x - b_lo
        d = ma[0 if ia < 0 else (na1 if ia > na1 else ia)] - mb[0 if ib < 0 else (nb1 if ib > nb1 else ib)]
        area += d if d >= 0.0 else -d
        if area >= stop:
            break
    return area


def area_diff_with_ops(p: Path, q: Path, cfg: AreaConfig) -> tuple[float, int]:
    """Area difference percent plus the number of elementary steps performed
    (used to verify the linear-time behavior of the metric)."""
    if not p.vertices or not q.vertices:
        raise ValueError("paths must be non-empty")
    ps, pe = p.vertices[0], p.vertices[-1]
    qs, qe = q.vertices[0], q.vertices[-1]
    if (ps.x, ps.y) != (qs.x, qs.y) or (pe.x, pe.y) != (qe.x, qe.y):
        raise ValueError("endpoint mismatch: paths must share source and destination")
    a, b = Profile.of_path(p.vertices).means(), Profile.of_path(q.vertices).means()
    columns = max(a[0] + len(a[1]), b[0] + len(b[1])) - min(a[0], b[0])
    ops = len(p.vertices) + len(q.vertices) + columns
    area_m2 = area_cells(a, b) * cfg.dxy * cfg.dxy
    percent = 100.0 * area_m2 / (cfg.map_width * cfg.endpoint_distance)
    return percent, ops


def area_diff(p: Path, q: Path, cfg: AreaConfig) -> float:
    """Symmetric percentage area difference between two paths (O(L))."""
    return area_diff_with_ops(p, q, cfg)[0]


def place(costs: Sequence[float], similar: Sequence[int], cost: float, room: int) -> Union[int, str]:
    """Where a candidate of ``cost`` goes among members of ``costs``, of
    which those at the indices ``similar`` are too similar to it.

    Dissimilar to every member: ``"add"`` while fewer than ``room`` members
    are kept, otherwise the index of the most expensive member (the last
    one on a tie) if the candidate is cheaper.  Similar to exactly one
    member: that member's index if the candidate is cheaper.  Anything else
    is ``"reject"``: no single replacement could restore pairwise
    dissimilarity.
    """
    if not similar:
        if len(costs) < room:
            return "add"
        worst = max(range(len(costs)), key=lambda i: (costs[i], i))
        return worst if cost < costs[worst] else "reject"
    if len(similar) == 1 and cost < costs[similar[0]]:
        return similar[0]
    return "reject"


class Outcome(Enum):
    ADD = "add"
    REPLACE = "replace"
    REJECT = "reject"


@dataclass(frozen=True)
class Decision:
    outcome: Outcome
    index: Optional[int] = None


def accept(
    candidate: Path,
    accepted: list[Path],
    cfg: AreaConfig,
    k: int,
    max_diff: float,
    opt_cost: float,
) -> Decision:
    """Decide a candidate's fate against a pairwise-dissimilar accepted set,
    apply it to ``accepted`` and return it.

    Too expensive (beyond ``max_diff`` percent of ``opt_cost``) is rejected
    outright.  Dissimilar to everything: added while there is room, otherwise
    it replaces the most expensive member if cheaper.  Similar to exactly one
    member: replaces it if cheaper.  Similar to two or more: rejected, since
    no single replacement could restore pairwise dissimilarity.
    """
    if candidate.total_cost > cost_bar(opt_cost, max_diff):
        return Decision(Outcome.REJECT)
    similar = [i for i, other in enumerate(accepted) if area_diff(candidate, other, cfg) < cfg.min_diff]
    where = place([p.total_cost for p in accepted], similar, candidate.total_cost, k)
    if isinstance(where, int):
        accepted[where] = candidate
        return Decision(Outcome.REPLACE, where)
    if where == "add":
        accepted.append(candidate)
    return Decision(Outcome(where))


def pairwise_areas(paths: Sequence[Path], cfg: AreaConfig) -> list[list[float]]:
    """Full symmetric matrix of area differences (diagonal zero)."""
    n = len(paths)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = area_diff(paths[i], paths[j], cfg)
            matrix[i][j] = a
            matrix[j][i] = a
    return matrix


def assert_pairwise_dissimilar(paths: Sequence[Path], cfg: AreaConfig) -> None:
    """Invariant check used after every accepted-set mutation."""
    for i, row in enumerate(pairwise_areas(paths, cfg)):
        for j in range(i + 1, len(row)):
            assert row[j] >= cfg.min_diff - 1e-9, (
                f"accepted paths {i} and {j} are only {row[j]:.3f}% apart (min {cfg.min_diff}%)"
            )
