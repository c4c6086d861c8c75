"""Path-set file emission and parsing.

Format: a commented header carrying totals and the pairwise area matrix,
then one block per path with a ``x y z h v cumulative_cost`` line per vertex;
blocks are separated by blank lines.  Files written here parse back into
paths that satisfy the full path invariants.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

from .graph import AugVertex
from .multipath import MultipathResult
from .search import Path


def write_path_set(path, result: MultipathResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# paths {len(result.paths)} solved {1 if result.solved else 0}\n")
        fh.write("# costs " + " ".join(repr(p.total_cost) for p in result.paths) + "\n")
        for row in result.area_matrix:
            fh.write("# area " + " ".join(repr(a) for a in row) + "\n")
        for i, p in enumerate(result.paths):
            if i:
                fh.write("\n")
            cum = 0.0
            costs = p.edge_costs or []
            for j, v in enumerate(p.vertices):
                if j:
                    cum += costs[j - 1]
                fh.write(f"{v.x} {v.y} {v.z} {v.h} {v.v} {cum!r}\n")


def read_path_set(path) -> tuple[list[Path], dict]:
    """Parse a path-set file back into paths plus the header metadata."""
    meta: dict = {"areas": []}
    paths: list[Path] = []
    vertices: list[AugVertex] = []
    cums: list[float] = []

    def flush():
        if vertices:
            edge_costs = [b - a for a, b in zip(cums, cums[1:])]
            paths.append(Path(
                vertices=list(vertices),
                total_cost=math.fsum(edge_costs),
                edge_costs=edge_costs,
            ))
            vertices.clear()
            cums.clear()

    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                flush()
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if parts[0] == "paths":
                    meta["count"] = int(parts[1])
                    meta["solved"] = parts[3] == "1"
                elif parts[0] == "costs":
                    meta["costs"] = [float(x) for x in parts[1:]]
                elif parts[0] == "area":
                    meta["areas"].append([float(x) for x in parts[1:]])
                continue
            x, y, z, h, v, cum = line.split()
            vertices.append(AugVertex(int(x), int(y), int(z), int(h), int(v)))
            cums.append(float(cum))
    flush()
    return paths, meta


def write_summary(path, result: MultipathResult, extra: dict | None = None) -> None:
    """Every :class:`MultipathResult` field but the paths, plus their costs."""
    payload = {f.name: getattr(result, f.name) for f in fields(result) if f.name != "paths"}
    payload["costs"] = [p.total_cost for p in result.paths]
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
