"""The benchmark's tracer still sees the searches it counts.

``perfbench/tracing.py`` rebinds names on ``corridor.multipath`` and
``corridor.search``; if the program stops calling through them, a traced run
reads zero for the search layer without failing.
"""

import sys
from pathlib import Path

from corridor import simple_height_mask
from corridor.multipath import MultipathConfig, solve
from corridor.terrain import synth_terrain

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_traced_runs_count_expansions_and_meets(model):
    g = synth_terrain(3, 16, 10, 4.0)
    mask = simple_height_mask(g, 1.0, 1)
    tr = tracing.Tracer()
    with tracing.install(tr):
        for algo in ("bds", "hybrid", "se"):
            before = dict(tr.counts)
            cfg = MultipathConfig(algorithm=algo, k=2, use_astar=True, timeout=60)
            solve(g, model, mask, (0, 5), (15, 5), cfg)
            assert tr.counts["search.expansions"] > before.get("search.expansions", 0), algo
            assert tr.counts["graph.succ_calls"] > before.get("graph.succ_calls", 0), algo
            if algo != "se":
                assert tr.counts["search.meet_events"] > before.get("search.meet_events", 0), algo
