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
        for algo in ("se", "ipa", "kspa", "bds", "hybrid"):
            for use_astar in (True, False):
                case = (algo, use_astar)
                before = dict(tr.counts)
                cfg = MultipathConfig(algorithm=algo, k=2, use_astar=use_astar, timeout=60)
                solve(g, model, mask, (0, 5), (15, 5), cfg)
                grew = {name for name, n in tr.counts.items() if n > before.get(name, 0)}
                # Every solve prices moves through EdgeCoster._compute, and
                # none calls the successor functions: every side moves by
                # arithmetic on int states.
                assert "cost.price_computed" in grew, case
                assert "graph.succ_calls" not in grew, case
                # kspa's sweep calls no rebound search name.
                if algo != "kspa":
                    assert {"search.queries", "search.expansions"} <= grew, case
                if algo in ("bds", "hybrid"):
                    assert {"search.meet_events", "dissimilarity.accept_calls"} <= grew, case
