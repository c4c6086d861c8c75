"""Spans and counters at the boundaries between `corridor` modules, and the
replays that turn recorded samples into per-layer rates.

Tracing works from outside the program: :func:`install` rebinds the names
that `corridor.multipath` and `corridor.search` import from their sibling
modules, so a call that crosses a module boundary opens a span in the
callee's layer.  Boundaries crossed millions of times per query (the
successor functions and ``EdgeCoster.__call__``) are counted, not timed, and
every ``SAMPLE``-th call keeps its arguments for :func:`replay`.  Everything
lives in memory until the run writes it out.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

SAMPLE = 97          # keep the arguments of one call in this many
SAMPLE_CAP = 20_000  # and at most this many per boundary
REPLAY_S = 0.2       # minimum measured time per replayed rate


class Tracer:
    """Spans (layer, name, start, end, parent, op) and counters of one run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.name_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = defaultdict(int)
        self.succ_samples: list[tuple] = []
        self.price_samples: list[tuple] = []
        self.op = None
        self._stack: list[list] = []
        self._next_id = 0

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``; its self time excludes child spans."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            self.self_s[layer] += dur - frame[1]
            self.name_s[name] += dur
            self.durations[name].append(dur)
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((layer, name, t0, t1, parent, span_id, self.op))


@contextmanager
def install(tr: Tracer):
    """Rebind the program's cross-module names to traced wrappers; restore on exit."""
    import corridor.cost as cost
    import corridor.dissimilarity as dis
    import corridor.multipath as mp
    import corridor.search as search
    from corridor.dissimilarity import Outcome

    saved = []

    def patch(obj, name, new):
        saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, new)

    def bidi(fn):
        def traced(*args, **kwargs):
            stats = _stats(kwargs)
            engine = tr.call("search", "bidi_engine", fn, *args, **kwargs)
            tr.counts["search.queries"] += 1
            events = engine.events

            def traced_events():
                gen = events()
                before = stats.expansions
                try:
                    while True:
                        try:
                            event = tr.call("search", "bidi_engine.events", next, gen)
                        except StopIteration:
                            return
                        tr.counts["search.meet_events"] += 1
                        yield event
                finally:
                    _count_search(tr, stats, before)

            engine.events = traced_events
            return engine
        return traced

    def dissimilarity(name, fn):
        def traced(*args, **kwargs):
            if name == "area_diff":
                tr.counts["dissimilarity.area_calls"] += 1
            return tr.call("dissimilarity", name, fn, *args, **kwargs)
        return traced

    def traced_accept(*args, **kwargs):
        decision = tr.call("dissimilarity", "accept", mp_accept, *args, **kwargs)
        tr.counts["dissimilarity.accept_calls"] += 1
        if decision.outcome is not Outcome.REJECT:
            tr.counts["dissimilarity.accept_changed"] += 1
        return decision

    def counted_area(*args, **kwargs):
        tr.counts["dissimilarity.area_calls"] += 1
        return dis_area(*args, **kwargs)

    def successors(fn):
        samples = tr.succ_samples
        counts = tr.counts

        def counted(grid, u, mask=None):
            counts["graph.succ_calls"] += 1
            if counts["graph.succ_calls"] % SAMPLE == 0 and len(samples) < SAMPLE_CAP:
                samples.append((fn, grid, u, mask))
            return fn(grid, u, mask)
        return counted

    coster_call = cost.EdgeCoster.__call__
    memo = hasattr(cost.EdgeCoster, "_compute")
    samples = tr.price_samples
    counts = tr.counts

    def counted_price(self, u, w):
        counts["cost.price_calls"] += 1
        if not memo:
            counts["cost.price_computed"] += 1
        if counts["cost.price_calls"] % SAMPLE == 0 and len(samples) < SAMPLE_CAP:
            samples.append((self.grid, self.model, u, w))
        return coster_call(self, u, w)

    mp_accept = mp.accept
    dis_area = dis.area_diff
    try:
        for mod in (mp, search):
            patch(mod, "successors3do", successors(mod.successors3do))
            patch(mod, "rev_successors3do", successors(mod.rev_successors3do))
        patch(mp, "astar", searcher(tr, "astar", mp.astar))
        patch(mp, "dijkstra", searcher(tr, "dijkstra", mp.dijkstra))
        patch(mp, "bidi_engine", bidi(mp.bidi_engine))
        patch(mp, "accept", traced_accept)
        for name in ("area_diff", "pairwise_areas", "assert_pairwise_dissimilar"):
            patch(mp, name, dissimilarity(name, getattr(mp, name)))
        patch(dis, "area_diff", counted_area)
        patch(cost.EdgeCoster, "__call__", counted_price)
        if memo:
            # Memo misses; without a memo every call computes.
            compute = cost.EdgeCoster._compute

            def counted_compute(self, *args):
                counts["cost.price_computed"] += 1
                return compute(self, *args)
            patch(cost.EdgeCoster, "_compute", counted_compute)
        yield tr
    finally:
        for obj, name, old in reversed(saved):
            setattr(obj, name, old)


def traced_api(tr: Tracer, api: SimpleNamespace) -> SimpleNamespace:
    """The benchmark's own entry points into the program, each inside a span."""
    def solve(grid, model, mask, src, dst, cfg):
        result = tr.call("multipath", "solve." + cfg.algorithm, api.solve, grid, model, mask, src, dst, cfg)
        tr.counts["multipath.iterations"] += result.iterations
        if cfg.algorithm in ("kspa", "hybrid"):
            tr.counts["multipath.label_settles"] += result.expansions
        return result

    return SimpleNamespace(
        simple_height_mask=lambda *a, **k: tr.call("graph", "mask_hr", api.simple_height_mask, *a, **k),
        expanding_height_mask=lambda *a, **k: tr.call("graph", "mask_ehr", api.expanding_height_mask, *a, **k),
        astar=searcher(tr, "astar", api.astar),
        solve=solve,
    )


def _stats(kwargs):
    from corridor.search import SearchStats

    if kwargs.get("stats") is None:
        kwargs["stats"] = SearchStats()
    return kwargs["stats"]


def _count_search(tr, stats, before):
    tr.counts["search.expansions"] += stats.expansions - before
    tr.peaks["search.peak_labels"] = max(tr.peaks["search.peak_labels"], stats.peak_labels)


def searcher(tr: Tracer, name: str, fn):
    """A single-source search inside a span, with its expansions counted."""
    def traced(*args, **kwargs):
        stats = _stats(kwargs)
        before = stats.expansions
        tr.counts["search.queries"] += 1
        try:
            return tr.call("search", name, fn, *args, **kwargs)
        finally:
            _count_search(tr, stats, before)
    return traced


def _rate(run_once, n: int) -> float:
    """Calls per second of ``run_once`` (which makes n calls), repeated until
    REPLAY_S has passed; the median pass decides."""
    rates = []
    spent = 0.0
    while spent < REPLAY_S or len(rates) < 3:
        t0 = time.perf_counter()
        run_once()
        dt = time.perf_counter() - t0
        spent += dt
        rates.append(n / dt)
    return statistics.median(rates)


def replay(tr: Tracer, area_pairs: list[tuple]) -> dict[str, float]:
    """Rates of the counted boundaries, from the recorded samples replayed
    through the program's public functions with tracing removed."""
    from corridor import EdgeCoster, area_diff

    out = {"graph.succ_per_s": 0.0, "cost.price_cold_per_s": 0.0,
           "cost.price_warm_per_s": 0.0, "dissimilarity.area_per_s": 0.0}
    succ = tr.succ_samples
    if succ:
        def succ_once():
            for fn, grid, u, mask in succ:
                fn(grid, u, mask)
        out["graph.succ_per_s"] = _rate(succ_once, len(succ))

    groups: dict[tuple, dict] = defaultdict(dict)
    for grid, model, u, w in tr.price_samples:
        a, b = tuple(u[:3]), tuple(w[:3])
        groups[(id(grid), id(model))][min(a, b) + max(a, b)] = (grid, model, u, w)
    edges = [list(g.values()) for g in groups.values()]
    n_edges = sum(len(g) for g in edges)
    if n_edges:
        warm = [EdgeCoster(g[0][0], g[0][1]) for g in edges]

        def cold_once():
            for group in edges:
                coster = EdgeCoster(group[0][0], group[0][1])
                for _, _, u, w in group:
                    coster(u, w)

        def warm_once():
            for coster, group in zip(warm, edges):
                for _, _, u, w in group:
                    coster(u, w)
        out["cost.price_cold_per_s"] = _rate(cold_once, n_edges)
        warm_once()
        out["cost.price_warm_per_s"] = _rate(warm_once, n_edges)

    if area_pairs:
        def area_once():
            for p, q, cfg in area_pairs:
                area_diff(p, q, cfg)
        out["dissimilarity.area_per_s"] = _rate(area_once, len(area_pairs))
    return out
