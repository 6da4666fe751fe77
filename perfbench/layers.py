"""Traced run: per-layer metrics from spans around calls into each layer.

Layers are the program's modules: ``partition``, ``pivots``, ``zorder``,
``rptrie``, ``succinct``, ``search``, ``measures`` and ``framework``
(``repro.dist.framework`` with ``repro.dist.repose``). Every span is
recorded here, in the benchmark, around a call into a layer's public
functions; nothing inside the program is instrumented. Two program
functions are wrapped for the duration of a replay only, in this
process: the kernel ``search_topk`` gets from ``get_measure`` and the
``ref_trajectory`` that ``RPTrie.build`` calls, so their calls can be
counted and timed.

The traced run also reports its own end-to-end numbers, so the tracing
overhead is visible beside the untraced run.
"""
from __future__ import annotations

import pickle
import statistics
import time
from contextlib import contextmanager

from perfbench import harness
from perfbench.workloads import K, N_PARTITIONS, N_PIVOTS, REPLAY_QUERIES, STRATEGY, TAIL_PCT

#: per-layer metric → unit, in the order they are printed
UNITS = {
    "framework.overhead_ms": "ms",
    "framework.empty_job_ms": "ms",
    "framework.local_max_ms": "ms",
    "framework.local_sum_ms": "ms",
    "framework.local_skew": "ratio",
    "framework.pack_bytes": "bytes",
    "framework.pack_unpickle_ms": "ms",
    "framework.pack_build_sum_s": "s",
    "framework.pack_build_max_s": "s",
    "search.local_ms": "ms",
    "search.bound_ms": "ms",
    "search.nodes_expanded": "count",
    "search.pushed": "count",
    "search.leaves_visited": "count",
    "search.exact_computed": "count",
    "search.candidate_ratio": "ratio",
    "search.useful_ratio": "ratio",
    "measures.refine_calls": "count",
    "measures.refine_ms": "ms",
    "measures.build_calls": "count",
    "measures.build_s": "s",
    "pivots.query_dists_ms": "ms",
    "pivots.select_s": "s",
    "partition.bounds_s": "s",
    "partition.assign_s": "s",
    "partition.size_min": "count",
    "partition.size_max": "count",
    "rptrie.build_s": "s",
    "rptrie.nodes": "count",
    "zorder.ref_s": "s",
    "succinct.bytes": "bytes",
    "succinct.encode_s": "s",
}
EMPTY_JOBS = 3


class Tracer:
    """Spans kept in memory: name, start, end, parent span and query id."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, qid=None):
        parent = self.spans[self._open[-1]] if self._open else None
        if qid is None and parent is not None:
            qid = parent["qid"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent and parent["id"],
            "qid": qid,
            "start": time.perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._open.pop()

    def total(self, name: str, **match) -> float:
        """Summed seconds of the spans called ``name``."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s[k] == v for k, v in match.items())
        )


class CountingKernel:
    """Counts and times the calls of a function such as a measure kernel.

    Calls whose second argument is one of ``pivots`` are the
    query-to-pivot distances ``search_topk`` computes inline; they are
    timed apart, in ``pivot_secs``, and not counted as refines.
    """

    def __init__(self, fn, pivots=()):
        self.fn = fn
        self.pivot_ids = {id(p) for p in pivots}
        self.calls = self.secs = 0
        self.pivot_secs = 0

    def __call__(self, a, b):
        t0 = time.perf_counter()
        d = self.fn(a, b)
        dt = time.perf_counter() - t0
        if id(b) in self.pivot_ids:
            self.pivot_secs += dt
        else:
            self.secs += dt
            self.calls += 1
        return d


@contextmanager
def patched(module, name: str, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def _noop(_pack):
    return 0


def build_side(spark, inp: harness.Inputs, tr: Tracer) -> dict:
    """Partitioning and pivot selection, called as ``Repose`` calls them."""
    from repro.core.measures import get_measure
    from repro.core.partition import assign_partitions, dataset_bounds
    from repro.core.pivots import select_pivots
    from repro.dist.framework import sample_trajectories

    with tr.span("partition.dataset_bounds") as s_bounds:
        bounds = dataset_bounds(inp.df)
    with tr.span("partition.assign_partitions") as s_assign:
        assigned = assign_partitions(inp.df, N_PARTITIONS, STRATEGY, bounds=bounds)
        sizes = [r["count"] for r in assigned.groupBy("pid").count().collect()]
    sizes += [0] * (N_PARTITIONS - len(sizes))
    with tr.span("pivots.select") as s_piv:
        pool = sample_trajectories(inp.df, 100)
        select_pivots([p for _, p in pool], N_PIVOTS, get_measure(inp.workload.measure))
    dur = lambda s: s["end"] - s["start"]  # noqa: E731
    return {
        "partition.bounds_s": dur(s_bounds),
        "partition.assign_s": dur(s_assign),
        "partition.size_min": min(sizes),
        "partition.size_max": max(sizes),
        "pivots.select_s": dur(s_piv),
    }


def query_side(index, lat, tr: Tracer) -> dict:
    """Per-query framework split, from what ``Repose.query`` reports."""
    local_times = [s["local_times"] for s in tr.spans if s["name"] == "framework.query"]
    over = [w - max(lt) for w, lt in zip(lat, local_times)]
    return {
        "framework.overhead_ms": 1e3 * statistics.median(over),
        "framework.local_max_ms": 1e3 * statistics.median(max(lt) for lt in local_times),
        "framework.local_sum_ms": 1e3 * statistics.median(sum(lt) for lt in local_times),
        "framework.local_skew": statistics.median(max(lt) / statistics.mean(lt) for lt in local_times),
        "framework.pack_build_sum_s": sum(s["build_secs"] for s in index.summaries),
        "framework.pack_build_max_s": max(s["build_secs"] for s in index.summaries),
    }


def pack_costs(index, packs, tr: Tracer) -> dict:
    """Empty-job floor, pickled pack size and the cost of a cache miss."""
    empty = []
    for _ in range(EMPTY_JOBS):
        with tr.span("framework.empty_job") as s:
            index.rdd.map(_noop).collect()
        empty.append(s["end"] - s["start"])
    sizes, loads = [], []
    for pack in packs:
        sizes.append(len(pickle.dumps(pack)))
        state = pickle.dumps(pack.__dict__)
        t0 = time.perf_counter()
        pickle.loads(state)
        loads.append(time.perf_counter() - t0)
    return {
        "framework.empty_job_ms": 1e3 * statistics.median(empty),
        "framework.pack_bytes": statistics.median(sizes),
        "framework.pack_unpickle_ms": 1e3 * statistics.median(loads),
    }


def replay(inp: harness.Inputs, packs, tr: Tracer, answers: dict) -> tuple[dict, list[str]]:
    """Local search on every pack, in this process, for the first pool
    queries the closed loop issued; returns the search/measures/pivots
    metrics and any answer that differs from what ``Repose.query``
    returned."""
    from repro.core import search
    from repro.core.measures import get_measure

    per_query = []
    mismatches = []
    n = len(inp.data)
    for qi in sorted(answers)[:REPLAY_QUERIES]:
        q = inp.pool[qi]
        row = dict.fromkeys(("nodes_expanded", "pushed", "leaves_visited", "exact_computed"), 0)
        refine_calls = refine_s = pivot_s = 0.0
        results = []
        with tr.span("replay.query", qid=qi):
            for pack in packs:
                fn = get_measure(pack.measure, **pack.params)
                kernel = CountingKernel(fn, pack.trie.pivots)
                stats = search.SearchStats()
                with patched(search, "get_measure", lambda *a, **kw: kernel):
                    with tr.span("search.search_topk"):
                        results += search.search_topk(
                            pack.trie, pack.trajs, q, K,
                            measure=pack.measure, stats=stats, **pack.params,
                        )
                for key in row:
                    row[key] += getattr(stats, key)
                refine_calls += kernel.calls
                refine_s += kernel.secs
                pivot_s += kernel.pivot_secs
        merged = sorted(results, key=lambda x: (x[0], x[1]))[:K]
        if answers[qi] != merged:
            mismatches.append(f"replay query {qi}: {merged} != Repose.query {answers[qi]}")
        row.update(
            local_s=tr.total("search.search_topk", qid=qi),
            pivot_s=pivot_s,
            refine_calls=refine_calls,
            refine_s=refine_s,
        )
        per_query.append(row)
    mean = lambda key: statistics.mean(r[key] for r in per_query)  # noqa: E731
    med_ms = lambda f: 1e3 * statistics.median(f(r) for r in per_query)  # noqa: E731
    exact = mean("exact_computed")
    metrics = {
        "search.local_ms": med_ms(lambda r: r["local_s"]),
        "search.bound_ms": med_ms(lambda r: r["local_s"] - r["refine_s"]),
        "search.nodes_expanded": mean("nodes_expanded"),
        "search.pushed": mean("pushed"),
        "search.leaves_visited": mean("leaves_visited"),
        "search.exact_computed": exact,
        "search.candidate_ratio": exact / n,
        "search.useful_ratio": K / exact,
        "measures.refine_calls": mean("refine_calls"),
        "measures.refine_ms": med_ms(lambda r: r["refine_s"]),
        "pivots.query_dists_ms": med_ms(lambda r: r["pivot_s"]),
    }
    return metrics, mismatches


def rebuild(index, packs, tr: Tracer) -> tuple[dict, list[str]]:
    """Rebuild every pack's RP-Trie in this process with the index's
    config, and encode it succinctly; returns the build-side metrics and
    any disagreement with what the index reported."""
    from repro.core import rptrie, zorder
    from repro.core.measures import get_measure
    from repro.core.succinct import encode_trie

    cfg = index.config
    ref = CountingKernel(zorder.ref_trajectory)
    calls = secs = nodes = sbytes = 0
    mismatches = []
    reported = {s["pid"]: s for s in index.summaries}
    with patched(rptrie, "ref_trajectory", lambda grid, pts: ref(grid, pts)):
        for pack in packs:
            old = pack.trie
            kernel = CountingKernel(get_measure(pack.measure, **pack.params))
            trie = rptrie.RPTrie(
                cfg["grid"], kernel, old.pivots,
                collapse_ref_for_dists=old.collapse_ref_for_dists,
                need_dmax=old.need_dmax,
            )
            with tr.span("rptrie.build"):
                trie.build(list(pack.trajs.items()), mode=cfg["trie_mode"])
            with tr.span("succinct.encode_trie"):
                enc = encode_trie(trie)
            calls += kernel.calls
            secs += kernel.secs
            count = trie.node_count()
            nodes += count
            sbytes += enc.total_bytes
            points = sum(len(p) for p in pack.trajs.values())
            want = reported[pack.pid]
            # the index counts the succinct trie plus 16 bytes per raw point
            if count != want["node_count"] or enc.total_bytes + 16 * points != want["index_bytes"]:
                mismatches.append(f"rebuilt pack {pack.pid} differs from the index's summary")
    return {
        "rptrie.build_s": tr.total("rptrie.build"),
        "rptrie.nodes": nodes,
        "measures.build_calls": calls,
        "measures.build_s": secs,
        "zorder.ref_s": ref.secs,
        "succinct.bytes": sbytes,
        "succinct.encode_s": tr.total("succinct.encode_trie"),
    }, mismatches


def measure(spark, inp: harness.Inputs, seconds: float) -> dict:
    """The traced run: build-side layers, one set-up, the timed closed
    loop, then the in-process replay and rebuild."""
    tr = Tracer()
    metrics = build_side(spark, inp, tr)
    answers = harness.Answers()
    with tr.span("setup"):
        index, setup_s = harness.setup(spark, inp, answers)
    lat = harness.closed_loop(index, inp, seconds, answers, tr)
    metrics.update(query_side(index, lat, tr))

    with tr.span("framework.collect_packs"):
        packs = sorted(index.rdd.collect(), key=lambda p: p.pid)
    metrics.update(pack_costs(index, packs, tr))
    first = {}
    for key, ans in answers.got:
        if key != "warmup" and key not in first:
            first[key] = ans
    search_metrics, replay_bad = replay(inp, packs, tr, first)
    metrics.update(search_metrics)
    build_metrics, rebuild_bad = rebuild(index, packs, tr)
    metrics.update(build_metrics)

    traced, failures = harness.end_to_end(spark, inp, index, [setup_s], lat, answers)
    return {
        "metrics": {name: metrics[name] for name in UNITS},
        "units": UNITS,
        "traced_e2e": {n: (v, harness.E2E_UNITS[n]) for n, v in traced.items()},
        "attempted": len(answers.got),
        "failures": failures,
        "mismatches": replay_bad + rebuild_bad,
        "detail": {"timed_queries": len(lat), "tail_pct": TAIL_PCT},
        "spans": tr.spans,
    }
