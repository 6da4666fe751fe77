"""One local search over all the packs of a Spark task
(``LocalPack.search_task``): exact ids against brute force for REPOSE's
best-first search (``search_tries``) in all six measures and for the
default scan of the LS, DFT and DITA packs, and the benchmark's counting
replay of the same REPOSE packs.

The packs of a case differ in size, so REPOSE's differ in
``pivot_slack`` (their largest leaf ``D_max``), and one of them is
empty.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.dft import Dft, DftPack
from repro.baselines.dita import Dita, DitaPack
from repro.core.measures import METRICS, get_measure
from repro.core.search import SearchStats, brute_force_topk, search_topk, search_tries
from repro.core.zorder import Grid
from repro.dist.framework import LocalPack
from repro.dist.repose import ReposePack
from tests.util import ALL, MEASURE_PARAMS, assert_same_topk, rnd_dataset, rnd_query

GRID = Grid.from_bounds(-5, -5, 15, 15, delta=0.8)
DATA = rnd_dataset(7, 160)
#: copies, so a kernel can tell a pivot from a data trajectory by identity
PIVOTS = [DATA[3].copy(), DATA[77].copy()]
#: tid % 6 → pack: sizes 3/6, 1/6, 0 and 2/6 of the data
SPLIT = {0: 0, 1: 0, 2: 0, 3: 1, 4: 3, 5: 3}
#: the systems whose packs each measure's task search runs: REPOSE and LS
#: for all six, DFT for Hausdorff and Frechet, DITA for Frechet
SYSTEMS = {
    m: ("repose", "ls") + (("dft",) if m in ("hausdorff", "frechet") else ())
    + (("dita",) if m == "frechet" else ())
    for m in ALL
}
PACKS = {"repose": ReposePack, "ls": LocalPack, "dft": DftPack, "dita": DitaPack}
#: the systems whose queries hand the tasks a ``ctx`` of their own
INDEXES = {"dft": Dft, "dita": Dita}


def task_packs(measure, system="repose"):
    kw = MEASURE_PARAMS[measure]
    parts = [[] for _ in range(4)]
    for t, pts in DATA.items():
        parts[SPLIT[t % 6]].append((t, pts))
    pts = np.concatenate(list(DATA.values()))
    cfg = {
        "measure": measure,
        "grid": GRID,
        "trie_mode": "opt" if measure == "hausdorff" else "basic",
        "pivots": PIVOTS,
        "eps": kw.get("eps"),
        "gap": kw.get("gap"),
        "n_pp": 4,
        "bounds": (*pts.min(0), *pts.max(0)),
    }
    return [PACKS[system](pid, part, cfg) for pid, part in enumerate(parts)]


def task_ctx(system, measure, packs, q, k):
    """The ``ctx`` a query hands the packs' tasks: for DFT and DITA their
    index's own ``query_ctx`` (θ, the ``(θ, ∞)`` seed and DITA's skipped
    pids), with the whole data set as the θ sample, as an index of fewer
    trajectories than its ``sample_pool`` keeps."""
    if system not in INDEXES:
        return {}
    index = INDEXES[system].__new__(INDEXES[system])
    index.fn = get_measure(measure, **MEASURE_PARAMS[measure])
    index.pool = list(DATA.items())
    index.summaries = [p.summary() for p in packs]
    return index.query_ctx(q, k)


@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("seed", [0, 1])
def test_task_search_exact_ids(measure, seed):
    """Several packs of each system, one empty, in either order (REPOSE's
    with different pivot slacks); k from 1 to above the task's
    trajectory count."""
    kw = MEASURE_PARAMS[measure]
    q = rnd_query(seed)
    for system in SYSTEMS[measure]:
        packs = task_packs(measure, system)
        assert packs[2].n_trajs == 0
        if system == "repose" and measure in METRICS:
            assert len({p.trie.pivot_slack for p in packs if p.n_trajs}) == 3
        for k in (1, 10, len(DATA) + 5):
            exp = brute_force_topk(DATA.items(), q, k, measure=measure, **kw)
            ctx = task_ctx(system, measure, packs, q, k)
            for order in (packs, packs[::-1]):
                assert_same_topk(type(order[0]).search_task(order, q, k, ctx), exp)


@pytest.mark.parametrize("measure", ALL)
def test_task_search_seeded(measure):
    """A ``(dist, tid)`` seed admits only what sorts before it."""
    kw = MEASURE_PARAMS[measure]
    packs = task_packs(measure)
    q = rnd_query(5)
    ranked = brute_force_topk(DATA.items(), q, 12, measure=measure, **kw)
    got = search_tries(
        [(p.trie, p.trajs) for p in packs], q, 12, measure=measure, d_k=ranked[7], **kw
    )
    assert_same_topk(got, ranked[:7])


@pytest.mark.parametrize("measure", ALL)
def test_counting_kernel_searches_alike(measure, monkeypatch):
    """The benchmark's counting two-argument kernel refines in full, yet
    the task search and every one-pack search give the same ids and the
    same four ``SearchStats`` counters as the module kernel, and the
    kernel is called once per exact distance."""
    from perfbench.layers import CountingKernel
    from repro.core import search

    kw = MEASURE_PARAMS[measure]
    packs = task_packs(measure)
    q = rnd_query(9)
    parts = [[(p.trie, p.trajs)] for p in packs] + [[(p.trie, p.trajs) for p in packs]]

    def run():
        out = []
        for part in parts:
            stats = SearchStats()
            res = search_tries(part, q, 10, measure=measure, stats=stats, **kw)
            out.append((res, {key: getattr(stats, key) for key in SearchStats.__slots__}))
        return out

    expected = run()
    kernel = CountingKernel(get_measure(measure, **kw), PIVOTS)
    monkeypatch.setattr(search, "get_measure", lambda *_, **__: kernel)
    assert run() == expected
    assert kernel.calls == sum(counters["exact_computed"] for _, counters in expected)


@pytest.mark.parametrize("measure", ["hausdorff", "frechet"])
def test_benchmark_replay_agrees(measure):
    """The traced benchmark's in-process replay (``perfbench.layers``)
    runs on these packs: no mismatch against brute force, and its
    counters are the module kernel's, one refine call per exact
    distance."""
    from perfbench import layers
    from perfbench.workloads import K, REPLAY_QUERIES

    kw = MEASURE_PARAMS[measure]
    packs = task_packs(measure)
    queries = [rnd_query(s) for s in range(REPLAY_QUERIES)]
    answers = {
        qi: brute_force_topk(DATA.items(), q, K, measure=measure, **kw)
        for qi, q in enumerate(queries)
    }
    inp = SimpleNamespace(pool=queries, data=DATA)
    metrics, mismatches = layers.replay(inp, packs, layers.Tracer(), answers)
    assert mismatches == []
    # the counters the replay reports (it has no ``pruned_pre``)
    totals = dict.fromkeys(("nodes_expanded", "pushed", "leaves_visited", "exact_computed"), 0)
    for q in queries:
        for p in packs:
            stats = SearchStats()
            search_topk(p.trie, p.trajs, q, K, measure=measure, stats=stats, **kw)
            for key in totals:
                totals[key] += getattr(stats, key)
    for key, total in totals.items():
        assert metrics[f"search.{key}"] == pytest.approx(total / len(queries), abs=1e-9), key
    assert metrics["measures.refine_calls"] == metrics["search.exact_computed"]
