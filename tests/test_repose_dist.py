"""Distributed REPOSE end-to-end tests: exactness vs driver-side brute
force across measures / k / strategies / trie modes, plus the IT / IS /
node-count bookkeeping used by the table jobs."""
from __future__ import annotations

import gc
import importlib
import sys
import weakref
import zipfile
import zipimport
from functools import partial

import numpy as np
import pytest

from repro.baselines.dft import Dft
from repro.baselines.dita import Dita
from repro.baselines.ls import Ls
from repro.core.measures import get_measure
from repro.core.partition import dataset_stats
from repro.core.rptrie import RPTrie
from repro.core.search import brute_force_topk, scan_topk, search_topk
from repro.core.zorder import Grid
from repro.dist.framework import drop_zip_finders, sample_trajectories
from repro.dist.repose import Repose
from tests.util import (
    MEASURE_PARAMS,
    assert_exact_ids,
    assert_packs_per_task,
    assert_same_topk,
    rnd_dataset,
    rnd_query,
)

DELTA = 0.15
NP = 4


@pytest.fixture(scope="module")
def repose_hausdorff(spark, tdrive_smoke):
    return Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA, n_partitions=NP
    )


@pytest.fixture(scope="module")
def repose_frechet(spark, tdrive_smoke):
    return Repose(
        spark, tdrive_smoke, measure="frechet", delta=DELTA, n_partitions=NP
    )


@pytest.mark.parametrize("k", [1, 5, 15])
def test_hausdorff_exact(repose_hausdorff, tdrive_trajs, tdrive_queries, k):
    for _, q in tdrive_queries:
        got = repose_hausdorff.query(q, k)
        exp = brute_force_topk(tdrive_trajs, q, k, measure="hausdorff")
        assert_same_topk(got, exp)


@pytest.mark.parametrize("k", [1, 10])
def test_frechet_exact(repose_frechet, tdrive_trajs, tdrive_queries, k):
    for _, q in tdrive_queries:
        got = repose_frechet.query(q, k)
        exp = brute_force_topk(tdrive_trajs, q, k, measure="frechet")
        assert_same_topk(got, exp)


@pytest.mark.parametrize("measure", ["dtw", "erp", "edr", "lcss"])
def test_other_measures_exact(spark, tdrive_smoke, tdrive_trajs, tdrive_queries, measure):
    kw = dict(MEASURE_PARAMS[measure])
    if measure == "erp":
        kw = {}  # default gap = region center, resolved inside Repose
    rep = Repose(
        spark, tdrive_smoke, measure=measure, delta=DELTA, n_partitions=NP, **kw
    )
    _, q = tdrive_queries[0]
    got = rep.query(q, 8)
    exp = brute_force_topk(
        tdrive_trajs, q, 8, measure=measure,
        eps=kw.get("eps"), gap=rep.config.get("gap"),
    )
    assert_same_topk(got, exp)
    rep.unpersist()


@pytest.mark.parametrize("strategy", ["heterogeneous", "homogeneous", "random"])
def test_all_strategies_exact(spark, tdrive_smoke, tdrive_trajs, tdrive_queries, strategy):
    rep = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA,
        n_partitions=NP, strategy=strategy,
    )
    _, q = tdrive_queries[1]
    got = rep.query(q, 10)
    exp = brute_force_topk(tdrive_trajs, q, 10, measure="hausdorff")
    assert_same_topk(got, exp)
    rep.unpersist()


def test_query_self_returns_zero(repose_hausdorff, tdrive_trajs):
    tid, pts = tdrive_trajs[3]
    got = repose_hausdorff.query(pts, 1)
    assert got[0][0] == pytest.approx(0.0, abs=1e-12)


def test_k_larger_than_dataset(repose_hausdorff, tdrive_trajs, tdrive_queries):
    _, q = tdrive_queries[0]
    got = repose_hausdorff.query(q, len(tdrive_trajs) + 10)
    assert len(got) == len(tdrive_trajs)


@pytest.fixture(scope="module")
def baselines(spark, tdrive_smoke):
    systems = {
        "ls": Ls(spark, tdrive_smoke, n_partitions=NP),
        "dft": Dft(spark, tdrive_smoke, n_partitions=NP),
        "dita": Dita(spark, tdrive_smoke, n_partitions=NP),
    }
    yield systems
    for index in systems.values():
        index.unpersist()


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("system", ["search_topk", "scan_topk", "repose", "ls", "dft", "dita"])
def test_k_below_one_rejected(spark, request, system, k):
    """k < 1 is a ValueError: from the local searches, and from every
    system's query before it runs a Spark job (DFT/DITA: before θ)."""
    data, q, fn = rnd_dataset(0, 30), rnd_query(0), get_measure("hausdorff")
    if system == "search_topk":
        trie = RPTrie(Grid.from_bounds(-5, -5, 15, 15, delta=0.8), fn, [])
        trie.build(list(data.items()), mode="basic")
        run = partial(search_topk, trie, data, q, k, measure="hausdorff")
    elif system == "scan_topk":
        run = partial(scan_topk, fn, data.items(), q, k)
    elif system == "repose":
        run = partial(request.getfixturevalue("repose_hausdorff").query, q, k)
    else:
        run = partial(request.getfixturevalue("baselines")[system].query, q, k)
    tracker = spark.sparkContext.statusTracker()
    jobs = set(tracker.getJobIdsForGroup(None))
    with pytest.raises(ValueError, match="k must be at least 1"):
        run()
    assert set(tracker.getJobIdsForGroup(None)) == jobs


def test_build_stats(repose_hausdorff, tdrive_trajs):
    rep = repose_hausdorff
    assert rep.build_time > 0
    assert rep.index_bytes > 0
    assert rep.total_trie_nodes > 0
    assert len(rep.summaries) == NP
    assert sum(s["n_trajs"] for s in rep.summaries) == len(tdrive_trajs)
    # heterogeneous round-robin → balanced partitions
    sizes = [s["n_trajs"] for s in rep.summaries]
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [30, 100, 250])
def test_sample_is_uniform_over_the_rows(tdrive_smoke, seed, n):
    """``sample_trajectories`` draws ``n`` distinct rows from all of the
    data, not from its first partitions: the tids reach past 2/3 of N
    and below 1/3 of it. It is deterministic in ``seed``, each row keeps
    its points, and passing the row count changes nothing."""
    total = tdrive_smoke.count()
    got = sample_trajectories(tdrive_smoke, n, seed=seed, count=total)
    tids = [t for t, _ in got]
    assert len(set(tids)) == len(tids) == min(n, total)
    assert max(tids) > 2 * total / 3 and min(tids) < total / 3
    rows = {r.tid: r for r in tdrive_smoke.collect()}
    for tid, pts in got:
        assert np.array_equal(pts, np.column_stack([rows[tid].xs, rows[tid].ys]))
    again = sample_trajectories(tdrive_smoke, n, seed=seed)
    assert [t for t, _ in again] == tids


def test_no_build_counts_rows(spark, tdrive_smoke, monkeypatch):
    """The row count comes from the bounds aggregate: no build of REPOSE,
    LS, DFT or DITA runs a ``count()`` of its own."""
    from pyspark.sql import DataFrame

    def refuse(self):
        raise AssertionError("a build counted the rows")

    monkeypatch.setattr(DataFrame, "count", refuse)
    for system in (Repose, Ls, Dft, Dita):
        kw = {"delta": DELTA} if system is Repose else {}
        index = system(spark, tdrive_smoke, n_partitions=NP, **kw)
        assert index.n_trajs == 220
        index.unpersist()


@pytest.mark.parametrize("system", ["repose", "ls", "dft", "dita"])
def test_build_phases(request, system):
    """Each build reports its phases' seconds, which cover its whole
    ``build_time`` (up to rounding)."""
    if system == "repose":
        index = request.getfixturevalue("repose_hausdorff")
    else:
        index = request.getfixturevalue("baselines")[system]
    phases = index.build_phases
    assert list(phases) == ["bounds_s", "global_s", "keys_s", "packs_s"]
    assert all(v >= 0 for v in phases.values())
    assert sum(phases.values()) == pytest.approx(index.build_time)


def test_several_packs_per_task(spark, tdrive_smoke, tdrive_trajs, tdrive_queries):
    """N_G = 3 × cores: each Spark task builds and searches three packs."""
    n_parts = 3 * spark.sparkContext.defaultParallelism
    rep = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA, n_partitions=n_parts
    )
    assert_packs_per_task(spark, rep)
    assert_exact_ids(rep, tdrive_trajs, tdrive_queries, 10, "hausdorff")
    rep.unpersist()


def test_empty_packs_kept(spark, tdrive_smoke, tdrive_trajs, tdrive_queries):
    """N < N_G with N_G > cores: pids that get no trajectory still get an
    (empty) pack, so summaries and local times cover all N_G packs."""
    n_parts = max(16, 2 * spark.sparkContext.defaultParallelism)
    trajs = sorted(tdrive_trajs, key=lambda t: t[0])[:10]
    df = tdrive_smoke.where(tdrive_smoke.tid.isin([t for t, _ in trajs]))
    rep = Repose(
        spark, df, measure="hausdorff", delta=DELTA, n_partitions=n_parts
    )
    assert len(rep.summaries) == n_parts
    assert sorted(s["pid"] for s in rep.summaries) == list(range(n_parts))
    assert sum(s["n_trajs"] == 0 for s in rep.summaries) == n_parts - len(trajs)
    for k in (5, len(trajs) + 5):
        assert_exact_ids(rep, trajs, tdrive_queries, k, "hausdorff")
    rep.unpersist()


def test_unpersist_releases_packs(spark, tdrive_smoke):
    """The cached RDD is the only pack cache: once it is unpersisted and
    the collected packs are dropped, nothing else keeps a pack alive."""
    rep = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA, n_partitions=NP
    )
    packs = rep.rdd.collect()
    refs = [weakref.ref(p) for p in packs]
    assert len(refs) == NP
    rep.unpersist()
    del packs
    gc.collect()
    assert [r() for r in refs] == [None] * NP
    assert rep.rdd.id() not in spark.sparkContext._jsc.getPersistentRDDs()


def test_query_time_recorded(repose_hausdorff, tdrive_queries):
    _, q = tdrive_queries[0]
    repose_hausdorff.query(q, 5)
    assert repose_hausdorff.last_query_time > 0


def test_trie_mode_opt_fewer_nodes(spark, tdrive_smoke):
    """Fig. 7: the optimized (re-arranged) trie has fewer nodes than the
    unoptimized (dedup) trie, and both answer queries identically."""
    opt = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA,
        n_partitions=NP, trie_mode="opt",
    )
    dedup = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA,
        n_partitions=NP, trie_mode="dedup",
    )
    assert opt.total_trie_nodes < dedup.total_trie_nodes
    q = np.array([[116.5, 39.8], [116.6, 39.9], [116.7, 40.0]])
    assert_same_topk(opt.query(q, 10), dedup.query(q, 10))
    opt.unpersist()
    dedup.unpersist()


def test_pivot_counts(spark, tdrive_smoke):
    rep = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA,
        n_partitions=NP, n_pivots=3,
    )
    assert len(rep.config["pivots"]) == 3
    rep.unpersist()
    rep0 = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA,
        n_partitions=NP, n_pivots=0,
    )
    assert rep0.config["pivots"] == []
    rep0.unpersist()


def test_dtw_gets_no_pivots(spark, tdrive_smoke):
    rep = Repose(
        spark, tdrive_smoke, measure="dtw", delta=DELTA, n_partitions=NP
    )
    # non-metric: pivots are not selected (paper §VI-B)
    assert rep.config["pivots"] == []
    rep.unpersist()


def test_erp_default_gap_is_region_center(spark, tdrive_smoke):
    rep = Repose(
        spark, tdrive_smoke, measure="erp", delta=DELTA, n_partitions=NP
    )
    minx, miny, maxx, maxy = rep.config["bounds"]
    assert rep.config["gap"] == ((minx + maxx) / 2, (miny + maxy) / 2)
    rep.unpersist()


def test_one_erp_gap_for_every_system(spark, tdrive_smoke, tdrive_trajs, tdrive_queries):
    """Without a ``gap``, REPOSE, LS and DFT all score ERP with the gap at
    the centre of the data's bounds, so each gives brute force's ids for
    that one gap."""
    from repro.core.partition import dataset_bounds

    minx, miny, maxx, maxy = dataset_bounds(tdrive_smoke)
    centre = ((minx + maxx) / 2, (miny + maxy) / 2)
    for system, kw in ((Repose, {"delta": DELTA}), (Ls, {}), (Dft, {})):
        index = system(spark, tdrive_smoke, measure="erp", n_partitions=NP, **kw)
        assert index.config["gap"] == centre
        for _, q in tdrive_queries:
            exp = brute_force_topk(tdrive_trajs, q, 8, measure="erp", gap=centre)
            assert_same_topk(index.query(q, 8), exp)
        index.unpersist()


@pytest.fixture
def two_module_zip(tmp_path, monkeypatch):
    """A zip archive holding modules ``zipmod_a`` and ``zipmod_b``, first
    on ``sys.path``; both modules and the archive's finder are removed
    afterwards."""
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zipmod_a.py", "VALUE = 1\n")
        z.writestr("zipmod_b.py", "VALUE = 2\n")
    monkeypatch.syspath_prepend(str(archive))
    yield str(archive)
    for name in ("zipmod_a", "zipmod_b"):
        sys.modules.pop(name, None)
    sys.path_importer_cache.pop(str(archive), None)
    zipimport._zip_directory_cache.pop(str(archive), None)


def test_drop_zip_finders_keeps_imports(two_module_zip, monkeypatch):
    """Only zip finders are dropped; after that ``invalidate_caches``
    re-reads no archive, and a module not yet imported from the same
    archive still imports."""
    assert importlib.import_module("zipmod_a").VALUE == 1
    before = dict(sys.path_importer_cache)
    assert isinstance(before[two_module_zip], zipimport.zipimporter)
    drop_zip_finders()
    after = dict(sys.path_importer_cache)
    removed = before.keys() - after.keys()
    assert two_module_zip in removed
    assert all(isinstance(before[p], zipimport.zipimporter) for p in removed)
    assert not any(isinstance(f, zipimport.zipimporter) for f in after.values())
    assert all(after[p] is before[p] for p in after)

    reads = []
    read_directory = zipimport._read_directory
    monkeypatch.setattr(
        zipimport, "_read_directory", lambda path: reads.append(path) or read_directory(path)
    )
    importlib.invalidate_caches()
    assert importlib.import_module("zipmod_b").VALUE == 2
    assert reads == []


def _import_after_drop(_):
    """In a worker: drop the zip finders, then import a PySpark module
    no task has imported yet."""
    import pyspark

    name = "pyspark.ml.linalg"
    fresh = name not in sys.modules
    drop_zip_finders()
    importlib.invalidate_caches()
    mod = importlib.import_module(name)
    return fresh, type(mod.__loader__) is type(pyspark.__loader__)


def test_worker_imports_after_drop(spark, repose_hausdorff, tdrive_queries):
    _, q = tdrive_queries[0]
    repose_hausdorff.query(q, 5)
    got = spark.sparkContext.parallelize([0], 1).map(_import_after_drop).collect()
    assert got == [(True, True)]


@pytest.mark.parametrize("system", ["repose", "ls"])
@pytest.mark.parametrize("column,value", [("xs", float("nan")), ("ys", float("inf"))])
def test_non_finite_coordinates_rejected(spark, tdrive_trajs, system, column, value):
    """A NaN or an infinity anywhere in the data is refused at ingest with
    a ValueError naming the bounds, before any grid is built."""
    from repro.baselines.ls import Ls

    rows = [(t, p[:, 0].tolist(), p[:, 1].tolist()) for t, p in tdrive_trajs[:20]]
    tid, xs, ys = rows[7]
    bad = {"xs": list(xs), "ys": list(ys)}
    bad[column][3] = value
    rows[7] = (tid, bad["xs"], bad["ys"])
    df = spark.createDataFrame(rows, "tid long, xs array<double>, ys array<double>")
    with pytest.raises(ValueError, match="must be finite"):
        if system == "repose":
            Repose(spark, df, measure="hausdorff", delta=DELTA, n_partitions=NP)
        else:
            Ls(spark, df, measure="hausdorff", n_partitions=NP)


def _bad_query(defect: str) -> np.ndarray:
    q = rnd_query(0)
    if defect == "nan":
        q[3, 0] = np.nan
    elif defect == "inf":
        q[5, 1] = -np.inf
    elif defect == "empty":
        q = q[:0]
    elif defect == "flat":
        q = q.ravel()
    else:  # three columns
        q = np.column_stack([q, q[:, 0]])
    return q


@pytest.mark.parametrize("defect", ["nan", "inf", "empty", "flat", "xyz"])
@pytest.mark.parametrize("system", ["repose_hausdorff", "repose_frechet", "ls"])
def test_bad_query_rejected(spark, request, system, defect):
    """A query that is not an (m ≥ 1, 2) array of finite floats is a
    ValueError before any Spark job; a NaN once returned [] silently."""
    if system == "ls":
        index = request.getfixturevalue("baselines")["ls"]
    else:
        index = request.getfixturevalue(system)
    tracker = spark.sparkContext.statusTracker()
    jobs = set(tracker.getJobIdsForGroup(None))
    with pytest.raises(ValueError, match="array of finite floats"):
        index.query(_bad_query(defect), 3)
    assert set(tracker.getJobIdsForGroup(None)) == jobs


@pytest.mark.parametrize(
    "defect,match",
    [
        ("empty", "at least one point"),
        ("null", "at least one point"),
        ("ragged", "differ in length"),
    ],
)
@pytest.mark.parametrize("system", ["repose", "ls"])
def test_bad_trajectories_rejected(spark, tdrive_trajs, system, defect, match):
    """An empty or null trajectory, or one whose xs and ys differ in
    length, is refused at ingest with a ValueError from the bounds
    aggregate, so the build runs no job beyond it."""
    rows = [(t, p[:, 0].tolist(), p[:, 1].tolist()) for t, p in tdrive_trajs[:20]]
    tid, xs, ys = rows[7]
    rows[7] = {
        "empty": (tid, [], []), "null": (tid, None, None), "ragged": (tid, xs[:3], ys[:2]),
    }[defect]
    df = spark.createDataFrame(rows, "tid long, xs array<double>, ys array<double>")
    tracker = spark.sparkContext.statusTracker()

    def n_jobs(build):
        before = set(tracker.getJobIdsForGroup(None))
        with pytest.raises(ValueError, match=match):
            build()
        return len(set(tracker.getJobIdsForGroup(None)) - before)

    if system == "repose":
        build = partial(Repose, spark, df, measure="hausdorff", delta=DELTA, n_partitions=NP)
    else:
        build = partial(Ls, spark, df, measure="hausdorff", n_partitions=NP)
    assert n_jobs(build) == n_jobs(partial(dataset_stats, df))


def test_frechet_duplicates_across_packs(spark, tdrive_dups, tdrive_queries):
    """Duplicated trajectories in different packs tie exactly, and the
    endpoint bound keys them alike: brute force's ids for small k and
    for k ≥ N."""
    df, trajs = tdrive_dups
    rep = Repose(spark, df, measure="frechet", delta=DELTA, n_partitions=NP, strategy="random")
    pid = {t: p.pid for p in rep.rdd.collect() for t in p.trajs}
    assert any(pid[t] != pid[t + 10000] for t, _ in trajs if t + 10000 in pid)
    queries = [q for _, q in tdrive_queries] + [trajs[0][1]]
    for q in queries:
        for k in (3, 10, len(trajs), len(trajs) + 5):
            assert rep.query(q, k) == brute_force_topk(trajs, q, k, measure="frechet")
    rep.unpersist()
