"""Distributed REPOSE end-to-end tests: exactness vs driver-side brute
force across measures / k / strategies / trie modes, plus the IT / IS /
node-count bookkeeping used by the table jobs."""
from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.search import brute_force_topk
from repro.dist.repose import Repose
from tests.util import (
    MEASURE_PARAMS,
    assert_exact_ids,
    assert_packs_per_task,
    topk_dists_equal,
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
        assert topk_dists_equal(got, exp)


@pytest.mark.parametrize("k", [1, 10])
def test_frechet_exact(repose_frechet, tdrive_trajs, tdrive_queries, k):
    for _, q in tdrive_queries:
        got = repose_frechet.query(q, k)
        exp = brute_force_topk(tdrive_trajs, q, k, measure="frechet")
        assert topk_dists_equal(got, exp)


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
    assert topk_dists_equal(got, exp)
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
    assert topk_dists_equal(got, exp)
    rep.unpersist()


def test_query_self_returns_zero(repose_hausdorff, tdrive_trajs):
    tid, pts = tdrive_trajs[3]
    got = repose_hausdorff.query(pts, 1)
    assert got[0][0] == pytest.approx(0.0, abs=1e-12)


def test_k_larger_than_dataset(repose_hausdorff, tdrive_trajs, tdrive_queries):
    _, q = tdrive_queries[0]
    got = repose_hausdorff.query(q, len(tdrive_trajs) + 10)
    assert len(got) == len(tdrive_trajs)


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
    assert topk_dists_equal(opt.query(q, 10), dedup.query(q, 10))
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
