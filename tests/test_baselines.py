"""LS / DFT / DITA baseline tests: distributed exactness vs brute force,
threshold-estimator soundness, representative-trajectory invariants, the
DITA global first-point index, and the "/" (unsupported) cells."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dft import Dft, DftPack
from repro.baselines.dita import Dita, representative
from repro.baselines.ls import Ls
from repro.core.search import brute_force_topk
from tests.util import assert_exact_ids, assert_packs_per_task, topk_dists_equal

NP = 4


# ----------------------------------------------------------------------- LS

@pytest.mark.parametrize("measure", ["hausdorff", "frechet", "dtw"])
def test_ls_exact(spark, tdrive_smoke, tdrive_trajs, tdrive_queries, measure):
    ls = Ls(spark, tdrive_smoke, measure=measure, n_partitions=NP)
    for _, q in tdrive_queries[:2]:
        got = ls.query(q, 10)
        exp = brute_force_topk(tdrive_trajs, q, 10, measure=measure)
        assert topk_dists_equal(got, exp)
    assert ls.index_bytes == 0  # "/" cell in Table IV
    ls.unpersist()


def test_ls_several_packs_per_task(spark, tdrive_smoke, tdrive_trajs, tdrive_queries):
    """N_G = 3 × cores on a baseline: the shared framework groups packs the
    same way for every system."""
    n_parts = 3 * spark.sparkContext.defaultParallelism
    ls = Ls(
        spark, tdrive_smoke, measure="frechet", n_partitions=n_parts,
        strategy="heterogeneous",
    )
    assert_packs_per_task(spark, ls)
    assert_exact_ids(ls, tdrive_trajs, tdrive_queries, 10, "frechet")
    ls.unpersist()


# ---------------------------------------------------------------------- DFT

@pytest.fixture(scope="module")
def dft_hausdorff(spark, tdrive_smoke):
    return Dft(spark, tdrive_smoke, measure="hausdorff", n_partitions=NP)


@pytest.mark.parametrize("k", [1, 5, 15])
def test_dft_exact_hausdorff(dft_hausdorff, tdrive_trajs, tdrive_queries, k):
    for qi, (_, q) in enumerate(tdrive_queries):
        got = dft_hausdorff.query(q, k, seed=qi)
        exp = brute_force_topk(tdrive_trajs, q, k, measure="hausdorff")
        assert topk_dists_equal(got, exp)


@pytest.mark.parametrize("measure", ["frechet", "dtw"])
def test_dft_exact_other_measures(spark, tdrive_smoke, tdrive_trajs, tdrive_queries, measure):
    dft = Dft(spark, tdrive_smoke, measure=measure, n_partitions=NP)
    _, q = tdrive_queries[0]
    got = dft.query(q, 8)
    exp = brute_force_topk(tdrive_trajs, q, 8, measure=measure)
    assert topk_dists_equal(got, exp)
    dft.unpersist()


def test_dft_theta_upper_bounds_dk(dft_hausdorff, tdrive_trajs, tdrive_queries):
    """θ = k-th smallest of a random subset ≥ the true k-th distance."""
    _, q = tdrive_queries[0]
    k = 5
    theta = dft_hausdorff.estimate_theta(q, k)
    exp = brute_force_topk(tdrive_trajs, q, k, measure="hausdorff")
    assert theta >= exp[-1][0]


def test_dft_heterogeneous_exact(spark, tdrive_smoke, tdrive_trajs, tdrive_queries):
    dft = Dft(
        spark, tdrive_smoke, measure="hausdorff", n_partitions=NP,
        strategy="heterogeneous",
    )
    _, q = tdrive_queries[1]
    got = dft.query(q, 10)
    exp = brute_force_topk(tdrive_trajs, q, 10, measure="hausdorff")
    assert topk_dists_equal(got, exp)
    dft.unpersist()


def test_dft_index_bigger_than_raw(dft_hausdorff, tdrive_trajs):
    """The paper's DFT space blow-up: segments + dual copy + tree ≫ raw."""
    raw = sum(len(p) for _, p in tdrive_trajs) * 16
    assert dft_hausdorff.index_bytes > 3 * raw


def test_dftpack_segment_bookkeeping(tdrive_trajs):
    pack = DftPack(0, tdrive_trajs[:20], {"measure": "hausdorff"})
    n_pts = sum(len(p) for _, p in tdrive_trajs[:20])
    assert len(pack.seg_mbrs) == n_pts - 20  # n-1 segments per trajectory
    assert pack.seg_count.sum() == len(pack.seg_mbrs)


# --------------------------------------------------------------------- DITA

@pytest.fixture(scope="module")
def dita_frechet(spark, tdrive_smoke):
    return Dita(spark, tdrive_smoke, measure="frechet", n_partitions=NP)


@pytest.mark.parametrize("k", [1, 5, 15])
def test_dita_exact_frechet(dita_frechet, tdrive_trajs, tdrive_queries, k):
    for qi, (_, q) in enumerate(tdrive_queries):
        got = dita_frechet.query(q, k, seed=qi)
        exp = brute_force_topk(tdrive_trajs, q, k, measure="frechet")
        assert topk_dists_equal(got, exp)


def test_dita_exact_dtw(spark, tdrive_smoke, tdrive_trajs, tdrive_queries):
    dita = Dita(spark, tdrive_smoke, measure="dtw", n_partitions=NP)
    _, q = tdrive_queries[0]
    got = dita.query(q, 8)
    exp = brute_force_topk(tdrive_trajs, q, 8, measure="dtw")
    assert topk_dists_equal(got, exp)
    dita.unpersist()


def test_dita_rejects_hausdorff(spark, tdrive_smoke):
    with pytest.raises(ValueError):
        Dita(spark, tdrive_smoke, measure="hausdorff", n_partitions=NP)


def test_dita_heterogeneous_exact(spark, tdrive_smoke, tdrive_trajs, tdrive_queries):
    dita = Dita(
        spark, tdrive_smoke, measure="frechet", n_partitions=NP,
        strategy="heterogeneous",
    )
    _, q = tdrive_queries[1]
    got = dita.query(q, 10)
    exp = brute_force_topk(tdrive_trajs, q, 10, measure="frechet")
    assert topk_dists_equal(got, exp)
    dita.unpersist()


def test_dita_first_mbrs_published(dita_frechet):
    mbrs = [s["first_mbr"] for s in dita_frechet.summaries]
    assert all(m is not None for m in mbrs)
    for minx, miny, maxx, maxy in mbrs:
        assert minx <= maxx and miny <= maxy


def test_dita_global_pruning_skips_far_partitions(spark):
    """On 4 well-separated spatial groups, a query from one group must
    prune the other groups' partitions via the first-point global index
    (the §V-A "resource waste" mechanism), while staying exact."""
    import repro.baselines.dita as D

    rng = np.random.default_rng(4)
    rows, trajs, tid = [], [], 0
    for g in range(4):
        base = np.array([g * 1000.0, g * 1000.0])
        for _ in range(12):
            pts = base + rng.normal(0, 0.5, (10, 2)).cumsum(0)
            rows.append((tid, pts[:, 0].tolist(), pts[:, 1].tolist()))
            trajs.append((tid, pts))
            tid += 1
    df = spark.createDataFrame(rows, "tid long, xs array<double>, ys array<double>")
    dita = Dita(spark, df, measure="frechet", n_partitions=4, sample_pool=48)
    q = trajs[30][1]  # a group-2 trajectory
    k = 3
    theta = dita.estimate_theta(q, k)
    skip = [
        s["pid"]
        for s in dita.summaries
        if D._mbr_dist_point(q[0], np.asarray(s["first_mbr"])) > theta
    ]
    got = dita.query(q, k)
    exp = brute_force_topk(trajs, q, k, measure="frechet")
    assert topk_dists_equal(got, exp)
    assert got[0][0] == pytest.approx(0.0, abs=1e-12)  # query is in the data
    assert len(skip) >= 1  # far groups' partitions are pruned
    dita.unpersist()


def test_dita_smaller_index_than_dft(spark, tdrive_smoke, dita_frechet, dft_hausdorff):
    assert dita_frechet.index_bytes < dft_hausdorff.index_bytes


# -------------------------------------------------------- representatives

def test_representative_endpoints_and_length():
    pts = np.column_stack([np.linspace(0, 10, 30), np.zeros(30)])
    pts[7] = (2.0, 9.0)   # a sharp detour — must be selected
    rep = representative(pts, 4)
    assert rep.shape == (4, 2)
    assert (rep[0] == pts[0]).all()
    assert (rep[-1] == pts[-1]).all()
    assert any((rep[i] == pts[7]).all() for i in range(4))


def test_representative_short_trajectory_padded():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    rep = representative(pts, 4)
    assert rep.shape == (4, 2)
    assert (rep[-1] == pts[-1]).all()


def test_representative_preserves_order():
    rng = np.random.default_rng(0)
    pts = rng.random((50, 2)).cumsum(0)
    rep = representative(pts, 6)
    # each selected point appears in trajectory order
    idx = [int(np.where((pts == r).all(1))[0][0]) for r in rep]
    assert idx == sorted(idx)
