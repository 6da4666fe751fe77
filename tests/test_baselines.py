"""LS / DFT / DITA baseline tests: distributed exactness vs brute force,
threshold-estimator soundness, representative-trajectory invariants, the
DITA global first-point index, and the "/" (unsupported) cells."""
from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from repro.baselines.dft import Dft, DftPack
from repro.baselines.dita import Dita, DitaPack, representative
from repro.baselines.ls import Ls
from repro.core.measures import get_measure
from repro.core.search import brute_force_topk
from repro.core.zorder import points_to_rects_dist
from tests.util import (
    assert_exact_ids,
    assert_packs_per_task,
    assert_same_topk,
    rnd_dataset,
    rnd_query,
)

NP = 4


# ----------------------------------------------------------------------- LS

@pytest.mark.parametrize("measure", ["hausdorff", "frechet", "dtw"])
def test_ls_exact(spark, tdrive_smoke, tdrive_trajs, tdrive_queries, measure):
    ls = Ls(spark, tdrive_smoke, measure=measure, n_partitions=NP)
    for _, q in tdrive_queries[:2]:
        got = ls.query(q, 10)
        exp = brute_force_topk(tdrive_trajs, q, 10, measure=measure)
        assert_same_topk(got, exp)
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


def test_ls_rejects_unknown_keyword(spark, tdrive_smoke):
    """A misspelt keyword is an error, not silently ignored."""
    with pytest.raises(TypeError):
        Ls(spark, tdrive_smoke, n_pivot=3)


# ---------------------------------------------------------------------- DFT

@pytest.fixture(scope="module")
def dft_hausdorff(spark, tdrive_smoke):
    return Dft(spark, tdrive_smoke, measure="hausdorff", n_partitions=NP)


@pytest.mark.parametrize("k", [1, 5, 15])
def test_dft_exact_hausdorff(dft_hausdorff, tdrive_trajs, tdrive_queries, k):
    for _, q in tdrive_queries:
        got = dft_hausdorff.query(q, k)
        exp = brute_force_topk(tdrive_trajs, q, k, measure="hausdorff")
        assert_same_topk(got, exp)


@pytest.mark.parametrize("measure", ["frechet", "dtw"])
def test_dft_exact_other_measures(spark, tdrive_smoke, tdrive_trajs, tdrive_queries, measure):
    dft = Dft(spark, tdrive_smoke, measure=measure, n_partitions=NP)
    _, q = tdrive_queries[0]
    got = dft.query(q, 8)
    exp = brute_force_topk(tdrive_trajs, q, 8, measure=measure)
    assert_same_topk(got, exp)
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
    assert_same_topk(got, exp)
    dft.unpersist()


def test_dft_index_bigger_than_raw(dft_hausdorff, tdrive_trajs):
    """The paper's DFT space blow-up: segments + dual copy + tree ≫ raw."""
    raw = sum(len(p) for _, p in tdrive_trajs) * 16
    assert dft_hausdorff.index_bytes > 3 * raw


@pytest.mark.parametrize("system", [Ls, Dft, Dita])
def test_query_takes_no_other_argument(system):
    """A query is ``query(q, k)`` for every system: no per-call seed."""
    for method in (system.query, system.query_ctx):
        assert list(inspect.signature(method).parameters) == ["self", "qpts", "k"]


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
    for _, q in tdrive_queries:
        got = dita_frechet.query(q, k)
        exp = brute_force_topk(tdrive_trajs, q, k, measure="frechet")
        assert_same_topk(got, exp)


def test_dita_exact_dtw(spark, tdrive_smoke, tdrive_trajs, tdrive_queries):
    dita = Dita(spark, tdrive_smoke, measure="dtw", n_partitions=NP)
    _, q = tdrive_queries[0]
    got = dita.query(q, 8)
    exp = brute_force_topk(tdrive_trajs, q, 8, measure="dtw")
    assert_same_topk(got, exp)
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
    assert_same_topk(got, exp)
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
        if points_to_rects_dist(q[0], s["first_mbr"]).min() > theta
    ]
    got = dita.query(q, k)
    exp = brute_force_topk(trajs, q, k, measure="frechet")
    assert_same_topk(got, exp)
    assert got[0][0] == pytest.approx(0.0, abs=1e-12)  # query is in the data
    assert len(skip) >= 1  # far groups' partitions are pruned
    dita.unpersist()


@pytest.mark.parametrize(
    "seed, n, want", [(3, 250, 104912), (5, 40, 19568), (7, 1, 688), (None, 0, 48)]
)
def test_dita_index_bytes(seed, n, want):
    """IS counts raw points, representatives and 48 bytes per trie node,
    the root included: the node count kept while building equals a walk
    of the trie, and the bytes are pinned."""
    data = rnd_dataset(seed, n) if n else {}
    pts = np.concatenate(list(data.values())) if n else np.zeros((1, 2))
    cfg = {"measure": "frechet", "n_pp": 4, "bounds": (*pts.min(0), *pts.max(0))}
    pack = DitaPack(0, list(data.items()), cfg)
    nodes, stack = 0, [pack.trie]
    while stack:
        nodes += 1
        stack.extend(stack.pop().children.values())
    assert pack.index_bytes == pack.raw_bytes() + n * 4 * 2 * 8 + nodes * 48 == want


def test_dita_smaller_index_than_dft(spark, tdrive_smoke, dita_frechet, dft_hausdorff):
    assert dita_frechet.index_bytes < dft_hausdorff.index_bytes


# ------------------------------------------------------------------------ θ

@pytest.mark.parametrize("system", [Dft, Dita])
def test_theta_sample_smaller_than_k(system):
    """A θ sample of fewer than k trajectories has no k-th distance, so
    θ is ∞ and the packs return all k exact ids: Frechet, k = 250 over
    250 trajectories, θ samples of 200, in four packs of one task."""
    data = rnd_dataset(3, 250)
    pts = np.concatenate(list(data.values()))
    cfg = {"measure": "frechet", "n_pp": 4, "bounds": (*pts.min(0), *pts.max(0))}
    pack_cls = DftPack if system is Dft else DitaPack
    packs = [
        pack_cls(pid, [(t, p) for t, p in data.items() if t % 4 == pid], cfg)
        for pid in range(4)
    ]
    index = system.__new__(system)
    index.fn = packs[0].fn
    index.summaries = [p.summary() for p in packs]
    q, k = rnd_query(0), len(data)
    exp = brute_force_topk(data.items(), q, k, measure="frechet")
    for seed in range(10):
        drawn = np.random.default_rng(seed).choice(k, 200, replace=False)
        index.pool = [(int(t), data[int(t)]) for t in drawn]
        ctx = index.query_ctx(q, k)
        assert_same_topk(pack_cls.search_task(packs, q, k, ctx), exp)


@pytest.mark.parametrize("system", [Dft, Dita])
def test_theta_from_the_pool_prefix(system):
    """θ is the k-th distance among the pool's first C·k = 5k, with the
    strict-< guard, the same for every query of the same trajectory, and
    both DFT and DITA seed their scans with ``(θ, ∞)``."""
    data = rnd_dataset(4, 60)
    index = system.__new__(system)
    index.fn = get_measure("frechet")
    index.pool = list(data.items())
    index.summaries = []
    q, k = rnd_query(1), 4
    first = sorted(index.fn(q, p) for _, p in index.pool[: 5 * k])
    ctx = index.query_ctx(q, k)
    assert first[k - 1] < ctx["theta"] == pytest.approx(first[k - 1])
    assert ctx["d_k"] == (ctx["theta"], math.inf)
    assert index.query_ctx(q, k) == ctx


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


@pytest.mark.parametrize("system", [Ls, Dft, Dita])
def test_frechet_duplicates_bound_order(spark, tdrive_dups, tdrive_queries, system):
    """LS, DFT and DITA scan in the order of Frechet's endpoint bound:
    brute force's ids on data with duplicated trajectories, k ≥ N
    included."""
    df, trajs = tdrive_dups
    index = system(spark, df, measure="frechet", n_partitions=NP)
    for _, q in tdrive_queries:
        for k in (5, len(trajs)):
            assert index.query(q, k) == brute_force_topk(trajs, q, k, measure="frechet")
    index.unpersist()
