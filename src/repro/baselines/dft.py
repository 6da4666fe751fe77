"""DFT baseline [Xie, Li, Phillips, PVLDB'17] (paper §VII-A, variant
DFT-RB+DI).

Trajectories are decomposed into line segments; each partition holds an
STR R-tree over segment MBRs. A top-k query first estimates a pruning
threshold θ: sample ``C·k`` random trajectories, compute exact distances,
take the k-th smallest (this is why the paper calls DFT's query time
"unstable" — it depends on sample quality). Then each partition runs a
range traversal: segments within θ of the query are "near"; a trajectory
is a candidate iff *all* of its segments are near (valid for Hausdorff /
Frechet / DTW: every data point must be within distance ≤ the true
distance of some query point). Candidates are refined exactly.

Space accounting mirrors DFT-RB+DI's documented blow-up: per-segment MBRs
+ a duplicated segment endpoint store (the "regrouping" copy) + the dual
index + the R-tree + the raw trajectories (≈4× REPOSE, Table IV).
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.rtree import STRtree
from repro.baselines.theta import ThetaTopK
from repro.core.measures import get_measure
from repro.dist.framework import LocalPack

_POINT_BYTES = 16


class DftPack(LocalPack):
    def __init__(self, pid, trajs, cfg):
        t0 = time.perf_counter()
        self.trajs = dict(trajs)
        self.fn = get_measure(cfg["measure"], eps=cfg.get("eps"), gap=cfg.get("gap"))
        seg_mbrs, seg_tid = [], []
        for tid, pts in trajs:
            a, b = pts[:-1], pts[1:]
            if len(pts) == 1:  # degenerate: a point "segment"
                a = b = pts
            m = np.empty((len(a), 4))
            np.minimum(a[:, 0], b[:, 0], out=m[:, 0])
            np.minimum(a[:, 1], b[:, 1], out=m[:, 1])
            np.maximum(a[:, 0], b[:, 0], out=m[:, 2])
            np.maximum(a[:, 1], b[:, 1], out=m[:, 3])
            seg_mbrs.append(m)
            seg_tid.append(np.full(len(a), tid, dtype=np.int64))
        self.seg_mbrs = (
            np.concatenate(seg_mbrs) if seg_mbrs else np.zeros((0, 4))
        )
        self.seg_tid = (
            np.concatenate(seg_tid) if seg_tid else np.zeros(0, dtype=np.int64)
        )
        tids = np.array(sorted(self.trajs), dtype=np.int64)
        self.tid_index = {int(t): i for i, t in enumerate(tids)}
        self.tids = tids
        self.seg_count = np.zeros(len(tids), dtype=np.int64)
        for t in self.seg_tid:
            self.seg_count[self.tid_index[int(t)]] += 1
        self.tree = STRtree(self.seg_mbrs)
        n_points = sum(len(p) for p in self.trajs.values())
        # raw + MBRs + duplicated segment endpoints (dual index / regroup
        # copy, 2 endpoints × 16B) + tree + tid map
        idx_bytes = (
            n_points * _POINT_BYTES
            + self.seg_mbrs.nbytes
            + len(self.seg_mbrs) * 2 * _POINT_BYTES
            + self.tree.nbytes
            + self.seg_tid.nbytes
        )
        super().__init__(pid, len(trajs), time.perf_counter() - t0, idx_bytes)

    def search(self, qpts, k, ctx):
        theta = ctx["theta"]
        near = self.tree.query_near(qpts, theta, self.seg_mbrs)
        near_count = np.zeros(len(self.tids), dtype=np.int64)
        for t in self.seg_tid[near]:
            near_count[self.tid_index[int(t)]] += 1
        cand = self.tids[near_count == self.seg_count]
        scored = sorted(
            ((self.fn(qpts, self.trajs[int(t)]), int(t)) for t in cand),
            key=lambda x: (x[0], x[1]),
        )
        return scored[:k]


class Dft(ThetaTopK):
    """Distributed DFT. Default global partitioning: homogeneous by
    segment/trajectory centroid (the original's locality-preserving
    placement); pass ``strategy="heterogeneous"`` for Heter-DFT
    (Table IX)."""

    def __init__(
        self,
        spark: SparkSession,
        traj_df: DataFrame,
        *,
        measure: str = "hausdorff",
        n_partitions: int = 16,
        strategy: str = "homogeneous",
        eps: float | None = None,
        gap: tuple[float, float] | None = None,
        sample_pool: int = 200,
        seed: int = 0,
        **_,
    ):
        super().__init__(
            spark,
            traj_df,
            lambda pid, trajs, c: DftPack(pid, trajs, c),
            measure=measure,
            eps=eps,
            gap=gap,
            sample_pool=sample_pool,
            seed=seed,
            config={},
            n_partitions=n_partitions,
            strategy=strategy,
            key_mode="centroid",
        )
