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
distance of some query point). Each Spark task refines the candidates of
all its partitions exactly, in one scan seeded with ``(θ, ∞)``.

Space accounting mirrors DFT-RB+DI's documented blow-up: per-segment MBRs
+ a duplicated segment endpoint store (the "regrouping" copy) + the dual
index + the R-tree + the raw trajectories (≈4× REPOSE, Table IV).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.rtree import STRtree
from repro.baselines.theta import ThetaTopK
from repro.dist.framework import POINT_BYTES, LocalPack


class DftPack(LocalPack):
    def build(self, cfg):
        seg_mbrs, seg_tid = [], []
        for tid, pts in self.trajs.items():
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
        self.tids = np.array(sorted(self.trajs), dtype=np.int64)
        self.seg_count = self._count(self.seg_tid)
        self.tree = STRtree(self.seg_mbrs)
        # raw + MBRs + duplicated segment endpoints (dual index / regroup
        # copy, 2 endpoints × 16B) + tree + tid map
        return (
            self.raw_bytes()
            + self.seg_mbrs.nbytes
            + len(self.seg_mbrs) * 2 * POINT_BYTES
            + self.tree.nbytes
            + self.seg_tid.nbytes
        )

    def _count(self, seg_tids: np.ndarray) -> np.ndarray:
        """Segments per trajectory of ``seg_tids``, in ``self.tids`` order."""
        return np.bincount(np.searchsorted(self.tids, seg_tids), minlength=len(self.tids))

    def candidates(self, qpts, ctx):
        """The trajectories whose segments are all within θ of the query."""
        near = self.tree.query_near(qpts, ctx["theta"], self.seg_mbrs)
        near_count = self._count(self.seg_tid[near])
        return [(t, self.trajs[t]) for t in self.tids[near_count == self.seg_count].tolist()]


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
    ):
        super().__init__(
            spark,
            traj_df,
            DftPack,
            measure=measure,
            eps=eps,
            gap=gap,
            sample_pool=sample_pool,
            seed=seed,
            n_partitions=n_partitions,
            strategy=strategy,
            key_mode="centroid",
        )
