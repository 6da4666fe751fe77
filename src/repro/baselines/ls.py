"""LS baseline (paper §VII-A): per-partition brute-force linear scan.

Refines every trajectory of each partition against the query (same
kernels and the same bounded refine as every other algorithm) and merges
the per-partition top-k lists on the driver. No index: IS and IT are "/" in
the paper's tables (we report the trivial pack-build time for honesty).
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.measures import get_lower_bound, get_measure
from repro.core.search import scan_topk
from repro.dist.framework import DistributedTopK, LocalPack


class LsPack(LocalPack):
    def __init__(self, pid, trajs, cfg):
        t0 = time.perf_counter()
        self.trajs = list(trajs)
        kw = {"eps": cfg.get("eps"), "gap": cfg.get("gap")}
        self.fn = get_measure(cfg["measure"], **kw)
        self.lower_bound = get_lower_bound(cfg["measure"], **kw)
        super().__init__(pid, len(trajs), time.perf_counter() - t0, 0)

    def search(self, qpts, k, ctx, kth):
        return scan_topk(self.fn, self.trajs, qpts, k, d_k=kth, lower_bound=self.lower_bound)


class Ls(DistributedTopK):
    """Distributed linear scan. Default partitioning: random (the paper's
    LS has no clustering stage); Table VII-style variants can pass any
    strategy."""

    def __init__(
        self,
        spark: SparkSession,
        traj_df: DataFrame,
        *,
        measure: str = "hausdorff",
        n_partitions: int = 16,
        strategy: str = "random",
        eps: float | None = None,
        gap: tuple[float, float] | None = None,
    ):
        cfg = {"measure": measure, "eps": eps, "gap": gap}
        super().__init__(
            spark,
            traj_df,
            LsPack,
            n_partitions=n_partitions,
            strategy=strategy,
            config=cfg,
        )
