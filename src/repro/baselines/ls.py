"""LS baseline (paper §VII-A): per-partition brute-force linear scan.

Each Spark task refines every trajectory of its partitions against the
query in one scan (the same kernels and bounded refine as every other
algorithm), and the driver merges the per-task top-k lists. No index: IS and IT are "/" in
the paper's tables (we report the trivial pack-build time for honesty).
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession

from repro.core.measures import get_lower_bound, get_measure
from repro.dist.framework import DistributedTopK, LocalPack


class LsPack(LocalPack):
    def __init__(self, pid, trajs, cfg):
        t0 = time.perf_counter()
        self.trajs = list(trajs)
        kw = {"eps": cfg.get("eps"), "gap": cfg.get("gap")}
        self.fn = get_measure(cfg["measure"], **kw)
        self.lower_bound = get_lower_bound(cfg["measure"], **kw)
        super().__init__(pid, len(trajs), time.perf_counter() - t0, 0)

    def candidates(self, qpts, ctx):
        return self.trajs


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
