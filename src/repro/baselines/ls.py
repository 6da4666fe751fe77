"""LS baseline (paper §VII-A): per-partition brute-force linear scan.

LS has no index, so its pack is the framework's ``LocalPack`` itself:
every trajectory is a candidate, and each Spark task refines all of its
partitions' trajectories against the query in one scan (the same
kernels and bounded refine as every other algorithm); the driver merges
the per-task top-k lists. IS and IT are "/" in the paper's tables (we
report the trivial pack-build time for honesty).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.dist.framework import DistributedTopK, LocalPack


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
        super().__init__(
            spark,
            traj_df,
            LocalPack,
            measure=measure,
            eps=eps,
            gap=gap,
            n_partitions=n_partitions,
            strategy=strategy,
        )
