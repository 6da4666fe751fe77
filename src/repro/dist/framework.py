"""Distributed top-k framework (paper §V-C).

Mirrors the paper's RDD design: trajectories are assigned a partition id
by a global partitioning strategy (DataFrame ops, ``core.partition``),
keyed and placed with a custom partitioner (the `Partitioner` subclass of
§V-C), and each partition is packaged into a single ``LocalPack`` object
(the paper's ``RpTraj`` case class: trajectories + local index) by
``mapPartitions``. The resulting ``RDD[LocalPack]`` is cached; queries map
over its packs and the driver merges the per-partition top-k lists.

The paper runs one local index per core (N_G = cores). Here N_G may exceed
the cores, and every Spark task costs a fixed scheduling floor per query,
so the N_G packs are placed on ``min(N_G, cores)`` Spark partitions by
``pid % n_tasks``: each task builds, and later searches, the packs it
owns. The pack, not the Spark partition, stays the unit of partitioning
strategy, summaries and per-partition local times.

The cached ``RDD[LocalPack]`` is the only pack cache. PySpark caches its
elements as pickled bytes, where the paper's Scala ``RDD[RpTraj]`` holds
deserialized objects, so each query unpickles each pack once in the task
that searches it (DESIGN.md §3); nothing else holds a pack, and
``unpersist`` releases them all.

The RDD layer is used deliberately here — the paper's contribution is
explicitly this RDD structure (``type RpTrieRDD = RDD[RpTraj]``); all
relational work (bounds, clustering, pid assignment) stays in DataFrames.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.partition import assign_partitions, dataset_bounds


class LocalPack:
    """Per-partition package: trajectories + a local index (`RpTraj`).

    Subclasses implement ``search``; ``stats`` reports the per-partition
    build time and index size used for the paper's IT / IS metrics.
    """

    def __init__(self, pid: int, n_trajs: int, build_secs: float, index_bytes: int):
        self.pid = pid
        self.n_trajs = n_trajs
        self.build_secs = build_secs
        self.index_bytes = index_bytes

    def search(self, qpts: np.ndarray, k: int, ctx: dict) -> list[tuple[float, int]]:
        raise NotImplementedError

    def summary(self) -> dict:
        """Driver-visible build metadata (global index info goes here)."""
        return {
            "pid": self.pid,
            "n_trajs": self.n_trajs,
            "build_secs": self.build_secs,
            "index_bytes": self.index_bytes,
        }


def _rows_to_trajs(rows) -> list[tuple[int, np.ndarray]]:
    return [
        (tid, np.column_stack([np.asarray(xs, float), np.asarray(ys, float)]))
        for tid, xs, ys in rows
    ]


class DistributedTopK:
    """Generic distributed index: build once, query many times.

    Parameters
    ----------
    build_fn : ``(pid, [(tid, pts)], config) -> LocalPack`` executed inside
        ``mapPartitions`` on the executors, once per pid in
        ``range(n_partitions)``.
    config : broadcast-style plain dict shipped in the task closure
        (bounds, grid δ, pivots, measure params, ...).
    strategy / key_mode : global partitioning (see ``core.partition``).
    """

    def __init__(
        self,
        spark: SparkSession,
        traj_df: DataFrame,
        build_fn: Callable[[int, list, dict], LocalPack],
        *,
        n_partitions: int = 16,
        strategy: str = "heterogeneous",
        key_mode: str = "traj",
        config: dict | None = None,
    ):
        t0 = time.perf_counter()
        self.spark = spark
        self.n_partitions = n_partitions
        self.config = dict(config or {})
        if "bounds" not in self.config:
            self.config["bounds"] = dataset_bounds(traj_df)
        assigned = assign_partitions(
            traj_df,
            n_partitions,
            strategy,
            bounds=self.config["bounds"],
            key_mode=key_mode,
        )
        cfg = self.config
        n_tasks = min(n_partitions, spark.sparkContext.defaultParallelism)
        keyed = (
            assigned.select("pid", "tid", "xs", "ys")
            .rdd.map(lambda r: (r[0], (r[1], r[2], r[3])))
            .partitionBy(n_tasks, lambda pid: pid % n_tasks)
        )

        def build_task(task: int, it):
            rows_by_pid: dict[int, list] = {}
            for pid, row in it:
                rows_by_pid.setdefault(pid, []).append(row)
            # every owned pid gets a pack, empty if no trajectory landed there
            for pid in range(task, n_partitions, n_tasks):
                yield build_fn(pid, _rows_to_trajs(rows_by_pid.get(pid, [])), cfg)

        self.rdd = keyed.mapPartitionsWithIndex(build_task).cache()
        self.summaries = self.rdd.map(lambda p: p.summary()).collect()
        self.build_time = time.perf_counter() - t0  # IT metric
        self.index_bytes = sum(s["index_bytes"] for s in self.summaries)  # IS
        self.last_query_time = 0.0

    def query(
        self,
        qpts: np.ndarray,
        k: int,
        *,
        ctx: dict | None = None,
    ) -> list[tuple[float, int]]:
        """Distributed top-k: fan out to the packs, merge on the driver.

        Besides the wall-clock ``last_query_time``, records per-partition
        local search seconds (``last_local_times`` / ``last_local_max``):
        the slowest partition is what determines stage latency on a real
        cluster, without the fixed local-mode RPC floor.
        """
        t0 = time.perf_counter()
        ctx = dict(ctx or {})
        q = np.asarray(qpts, dtype=float)

        def run(pack):
            s = time.perf_counter()
            res = pack.search(q, k, ctx)
            return (time.perf_counter() - s, res)

        out = self.rdd.map(run).collect()
        self.last_local_times = [t for t, _ in out]
        self.last_local_max = max(self.last_local_times, default=0.0)
        results = [r for _, rs in out for r in rs]
        merged = sorted(results, key=lambda x: (x[0], x[1]))[:k]
        self.last_query_time = time.perf_counter() - t0
        return merged

    def unpersist(self) -> None:
        self.rdd.unpersist()


def sample_trajectories(
    traj_df: DataFrame, n: int, seed: int = 0
) -> list[tuple[int, np.ndarray]]:
    """Uniform random driver-side sample of ``(tid, pts)`` rows.

    Used for pivot selection (REPOSE) and threshold estimation pools
    (DFT/DITA). Deterministic in ``seed``.
    """
    total = traj_df.count()
    frac = min(1.0, (3.0 * n) / max(1, total))
    rows = traj_df.sample(fraction=frac, seed=seed).limit(n).collect()
    return _rows_to_trajs([(r.tid, r.xs, r.ys) for r in rows])
