"""Distributed top-k framework (paper §V-C).

Mirrors the paper's RDD design: trajectories are assigned a partition id
by a global partitioning strategy (DataFrame ops, ``core.partition``),
keyed and placed with a custom partitioner (the `Partitioner` subclass of
§V-C), and each partition is packaged into a single ``LocalPack`` object
(the paper's ``RpTraj`` case class: trajectories + local index) by
``mapPartitions``. The resulting ``RDD[LocalPack]`` is cached; a query
runs one ``mapPartitions`` task per Spark partition, and the driver
merges the per-task top-k lists.

The paper runs one local index per core (N_G = cores). Here N_G may exceed
the cores, and every Spark task costs a fixed scheduling floor per query,
so the N_G packs are placed on ``min(N_G, cores)`` Spark partitions by
``pid % n_tasks``: each task builds, and later searches, the packs it
owns. The pack, not the Spark partition, stays the unit of partitioning
strategy and summaries; the task is the only unit of local search, as
the paper runs one local search per core that prunes against its own
running k-th (§IV). A task hands its packs, in pid order, to their
class's ``LocalPack.search_task``, which returns the task's top-k:
REPOSE searches them as one best-first traversal, and by default every
pack's ``candidates`` are refined in one ``scan_topk``, with one sort by
lower bound and one threshold. The threshold is tie-exact, so the
answer is still the first k by ``(dist, tid)``. Local times are per
task, timed around ``search_task``, since a task, not a pack, sets the
stage latency.

The four systems share this framework as the paper's baselines share
its kernels (§VII-A). ``DistributedTopK`` binds the measure once: its
parameters go into the packs' config, and ERP's default gap point, the
centre of the data (``erp_gap``), is the same for every system. The
``LocalPack`` base holds what every pack shares (the trajectories, the
measure's kernel and lower bound, the raw bytes and the build timer),
so a system's pack builds only its own index, and LS, which has none,
uses the base itself.

The cached ``RDD[LocalPack]`` is the only pack cache. PySpark caches its
elements as pickled bytes, where the paper's Scala ``RDD[RpTraj]`` holds
deserialized objects, so each query unpickles each pack once in the task
that searches it (DESIGN.md §3); nothing else holds a pack, and
``unpersist`` releases them all.

Every function shipped to the workers first calls ``drop_zip_finders``.
PySpark's worker runs ``importlib.invalidate_caches()`` before each task
(``pyspark.worker_util.setup_spark_files``), and on CPython 3.11 that
makes every ``zipimport.zipimporter`` in ``sys.path_importer_cache``
re-read its archive's directory. Workers import PySpark from
``pyspark.zip`` (and the py4j zip and spark-core jar), so a reused
worker held 16 such finders and re-parsed about 27k zip entries before
every task: 0.23-0.28 s of CPU on a 4-vCPU machine, the bulk of a
query's fixed cost. Once the finders are gone, the next
``invalidate_caches()`` has nothing to reload, and an import that needs
one rebuilds it from ``zipimport._zip_directory_cache`` without reading
the archive again (DESIGN.md §3).

The RDD layer is used deliberately here — the paper's contribution is
explicitly this RDD structure (``type RpTrieRDD = RDD[RpTraj]``); all
relational work (bounds, clustering, pid assignment) stays in DataFrames.
"""
from __future__ import annotations

import math
import sys
import time
import zipimport
from typing import Callable, Iterable

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.measures import get_lower_bound, get_measure
from repro.core.partition import assign_partitions, dataset_stats
from repro.core.search import check_k, scan_topk

#: raw trajectory storage cost (2 float64 coords/point), counted in IS
POINT_BYTES = 16


class LocalPack:
    """Per-partition package: trajectories + a local index (`RpTraj`).

    The base class binds what every system shares: the partition's
    ``trajs`` (a dict), the measure, its ``params``, the kernel ``fn``
    and its ``lower_bound``, and it times one call to ``build``, which
    a subclass overrides to build its index and return the index's
    bytes. With no index, it is LS's pack: ``candidates`` is every
    trajectory and the index costs nothing. A subclass prunes in
    ``candidates`` or searches its own way in ``search_task``;
    ``summary`` reports the per-partition build time and index size
    used for the paper's IT / IS metrics.
    """

    def __init__(self, pid: int, trajs: list[tuple[int, np.ndarray]], cfg: dict):
        self.pid = pid
        self.trajs = dict(trajs)
        self.n_trajs = len(self.trajs)
        self.measure = cfg["measure"]
        self.params = {"eps": cfg.get("eps"), "gap": cfg.get("gap")}
        self.fn = get_measure(self.measure, **self.params)
        self.lower_bound = get_lower_bound(self.measure, **self.params)
        t0 = time.perf_counter()
        self.index_bytes = self.build(cfg)
        self.build_secs = time.perf_counter() - t0

    def build(self, cfg: dict) -> int:
        """Build the pack's index from ``cfg``; returns its bytes (IS)."""
        return 0

    def raw_bytes(self) -> int:
        """What the raw trajectories cost, counted in an index's IS."""
        return POINT_BYTES * sum(len(p) for p in self.trajs.values())

    def candidates(self, qpts: np.ndarray, ctx: dict) -> Iterable[tuple[int, np.ndarray]]:
        """The pack's ``(tid, pts)`` that its index does not rule out."""
        return self.trajs.items()

    @classmethod
    def search_task(cls, packs: list, qpts: np.ndarray, k: int, ctx: dict):
        """One task's local search over its ``packs`` (pid order): the
        task's top-k.

        By default the ``candidates`` of every pack are refined in one
        ``scan_topk`` with the packs' kernel and lower bound, seeded by
        ``ctx["d_k"]`` when the query has one, so the task makes one
        sort by lower bound and prunes against one running k-th, as the
        paper's one local search per core does (§IV). A subclass may
        search the packs as one in its own way.
        """
        first = packs[0]
        return scan_topk(
            first.fn, [c for p in packs for c in p.candidates(qpts, ctx)], qpts, k,
            d_k=ctx.get("d_k", math.inf), lower_bound=first.lower_bound,
        )

    def summary(self) -> dict:
        """Driver-visible build metadata (global index info goes here)."""
        return {
            "pid": self.pid,
            "n_trajs": self.n_trajs,
            "build_secs": self.build_secs,
            "index_bytes": self.index_bytes,
        }


def erp_gap(measure: str, gap, bounds) -> tuple[float, float] | None:
    """ERP's gap point: ``gap``, or by default the centre of the data's
    ``bounds``, the same for every system; ``gap`` for other measures."""
    if measure != "erp" or gap is not None:
        return gap
    minx, miny, maxx, maxy = bounds
    return (minx + maxx) / 2.0, (miny + maxy) / 2.0


def drop_zip_finders() -> None:
    """Delete the zipimport finders from ``sys.path_importer_cache``.

    Runs first in every task, so the ``importlib.invalidate_caches()``
    before the worker's next task finds no zip archive to re-read. A no-op
    where nothing was imported from a zip.
    """
    cache = sys.path_importer_cache
    for path, finder in list(cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del cache[path]


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
    measure / eps / gap : the measure, bound once here: ``config`` gets
        them for the packs (ERP's default gap from ``erp_gap``) and
        ``fn`` is its kernel on the driver.
    config : broadcast-style plain dict shipped in the task closure
        (grid δ, trie mode, ...); the build adds the data's ``bounds`` and
        what ``global_config`` returns.
    strategy / key_mode : global partitioning (see ``core.partition``).

    A build runs, in order: one aggregate for the data's bounds and row
    count (``n_trajs``), the driver-side ``global_config``, the cluster
    key counts of ``assign_partitions`` and the pack job. ``build_time``
    (IT) covers all of them, and ``build_phases`` holds each one's
    seconds: ``bounds_s``, ``global_s``, ``keys_s`` and ``packs_s``.
    """

    def __init__(
        self,
        spark: SparkSession,
        traj_df: DataFrame,
        build_fn: Callable[[int, list, dict], LocalPack],
        *,
        measure: str,
        eps: float | None = None,
        gap: tuple[float, float] | None = None,
        n_partitions: int = 16,
        strategy: str = "heterogeneous",
        key_mode: str = "traj",
        config: dict | None = None,
    ):
        t0 = time.perf_counter()
        self.spark = spark
        self.n_partitions = n_partitions
        self.config = cfg = dict(config or {})
        cfg["bounds"], self.n_trajs = dataset_stats(traj_df)
        gap = erp_gap(measure, gap, cfg["bounds"])
        cfg.update(measure=measure, eps=eps, gap=gap)
        self.fn = get_measure(measure, eps=eps, gap=gap)
        t1 = time.perf_counter()
        cfg.update(self.global_config(traj_df))
        t2 = time.perf_counter()
        assigned = assign_partitions(
            traj_df, n_partitions, strategy, bounds=cfg["bounds"], key_mode=key_mode
        )
        t3 = time.perf_counter()
        n_tasks = min(n_partitions, spark.sparkContext.defaultParallelism)
        keyed = (
            assigned.select("pid", "tid", "xs", "ys")
            .rdd.map(lambda r: (r[0], (r[1], r[2], r[3])))
            .partitionBy(n_tasks, lambda pid: pid % n_tasks)
        )

        def build_task(task: int, it):
            drop_zip_finders()
            rows_by_pid: dict[int, list] = {}
            for pid, row in it:
                rows_by_pid.setdefault(pid, []).append(row)
            # every owned pid gets a pack, empty if no trajectory landed there
            for pid in range(task, n_partitions, n_tasks):
                yield build_fn(pid, _rows_to_trajs(rows_by_pid.get(pid, [])), cfg)

        def summary(pack):
            drop_zip_finders()
            return pack.summary()

        self.rdd = keyed.mapPartitionsWithIndex(build_task).cache()
        self.summaries = self.rdd.map(summary).collect()
        t4 = time.perf_counter()
        self.build_time = t4 - t0  # IT metric
        self.build_phases = {
            "bounds_s": t1 - t0, "global_s": t2 - t1, "keys_s": t3 - t2, "packs_s": t4 - t3,
        }
        self.index_bytes = sum(s["index_bytes"] for s in self.summaries)  # IS
        self.last_query_time = 0.0

    def global_config(self, traj_df: DataFrame) -> dict:
        """The driver-side global index, added to every pack's config: a
        subclass computes it once per build, after ``config`` has the
        data's bounds and the measure and ``n_trajs`` is known."""
        return {}

    def query_ctx(self, qpts: np.ndarray, k: int) -> dict:
        """What every task's search receives besides the query and k: a
        subclass computes it on the driver, once per query."""
        return {}

    def query(self, qpts: np.ndarray, k: int) -> list[tuple[float, int]]:
        """Distributed top-k: one ``mapPartitions`` task per Spark
        partition searches its packs (``LocalPack.search_task``); the driver
        merges the tasks' top-k lists into the first k by ``(dist,
        tid)``. The time of ``query_ctx`` counts in the query's.

        Besides the wall-clock ``last_query_time``, records each task's
        local search seconds (``last_local_times``: one entry per Spark
        partition, in task order) and their maximum (``last_local_max``):
        the slowest task is what determines stage latency on a real
        cluster, without the fixed local-mode RPC floor.

        Raises ``ValueError``, before any Spark job, unless ``k >= 1`` and
        ``qpts`` is an (m ≥ 1, 2) array of finite coordinates.
        """
        check_k(k)
        t0 = time.perf_counter()
        q = np.asarray(qpts, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2 or not len(q) or not np.isfinite(q).all():
            raise ValueError(f"a query must be an (m >= 1, 2) array of finite floats (shape {q.shape})")
        ctx = self.query_ctx(q, k)

        def run(packs):
            drop_zip_finders()
            packs = list(packs)
            t0 = time.perf_counter()
            top = type(packs[0]).search_task(packs, q, k, ctx)
            yield time.perf_counter() - t0, top

        out = self.rdd.mapPartitions(run).collect()
        self.last_local_times = [secs for secs, _ in out]
        self.last_local_max = max(self.last_local_times, default=0.0)
        merged = sorted(r for _, top in out for r in top)[:k]
        self.last_query_time = time.perf_counter() - t0
        return merged

    def unpersist(self) -> None:
        self.rdd.unpersist()


def sample_trajectories(
    traj_df: DataFrame, n: int, seed: int = 0, count: int | None = None
) -> list[tuple[int, np.ndarray]]:
    """Uniform random driver-side sample of ``(tid, pts)`` rows.

    Used for pivot selection (REPOSE) and threshold estimation pools
    (DFT/DITA). Deterministic in ``seed``. ``count`` is the number of
    rows of ``traj_df`` when the caller knows it (``dataset_stats``);
    without it a ``count()`` job finds it. A Bernoulli sample of about
    ``3n`` rows is collected in one job, and ``default_rng(seed)`` draws
    ``n`` of them, in random order: every prefix is a uniform sample.
    """
    total = traj_df.count() if count is None else count
    frac = min(1.0, (3.0 * n) / max(1, total))
    rows = traj_df.sample(fraction=frac, seed=seed).collect()
    picked = np.random.default_rng(seed).permutation(len(rows))[:n]
    return _rows_to_trajs([(rows[i].tid, rows[i].xs, rows[i].ys) for i in picked])
