"""Global partitioning strategies (paper §V-A/§V-B) as DataFrame ops.

Strategies over a trajectory DataFrame ``(tid, xs, ys)``:

* ``heterogeneous`` (REPOSE, §V-B): SOM-TC-style clustering — encode each
  trajectory as the sequence of z-order cells it traverses, coarsen the
  granularity until ~``N/N_G`` clusters remain, sort by (cluster id,
  tid), assign round-robin → similar trajectories land in *different*
  partitions.
* ``homogeneous`` (DITA/DFT-style, §V-A): same clustering, but sorted
  trajectories are cut into ``N_G`` contiguous chunks → similar
  trajectories land in the *same* partition. ``key_mode`` selects what is
  clustered: the whole trajectory ("traj", Table VII), the first point
  ("first", DITA) or the centroid ("centroid", DFT).
* ``random``: ``xxhash64(tid) mod N_G``.

All assignment logic is Spark SQL / window functions (Catalyst). The
only Python is one pandas UDF that gives each trajectory its cluster key
at every granularity the loop may pick (``cluster_keys``): the cells are
computed once, at the finest granularity, and each coarser one is a
shift of them. One aggregate then counts the rows and the distinct
keys at every granularity; it collects each granularity's distinct keys
as a set, which needs no Expand of the rows as several ``count_distinct``
do, so the count is one shuffle into a single task.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Window
from pyspark.sql.types import ArrayType, LongType

from repro.core.zorder import interleave

MAX_BITS = 14  # finest granularity tried by the coarsening loop
#: bits per axis the coarsening loop tries, finest first
TRIALS = tuple(range(MAX_BITS, 0, -2))


def dataset_stats(traj_df: DataFrame) -> tuple[tuple[float, float, float, float], int]:
    """Global (minx, miny, maxx, maxy) over all trajectory points, and the
    number of trajectories, from one aggregate.

    Raises ``ValueError`` when a trajectory is empty or null, when its
    ``xs`` and ``ys`` differ in length, or when a coordinate is NaN or
    ±inf. No extra job is needed to find one: the aggregate also takes
    the least length and the largest length difference (a null array
    counts as empty), Spark orders NaN above every number, so a NaN makes
    ``maxx`` or ``maxy`` NaN, and an infinity is itself a bound.
    """
    n_xs, n_ys = (F.coalesce(F.size(c), F.lit(0)) for c in ("xs", "ys"))
    row = traj_df.select(
        F.min(F.array_min("xs")).alias("minx"),
        F.min(F.array_min("ys")).alias("miny"),
        F.max(F.array_max("xs")).alias("maxx"),
        F.max(F.array_max("ys")).alias("maxy"),
        F.count("*").alias("n"),
        F.min(F.least(n_xs, n_ys)).alias("min_len"),
        F.max(F.abs(n_xs - n_ys)).alias("len_diff"),
    ).first()
    if row.n and row.min_len < 1:
        raise ValueError("every trajectory needs at least one point; one is empty or null")
    if row.n and row.len_diff:
        raise ValueError(f"a trajectory's xs and ys differ in length (by up to {row.len_diff})")
    bounds = (row.minx, row.miny, row.maxx, row.maxy)
    if not all(b is not None and math.isfinite(b) for b in bounds):
        raise ValueError(f"trajectory coordinates must be finite; bounds are {bounds}")
    return bounds, row.n


def dataset_bounds(traj_df: DataFrame) -> tuple[float, float, float, float]:
    """Global (minx, miny, maxx, maxy) over all trajectory points
    (``dataset_stats`` without the count)."""
    return dataset_stats(traj_df)[0]


def _stable_hash64(b: bytes) -> int:
    """Process-independent 63-bit hash (python's hash() is seeded)."""
    return int.from_bytes(hashlib.blake2b(b, digest_size=8).digest(), "big") >> 1


def cluster_keys(
    xs, ys, bounds: tuple[float, float, float, float], key_mode: str = "traj"
) -> list[int]:
    """One trajectory's cluster key at each granularity of ``TRIALS``.

    The points (or the first point, or the centroid, by ``key_mode``) get
    their cells over ``bounds`` once, at ``MAX_BITS`` per axis, clipped
    into the grid, and one z-order code each. A cell ``b`` bits coarser
    is the code shifted right by ``2 * b``, so every granularity is a
    shift of the finest. The key hashes the code sequence with
    consecutive duplicates removed: the cells the trajectory traverses
    (SOM-TC encoding).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if key_mode == "first":
        x, y = x[:1], y[:1]
    elif key_mode == "centroid":
        x, y = np.array([x.mean()]), np.array([y.mean()])
    minx, miny, maxx, maxy = bounds
    n = 1 << MAX_BITS
    ix = np.clip(((x - minx) / ((maxx - minx) or 1.0) * n).astype(np.int64), 0, n - 1)
    iy = np.clip(((y - miny) / ((maxy - miny) or 1.0) * n).astype(np.int64), 0, n - 1)
    fine = interleave(ix, iy, MAX_BITS)
    keys = []
    for bits in TRIALS:
        codes = fine >> 2 * (MAX_BITS - bits)
        if len(codes) > 1:
            codes = codes[np.concatenate([[True], codes[1:] != codes[:-1]])]
        keys.append(_stable_hash64(codes.tobytes()))
    return keys


def _keyed(traj_df: DataFrame, bounds, key_mode: str) -> tuple[DataFrame, int, list[int]]:
    """``traj_df`` with a ``_keys`` column (``cluster_keys`` per row), its
    row count and the number of distinct keys at each granularity, from
    one aggregate: ``size(collect_set(...))`` per granularity gives what
    ``count_distinct`` does, without the Expand that splits several
    distinct counts into three jobs.

    ``keyed`` stays cached, so a later build on the same data reuses its
    keys. On 4 vCPUs, removing the cache raised the median ``setup_s``
    of ``perfbench/run.py`` from 0.53 to 0.80 s on 1200 Xi'an-lite
    trajectories (Hausdorff) and from 0.70 to 1.11 s on 3000 (Frechet),
    3 of 3 paired runs each.
    """

    @F.pandas_udf(ArrayType(LongType()))
    def keys(xs: pd.Series, ys: pd.Series) -> pd.Series:
        return pd.Series([cluster_keys(x, y, bounds, key_mode) for x, y in zip(xs, ys)])

    keyed = traj_df.withColumn("_keys", keys("xs", "ys")).cache()
    row = keyed.select(
        F.count("*"), *[F.size(F.collect_set(F.col("_keys")[i])) for i in range(len(TRIALS))]
    ).first()
    return keyed, row[0], list(row[1:])


def _coarsen(keyed: DataFrame, counts: list[int], target: int) -> tuple[DataFrame, int, int]:
    """The finest granularity with at most ``target`` clusters (else the
    coarsest): ``keyed`` with its key as ``cluster``, the bits, the count."""
    i = next((i for i, c in enumerate(counts) if c <= max(1, target)), len(TRIALS) - 1)
    return keyed.withColumn("cluster", F.col("_keys")[i]).drop("_keys"), TRIALS[i], counts[i]


def cluster_trajectories(
    traj_df: DataFrame,
    target_clusters: int,
    *,
    bounds: tuple[float, float, float, float] | None = None,
    key_mode: str = "traj",
) -> tuple[DataFrame, int, int]:
    """§V-B granularity loop: coarsen the cells until ≤ ``target_clusters``.

    Returns ``(df with 'cluster' column, bits_used, n_clusters)``.
    Starts at ``MAX_BITS`` (near-singleton clusters) and enlarges the
    space granularity until the cluster count first drops to the target.
    """
    keyed, _, counts = _keyed(traj_df, bounds or dataset_bounds(traj_df), key_mode)
    return _coarsen(keyed, counts, target_clusters)


def assign_partitions(
    traj_df: DataFrame,
    n_partitions: int,
    strategy: str = "heterogeneous",
    *,
    bounds: tuple[float, float, float, float] | None = None,
    key_mode: str = "traj",
) -> DataFrame:
    """Add a ``pid`` column in [0, n_partitions) according to ``strategy``."""
    if strategy not in ("heterogeneous", "homogeneous", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "random":
        return traj_df.withColumn(
            "pid", F.pmod(F.xxhash64("tid"), F.lit(n_partitions)).cast("int")
        )
    keyed, n, counts = _keyed(traj_df, bounds or dataset_bounds(traj_df), key_mode)
    clustered, _, _ = _coarsen(keyed, counts, max(n_partitions, n // n_partitions))
    w = Window.orderBy("cluster", "tid")
    ranked = clustered.withColumn("rn", F.row_number().over(w) - 1)
    if strategy == "heterogeneous":
        pid = F.col("rn") % n_partitions  # round-robin over sorted clusters
    else:
        pid = F.floor(F.col("rn") * n_partitions / F.lit(n))  # contiguous chunks
    return ranked.withColumn("pid", pid.cast("int")).drop("rn", "cluster")
