"""Shared harness for the table-reproduction jobs.

Each ``jobs/tableN_*.py`` exposes ``run(spark, profile=...) -> pandas
DataFrame`` printing the same rows the paper reports, and is
spark-submit-able (``python jobs/tableN_*.py [profile]`` creates its own
session). ``profile`` is "lite" (bench scale, EXPERIMENTS.md numbers) or
"smoke" (tiny, used by the job smoke tests).
"""
from __future__ import annotations

import sys
import time

import numpy as np
import pandas as pd

from repro import synth_data
from repro.baselines.dft import Dft
from repro.baselines.dita import Dita
from repro.baselines.ls import Ls
from repro.dist.repose import Repose

ALGOS = {"REPOSE": Repose, "DITA": Dita, "DFT": Dft, "LS": Ls}

#: datasets reported in the paper's per-table experiments (V–IX)
FOCUS_DATASETS = ("tdrive", "xian", "osm")
ALL_DATASETS = tuple(synth_data.TRAJ_DATASETS)

#: profile → (n_queries, k, n_partitions)
PROFILE = {
    "lite": {"n_queries": 3, "k": 10, "n_partitions": 16},
    "smoke": {"n_queries": 2, "k": 5, "n_partitions": 4},
}


def default_delta(dataset: str, measure: str) -> float:
    """Paper §VII-A δ defaults; non-evaluated measures reuse the DTW δ."""
    table = synth_data.DEFAULT_DELTA[dataset]
    return table.get(measure, table["dtw"])


def load_dataset(spark, name: str, profile: str):
    """Cached trajectory DataFrame + driver-side query set."""
    df = synth_data.trajectories(spark, name, profile=profile).cache()
    df.count()
    queries = synth_data.sample_queries(
        df, PROFILE[profile]["n_queries"]
    )
    return df, queries


def build_algo(spark, algo: str, df, *, measure: str, dataset: str, profile: str,
               strategy: str | None = None, **kw):
    """Construct one algorithm instance with per-paper default params."""
    cls = ALGOS[algo]
    kwargs = dict(measure=measure, n_partitions=PROFILE[profile]["n_partitions"])
    if algo == "REPOSE":
        kwargs["delta"] = kw.pop("delta", None) or default_delta(dataset, measure)
        kwargs["n_pivots"] = kw.pop("n_pivots", 5)
    if strategy is not None:
        kwargs["strategy"] = strategy
    kwargs.update(kw)
    return cls(spark, df, **kwargs)


def timed_queries(algo_obj, queries, k: int) -> dict:
    """Query-time stats over the query set.

    Returns ``{"wall": mean wall-clock seconds, "local": mean
    slowest-task local search seconds}``. The local number excludes the
    fixed local-mode Spark job floor (about 0.05–0.2 s on 4 vCPUs) — on a
    real cluster the slowest task *is* the stage latency, so it is the
    floor-free view of the sweeps. One untimed warmup query first: the
    very first query on a fresh cached RDD pays JVM/python-worker startup
    that the paper's 20-run averages also exclude.
    """
    algo_obj.query(queries[0][1], k)
    wall, local = [], []
    for _, q in queries:
        algo_obj.query(q, k)
        wall.append(algo_obj.last_query_time)
        local.append(algo_obj.last_local_max)
    return {"wall": float(np.mean(wall)), "local": float(np.mean(local))}


def sweep(spark, profile: str, title: str, datasets, cells, columns=lambda obj: {}):
    """One table: for each dataset, ``load_dataset``; for each cell
    ``(keys, algo, kw)`` of ``cells(dataset)``, ``build_algo(algo,
    measure=keys["measure"], **kw)``, ``timed_queries``, a row of the
    dataset, ``keys``, QT and ``columns(index)``, then ``unpersist``.
    An ``algo`` of None is a "/" cell: a row of ``keys`` alone.
    """
    k = PROFILE[profile]["k"]
    rows = []
    for ds in datasets:
        df, queries = load_dataset(spark, ds, profile)
        for keys, algo, kw in cells(ds):
            row = dict(dataset=ds, **keys, qt_s=None, qt_local_s=None)
            if algo is not None:
                obj = build_algo(
                    spark, algo, df, measure=keys["measure"], dataset=ds, profile=profile, **kw
                )
                qt = timed_queries(obj, queries, k)
                row.update(qt_s=round(qt["wall"], 3), qt_local_s=round(qt["local"], 3))
                row.update(columns(obj))
                obj.unpersist()
            rows.append(row)
        df.unpersist()
    return print_table(pd.DataFrame(rows), f"{title} (profile={profile})")


def print_table(df: pd.DataFrame, title: str) -> pd.DataFrame:
    print(f"\n=== {title} ===")
    print(df.to_string(index=False))
    return df


def job_main(run_fn):
    """Entry point for spark-submit / direct execution."""
    profile = sys.argv[1] if len(sys.argv) > 1 else "lite"
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("repose-job")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    t0 = time.time()
    run_fn(spark, profile=profile)
    print(f"\n[job] total {time.time() - t0:.1f}s")
    spark.stop()
