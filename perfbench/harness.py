"""Untraced end-to-end measurement of one workload.

One local SparkSession per process; the workload's data and queries come
from the seed; the index is built through ``Repose(...)`` and queried one
at a time by a single client in a closed loop through ``Repose.query``.
Every answer is compared with the brute-force oracle outside the timed
region.
"""
from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import oracle
from perfbench.workloads import (
    K,
    N_PARTITIONS,
    N_PIVOTS,
    QUERY_POOL,
    SETUPS,
    STRATEGY,
    TAIL_PCT,
    Workload,
)

DRIVER_MEMORY = "2g"

E2E_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "index_mb": "MB",
    "rdd_cache_mb": "MB",
    "exact_frac": "fraction",
}


def start_spark(scratch: Path):
    """Local SparkSession on every core, quiet and with scratch space
    kept under ``scratch``."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{os.cpu_count()}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={scratch} -XX:-UsePerfData")
        .config("spark.sql.warehouse.dir", str(scratch / "warehouse"))
        .config("spark.sql.shuffle.partitions", str(N_PARTITIONS))
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    sc = spark.sparkContext
    proc = getattr(sc._gateway, "proc", None)
    spark.stop()
    sc._gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def provenance(spark, root: Path) -> dict:
    """Where and on what the numbers were taken."""
    import pyspark

    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the benchmark may run from an export, not a clone
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    conf = spark.sparkContext.getConf()
    return {
        "nproc": os.cpu_count(),
        "spark_master": spark.sparkContext.master,
        "driver_memory": conf.get("spark.driver.memory"),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


@dataclass
class Inputs:
    """A workload's generated data and queries."""

    workload: Workload
    df: object          # cached Spark DataFrame (tid, xs, ys)
    data: oracle.Dataset
    warmup: np.ndarray  # the untimed first query of each set-up
    pool: list          # timed queries, issued in order, cycling
    delta: float
    gen_s: float


def make_inputs(spark, w: Workload, seed: int, profile: str) -> Inputs:
    from repro import synth_data

    t0 = time.perf_counter()
    n = w.n_lite if profile == "lite" else None
    df = synth_data.trajectories(spark, w.dataset, profile=profile, n=n, seed=seed)
    df = df.cache()
    pdf = df.toPandas()
    trajs = [np.column_stack([np.asarray(x), np.asarray(y)]) for x, y in zip(pdf["xs"], pdf["ys"])]
    data = oracle.Dataset(pdf["tid"].to_numpy(), trajs)
    queries = [q for _, q in synth_data.sample_queries(pdf, QUERY_POOL + 1, seed=seed)]
    return Inputs(
        workload=w,
        df=df,
        data=data,
        warmup=queries[0],
        pool=queries[1:],
        delta=synth_data.DEFAULT_DELTA[w.dataset][w.measure],
        gen_s=time.perf_counter() - t0,
    )


def build_index(spark, inp: Inputs):
    from repro.dist.repose import Repose

    return Repose(
        spark,
        inp.df,
        measure=inp.workload.measure,
        delta=inp.delta,
        n_partitions=N_PARTITIONS,
        strategy=STRATEGY,
        n_pivots=N_PIVOTS,
        trie_mode=inp.workload.trie_mode,
    )


@dataclass
class Answers:
    """Every query issued, keyed for the oracle check."""

    got: list = field(default_factory=list)  # (query key, answer or exception)

    def record(self, key, fn) -> None:
        try:
            ans = fn()
        except Exception as exc:  # a raising query is a failed query
            traceback.print_exc()
            ans = exc
        self.got.append((key, ans))


def setup(spark, inp: Inputs, answers: Answers):
    """``Repose(...)`` through its first, untimed warm-up query."""
    t0 = time.perf_counter()
    index = build_index(spark, inp)
    answers.record("warmup", lambda: index.query(inp.warmup, K))
    return index, time.perf_counter() - t0


def closed_loop(index, inp: Inputs, seconds: float, answers: Answers, tracer=None, first=0):
    """Issue pool queries one at a time, from pool position ``first``,
    until ``seconds`` have passed.

    Returns per-query wall seconds. With a ``tracer``, each query is a
    ``framework.query`` span that also keeps the per-partition local
    search seconds ``Repose.query`` reported.
    """
    lat = []
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        qi = i % len(inp.pool)
        with tracer.span("framework.query", qid=qi) if tracer else nullcontext() as span:
            t0 = time.perf_counter()
            answers.record(qi, lambda: index.query(inp.pool[qi], K))
            lat.append(time.perf_counter() - t0)
        if span is not None:
            span["local_times"] = list(index.last_local_times)
        i += 1
        if time.perf_counter() >= deadline:
            return lat


def check_answers(spark, inp: Inputs, answers: Answers) -> list[str]:
    """Compare every recorded answer with the oracle; return failures.

    The oracle runs as a Spark job with one task per core; it shares no
    code with the program under test.
    """
    keys = sorted({k for k, _ in answers.got}, key=str)
    queries = {k: inp.warmup if k == "warmup" else inp.pool[k] for k in keys}
    sc = spark.sparkContext
    data = sc.broadcast(inp.data)
    measure = inp.workload.measure
    expected = dict(zip(
        keys,
        sc.parallelize([queries[k] for k in keys], min(len(keys), os.cpu_count()))
        .map(lambda q: oracle.expected_topk(data.value, q, K, measure))
        .collect(),
    ))
    data.unpersist(blocking=True)
    failures = []
    for key, got in answers.got:
        if isinstance(got, Exception):
            failures.append(f"query {key}: raised {got!r}")
            continue
        why = oracle.check(got, expected[key])
        if why is not None:
            failures.append(f"query {key}: {why}")
    return failures


def rdd_cache_mb(spark, rdd) -> float:
    """Memory Spark reports for a cached RDD, in MB."""
    for info in spark.sparkContext._jsc.sc().getRDDStorageInfo():
        if info.id() == rdd.id():
            return (info.memSize() + info.diskSize()) / 1e6
    raise RuntimeError(f"RDD {rdd.id()} is not cached")


def latency_metrics(lat: list[float]) -> dict:
    return {
        "query_p50_ms": 1e3 * statistics.median(lat),
        "query_tail_ms": 1e3 * float(np.percentile(lat, TAIL_PCT)),
    }


def end_to_end(spark, inp: Inputs, index, setups, lat, answers: Answers):
    """The end-to-end metrics of a run, and its failed queries; checks
    every answer and releases the index."""
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(latency_metrics(lat))
    metrics["index_mb"] = index.index_bytes / 1e6
    metrics["rdd_cache_mb"] = rdd_cache_mb(spark, index.rdd)
    failures = check_answers(spark, inp, answers)
    index.unpersist()
    metrics["exact_frac"] = 1.0 - len(failures) / len(answers.got)
    return metrics, failures


def measure(spark, inp: Inputs, seconds: float) -> dict:
    """The untraced run: ``SETUPS`` rounds of set-up followed by an
    equal share of the query time, then the check.

    Spreading the timed queries over the whole run, rather than one
    window after the last set-up, makes their median less sensitive to
    how busy the machine happens to be for a few seconds.
    """
    answers = Answers()
    setups = []
    lat = []
    index = None
    for _ in range(SETUPS):
        if index is not None:
            index.unpersist()
        index, secs = setup(spark, inp, answers)
        setups.append(secs)
        lat += closed_loop(index, inp, seconds / SETUPS, answers, first=len(lat))
    t0 = time.perf_counter()
    metrics, failures = end_to_end(spark, inp, index, setups, lat, answers)
    check_s = time.perf_counter() - t0
    return {
        "metrics": metrics,
        "attempted": len(answers.got),
        "failures": failures,
        "detail": {
            "setups_s": setups,
            "check_s": check_s,
            "timed_queries": len(lat),
            "distinct_queries": len({k for k, _ in answers.got if k != "warmup"}),
            "tail_pct": TAIL_PCT,
            "latencies_ms": [1e3 * x for x in lat],
        },
    }
