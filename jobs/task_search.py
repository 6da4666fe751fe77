"""Per-task local search: REPOSE's RP-Trie against LS's bound-ordered
scan, per measure, in this process.

    python jobs/task_search.py [profile]

For Hausdorff, Frechet and DTW on Xi'an-lite, builds one REPOSE index
with the paper's defaults (δ of §VII-A, N_p = 5, heterogeneous
partitioning), collects its packs and deals them to ``N_TASKS`` tasks by
``pid % N_TASKS``, as the framework places them on as many cores. For
each query and task it times ``ReposePack.search_task`` and, over the
same trajectories, LS's ``LocalPack.search_task`` (every trajectory
refined in the order of the measure's cheap bound), and asserts that
both return the same ids. A row gives the median ms per task search and
the median over queries of the slowest task. No Spark job runs while
timing, so the numbers are the search alone.
"""
from __future__ import annotations

import statistics
import time

import pandas as pd
from _common import build_algo, default_delta, job_main, print_table

from repro import synth_data
from repro.dist.framework import LocalPack

MEASURES = ("hausdorff", "frechet", "dtw")
#: the cores the packs are dealt to
N_TASKS = 4
#: profile → trajectories, queries, k, data seed
SETUP = {
    "lite": {"n": 3000, "n_queries": 8, "k": 10, "seed": 16201},
    "smoke": {"n": None, "n_queries": 2, "k": 5, "seed": 16201},
}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return 1e3 * (time.perf_counter() - t0), out


def run(spark, profile: str = "lite", measures=MEASURES):
    cfg = SETUP[profile]
    k = cfg["k"]
    df = synth_data.trajectories(
        spark, "xian", profile=profile, n=cfg["n"], seed=cfg["seed"]
    ).cache()
    queries = [q for _, q in synth_data.sample_queries(df, cfg["n_queries"] + 1, seed=cfg["seed"])]
    rows = []
    for measure in measures:
        index = build_algo(spark, "REPOSE", df, measure=measure, dataset="xian", profile=profile)
        packs = sorted(index.rdd.collect(), key=lambda p: p.pid)
        tasks = [[p for p in packs if p.pid % N_TASKS == t] for t in range(N_TASKS)]
        tasks = [t for t in tasks if t]
        ls_tasks = [
            [LocalPack(p.pid, list(p.trajs.items()), index.config) for p in task] for task in tasks
        ]
        trie_ms, scan_ms, trie_max, scan_max = [], [], [], []
        for qi, q in enumerate(queries):  # the first query warms up, untimed
            ctx = index.query_ctx(q, k)
            per_trie, per_scan = [], []
            for task, ls_task in zip(tasks, ls_tasks):
                ms_trie, got = _timed(type(task[0]).search_task, task, q, k, ctx)
                ms_scan, exp = _timed(LocalPack.search_task, ls_task, q, k, {})
                assert [t for _, t in got] == [t for _, t in exp], (measure, qi, got, exp)
                per_trie.append(ms_trie)
                per_scan.append(ms_scan)
            if qi:
                trie_ms += per_trie
                scan_ms += per_scan
                trie_max.append(max(per_trie))
                scan_max.append(max(per_scan))
        index.unpersist()
        rows.append({
            "measure": measure,
            "delta": default_delta("xian", measure),
            "trie": index.config["trie_mode"],
            "repose_ms": round(statistics.median(trie_ms), 2),
            "ls_ms": round(statistics.median(scan_ms), 2),
            "repose_slowest_ms": round(statistics.median(trie_max), 2),
            "ls_slowest_ms": round(statistics.median(scan_max), 2),
        })
    df.unpersist()
    return print_table(
        pd.DataFrame(rows),
        f"Per-task search, REPOSE vs LS, Xi'an-lite, {N_TASKS} tasks, k={k} (profile={profile})",
    )


if __name__ == "__main__":
    job_main(run)
