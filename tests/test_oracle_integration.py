"""DuckDB-oracle checks of query results (implementation-independent).

Hausdorff is expressed *entirely in SQL* (cross join + per-row/column
minima + max), so for Hausdorff top-k the oracle recomputes every
distance from the raw points table and `assert_equivalent` diffs the
result sets. For Frechet/DTW (recursive DP, not expressible in portable
SQL) an independent pure-Python reference computes the distance table
and DuckDB performs the top-k selection over it — checking the
ranking/merge logic of the distributed pipeline.

Each check runs for every system that supports the measure: REPOSE, LS
and DFT for Hausdorff, the four for Frechet (DITA has no Hausdorff), and
REPOSE for DTW.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.baselines.dft import Dft
from repro.baselines.dita import Dita
from repro.baselines.ls import Ls
from repro.core.measures_ref import dtw_ref, frechet_ref
from repro.dist.repose import Repose
from repro.oracle import assert_equivalent

K = 8
#: the systems each DP measure's check runs
DP_SYSTEMS = {"frechet": ("repose", "ls", "dft", "dita"), "dtw": ("repose",)}


def build(spark, df, system, measure):
    if system == "repose":
        return Repose(spark, df, measure=measure, delta=0.15, n_partitions=4)
    return {"ls": Ls, "dft": Dft, "dita": Dita}[system](
        spark, df, measure=measure, n_partitions=4
    )

HAUSDORFF_TOPK_SQL = """
WITH d AS (
    SELECT p.tid AS tid, p.seq AS ps, q.seq AS qs,
           sqrt((p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y)) AS dist
    FROM pts p CROSS JOIN qpts q
),
per_q AS (SELECT tid, qs, min(dist) AS md FROM d GROUP BY tid, qs),
per_p AS (SELECT tid, ps, min(dist) AS md FROM d GROUP BY tid, ps),
dir1 AS (SELECT tid, max(md) AS v FROM per_q GROUP BY tid),
dir2 AS (SELECT tid, max(md) AS v FROM per_p GROUP BY tid)
SELECT dir1.tid AS tid, greatest(dir1.v, dir2.v) AS dist
FROM dir1 JOIN dir2 ON dir1.tid = dir2.tid
ORDER BY dist, tid
LIMIT {k}
"""


@pytest.fixture(scope="module")
def points_pdf(tdrive_smoke):
    return synth_data.trajectories_points_pdf(tdrive_smoke)


@pytest.fixture(scope="module")
def hausdorff_indexes(spark, tdrive_smoke):
    indexes = {s: build(spark, tdrive_smoke, s, "hausdorff") for s in ("repose", "ls", "dft")}
    yield indexes
    for index in indexes.values():
        index.unpersist()


@pytest.mark.parametrize("qi", [0, 1, 2])
def test_hausdorff_topk_vs_duckdb(spark, hausdorff_indexes, points_pdf, tdrive_queries, qi):
    """Full result check: DuckDB recomputes Hausdorff from raw points."""
    _, q = tdrive_queries[qi]
    qpdf = pd.DataFrame(
        {"seq": np.arange(len(q)), "x": q[:, 0], "y": q[:, 1]}
    )
    for index in hausdorff_indexes.values():
        got = index.query(q, K)
        got_df = spark.createDataFrame(
            [(int(t), float(d)) for d, t in got], "tid long, dist double"
        )
        assert_equivalent(
            got_df, HAUSDORFF_TOPK_SQL.format(k=K), pts=points_pdf, qpts=qpdf
        )


@pytest.mark.parametrize("measure,ref", [("frechet", frechet_ref), ("dtw", dtw_ref)])
def test_dp_measures_topk_vs_duckdb(
    spark, tdrive_smoke, tdrive_trajs, tdrive_queries, measure, ref
):
    """Reference DP computes distances; DuckDB ranks and truncates."""
    _, q = tdrive_queries[0]
    dists = pd.DataFrame(
        {
            "tid": [t for t, _ in tdrive_trajs],
            "dist": [ref(q, pts) for t, pts in tdrive_trajs],
        }
    )
    for system in DP_SYSTEMS[measure]:
        index = build(spark, tdrive_smoke, system, measure)
        got = index.query(q, K)
        index.unpersist()
        got_df = spark.createDataFrame(
            [(int(t), float(d)) for d, t in got], "tid long, dist double"
        )
        assert_equivalent(
            got_df,
            f"SELECT tid, dist FROM dists ORDER BY dist, tid LIMIT {K}",
            dists=dists,
        )


def test_oracle_rejects_wrong_result(spark, points_pdf, tdrive_queries):
    """Sanity: the oracle actually fails on a corrupted result set."""
    _, q = tdrive_queries[0]
    bogus = spark.createDataFrame(
        [(int(1e6 + i), float(i)) for i in range(K)], "tid long, dist double"
    )
    qpdf = pd.DataFrame({"seq": np.arange(len(q)), "x": q[:, 0], "y": q[:, 1]})
    with pytest.raises(AssertionError):
        assert_equivalent(
            bogus, HAUSDORFF_TOPK_SQL.format(k=K), pts=points_pdf, qpts=qpdf
        )


def test_oracle_trajectory_smoke(spark, tdrive_smoke, points_pdf):
    """Oracle wire-up with a Spark table input: per-trajectory point
    counts from the trajectory DataFrame match DuckDB's count over the
    long-format points table."""
    got = tdrive_smoke.select("tid", F.size("xs").alias("n"))
    assert_equivalent(
        got,
        "SELECT tid, count(*) AS n FROM pts GROUP BY tid",
        pts=spark.createDataFrame(points_pdf),
    )
