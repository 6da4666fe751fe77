"""Synthetic trajectory datasets for the REPOSE reproduction (paper
Table III).

The paper evaluates on 7 real datasets we cannot redistribute; these
generators preserve what the algorithms are sensitive to — the spatial
span (so the paper's δ values stay meaningful), hotspot-clustered
structure (so geohash clustering finds real clusters), and trajectory
length distributions — at laptop-scale cardinality (DESIGN.md §3/§4).
Trajectories are momentum random walks seeded near hotspots. Generators
are deterministic in ``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


#: paper Table III statistics: span (W°, H°), origin, hotspot count, plus
#: the scaled-down `lite` (benchmarks) and `smoke` (tests) profiles.
TRAJ_DATASETS = {
    #  name      span (W,H)      origin          hot  lite(N,len) smoke(N,len)
    "tdrive": ((1.89, 1.17), (116.0, 39.5), 40, (3000, 22), (240, 14)),
    "sf": ((0.54, 0.76), (-122.5, 37.3), 30, (3000, 27), (240, 16)),
    "rome": ((1.21, 0.86), (12.3, 41.8), 30, (1000, 100), (150, 30)),
    "porto": ((11.7, 14.2), (-8.7, 41.0), 60, (6000, 40), (240, 18)),
    "xian": ((0.09, 0.08), (108.9, 34.2), 25, (8000, 60), (280, 24)),
    "chengdu": ((0.09, 0.07), (104.0, 30.6), 25, (10000, 55), (280, 22)),
    "osm": ((360.0, 180.0), (-180.0, -90.0), 200, (5000, 80), (240, 24)),
}

#: default grid cell side δ per dataset, per measure family — copied from
#: the paper's §VII-A parameter settings (spans match, so δ carries over).
DEFAULT_DELTA = {
    "tdrive": {"hausdorff": 0.15, "frechet": 0.15, "dtw": 0.15},
    "sf": {"hausdorff": 0.05, "frechet": 0.05, "dtw": 0.05},
    "rome": {"hausdorff": 0.05, "frechet": 0.05, "dtw": 0.05},
    "porto": {"hausdorff": 0.05, "frechet": 0.05, "dtw": 0.05},
    "xian": {"hausdorff": 0.01, "frechet": 0.03, "dtw": 0.03},
    "chengdu": {"hausdorff": 0.01, "frechet": 0.02, "dtw": 0.02},
    "osm": {"hausdorff": 1.0, "frechet": 1.0, "dtw": 1.0},
}


def _traj_pdf(
    name: str,
    n: int,
    avg_len: float,
    seed: int,
) -> pd.DataFrame:
    """One row per trajectory: (tid, xs, ys). Deterministic in ``seed``."""
    (w, h), (ox, oy), n_hot, _, _ = TRAJ_DATASETS[name]
    g = _rng(seed)
    hot = np.column_stack([ox + g.random(n_hot) * w, oy + g.random(n_hot) * h])
    # length ~ lognormal around avg_len, clipped to the paper's
    # preprocessing window [10, 1000]
    lens = np.clip(
        g.lognormal(np.log(max(avg_len, 11.0)), 0.45, n).astype(int), 10, 1000
    )
    total = int(lens.sum())
    starts = np.repeat(np.arange(n), lens)
    # start points: hotspot + gaussian scatter
    hi = g.integers(0, n_hot, n)
    sx = hot[hi, 0] + g.normal(0, w / 40, n)
    sy = hot[hi, 1] + g.normal(0, h / 40, n)
    # momentum random walk: per-point heading = cumsum of turn noise,
    # reset per trajectory via segmented cumsum
    step = min(w, h) / 250.0
    turns = g.normal(0, 0.35, total)
    head0 = g.random(n) * 2 * np.pi
    cum = np.cumsum(turns)
    seg_base = np.concatenate([[0.0], cum[np.cumsum(lens)[:-1] - 1]])
    heading = cum - seg_base[starts] + head0[starts]
    slen = np.abs(g.normal(step, step / 2, total))
    dx = np.cos(heading) * slen
    dy = np.sin(heading) * slen
    # segmented cumsum of displacements, anchored at start points
    cx = np.cumsum(dx)
    cy = np.cumsum(dy)
    offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
    px = sx[starts] + cx - cx[offs][starts] + dx[offs][starts] * 0  # anchor
    py = sy[starts] + cy - cy[offs][starts]
    px = np.clip(px, ox, ox + w)
    py = np.clip(py, oy, oy + h)
    ends = np.cumsum(lens)
    return pd.DataFrame(
        {
            "tid": np.arange(n, dtype=np.int64),
            "xs": [px[a:b] for a, b in zip(offs, ends)],
            "ys": [py[a:b] for a, b in zip(offs, ends)],
        }
    )


def trajectories(
    spark: SparkSession,
    name: str,
    *,
    profile: str = "smoke",
    n: int | None = None,
    avg_len: float | None = None,
    seed: int = 0,
) -> DataFrame:
    """Trajectory DataFrame ``(tid: long, xs: array, ys: array)``.

    ``profile`` picks the scaled cardinality/length ("lite" for
    benchmarks, "smoke" for tests); ``n`` / ``avg_len`` override.
    """
    _, _, _, lite, smoke = TRAJ_DATASETS[name]
    base = lite if profile == "lite" else smoke
    n = n or base[0]
    avg_len = avg_len or base[1]
    pdf = _traj_pdf(name, n, avg_len, seed)
    # note: bracket access — pandas has a DataFrame.xs *method*
    pdf = pdf.assign(
        xs=[x.tolist() for x in pdf["xs"]], ys=[y.tolist() for y in pdf["ys"]]
    )
    return spark.createDataFrame(
        pdf, schema="tid long, xs array<double>, ys array<double>"
    )


def preprocess_trajectories(df: DataFrame) -> DataFrame:
    """Paper §VII-A preprocessing: drop trajectories shorter than 10
    points; split trajectories longer than 1000 into multiple pieces.

    Pure Spark SQL: split positions are derived with a sequence expression
    and exploded; split pieces get fresh ids ``tid * 1000 + piece``.
    """
    import pyspark.sql.functions as F

    df = df.where(F.size("xs") >= 10)
    pieces = df.select(
        "tid",
        F.explode(
            F.sequence(
                F.lit(0), ((F.size("xs") - 1) / 1000).cast("int")
            )
        ).alias("piece"),
        "xs",
        "ys",
    )
    return pieces.select(
        (F.col("tid") * 1000 + F.col("piece")).alias("tid"),
        F.slice("xs", F.col("piece") * 1000 + 1, F.lit(1000)).alias("xs"),
        F.slice("ys", F.col("piece") * 1000 + 1, F.lit(1000)).alias("ys"),
    ).where(F.size("xs") >= 10)


def sample_queries(pdf_or_df, n_queries: int, seed: int = 7) -> list:
    """Paper §VII-A: uniformly random query trajectories from the dataset.

    Accepts a Spark or pandas trajectory frame; returns [(tid, (n,2) pts)].
    """
    if isinstance(pdf_or_df, DataFrame):
        pdf = pdf_or_df.toPandas()
    else:
        pdf = pdf_or_df
    g = _rng(seed)
    idx = g.choice(len(pdf), size=min(n_queries, len(pdf)), replace=False)
    out = []
    for i in idx:
        row = pdf.iloc[i]
        out.append(
            (
                int(row["tid"]),
                np.column_stack([np.asarray(row["xs"]), np.asarray(row["ys"])]),
            )
        )
    return out


def trajectories_points_pdf(traj_df: DataFrame) -> pd.DataFrame:
    """Long-format points table (tid, seq, x, y) for the DuckDB oracle."""
    pdf = traj_df.toPandas()
    rows = []
    for _, r in pdf.iterrows():
        xs = np.asarray(r["xs"])
        ys = np.asarray(r["ys"])
        rows.append(
            pd.DataFrame(
                {"tid": r["tid"], "seq": np.arange(len(xs)), "x": xs, "y": ys}
            )
        )
    return pd.concat(rows, ignore_index=True)
