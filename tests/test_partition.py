"""Global partitioning tests (§V-A/B): strategy semantics, balance, the
cluster-spreading property that distinguishes heterogeneous from
homogeneous, the granularity loop, and the cluster keys it counts."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.partition import (
    TRIALS, _keyed, _stable_hash64, assign_partitions, cluster_keys,
    cluster_trajectories, dataset_bounds,
)
from repro.core.zorder import interleave

P = 4
BOUNDS = (0.0, 0.0, 10.0, 10.0)


@pytest.fixture(scope="module")
def grouped_df(spark):
    """4 groups × 8 near-identical trajectories each (distinct clusters)."""
    rows = []
    rng = np.random.default_rng(0)
    tid = 0
    for g in range(4):
        base = np.array([g * 100.0, g * 100.0])
        for _ in range(8):
            pts = base + rng.normal(0, 0.01, (12, 2)).cumsum(0)
            rows.append((tid, pts[:, 0].tolist(), pts[:, 1].tolist()))
            tid += 1
    return spark.createDataFrame(
        rows, "tid long, xs array<double>, ys array<double>"
    ).cache()


def pid_map(df):
    return {r.tid: r.pid for r in df.select("tid", "pid").collect()}


def test_bounds(grouped_df):
    minx, miny, maxx, maxy = dataset_bounds(grouped_df)
    assert minx <= 0.5 and maxx >= 299.0
    assert miny <= 0.5 and maxy >= 299.0


@pytest.mark.parametrize("strategy", ["heterogeneous", "homogeneous", "random"])
def test_every_trajectory_assigned_once(grouped_df, strategy):
    out = assign_partitions(grouped_df, P, strategy)
    pids = pid_map(out)
    assert len(pids) == 32
    assert set(pids.values()) <= set(range(P))


def test_heterogeneous_balance(grouped_df):
    out = assign_partitions(grouped_df, P, "heterogeneous")
    sizes = (
        out.groupBy("pid").count().toPandas().set_index("pid")["count"]
    )
    assert sizes.max() - sizes.min() <= 1  # round-robin balance


def test_homogeneous_balance(grouped_df):
    out = assign_partitions(grouped_df, P, "homogeneous")
    sizes = (
        out.groupBy("pid").count().toPandas().set_index("pid")["count"]
    )
    assert sizes.max() - sizes.min() <= 1  # contiguous equal chunks


def test_heterogeneous_spreads_similar_trajectories(grouped_df):
    """§V-B: each group of near-identical trajectories must be spread
    across *all* partitions (round-robin over sorted clusters)."""
    out = assign_partitions(grouped_df, P, "heterogeneous")
    pids = pid_map(out)
    for g in range(4):
        group_pids = {pids[t] for t in range(g * 8, (g + 1) * 8)}
        assert group_pids == set(range(P)), f"group {g} not spread: {group_pids}"


def test_homogeneous_concentrates_similar_trajectories(grouped_df):
    """§V-A: homogeneous placement keeps each similarity group in one
    partition."""
    out = assign_partitions(grouped_df, P, "homogeneous")
    pids = pid_map(out)
    for g in range(4):
        group_pids = {pids[t] for t in range(g * 8, (g + 1) * 8)}
        assert len(group_pids) == 1, f"group {g} split: {group_pids}"


def test_random_deterministic(grouped_df):
    a = pid_map(assign_partitions(grouped_df, P, "random"))
    b = pid_map(assign_partitions(grouped_df, P, "random"))
    assert a == b


def test_heterogeneous_deterministic(grouped_df):
    a = pid_map(assign_partitions(grouped_df, P, "heterogeneous"))
    b = pid_map(assign_partitions(grouped_df, P, "heterogeneous"))
    assert a == b


def test_unknown_strategy(spark, grouped_df):
    """An unknown strategy is refused before any Spark job runs."""
    tracker = spark.sparkContext.statusTracker()
    jobs = set(tracker.getJobIdsForGroup(None))
    with pytest.raises(ValueError, match="unknown strategy"):
        assign_partitions(grouped_df, P, "bogus")
    assert set(tracker.getJobIdsForGroup(None)) == jobs


def test_cluster_granularity_loop(grouped_df):
    """The coarsening loop must stop at ≤ target clusters (4 spatial
    groups exist, so target 8 is reachable)."""
    clustered, bits, n_clusters = cluster_trajectories(grouped_df, 8)
    assert n_clusters <= 8
    assert 1 <= bits <= 14
    # near-identical trajectories share a cluster key at the chosen bits
    keys = {r.tid: r.cluster for r in clustered.select("tid", "cluster").collect()}
    for g in range(4):
        assert len({keys[t] for t in range(g * 8, (g + 1) * 8)}) == 1


def test_cluster_key_modes(grouped_df):
    """Each row's cluster is its ``cluster_keys`` key at the chosen bits."""
    bounds = dataset_bounds(grouped_df)
    for mode in ("traj", "first", "centroid"):
        clustered, bits, n = cluster_trajectories(grouped_df, 8, key_mode=mode)
        assert n <= 8
        rows = clustered.collect()
        assert len(rows) == 32
        for r in rows:
            assert r.cluster == cluster_keys(r.xs, r.ys, bounds, mode)[TRIALS.index(bits)]


@pytest.mark.parametrize("mode", ["traj", "first", "centroid"])
def test_key_counts_equal_count_distinct(spark, grouped_df, mode):
    """The per-level distinct-key counts of ``_keyed``'s one aggregate are
    ``count_distinct``'s, on data where a duplicated trajectory makes the
    finest level hold fewer keys than rows."""
    import pyspark.sql.functions as F

    rows = [tuple(r) for r in grouped_df.collect()]
    rows += [(tid + 1000, xs, ys) for tid, xs, ys in rows[:10]]
    df = spark.createDataFrame(rows, "tid long, xs array<double>, ys array<double>")
    keyed, n, counts = _keyed(df, dataset_bounds(df), mode)
    want = keyed.select(
        *[F.count_distinct(F.col("_keys")[i]) for i in range(len(TRIALS))]
    ).first()
    assert n == len(rows)
    assert counts == list(want)
    assert counts[0] < n
    keyed.unpersist()


def test_partition_count_one(grouped_df):
    out = assign_partitions(grouped_df, 1, "heterogeneous")
    assert set(pid_map(out).values()) == {0}


# ------------------------------------------------------------- cluster keys

def direct_key(xs, ys, bounds, bits):
    """The cluster key computed at ``bits`` itself: the points' cells at
    that granularity, clipped into the grid, their z-order codes with
    consecutive duplicates removed, hashed."""
    minx, miny, maxx, maxy = bounds
    n = 1 << bits
    ix = np.clip(((np.asarray(xs) - minx) / ((maxx - minx) or 1.0) * n).astype(np.int64), 0, n - 1)
    iy = np.clip(((np.asarray(ys) - miny) / ((maxy - miny) or 1.0) * n).astype(np.int64), 0, n - 1)
    codes = interleave(ix, iy, bits)
    codes = codes[np.concatenate([[True], codes[1:] != codes[:-1]])]
    return _stable_hash64(codes.tobytes())


@pytest.mark.parametrize(
    "bounds",
    [BOUNDS, (-3.0, 2.0, 7.5, 2.0), (4.0, -1.0, 4.0, 6.0), (3.0, 3.0, 3.0, 3.0)],
    ids=["square", "zero_height", "zero_width", "point"],
)
def test_keys_are_shifts_of_the_finest(bounds):
    """Prefix property: the key at every granularity, derived by shifting
    the finest codes, equals the key computed at that granularity, for
    points inside and outside the bounds and for every key mode."""
    rng = np.random.default_rng(1)
    minx, miny, maxx, maxy = bounds
    for _ in range(40):
        n = int(rng.integers(1, 30))
        xs = rng.uniform(minx - 3, maxx + 3, n)
        ys = rng.uniform(miny - 3, maxy + 3, n)
        points = {
            "traj": (xs, ys),
            "first": (xs[:1], ys[:1]),
            "centroid": ([xs.mean()], [ys.mean()]),
        }
        for mode, (px, py) in points.items():
            got = cluster_keys(xs, ys, bounds, mode)
            assert got == [direct_key(px, py, bounds, bits) for bits in TRIALS]


def test_keys_deterministic_and_ranged():
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(0, 10, 100), rng.uniform(0, 10, 100)
    keys = cluster_keys(xs, ys, BOUNDS)
    assert keys == cluster_keys(xs.copy(), ys.copy(), BOUNDS)
    assert len(keys) == len(TRIALS)
    assert all(0 <= k < 2**63 for k in keys)


def test_keys_clip_points_outside_the_bounds():
    """A point outside the bounds falls into the nearest edge cell."""
    xs, ys = np.array([-99.0, 5.0, 99.0]), np.array([5.0, 120.0, -3.0])
    assert cluster_keys(xs, ys, BOUNDS) == cluster_keys(
        np.clip(xs, 0, 10), np.clip(ys, 0, 10), BOUNDS
    )


def test_keys_near_points_share_cells_far_points_do_not():
    """5.0 and 5.001 share a cell up to 12 bits per axis (cell side
    10/4096), not at 14; 1.0 and 9.0 differ at every granularity."""
    a, b = cluster_keys([5.0], [5.0], BOUNDS), cluster_keys([5.001], [5.001], BOUNDS)
    assert TRIALS[0] == 14
    assert a[0] != b[0] and a[1:] == b[1:]
    far = cluster_keys([1.0], [1.0], BOUNDS), cluster_keys([9.0], [9.0], BOUNDS)
    assert all(x != y for x, y in zip(*far))


def test_keys_degenerate_bounds():
    """Zero-size bounds, as data of one repeated point has: the points
    share one cell, so a trajectory's keys are a single point's."""
    point = (3.0, 3.0, 3.0, 3.0)
    keys = cluster_keys([3.0, 3.0, 3.0], [3.0, 3.0, 3.0], point)
    assert len(keys) == len(TRIALS)
    assert keys == cluster_keys([3.0], [3.0], point)
