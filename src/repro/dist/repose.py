"""REPOSE: the paper's system — RP-Trie local indexes + heterogeneous
global partitioning on the distributed framework (paper §III–§V).
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.measures import METRICS, ORDER_INDEPENDENT, get_measure
from repro.core.pivots import select_pivots
from repro.core.rptrie import RPTrie
from repro.core.search import search_topk
from repro.core.succinct import trie_size_bytes
from repro.core.zorder import Grid
from repro.dist.framework import DistributedTopK, LocalPack, sample_trajectories

#: raw trajectory storage cost (2 float64 coords/point) — counted in IS
_POINT_BYTES = 16


class ReposePack(LocalPack):
    """`RpTraj` of §V-C: the partition's trajectories plus its RP-Trie."""

    def __init__(self, pid, trajs, cfg):
        t0 = time.perf_counter()
        self.trajs = dict(trajs)
        self.measure = cfg["measure"]
        self.params = {"eps": cfg.get("eps"), "gap": cfg.get("gap")}
        fn = get_measure(self.measure, **self.params)
        pivots = cfg.get("pivots") or []
        if self.measure not in METRICS:
            pivots = []
        self.trie = RPTrie(
            cfg["grid"],
            fn,
            pivots,
            # Hausdorff/Frechet are invariant to collapsing consecutive
            # duplicate reference points — HR/D_max DPs run on the
            # collapsed form (see rptrie.RPTrie)
            collapse_ref_for_dists=self.measure in ("hausdorff", "frechet"),
            need_dmax=self.measure in METRICS,
        )
        self.trie.build(trajs, mode=cfg["trie_mode"])
        n_points = sum(len(p) for p in self.trajs.values())
        idx_bytes = trie_size_bytes(self.trie) + n_points * _POINT_BYTES
        super().__init__(pid, len(trajs), time.perf_counter() - t0, idx_bytes)
        self.node_count = self.trie.node_count()

    def search(self, qpts, k, ctx):
        return search_topk(
            self.trie, self.trajs, qpts, k, measure=self.measure, **self.params
        )

    def summary(self):
        s = super().summary()
        s["node_count"] = self.node_count
        return s


class Repose(DistributedTopK):
    """User-facing REPOSE index.

    Parameters mirror the paper's: ``delta`` (grid cell side, Table V),
    ``n_pivots`` (N_p, Table VI), ``strategy`` (Table VII),
    ``trie_mode`` (None → "opt" for order-independent metrics per §III-C,
    else "basic"; pass "dedup" to get the unoptimized trie of Fig. 7).
    """

    def __init__(
        self,
        spark: SparkSession,
        traj_df: DataFrame,
        *,
        measure: str = "hausdorff",
        delta: float,
        n_partitions: int = 16,
        strategy: str = "heterogeneous",
        n_pivots: int = 5,
        trie_mode: str | None = None,
        eps: float | None = None,
        gap: tuple[float, float] | None = None,
        pivot_pool: int = 100,
        seed: int = 0,
    ):
        from repro.core.partition import dataset_bounds

        bounds = dataset_bounds(traj_df)
        grid = Grid.from_bounds(*bounds, delta=delta)
        if measure == "erp" and gap is None:
            gap = (
                (bounds[0] + bounds[2]) / 2.0,
                (bounds[1] + bounds[3]) / 2.0,
            )
        fn = get_measure(measure, eps=eps, gap=gap)
        pivots = []
        if measure in METRICS and n_pivots > 0:
            pool = sample_trajectories(traj_df, pivot_pool, seed=seed)
            pivots = select_pivots([p for _, p in pool], n_pivots, fn, seed=seed)
        if trie_mode is None:
            trie_mode = "opt" if measure in ORDER_INDEPENDENT else "basic"
        cfg = {
            "measure": measure,
            "grid": grid,
            "trie_mode": trie_mode,
            "pivots": pivots,
            "eps": eps,
            "gap": gap,
            "bounds": bounds,
        }
        super().__init__(
            spark,
            traj_df,
            lambda pid, trajs, c: ReposePack(pid, trajs, c),
            n_partitions=n_partitions,
            strategy=strategy,
            config=cfg,
        )

    @property
    def total_trie_nodes(self) -> int:
        """Total RP-Trie node count across partitions (Fig. 7 metric)."""
        return sum(s["node_count"] for s in self.summaries)
