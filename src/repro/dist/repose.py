"""REPOSE: the paper's system — RP-Trie local indexes + heterogeneous
global partitioning on the distributed framework (paper §III–§V).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.measures import END_BOUNDED, METRICS, ORDER_INDEPENDENT
from repro.core.pivots import query_pivot_dists, select_pivots
from repro.core.rptrie import RPTrie
from repro.core.search import search_tries
from repro.core.succinct import trie_size_bytes
from repro.core.zorder import Grid
from repro.dist.framework import DistributedTopK, LocalPack, sample_trajectories


class ReposePack(LocalPack):
    """`RpTraj` of §V-C: the partition's trajectories plus its RP-Trie."""

    def build(self, cfg):
        pivots = cfg.get("pivots") or []
        if self.measure not in METRICS:
            pivots = []
        self.trie = RPTrie(
            cfg["grid"],
            self.fn,
            pivots,
            # Hausdorff/Frechet are invariant to collapsing consecutive
            # duplicate reference points — HR/D_max DPs run on the
            # collapsed form (see rptrie.RPTrie)
            collapse_ref_for_dists=self.measure in ("hausdorff", "frechet"),
            need_dmax=self.measure in METRICS,
        )
        self.trie.build(
            list(self.trajs.items()), mode=cfg["trie_mode"], ends=self.measure in END_BOUNDED
        )
        self.node_count = self.trie.node_count()
        return trie_size_bytes(self.trie) + self.raw_bytes()

    @classmethod
    def search_task(cls, packs, qpts, k, ctx):
        """All of a task's packs as one best-first search (``search_tries``):
        one heap, one threshold and one set of cell columns."""
        first = packs[0]
        return search_tries(
            [(p.trie, p.trajs) for p in packs], qpts, k, measure=first.measure,
            dqp=ctx.get("dqp"), **first.params,
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
        self.delta = delta
        self.n_pivots = n_pivots if measure in METRICS else 0
        self.pivot_pool = pivot_pool
        self.seed = seed
        if trie_mode is None:
            trie_mode = "opt" if measure in ORDER_INDEPENDENT else "basic"
        super().__init__(
            spark,
            traj_df,
            ReposePack,
            measure=measure,
            eps=eps,
            gap=gap,
            n_partitions=n_partitions,
            strategy=strategy,
            config={"trie_mode": trie_mode},
        )

    def global_config(self, traj_df):
        """The grid over the data's bounds and the global pivots (§IV-D),
        selected from a driver sample of ``pivot_pool`` trajectories."""
        self.pivots = []
        if self.n_pivots > 0:
            pool = sample_trajectories(traj_df, self.pivot_pool, seed=self.seed, count=self.n_trajs)
            self.pivots = select_pivots([p for _, p in pool], self.n_pivots, self.fn, seed=self.seed)
        grid = Grid.from_bounds(*self.config["bounds"], delta=self.delta)
        return {"grid": grid, "pivots": self.pivots}

    def query_ctx(self, qpts, k):
        """The query-to-pivot distances d_qp (§IV-D), computed once here
        for every pack."""
        return {"dqp": query_pivot_dists(qpts, self.pivots, self.fn)} if self.pivots else {}

    @property
    def total_trie_nodes(self) -> int:
        """Total RP-Trie node count across partitions (Fig. 7 metric)."""
        return sum(s["node_count"] for s in self.summaries)
