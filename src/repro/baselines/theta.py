"""Sampled pruning threshold θ, shared by the DFT and DITA baselines.

Before a top-k query both estimate θ on the driver: the k-th smallest
exact distance among ``C·k`` trajectories drawn from a uniform sample
kept on the driver (the DFT threshold estimator; DITA's iterative
halving is simplified to the same estimate, DESIGN.md §3). Every pack
then prunes against θ, which is never below the true k-th distance.
"""
from __future__ import annotations

import numpy as np

from repro.core.measures import get_measure
from repro.dist.framework import DistributedTopK, sample_trajectories

_C = 5  # partition pruning parameter C (paper §VII-A: C = 5)


class ThetaTopK(DistributedTopK):
    """``DistributedTopK`` whose packs search with ``ctx["theta"]``.

    ``config`` gets ``measure``, ``eps`` and ``gap`` for the packs;
    ``query_ctx`` lets a subclass add its own pruning to what every pack
    receives.
    """

    def __init__(
        self,
        spark,
        traj_df,
        build_fn,
        *,
        measure: str,
        eps: float | None,
        gap: tuple[float, float] | None,
        sample_pool: int,
        seed: int,
        config: dict,
        **kwargs,
    ):
        self.fn = get_measure(measure, eps=eps, gap=gap)
        config = {**config, "measure": measure, "eps": eps, "gap": gap}
        super().__init__(spark, traj_df, build_fn, config=config, **kwargs)
        # threshold-estimation pool, sampled after the build so IT excludes it
        self.pool = sample_trajectories(traj_df, sample_pool, seed=seed)

    def estimate_theta(self, qpts: np.ndarray, k: int, seed: int = 0) -> float:
        """k-th smallest exact distance among C·k randomly drawn
        trajectories (the DFT threshold estimator)."""
        rng = np.random.default_rng(seed)
        n = min(len(self.pool), _C * k)
        idx = rng.choice(len(self.pool), size=n, replace=False)
        dists = sorted(self.fn(qpts, self.pool[i][1]) for i in idx)
        return float(dists[min(k, n) - 1]) * (1.0 + 1e-9) + 1e-12  # strict-< guard

    def query_ctx(self, qpts: np.ndarray, k: int, seed: int = 0) -> dict:
        return {"theta": self.estimate_theta(qpts, k, seed=seed)}
