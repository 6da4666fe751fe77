"""Sampled pruning threshold θ, shared by the DFT and DITA baselines.

Before a top-k query both estimate θ on the driver: the k-th smallest
exact distance among ``C·k`` trajectories drawn from a uniform sample
kept on the driver, with the framework's kernel ``fn`` (the DFT
threshold estimator; DITA's iterative halving is simplified to the same
estimate, DESIGN.md §3). A sample of fewer than k trajectories has no
k-th distance, so θ is then ∞ and nothing is pruned. Every pack then
prunes against θ, which is never below the true k-th distance.
"""
from __future__ import annotations

import math

import numpy as np

from repro.dist.framework import DistributedTopK, sample_trajectories

_C = 5  # partition pruning parameter C (paper §VII-A: C = 5)


class ThetaTopK(DistributedTopK):
    """``DistributedTopK`` whose packs search with ``ctx["theta"]``.

    ``query_ctx`` lets a subclass add its own pruning to what every pack
    receives.
    """

    def __init__(self, spark, traj_df, build_fn, *, sample_pool: int, seed: int, **kwargs):
        super().__init__(spark, traj_df, build_fn, **kwargs)
        # threshold-estimation pool, sampled after the build so IT excludes it
        self.pool = sample_trajectories(traj_df, sample_pool, seed=seed, count=self.n_trajs)

    def estimate_theta(self, qpts: np.ndarray, k: int, seed: int = 0) -> float:
        """k-th smallest exact distance among C·k randomly drawn
        trajectories (the DFT threshold estimator), or ∞ when fewer than
        k are drawn."""
        rng = np.random.default_rng(seed)
        n = min(len(self.pool), _C * k)
        if n < k:
            return math.inf
        idx = rng.choice(len(self.pool), size=n, replace=False)
        dists = sorted(self.fn(qpts, self.pool[i][1]) for i in idx)
        return float(dists[k - 1]) * (1.0 + 1e-9) + 1e-12  # strict-< guard

    def query_ctx(self, qpts: np.ndarray, k: int, seed: int = 0) -> dict:
        return {"theta": self.estimate_theta(qpts, k, seed=seed)}
