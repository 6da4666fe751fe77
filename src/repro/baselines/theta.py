"""Sampled pruning threshold θ, shared by the DFT and DITA baselines.

Before a top-k query both estimate θ on the driver: the k-th smallest
exact distance among the first ``C·k`` trajectories of a pool kept on
the driver, a seeded uniform sample in random order, with the
framework's kernel ``fn`` (the DFT threshold estimator; DITA's iterative
halving is simplified to the same estimate, DESIGN.md §3). A pool of
fewer than k trajectories has no k-th distance, so θ is then ∞ and
nothing is pruned. θ is never below the true k-th distance: every pack
prunes against it, and every task's scan is seeded with ``(θ, ∞)``.
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

    def estimate_theta(self, qpts: np.ndarray, k: int) -> float:
        """k-th smallest exact distance among the pool's first C·k
        trajectories (the DFT threshold estimator), or ∞ when the pool
        has fewer than k."""
        if len(self.pool) < k:
            return math.inf
        dists = sorted(self.fn(qpts, pts) for _, pts in self.pool[: _C * k])
        return float(dists[k - 1]) * (1.0 + 1e-9) + 1e-12  # strict-< guard

    def query_ctx(self, qpts: np.ndarray, k: int) -> dict:
        theta = self.estimate_theta(qpts, k)
        return {"theta": theta, "d_k": (theta, math.inf)}
