"""Brute-force top-k oracle, written independently of the program under test.

The expected answer to a query is the first ``k`` trajectories by
``(distance, tid)`` over the whole dataset. Distances are computed here
with NumPy, vectorized across trajectories, and share no code with
``repro``: a defect in the program's kernels or index cannot hide itself
in the check. Point distances use ``sqrt(dx*dx + dy*dy)``, the same
arithmetic as the program's kernels, so exact answers agree to the last
bits and the 1e-9 distance tolerance has room to spare.
"""
from __future__ import annotations

import numpy as np


class Dataset:
    """Trajectories padded into one array, longest first."""

    def __init__(self, tids: np.ndarray, trajs: list[np.ndarray]):
        order = np.argsort([-len(t) for t in trajs], kind="stable")
        self.tids = np.asarray(tids, dtype=np.int64)[order]
        self.lens = np.array([len(trajs[i]) for i in order], dtype=np.int64)
        self.pts = np.full((len(trajs), int(self.lens.max()), 2), np.nan)
        for row, i in enumerate(order):
            self.pts[row, : len(trajs[i])] = trajs[i]
        # active[j]: trajectories that have a point j (a prefix, as rows
        # are sorted by length)
        self.active = np.array(
            [int((self.lens > j).sum()) for j in range(self.pts.shape[1])]
        )

    def __len__(self) -> int:
        return len(self.tids)


def _col_dists(q: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """d(q_i, p) for points ``cols`` (B, 2) → (B, m)."""
    dx = q[None, :, 0] - cols[:, None, 0]
    dy = q[None, :, 1] - cols[:, None, 1]
    return np.sqrt(dx * dx + dy * dy)


def hausdorff_all(data: Dataset, q: np.ndarray) -> np.ndarray:
    """Bidirectional Hausdorff distance from ``q`` to every trajectory."""
    n = len(data)
    row_min = np.full((n, len(q)), np.inf)  # min_j d(q_i, t_j)
    col_max = np.zeros(n)                   # max_j min_i d(q_i, t_j)
    for j, b in enumerate(data.active):
        d = _col_dists(q, data.pts[:b, j])
        np.minimum(row_min[:b], d, out=row_min[:b])
        np.maximum(col_max[:b], d.min(axis=1), out=col_max[:b])
    return np.maximum(row_min.max(axis=1), col_max)


def frechet_all(data: Dataset, q: np.ndarray) -> np.ndarray:
    """Discrete Frechet distance from ``q`` to every trajectory.

    Column-by-column DP over data points; column ``j`` is advanced only
    for trajectories that have a point ``j`` and read off at their last.
    """
    m = len(q)
    out = np.empty(len(data))
    f = None
    for j, b in enumerate(data.active):
        d = _col_dists(q, data.pts[:b, j]).T  # (m, b)
        nf = np.empty_like(d)
        if f is None:
            np.maximum.accumulate(d, axis=0, out=nf)
        else:
            f = f[:, :b]
            np.maximum(d[0], f[0], out=nf[0])
            for i in range(1, m):
                best = np.minimum(np.minimum(f[i - 1], f[i]), nf[i - 1])
                np.maximum(d[i], best, out=nf[i])
        f = nf
        done = data.lens[:b] == j + 1
        out[:b][done] = f[m - 1][done]
    return out


KERNELS = {"hausdorff": hausdorff_all, "frechet": frechet_all}


def expected_topk(data: Dataset, q: np.ndarray, k: int, measure: str) -> list[tuple[float, int]]:
    """First ``k`` of the dataset by ``(distance, tid)``."""
    dist = KERNELS[measure](data, np.asarray(q, dtype=float))
    order = np.lexsort((data.tids, dist))[:k]
    return [(float(dist[i]), int(data.tids[i])) for i in order]


def check(got: list[tuple[float, int]], want: list[tuple[float, int]], tol: float = 1e-9) -> str | None:
    """``None`` when ``got`` is the exact answer, else why it is not."""
    if [t for _, t in got] != [t for _, t in want]:
        return f"ids {[t for _, t in got]} != expected {[t for _, t in want]}"
    for (dg, t), (dw, _) in zip(got, want):
        if not abs(dg - dw) <= tol:
            return f"tid {t}: distance {dg!r} != expected {dw!r}"
    return None
