"""Exact trajectory distance kernels (paper §II, §VI).

All trajectories are ``(n, 2)`` float64 numpy arrays. These kernels are
shared by REPOSE and all baselines (LS, DFT, DITA) so query-time
comparisons measure pruning/indexing, not kernel implementations.

Supported measures (paper §I): Hausdorff, Frechet, DTW, ERP, EDR, LCSS.
Hausdorff/Frechet/ERP are metrics (pivot pruning applies, ``METRICS``);
Hausdorff is additionally order-independent (``ORDER_INDEPENDENT``), which
enables the z-value re-arrangement trie optimization (§III-C).
"""
from __future__ import annotations

from functools import partial

import numpy as np

#: measures satisfying the triangle inequality → pivot pruning valid
METRICS = frozenset({"hausdorff", "frechet", "erp"})
#: measures invariant to point re-ordering → optimized trie valid
ORDER_INDEPENDENT = frozenset({"hausdorff"})
#: all supported measure names
ALL_MEASURES = ("hausdorff", "frechet", "dtw", "erp", "edr", "lcss")


def pair_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, shape ``(len(a), len(b))``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Bidirectional Hausdorff distance (paper Eq. 1)."""
    d = pair_dists(a, b)
    return float(max(d.min(1).max(), d.min(0).max()))


def _rowwise_dp(d: list[list[float]], kind: str) -> float:
    """Shared discrete-Frechet / DTW dynamic program over a cost matrix.

    ``d`` is a Python list-of-lists (scalar indexing on lists is ~3x
    faster than on numpy arrays). ``kind`` is "frechet" (max of matched
    costs under a monotone coupling) or "dtw" (sum).
    """
    m, n = len(d), len(d[0])
    prev = [0.0] * n
    row0 = d[0]
    if kind == "frechet":
        acc = row0[0]
        for j in range(n):
            acc = max(acc, row0[j]) if j else row0[0]
            prev[j] = acc
        for i in range(1, m):
            di = d[i]
            cur = [0.0] * n
            cur[0] = max(di[0], prev[0])
            for j in range(1, n):
                best = prev[j - 1]
                if prev[j] < best:
                    best = prev[j]
                if cur[j - 1] < best:
                    best = cur[j - 1]
                cur[j] = di[j] if di[j] > best else best
            prev = cur
    else:  # dtw
        acc = 0.0
        for j in range(n):
            acc += row0[j]
            prev[j] = acc
        for i in range(1, m):
            di = d[i]
            cur = [0.0] * n
            cur[0] = di[0] + prev[0]
            for j in range(1, n):
                best = prev[j - 1]
                if prev[j] < best:
                    best = prev[j]
                if cur[j - 1] < best:
                    best = cur[j - 1]
                cur[j] = di[j] + best
            prev = cur
    return float(prev[-1])


def frechet(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete Frechet distance (paper Eq. 6)."""
    return _rowwise_dp(pair_dists(a, b).tolist(), "frechet")


def dtw(a: np.ndarray, b: np.ndarray) -> float:
    """Dynamic time warping distance (paper Eq. 12)."""
    return _rowwise_dp(pair_dists(a, b).tolist(), "dtw")


def erp(a: np.ndarray, b: np.ndarray, gap: tuple[float, float] = (0.0, 0.0)) -> float:
    """Edit distance with Real Penalty [Chen & Ng, VLDB'04].

    Matching q_i↔p_j costs d(q_i, p_j); gapping a point costs its distance
    to the fixed gap point ``g``. ERP is a metric.
    """
    g = np.asarray(gap, dtype=float)
    ga = np.sqrt(((a - g) ** 2).sum(1)).tolist()
    gb = np.sqrt(((b - g) ** 2).sum(1)).tolist()
    d = pair_dists(a, b).tolist()
    m, n = len(a), len(b)
    prev = [0.0] * (n + 1)
    for j in range(1, n + 1):
        prev[j] = prev[j - 1] + gb[j - 1]
    for i in range(1, m + 1):
        di = d[i - 1]
        cur = [prev[0] + ga[i - 1]] + [0.0] * n
        for j in range(1, n + 1):
            best = prev[j - 1] + di[j - 1]      # match
            v = prev[j] + ga[i - 1]             # gap q_i
            if v < best:
                best = v
            v = cur[j - 1] + gb[j - 1]          # gap p_j
            if v < best:
                best = v
            cur[j] = best
        prev = cur
    return float(prev[-1])


def edr(a: np.ndarray, b: np.ndarray, eps: float) -> float:
    """Edit Distance on Real sequences [Chen et al., SIGMOD'05].

    Points match when their Euclidean distance is ≤ ``eps`` (the common
    Euclidean variant of the per-coordinate test); every edit costs 1.
    """
    match = (pair_dists(a, b) <= eps).tolist()
    m, n = len(a), len(b)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        mi = match[i - 1]
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            best = prev[j - 1] + (0 if mi[j - 1] else 1)
            v = prev[j] + 1
            if v < best:
                best = v
            v = cur[j - 1] + 1
            if v < best:
                best = v
            cur[j] = best
        prev = cur
    return float(prev[-1])


def lcss(a: np.ndarray, b: np.ndarray, eps: float) -> float:
    """LCSS *distance*: ``1 − |LCSS(a,b)| / min(|a|,|b|)`` ∈ [0, 1].

    Points match when Euclidean distance ≤ ``eps`` (no temporal window).
    """
    match = (pair_dists(a, b) <= eps).tolist()
    m, n = len(a), len(b)
    prev = [0] * (n + 1)
    for i in range(1, m + 1):
        mi = match[i - 1]
        cur = [0] * (n + 1)
        for j in range(1, n + 1):
            if mi[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = prev[j] if prev[j] >= cur[j - 1] else cur[j - 1]
        prev = cur
    return float(1.0 - prev[-1] / min(m, n))


def get_measure(
    name: str, *, eps: float | None = None, gap: tuple[float, float] | None = None
):
    """Return ``fn(a, b) -> float`` for a measure name, binding its parameters.

    ``eps`` (EDR/LCSS, required) and ``gap`` (ERP, default ``(0, 0)``) are
    bound here so every caller (REPOSE, baselines, brute force, tests)
    shares one parameterization; ``None`` means unset, and a parameter the
    measure does not take is ignored.
    """
    if name == "hausdorff":
        return hausdorff
    if name == "frechet":
        return frechet
    if name == "dtw":
        return dtw
    # functools.partial of module-level functions (not lambdas) so bound
    # measures survive plain-pickle round trips inside Spark workers
    if name == "erp":
        return partial(erp, gap=(0.0, 0.0) if gap is None else gap)
    if name in ("edr", "lcss"):
        if eps is None:
            raise ValueError(f"measure {name!r} needs eps")
        return partial(edr if name == "edr" else lcss, eps=eps)
    raise ValueError(f"unknown measure {name!r}")
