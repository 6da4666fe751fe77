"""Exact trajectory distance kernels (paper §II, §VI).

All trajectories are ``(n, 2)`` float64 numpy arrays. These kernels are
shared by REPOSE and all baselines (LS, DFT, DITA) so query-time
comparisons measure pruning/indexing, not kernel implementations.

Supported measures (paper §I): Hausdorff, Frechet, DTW, ERP, EDR, LCSS.
Hausdorff/Frechet/ERP are metrics (pivot pruning applies, ``METRICS``);
Hausdorff is additionally order-independent (``ORDER_INDEPENDENT``), which
enables the z-value re-arrangement trie optimization (§III-C).

Every kernel takes an optional keyword ``bound``, for the cascade of the
UCR suite (Rakthanmanon et al., KDD 2012). It returns the exact distance
when that distance is ≤ ``bound``, and some value above ``bound``
otherwise: first a lower bound read off the point-distance matrix in a
few numpy calls, then a DP that stops once a whole row is above
``bound``. Without a bound a kernel computes the full distance.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

#: measures satisfying the triangle inequality → pivot pruning valid
METRICS = frozenset({"hausdorff", "frechet", "erp"})
#: measures invariant to point re-ordering → optimized trie valid
ORDER_INDEPENDENT = frozenset({"hausdorff"})
#: all supported measure names
ALL_MEASURES = ("hausdorff", "frechet", "dtw", "erp", "edr", "lcss")

#: relative margin on the summed lower bounds (DTW, ERP): numpy sums in
#: another order than the DP, so a bound may round a few ulps higher
_SUM_SLACK = 1e-9


def pair_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, shape ``(len(a), len(b))``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def hausdorff(a: np.ndarray, b: np.ndarray, *, bound: float = math.inf) -> float:
    """Bidirectional Hausdorff distance (paper Eq. 1)."""
    d = pair_dists(a, b)
    h = d.min(1).max()
    if h > bound:  # one direction is enough
        return float(h)
    return float(max(h, d.min(0).max()))


def _rowwise_dp(d: list[list[float]], kind: str, bound: float) -> float:
    """Shared discrete-Frechet / DTW dynamic program over a cost matrix.

    ``d`` is a Python list-of-lists (scalar indexing on lists is ~3x
    faster than on numpy arrays). ``kind`` is "frechet" (max of matched
    costs under a monotone coupling) or "dtw" (sum). Every coupling
    crosses every row and never decreases along the way, so once a row's
    minimum is above ``bound`` that minimum is returned.
    """
    m, n = len(d), len(d[0])
    cut = bound < math.inf
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
            if cut and min(cur) > bound:
                return float(min(cur))
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
            if cut and min(cur) > bound:
                return float(min(cur))
    return float(prev[-1])


def frechet(a: np.ndarray, b: np.ndarray, *, bound: float = math.inf) -> float:
    """Discrete Frechet distance (paper Eq. 6)."""
    d = pair_dists(a, b)
    if bound < math.inf:
        # every coupling holds both end pairs and meets every row and column
        lb = max(d[0, 0], d[-1, -1], d.min(1).max(), d.min(0).max())
        if lb > bound:
            return float(lb)
    return _rowwise_dp(d.tolist(), "frechet", bound)


def dtw(a: np.ndarray, b: np.ndarray, *, bound: float = math.inf) -> float:
    """Dynamic time warping distance (paper Eq. 12)."""
    d = pair_dists(a, b)
    if bound < math.inf:
        # every warping path pays at least one cell per row and per column
        lb = max(d.min(1).sum(), d.min(0).sum())
        if lb * (1.0 - _SUM_SLACK) > bound:
            return float(lb)
    return _rowwise_dp(d.tolist(), "dtw", bound)


def erp(
    a: np.ndarray,
    b: np.ndarray,
    gap: tuple[float, float] = (0.0, 0.0),
    *,
    bound: float = math.inf,
) -> float:
    """Edit distance with Real Penalty [Chen & Ng, VLDB'04].

    Matching q_i↔p_j costs d(q_i, p_j); gapping a point costs its distance
    to the fixed gap point ``g``. ERP is a metric.
    """
    g = np.asarray(gap, dtype=float)
    ga = np.sqrt(((a - g) ** 2).sum(1))
    gb = np.sqrt(((b - g) ** 2).sum(1))
    cut = bound < math.inf
    if cut:
        # triangle inequality through the empty trajectory [Chen & Ng];
        # the margin scales with the sums, as their difference may cancel
        sa, sb = ga.sum(), gb.sum()
        if abs(sa - sb) - _SUM_SLACK * (sa + sb) > bound:
            return float(abs(sa - sb))
    ga, gb = ga.tolist(), gb.tolist()
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
        if cut and min(cur) > bound:
            return float(min(cur))
    return float(prev[-1])


def edr(a: np.ndarray, b: np.ndarray, eps: float, *, bound: float = math.inf) -> float:
    """Edit Distance on Real sequences [Chen et al., SIGMOD'05].

    Points match when their Euclidean distance is ≤ ``eps`` (the common
    Euclidean variant of the per-coordinate test); every edit costs 1.
    """
    match = pair_dists(a, b) <= eps
    m, n = len(a), len(b)
    cut = bound < math.inf
    if cut:
        # a point that matches nothing costs at least one edit
        lb = max(abs(m - n), m - int(match.any(1).sum()), n - int(match.any(0).sum()))
        if lb > bound:
            return float(lb)
    match = match.tolist()
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
        if cut and min(cur) > bound:
            return float(min(cur))
    return float(prev[-1])


def lcss(a: np.ndarray, b: np.ndarray, eps: float, *, bound: float = math.inf) -> float:
    """LCSS *distance*: ``1 − |LCSS(a,b)| / min(|a|,|b|)`` ∈ [0, 1].

    Points match when Euclidean distance ≤ ``eps`` (no temporal window).
    """
    match = pair_dists(a, b) <= eps
    m, n = len(a), len(b)
    short = min(m, n)
    cut = bound < math.inf
    if cut:
        # only points that match something can join the common subsequence
        lb = 1.0 - min(int(match.any(1).sum()), int(match.any(0).sum())) / short
        if lb > bound:
            return lb
    match = match.tolist()
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
        if cut:
            # each of the m − i rows left adds at most one match
            lb = 1.0 - min(max(cur) + m - i, short) / short
            if lb > bound:
                return lb
    return float(1.0 - prev[-1] / short)


#: the kernels above, all of which take ``bound``
_BOUNDED = frozenset({hausdorff, frechet, dtw, erp, edr, lcss})


def _ignore_bound(fn, a: np.ndarray, b: np.ndarray, *, bound: float = math.inf) -> float:
    return fn(a, b)


def bounded(fn):
    """``fn`` itself when it is a kernel of this module, bound or not by
    ``get_measure``; any other two-argument callable is wrapped so that
    it takes ``bound`` and ignores it (it then always returns the exact
    distance, which satisfies the same contract)."""
    if getattr(fn, "func", fn) in _BOUNDED:
        return fn
    return partial(_ignore_bound, fn)


def get_measure(
    name: str, *, eps: float | None = None, gap: tuple[float, float] | None = None
):
    """Return ``fn(a, b, *, bound=inf) -> float`` for a measure name,
    binding its parameters.

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
