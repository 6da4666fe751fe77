"""Exact trajectory distance kernels (paper §II, §VI).

All trajectories are ``(n, 2)`` float64 numpy arrays. These kernels are
shared by REPOSE and all baselines (LS, DFT, DITA) so query-time
comparisons measure pruning/indexing, not kernel implementations.

Supported measures (paper §I): Hausdorff, Frechet, DTW, ERP, EDR, LCSS.
Hausdorff/Frechet/ERP are metrics (pivot pruning applies, ``METRICS``);
Hausdorff is additionally order-independent (``ORDER_INDEPENDENT``), which
enables the z-value re-arrangement trie optimization (§III-C).

Each DP measure has one column step (``frechet_step``, ``dtw_step``,
``erp_step``, ``lcss_step``; EDR is ERP with unit costs): the previous DP
column, its boundary entry first, and one new point's costs give the
next column. The kernels below run it once per point of the first
trajectory, and the CompLB engines of ``search`` once per reference point
of a trie node, so a lower bound and its exact distance share one
recurrence. Steps work on Python lists: per-element access costs less
there than on numpy arrays. Each step has a fixed cost besides, so
``frechet`` without a bound puts the shorter trajectory first: the
build's pivot and ``D_max`` distances take a node's collapsed reference
trajectory, often a few points long.

Every kernel takes an optional keyword ``bound``, for the cascade of the
UCR suite (Rakthanmanon et al., KDD 2012). It returns the exact distance
when that distance is ≤ ``bound``, and otherwise a lower bound on it
that is above ``bound``: first a lower bound read off the point-distance
matrix in a few numpy calls, then a DP that stops once a whole column is
above ``bound``. Frechet's cascade starts one step earlier, with the
O(1) endpoint bound LB_e (``end_bound``). Without a bound a kernel
computes the full distance; with ``bound=-inf`` it returns only the
first, cheap bound, which ``get_lower_bound`` hands to the searches to
refine candidates in its order (Seidl & Kriegel, SIGMOD 1998).
"""
from __future__ import annotations

import math
from functools import partial
from itertools import accumulate, repeat

import numpy as np

#: measures satisfying the triangle inequality → pivot pruning valid
METRICS = frozenset({"hausdorff", "frechet", "erp"})
#: measures invariant to point re-ordering → optimized trie valid
ORDER_INDEPENDENT = frozenset({"hausdorff"})
#: measures whose cheap bound is the endpoint bound LB_e (``end_bound``),
#: which the RP-Trie search takes for whole subtrees at once
END_BOUNDED = frozenset({"frechet"})
#: all supported measure names
ALL_MEASURES = ("hausdorff", "frechet", "dtw", "erp", "edr", "lcss")

#: relative margin on the summed lower bounds (DTW, ERP): numpy sums in
#: another order than the DP, so a bound may round a few ulps higher
_SUM_SLACK = 1e-9


def pair_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, shape ``(len(a), len(b))``.

    Built from the x and y differences apart: a sum of two terms is one
    add, so it is bit for bit the sum over the last axis of the squared
    difference array, at a fraction of the cost.
    """
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def hausdorff(a: np.ndarray, b: np.ndarray, *, bound: float = math.inf) -> float:
    """Bidirectional Hausdorff distance (paper Eq. 1)."""
    d = pair_dists(a, b)
    h = d.min(1).max()
    if h > bound:  # one direction is enough
        return float(h)
    return float(max(h, d.min(0).max()))


def frechet_step(prev: list, cost: list) -> list:
    """The discrete-Frechet DP column after one more point (Eq. 9).

    ``prev`` is the column over the other trajectory's points, boundary
    entry first; ``cost`` holds the new point's distance to each of them.
    An entry is the largest cost on the best monotone coupling so far.
    """
    left = math.inf
    cur = [left]
    for diag, up, c in zip(prev, prev[1:], cost):
        if up < diag:
            diag = up
        if left < diag:
            diag = left
        left = c if c > diag else diag
        cur.append(left)
    return cur


def dtw_step(prev: list, cost: list) -> list:
    """The DTW DP column after one more point (Eqs. 12, 15): as
    ``frechet_step``, with the costs on the best warping path summed."""
    left = math.inf
    cur = [left]
    for diag, up, c in zip(prev, prev[1:], cost):
        if up < diag:
            diag = up
        if left < diag:
            diag = left
        left = c + diag
        cur.append(left)
    return cur


def warp_start(n: int) -> list:
    """The Frechet/DTW column before any point: only the corner is
    reached, so the first step yields the running max (sum) of costs."""
    return [0.0] + [math.inf] * n


def erp_step(prev: list, cost: list, gap: float, gaps: list) -> list:
    """The ERP DP column after one more point: the cheapest of matching
    it (``cost``), gapping it (``gap``, its distance to the gap point) and
    gapping the column's point (``gaps``). With ``cost`` 0 on a match and
    1 otherwise, and every gap 1, it is the EDR column."""
    left = prev[0] + gap
    cur = [left]
    for diag, up, c, g in zip(prev, prev[1:], cost, gaps):
        diag += c
        up += gap
        if up < diag:
            diag = up
        left += g
        if diag < left:
            left = diag
        cur.append(left)
    return cur


def edit_start(gaps) -> list:
    """The ERP/EDR column before any point: every point so far gapped."""
    return list(accumulate(gaps, initial=0.0))


def lcss_step(prev: list, hit: list) -> list:
    """The LCSS DP column after one more point: the longest common
    subsequence, ``hit`` flagging the column's points it matches."""
    left = 0.0
    cur = [left]
    for diag, up, h in zip(prev, prev[1:], hit):
        if h:
            left = diag + 1.0
        elif up > left:
            left = up
        cur.append(left)
    return cur


def _abandoning(step, col: list, rows, bound: float) -> float:
    """``col`` advanced by ``step(col, *args)`` for each ``args`` in
    ``rows``: its last entry, or a column's minimum once that is above
    ``bound``. Every alignment crosses every column, and no entry is
    below the smallest of the column before, so that minimum is a lower
    bound on the distance."""
    cut = bound < math.inf
    for args in rows:
        col = step(col, *args)
        if cut:
            low = min(col)
            if low > bound:
                return low
    return col[-1]


def end_bound(a: np.ndarray, b: np.ndarray) -> float:
    """LB_e: ``max(d(a₀, b₀), d(a₋₁, b₋₁))``, the larger distance of the
    two end pairs, which every Frechet coupling holds (LB_KimFL of the
    UCR suite). In the float operations of ``pair_dists``, so it equals
    that matrix's corners bit for bit."""
    (ax, ay), (bx, by) = a[0].tolist(), b[0].tolist()
    dx, dy = ax - bx, ay - by
    first = math.sqrt(dx * dx + dy * dy)
    (ax, ay), (bx, by) = a[-1].tolist(), b[-1].tolist()
    dx, dy = ax - bx, ay - by
    last = math.sqrt(dx * dx + dy * dy)
    return first if first > last else last


def end_bounds(q: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``end_bound(q, τ)`` of many trajectories at once: ``ends`` holds
    each one's first and last point, shape ``(n, 2, 2)``."""
    q = q[[0, -1]]
    dx = q[:, 0] - ends[:, :, 0]
    dy = q[:, 1] - ends[:, :, 1]
    return np.sqrt(dx * dx + dy * dy).max(axis=1)


def frechet(a: np.ndarray, b: np.ndarray, *, bound: float = math.inf) -> float:
    """Discrete Frechet distance (paper Eq. 6)."""
    if bound == math.inf and len(a) > len(b):
        return frechet(b, a)  # the same value, in fewer and longer columns
    if bound < math.inf:
        # every coupling holds both end pairs ...
        lb = end_bound(a, b)
        if lb > bound:
            return lb
    d = pair_dists(a, b)
    if bound < math.inf:
        # ... and meets every row and column
        lb = max(lb, d.min(1).max(), d.min(0).max())
        if lb > bound:
            return float(lb)
    first, *rest = d.tolist()
    return _abandoning(frechet_step, frechet_step(warp_start(len(b)), first), zip(rest), bound)


def dtw(a: np.ndarray, b: np.ndarray, *, bound: float = math.inf) -> float:
    """Dynamic time warping distance (paper Eq. 12)."""
    d = pair_dists(a, b)
    if bound < math.inf:
        # every warping path pays at least one cell per row and per column
        lb = max(d.min(1).sum(), d.min(0).sum()) * (1.0 - _SUM_SLACK)
        if lb > bound:
            return float(lb)
    first, *rest = d.tolist()
    return _abandoning(dtw_step, dtw_step(warp_start(len(b)), first), zip(rest), bound)


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
    if bound < math.inf:
        # triangle inequality through the empty trajectory [Chen & Ng];
        # the margin scales with the sums, as their difference may cancel
        sa, sb = ga.sum(), gb.sum()
        lb = abs(sa - sb) - _SUM_SLACK * (sa + sb)
        if lb > bound:
            return float(lb)
    gb = gb.tolist()
    rows = zip(pair_dists(a, b).tolist(), ga.tolist(), repeat(gb))
    return _abandoning(erp_step, edit_start(gb), rows, bound)


def edr(a: np.ndarray, b: np.ndarray, eps: float, *, bound: float = math.inf) -> float:
    """Edit Distance on Real sequences [Chen et al., SIGMOD'05].

    Points match when their Euclidean distance is ≤ ``eps`` (the common
    Euclidean variant of the per-coordinate test); every edit costs 1.
    """
    match = pair_dists(a, b) <= eps
    m, n = len(a), len(b)
    if bound < math.inf:
        # a point that matches nothing costs at least one edit
        lb = max(abs(m - n), m - int(match.any(1).sum()), n - int(match.any(0).sum()))
        if lb > bound:
            return float(lb)
    ones = [1.0] * n
    rows = zip(np.where(match, 0.0, 1.0).tolist(), repeat(1.0), repeat(ones))
    return _abandoning(erp_step, edit_start(ones), rows, bound)


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
    col = [0.0] * (n + 1)
    for i, hit in enumerate(match.tolist(), 1):
        col = lcss_step(col, hit)
        if cut:
            # each of the m − i rows left adds at most one match
            lb = 1.0 - min(max(col) + m - i, short) / short
            if lb > bound:
                return lb
    return 1.0 - col[-1] / short


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


def get_lower_bound(
    name: str, *, eps: float | None = None, gap: tuple[float, float] | None = None
):
    """Return ``lb(a, b) -> float``, a cheap lower bound on measure
    ``name``'s distance that is never above the exact value bit for bit,
    or ``None`` for Hausdorff, whose cheap bound (one directed distance)
    costs most of the kernel. It is the first step of the kernel's own
    cascade, so DTW's and ERP's are deflated by ``_SUM_SLACK`` and
    Frechet's is the endpoint bound LB_e.
    """
    if name == "hausdorff":
        return None
    return partial(get_measure(name, eps=eps, gap=gap), bound=-math.inf)


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
