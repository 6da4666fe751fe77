"""Best-first top-k search over an RP-Trie (paper §IV, §VI, Algorithm 2).

Per measure, an *engine* carries the incremental CompLB state (Algorithm
1): appending one reference point to a node's reference trajectory
updates the state in O(m) instead of recomputing the O(mn) distance
matrix:

* Hausdorff — row minima ``r[0..m)`` and the column-max ``c_max``
  (Fig. 4); ``LB_o = max(c_max − √2δ/2, 0)`` (Eq. 2) and, on leaves,
  ``LB_t = max(max(max_i r_i, c_max) − D_max, 0)`` (Eq. 3).
* Frechet — the last DP column ``f`` (Fig. 5, Eq. 9);
  ``LB_o = max(c_min − √2δ/2, 0)`` (Eq. 7), ``LB_t`` from ``f_m,n``
  (Eq. 8, tightened with the stored leaf ``D_max ≤ √2δ/2``).
* DTW — the last DP column built from ``d'(q_i, cell_j)``, the min
  distance from a query point to the *cell* (Eqs. 13–15); no √2δ/2
  correction because ``d'`` already under-estimates.
* ERP / EDR / LCSS — extensions per §VI closing paragraph: the same
  column-DP machinery with optimistic (cell-based) costs; ERP is a
  metric so pivot pruning also applies.

Traversal reads the trie's flat arrays and is *path-compressed*: a heap
entry is one chain of single-child nodes (frequent in the
order-preserving tries, where consecutive points revisit cells), its
position and its DP state, and a pop advances up to ``CHAIN_CHUNK``
nodes in one call, with the column DP running on Python lists — the
same representation as the exact kernels — and an early chain abort as
soon as the monotone column minimum crosses the current d_k. This is an
implementation detail (DESIGN.md §3): bound values are exactly those of
node-at-a-time traversal.

The pivot lower bound (§IV-D) uses the node HR arrays with the standard
symmetric metric bound (see DESIGN.md §3 re: the paper's Eq. 5).
"""
from __future__ import annotations

import heapq
from typing import Iterable

import numpy as np

from .measures import METRICS, get_measure
from .pivots import query_pivot_dists
from .rptrie import RPTrie


def _col_point_dists(qpts: np.ndarray, p: np.ndarray) -> list[float]:
    """d(q_i, p) for one reference point — one DP column's costs."""
    dx = qpts[:, 0] - p[0]
    dy = qpts[:, 1] - p[1]
    return np.sqrt(dx * dx + dy * dy).tolist()


def _col_rect_dists(qpts: np.ndarray, rect: np.ndarray) -> list[float]:
    """d'(q_i, cell) for one cell rect — optimistic column costs."""
    dx = np.maximum(np.maximum(rect[0] - qpts[:, 0], qpts[:, 0] - rect[2]), 0.0)
    dy = np.maximum(np.maximum(rect[1] - qpts[:, 1], qpts[:, 1] - rect[3]), 0.0)
    return np.sqrt(dx * dx + dy * dy).tolist()


class _HausdorffEngine:
    """CompLB for Hausdorff (Algorithm 1). State = (r, c_max)."""

    def __init__(self, qpts: np.ndarray, slack: float):
        self.q = qpts
        self.m = len(qpts)
        self.slack = slack  # √2δ/2

    def root_state(self):
        return (np.full(self.m, np.inf), 0.0)

    def advance(self, state, refpts, rects, dk):
        r, cmax = state
        r = r.copy()
        qx, qy = self.q[:, 0], self.q[:, 1]
        for p in refpts:
            d = np.sqrt((qx - p[0]) ** 2 + (qy - p[1]) ** 2)
            np.minimum(r, d, out=r)
            c = float(d.min())
            if c > cmax:
                cmax = c
                if cmax - self.slack >= dk:
                    return None
        return (r, cmax)

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return max(state[1] - self.slack, 0.0)

    def leaf_lb(self, state, dmax: float, depth: int) -> float:
        r, cmax = state
        return max(max(float(r.max()), cmax) - dmax, 0.0)


class _FrechetEngine:
    """CompLB for discrete Frechet (Eqs. 7–9). State = last DP column."""

    def __init__(self, qpts: np.ndarray, slack: float):
        self.q = qpts
        self.m = len(qpts)
        self.slack = slack

    def root_state(self):
        return None  # no column yet

    def advance(self, state, refpts, rects, dk):
        f = state
        m = self.m
        cut = dk + self.slack
        for p in refpts:
            d = _col_point_dists(self.q, p)
            nf = [0.0] * m
            if f is None:
                run = d[0]
                nf[0] = run
                for i in range(1, m):
                    di = d[i]
                    run = di if di > run else run
                    nf[i] = run
            else:
                v, p0 = d[0], f[0]
                nf[0] = v if v > p0 else p0
                prev = f[0]  # f_{i-1, j-1}
                for i in range(1, m):
                    fi = f[i]
                    best = prev if prev < fi else fi
                    w = nf[i - 1]
                    if w < best:
                        best = w
                    di = d[i]
                    nf[i] = di if di > best else best
                    prev = fi
            f = nf
            if min(f) >= cut:  # c_min monotone ⇒ safe chain abort
                return None
        return f

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return max(min(state) - self.slack, 0.0)

    def leaf_lb(self, state, dmax: float, depth: int) -> float:
        return max(float(state[-1]) - dmax, 0.0)


class _DtwEngine:
    """CompLB for DTW (Eqs. 13–15) using cell distances d'."""

    def __init__(self, qpts: np.ndarray, slack: float):
        self.q = qpts
        self.m = len(qpts)

    def root_state(self):
        return None

    def advance(self, state, refpts, rects, dk):
        f = state
        m = self.m
        for rect in rects:
            d = _col_rect_dists(self.q, rect)
            nf = [0.0] * m
            if f is None:
                acc = 0.0
                for i in range(m):
                    acc += d[i]
                    nf[i] = acc
            else:
                nf[0] = d[0] + f[0]
                prev = f[0]
                for i in range(1, m):
                    fi = f[i]
                    best = prev if prev < fi else fi
                    w = nf[i - 1]
                    if w < best:
                        best = w
                    nf[i] = d[i] + best
                    prev = fi
            f = nf
            if min(f) >= dk:  # c_min (Eq. 13) monotone
                return None
        return f

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return min(state)

    def leaf_lb(self, state, dmax: float, depth: int) -> float:
        return float(state[-1])  # f_{m,n}, Eq. 14


class _ErpEngine:
    """ERP extension: column DP with optimistic match/gap costs.

    Matching q_i↔cell_j costs d'(q_i, cell_j) ≤ d(q_i, p_j); gapping the
    data point costs d'(cell_j, g) ≤ d(p_j, g); gapping q_i costs the
    exact d(q_i, g). State = column of length m+1 (incl. boundary row).
    """

    def __init__(self, qpts: np.ndarray, slack: float, gap=(0.0, 0.0)):
        self.q = qpts
        self.m = len(qpts)
        self.gap = np.asarray(gap, dtype=float)
        self.ga = np.sqrt(((qpts - self.gap) ** 2).sum(1)).tolist()

    def root_state(self):
        col = [0.0] * (self.m + 1)
        acc = 0.0
        for i, g in enumerate(self.ga):
            acc += g
            col[i + 1] = acc
        return col

    def advance(self, state, refpts, rects, dk):
        f = state
        m, ga = self.m, self.ga
        gq = self.gap
        for rect in rects:
            d = _col_rect_dists(self.q, rect)
            dx = max(rect[0] - gq[0], gq[0] - rect[2], 0.0)
            dy = max(rect[1] - gq[1], gq[1] - rect[3], 0.0)
            gp = float(np.hypot(dx, dy))  # d'(cell_j, g)
            nf = [0.0] * (m + 1)
            nf[0] = f[0] + gp
            for i in range(1, m + 1):
                # E[i][j] = min(match, gap q_i, gap p_j)
                best = f[i - 1] + d[i - 1]
                v = nf[i - 1] + ga[i - 1]
                if v < best:
                    best = v
                v = f[i] + gp
                if v < best:
                    best = v
                nf[i] = best
            f = nf
            if min(f) >= dk:
                return None
        return f

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return min(state)

    def leaf_lb(self, state, dmax: float, depth: int) -> float:
        return float(state[-1])


class _EdrEngine:
    """EDR extension: 0/1 edit DP with optimistic cell matching."""

    def __init__(self, qpts: np.ndarray, slack: float, eps: float = 0.0):
        self.q = qpts
        self.m = len(qpts)
        self.eps = eps

    def root_state(self):
        return [float(i) for i in range(self.m + 1)]  # E[i][0] = i

    def advance(self, state, refpts, rects, dk):
        f = state
        m, eps = self.m, self.eps
        for rect in rects:
            d = _col_rect_dists(self.q, rect)
            nf = [0.0] * (m + 1)
            nf[0] = f[0] + 1.0
            for i in range(1, m + 1):
                best = f[i - 1] + (0.0 if d[i - 1] <= eps else 1.0)
                v = f[i] + 1.0
                if v < best:
                    best = v
                v = nf[i - 1] + 1.0
                if v < best:
                    best = v
                nf[i] = best
            f = nf
            if min(f) >= dk:
                return None
        return f

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return min(state)

    def leaf_lb(self, state, dmax: float, depth: int) -> float:
        return float(state[-1])


class _LcssEngine:
    """LCSS-distance extension: optimistic match DP + suffix-aware bound.

    For a node at depth j with max remaining depth s, the final LCSS
    length is ≤ min(max_i(L_i + m − i), max_i L_i + s) and the final
    min(m, n) ≥ min(m, j), giving an admissible distance lower bound.
    """

    def __init__(self, qpts: np.ndarray, slack: float, eps: float = 0.0):
        self.q = qpts
        self.m = len(qpts)
        self.eps = eps

    def root_state(self):
        return [0.0] * (self.m + 1)

    def advance(self, state, refpts, rects, dk):
        f = state
        m, eps = self.m, self.eps
        for rect in rects:
            d = _col_rect_dists(self.q, rect)
            nf = [0.0] * (m + 1)
            for i in range(1, m + 1):
                keep = f[i] if f[i] >= nf[i - 1] else nf[i - 1]
                if d[i - 1] <= eps:
                    grown = f[i - 1] + 1.0
                    nf[i] = grown if grown > keep else keep
                else:
                    nf[i] = keep
            f = nf
        return f  # no mid-chain abort: the LCSS bound needs node context

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        m = self.m
        ub_diag = max(v + (m - i) for i, v in enumerate(state))
        ub_suffix = max(state) + max_suffix
        ub = ub_diag if ub_diag < ub_suffix else ub_suffix
        denom = max(1, min(m, depth))
        return max(0.0, 1.0 - min(1.0, ub / denom))

    def leaf_lb(self, state, dmax: float, depth: int) -> float:
        denom = max(1, min(self.m, depth))
        return max(0.0, 1.0 - min(1.0, float(state[-1]) / denom))


_ENGINES = {
    "hausdorff": _HausdorffEngine,
    "frechet": _FrechetEngine,
    "dtw": _DtwEngine,
    "erp": _ErpEngine,
    "edr": _EdrEngine,
    "lcss": _LcssEngine,
}


def make_engine(
    measure: str,
    qpts: np.ndarray,
    slack: float,
    *,
    eps: float | None = None,
    gap: tuple[float, float] | None = None,
):
    """Instantiate the CompLB engine for a measure (``eps``/``gap`` as in
    ``measures.get_measure``)."""
    cls = _ENGINES[measure]
    if measure == "erp" and gap is not None:
        return cls(qpts, slack, gap=gap)
    if measure in ("edr", "lcss"):
        return cls(qpts, slack, eps=eps)
    return cls(qpts, slack)


def _pivot_lbs(dqp: np.ndarray, hr: np.ndarray, slack: float) -> np.ndarray:
    """LB_p for HR arrays of shape (..., N_p, 2) → (...,).

    max_i max{ d_qp[i] − HR[i].max − slack, HR[i].min − slack − d_qp[i], 0 }.
    """
    lo = dqp - hr[..., 1] - slack
    hi = hr[..., 0] - slack - dqp
    return np.maximum(np.maximum(lo, hi), 0.0).max(axis=-1)


#: columns advanced per heap pop — best-first granularity of the
#: path-compressed traversal (heap overhead vs. wasted DP columns)
CHAIN_CHUNK = 8
CHAIN, LEAF = 0, 1


class SearchStats:
    """Counters exposed for tests/benchmarks: how much pruning happened."""

    __slots__ = ("nodes_expanded", "leaves_visited", "exact_computed", "pushed")

    def __init__(self):
        self.nodes_expanded = 0
        self.leaves_visited = 0
        self.exact_computed = 0
        self.pushed = 0


def search_topk(
    trie: RPTrie,
    trajs: dict[int, np.ndarray],
    qpts: np.ndarray,
    k: int,
    *,
    measure: str,
    eps: float | None = None,
    gap: tuple[float, float] | None = None,
    d_k: float = np.inf,
    stats: SearchStats | None = None,
) -> list[tuple[float, int]]:
    """Exact local top-k (Algorithm 2): returns ``[(dist, tid)]`` ascending.

    ``d_k`` seeds the pruning threshold (useful when merging partitions).
    """
    fn = get_measure(measure, eps=eps, gap=gap)
    engine = make_engine(measure, qpts, trie.grid.half_diag, eps=eps, gap=gap)
    use_pivots = measure in METRICS and trie.n_pivots > 0
    dqp = query_pivot_dists(qpts, trie.pivots, fn) if use_pivots else None
    slack_p = trie.pivot_slack
    # per-chain and per-leaf fields as lists: the loop below indexes
    # them once per pop, where numpy scalars would cost more
    off, kid_off = trie.off.tolist(), trie.kid_off.tolist()
    depth, suffix, leaf = trie.depth.tolist(), trie.max_suffix.tolist(), trie.leaf.tolist()
    tids, tid_off, dmax = trie.tids.tolist(), trie.tid_off.tolist(), trie.dmax.tolist()
    refpts, rects, hr, leaf_hr = trie.refpts, trie.rects, trie.hr, trie.leaf_hr

    stats = stats or SearchStats()
    result: list[tuple[float, int]] = []  # max-heap via negated dist
    counter = 0
    heap: list = []

    def push_chain(e: int, lb: float, state) -> None:
        """Enqueue a (lazy) chain entry; its DP has not been advanced yet."""
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (lb, counter, CHAIN, (e, 0, state)))
        stats.pushed += 1

    root_state = engine.root_state()
    for e in range(kid_off[0], kid_off[1]):
        push_chain(e, 0.0, root_state)

    while heap:
        lb, _, kind, payload = heapq.heappop(heap)
        if lb >= d_k:
            break
        if kind == LEAF:
            stats.leaves_visited += 1
            for tid in tids[tid_off[payload] : tid_off[payload + 1]]:
                stats.exact_computed += 1
                dist = fn(qpts, trajs[tid])
                if dist < d_k:
                    heapq.heappush(result, (-dist, tid))
                    if len(result) > k:
                        heapq.heappop(result)
                    if len(result) == k:
                        d_k = -result[0][0]
            continue
        # CHAIN: advance chain e by one chunk, then re-enqueue — best-first
        # ordering operates at chunk granularity, so no chain runs to its
        # end while d_k is still loose.
        e, pos, state = payload
        if pos == 0 and use_pivots:
            # HR is identical along a chain: one check covers its subtree
            if float(_pivot_lbs(dqp, hr[e], slack_p)) >= d_k:
                continue
        stats.nodes_expanded += 1
        lo = off[e]
        n_chain = off[e + 1] - lo
        hi = min(pos + CHAIN_CHUNK, n_chain)
        st = engine.advance(
            state, refpts[lo + pos : lo + hi], rects[lo + pos : lo + hi], d_k
        )
        if st is None:
            continue  # monotone bound crossed d_k: subtree pruned
        if hi < n_chain:
            # interior of a single-child run: depth/suffix are derivable
            clb = engine.node_lb(st, depth[e] - n_chain + hi, n_chain - hi + suffix[e])
            if clb < d_k:
                counter += 1
                heapq.heappush(heap, (clb, counter, CHAIN, (e, hi, st)))
                stats.pushed += 1
            continue
        clb = engine.node_lb(st, depth[e], suffix[e])
        if clb >= d_k:
            continue
        for c in range(kid_off[e], kid_off[e + 1]):
            push_chain(c, clb, st)
        l = leaf[e]
        if l >= 0:
            llb = engine.leaf_lb(st, dmax[l], depth[e])
            if use_pivots:
                llb = max(llb, float(_pivot_lbs(dqp, leaf_hr[l], slack_p)))
            llb = max(llb, clb)
            if llb < d_k:
                counter += 1
                heapq.heappush(heap, (llb, counter, LEAF, l))
                stats.pushed += 1

    return sorted(((-d, t) for d, t in result), key=lambda x: (x[0], x[1]))


def brute_force_topk(
    trajs: Iterable[tuple[int, np.ndarray]],
    qpts: np.ndarray,
    k: int,
    *,
    measure: str,
    eps: float | None = None,
    gap: tuple[float, float] | None = None,
) -> list[tuple[float, int]]:
    """Reference linear scan; also the kernel used by the LS baseline."""
    fn = get_measure(measure, eps=eps, gap=gap)
    scored = sorted(
        ((fn(qpts, pts), tid) for tid, pts in trajs), key=lambda x: (x[0], x[1])
    )
    return scored[:k]
