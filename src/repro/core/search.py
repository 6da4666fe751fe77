"""Best-first top-k search over an RP-Trie (paper §IV, §VI, Algorithm 2).

Per measure, an *engine* carries the incremental CompLB state (Algorithm
1): appending one reference point to a node's reference trajectory
updates the state in O(m) instead of recomputing the O(mn) distance
matrix:

* Hausdorff — row minima ``r[0..m)`` and the column-max ``c_max``
  (Fig. 4); ``LB_o = max(c_max − √2δ/2, 0)`` (Eq. 2) and, on leaves,
  ``LB_t = max(max(max_i r_i, c_max) − D_max, 0)`` (Eq. 3).
* The DP measures — one column engine (``_ColumnEngine``): the state is
  the measure's DP column over the query, advanced by the same column
  step as its exact kernel (``measures.frechet_step`` and the rest), on
  per-cell costs.
  * Frechet (Fig. 5, Eq. 9) on distances to cell centres:
    ``LB_o = max(c_min − √2δ/2, 0)`` (Eq. 7), ``LB_t`` from ``f_m,n``
    (Eq. 8, tightened with the stored leaf ``D_max ≤ √2δ/2``).
  * DTW (Eqs. 13–15) on ``d'(q_i, cell_j)``, the min distance from a
    query point to the *cell*; no √2δ/2 correction because ``d'``
    already under-estimates.
  * ERP / EDR / LCSS — extensions per §VI closing paragraph, on the
    same optimistic cell costs; ERP is a metric so pivot pruning also
    applies, and LCSS bounds its match counts with the node's depth.

Traversal reads the trie's flat arrays and is *path-compressed*: a heap
entry is one chain of single-child nodes (frequent in the
order-preserving tries, where consecutive points revisit cells), its
position and its DP state, and a pop advances up to ``CHAIN_CHUNK``
nodes in one call, with the column DP running through the same step
functions as the exact kernels, and an early chain abort as
soon as the monotone column minimum crosses the current d_k. This is an
implementation detail (DESIGN.md §3): bound values are exactly those of
node-at-a-time traversal.

A node's DP column needs the query's distances to its cell, and the
trie has far more nodes than the grid has cells that a query reaches, so
each search computes them once per cell, on first use (``_Columns``), and
an engine's ``advance`` takes the chain's z-values.

One traversal searches all the tries of a Spark task (``search_tries``),
as the paper runs one local search per core: one heap whose entries name
their trie, one threshold, one engine and one set of cell columns;
``search_topk`` is the same traversal on one trie. A popped leaf puts
its trajectories back on the heap keyed by the measure's cheap lower
bound (``measures.get_lower_bound``), so exact distances are refined in
bound order and mostly only for the final top-k (optimal multi-step
k-NN, Seidl & Kriegel, SIGMOD 1998). Hausdorff has no bound cheap
enough and refines at the leaf.

Each chain and leaf also has a pre-bound, which needs no DP: the larger
of the pivot lower bound LB_p (§IV-D, metrics; from the node HR arrays
with the standard symmetric metric bound, see DESIGN.md §3 re: the
paper's Eq. 5) and, for Frechet, the endpoint bound LB_e
(``measures.end_bound``, also its cheap bound), least over the
trajectories below, an extension of the paper's bounds (DESIGN.md §3);
0.0 where neither applies. Each search takes them for a whole pack in a
few numpy calls (``_Pack``). Every child chain is keyed by the larger of
its parent's DP bound and its pre-bound, and cut at push when that key
is above the k-th distance, before its DP runs.

The answer is tie-exact: the first k by ``(dist, tid)`` (``TopK``). A
bound prunes only when it is strictly above the k-th distance, and a
candidate at exactly that distance still enters when its tid is smaller.
Each exact distance is refined against the k-th distance as a ``bound``,
so it stops early when it cannot enter (``measures``).
"""
from __future__ import annotations

import heapq
import math
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .measures import (
    END_BOUNDED, METRICS, bounded, dtw_step, edit_start, end_bounds, erp_step, frechet_step,
    get_lower_bound, get_measure, lcss_step, warp_start,
)
from .pivots import query_pivot_dists
from .rptrie import RPTrie
from .zorder import Grid, points_to_rects_dist


class _Columns(dict):
    """z → the query's cost column for one grid cell, computed on first
    read and kept for the rest of the search.

    The column holds one value per query point: its distance to the cell
    centre (Hausdorff, Frechet) or the optimistic ``d'`` to the cell
    (DTW, ERP, EDR, LCSS), in whatever form the engine reads: a DP
    engine's step takes it as its arguments after the DP column. Lazy,
    because a fine grid has ~10⁵ cells and a search reads few of them.
    """

    def __init__(self, column):
        super().__init__()
        self.column = column

    def __missing__(self, z):
        col = self[z] = self.column(z)
        return col


def _centre_dists(qpts: np.ndarray, grid: Grid, z: int) -> np.ndarray:
    """d(q_i, p) to the reference point p of z's cell (the values of
    ``Grid.refpoints_of_z``)."""
    ix, iy = grid.cell_index(z)
    dx = qpts[:, 0] - (grid.minx + (ix + 0.5) * grid.delta)
    dy = qpts[:, 1] - (grid.miny + (iy + 0.5) * grid.delta)
    return np.sqrt(dx * dx + dy * dy)


def _cell_rect(grid: Grid, z: int) -> tuple[float, float, float, float]:
    """z's cell as (minx, miny, maxx, maxy), as ``Grid.cell_rects_of_z``."""
    ix, iy = grid.cell_index(z)
    x0 = grid.minx + ix * grid.delta
    y0 = grid.miny + iy * grid.delta
    return x0, y0, x0 + grid.delta, y0 + grid.delta


def _cell_dists(qpts: np.ndarray, grid: Grid, z: int) -> np.ndarray:
    """d'(q_i, cell): 0 inside the cell (§VI-B)."""
    return points_to_rects_dist(qpts, _cell_rect(grid, z))[:, 0]


class _HausdorffEngine:
    """CompLB for Hausdorff (Algorithm 1). State = (r, c_max)."""

    def __init__(self, qpts: np.ndarray, grid: Grid):
        self.m = len(qpts)
        self.slack = grid.half_diag  # √2δ/2

        def column(z):
            d = _centre_dists(qpts, grid, z)
            return d, float(d.min())

        self.cols = _Columns(column)

    def root_state(self):
        return (np.full(self.m, np.inf), 0.0)

    def advance(self, state, zs, dk):
        r, cmax = state
        r = r.copy()
        cols = self.cols
        for z in zs:
            d, c = cols[z]
            np.minimum(r, d, out=r)
            if c > cmax:
                cmax = c
                if cmax - self.slack > dk:
                    return None
        return (r, cmax)

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return max(state[1] - self.slack, 0.0)

    def leaf_lb(self, state, dmax: float, depth: int) -> float:
        r, cmax = state
        return max(max(float(r.max()), cmax) - dmax, 0.0)


class _ColumnEngine:
    """CompLB for the DP measures (Algorithm 1): the state is the
    measure's DP column over the query, boundary entry first, and each
    reference point advances it by the measure's own step (``measures``).

    The measures differ only in the fields. A column's minimum never
    decreases as points are appended, so once it is above d_k + ``slack``
    the chain's subtree is pruned (Eqs. 7, 13). ``slack`` is √2δ/2 where
    the costs are to cell centres (Frechet), and 0 where they are the
    optimistic ``d'`` to the cell, already a lower bound; for the same
    reason only centre costs subtract the leaf's ``D_max`` from ``f_m,n``
    (Eq. 8; DTW's Eq. 14 takes it as it is). A z equal to the one before
    it leaves a Frechet column as it is (a coupling may stay on a point),
    so its step is skipped.
    """

    def __init__(self, start, step, column, *, slack=0.0):
        self.start = start
        self.step = step
        self.cols = _Columns(column)
        self.slack = slack
        self.leaf_dmax = slack > 0
        self.skip_repeats = step is frechet_step

    def root_state(self):
        return self.start

    def advance(self, state, zs, dk):
        f, step, cols = state, self.step, self.cols
        if self.skip_repeats:
            zs = [z for z, _ in groupby(zs)]
        cut = dk + self.slack
        for z in zs:
            f = step(f, *cols[z])
            if min(f) > cut:
                return None
        return f

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return max(min(state) - self.slack, 0.0)

    def leaf_lb(self, state, dmax: float, depth: int) -> float:
        return max(state[-1] - dmax, 0.0) if self.leaf_dmax else state[-1]


class _LcssEngine(_ColumnEngine):
    """LCSS-distance extension: the column holds match counts. Its
    minimum, the boundary entry, stays 0, so ``advance`` never aborts a
    chain; the bounds need the node's depth instead.

    For a node at depth j with max remaining depth s, the final LCSS
    length is ≤ min(max_i(L_i + m − i), max_i L_i + s) and the final
    min(m, n) ≥ min(m, j), giving an admissible distance lower bound.
    """

    def advance(self, state, zs, dk):
        step, cols = self.step, self.cols
        for z in zs:
            state = step(state, *cols[z])
        return state

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        m = len(state) - 1
        ub_diag = max(v + (m - i) for i, v in enumerate(state))
        ub_suffix = max(state) + max_suffix
        ub = ub_diag if ub_diag < ub_suffix else ub_suffix
        denom = max(1, min(m, depth))
        return max(0.0, 1.0 - min(1.0, ub / denom))

    def leaf_lb(self, state, dmax: float, depth: int) -> float:
        denom = max(1, min(len(state) - 1, depth))
        return max(0.0, 1.0 - min(1.0, float(state[-1]) / denom))


def make_engine(
    measure: str,
    qpts: np.ndarray,
    grid: Grid,
    *,
    eps: float | None = None,
    gap: tuple[float, float] | None = None,
):
    """Instantiate the CompLB engine for a measure over ``grid``'s cells
    (``eps``/``gap`` as in ``measures.get_measure``).

    Per cell, a DP engine's column holds the step's arguments after the
    DP column: the query's cost to the cell centre (Frechet) or the
    optimistic ``d'`` to the cell (the rest), from which EDR and LCSS
    keep whether a query point may match a point in it.
    """
    if measure == "hausdorff":
        return _HausdorffEngine(qpts, grid)
    m = len(qpts)
    if measure == "frechet":
        return _ColumnEngine(
            warp_start(m), frechet_step,
            lambda z: (_centre_dists(qpts, grid, z).tolist(),),
            slack=grid.half_diag,
        )
    if measure == "dtw":
        return _ColumnEngine(
            warp_start(m), dtw_step, lambda z: (_cell_dists(qpts, grid, z).tolist(),)
        )
    if measure == "erp":
        # gapping q_i costs the exact d(q_i, g), gapping the data point
        # d'(cell, g) ≤ d(p_j, g)
        g = np.asarray((0.0, 0.0) if gap is None else gap, dtype=float)
        ga = np.sqrt(((qpts - g) ** 2).sum(1)).tolist()
        qg = np.vstack([qpts, g])

        def column(z):
            d = points_to_rects_dist(qg, _cell_rect(grid, z))[:, 0].tolist()
            return d[:-1], d[-1], ga

        return _ColumnEngine(edit_start(ga), erp_step, column)
    if measure == "edr":
        # ERP with unit costs
        ones = [1.0] * m
        return _ColumnEngine(
            edit_start(ones), erp_step,
            lambda z: (np.where(_cell_dists(qpts, grid, z) <= eps, 0.0, 1.0).tolist(), 1.0, ones),
        )
    if measure == "lcss":
        return _LcssEngine(
            [0.0] * (m + 1), lcss_step,
            lambda z: ((_cell_dists(qpts, grid, z) <= eps).tolist(),),
        )
    raise KeyError(measure)


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
#: heap entry kinds: a chain to advance, a leaf to open, a trajectory to refine
CHAIN, LEAF, CAND = 0, 1, 2


class SearchStats:
    """Counters exposed for tests/benchmarks: how much pruning happened."""

    __slots__ = ("nodes_expanded", "leaves_visited", "exact_computed", "pushed", "pruned_pre")

    def __init__(self):
        self.nodes_expanded = 0
        self.leaves_visited = 0
        self.exact_computed = 0
        self.pushed = 0
        #: chains and leaves cut by their pre-bound (LB_p, LB_e) before any DP
        self.pruned_pre = 0


def check_k(k: int) -> None:
    """A top-k needs ``k >= 1``; raise ``ValueError`` otherwise."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


class TopK:
    """The first ``k`` ``(dist, tid)`` below a threshold.

    ``dist``/``tid`` is the threshold: the seed until ``k`` candidates are
    in, then the k-th of them. A float seed ``x`` admits only distances
    below ``x``; a ``(dist, tid)`` seed also admits ``dist`` itself with a
    smaller tid, so DITA's ``(θ, inf)`` admits every distance up to θ.
    """

    __slots__ = ("k", "heap", "dist", "tid")

    def __init__(self, k: int, seed: float | tuple[float, int] = math.inf):
        check_k(k)
        self.k = k
        self.heap: list[tuple[float, int]] = []  # max-heap of (−dist, −tid)
        self.dist, self.tid = seed if isinstance(seed, tuple) else (seed, -math.inf)

    def offer(self, dist: float, tid: int) -> None:
        if dist < self.dist or (dist == self.dist and tid < self.tid):
            heap = self.heap
            heapq.heappush(heap, (-dist, -tid))
            if len(heap) > self.k:
                heapq.heappop(heap)
            if len(heap) == self.k:
                self.dist, self.tid = -heap[0][0], -heap[0][1]

    def result(self) -> list[tuple[float, int]]:
        return sorted((-d, -t) for d, t in self.heap)


class _Pack:
    """One trie of a search: its flat arrays as lists (the loop indexes
    them once per pop, where numpy scalars would cost more), its
    trajectories, and the pre-bound of every chain and leaf, which needs
    no DP: ``chain_pre``/``leaf_pre``.

    A pre-bound is the max of the bounds that apply, 0.0 where none
    does: with ``dqp``, the pivot bound LB_p, from one ``_pivot_lbs``
    call; with ``qpts`` (an ``END_BOUNDED`` measure) and a trie built
    with ``ends``, the least endpoint bound LB_e of the trajectories
    below (``lbe``, in ``tids`` order, from one ``end_bounds`` call), the
    minimum of one range of ``lbe`` per chain and per leaf (leaves are
    in pre-order, ``rptrie``)."""

    __slots__ = (
        "zs", "off", "kid_off", "depth", "suffix", "leaf", "tids", "tid_off", "dmax",
        "trajs", "lbe", "chain_pre", "leaf_pre",
    )

    def __init__(
        self,
        trie: RPTrie,
        trajs: dict[int, np.ndarray],
        dqp: np.ndarray | None,
        qpts: np.ndarray | None = None,
    ):
        self.zs, self.off, self.kid_off = trie.zs.tolist(), trie.off.tolist(), trie.kid_off.tolist()
        self.depth, self.suffix = trie.depth.tolist(), trie.max_suffix.tolist()
        self.leaf, self.tids, self.tid_off = trie.leaf.tolist(), trie.tids.tolist(), trie.tid_off.tolist()
        self.dmax = trie.dmax.tolist()
        self.trajs = trajs
        self.lbe = None
        n = len(self.depth)
        chain, leaf = np.zeros(n), np.zeros(len(self.dmax))
        if dqp is not None:
            lbp = _pivot_lbs(dqp, np.concatenate((trie.hr, trie.leaf_hr)), trie.pivot_slack)
            chain, leaf = lbp[:n], lbp[n:]
        if qpts is not None and trie.ends is not None:
            lbe = end_bounds(qpts, trie.ends)
            # +inf past the end: every range is a reduceat index below len
            lbe_inf = np.append(lbe, np.inf)
            ranges = np.column_stack((trie.sub_lo, trie.sub_hi)).ravel()
            chain = np.maximum(chain, np.minimum.reduceat(lbe_inf, ranges)[::2])
            leaf = np.maximum(leaf, np.minimum.reduceat(lbe_inf, trie.tid_off)[:-1])
            self.lbe = lbe.tolist()
        self.chain_pre, self.leaf_pre = chain.tolist(), leaf.tolist()


def search_tries(
    packs: Sequence[tuple[RPTrie, dict[int, np.ndarray]]],
    qpts: np.ndarray,
    k: int,
    *,
    measure: str,
    eps: float | None = None,
    gap: tuple[float, float] | None = None,
    d_k: float | tuple[float, int] = math.inf,
    stats: SearchStats | None = None,
    dqp: np.ndarray | None = None,
) -> list[tuple[float, int]]:
    """Exact top-k over several RP-Tries at once (Algorithm 2): the first
    ``k`` ``(dist, tid)`` below ``d_k`` of all ``(trie, trajs)`` packs,
    ascending.

    One best-first traversal, as the paper runs one local search per
    core: a heap whose entries name their pack, one threshold and one
    CompLB engine with its cell columns. The tries must share grid,
    measure parameters and pivots (the packs of one index do); each
    keeps its own flat arrays and ``pivot_slack``.

    A popped leaf does not refine its trajectories at once. Each becomes
    a heap entry keyed by the measure's cheap lower bound
    (``measures.get_lower_bound``) and is refined, bounded by the running
    k-th distance, only if it pops at or below it, so refines run in
    bound order and mostly on the final top-k. Hausdorff's cheap bound
    costs most of its kernel, so it refines at the leaf.

    ``d_k`` seeds the threshold (see :class:`TopK`): a float admits only
    distances below it, and a ``(dist, tid)`` pair admits what sorts
    before it. Ties are exact: a bound prunes only when it is strictly
    above the threshold's distance, and each refine gets that distance as
    its ``bound``. ``dqp`` is the query-to-pivot distances of the tries'
    pivots, when the caller has them already; otherwise they are
    computed here. The kernel comes from ``get_measure``; one that takes
    no ``bound`` refines in full (``measures.bounded``).
    """
    top = TopK(k, d_k)
    first = packs[0][0]
    fn = get_measure(measure, eps=eps, gap=gap)
    refine = bounded(fn)
    cand_lb = get_lower_bound(measure, eps=eps, gap=gap)
    engine = make_engine(measure, qpts, first.grid, eps=eps, gap=gap)
    use_pivots = measure in METRICS and first.n_pivots > 0
    if not use_pivots:
        dqp = None
    elif dqp is None:
        dqp = query_pivot_dists(qpts, first.pivots, fn)

    stats = stats or SearchStats()
    counter = 0
    heap: list = []

    def push(lb: float, kind: int, p: _Pack, item) -> None:
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (lb, counter, kind, p, item))
        stats.pushed += 1

    def push_kids(lb: float, p: _Pack, e: int, state, dk: float) -> None:
        """Chain ``e``'s children, each keyed by ``lb`` or its pre-bound
        if larger, and pruned instead if that key is above ``dk``."""
        pre = p.chain_pre
        for c in range(p.kid_off[e], p.kid_off[e + 1]):
            key = pre[c] if pre[c] > lb else lb
            if key > dk:
                stats.pruned_pre += 1
            else:
                push(key, CHAIN, p, (c, 0, state))

    root_state = engine.root_state()
    ends_q = qpts if measure in END_BOUNDED else None
    for trie, trajs in packs:
        push_kids(0.0, _Pack(trie, trajs, dqp, ends_q), 0, root_state, top.dist)

    while heap:
        lb, _, kind, p, item = heapq.heappop(heap)
        dk = top.dist
        if lb > dk:
            break
        if kind == CAND:
            stats.exact_computed += 1
            top.offer(refine(qpts, p.trajs[item], bound=dk), item)
            continue
        if kind == LEAF:
            stats.leaves_visited += 1
            lo, hi = p.tid_off[item], p.tid_off[item + 1]
            tids = p.tids[lo:hi]
            if cand_lb is None:
                for tid in tids:
                    stats.exact_computed += 1
                    top.offer(refine(qpts, p.trajs[tid], bound=top.dist), tid)
                continue
            # the endpoint bounds at hand, else one cheap bound per tid
            clbs = p.lbe[lo:hi] if p.lbe is not None else [cand_lb(qpts, p.trajs[t]) for t in tids]
            for clb, tid in zip(clbs, tids):
                if clb <= dk:
                    push(clb if clb > lb else lb, CAND, p, tid)
            continue
        # CHAIN: advance chain e by one chunk, then re-enqueue — best-first
        # ordering operates at chunk granularity, so no chain runs to its
        # end while d_k is still loose.
        e, pos, state = item
        stats.nodes_expanded += 1
        lo = p.off[e]
        n_chain = p.off[e + 1] - lo
        hi = min(pos + CHAIN_CHUNK, n_chain)
        st = engine.advance(state, p.zs[lo + pos : lo + hi], dk)
        if st is None:
            continue  # monotone bound crossed d_k: subtree pruned
        depth, suffix = p.depth[e], p.suffix[e]
        if hi < n_chain:
            # interior of a single-child run: depth/suffix are derivable
            clb = engine.node_lb(st, depth - n_chain + hi, n_chain - hi + suffix)
            if clb <= dk:
                push(clb, CHAIN, p, (e, hi, st))
            continue
        clb = engine.node_lb(st, depth, suffix)
        if clb > dk:
            continue
        push_kids(clb, p, e, st, dk)
        l = p.leaf[e]
        if l >= 0:
            if p.leaf_pre[l] > dk:
                stats.pruned_pre += 1
                continue
            llb = max(engine.leaf_lb(st, p.dmax[l], depth), p.leaf_pre[l], clb)
            if llb <= dk:
                push(llb, LEAF, p, l)

    return top.result()


def search_topk(
    trie: RPTrie,
    trajs: dict[int, np.ndarray],
    qpts: np.ndarray,
    k: int,
    *,
    measure: str,
    eps: float | None = None,
    gap: tuple[float, float] | None = None,
    d_k: float | tuple[float, int] = math.inf,
    stats: SearchStats | None = None,
    dqp: np.ndarray | None = None,
) -> list[tuple[float, int]]:
    """Exact local top-k of one RP-Trie: :func:`search_tries` on one pack."""
    return search_tries(
        [(trie, trajs)], qpts, k, measure=measure, eps=eps, gap=gap,
        d_k=d_k, stats=stats, dqp=dqp,
    )


def scan_topk(
    fn,
    trajs: Iterable[tuple[int, np.ndarray]],
    qpts: np.ndarray,
    k: int,
    *,
    d_k: float | tuple[float, int] = math.inf,
    lower_bound=None,
) -> list[tuple[float, int]]:
    """The first ``k`` ``(dist, tid)`` below ``d_k`` (as in
    :func:`search_tries`) of ``trajs``, each refined by kernel ``fn`` with
    the running k-th distance as its ``bound``, as REPOSE refines: the
    one local search of an LS, DFT or DITA task, over the candidates of
    all its packs (``LocalPack.search_task``). With the measure's
    ``lower_bound`` (``measures.get_lower_bound``) the refines run in the
    order of that bound, as REPOSE's do, and stop once the next bound is
    above the k-th distance; without one, in the order given."""
    refine = bounded(fn)
    top = TopK(k, d_k)
    if lower_bound is None:
        for tid, pts in trajs:
            top.offer(refine(qpts, pts, bound=top.dist), tid)
        return top.result()
    # tids are distinct, so the sort never compares the arrays
    for lb, tid, pts in sorted((lower_bound(qpts, pts), tid, pts) for tid, pts in trajs):
        if lb > top.dist:
            break
        top.offer(refine(qpts, pts, bound=top.dist), tid)
    return top.result()


def brute_force_topk(
    trajs: Iterable[tuple[int, np.ndarray]],
    qpts: np.ndarray,
    k: int,
    *,
    measure: str,
    eps: float | None = None,
    gap: tuple[float, float] | None = None,
) -> list[tuple[float, int]]:
    """Reference linear scan with the full kernels: the first k by
    ``(dist, tid)``. The tests' oracle."""
    fn = get_measure(measure, eps=eps, gap=gap)
    scored = sorted(
        ((fn(qpts, pts), tid) for tid, pts in trajs), key=lambda x: (x[0], x[1])
    )
    return scored[:k]
