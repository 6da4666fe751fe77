"""Lower-bound admissibility and CompLB-incrementality tests.

Verifies, per measure: LB_o of every node on a trajectory's root→leaf
path never exceeds the true distance (Lemma 1/3/4 admissibility), LB is
non-decreasing along the path (Lemma 2 monotonicity), LB_t at the leaf is
admissible and ≥ LB_o, the pivot bound LB_p is admissible for metrics,
and the O(m) incremental CompLB state equals a from-scratch O(mn)
recomputation (Algorithm 1 / Fig. 4 / Fig. 5).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.measures import END_BOUNDED, METRICS, get_measure, pair_dists
from repro.core.rptrie import RPTrie
from repro.core.search import _pivot_lbs, make_engine
from repro.core.zorder import Grid, points_to_rects_dist
from tests.util import ALL, MEASURE_PARAMS, rnd_dataset, rnd_query, trie_nodes

GRID = Grid.from_bounds(-5, -5, 15, 15, delta=0.8)
DATA = rnd_dataset(1, 80)
PIVOTS = [DATA[5], DATA[40]]


def build_trie(measure):
    kw = MEASURE_PARAMS[measure]
    fn = get_measure(measure, **kw)
    pv = PIVOTS if measure in METRICS else []
    trie = RPTrie(GRID, fn, pv)
    mode = "opt" if measure == "hausdorff" else "basic"
    trie.build(list(DATA.items()), mode=mode, ends=measure in END_BOUNDED)
    return trie


def find_path(trie, tid):
    """Root→leaf node chain whose leaf stores ``tid``."""

    def dfs(node, chain):
        if node.leaf is not None and tid in node.leaf.tids:
            return chain
        for c in node.children.values():
            r = dfs(c, chain + [c])
            if r:
                return r
        return None

    return dfs(trie_nodes(trie)[0], [])


def walk(trie, measure, qpts, tid):
    """Replay the engine along tid's path one node at a time (chains of
    length 1 — `advance` is sequential, so this equals chained calls)."""
    kw = MEASURE_PARAMS[measure]
    engine = make_engine(measure, qpts, GRID, **kw)
    chain = find_path(trie, tid)
    assert chain, f"tid {tid} not found"
    state = engine.root_state()
    lbs, states = [], []
    for nxt in chain:
        state = engine.advance(state, [nxt.z], np.inf)
        assert state is not None
        lbs.append(float(engine.node_lb(state, nxt.depth, nxt.max_suffix)))
        states.append(state)
        node = nxt
    leaf_lb = engine.leaf_lb(state, node.leaf.dmax, node.depth)
    return lbs, states, chain, leaf_lb, engine


@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("tid", [0, 17, 42, 63])
def test_lb_admissible_along_path(measure, tid):
    qpts = rnd_query(tid)
    trie = build_trie(measure)
    fn = get_measure(measure, **MEASURE_PARAMS[measure])
    true = fn(qpts, DATA[tid])
    lbs, _, _, leaf_lb, _ = walk(trie, measure, qpts, tid)
    assert all(lb <= true + 1e-9 for lb in lbs), (measure, lbs, true)
    assert leaf_lb <= true + 1e-9


@pytest.mark.parametrize("measure", ["hausdorff", "frechet", "dtw", "erp", "edr"])
@pytest.mark.parametrize("tid", [3, 29])
def test_lb_monotone_along_path(measure, tid):
    """Lemma 2 (and its Frechet/DTW analogues): child LB ≥ parent LB."""
    qpts = rnd_query(100 + tid)
    trie = build_trie(measure)
    lbs, *_ = walk(trie, measure, qpts, tid)
    assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:])), lbs


@pytest.mark.parametrize("measure", ALL)
def test_leaf_lb_at_least_internal_lb(measure):
    qpts = rnd_query(55)
    trie = build_trie(measure)
    lbs, _, _, leaf_lb, _ = walk(trie, measure, qpts, 12)
    assert leaf_lb >= lbs[-1] - 1e-9  # LB_t is the tighter leaf bound


# ------------------------------------------------- CompLB vs batch recompute

def path_refpoints(chain):
    return np.stack([n.refpoint for n in chain])


def test_hausdorff_state_matches_batch():
    """Algorithm 1: incremental (r, c_max) == recomputed from the full
    distance matrix of Fig. 4."""
    qpts = rnd_query(1)
    trie = build_trie("hausdorff")
    _, states, chain, _, _ = walk(trie, "hausdorff", qpts, 33)
    refs = path_refpoints(chain)
    d = pair_dists(qpts, refs)
    r, cmax = states[-1]
    assert np.allclose(r, d.min(axis=1))
    assert cmax == pytest.approx(d.min(axis=0).max())


def test_frechet_state_matches_batch():
    """Incremental column == last column of the full Frechet DP (Fig. 5),
    after the state's boundary entry."""
    qpts = rnd_query(2)
    trie = build_trie("frechet")
    _, states, chain, _, _ = walk(trie, "frechet", qpts, 8)
    refs = path_refpoints(chain)
    d = pair_dists(qpts, refs)
    m, n = d.shape
    f = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            if i == 0 and j == 0:
                best = d[0, 0]
            elif i == 0:
                best = max(d[0, j], f[0, j - 1])
            elif j == 0:
                best = max(d[i, 0], f[i - 1, 0])
            else:
                best = max(d[i, j], min(f[i - 1, j - 1], f[i - 1, j], f[i, j - 1]))
            f[i, j] = best
    assert np.allclose(states[-1][1:], f[:, -1])


def test_dtw_state_matches_batch():
    """Incremental column == last column of the DTW DP over d' (Eq. 15),
    after the state's boundary entry."""
    qpts = rnd_query(3)
    trie = build_trie("dtw")
    _, states, chain, _, _ = walk(trie, "dtw", qpts, 21)
    d = np.stack(
        [points_to_rects_dist(qpts, n.rect)[:, 0] for n in chain], axis=1
    )
    m, n = d.shape
    f = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            if i == 0 and j == 0:
                prev = 0.0
            elif i == 0:
                prev = f[0, j - 1]
            elif j == 0:
                prev = f[i - 1, 0]
            else:
                prev = min(f[i - 1, j - 1], f[i - 1, j], f[i, j - 1])
            f[i, j] = d[i, j] + prev
    assert np.allclose(states[-1][1:], f[:, -1])


# ----------------------------------------------------------- pivot pruning

@pytest.mark.parametrize("measure", sorted(METRICS))
def test_pivot_lb_admissible(measure):
    """LB_p from a leaf's HR never exceeds the true distance of any
    trajectory stored in that leaf (§IV-D with the symmetric bound)."""
    kw = MEASURE_PARAMS[measure]
    fn = get_measure(measure, **kw)
    trie = build_trie(measure)
    qpts = rnd_query(9)
    dqp = np.array([fn(qpts, p) for p in trie.pivots])
    checked = 0
    for node in trie_nodes(trie):
        if node.leaf is None:
            continue
        lbp = float(_pivot_lbs(dqp, node.leaf.hr, trie.pivot_slack))
        for tid in node.leaf.tids:
            assert lbp <= fn(qpts, DATA[tid]) + 1e-9
            checked += 1
    assert checked == len(DATA)


def test_pivot_lb_internal_nodes_admissible():
    fn = get_measure("hausdorff")
    trie = build_trie("hausdorff")
    qpts = rnd_query(10)
    dqp = np.array([fn(qpts, p) for p in trie.pivots])

    def subtree_tids(node):
        out, stack = [], [node]
        while stack:
            n = stack.pop()
            if n.leaf is not None:
                out.extend(n.leaf.tids)
            stack.extend(n.children.values())
        return out

    for node in trie_nodes(trie):
        if node.z < 0:
            continue
        lbp = float(_pivot_lbs(dqp, node.hr, trie.pivot_slack))
        for tid in subtree_tids(node):
            assert lbp <= fn(qpts, DATA[tid]) + 1e-9


def test_pivot_lb_can_prune():
    """For a far-away query, LB_p must actually exceed zero somewhere —
    i.e. the bound does real work."""
    fn = get_measure("hausdorff")
    trie = build_trie("hausdorff")
    qpts = rnd_query(11) + 500.0
    dqp = np.array([fn(qpts, p) for p in trie.pivots])
    lbs = [
        float(_pivot_lbs(dqp, n.leaf.hr, trie.pivot_slack))
        for n in trie_nodes(trie)
        if n.leaf is not None
    ]
    assert max(lbs) > 0


@pytest.mark.parametrize("seed", range(6))
def test_chain_end_bound_admissible(seed):
    """A chain's LB_e (the least endpoint bound over its subtree) is
    never above the exact Frechet distance of a trajectory below it."""
    from repro.core.search import _Pack

    trie = build_trie("frechet")
    q = rnd_query(seed)
    p = _Pack(trie, DATA, None, q)
    fn = get_measure("frechet")
    tids = trie.tids.tolist()
    for e, pre in enumerate(p.chain_pre):
        exact = min(fn(q, DATA[t]) for t in tids[trie.sub_lo[e] : trie.sub_hi[e]])
        assert pre <= exact
