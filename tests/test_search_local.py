"""Local best-first search (Algorithm 2) exactness vs brute force across
all measures, trie modes, k values, and pruning-effectiveness checks."""
from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.measures import END_BOUNDED, METRICS, end_bound, get_measure
from repro.core.pivots import query_pivot_dists
from repro.core.rptrie import RPTrie
from repro.core.search import SearchStats, _Pack, _pivot_lbs, brute_force_topk, search_topk
from repro.core.zorder import Grid
from tests.util import (
    ALL,
    MEASURE_PARAMS,
    assert_same_topk,
    rnd_dataset,
    rnd_query,
)

GRID = Grid.from_bounds(-5, -5, 15, 15, delta=0.8)
DATA = rnd_dataset(2, 200)
PIVOTS = [DATA[10], DATA[50], DATA[99]]


def make_trie(measure, mode=None, pivots=PIVOTS, delta=None):
    kw = MEASURE_PARAMS[measure]
    fn = get_measure(measure, **kw)
    grid = GRID if delta is None else Grid.from_bounds(-5, -5, 15, 15, delta=delta)
    trie = RPTrie(grid, fn, pivots if measure in METRICS else [])
    if mode is None:
        mode = "opt" if measure == "hausdorff" else "basic"
    trie.build(list(DATA.items()), mode=mode, ends=measure in END_BOUNDED)
    return trie


def run_case(measure, k, trie, seed=0, d_k=np.inf):
    kw = MEASURE_PARAMS[measure]
    q = rnd_query(seed)
    stats = SearchStats()
    got = search_topk(trie, DATA, q, k, measure=measure, stats=stats, d_k=d_k, **kw)
    exp = brute_force_topk(DATA.items(), q, k, measure=measure, **kw)
    return got, exp, stats


@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("seed", [0, 1])
def test_exact_topk(measure, k, seed):
    trie = make_trie(measure)
    got, exp, _ = run_case(measure, k, trie, seed=seed)
    assert_same_topk(got, exp)
    assert len(got) == k


@pytest.mark.parametrize("mode", ["basic", "dedup", "opt"])
def test_hausdorff_all_modes_exact(mode):
    trie = make_trie("hausdorff", mode=mode)
    got, exp, _ = run_case("hausdorff", 10, trie)
    assert_same_topk(got, exp)


@pytest.mark.parametrize("measure", ["hausdorff", "frechet", "dtw"])
@pytest.mark.parametrize("delta", [0.3, 0.8, 2.0])
def test_exact_across_grid_granularity(measure, delta):
    trie = make_trie(measure, delta=delta)
    got, exp, _ = run_case(measure, 10, trie, seed=3)
    assert_same_topk(got, exp)


@pytest.mark.parametrize("measure", sorted(METRICS))
def test_exact_without_pivots(measure):
    trie = make_trie(measure, pivots=[])
    got, exp, _ = run_case(measure, 10, trie, seed=4)
    assert_same_topk(got, exp)


def test_k_exceeds_dataset():
    trie = make_trie("hausdorff")
    got, exp, _ = run_case("hausdorff", len(DATA) + 50, trie)
    assert len(got) == len(DATA)
    assert_same_topk(got, exp)


def test_k_equals_dataset():
    trie = make_trie("hausdorff")
    got, exp, _ = run_case("hausdorff", len(DATA), trie)
    assert_same_topk(got, exp)


def test_dk_seed_restricts_results():
    """Seeding d_k (distributed merge path) must not break correctness:
    the answer is exactly the brute-force entries below d_k."""
    trie = make_trie("hausdorff")
    _, exp, _ = run_case("hausdorff", 20, trie, seed=5)
    cut = exp[7][0]
    got, _, _ = run_case("hausdorff", 20, trie, seed=5, d_k=cut)
    assert_same_topk(got, [e for e in exp if e[0] < cut])


@pytest.mark.parametrize("measure", ALL)
def test_pruning_effective(measure):
    """Best-first + bounds must skip most exact computations (the point
    of the RP-Trie) while staying exact."""
    trie = make_trie(measure)
    got, exp, stats = run_case(measure, 10, trie, seed=6)
    assert_same_topk(got, exp)
    assert stats.exact_computed < len(DATA) * 0.75, stats.exact_computed


def test_pruning_stats_counted():
    trie = make_trie("hausdorff")
    _, _, stats = run_case("hausdorff", 5, trie)
    assert stats.nodes_expanded > 0
    assert stats.leaves_visited > 0
    assert stats.pushed >= stats.leaves_visited


def test_pivots_reduce_work():
    """With pivots the search should do no more exact computations than
    without (usually strictly fewer)."""
    q = rnd_query(7)
    kw = {}
    s_no, s_yes = SearchStats(), SearchStats()
    t_no = make_trie("hausdorff", pivots=[])
    t_yes = make_trie("hausdorff")
    a = search_topk(t_no, DATA, q, 10, measure="hausdorff", stats=s_no)
    b = search_topk(t_yes, DATA, q, 10, measure="hausdorff", stats=s_yes)
    assert_same_topk(a, b)
    assert s_yes.exact_computed <= s_no.exact_computed
    assert s_yes.nodes_expanded <= s_no.nodes_expanded
    assert s_yes.pushed <= s_no.pushed


@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("pivots", [True, False], ids=["pivots", "no_pivots"])
@pytest.mark.parametrize("ends", [True, False], ids=["ends", "no_ends"])
def test_pack_pre_bounds(measure, pivots, ends):
    """Every pack has one pre-bound per chain and per leaf, whatever the
    measure: the max of LB_p (a metric with pivots) and the least LB_e of
    the trajectories below (Frechet, a trie built with ``ends``), and
    0.0 where neither applies."""
    kw = MEASURE_PARAMS[measure]
    fn = get_measure(measure, **kw)
    use_p, use_e = pivots and measure in METRICS, ends and measure in END_BOUNDED
    trie = RPTrie(GRID, fn, PIVOTS if use_p else [])
    trie.build(list(DATA.items()), mode="basic", ends=ends)
    q = rnd_query(3)
    dqp = query_pivot_dists(q, PIVOTS, fn) if use_p else None
    p = _Pack(trie, DATA, dqp, q if measure in END_BOUNDED else None)
    assert isinstance(p.chain_pre, list) and len(p.chain_pre) == len(trie.depth)
    assert isinstance(p.leaf_pre, list) and len(p.leaf_pre) == len(trie.dmax)
    tids = trie.tids.tolist()

    def pre(hr, below):
        lbp = float(_pivot_lbs(dqp, hr, trie.pivot_slack)) if use_p else 0.0
        lbe = min((end_bound(q, DATA[t]) for t in below), default=math.inf) if use_e else 0.0
        return max(lbp, lbe)

    for e, got in enumerate(p.chain_pre):
        assert got == pre(trie.hr[e], tids[trie.sub_lo[e] : trie.sub_hi[e]] if use_e else ())
    for l, got in enumerate(p.leaf_pre):
        assert got == pre(trie.leaf_hr[l], tids[trie.tid_off[l] : trie.tid_off[l + 1]])
    assert any(p.chain_pre) == (use_p or use_e)


@pytest.mark.parametrize("measure", ["hausdorff", "frechet"])
def test_given_dqp_matches_inline(measure):
    """Query-to-pivot distances passed in (as ``Repose.query`` ships them)
    give the same ids and the same pruning as computing them inline."""
    trie = make_trie(measure)
    fn = get_measure(measure)
    for seed in range(3):
        q = rnd_query(seed)
        s_inline, s_given = SearchStats(), SearchStats()
        a = search_topk(trie, DATA, q, 10, measure=measure, stats=s_inline)
        dqp = query_pivot_dists(q, PIVOTS, fn)
        b = search_topk(trie, DATA, q, 10, measure=measure, stats=s_given, dqp=dqp)
        assert a == b
        for key in SearchStats.__slots__:
            assert getattr(s_inline, key) == getattr(s_given, key), key


def test_identical_trajectories_share_leaf():
    """Duplicate trajectories collapse into one leaf and both ids are
    returned with distance 0 for a query equal to them."""
    data = dict(DATA)
    data[9001] = data[0].copy()
    trie = RPTrie(GRID, get_measure("hausdorff"), [])
    trie.build(list(data.items()), mode="opt")
    got = search_topk(trie, data, data[0], 2, measure="hausdorff")
    assert {t for _, t in got} == {0, 9001}
    assert all(d == pytest.approx(0.0, abs=1e-12) for d, _ in got)


def test_brute_force_ordering_ties():
    res = brute_force_topk(DATA.items(), rnd_query(8), 10, measure="hausdorff")
    ds = [d for d, _ in res]
    assert ds == sorted(ds)


@pytest.mark.parametrize("measure", ["edr", "lcss"])
@pytest.mark.parametrize("eps", [0.1, 0.5, 2.0])
def test_eps_variants_exact(measure, eps):
    fn_kw = {"eps": eps}
    trie = RPTrie(GRID, get_measure(measure, **fn_kw), [])
    trie.build(list(DATA.items()), mode="basic")
    q = rnd_query(9)
    got = search_topk(trie, DATA, q, 10, measure=measure, **fn_kw)
    exp = brute_force_topk(DATA.items(), q, 10, measure=measure, **fn_kw)
    assert_same_topk(got, exp)


def test_erp_gap_variants_exact():
    for gap in [(0.0, 0.0), (5.0, 5.0), (-3.0, 12.0)]:
        trie = RPTrie(GRID, get_measure("erp", gap=gap), [])
        trie.build(list(DATA.items()), mode="basic")
        q = rnd_query(10)
        got = search_topk(trie, DATA, q, 5, measure="erp", gap=gap)
        exp = brute_force_topk(DATA.items(), q, 5, measure="erp", gap=gap)
        assert_same_topk(got, exp)


def test_single_point_query():
    q = np.array([[4.0, 4.0]])
    trie = make_trie("hausdorff")
    got = search_topk(trie, DATA, q, 5, measure="hausdorff")
    exp = brute_force_topk(DATA.items(), q, 5, measure="hausdorff")
    assert_same_topk(got, exp)


@pytest.mark.parametrize("measure", ALL)
def test_single_point_query_dp_measures(measure):
    """A length-1 query: every DP column has one entry after its
    boundary."""
    kw = MEASURE_PARAMS[measure]
    q = np.array([[4.0, 4.0]])
    trie = make_trie(measure)
    got = search_topk(trie, DATA, q, 5, measure=measure, **kw)
    exp = brute_force_topk(DATA.items(), q, 5, measure=measure, **kw)
    assert_same_topk(got, exp)


@pytest.mark.parametrize("measure", ALL)
def test_single_point_data_query_outside_grid(measure):
    """Length-1 data trajectories, some duplicated, and queries that lie
    outside the grid's bounds, in part or in whole: exact ids. Far from
    the data, EDR and LCSS tie every trajectory, so the ids test the tie
    order too."""
    kw = MEASURE_PARAMS[measure]
    data = rnd_dataset(4, 60, min_len=1, max_len=6)
    data.update({1000 + t: DATA[t][:1] for t in range(0, 40, 2)})
    data.update({2000 + t: data[t].copy() for t in range(0, 60, 5)})
    assert sum(len(p) == 1 for p in data.values()) > 20
    pivots = [data[1000], data[3]] if measure in METRICS else []
    trie = RPTrie(GRID, get_measure(measure, **kw), pivots)
    trie.build(list(data.items()), mode="opt" if measure == "hausdorff" else "basic")
    queries = (
        rnd_query(12) + 25.0,        # beyond the grid's max corner
        np.array([[-9.0, 30.0]]),    # one point, off the grid
        rnd_query(13) - [12.0, 0.0], # straddles the grid's left edge
    )
    for q in queries:
        assert not ((q >= -5) & (q <= 15)).all()
        for k in (1, 7, 25):
            got = search_topk(trie, data, q, k, measure=measure, **kw)
            exp = brute_force_topk(data.items(), q, k, measure=measure, **kw)
            assert_same_topk(got, exp)


@pytest.mark.parametrize("measure", ALL)
def test_plain_kernel_same_search(measure, monkeypatch):
    """A two-argument kernel in place of ``get_measure``'s (as the
    benchmark's counting replay patches it) refines in full, yet the
    search admits the same candidates, so answers and counters match the
    bounded refine's."""
    from repro.core import search

    kw = MEASURE_PARAMS[measure]
    trie = make_trie(measure)
    q = rnd_query(11)
    s_bounded, s_plain = SearchStats(), SearchStats()
    a = search_topk(trie, DATA, q, 10, measure=measure, stats=s_bounded, **kw)
    fn = get_measure(measure, **kw)
    calls = []
    monkeypatch.setattr(
        search, "get_measure", lambda *_, **__: lambda x, y: calls.append(1) or fn(x, y)
    )
    b = search_topk(trie, DATA, q, 10, measure=measure, stats=s_plain, **kw)
    assert a == b
    for key in SearchStats.__slots__:
        assert getattr(s_bounded, key) == getattr(s_plain, key), key
    pivots = len(PIVOTS) if measure in METRICS else 0
    assert len(calls) == s_plain.exact_computed + pivots


@pytest.mark.parametrize("measure", ALL)
def test_scan_in_bound_order(measure):
    """``scan_topk`` with the measure's lower bound gives brute force's
    ids, seeded or not, and stops before the last trajectory (Hausdorff
    has no bound and refines every trajectory in data order)."""
    from repro.core.measures import get_lower_bound
    from repro.core.search import scan_topk

    kw = MEASURE_PARAMS[measure]
    q = rnd_query(6)
    fn = get_measure(measure, **kw)
    lb = get_lower_bound(measure, **kw)
    ranked = brute_force_topk(DATA.items(), q, 15, measure=measure, **kw)
    calls = []
    plain = lambda x, y: calls.append(1) or fn(x, y)  # noqa: E731
    for k, d_k in ((10, np.inf), (10, ranked[12]), (15, ranked[8])):
        exp = [r for r in ranked if r < d_k][:k] if isinstance(d_k, tuple) else ranked[:k]
        assert_same_topk(scan_topk(fn, DATA.items(), q, k, d_k=d_k, lower_bound=lb), exp)
        calls.clear()
        assert_same_topk(scan_topk(plain, DATA.items(), q, k, d_k=d_k, lower_bound=lb), exp)
        # a plain kernel refines in full, so only the bound order saves calls
        assert len(calls) == len(DATA) if lb is None else len(calls) < len(DATA)


def test_one_point_matrix_per_frechet_refine(monkeypatch):
    """A refined Frechet candidate builds its point-distance matrix once:
    its heap key is the endpoint bound, which needs none."""
    from repro.core import measures

    trie = make_trie("frechet")
    fn = get_measure("frechet")
    pruned = 0
    for seed in range(4):
        q = rnd_query(seed)
        dqp = query_pivot_dists(q, PIVOTS, fn)
        calls = []
        real = measures.pair_dists
        monkeypatch.setattr(measures, "pair_dists", lambda a, b: calls.append(1) or real(a, b))
        stats = SearchStats()
        got = search_topk(trie, DATA, q, 10, measure="frechet", stats=stats, dqp=dqp)
        monkeypatch.undo()
        assert_same_topk(got, brute_force_topk(DATA.items(), q, 10, measure="frechet"))
        assert len(calls) == stats.exact_computed > 0
        pruned += stats.pruned_pre
    assert pruned > 0


def test_frechet_trie_without_ends_is_exact():
    """A Frechet trie built without ``ends`` keys each leaf's candidates
    by the measure's cheap bound, cuts nothing by LB_e and still returns
    brute force's ids."""
    fn = get_measure("frechet")
    trie = RPTrie(GRID, fn, PIVOTS)
    trie.build(list(DATA.items()), mode="basic")
    assert trie.ends is None
    for seed in range(3):
        q = rnd_query(seed)
        stats = SearchStats()
        got = search_topk(trie, DATA, q, 10, measure="frechet", stats=stats)
        assert_same_topk(got, brute_force_topk(DATA.items(), q, 10, measure="frechet"))
