"""An RP-Trie and its pickled copy are the same trie.

Spark ships every pack pickled, so workers and collected packs search
the copy. For every build mode, with and without pivots, the copy must
have the same node count, the same succinct encoding (bytes and decoded
shape) and the same search answers and ``SearchStats`` counters. A
trajectory through more than 1000 distinct cells makes a trie deeper
than CPython's default recursion limit; building, pickling, encoding,
decoding and searching it must not recurse per level.
"""
from __future__ import annotations

import pickle
import sys

import numpy as np
import pytest

from repro.core.measures import END_BOUNDED, METRICS, get_measure
from repro.core.rptrie import RPTrie
from repro.core.search import SearchStats, brute_force_topk, search_topk
from repro.core.succinct import decode_structure, encode_trie, trie_shape
from repro.core.zorder import Grid
from tests.util import ALL, MEASURE_PARAMS, assert_same_topk, rnd_dataset, rnd_query

GRID = Grid.from_bounds(-5, -5, 15, 15, delta=0.8)
DATA = rnd_dataset(1, 120)
PIVOTS = [DATA[5], DATA[40]]
MODES = ["basic", "dedup", "opt"]


def build(data, mode, grid=GRID, measure="hausdorff", pivots=()):
    trie = RPTrie(grid, get_measure(measure, **MEASURE_PARAMS[measure]), pivots)
    trie.build(list(data.items()), mode=mode, ends=measure in END_BOUNDED)
    return trie


def search(trie, data, q, measure="hausdorff", k=5):
    stats = SearchStats()
    got = search_topk(
        trie, data, q, k, measure=measure, stats=stats, **MEASURE_PARAMS[measure]
    )
    counters = (stats.nodes_expanded, stats.pushed, stats.leaves_visited, stats.exact_computed)
    return got, counters


def assert_copy_is_same_trie(trie, data, queries, measure="hausdorff"):
    copy = pickle.loads(pickle.dumps(trie))
    assert copy.node_count() == trie.node_count()
    enc = encode_trie(copy)
    assert enc.total_bytes == encode_trie(trie).total_bytes
    assert decode_structure(enc) == trie_shape(trie)
    for q in queries:
        assert search(copy, data, q, measure) == search(trie, data, q, measure)


@pytest.mark.parametrize("pivots", [(), PIVOTS], ids=["no_pivots", "pivots"])
@pytest.mark.parametrize("mode", MODES)
def test_pickle_roundtrip(mode, pivots):
    trie = build(DATA, mode, pivots=pivots)
    assert_copy_is_same_trie(trie, DATA, [rnd_query(s) for s in range(3)])


@pytest.mark.parametrize("measure", ALL)
def test_pickle_roundtrip_every_engine(measure):
    """Each engine reads depths, suffixes, HR and D_max from the copy
    (LCSS bounds with the depth of nodes inside a chain), and the copy's
    answers stay exact."""
    pivots = PIVOTS if measure in METRICS else ()
    trie = build(DATA, "basic", measure=measure, pivots=pivots)
    queries = [rnd_query(s, 20) for s in range(4)]
    assert_copy_is_same_trie(trie, DATA, queries, measure)
    copy = pickle.loads(pickle.dumps(trie))
    for q in queries:
        got, _ = search(copy, DATA, q, measure)
        exp = brute_force_topk(DATA.items(), q, 5, measure=measure, **MEASURE_PARAMS[measure])
        assert_same_topk(got, exp)


# ------------------------------------------------------------ a deep trie

DEEP_GRID = Grid.from_bounds(0, 0, 40, 40, delta=1.0)


def deep_dataset():
    """A boustrophedon through 28 rows of a 40×40 grid (1120 distinct
    cells), a copy that leaves it after 700 cells, and a short one."""
    rows = []
    for y in range(28):
        xs = np.arange(40) if y % 2 == 0 else np.arange(39, -1, -1)
        rows.append(np.column_stack([xs + 0.5, np.full(40, y + 0.5)]))
    deep = np.concatenate(rows)
    detour = np.column_stack([np.arange(10) + 0.5, np.full(10, 35.5)])
    return {0: deep, 1: np.concatenate([deep[:700], detour]), 2: deep[:5] + 0.2}


@pytest.fixture
def recursion_limit_1000():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize("mode", MODES)
def test_deep_trie_needs_no_recursion(mode, recursion_limit_1000):
    data = deep_dataset()
    trie = build(data, mode, grid=DEEP_GRID, pivots=[data[2]])
    assert trie.depth.max() > 1000
    queries = [data[0][::10] + 0.3, data[1][::10]]
    assert_copy_is_same_trie(trie, data, queries)
    for q in queries:
        got, _ = search(trie, data, q, k=2)
        assert_same_topk(got, brute_force_topk(data.items(), q, 2, measure="hausdorff"))
