"""Succinct trie encoding tests: exact round-trips across build modes
and grids, size accounting, and compactness vs a plain pointer encoding."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.measures import get_measure
from repro.core.rptrie import RPTrie
from repro.core.succinct import (
    decode_structure, encode_trie, trie_shape, trie_size_bytes,
)
from repro.core.zorder import Grid
from tests.util import rnd_dataset, trie_nodes

GRID = Grid.from_bounds(-5, -5, 15, 15, delta=0.7)


def build(data, mode, pivots=()):
    trie = RPTrie(GRID, get_measure("hausdorff"), pivots)
    trie.build(list(data.items()), mode=mode)
    return trie


@pytest.mark.parametrize("mode", ["basic", "dedup", "opt"])
@pytest.mark.parametrize("seed,n", [(0, 30), (1, 120), (2, 5)])
def test_roundtrip(mode, seed, n):
    trie = build(rnd_dataset(seed, n), mode)
    st = encode_trie(trie)
    assert decode_structure(st) == trie_shape(trie)


@pytest.mark.parametrize("upper", [0, 1, 2, 3, 6])
def test_roundtrip_any_cutoff(upper):
    """The bitmap/byte-sequence boundary can sit at any level."""
    trie = build(rnd_dataset(3, 60), "dedup")
    st = encode_trie(trie, upper_levels=upper)
    assert decode_structure(st, upper_levels=upper) == trie_shape(trie)


def test_node_count_matches():
    trie = build(rnd_dataset(4, 80), "opt")
    st = encode_trie(trie)
    assert st.n_nodes == trie.node_count()
    n_leaves = sum(1 for n in trie_nodes(trie) if n.leaf is not None)
    assert st.n_leaves == n_leaves


def test_single_trajectory():
    trie = build(rnd_dataset(5, 1), "basic")
    st = encode_trie(trie)
    assert decode_structure(st) == trie_shape(trie)
    assert st.total_bytes > 0


def test_vocab_sorted_and_distinct():
    trie = build(rnd_dataset(6, 50), "basic")
    st = encode_trie(trie)
    v = st.vocab
    assert (np.diff(v) > 0).all()


def test_hr_bytes_accounted():
    data = rnd_dataset(7, 40)
    t0 = build(data, "dedup")
    t1 = build(data, "dedup", pivots=[data[0], data[1], data[2]])
    assert trie_size_bytes(t1) > trie_size_bytes(t0)
    delta = trie_size_bytes(t1) - trie_size_bytes(t0)
    st = encode_trie(t1)
    assert delta == (st.n_nodes + st.n_leaves) * 3 * 8  # 3 pivots × 2×f32


def test_more_compact_than_pointer_representation():
    """The succinct layout must beat a plain pointer encoding (≥ 24 B per
    node: 8 B label + 8 B child pointer + 8 B flags) — the paper's
    motivation for the bitmap/byte-sequence split."""
    trie = build(rnd_dataset(8, 150), "dedup")
    st = encode_trie(trie)
    structural = st.total_bytes - len(st.leaf_blob)  # exclude tid payloads
    assert structural < st.n_nodes * 24


def test_opt_trie_encodes_smaller(  ):
    data = rnd_dataset(9, 150)
    assert trie_size_bytes(build(data, "opt")) < trie_size_bytes(build(data, "dedup"))


def test_leaf_blob_parses_all_tids():
    """leaf payloads carry every tid exactly once."""
    from repro.core.succinct import _read_varint

    data = rnd_dataset(10, 60)
    trie = build(data, "dedup")
    st = encode_trie(trie)
    buf, pos, tids = st.leaf_blob, 0, []
    for _ in range(st.n_leaves):
        n, pos = _read_varint(buf, pos)
        for _ in range(n):
            t, pos = _read_varint(buf, pos)
            tids.append(t)
        pos += 4  # float32 D_max
    assert sorted(tids) == sorted(data)
    assert pos == len(buf)
