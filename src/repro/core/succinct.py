"""Succinct RP-Trie encoding (paper §III-B "Succinct trie structure").

SuRF-inspired two-tier layout: the few, frequently-accessed *upper*
levels are encoded as per-node bitmaps — ``B_c`` marks which cells are
children, ``B_l`` marks which of those children are internal (have
children of their own) — concatenated in breadth-first order for
rank-based access; the many, rarely-accessed *lower* levels are
serialized as compact byte sequences (LEB128 varints).

Documented adaptations (DESIGN.md §3):
* bitmaps are sized by the number of *occupied* cells (dense remap of the
  z-values actually present) so OSM's 360×360 grid does not force
  129,600-bit bitmaps per node;
* a third bitmap ``B_t`` marks children carrying a ``$``-terminal leaf
  (the paper's prose leaves leaf attachment in upper levels implicit);
* each bitmap-level *boundary* node stores a varint child count ahead of
  its byte-serialized subtrees so the stream is self-delimiting.

The encoder reads the trie's flat chain arrays (``core.rptrie``), the
same form the search runs on and Spark ships. It round-trips:
`decode_structure` rebuilds the exact trie shape, in the canonical flat
form of `trie_shape` — verified by tests — and `trie_size_bytes` is the
REPOSE IS metric. Every walk uses an explicit queue or stack, so trie
depth is not bounded by the recursion limit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rptrie import RPTrie

UPPER_LEVELS = 2   # trie depths whose children are encoded as bitmaps
_HR_ENTRY_BYTES = 8  # (min,max) stored as 2 × float32 per pivot


def _varint(n: int, out: bytearray) -> None:
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    shift, val = 0, 0
    while True:
        b = buf[pos]
        pos += 1
        val |= (b & 0x7F) << shift
        if not b & 0x80:
            return val, pos
        shift += 7


@dataclass
class SuccinctTrie:
    """Encoded trie: upper bitmaps + lower byte sequences + payloads."""

    vocab: np.ndarray      # sorted distinct z-values (dense remap)
    upper_bc: np.ndarray   # bit-packed B_c rows, BFS-concatenated
    upper_bl: np.ndarray   # bit-packed B_l rows
    upper_bt: np.ndarray   # bit-packed B_t rows
    lower_blob: bytes      # self-delimiting byte-serialized lower levels
    leaf_blob: bytes       # tids + D_max payloads (all levels)
    n_nodes: int
    n_leaves: int
    n_pivots: int

    @property
    def total_bytes(self) -> int:
        hr = (self.n_nodes + self.n_leaves) * self.n_pivots * _HR_ENTRY_BYTES
        return (
            self.vocab.nbytes
            + self.upper_bc.nbytes
            + self.upper_bl.nbytes
            + self.upper_bt.nbytes
            + len(self.lower_blob)
            + len(self.leaf_blob)
            + hr
        )


def _node_access(trie: RPTrie):
    """Node-level reads of the chain arrays. A node is its flat index into
    ``zs``; −1 is the root. Returns ``kids(j)`` (children, insertion
    order), ``leaf_of(j)`` (leaf index or −1) and, per node, the flat
    index of its chain's end."""
    off, kid_off, leaf = trie.off.tolist(), trie.kid_off.tolist(), trie.leaf.tolist()
    lens = np.diff(trie.off)
    chain = np.repeat(np.arange(len(leaf)), lens).tolist()
    last = np.repeat(trie.off[1:] - 1, lens).tolist()

    def kids(j: int) -> list[int]:
        if j >= 0 and j != last[j]:
            return [j + 1]  # inside a chain: the next node
        e = chain[j] if j >= 0 else 0
        return [off[c] for c in range(kid_off[e], kid_off[e + 1])]

    def leaf_of(j: int) -> int:
        if j < 0:
            return leaf[0]
        return leaf[chain[j]] if j == last[j] else -1

    return kids, leaf_of, last


def _preorder(zs: list[int], kids, has_leaf, root: int) -> list[tuple]:
    """Canonical trie shape: ``(z, has_leaf(j), len(kids(j)))`` for every
    non-root node ``j`` in pre-order, children in ascending z."""
    out = []
    stack = sorted(kids(root), key=zs.__getitem__, reverse=True)
    while stack:
        j = stack.pop()
        below = kids(j)
        out.append((zs[j], has_leaf(j), len(below)))
        stack.extend(sorted(below, key=zs.__getitem__, reverse=True))
    return out


#: when the occupied-cell vocabulary is wider than this, per-node bitmap
#: rows would dwarf byte encoding — restrict bitmaps to the root row
_BITMAP_VOCAB_CAP = 2048


def encode_trie(trie: RPTrie, upper_levels: int | None = None) -> SuccinctTrie:
    """Encode a built RP-Trie into the two-tier succinct layout.

    ``upper_levels`` defaults adaptively: fine grids (wide vocabularies,
    e.g. OSM's 360×360) get bitmap encoding only at the root — a bitmap
    row costs ``3·M'`` bits per node, which for M' in the tens of
    thousands is far larger than the byte form the paper reserves for
    sparse levels.
    """
    vocab = np.unique(trie.zs)
    if upper_levels is None:
        upper_levels = UPPER_LEVELS if len(vocab) <= _BITMAP_VOCAB_CAP else 1
    vidx = {int(z): i for i, z in enumerate(vocab)}
    m = max(1, len(vocab))
    zs = trie.zs.tolist()
    kids, leaf_of, last = _node_access(trie)
    tids, tid_off, dmax = trie.tids.tolist(), trie.tid_off.tolist(), trie.dmax.tolist()
    bc, bl, bt = [], [], []
    lower = bytearray()
    leaf_blob = bytearray()

    def put_leaf(lf: int) -> None:
        """Leaf ``lf``'s tid count, tids and float32 D_max, if it exists."""
        if lf < 0:
            return
        leaf_tids = tids[tid_off[lf] : tid_off[lf + 1]]
        _varint(len(leaf_tids), leaf_blob)
        for t in leaf_tids:
            _varint(t, leaf_blob)
        leaf_blob.extend(np.float32(dmax[lf]).tobytes())

    # BFS over upper-level nodes; each emits one bitmap row. Nodes at
    # depth == upper_levels are "boundary" nodes: present in their
    # parent's bitmaps, but their own subtrees go to the byte stream
    # (child count first, so the stream is self-delimiting).
    queue = [-1]
    boundary: list[int] = []
    depth = 0
    while queue:
        nxt: list[int] = []
        for j in queue:
            put_leaf(leaf_of(j))
            row_c = np.zeros(m, dtype=bool)
            row_l = np.zeros(m, dtype=bool)
            row_t = np.zeros(m, dtype=bool)
            for c in kids(j):
                col = vidx[zs[c]]
                row_c[col] = True
                row_l[col] = bool(kids(c))
                row_t[col] = leaf_of(c) >= 0
            bc.append(row_c)
            bl.append(row_l)
            bt.append(row_t)
            # descend in ascending-z order so the decoder (which recovers
            # children from bitmaps, i.e. z-sorted) walks the same order
            below = nxt if depth + 1 < upper_levels else boundary
            below.extend(sorted(kids(j), key=zs.__getitem__))
        queue = nxt
        depth += 1

    # Lower levels: per boundary node its leaf and child count, then each
    # child subtree depth-first: z, flags = has_leaf | n_children << 1.
    for b in boundary:
        put_leaf(leaf_of(b))
        heads = sorted(kids(b), key=zs.__getitem__)
        _varint(len(heads), lower)
        stack = heads[::-1]
        while stack:
            j = stack.pop()
            end = last[j]
            for i in range(j, end):  # inside a chain: one child, no leaf
                _varint(zs[i], lower)
                _varint(1 << 1, lower)
            below, lf = kids(end), leaf_of(end)
            _varint(zs[end], lower)
            _varint((lf >= 0) | (len(below) << 1), lower)
            put_leaf(lf)
            stack.extend(reversed(below))

    def pack(rows):
        if not rows:
            return np.zeros(0, dtype=np.uint8)
        return np.packbits(np.concatenate(rows))

    return SuccinctTrie(
        vocab=vocab,
        upper_bc=pack(bc),
        upper_bl=pack(bl),
        upper_bt=pack(bt),
        lower_blob=bytes(lower),
        leaf_blob=bytes(leaf_blob),
        n_nodes=len(zs),
        n_leaves=len(trie.dmax),
        n_pivots=trie.n_pivots,
    )


def decode_structure(st: SuccinctTrie, upper_levels: int | None = None) -> list[tuple]:
    """Rebuild the trie *shape* in the canonical form of :func:`trie_shape`.

    Round-trip tested against the flat trie. ``upper_levels`` must match
    the encoder's; ``None`` applies the same adaptive default.
    """
    if upper_levels is None:
        upper_levels = (
            UPPER_LEVELS if len(st.vocab) <= _BITMAP_VOCAB_CAP else 1
        )
    m = max(1, len(st.vocab))
    bits_c = np.unpackbits(st.upper_bc)
    bits_t = np.unpackbits(st.upper_bt)
    zs, kids, has_leaf = [-1], [[]], [False]  # node 0 is the root

    def add(parent: int, z: int, leaf: bool) -> int:
        zs.append(z)
        kids.append([])
        has_leaf.append(leaf)
        kids[parent].append(len(zs) - 1)
        return len(zs) - 1

    # BFS mirroring the encoder: row r of the bitmaps describes the r-th
    # node in BFS order; children are recovered z-sorted, matching the
    # encoder's sorted descent. Boundary nodes (depth == upper_levels)
    # are collected in the same BFS order the encoder emitted their
    # varint-counted subtrees.
    row = 0
    queue = [0]
    boundary: list[int] = []
    depth = 0
    while queue:
        nxt: list[int] = []
        for parent in queue:
            seg_c = bits_c[row * m : (row + 1) * m]
            seg_t = bits_t[row * m : (row + 1) * m]
            row += 1
            below = nxt if depth + 1 < upper_levels else boundary
            for col in np.nonzero(seg_c)[0]:
                below.append(add(parent, int(st.vocab[col]), bool(seg_t[col])))
        queue = nxt
        depth += 1

    pos = 0
    buf = st.lower_blob
    for b in boundary:
        n_children, pos = _read_varint(buf, pos)
        stack = [(b, n_children)]  # (node, children still to parse)
        while stack:
            parent, left = stack.pop()
            if not left:
                continue
            stack.append((parent, left - 1))
            z, pos = _read_varint(buf, pos)
            flags, pos = _read_varint(buf, pos)
            stack.append((add(parent, z, bool(flags & 1)), flags >> 1))
    return _preorder(zs, kids.__getitem__, has_leaf.__getitem__, 0)


def trie_shape(trie: RPTrie) -> list[tuple]:
    """The flat trie's shape: ``(z, has_leaf, n_children)`` per non-root
    node, in pre-order with children in ascending z."""
    kids, leaf_of, _ = _node_access(trie)
    return _preorder(trie.zs.tolist(), kids, lambda j: leaf_of(j) >= 0, -1)


def trie_size_bytes(trie: RPTrie, upper_levels: int | None = None) -> int:
    """IS metric contribution of one partition's RP-Trie."""
    return encode_trie(trie, upper_levels).total_bytes
