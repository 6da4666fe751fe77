"""RP-Trie construction tests: build modes, HR/D_max invariants, the
$-prefix rule, and the greedy hitting-set arrangement including the
paper's Appendix Example 3 (Table X → Fig. 10) node-for-node."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.measures import get_measure
from repro.core.rptrie import RPTrie, dedup_first_occurrence
from repro.core.zorder import Grid, ref_points, ref_trajectory
from tests.util import rnd_dataset, trie_nodes

GRID = Grid.from_bounds(-5, -5, 15, 15, delta=0.8)


def build(data, mode, measure="hausdorff", pivots=()):
    fn = get_measure(measure)
    trie = RPTrie(GRID, fn, pivots)
    trie.build(list(data.items()), mode=mode)
    return trie


@pytest.fixture(scope="module")
def data():
    return rnd_dataset(0, 120)


def collect_leaf_tids(trie):
    out = []
    for node in trie_nodes(trie):
        if node.leaf is not None:
            out.extend(node.leaf.tids)
    return sorted(out)


@pytest.mark.parametrize("mode", ["basic", "dedup", "opt"])
def test_all_trajectories_indexed(data, mode):
    trie = build(data, mode)
    assert collect_leaf_tids(trie) == sorted(data)


def test_mode_validation(data):
    with pytest.raises(ValueError):
        build(data, "bogus")


def test_opt_has_fewest_nodes(data):
    n_basic = build(data, "basic").node_count()
    n_dedup = build(data, "dedup").node_count()
    n_opt = build(data, "opt").node_count()
    assert n_opt <= n_dedup <= n_basic
    assert n_opt < n_dedup  # re-arrangement actually helps on this data


def test_dedup_first_occurrence():
    zs = np.array([5, 5, 3, 5, 3, 9])
    assert list(dedup_first_occurrence(zs)) == [5, 3, 9]


def test_basic_path_matches_ref_trajectory(data):
    trie = build(data, "basic")
    tid, pts = 7, data[7]
    zs = ref_trajectory(GRID, pts)
    node = trie_nodes(trie)[0]
    for z in zs:
        node = node.children[int(z)]
    assert node.leaf is not None and tid in node.leaf.tids


def test_opt_path_zset_equals_trajectory_zset(data):
    """In the re-arranged trie, the z-value *set* along every root→leaf
    path must equal the trajectory's deduped z-set (order may differ)."""
    trie = build(data, "opt")
    want = {
        tid: set(dedup_first_occurrence(ref_trajectory(GRID, pts)).tolist())
        for tid, pts in data.items()
    }

    def walk(node, path):
        if node.leaf is not None:
            for tid in node.leaf.tids:
                assert set(path) == want[tid], tid
        for z, child in node.children.items():
            walk(child, path + [z])

    walk(trie_nodes(trie)[0], [])


def test_prefix_trajectory_ends_at_internal_node():
    a = np.array([[0.5, 0.5], [3.5, 3.5]])
    b = np.array([[0.5, 0.5], [3.5, 3.5], [7.5, 7.5]])
    trie = build({1: a, 2: b}, "basic")
    za = ref_trajectory(GRID, a)
    node = trie_nodes(trie)[0]
    for z in za:
        node = node.children[int(z)]
    assert node.leaf is not None and node.leaf.tids == [1]
    assert node.children  # trajectory 2 continues below — the "$" rule


def test_leaf_dmax_is_max_dist_to_ref(data):
    fn = get_measure("hausdorff")
    # direct check on a single-trajectory trie
    pts = data[3]
    t1 = build({3: pts}, "dedup")
    zs = dedup_first_occurrence(ref_trajectory(GRID, pts))
    rp = ref_points(GRID, zs)
    node = trie_nodes(t1)[0]
    while node.children:
        node = next(iter(node.children.values()))
    leaf = node.leaf
    assert leaf.dmax == pytest.approx(fn(pts, rp))
    assert leaf.dmax <= GRID.half_diag + 1e-9


def test_hr_brackets_pivot_distances(data):
    fn = get_measure("hausdorff")
    pivots = [data[10], data[20]]
    trie = build(data, "dedup", pivots=pivots)

    def subtree_tids(node):
        out = []
        stack = [node]
        while stack:
            n = stack.pop()
            if n.leaf is not None:
                out.extend(n.leaf.tids)
            stack.extend(n.children.values())
        return out

    def path_check(node, zs):
        if node.z >= 0:
            zs = zs + [node.z]
        for tid in subtree_tids(node):
            ref = ref_points(
                GRID,
                dedup_first_occurrence(ref_trajectory(GRID, data[tid])),
            )
            for i, pv in enumerate(pivots):
                d = fn(pv, ref)
                assert node.hr[i, 0] - 1e-9 <= d <= node.hr[i, 1] + 1e-9
        for c in node.children.values():
            path_check(c, zs)

    path_check(trie_nodes(trie)[0], [])


def test_pivot_slack_covers_all_dmax(data):
    trie = build(data, "dedup", pivots=[data[0]])
    for node in trie_nodes(trie):
        if node.leaf is not None:
            assert node.leaf.dmax <= trie.pivot_slack + 1e-12


def test_max_suffix(data):
    trie = build(data, "basic")

    def depth_below(node):
        if not node.children:
            return 0
        return 1 + max(depth_below(c) for c in node.children.values())

    for node in trie_nodes(trie):
        assert node.max_suffix == depth_below(node)


def test_chain_compression_frozen(data):
    """Chains tile the node array; every chain ends at a branch or leaf
    node and runs through single-child, leaf-free nodes only; a child
    chain's end lies its length below its parent's end."""
    trie = build(data, "basic")
    lens = np.diff(trie.off)
    n_kids = np.diff(trie.kid_off)
    assert lens[0] == 0 and (lens[1:] >= 1).all()  # chain 0 is the root
    assert lens.sum() == trie.node_count()
    assert ((n_kids[1:] != 1) | (trie.leaf[1:] >= 0)).all()
    for e in range(len(lens)):
        for c in range(trie.kid_off[e], trie.kid_off[e + 1]):
            assert trie.depth[c] == trie.depth[e] + lens[c]
    seen = 0
    for node in trie_nodes(trie)[1:]:
        # a node with one child and no leaf is never a chain end
        if len(node.children) == 1 and node.leaf is None:
            seen += 1
    assert seen == trie.node_count() - (len(lens) - 1) > 0


# --------------------------------------------- Appendix B, Example 3 / Fig 10

def _example3_trie():
    """Construct trajectories whose z-sets match Table X exactly.

    Grid: bounds (0,0,4,4), δ=1 → l=4, bits=2. A z-value deinterleaves to
    a cell whose center we use as the trajectory point, so each
    trajectory's z-set is exactly the Table X set.
    """
    from repro.core.zorder import deinterleave

    grid = Grid.from_bounds(0, 0, 4, 4, delta=1.0)
    table_x = {
        1: [0b0001, 0b0011],
        2: [0b0001, 0b0011, 0b0101],
        3: [0b0010, 0b0011],
        4: [0b0010, 0b0011, 0b0101],
        5: [0b0011, 0b0101],
        6: [0b0001, 0b0100],
        7: [0b0010, 0b0100],
        8: [0b0101, 0b0110],
    }
    data = {}
    for tid, zs in table_x.items():
        ix, iy = deinterleave(np.array(zs), 2)
        data[tid] = np.column_stack([ix + 0.5, iy + 0.5]).astype(float)
    trie = RPTrie(grid, get_measure("hausdorff"), [])
    trie.build(list(data.items()), mode="opt")
    return trie, table_x


def test_example3_first_level():
    """Appendix Example 3: first-level children are 0011 (5 trajs),
    0100 (2 trajs), 0101 (1 traj)."""
    trie, _ = _example3_trie()
    root = trie_nodes(trie)[0]
    assert set(root.children) == {0b0011, 0b0100, 0b0101}

    def subtree_count(node):
        c = len(node.leaf.tids) if node.leaf else 0
        return c + sum(subtree_count(ch) for ch in node.children.values())

    counts = {z: subtree_count(n) for z, n in root.children.items()}
    assert counts == {0b0011: 5, 0b0100: 2, 0b0101: 1}


def test_example3_full_shape():
    """Fig. 10: 11 nodes total; e1=0011 has children {0101, 0001, 0010};
    0101-under-0011 holds Z5's $-leaf and children {0001 (Z2), 0010 (Z4)}."""
    trie, table_x = _example3_trie()
    assert trie.node_count() == 11
    root = trie_nodes(trie)[0]
    e1 = root.children[0b0011]
    assert set(e1.children) == {0b0101, 0b0001, 0b0010}
    z5node = e1.children[0b0101]
    assert z5node.leaf is not None and z5node.leaf.tids == [5]
    assert set(z5node.children) == {0b0001, 0b0010}
    assert z5node.children[0b0001].leaf.tids == [2]
    assert z5node.children[0b0010].leaf.tids == [4]
    e2 = root.children[0b0100]
    assert {t for c in e2.children.values() for t in c.leaf.tids} == {6, 7}
    e3 = root.children[0b0101]
    (only_child,) = e3.children.values()
    assert only_child.leaf.tids == [8]


def test_example3_hitting_set_property():
    """Every level's chosen cells form a hitting set of the remaining
    z-sets (Definition 5): each trajectory's set meets its path."""
    trie, table_x = _example3_trie()

    def walk(node, path):
        if node.leaf is not None:
            for tid in node.leaf.tids:
                assert set(path) == set(table_x[tid])
        for z, c in node.children.items():
            walk(c, path + [z])

    walk(trie_nodes(trie)[0], [])
