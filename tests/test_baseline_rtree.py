"""STR R-tree substrate tests: packing invariants and range-query
equivalence with a naive scan."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rtree import STRtree
from repro.core.zorder import points_to_rects_dist


def rnd_rects(rng, n, scale=100.0):
    p = rng.uniform(0, scale, (n, 2))
    wh = rng.uniform(0.1, 2.0, (n, 2))
    return np.column_stack([p, p + wh])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 10, 500, 2000])
def test_query_near_matches_naive(seed, n):
    rng = np.random.default_rng(seed)
    rects = rnd_rects(rng, n)
    tree = STRtree(rects)
    q = rng.uniform(0, 100, (7, 2))
    theta = rng.uniform(1.0, 30.0)
    got = set(tree.query_near(q, theta, rects).tolist())
    naive = set(np.nonzero(points_to_rects_dist(q, rects).min(axis=0) < theta)[0].tolist())
    assert got == naive


def test_empty_tree():
    tree = STRtree(np.zeros((0, 4)))
    q = np.array([[0.0, 0.0]])
    assert len(tree.query_near(q, 5.0, np.zeros((0, 4)))) == 0


def test_node_mbrs_cover_children():
    rng = np.random.default_rng(9)
    rects = rnd_rects(rng, 300)
    tree = STRtree(rects, capacity=8)
    leaf_rects = rects[tree.perm]
    mbrs, offs = tree.levels[0]
    for j in range(len(mbrs)):
        chunk = leaf_rects[offs[j] : offs[j + 1]]
        assert mbrs[j, 0] <= chunk[:, 0].min() + 1e-12
        assert mbrs[j, 1] <= chunk[:, 1].min() + 1e-12
        assert mbrs[j, 2] >= chunk[:, 2].max() - 1e-12
        assert mbrs[j, 3] >= chunk[:, 3].max() - 1e-12


@pytest.mark.parametrize("n, capacity", [(1, 32), (33, 32), (300, 8), (1000, 16)])
def test_levels_equal_the_per_node_loop(n, capacity):
    """Each level's node MBRs are exactly the min/max of their children,
    as a loop over the nodes computes them."""
    rects = rnd_rects(np.random.default_rng(n), n)
    tree = STRtree(rects, capacity=capacity)
    cur = rects[tree.perm]
    for mbrs, offs in tree.levels:
        want = np.array([
            [*cur[a:b, :2].min(0), *cur[a:b, 2:].max(0)] for a, b in zip(offs[:-1], offs[1:])
        ])
        assert mbrs.dtype == want.dtype and np.array_equal(mbrs, want)
        cur = mbrs


def test_top_level_single_root():
    rng = np.random.default_rng(10)
    tree = STRtree(rnd_rects(rng, 1000), capacity=16)
    assert len(tree.levels[-1][0]) == 1


def test_perm_is_permutation():
    rng = np.random.default_rng(11)
    tree = STRtree(rnd_rects(rng, 777))
    assert sorted(tree.perm.tolist()) == list(range(777))


def test_nbytes_positive():
    rng = np.random.default_rng(12)
    tree = STRtree(rnd_rects(rng, 100))
    assert tree.nbytes > 0


def test_min_qdist_values():
    rects = np.array([[0.0, 0.0, 1.0, 1.0], [10.0, 10.0, 11.0, 11.0]])
    q = np.array([[2.0, 0.5], [0.5, 0.5]])
    d = points_to_rects_dist(q, rects).min(axis=0)
    assert d[0] == pytest.approx(0.0)  # q2 inside rect 0
    # rect 1: q1=(2,0.5) → hypot(8, 9.5); q2=(0.5,0.5) → hypot(9.5, 9.5)
    assert d[1] == pytest.approx(np.hypot(8.0, 9.5))


def test_theta_zero_returns_nothing_far():
    rng = np.random.default_rng(13)
    rects = rnd_rects(rng, 50)
    tree = STRtree(rects)
    q = np.array([[1e6, 1e6]])
    assert len(tree.query_near(q, 1.0, rects)) == 0
