"""Z-order grid tests: paper Example 2, interleave round-trips, grid
geometry, reference trajectories, point-to-cell distances."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import zorder as Z


def test_example2_interleave():
    # paper Example 2: horizontal 010, vertical 101 → z = 011001
    assert Z.interleave(np.array([0b010]), np.array([0b101]), 3)[0] == 0b011001


def test_interleave_horizontal_bit_first():
    # single-bit grid: x=1,y=0 → 10; x=0,y=1 → 01
    assert Z.interleave(np.array([1]), np.array([0]), 1)[0] == 0b10
    assert Z.interleave(np.array([0]), np.array([1]), 1)[0] == 0b01


@settings(max_examples=50, deadline=None)
@given(ix=st.integers(0, 2**10 - 1), iy=st.integers(0, 2**10 - 1))
def test_interleave_roundtrip(ix, iy):
    z = Z.interleave(np.array([ix]), np.array([iy]), 10)
    rx, ry = Z.deinterleave(z, 10)
    assert (rx[0], ry[0]) == (ix, iy)


def test_interleave_is_injective():
    bits = 4
    seen = set()
    for ix in range(2**bits):
        for iy in range(2**bits):
            z = int(Z.interleave(np.array([ix]), np.array([iy]), bits)[0])
            assert z not in seen
            seen.add(z)


# ------------------------------------------------------------------- grid

def test_grid_from_bounds_effective_delta():
    g = Z.Grid.from_bounds(0, 0, 10, 8, delta=0.3)
    # region squared up to U = 10; l = ceil(10/0.3) = 34; δ_eff = 10/34
    assert g.l == 34
    assert g.delta == pytest.approx(10 / 34)
    assert g.delta <= 0.3
    assert g.bits == math.ceil(math.log2(34))


def test_grid_delta_exact_divisor():
    g = Z.Grid.from_bounds(0, 0, 8, 8, delta=1.0)
    assert g.l == 8 and g.delta == 1.0 and g.bits == 3


def test_cells_clip_out_of_range():
    g = Z.Grid.from_bounds(0, 0, 8, 8, delta=1.0)
    ix, iy = g.cells_of(np.array([-5.0, 100.0]), np.array([3.5, -1.0]))
    assert list(ix) == [0, 7]
    assert list(iy) == [3, 0]


def test_refpoint_is_cell_center():
    g = Z.Grid.from_bounds(0, 0, 8, 8, delta=1.0)
    z = g.z_of_points(np.array([2.3]), np.array([5.9]))
    rp = g.refpoints_of_z(z)[0]
    assert rp == pytest.approx([2.5, 5.5])


@pytest.mark.parametrize("delta", [0.7, 0.05])
def test_cell_index_is_scalar_deinterleave(delta):
    """The scalar cell lookup the search uses agrees with the array one."""
    g = Z.Grid.from_bounds(0.0, 0.0, 10.0, 7.0, delta=delta)
    zs = np.arange(4**g.bits)
    ix, iy = Z.deinterleave(zs, g.bits)
    assert [g.cell_index(int(z)) for z in zs] == list(zip(ix.tolist(), iy.tolist()))


def test_cell_rect_contains_point():
    g = Z.Grid.from_bounds(-3, 2, 5, 10, delta=0.7)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-3, 5, 50)
    ys = rng.uniform(2, 10, 50)
    zs = g.z_of_points(xs, ys)
    rects = g.cell_rects_of_z(zs)
    assert (rects[:, 0] <= xs + 1e-9).all() and (xs <= rects[:, 2] + 1e-9).all()
    assert (rects[:, 1] <= ys + 1e-9).all() and (ys <= rects[:, 3] + 1e-9).all()


def test_half_diag_bounds_point_to_refpoint():
    g = Z.Grid.from_bounds(0, 0, 8, 8, delta=0.9)
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 8, 200)
    ys = rng.uniform(0, 8, 200)
    rp = g.refpoints_of_z(g.z_of_points(xs, ys))
    d = np.hypot(xs - rp[:, 0], ys - rp[:, 1])
    assert (d <= g.half_diag + 1e-9).all()
    assert g.half_diag == pytest.approx(math.sqrt(2) * g.delta / 2)


def test_ref_trajectory_same_length():
    g = Z.Grid.from_bounds(0, 0, 8, 8, delta=1.0)
    pts = np.array([[0.5, 0.5], [0.6, 0.4], [7.5, 7.5]])
    zs = Z.ref_trajectory(g, pts)
    assert len(zs) == 3
    assert zs[0] == zs[1]  # same cell


def test_ref_points_shape():
    g = Z.Grid.from_bounds(0, 0, 8, 8, delta=1.0)
    rp = Z.ref_points(g, [0, 1, 2])
    assert rp.shape == (3, 2)


def test_cells_per_axis():
    g = Z.Grid.from_bounds(0, 0, 8, 8, delta=2.0)
    assert (g.l, g.delta) == (4, 2.0)


def test_degenerate_bounds():
    g = Z.Grid.from_bounds(1, 1, 1, 1, delta=0.5)
    assert g.l >= 1
    z = g.z_of_points(np.array([1.0]), np.array([1.0]))
    assert len(z) == 1


# -------------------------------------------------------- rect distances

def test_point_to_rects_zero_inside():
    rects = np.array([[0.0, 0.0, 2.0, 2.0]])
    assert Z.points_to_rects_dist(np.array([1.0, 1.0]), rects)[0, 0] == 0.0


def test_point_to_rects_outside():
    rects = np.array([[0.0, 0.0, 2.0, 2.0]])
    # corner distance
    assert Z.points_to_rects_dist(np.array([5.0, 6.0]), rects)[0, 0] == pytest.approx(5.0)
    # edge distance
    assert Z.points_to_rects_dist(np.array([1.0, -3.0]), rects)[0, 0] == pytest.approx(3.0)


def test_points_to_rect_matches_pointwise():
    """Each entry of the (m, n) matrix is its one point's distance to its
    one rect, bit for bit."""
    rng = np.random.default_rng(2)
    pts = rng.uniform(-5, 5, (40, 2))
    rects = np.array([[-1.0, -0.5, 1.5, 2.0], [2.0, 3.0, 2.5, 4.0]])
    got = Z.points_to_rects_dist(pts, rects)
    assert got.shape == (40, 2)
    for p, row in zip(pts, got):
        for rect, d in zip(rects, row):
            assert d == Z.points_to_rects_dist(p, rect)[0, 0]
            assert d == pytest.approx(np.hypot(
                max(rect[0] - p[0], p[0] - rect[2], 0.0), max(rect[1] - p[1], p[1] - rect[3], 0.0)
            ))


@settings(max_examples=40, deadline=None)
@given(
    px=st.floats(-20, 20), py=st.floats(-20, 20),
    cx=st.floats(-10, 10), cy=st.floats(-10, 10),
    w=st.floats(0.1, 5), h=st.floats(0.1, 5),
)
def test_hyp_rect_dist_lower_bounds_interior_points(px, py, cx, cy, w, h):
    """d'(q, cell) ≤ d(q, p) for any p inside the cell — the property the
    DTW/EDR/LCSS lower bounds rely on (§VI-B)."""
    rect = np.array([[cx, cy, cx + w, cy + h]])
    q = np.array([px, py])
    d = Z.points_to_rects_dist(q, rect)[0, 0]
    rng = np.random.default_rng(0)
    inside = np.column_stack(
        [rng.uniform(cx, cx + w, 20), rng.uniform(cy, cy + h, 20)]
    )
    dists = np.hypot(inside[:, 0] - px, inside[:, 1] - py)
    assert d <= dists.min() + 1e-9
