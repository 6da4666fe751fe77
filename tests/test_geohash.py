"""Geohash substrate tests: integer cell codes and the prefix property
the §V-B clustering loop relies on."""
from __future__ import annotations

import numpy as np

from repro.geo import geohash as G

BOUNDS = (0.0, 0.0, 10.0, 10.0)


def test_int_codes_deterministic_and_ranged():
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(0, 10, 100), rng.uniform(0, 10, 100)
    c1 = G.int_codes(xs, ys, BOUNDS, 8)
    c2 = G.int_codes(xs, ys, BOUNDS, 8)
    assert (c1 == c2).all()
    assert (c1 >= 0).all() and (c1 < 4**8).all()


def test_int_codes_prefix_property():
    """Coarsening by one bit per axis must equal code >> 2."""
    rng = np.random.default_rng(1)
    xs, ys = rng.uniform(0, 10, 200), rng.uniform(0, 10, 200)
    fine = G.int_codes(xs, ys, BOUNDS, 9)
    coarse = G.int_codes(xs, ys, BOUNDS, 8)
    assert (fine >> 2 == coarse).all()


def test_int_codes_clip():
    c = G.int_codes(np.array([-99.0, 99.0]), np.array([5.0, 5.0]), BOUNDS, 4)
    assert (c >= 0).all() and (c < 4**4).all()


def test_int_codes_nearby_points_same_cell():
    c = G.int_codes(np.array([5.0, 5.001]), np.array([5.0, 5.001]), BOUNDS, 6)
    assert c[0] == c[1]


def test_int_codes_distinct_far_points():
    c = G.int_codes(np.array([1.0, 9.0]), np.array([1.0, 9.0]), BOUNDS, 4)
    assert c[0] != c[1]


def test_int_codes_degenerate_bounds():
    c = G.int_codes(np.array([3.0]), np.array([3.0]), (3.0, 3.0, 3.0, 3.0), 5)
    assert len(c) == 1
