"""Geohash substrate (used by the SOM-TC-style clustering of §V-B).

Provides vectorized *integer* geohash cell codes over arbitrary bounds,
the form ``core.partition`` clusters on: a geohash at ``bits`` precision
is exactly a z-order cell index with interleaved lon/lat bits, and
coarsening the granularity = right-shifting the code — the prefix
property the paper's granularity loop relies on.
"""
from __future__ import annotations

import numpy as np


def int_codes(
    xs: np.ndarray,
    ys: np.ndarray,
    bounds: tuple[float, float, float, float],
    bits_per_axis: int,
) -> np.ndarray:
    """Vectorized integer geohash: interleaved cell codes over ``bounds``.

    ``bits_per_axis`` ≤ 26. Coarsening by one bit per axis is
    ``code >> 2`` (the geohash prefix property used by the §V-B loop).
    """
    minx, miny, maxx, maxy = bounds
    n = 1 << bits_per_axis
    sx = (maxx - minx) or 1.0
    sy = (maxy - miny) or 1.0
    ix = np.clip(((np.asarray(xs) - minx) / sx * n).astype(np.int64), 0, n - 1)
    iy = np.clip(((np.asarray(ys) - miny) / sy * n).astype(np.int64), 0, n - 1)
    code = np.zeros_like(ix)
    for b in range(bits_per_axis - 1, -1, -1):
        code = (code << 1) | ((ix >> b) & 1)
        code = (code << 1) | ((iy >> b) & 1)
    return code
