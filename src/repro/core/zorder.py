"""Z-order grid discretization (paper §III-A).

A square region ``A`` with side ``U`` encloses all trajectories; it is
split into an ``l × l`` grid of cells with side ``δ = U / l``. Each cell
has a z-value (horizontal-bit-first interleaving, paper Example 2) and a
reference point (its center). A trajectory maps to a *reference
trajectory*: the per-point sequence of cell reference points / z-values.

Deviation from the paper (documented in DESIGN.md §3): ``l`` need not be
a power of two — given a requested δ we take ``l = ceil(U/δ)`` and
``bits = ceil(log2 l)`` bits per axis, so a δ sweep yields distinct grids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def interleave(ix: np.ndarray, iy: np.ndarray, bits: int) -> np.ndarray:
    """Bit-interleave cell coords into z-values, horizontal (x) bit first.

    Paper Example 2: x=0b010, y=0b101 → z=0b011001 (x's MSB is the
    z-value's MSB).
    """
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    z = np.zeros_like(ix)
    for b in range(bits - 1, -1, -1):
        z = (z << 1) | ((ix >> b) & 1)
        z = (z << 1) | ((iy >> b) & 1)
    return z


def deinterleave(z: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`interleave`."""
    z = np.asarray(z, dtype=np.int64)
    ix = np.zeros_like(z)
    iy = np.zeros_like(z)
    for b in range(bits - 1, -1, -1):
        ix = (ix << 1) | ((z >> (2 * b + 1)) & 1)
        iy = (iy << 1) | ((z >> (2 * b)) & 1)
    return ix, iy


@dataclass(frozen=True)
class Grid:
    """The l×l reference-point grid over square region A (Table I: g, δ)."""

    minx: float
    miny: float
    delta: float  # cell side length δ (effective: U / l)
    l: int        # cells per axis
    bits: int     # bits per axis in the z-value

    @classmethod
    def from_bounds(
        cls,
        minx: float,
        miny: float,
        maxx: float,
        maxy: float,
        delta: float,
    ) -> "Grid":
        """Build the grid for requested cell side ``delta``.

        The region is squared up to side ``U = max(width, height)`` as in
        the paper; the effective δ is ``U / ceil(U/delta)`` ≤ requested.
        """
        u = max(maxx - minx, maxy - miny)
        if u <= 0:
            u = max(delta, 1e-9)
        l = max(1, math.ceil(u / delta))
        bits = max(1, math.ceil(math.log2(l))) if l > 1 else 1
        return cls(minx=minx, miny=miny, delta=u / l, l=l, bits=bits)

    # -- point → cell --------------------------------------------------
    def cells_of(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-point integer cell coordinates, clipped into the grid."""
        ix = np.clip(((np.asarray(xs) - self.minx) / self.delta).astype(np.int64), 0, self.l - 1)
        iy = np.clip(((np.asarray(ys) - self.miny) / self.delta).astype(np.int64), 0, self.l - 1)
        return ix, iy

    def z_of_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        ix, iy = self.cells_of(xs, ys)
        return interleave(ix, iy, self.bits)

    # -- cell → geometry ----------------------------------------------
    def cell_index(self, z: int) -> tuple[int, int]:
        """Integer cell coordinates ``(ix, iy)`` of one z-value: the
        scalar :func:`deinterleave`, without numpy's per-call cost."""
        ix = iy = 0
        for b in range(2 * self.bits - 1, 0, -2):
            ix = (ix << 1) | ((z >> b) & 1)
            iy = (iy << 1) | ((z >> (b - 1)) & 1)
        return ix, iy

    def refpoints_of_z(self, zs: np.ndarray) -> np.ndarray:
        """Cell centers (reference points) for z-values; shape (n, 2)."""
        ix, iy = deinterleave(zs, self.bits)
        return np.stack(
            [self.minx + (ix + 0.5) * self.delta, self.miny + (iy + 0.5) * self.delta],
            axis=-1,
        )

    def cell_rects_of_z(self, zs: np.ndarray) -> np.ndarray:
        """Cell bounding boxes [minx, miny, maxx, maxy]; shape (n, 4)."""
        ix, iy = deinterleave(zs, self.bits)
        x0 = self.minx + ix * self.delta
        y0 = self.miny + iy * self.delta
        return np.stack([x0, y0, x0 + self.delta, y0 + self.delta], axis=-1)

    @property
    def half_diag(self) -> float:
        """√2·δ/2 — max distance from a point to its cell's center."""
        return math.sqrt(2.0) * self.delta / 2.0


def ref_trajectory(grid: Grid, pts: np.ndarray) -> np.ndarray:
    """Z-value sequence of a trajectory (Definition 4), same length as τ."""
    return grid.z_of_points(pts[:, 0], pts[:, 1])


def ref_points(grid: Grid, zs: np.ndarray) -> np.ndarray:
    """Reference trajectory τ* as (n, 2) cell-center coordinates."""
    return grid.refpoints_of_z(np.asarray(zs, dtype=np.int64))


def points_to_rects_dist(pts, rects) -> np.ndarray:
    """(m, n) Euclidean distances from each of ``m`` points (m, 2) to
    each of ``n`` rects (n, 4) as [minx, miny, maxx, maxy]: d'(q, cell)
    of §VI-B, 0 when the point is inside. One point (2,) or one rect (4,)
    is m = 1 or n = 1.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    rects = np.asarray(rects, dtype=float).reshape(-1, 4)
    px, py = pts[:, :1], pts[:, 1:]
    dx = np.maximum(np.maximum(rects[:, 0] - px, px - rects[:, 2]), 0.0)
    dy = np.maximum(np.maximum(rects[:, 1] - py, py - rects[:, 3]), 0.0)
    return np.sqrt(dx * dx + dy * dy)
