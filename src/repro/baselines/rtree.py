"""STR-packed R-tree substrate (numpy), used by the DFT baseline.

Bulk-loads rectangle MBRs with the classic Sort-Tile-Recursive packing:
sort by x-center, tile into vertical slabs, sort each slab by y-center,
pack fixed-capacity nodes level by level. Levels are flat arrays so
traversal is vectorized: a whole frontier of nodes is scored per level
with one broadcasted min-point-to-rect computation.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.zorder import points_to_rects_dist


class STRtree:
    """Static R-tree over ``mbrs`` (n, 4) as [minx, miny, maxx, maxy]."""

    def __init__(self, mbrs: np.ndarray, capacity: int = 32):
        self.capacity = capacity
        n = len(mbrs)
        self.n_entries = n
        if n == 0:
            self.perm = np.zeros(0, dtype=np.int64)
            self.levels = []
            return
        cx = (mbrs[:, 0] + mbrs[:, 2]) / 2
        cy = (mbrs[:, 1] + mbrs[:, 3]) / 2
        # STR packing of the leaf level
        n_nodes = math.ceil(n / capacity)
        n_slabs = max(1, math.ceil(math.sqrt(n_nodes)))
        slab_size = math.ceil(n / n_slabs) if n_slabs else n
        by_x = np.argsort(cx, kind="stable")
        perm = np.empty(n, dtype=np.int64)
        pos = 0
        for s in range(0, n, slab_size):
            slab = by_x[s : s + slab_size]
            slab = slab[np.argsort(cy[slab], kind="stable")]
            perm[pos : pos + len(slab)] = slab
            pos += len(slab)
        self.perm = perm  # entry order at the leaf level
        # build levels bottom-up: level[i] = (node_mbrs, child_offsets)
        self.levels: list[tuple[np.ndarray, np.ndarray]] = []
        cur = mbrs[perm]
        while len(cur) > 1 or not self.levels:
            k = math.ceil(len(cur) / capacity)
            offs = np.minimum(np.arange(k + 1) * capacity, len(cur))
            node_mbrs = np.hstack([
                np.minimum.reduceat(cur[:, :2], offs[:-1]),
                np.maximum.reduceat(cur[:, 2:], offs[:-1]),
            ])
            self.levels.append((node_mbrs, offs))
            cur = node_mbrs
            if k == 1:
                break

    @property
    def nbytes(self) -> int:
        return self.perm.nbytes + sum(
            m.nbytes + o.nbytes for m, o in self.levels
        )

    def query_near(
        self, qpts: np.ndarray, theta: float, entry_mbrs: np.ndarray
    ) -> np.ndarray:
        """Original indices of entries with min-query-distance < ``theta``.

        Descends only nodes whose MBR is within ``theta`` of some query
        point; one vectorized distance evaluation per level.
        """
        if self.n_entries == 0:
            return np.zeros(0, dtype=np.int64)
        top_mbrs, _ = self.levels[-1]
        frontier = np.arange(len(top_mbrs))
        frontier = frontier[points_to_rects_dist(qpts, top_mbrs).min(axis=0) < theta]
        for li in range(len(self.levels) - 1, 0, -1):
            _, offs = self.levels[li]
            child_ids = np.concatenate(
                [np.arange(offs[j], offs[j + 1]) for j in frontier]
            ) if len(frontier) else np.zeros(0, dtype=np.int64)
            child_mbrs = self.levels[li - 1][0][child_ids]
            keep = points_to_rects_dist(qpts, child_mbrs).min(axis=0) < theta
            frontier = child_ids[keep]
            if len(frontier) == 0:
                return np.zeros(0, dtype=np.int64)
        if len(frontier) == 0:
            return np.zeros(0, dtype=np.int64)
        # frontier = leaf-level node ids → expand to entries
        _, offs = self.levels[0]
        entry_pos = np.concatenate(
            [np.arange(offs[j], offs[j + 1]) for j in frontier]
        )
        cand = self.perm[entry_pos]
        keep = points_to_rects_dist(qpts, entry_mbrs[cand]).min(axis=0) < theta
        return cand[keep]
