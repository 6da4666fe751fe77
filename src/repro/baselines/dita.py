"""DITA baseline [Shang, Li, Bao, SIGMOD'18] (paper §VII-A).

Each trajectory is compressed to a fixed-length *representative*: its
first point, last point, and the ``N_pp − 2`` interior points with the
largest neighbour-distance (DITA's pivot points). A partition-local trie
groups representatives level by level (coarse grid cells per level, each
trie node keeping the tight MBR of its points). Global partitioning is
homogeneous by first point, and a global index of per-partition
first-point MBRs prunes partitions (valid for Frechet/DTW: the first
points of query and result must be within the threshold — this is the
"computing resource waste" mechanism the paper criticizes).

Top-k: estimate a global threshold θ from a random sample (documented
simplification of DITA's iterative halving — DESIGN.md §3), traverse the
trie pruning nodes whose level-MBR is farther than θ from the relevant
query point(s), refine candidates exactly, merge on the driver.

DITA supports Frechet / DTW / EDR / LCSS but *not* Hausdorff (its pivot
representatives require ordered endpoint alignment); `Dita` raises for
unsupported measures, mirroring the "/" cells of Table IV.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.theta import ThetaTopK
from repro.core.measures import get_measure
from repro.dist.framework import LocalPack

_POINT_BYTES = 16
_GRID = 8  # per-level grouping grid (g × g cells per trie node)

SUPPORTED = frozenset({"frechet", "dtw", "edr", "lcss"})


def representative(pts: np.ndarray, n_pp: int = 4) -> np.ndarray:
    """DITA pivot points: first, last, and largest-neighbour-distance
    interior points, kept in trajectory order; padded by repetition."""
    n = len(pts)
    if n <= n_pp:
        idx = list(range(n)) + [n - 1] * (n_pp - n)
        return pts[np.array(idx)]
    seg = np.sqrt(((pts[1:] - pts[:-1]) ** 2).sum(1))
    score = seg[:-1] + seg[1:]  # neighbour distance of interior points
    interior = np.argsort(-score, kind="stable")[: n_pp - 2] + 1
    idx = np.sort(np.concatenate([[0], interior, [n - 1]]))
    return pts[idx]


class _TrieNode:
    __slots__ = ("mbr", "children", "tids")

    def __init__(self):
        self.mbr = None          # (4,) tight MBR of this level's points
        self.children = {}       # cell -> _TrieNode
        self.tids = []           # populated at the last level


def _build_trie(reps: np.ndarray, tids: np.ndarray, bounds, n_pp: int):
    """Group representatives into a trie: level d keyed by the coarse
    grid cell of pivot point d, with tight per-node MBRs."""
    minx, miny, maxx, maxy = bounds
    sx = (maxx - minx) or 1.0
    sy = (maxy - miny) or 1.0
    root = _TrieNode()
    for r, tid in zip(reps, tids):
        node = root
        for d in range(n_pp):
            x, y = r[d]
            cell = (
                min(int((x - minx) / sx * _GRID), _GRID - 1),
                min(int((y - miny) / sy * _GRID), _GRID - 1),
            )
            child = node.children.get(cell)
            if child is None:
                child = _TrieNode()
                node.children[cell] = child
            if child.mbr is None:
                child.mbr = np.array([x, y, x, y])
            else:
                m = child.mbr
                m[0] = min(m[0], x)
                m[1] = min(m[1], y)
                m[2] = max(m[2], x)
                m[3] = max(m[3], y)
            node = child
        node.tids.append(int(tid))
    return root


def _mbr_dist_point(q: np.ndarray, mbr: np.ndarray) -> float:
    dx = max(mbr[0] - q[0], q[0] - mbr[2], 0.0)
    dy = max(mbr[1] - q[1], q[1] - mbr[3], 0.0)
    return float(np.hypot(dx, dy))


def _mbr_dist_any(qpts: np.ndarray, mbr: np.ndarray) -> float:
    dx = np.maximum(np.maximum(mbr[0] - qpts[:, 0], qpts[:, 0] - mbr[2]), 0.0)
    dy = np.maximum(np.maximum(mbr[1] - qpts[:, 1], qpts[:, 1] - mbr[3]), 0.0)
    return float(np.sqrt(dx * dx + dy * dy).min())


class DitaPack(LocalPack):
    def __init__(self, pid, trajs, cfg):
        t0 = time.perf_counter()
        self.trajs = dict(trajs)
        self.fn = get_measure(cfg["measure"], eps=cfg.get("eps"), gap=cfg.get("gap"))
        self.n_pp = cfg["n_pp"]
        tids = np.array([t for t, _ in trajs], dtype=np.int64)
        reps = np.stack(
            [representative(p, self.n_pp) for _, p in trajs]
        ) if trajs else np.zeros((0, self.n_pp, 2))
        self.trie = _build_trie(reps, tids, cfg["bounds"], self.n_pp)
        # first-point MBR for the global index
        if len(trajs):
            firsts = np.stack([p[0] for _, p in trajs])
            self.first_mbr = (
                float(firsts[:, 0].min()), float(firsts[:, 1].min()),
                float(firsts[:, 0].max()), float(firsts[:, 1].max()),
            )
        else:
            self.first_mbr = None
        n_points = sum(len(p) for p in self.trajs.values())
        n_nodes = self._count_nodes(self.trie)
        idx_bytes = (
            n_points * _POINT_BYTES
            + reps.nbytes                  # fixed-length representatives
            + n_nodes * (4 * 8 + 16)       # node MBR + bookkeeping
        )
        super().__init__(pid, len(trajs), time.perf_counter() - t0, idx_bytes)

    @staticmethod
    def _count_nodes(node) -> int:
        return 1 + sum(DitaPack._count_nodes(c) for c in node.children.values())

    def summary(self):
        s = super().summary()
        s["first_mbr"] = self.first_mbr
        return s

    def _candidates(self, qpts: np.ndarray, theta: float) -> list[int]:
        q_first, q_last = qpts[0], qpts[-1]
        out: list[int] = []
        stack = [(self.trie, 0)]
        while stack:
            node, depth = stack.pop()
            for child in node.children.values():
                # level-specific pruning: endpoints align under Frechet/
                # DTW couplings; interior pivots must be near *some*
                # query point
                if depth == 0:
                    d = _mbr_dist_point(q_first, child.mbr)
                elif depth == self.n_pp - 1:
                    d = _mbr_dist_point(q_last, child.mbr)
                else:
                    d = _mbr_dist_any(qpts, child.mbr)
                if d > theta:
                    continue
                if depth == self.n_pp - 1:
                    out.extend(child.tids)
                else:
                    stack.append((child, depth + 1))
        return out

    def search(self, qpts, k, ctx):
        if self.pid in ctx.get("skip", ()):  # global partition pruning
            return []
        theta = ctx["theta"]
        cand = self._candidates(qpts, theta)
        scored = sorted(
            ((self.fn(qpts, self.trajs[t]), t) for t in cand),
            key=lambda x: (x[0], x[1]),
        )
        return [st for st in scored if st[0] <= theta][:k]


class Dita(ThetaTopK):
    """Distributed DITA. Default partitioning: homogeneous by first
    point; pass ``strategy="heterogeneous"`` for Heter-DITA (Table VIII).
    """

    def __init__(
        self,
        spark: SparkSession,
        traj_df: DataFrame,
        *,
        measure: str = "frechet",
        n_partitions: int = 16,
        strategy: str = "homogeneous",
        n_pp: int = 4,
        eps: float | None = None,
        gap: tuple[float, float] | None = None,
        sample_pool: int = 200,
        seed: int = 0,
        **_,
    ):
        if measure not in SUPPORTED:
            raise ValueError(f"DITA does not support {measure!r} (paper Table IV)")
        super().__init__(
            spark,
            traj_df,
            lambda pid, trajs, c: DitaPack(pid, trajs, c),
            measure=measure,
            eps=eps,
            gap=gap,
            sample_pool=sample_pool,
            seed=seed,
            config={"n_pp": n_pp},
            n_partitions=n_partitions,
            strategy=strategy,
            key_mode="first",
        )

    def query_ctx(self, qpts, theta):
        # global index: prune partitions whose first-point MBR is farther
        # than θ from the query's first point
        skip = frozenset(
            s["pid"]
            for s in self.summaries
            if s.get("first_mbr") is not None
            and _mbr_dist_point(qpts[0], np.asarray(s["first_mbr"])) > theta
        )
        return {"theta": theta, "skip": skip}
