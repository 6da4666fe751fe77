"""RP-Trie construction (paper §III-B, §III-C, Appendix B).

Three build modes:

* ``"basic"``  — insert the full z-value sequence in trajectory order
  (required for order-sensitive measures: Frechet, DTW, ERP, EDR, LCSS).
* ``"dedup"``  — order-independent measures only (Hausdorff): keep one
  z-value per distinct cell, first-occurrence order (the *unoptimized*
  trie of Fig. 7).
* ``"opt"``    — ``dedup`` plus greedy hitting-set z-value re-arrangement
  (§III-C / Appendix B): each level's children are chosen most-frequent-
  first over the remaining z-value sets, using the C(Z) − C(Z^z1)
  frequency-difference bookkeeping from the appendix.

The trie has one form, path-compressed flat arrays. A *chain* is a
maximal run of single-child, leaf-free nodes, ending at a branch or leaf
node; chain 0 is the root and holds no node. Chains are numbered
breadth-first, so each chain's children are one contiguous range of
chain ids, in insertion order:

* ``zs[off[e]:off[e+1]]`` — chain ``e``'s z-values, top down. ``zs``
  holds every node once, so ``node_count() == len(zs)``;
* ``depth[e]``, ``max_suffix[e]`` — the chain end's depth and longest
  path below it; ``leaf[e]`` — its leaf index, or −1;
* ``range(kid_off[e], kid_off[e+1])`` — chain ``e``'s children;
* ``hr[e]`` — the (N_p, 2) (min, max) pivot-distance array. The nodes
  of a chain share one subtree, hence one HR;
* per leaf ``l`` (a ``$``-terminal): ``tids[tid_off[l]:tid_off[l+1]]``,
  ``dmax[l]`` (max distance from those trajectories to the node's
  reference trajectory) and ``leaf_hr[l]``.

``refpts``/``rects`` (each node's cell centre and rectangle) are derived
from ``zs`` and not pickled.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

import numpy as np

from .zorder import Grid, ref_points, ref_trajectory


def dedup_first_occurrence(zs: np.ndarray) -> np.ndarray:
    """Distinct z-values in first-occurrence order (§III-C step 1)."""
    _, idx = np.unique(zs, return_index=True)
    return zs[np.sort(idx)]


def _insert_paths(paths: list[np.ndarray]) -> tuple[list[dict], dict]:
    """Sequential insertion (basic / dedup) into a build-time trie:
    per node a ``{z: child}`` dict (node 0 is the root), and the item
    indices whose path ends at each node."""
    kids: list[dict] = [{}]
    ends: dict[int, list[int]] = {}
    for i, zs in enumerate(paths):
        node = 0
        for z in zs.tolist():
            child = kids[node].get(z)
            if child is None:
                child = kids[node][z] = len(kids)
                kids.append({})
            node = child
        ends.setdefault(node, []).append(i)
    return kids, ends


def _greedy_paths(paths: list[np.ndarray]) -> tuple[list[dict], dict]:
    """Greedy hitting-set construction (Appendix B), same output form as
    :func:`_insert_paths`.

    Each task partitions the items (index, remaining z-set) below one
    node: count C(Z) once, pick the most frequent z, split off Z^z (whose
    counts C(Z^z) are taken on the way), and obtain the remaining counts
    as C(Z) − C(Z^z). Sibling tasks share no item, so they run from an
    explicit stack in any order.
    """
    kids: list[dict] = [{}]
    ends: dict[int, list[int]] = {}
    tasks = [(0, [(i, set(zs.tolist())) for i, zs in enumerate(paths)])]
    while tasks:
        node, items = tasks.pop()
        remaining = []
        for it in items:
            if it[1]:
                remaining.append(it)
            else:  # complete path consumed → $-leaf here
                ends.setdefault(node, []).append(it[0])
        counts = Counter()
        for _, zset in remaining:
            counts.update(zset)
        while remaining:
            z1, _ = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
            group, rest = [], []
            sub_counts = Counter()
            for it in remaining:
                if z1 in it[1]:
                    sub_counts.update(it[1])
                    it[1].discard(z1)
                    group.append(it)
                else:
                    rest.append(it)
            counts.subtract(sub_counts)  # C(Z) ← C(Z) − C(Z^z1)
            del counts[z1]
            kids[node][z1] = len(kids)
            kids.append({})
            tasks.append((len(kids) - 1, group))
            remaining = rest
    return kids, ends


class RPTrie:
    """A per-partition reference point trie.

    Parameters
    ----------
    grid : the z-order grid (shared across partitions; built from global
        dataset bounds so reference trajectories agree everywhere).
    fn : exact distance kernel of the active measure (used for pivot
        distances and D_max).
    pivots : global pivot trajectories (empty for non-metrics).
    """

    def __init__(
        self,
        grid: Grid,
        fn: Callable,
        pivots: Sequence[np.ndarray] = (),
        *,
        collapse_ref_for_dists: bool = False,
        need_dmax: bool = True,
    ):
        self.grid = grid
        self.fn = fn
        self.pivots = list(pivots)
        self.n_pivots = len(self.pivots)
        self.pivot_slack = 0.0  # max leaf D_max — slack for the HR bound
        self.n_trajs = 0
        # HR/D_max distances may run on the consecutive-duplicate-collapsed
        # reference trajectory — valid for measures invariant to collapsing
        # (Hausdorff: set semantics; discrete Frechet: couplings may repeat
        # points) and a large build speed-up since the DP cost is O(L²).
        self.collapse_ref_for_dists = collapse_ref_for_dists
        # D_max feeds LB_t (Hausdorff/Frechet) and the pivot slack
        # (metrics); measures that use neither (DTW/EDR/LCSS) skip it.
        self.need_dmax = need_dmax

    # ------------------------------------------------------------------
    def build(self, trajs: Sequence[tuple[int, np.ndarray]], mode: str = "basic") -> None:
        """Index trajectories ``(tid, (n,2) points)`` into the flat arrays."""
        if mode not in ("basic", "dedup", "opt"):
            raise ValueError(f"unknown trie mode {mode!r}")
        tids, paths, pds, dmaxs = [], [], [], []
        for tid, pts in trajs:
            zs = ref_trajectory(self.grid, pts)
            if mode != "basic":
                zs = dedup_first_occurrence(zs)
            zd = zs
            if self.collapse_ref_for_dists and len(zs) > 1:
                zd = zs[np.concatenate([[True], zs[1:] != zs[:-1]])]
            rp = ref_points(self.grid, zd)
            tids.append(tid)
            paths.append(zs)
            pds.append([self.fn(p, rp) for p in self.pivots])
            dmaxs.append(float(self.fn(pts, rp)) if self.need_dmax else 0.0)
        self.n_trajs = len(tids)
        self.pivot_slack = max(dmaxs, default=0.0)
        pds = np.array(pds, dtype=float).reshape(len(tids), self.n_pivots)
        grow = _greedy_paths if mode == "opt" else _insert_paths
        self._flatten(*grow(paths), tids, pds, dmaxs)

    def _flatten(self, kids: list[dict], ends: dict, tids, pds, dmaxs) -> None:
        """Number the chains of the build-time trie breadth-first and
        store them, their leaves and their HR as flat arrays."""
        chain_end = [0]  # build-time node ending each chain (root: chain 0)
        runs: list[list[int]] = [[]]
        depth = [0]
        kid_off = [1]
        for e, end in enumerate(chain_end):  # grows while iterating: BFS
            for z, c in kids[end].items():
                run = [z]
                while len(kids[c]) == 1 and c not in ends:
                    ((z, c),) = kids[c].items()
                    run.append(z)
                chain_end.append(c)
                runs.append(run)
                depth.append(depth[e] + len(run))
            kid_off.append(len(chain_end))
        groups, leaf = [], []  # item indices per leaf; leaf of each chain
        for c in chain_end:
            leaf.append(len(groups) if c in ends else -1)
            if c in ends:
                groups.append(ends[c])
        leaf_hr = np.empty((len(groups), self.n_pivots, 2))
        for l, items in enumerate(groups):
            leaf_hr[l, :, 0] = pds[items].min(axis=0)
            leaf_hr[l, :, 1] = pds[items].max(axis=0)
        # bottom-up: a chain's HR and max suffix cover its children's
        n_chains = len(chain_end)
        hr = np.empty((n_chains, self.n_pivots, 2))
        hr[..., 0], hr[..., 1] = np.inf, -np.inf
        max_suffix = [0] * n_chains
        for e in range(n_chains - 1, -1, -1):
            a, b = kid_off[e], kid_off[e + 1]
            below = hr[a:b]
            if leaf[e] >= 0:
                below = np.concatenate([below, leaf_hr[leaf[e]][None]])
            if len(below):
                hr[e, :, 0] = below[:, :, 0].min(axis=0)
                hr[e, :, 1] = below[:, :, 1].max(axis=0)
            max_suffix[e] = max((len(runs[c]) + max_suffix[c] for c in range(a, b)), default=0)
        self._load({
            "zs": np.array([z for run in runs for z in run], dtype=np.int64),
            "off": np.cumsum([0] + [len(r) for r in runs], dtype=np.int32),
            "depth": np.array(depth, dtype=np.int32),
            "max_suffix": np.array(max_suffix, dtype=np.int32),
            "leaf": np.array(leaf, dtype=np.int32),
            "kid_off": np.array(kid_off, dtype=np.int32),
            "hr": hr,
            "tids": np.array([tids[i] for g in groups for i in g], dtype=np.int64),
            "tid_off": np.cumsum([0] + [len(g) for g in groups], dtype=np.int32),
            "dmax": np.array([max(dmaxs[i] for i in g) for g in groups], dtype=float),
            "leaf_hr": leaf_hr,
        })

    # -- pickling ships the arrays; node geometry is re-derived ----------
    def _load(self, state: dict) -> None:
        self.__dict__.update(state)
        self.refpts = self.grid.refpoints_of_z(self.zs)
        self.rects = self.grid.cell_rects_of_z(self.zs)

    __setstate__ = _load

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["refpts"], state["rects"]
        return state

    # -- stats ---------------------------------------------------------
    def node_count(self) -> int:
        """Number of trie nodes, excluding the root (Fig. 7 metric)."""
        return len(self.zs)
