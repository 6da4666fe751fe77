"""Shared helpers for the test suite."""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.core.measures import METRICS
from repro.core.search import brute_force_topk

#: per-measure extra kwargs used consistently across tests
MEASURE_PARAMS = {
    "hausdorff": {},
    "frechet": {},
    "dtw": {},
    "erp": {"gap": (5.0, 5.0)},
    "edr": {"eps": 0.5},
    "lcss": {"eps": 0.5},
}
ALL = tuple(MEASURE_PARAMS)


def rnd_traj(rng: np.random.Generator, n: int, scale: float = 10.0) -> np.ndarray:
    """A momentum-free random-walk trajectory inside roughly [0, scale]²."""
    p0 = rng.random(2) * scale
    return p0 + np.cumsum(rng.normal(0, scale / 33, (int(n), 2)), axis=0)


def rnd_dataset(seed: int, n: int, min_len: int = 5, max_len: int = 25):
    """Deterministic dict {tid: (len, 2) points}."""
    rng = np.random.default_rng(seed)
    return {
        i: rnd_traj(rng, rng.integers(min_len, max_len + 1)) for i in range(n)
    }


def rnd_query(seed: int, n: int = 12) -> np.ndarray:
    return rnd_traj(np.random.default_rng(seed + 10_000), n)


def assert_same_topk(got, exp, tol=1e-9) -> None:
    """Same ids in the same order, the first k by ``(dist, tid)``, with
    distances within ``tol``."""
    assert [t for _, t in got] == [t for _, t in exp]
    assert all(abs(g[0] - e[0]) <= tol for g, e in zip(got, exp))


def assert_exact_ids(index, trajs, queries, k, measure) -> None:
    """Each answer's ids are the first k by ``(dist, tid)`` of brute force,
    and every Spark task reported a local search time."""
    for _, q in queries:
        got = index.query(q, k)
        exp = brute_force_topk(trajs, q, k, measure=measure)
        assert [t for _, t in got] == [t for _, t in exp]
        assert len(index.last_local_times) == index.rdd.getNumPartitions()


def assert_packs_per_task(spark, index) -> None:
    """N_G packs, one per pid, on min(N_G, cores) Spark partitions, with
    pack sizes that differ by at most 1 (heterogeneous round-robin)."""
    n = index.n_partitions
    cores = spark.sparkContext.defaultParallelism
    assert index.rdd.getNumPartitions() == min(n, cores)
    assert sorted(p.pid for p in index.rdd.collect()) == list(range(n))
    sizes = [s["n_trajs"] for s in index.summaries]
    assert max(sizes) - min(sizes) <= 1


def trie_nodes(trie) -> list[SimpleNamespace]:
    """Every node of an RP-Trie as a plain record, root first, read from
    the trie's flat chain arrays.

    A record has ``z`` (−1 for the root), ``depth``, ``max_suffix``,
    ``hr``, ``refpoint``, ``rect``, ``children`` (``{z: record}`` in
    insertion order) and ``leaf`` (``None`` or a record with ``tids``,
    ``dmax`` and ``hr``). Nodes inside a chain get their depth and max
    suffix counted back from the chain's end, and the chain's HR; its
    reference point and rectangle are its cell's, from the trie's grid.
    """
    refpts = trie.grid.refpoints_of_z(trie.zs)
    rects = trie.grid.cell_rects_of_z(trie.zs)

    def leaf(e):
        lf = int(trie.leaf[e])
        if lf < 0:
            return None
        a, b = trie.tid_off[lf], trie.tid_off[lf + 1]
        return SimpleNamespace(
            tids=trie.tids[a:b].tolist(), dmax=float(trie.dmax[lf]), hr=trie.leaf_hr[lf]
        )

    root = SimpleNamespace(
        z=-1, depth=0, max_suffix=int(trie.max_suffix[0]), hr=trie.hr[0],
        refpoint=None, rect=None, children={}, leaf=leaf(0),
    )
    nodes, chain_end = [root], [root]
    parent = {}
    for e in range(len(trie.leaf)):
        for c in range(trie.kid_off[e], trie.kid_off[e + 1]):
            parent[c] = e
        if e == 0:
            continue
        prev = chain_end[parent[e]]
        lo, hi = int(trie.off[e]), int(trie.off[e + 1])
        for j in range(lo, hi):
            up = hi - 1 - j  # nodes between j and the chain's end
            rec = SimpleNamespace(
                z=int(trie.zs[j]),
                depth=int(trie.depth[e]) - up,
                max_suffix=int(trie.max_suffix[e]) + up,
                hr=trie.hr[e],
                refpoint=refpts[j],
                rect=rects[j],
                children={},
                leaf=leaf(e) if up == 0 else None,
            )
            prev.children[rec.z] = rec
            nodes.append(rec)
            prev = rec
        chain_end.append(prev)
    return nodes
