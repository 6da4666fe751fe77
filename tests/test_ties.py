"""Tie-exact answers: the first k by ``(dist, tid)`` when duplicate
trajectories sit at the k-th distance.

Each case duplicates the trajectory at the k-th place of the answer
under a smaller and a larger free tid, so the k-th place must go to the
smaller copy. The copies are placed three ways, as the framework can
meet them: in one pack, in two packs of one task (one local search over
both: REPOSE's best-first traversal, or the one ``scan_topk`` over
every pack's candidates of LS, DFT and DITA), and in two tasks whose
top-k lists only the driver merges. Locally for all six measures, then
through Spark for REPOSE, LS, DFT and DITA.
"""
from __future__ import annotations

import pytest

from repro.core.search import brute_force_topk, search_topk
from repro.core.zorder import Grid
from repro.dist.framework import LocalPack
from repro.dist.repose import ReposePack
from tests.util import ALL, MEASURE_PARAMS, assert_same_topk, rnd_dataset, rnd_query

GRID = Grid.from_bounds(-5, -5, 15, 15, delta=0.8)
#: base tids are multiples of 10, so every copy can take a free tid
BASE = {10 * (t + 1): pts for t, pts in rnd_dataset(3, 120).items()}
K = 5


def with_copies(measure, seed):
    """BASE plus two copies of the query's k-th answer, at tids just
    below and just above it; returns the data, the query and the tids."""
    kw = MEASURE_PARAMS[measure]
    q = rnd_query(seed)
    kth = brute_force_topk(BASE.items(), q, K, measure=measure, **kw)[-1][1]
    lo, hi = kth - 3, kth + 3
    data = {**BASE, lo: BASE[kth].copy(), hi: BASE[kth].copy()}
    return data, q, kth, lo, hi


def pack(pid, trajs, measure):
    kw = MEASURE_PARAMS[measure]
    return ReposePack(pid, list(trajs.items()), {
        "measure": measure,
        "grid": GRID,
        "trie_mode": "opt" if measure == "hausdorff" else "basic",
        "pivots": [BASE[20], BASE[500]],
        "eps": kw.get("eps"),
        "gap": kw.get("gap"),
    })


def ls_pack(pid, trajs, measure):
    return LocalPack(pid, list(trajs.items()), {"measure": measure, **MEASURE_PARAMS[measure]})


def split(data, kth, lo):
    """Two halves of ``data``: the original k-th answer in the first and
    its smaller copy in the second, the rest alternating by tid."""
    a, b = {}, {}
    for i, (t, pts) in enumerate(sorted(data.items())):
        side = a if t == kth else b if t == lo else (a, b)[i % 2]
        side[t] = pts
    return a, b


@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("seed", [0, 1])
def test_ties_in_one_pack(measure, seed):
    data, q, kth, lo, _ = with_copies(measure, seed)
    kw = MEASURE_PARAMS[measure]
    trie = pack(0, data, measure).trie
    exp = brute_force_topk(data.items(), q, K, measure=measure, **kw)
    assert lo in [t for _, t in exp]
    for k in (K, K + 1, K + 2):
        exp = brute_force_topk(data.items(), q, k, measure=measure, **kw)
        assert_same_topk(search_topk(trie, data, q, k, measure=measure, **kw), exp)


@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("seed", [0, 1])
def test_ties_in_two_packs_of_one_task(measure, seed):
    """REPOSE and LS packs, either pack first: the task searches both
    as one."""
    data, q, kth, lo, _ = with_copies(measure, seed)
    a, b = split(data, kth, lo)
    exp = brute_force_topk(data.items(), q, K, measure=measure, **MEASURE_PARAMS[measure])
    for make in (pack, ls_pack):
        packs = [make(0, a, measure), make(1, b, measure)]
        for order in (packs, packs[::-1]):
            assert_same_topk(type(order[0]).search_task(order, q, K, {}), exp)


@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("seed", [0, 1])
def test_ties_in_two_tasks(measure, seed):
    """Each task searches from no threshold; the driver's merge picks."""
    data, q, kth, lo, _ = with_copies(measure, seed)
    a, b = split(data, kth, lo)
    exp = brute_force_topk(data.items(), q, K, measure=measure, **MEASURE_PARAMS[measure])
    tops = [ReposePack.search_task([pack(pid, half, measure)], q, K, {}) for pid, half in enumerate((a, b))]
    assert_same_topk(sorted(tops[0] + tops[1])[:K], exp)


# ------------------------------------------------------------ through Spark

#: copies of the duplicated trajectory: more than four per pack, so a
#: pack's own top-k can cut through its copies, a task holds copies in
#: several packs, and so does every task
def _copies(n_packs):
    return 4 * n_packs + 1


@pytest.fixture(scope="module")
def tie_data(spark, tdrive_trajs, tdrive_queries):
    """tdrive_trajs re-keyed to multiples of 10, plus copies of the
    query's 3rd Frechet answer at free tids spread over the whole range."""
    n_packs = 2 * spark.sparkContext.defaultParallelism
    base = {10 * (t + 1): pts for t, pts in tdrive_trajs}
    _, q = tdrive_queries[0]
    third = brute_force_topk(base.items(), q, 3, measure="frechet")[-1][1]
    tids = sorted(base)
    step = len(tids) // _copies(n_packs)
    copies = [tids[i * step] + 5 for i in range(_copies(n_packs))]
    data = {**base, **{t: base[third].copy() for t in copies}}
    rows = [(t, p[:, 0].tolist(), p[:, 1].tolist()) for t, p in sorted(data.items())]
    df = spark.createDataFrame(rows, "tid long, xs array<double>, ys array<double>")
    return df, data, q, n_packs, set(copies) | {third}


def placements(index, group) -> set[str]:
    """Which of the three placements the tie group meets in ``index``."""
    n_tasks = index.rdd.getNumPartitions()
    held = {p.pid: len(group & set(dict(p.trajs))) for p in index.rdd.collect()}
    pids = [pid for pid, n in held.items() if n]
    tasks = [pid % n_tasks for pid in pids]
    found = set()
    if any(n > 1 for n in held.values()):
        found.add("one pack")
    if len(tasks) > len(set(tasks)):
        found.add("two packs of one task")
    if len(set(tasks)) > 1:
        found.add("two tasks")
    return found


@pytest.mark.parametrize(
    ("measure", "system"),
    [(m, s) for m in ("hausdorff", "frechet") for s in ("repose", "ls", "dft")]
    + [("frechet", "dita")],  # DITA has no Hausdorff
)
def test_ties_through_spark(spark, tie_data, system, measure):
    from repro.baselines.dft import Dft
    from repro.baselines.dita import Dita
    from repro.baselines.ls import Ls
    from repro.dist.repose import Repose

    df, data, q, n_packs, group = tie_data
    if system == "repose":
        index = Repose(spark, df, measure=measure, delta=0.15, n_partitions=n_packs)
    else:
        cls = {"ls": Ls, "dft": Dft, "dita": Dita}[system]
        index = cls(spark, df, measure=measure, n_partitions=n_packs, strategy="heterogeneous")
    assert placements(index, group) == {"one pack", "two packs of one task", "two tasks"}
    ranked = brute_force_topk(data.items(), q, len(data), measure=measure)
    at = [i for i, (_, t) in enumerate(ranked) if t in group]
    assert len({ranked[i][0] for i in at}) == 1  # the copies tie
    # k cuts the tie group after its first member, in its middle, and
    # before its last
    for k in (at[0] + 1, at[0] + len(at) // 2, at[-1]):
        assert_same_topk(index.query(q, k), ranked[:k])
        assert len(index.last_local_times) == index.rdd.getNumPartitions()
    index.unpersist()
