"""The benchmark's workloads.

Each workload names the generated dataset and the index parameters. The
program receives only the generated DataFrame and query trajectories;
the workload name never reaches ``repro``.
"""
from __future__ import annotations

from dataclasses import dataclass

#: shared by every workload (paper §VII-A defaults)
N_PARTITIONS = 16
STRATEGY = "heterogeneous"
N_PIVOTS = 5
K = 10
#: timed set-ups per untraced run; ``setup_s`` is their median. The
#: first set-up of a process is the slowest, as the process's first
#: Spark jobs of each kind run in it; the median of three is a later one.
SETUPS = 3
#: distinct query trajectories per run; the closed loop cycles through
#: them if it gets further within the run time
QUERY_POOL = 64
#: pool queries replayed in-process by the traced run
REPLAY_QUERIES = 8


#: ``query_tail_ms`` percentile (README.md says why it leaves fewer than
#: ten timed queries beyond it)
TAIL_PCT = 75.0


@dataclass(frozen=True)
class Workload:
    dataset: str
    measure: str
    trie_mode: str
    #: trajectories at the "lite" profile; the "smoke" profile uses the
    #: generator's own smoke size
    n_lite: int


#: why each workload is here: README.md and BENCHMARK.json
WORKLOADS = {
    "xian-hausdorff": Workload(dataset="xian", measure="hausdorff", trie_mode="opt", n_lite=1200),
    "xian-frechet": Workload(dataset="xian", measure="frechet", trie_mode="basic", n_lite=3000),
}
