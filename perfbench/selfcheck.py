"""Smoke-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Checks, in two to three minutes:

* the oracle's distances equal the naive reference kernels of
  ``repro.core.measures_ref`` on smoke-size data;
* every workload, untraced and traced, run through ``run.py`` on the
  ``smoke`` profile with a few seconds of queries, ends with a result line
  that names every metric with its unit, is correct and has no failed
  query (the traced run is only correct when its in-process replay
  returns the same answers as ``Repose.query``);
* without the program beside it, ``run.py`` exits non-zero and prints no
  result.

Exits non-zero on the first problem found.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle  # noqa: E402
from perfbench.harness import E2E_UNITS  # noqa: E402
from perfbench.layers import UNITS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def check_oracle() -> None:
    import numpy as np

    from repro.core.measures_ref import frechet_ref, hausdorff_ref

    g = np.random.default_rng(0)
    trajs = [np.cumsum(g.normal(0, 1, (int(g.integers(2, 30)), 2)), axis=0) for _ in range(40)]
    data = oracle.Dataset(np.arange(len(trajs)), trajs)
    ref = {"hausdorff": hausdorff_ref, "frechet": frechet_ref}
    for measure, kernel in oracle.KERNELS.items():
        for q in trajs[:5]:
            got = dict(zip(data.tids.tolist(), kernel(data, q).tolist()))
            for tid, t in enumerate(trajs):
                want = ref[measure](q, t)
                assert abs(got[tid] - want) <= 1e-9, (measure, tid, got[tid], want)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "3",
        "--trace", str(trace), "--profile", "smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, proc.stdout
    units = UNITS if trace else E2E_UNITS
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, (workload, trace, got)
    if not trace:
        assert result["metrics"]["exact_frac"]["value"] == 1.0
    else:  # the traced run prints its own end-to-end numbers too
        traced = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("traced ")}
        assert traced == set(E2E_UNITS), traced


def check_without_program() -> None:
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(next(iter(WORKLOADS)), 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_oracle()
    print("oracle matches the reference kernels")
    check_without_program()
    print("run.py refuses to run without the program")
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"{workload} trace={trace}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
