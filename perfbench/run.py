"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload xian-frechet --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
replay and prints the per-layer metrics (see README.md). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The full record, spans included, is written to
``.perfbench_out/`` under the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# ``repro`` from this checkout's ``src``, and this package
PATHS = [str(ROOT / "src"), str(ROOT)]
sys.path[:0] = PATHS

from perfbench.workloads import WORKLOADS  # noqa: E402


def _prepare_environment(scratch: Path) -> None:
    """Make the same imports work in Spark's Python workers, and keep
    every temporary file under ``scratch``."""
    os.environ["PYTHONPATH"] = os.pathsep.join(PATHS)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    # the JVMs would otherwise write their perf counters under /tmp
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("lite", "smoke"), default="lite")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp" / f"{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    _prepare_environment(scratch)
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch: Path) -> int:
    from perfbench import harness

    w = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    spark = harness.start_spark(scratch)
    spark_s = time.perf_counter() - t0
    try:
        prov = harness.provenance(spark, ROOT)
        inp = harness.make_inputs(spark, w, args.seed, args.profile)
        t1 = time.perf_counter()
        if args.trace:
            from perfbench import layers

            out = layers.measure(spark, inp, args.seconds)
        else:
            out = harness.measure(spark, inp, args.seconds)
        measure_s = time.perf_counter() - t1
        inp.df.unpersist()
        spark.catalog.clearCache()
    finally:
        t2 = time.perf_counter()
        harness.stop_spark(spark)
    stop_s = time.perf_counter() - t2
    prov.update(
        workload=args.workload, seed=args.seed, profile=args.profile,
        seconds=args.seconds, trace=args.trace,
        spark_start_s=spark_s, data_gen_s=inp.gen_s, measure_s=measure_s, stop_s=stop_s,
        n_trajectories=len(inp.data),
    )
    record = {"provenance": prov, **out}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str))

    print("provenance " + json.dumps(prov))
    for f in out["failures"] + out.get("mismatches", []):
        print("FAILED " + f)
    for name, (value, unit) in out.get("traced_e2e", {}).items():
        print(f"traced {name} {value:.6g} {unit}")
    units = out.get("units", harness.E2E_UNITS)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in out["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not (out["failures"] or out.get("mismatches")),
        "attempted": out["attempted"],
        "failed": len(out["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
