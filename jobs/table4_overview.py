"""Table IV — performance overview: QT (s), IS (MB), IT (s) for
{REPOSE, DITA, DFT, LS} × {Hausdorff, Frechet, DTW} × 7 datasets.

Cells the paper marks "/" (DITA×Hausdorff; LS index rows) stay "/".
"""
from __future__ import annotations

from _common import ALL_DATASETS, ALGOS, job_main, sweep

MEASURES = ("hausdorff", "frechet", "dtw")
ALGO_ORDER = ("REPOSE", "DITA", "DFT", "LS")


def index_columns(obj) -> dict:
    """IS and IT; none for LS, which builds no index."""
    if isinstance(obj, ALGOS["LS"]):
        return {}
    return {"is_mb": round(obj.index_bytes / 1e6, 2), "it_s": round(obj.build_time, 2)}


def run(spark, profile: str = "lite", datasets=ALL_DATASETS, measures=MEASURES):
    return sweep(spark, profile, "Table IV", datasets, lambda ds: [
        (dict(measure=m, algo=a), None if (a, m) == ("DITA", "hausdorff") else a, {})
        for m in measures for a in ALGO_ORDER
    ], index_columns)


if __name__ == "__main__":
    job_main(run)
