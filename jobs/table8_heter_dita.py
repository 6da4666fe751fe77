"""Table VIII — REPOSE vs Heter-DITA (DITA on our heterogeneous
partitioning) vs DITA, for DTW and Frechet on T-drive, Xi'an, OSM."""
from __future__ import annotations

from _common import FOCUS_DATASETS, job_main, sweep

MEASURES = ("dtw", "frechet")
#: (row label, system, partitioning strategy or the system's default)
VARIANTS = (
    ("REPOSE", "REPOSE", None),
    ("Heter-DITA", "DITA", "heterogeneous"),
    ("DITA", "DITA", None),
)


def run(spark, profile: str = "lite", datasets=FOCUS_DATASETS,
        measures=MEASURES):
    return sweep(spark, profile, "Table VIII", datasets, lambda ds: [
        (dict(measure=m, algo=label), algo, dict(strategy=s))
        for m in measures for label, algo, s in VARIANTS
    ])


if __name__ == "__main__":
    job_main(run)
