"""Table VI — REPOSE query time vs pivot count N_p ∈ {1,3,5,7,9,11} on
T-drive, Xi'an and OSM, for Hausdorff and Frechet."""
from __future__ import annotations

from _common import FOCUS_DATASETS, job_main, sweep

N_PIVOTS = (1, 3, 5, 7, 9, 11)
MEASURES = ("hausdorff", "frechet")


def run(spark, profile: str = "lite", datasets=FOCUS_DATASETS,
        measures=MEASURES, n_pivots=N_PIVOTS):
    return sweep(spark, profile, "Table VI", datasets, lambda ds: [
        (dict(n_p=n, measure=m), "REPOSE", dict(n_pivots=n))
        for n in n_pivots for m in measures
    ])


if __name__ == "__main__":
    job_main(run)
