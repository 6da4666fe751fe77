"""Table VII — effect of the global partitioning strategy on REPOSE:
heterogeneous vs homogeneous vs random, with the RP-Trie as local index,
on T-drive, Xi'an and OSM for Hausdorff and Frechet."""
from __future__ import annotations

from _common import FOCUS_DATASETS, job_main, sweep

STRATEGIES = ("heterogeneous", "homogeneous", "random")
MEASURES = ("hausdorff", "frechet")


def run(spark, profile: str = "lite", datasets=FOCUS_DATASETS,
        measures=MEASURES, strategies=STRATEGIES):
    return sweep(spark, profile, "Table VII", datasets, lambda ds: [
        (dict(measure=m, strategy=s), "REPOSE", dict(strategy=s))
        for m in measures for s in strategies
    ])


if __name__ == "__main__":
    job_main(run)
