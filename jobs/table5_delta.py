"""Table V — REPOSE query time vs grid cell side δ on T-drive, Xi'an and
OSM, for Hausdorff and Frechet. Also records total trie node counts,
which (together with ``trie_mode``) regenerates the Fig. 7 comparison.
"""
from __future__ import annotations

from _common import FOCUS_DATASETS, job_main, sweep

#: the paper's exact δ sweeps (§VII-B Table V) — spans match, so reusable
DELTAS = {
    "tdrive": (0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
    "xian": (0.005, 0.010, 0.015, 0.020, 0.025, 0.030, 0.035),
    "osm": (0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
}
MEASURES = ("hausdorff", "frechet")


def run(spark, profile: str = "lite", datasets=FOCUS_DATASETS,
        measures=MEASURES, deltas=None):
    return sweep(spark, profile, "Table V", datasets, lambda ds: [
        (dict(delta=d, measure=m), "REPOSE", dict(delta=d))
        for d in (deltas or DELTAS)[ds] for m in measures
    ], lambda obj: {"trie_nodes": obj.total_trie_nodes})


if __name__ == "__main__":
    job_main(run)
