"""Smoke tests for the table-reproduction jobs: each harness runs at a
tiny scale and emits the expected rows/columns."""
from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "jobs"))

import table3_datasets
import table4_overview
import table5_delta
import table6_pivots
import table7_partitioning
import table8_heter_dita
import table9_heter_dft
import task_search


def test_table3(spark):
    out = table3_datasets.run(spark, profile="smoke", datasets=("tdrive",))
    assert list(out.dataset) == ["tdrive"]
    assert (out.cardinality > 0).all()


def test_table4(spark):
    out = table4_overview.run(
        spark, profile="smoke", datasets=("tdrive",), measures=("frechet",)
    )
    assert set(out.algo) == {"REPOSE", "DITA", "DFT", "LS"}
    sub = out.set_index("algo")
    assert (sub.loc[["REPOSE", "DITA", "DFT"], "qt_s"] > 0).all()
    assert sub.loc["LS", "is_mb"] is None or sub.loc["LS", "is_mb"] != sub.loc["LS", "is_mb"]


def test_table4_hausdorff_dita_slash(spark):
    out = table4_overview.run(
        spark, profile="smoke", datasets=("tdrive",), measures=("hausdorff",)
    )
    row = out[(out.algo == "DITA")].iloc[0]
    assert row.qt_s is None or row.qt_s != row.qt_s  # "/" cell (NaN)


def test_table5(spark):
    out = table5_delta.run(
        spark, profile="smoke", datasets=("tdrive",), measures=("hausdorff",),
        deltas={"tdrive": (0.1, 0.2)},
    )
    assert len(out) == 2
    assert (out.trie_nodes > 0).all()


def test_table6(spark):
    out = table6_pivots.run(
        spark, profile="smoke", datasets=("tdrive",), measures=("hausdorff",),
        n_pivots=(1, 5),
    )
    assert list(out.n_p) == [1, 5]


def test_table7(spark):
    out = table7_partitioning.run(
        spark, profile="smoke", datasets=("tdrive",), measures=("hausdorff",)
    )
    assert set(out.strategy) == {"heterogeneous", "homogeneous", "random"}


def test_table8(spark):
    out = table8_heter_dita.run(
        spark, profile="smoke", datasets=("tdrive",), measures=("frechet",)
    )
    assert set(out.algo) == {"REPOSE", "Heter-DITA", "DITA"}


def test_table9(spark):
    out = table9_heter_dft.run(
        spark, profile="smoke", datasets=("tdrive",), measures=("hausdorff",)
    )
    assert set(out.algo) == {"REPOSE", "Heter-DFT", "DFT"}


def test_task_search(spark):
    """REPOSE's and LS's task searches return the same ids (the job
    asserts it) and a row per measure."""
    out = task_search.run(spark, profile="smoke")
    assert list(out.measure) == ["hausdorff", "frechet", "dtw"]
    assert (out[["repose_ms", "ls_ms"]] > 0).all().all()
