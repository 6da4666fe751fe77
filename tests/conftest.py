"""Shared Spark fixtures for the distributed tests.

The ``spark`` session fixture comes from the repo-root conftest. Here we
add session-scoped datasets and driver-side materializations so many
tests share one generation/collection pass.
"""
from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def tdrive_smoke(spark):
    """Small clustered trajectory DataFrame (cached)."""
    from repro import synth_data

    df = synth_data.trajectories(spark, "tdrive", profile="smoke", n=220).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def tdrive_trajs(tdrive_smoke):
    """Driver-side [(tid, pts)] of the same dataset."""
    pdf = tdrive_smoke.toPandas()
    return [
        (int(r["tid"]), np.column_stack([np.asarray(r["xs"]), np.asarray(r["ys"])]))
        for _, r in pdf.iterrows()
    ]


@pytest.fixture(scope="session")
def tdrive_queries(tdrive_smoke):
    from repro import synth_data

    return synth_data.sample_queries(tdrive_smoke, 3)


@pytest.fixture(scope="session")
def tdrive_dups(spark, tdrive_trajs):
    """The first 80 trajectories of ``tdrive_trajs`` and a copy of every
    fourth under tid + 10000: a DataFrame (cached) and its ``(tid, pts)``."""
    trajs = tdrive_trajs[:80]
    trajs = trajs + [(t + 10000, p.copy()) for t, p in trajs[::4]]
    rows = [(t, p[:, 0].tolist(), p[:, 1].tolist()) for t, p in trajs]
    df = spark.createDataFrame(rows, schema="tid long, xs array<double>, ys array<double>").cache()
    df.count()
    return df, trajs
