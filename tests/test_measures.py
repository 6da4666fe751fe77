"""Distance-kernel tests: paper Example 1, reference cross-checks,
metric/space properties (hypothesis), and known closed-form cases."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import measures as M
from repro.core import measures_ref as R
from tests.util import ALL, MEASURE_PARAMS, rnd_traj

# ---------------------------------------------------------------- Example 1

EX_TRAJS = {
    1: [(0.5, 7.5), (2.5, 7.5), (6.5, 7.5), (6.5, 4.5)],
    2: [(1.5, 0.5), (2.5, 0.5), (2.5, 4.5), (4.5, 4.5)],
    3: [(4.5, 0.5), (7.5, 0.5), (7.5, 2.5), (4.5, 2.5), (4.5, 1.5)],
    4: [(0.5, 7.5), (2.5, 7.5), (5.5, 7.5), (5.5, 3.5)],
    5: [(1.5, 0.5), (2.5, 0.5), (2.5, 5.5), (0.5, 5.5), (0.5, 2.5)],
}
EX_Q = np.array([(0.5, 6.5), (2.5, 6.5), (4.5, 6.5)], float)
EX_EXPECTED = {1: 2.83, 2: 6.08, 3: 6.71, 4: 3.16, 5: 6.08}


@pytest.mark.parametrize("tid,expected", sorted(EX_EXPECTED.items()))
def test_example1_hausdorff(tid, expected):
    got = M.hausdorff(EX_Q, np.array(EX_TRAJS[tid], float))
    assert round(got, 2) == expected


def test_example1_top2():
    dists = sorted(
        (M.hausdorff(EX_Q, np.array(v, float)), t) for t, v in EX_TRAJS.items()
    )
    assert [t for _, t in dists[:2]] == [1, 4]


# -------------------------------------------------- fast vs reference kernels

_PAIRS = [(s, a, b) for s in range(6) for a, b in [(5, 7), (1, 9), (12, 12)]]


@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("seed,na,nb", _PAIRS)
def test_matches_reference(measure, seed, na, nb):
    rng = np.random.default_rng(seed)
    a, b = rnd_traj(rng, na), rnd_traj(rng, nb)
    kw = MEASURE_PARAMS[measure]
    fast = M.get_measure(measure, **kw)(a, b)
    ref = {
        "hausdorff": R.hausdorff_ref,
        "frechet": R.frechet_ref,
        "dtw": R.dtw_ref,
        "erp": lambda x, y: R.erp_ref(x, y, kw["gap"]),
        "edr": lambda x, y: R.edr_ref(x, y, kw["eps"]),
        "lcss": lambda x, y: R.lcss_ref(x, y, kw["eps"]),
    }[measure](a, b)
    assert fast == pytest.approx(ref, abs=1e-9)


# ----------------------------------------------------------- space properties

@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("seed", range(4))
def test_symmetry(measure, seed):
    rng = np.random.default_rng(seed + 100)
    a, b = rnd_traj(rng, 8), rnd_traj(rng, 11)
    fn = M.get_measure(measure, **MEASURE_PARAMS[measure])
    assert fn(a, b) == pytest.approx(fn(b, a), abs=1e-9)


@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("seed", range(4))
def test_identity_and_nonneg(measure, seed):
    rng = np.random.default_rng(seed + 200)
    a = rnd_traj(rng, 9)
    fn = M.get_measure(measure, **MEASURE_PARAMS[measure])
    assert fn(a, a) == pytest.approx(0.0, abs=1e-12)
    b = rnd_traj(rng, 7)
    assert fn(a, b) >= 0.0


@pytest.mark.parametrize("measure", sorted(M.METRICS))
@pytest.mark.parametrize("seed", range(6))
def test_triangle_inequality_metrics(measure, seed):
    rng = np.random.default_rng(seed + 300)
    a, b, c = (rnd_traj(rng, n) for n in (6, 9, 12))
    fn = M.get_measure(measure, **MEASURE_PARAMS[measure])
    assert fn(a, c) <= fn(a, b) + fn(b, c) + 1e-9


# ------------------------------------------------------------- closed forms

def test_hausdorff_single_points():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert M.hausdorff(a, b) == pytest.approx(5.0)
    assert M.frechet(a, b) == pytest.approx(5.0)
    assert M.dtw(a, b) == pytest.approx(5.0)


def test_dtw_sums_singletons():
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert M.dtw(a, b) == pytest.approx(3.0)  # m=1 branch of Eq. 12
    assert M.frechet(a, b) == pytest.approx(2.0)  # max, Eq. 6


def test_hausdorff_order_independent():
    rng = np.random.default_rng(7)
    a, b = rnd_traj(rng, 10), rnd_traj(rng, 10)
    perm = rng.permutation(len(b))
    assert M.hausdorff(a, b) == pytest.approx(M.hausdorff(a, b[perm]))


def test_frechet_order_dependent():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    b = a[::-1].copy()
    assert M.frechet(a, a) == 0.0
    assert M.frechet(a, b) > 0.0  # reversing matters for Frechet


def test_frechet_at_least_hausdorff():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b = rnd_traj(rng, 8), rnd_traj(rng, 13)
        assert M.frechet(a, b) >= M.hausdorff(a, b) - 1e-9


def test_dtw_at_least_frechet():
    # DTW sums matched costs; Frechet takes the max over an optimal
    # coupling — DTW ≥ Frechet always
    rng = np.random.default_rng(12)
    for _ in range(5):
        a, b = rnd_traj(rng, 8), rnd_traj(rng, 13)
        assert M.dtw(a, b) >= M.frechet(a, b) - 1e-9


def test_edr_integral_and_bounds():
    rng = np.random.default_rng(13)
    a, b = rnd_traj(rng, 8), rnd_traj(rng, 13)
    d = M.edr(a, b, eps=0.5)
    assert d == int(d)
    assert 0 <= d <= max(len(a), len(b))


def test_edr_all_match_when_eps_huge():
    rng = np.random.default_rng(14)
    a, b = rnd_traj(rng, 6), rnd_traj(rng, 9)
    assert M.edr(a, b, eps=1e9) == abs(len(a) - len(b))


def test_lcss_range_and_extremes():
    rng = np.random.default_rng(15)
    a, b = rnd_traj(rng, 6), rnd_traj(rng, 9)
    assert 0.0 <= M.lcss(a, b, eps=0.5) <= 1.0
    assert M.lcss(a, b, eps=1e9) == 0.0  # everything matches
    far = b + 1e6
    assert M.lcss(a, far, eps=1e-9) == 1.0  # nothing matches


def test_erp_empty_gap_cost_structure():
    # matching a to itself at gap g: zero; shifting one point costs ≤ 2*shift
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert M.erp(a, a, gap=(0, 0)) == 0.0
    b = a.copy()
    b[1] += 0.25
    assert M.erp(a, b, gap=(0, 0)) <= 2 * math.hypot(0.25, 0.25) + 1e-9


def test_pair_dists_shape_and_values():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[3.0, 4.0]])
    d = M.pair_dists(a, b)
    assert d.shape == (2, 1)
    assert d[0, 0] == pytest.approx(5.0)


def test_get_measure_unknown():
    with pytest.raises(ValueError):
        M.get_measure("cosine")


@pytest.mark.parametrize("measure", ["edr", "lcss"])
def test_get_measure_needs_eps(measure):
    with pytest.raises(ValueError, match=measure):
        M.get_measure(measure)


def test_registry_flags():
    assert M.METRICS == {"hausdorff", "frechet", "erp"}
    assert M.ORDER_INDEPENDENT == {"hausdorff"}
    assert set(M.ALL_MEASURES) == set(ALL)


# ---------------------------------------------------------------- hypothesis

_coords = st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)
_traj = st.lists(st.tuples(_coords, _coords), min_size=1, max_size=8).map(
    lambda pts: np.array(pts, dtype=float)
)


@settings(max_examples=25, deadline=None)
@given(a=_traj, b=_traj)
def test_hyp_hausdorff_props(a, b):
    d = M.hausdorff(a, b)
    assert d >= 0
    assert d == pytest.approx(M.hausdorff(b, a), abs=1e-6)
    assert d == pytest.approx(R.hausdorff_ref(a, b), abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(a=_traj, b=_traj)
def test_hyp_frechet_vs_ref(a, b):
    assert M.frechet(a, b) == pytest.approx(R.frechet_ref(a, b), abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(a=_traj, b=_traj)
def test_hyp_dtw_vs_ref(a, b):
    assert M.dtw(a, b) == pytest.approx(R.dtw_ref(a, b), abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(a=_traj, b=_traj, eps=st.floats(0.1, 10.0))
def test_hyp_edr_vs_ref(a, b, eps):
    assert M.edr(a, b, eps) == R.edr_ref(a, b, eps)
