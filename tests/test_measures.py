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


# ------------------------------------------------------------ bounded refine

_REF = {
    "hausdorff": lambda a, b, kw: R.hausdorff_ref(a, b),
    "frechet": lambda a, b, kw: R.frechet_ref(a, b),
    "dtw": lambda a, b, kw: R.dtw_ref(a, b),
    "erp": lambda a, b, kw: R.erp_ref(a, b, kw["gap"]),
    "edr": lambda a, b, kw: R.edr_ref(a, b, kw["eps"]),
    "lcss": lambda a, b, kw: R.lcss_ref(a, b, kw["eps"]),
}


@settings(max_examples=60, deadline=None)
@given(
    measure=st.sampled_from(ALL),
    a=_traj,
    b=_traj,
    eps=st.floats(0.5, 40.0),
    gap=st.tuples(_coords, _coords),
    scale=st.floats(0.0, 2.0),
)
def test_hyp_bounded_kernel(measure, a, b, eps, gap, scale):
    """With any ``bound`` a kernel returns the exact distance when that
    distance is ≤ the bound, and a value above the bound otherwise; the
    bounds tried include the distance itself and values either side."""
    kw = {"eps": eps} if measure in ("edr", "lcss") else {"gap": gap} if measure == "erp" else {}
    fn = M.get_measure(measure, **kw)
    ref = _REF[measure](a, b, kw)
    full = fn(a, b)
    assert full == pytest.approx(ref, abs=1e-6)
    for bound in (scale * ref, full, np.nextafter(full, -np.inf), np.nextafter(full, np.inf), 0.0):
        got = fn(a, b, bound=bound)
        if full <= bound:
            assert got == full
            assert got == pytest.approx(ref, abs=1e-6)
        else:
            assert got > bound


def test_bounded_wraps_foreign_kernels():
    """Kernels of ``measures`` take a bound as they are; any other
    two-argument callable is wrapped and refines in full."""
    a, b = np.zeros((3, 2)), np.ones((4, 2))
    assert M.bounded(M.frechet) is M.frechet
    erp = M.get_measure("erp", gap=(1.0, 1.0))
    assert M.bounded(erp) is erp
    calls = []
    plain = lambda x, y: calls.append(1) or M.frechet(x, y)  # noqa: E731
    assert M.bounded(plain)(a, b, bound=0.0) == M.frechet(a, b)
    assert calls == [1]


@settings(max_examples=100, deadline=None)
@given(a=_traj, b=_traj)
def test_hyp_pair_dists_bit_identical(a, b):
    """The x/y form is bit for bit the squared-difference sum over the
    last axis."""
    diff = a[:, None, :] - b[None, :, :]
    old = np.sqrt((diff * diff).sum(-1))
    assert np.array_equal(M.pair_dists(a, b), old)


@settings(max_examples=60, deadline=None)
@given(
    measure=st.sampled_from(ALL),
    a=_traj,
    b=_traj,
    eps=st.floats(0.5, 40.0),
    gap=st.tuples(_coords, _coords),
)
def test_hyp_lower_bound_below_kernel(measure, a, b, eps, gap):
    """``get_lower_bound`` is never above the exact distance, bit for
    bit, in either argument order; Hausdorff has none."""
    kw = {"eps": eps} if measure in ("edr", "lcss") else {"gap": gap} if measure == "erp" else {}
    lb = M.get_lower_bound(measure, **kw)
    if measure == "hausdorff":
        assert lb is None
        return
    fn = M.get_measure(measure, **kw)
    assert lb(a, b) <= fn(a, b)
    assert lb(b, a) <= fn(b, a)
    # it is the first step of the kernel's cascade
    assert lb(a, b) == fn(a, b, bound=-math.inf)


_COORD = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
_TRAJ = st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=6).map(np.array)


@given(q=_TRAJ, trajs=st.lists(_TRAJ, min_size=1, max_size=6), copy_q=st.booleans())
@settings(max_examples=150, deadline=None)
def test_end_bounds_pack_vector_is_frechet_first_step(q, trajs, copy_q):
    """The per-pack endpoint vector of the search equals Frechet's
    cheap bound (``bound=-inf``) bit for bit, single-point and identical
    trajectories included, and is never above the exact distance."""
    from repro.core.rptrie import RPTrie
    from repro.core.search import _Pack
    from repro.core.zorder import Grid

    if copy_q:
        trajs = trajs + [q.copy()]
    data = dict(enumerate(trajs))
    trie = RPTrie(Grid.from_bounds(-50, -50, 50, 50, delta=10.0), M.frechet)
    trie.build(list(data.items()), ends=True)
    lbe = _Pack(trie, data, None, q).lbe
    for tid, got in zip(trie.tids.tolist(), lbe):
        want = M.frechet(q, data[tid], bound=-math.inf)
        assert got == want == M.get_lower_bound("frechet")(q, data[tid])
        assert got <= M.frechet(q, data[tid])
        d = M.pair_dists(q, data[tid])
        assert got == max(d[0, 0], d[-1, -1])
