"""Special-function kernel: frozen reference values and series properties.

Frozen constants were produced by independent oracles (scipy, mpmath, brute
force series / quadrature) before being pinned here. The truncated-series
error envelopes are the measured behaviour of the weighted finite forms, not
aspirations: the weights Gamma(D+d)D^(1-2d)/Gamma(D-d+1) equal
prod_{m<d}(1 - m^2/D^2), so the error at depth D is O(1/D^2) with constants
that grow with the mass location of the summed terms.
"""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secrelay import analytic as an
from secrelay import specfun as sf

EG = sf.EULER_GAMMA


# ---------------------------------------------------------------------------
# truncation orders


def test_truncation_defaults():
    t = sf.TruncationOrders()
    assert (t.D, t.R, t.Q) == (25, 25, 25)


@pytest.mark.parametrize("bad", [dict(D=0), dict(R=0), dict(Q=-3)])
def test_truncation_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        sf.TruncationOrders(**bad)


# ---------------------------------------------------------------------------
# log-space primitives


def test_logsumexp_identities():
    assert sf.logsumexp([math.log(3.0), math.log(1.0)]) == pytest.approx(
        math.log(4.0), rel=1e-15)
    assert sf.logsumexp([]) == -math.inf
    assert sf.logsumexp([-math.inf, -math.inf]) == -math.inf
    with pytest.raises(ValueError):
        sf.logsumexp([math.nan])


def _signed_logsumexp(log_mag, signs):
    """The signed reduction logsumexp was folded from, for its unit-sign bits."""
    log_mag = np.asarray(log_mag, dtype=float)
    m = float(np.max(log_mag))
    if m == -math.inf:
        return (-math.inf, 0.0)
    total = float(np.sum(np.asarray(signs, dtype=float) * np.exp(log_mag - m)))
    return (m + math.log(abs(total)), math.copysign(1.0, total))


def test_logsumexp_is_the_unit_sign_sum():
    # x * 1.0 is exact, so the positive-only reduction keeps every bit of
    # the signed one at unit signs, and the CP and SOP series theirs
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 26, 41, 129, 1000):
        x = rng.normal(scale=40.0, size=size)
        x[rng.random(size) < 0.1] = -math.inf
        assert sf.logsumexp(x) == _signed_logsumexp(x, np.ones(size))[0]


def test_logsumexp_shift_safety():
    # magnitudes near the overflow edge must not overflow after shifting
    v = sf.logsumexp([800.0, 799.0])
    assert v == pytest.approx(800.0 + math.log1p(math.exp(-1.0)), rel=1e-14)


def test_series_weight_unity_and_decay():
    # the first two weights are exactly 1 for every order
    for order in [1, 5, 25, 40]:
        w = sf.log_series_weight(order, np.arange(min(order, 2) + 1))
        assert abs(w[0]) < 1e-12
        if order >= 1:
            assert abs(w[min(1, order)]) < 1e-12
    w = np.exp(sf.log_series_weight(25, np.arange(26)))
    assert np.all(np.diff(w) <= 1e-15)  # non-increasing
    assert w[-1] < 1e-5
    with pytest.raises(ValueError):
        sf.log_series_weight(25, [26])
    with pytest.raises(ValueError):
        sf.log_series_weight(0, [0])


def test_lgamma_int_table():
    t = sf.lgamma_int(10)
    assert t[0] == math.inf
    assert t[5] == pytest.approx(math.log(24.0), rel=1e-15)


# ---------------------------------------------------------------------------
# Bessel I


def test_bessel_i_trivial_origin():
    assert sf.bessel_i(0.0) == 1.0
    # a half argument that underflows is the origin
    assert sf.bessel_i(5e-324) == 1.0


def test_bessel_i_frozen():
    # brute-force power-series value
    assert sf.bessel_i(2.0) == pytest.approx(2.2795853023360673, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=1e-12, max_value=500.0))
def test_bessel_i_matches_reference(x):
    scipy_special = pytest.importorskip("scipy.special")
    assert sf.bessel_i(x) == pytest.approx(float(scipy_special.iv(0, x)), rel=1e-11)


def test_bessel_i_overflow_signalled():
    with pytest.raises(OverflowError):
        sf.bessel_i(800.0)


def _bessel_i0_scalar_loop(x):
    # the per-point series the array routine replaced
    half = 0.5 * x
    if half == 0.0:
        return 1.0
    term = 1.0
    total = term
    q = half * half
    for k in range(1, 20000):
        term *= q / (k * k)
        total += term
        if term < 1e-17 * total and k > half:
            return total
    raise RuntimeError("no convergence")


def test_bessel_i_array_matches_scalar_loop():
    # each element runs the loop's operations; the terms it takes past its
    # own stop, while other elements converge, move none of its bits
    xs = np.concatenate(([0.0, 5e-324, 1e-8], np.linspace(0.0, 700.0, 1401)))
    want = [_bessel_i0_scalar_loop(float(x)) for x in xs]
    assert sf.bessel_i(xs).tolist() == want
    grid = sf.bessel_i(xs[::-1].reshape(4, 351))
    assert grid.tolist() == np.reshape(want[::-1], (4, 351)).tolist()
    assert [sf.bessel_i(float(x)) for x in xs[::50]] == want[::50]
    with pytest.raises(OverflowError):
        sf.bessel_i(np.array([1.0, sf._LOG_HUGE * (1.0 + 1e-15)]))


def test_bessel_i_truncated_envelope():
    # measured envelope of the weighted finite form on (0, 10]
    scipy_special = pytest.importorskip("scipy.special")
    xs = np.linspace(0.01, 10.0, 60)
    prev = None
    for order in [5, 10, 25, 40]:
        worst = max(
            abs(sf.bessel_i(float(x), mode="truncated", order=order) - float(scipy_special.iv(0, x)))
            / float(scipy_special.iv(0, x))
            for x in xs
        )
        if prev is not None:
            assert worst < prev
        prev = worst
        if order == 25:
            assert 0.04 < worst < 0.06  # measured 0.0553 at x = 10


def test_bessel_i_rejects_nan():
    with pytest.raises(ValueError, match="x="):
        sf.bessel_i(math.nan)
    with pytest.raises(ValueError, match="x="):
        sf.bessel_i(np.array([1.0, math.nan]))


def test_bessel_i_truncated_guards():
    with pytest.raises(ValueError, match="needs an order"):
        sf.bessel_i(2.0, mode="truncated")
    with pytest.raises(ValueError, match="unknown bessel_i mode"):
        sf.bessel_i(2.0, mode="series")


# ---------------------------------------------------------------------------
# Bessel K (log sequence)


def test_bessel_k_rejects_non_finite():
    # once six silent NaNs and "math domain error"
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"x={x}"):
            sf.log_bessel_k_sequence(5, x)


def test_bessel_k_frozen():
    # adaptive quadrature of the cosh integral
    k0 = math.exp(sf.log_bessel_k_sequence(0, 1.0)[0])
    assert k0 == pytest.approx(0.42102443824070834, rel=1e-12)


def test_bessel_k_asymptotic_law():
    value = math.exp(sf.log_bessel_k_sequence(2, 50.0)[2] + 50.0) * math.sqrt(50.0)
    assert value == pytest.approx(math.sqrt(math.pi / 2.0), rel=0.05)


@pytest.mark.parametrize("nu", [0, 1, 2, 5, 12])
@pytest.mark.parametrize("x", [0.05, 1.0, 2.0, 2.1, 30.0, 200.0])
def test_bessel_k_matches_reference(nu, x):
    scipy_special = pytest.importorskip("scipy.special")
    value = math.exp(sf.log_bessel_k_sequence(nu, x)[nu])
    assert value == pytest.approx(float(scipy_special.kv(nu, x)), rel=5e-12)


def test_bessel_k_log_sequence_high_order():
    mp = pytest.importorskip("mpmath")
    seq = sf.log_bessel_k_sequence(52, 1.58)
    for v in [0, 1, 26, 51, 52]:
        want = float(mp.log(mp.besselk(v, 1.58)))
        assert seq[v] == pytest.approx(want, rel=1e-11)
    assert np.all(np.isfinite(seq))


def test_bessel_k_domain_and_overflow():
    for x in (0.0, -1.0):
        with pytest.raises(ValueError):
            sf.log_bessel_k_sequence(1, x)
    # K_50(1e-5) is far past double range; its log is not
    mp = pytest.importorskip("mpmath")
    seq = sf.log_bessel_k_sequence(50, 1e-5)
    assert seq[50] > 709.0
    assert seq[50] == pytest.approx(float(mp.log(mp.besselk(50, 1e-5))), rel=1e-11)


@pytest.mark.parametrize("x", [599.0, 601.0, 745.0, 1e3, 1e9])
def test_bessel_k_log_sequence_huge_argument(x):
    # exp(-x) underflows past ~745; the log sequence must stay finite and
    # match the scaled reference below and above that point
    scipy_special = pytest.importorskip("scipy.special")
    seq = sf.log_bessel_k_sequence(40, x)
    assert np.all(np.isfinite(seq))
    want = np.log(scipy_special.kve(np.arange(41), x)) - x
    np.testing.assert_allclose(seq, want, rtol=1e-13)


def _mp_log_k_sequence(nu_max, x):
    """ln K_nu(x), nu = 0..nu_max: K0 and K1 at 40 digits, then the upward
    recurrence (stable for K) at the same precision."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x = mp.mpf(x)
        k = [mp.besselk(0, x), mp.besselk(1, x)]
        for v in range(1, nu_max):
            k.append(2 * v / x * k[v] + k[v - 1])
        return np.array([float(mp.log(value)) for value in k])


# the smallest subnormal and two arguments where ln K1 and ln K2 once were
# inf, then a log grid up to 1e12 and a finer one around the unit scale
K_ARGUMENTS = [5e-324, 1e-310, 1e-308,
               *np.logspace(-300, 12, 53).tolist(),
               *np.logspace(-3, 3, 25).tolist()]


@pytest.mark.parametrize("x", K_ARGUMENTS)
def test_bessel_k_sequence_finite_and_accurate_over_double_range(x):
    seq = sf.log_bessel_k_sequence(60, x)
    assert np.all(np.isfinite(seq))
    want = _mp_log_k_sequence(60, x)
    err = np.abs(seq - want) / np.maximum(1.0, np.abs(want))
    assert np.max(err[:2]) <= 1e-15
    assert np.max(err) <= 1e-13


def test_bessel_k_log_sequence_beyond_reference_range():
    # scaled references give out near 1e300 inputs; the log form keeps the
    # leading asymptotics ln K ~ -x + ln sqrt(pi/(2x)) to full precision
    x = 5e149
    seq = sf.log_bessel_k_sequence(10, x)
    assert np.all(np.isfinite(seq))
    want = 0.5 * math.log(math.pi / (2.0 * x)) - x
    assert seq[0] == pytest.approx(want, rel=1e-15)
    assert seq[10] == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# Marcum Q1


def test_marcum_trivial_edges():
    assert sf.marcum_q1(2.0, 0.0) == 1.0
    assert sf.marcum_q1(0.0, 1.3) == pytest.approx(math.exp(-0.5 * 1.3**2), rel=1e-15)


def test_marcum_frozen():
    # canonical series and tail integral both give this value
    assert sf.marcum_q1(1.0, 2.0) == pytest.approx(0.26901206003591, rel=1e-11)


def test_marcum_vector_argument():
    b = np.array([0.0, 0.7, 2.2, 9.0])
    vec = sf.marcum_q1(1.5, b)
    # an entry that keeps iterating past its own stop gains nothing: every
    # later term is below half an ulp of its q
    for bb, v in zip(b, vec):
        assert v == sf.marcum_q1(1.5, float(bb))


def test_marcum_beyond_squarable_b_is_zero():
    # b^2/2 overflows past b ~ 1.3e154; the Poisson loop then made 0 * inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf.marcum_q1(1.0, 1e160) == 0.0
        assert sf.marcum_q1(1.0, math.inf) == 0.0


def test_marcum_mixed_vector_with_unsquarable_b():
    b = np.array([0.7, 1e160, 2.2, math.inf, 9.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = sf.marcum_q1(1.5, b)
    near = np.array([0.7, 2.2, 9.0])
    np.testing.assert_array_equal(vec[[0, 2, 4]], sf.marcum_q1(1.5, near))
    assert vec[1] == 0.0 and vec[3] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=6.0),
    b=st.floats(min_value=0.0, max_value=8.0),
    bump=st.floats(min_value=1e-3, max_value=2.0),
)
def test_marcum_monotone_and_bounded(a, b, bump):
    q = sf.marcum_q1(a, b)
    assert 0.0 <= q <= 1.0
    assert sf.marcum_q1(a + bump, b) >= q - 1e-12  # non-decreasing in a
    assert sf.marcum_q1(a, b + bump) <= q + 1e-12  # non-increasing in b


def test_marcum_rejects_nan():
    for mode in ("exact", "truncated"):
        with pytest.raises(ValueError, match="a="):
            sf.marcum_q1(math.nan, 1.0, mode=mode, order=25)
        with pytest.raises(ValueError, match="b="):
            sf.marcum_q1(1.0, math.nan, mode=mode, order=25)
        # an array a once raised numpy's "truth value ... is ambiguous"
        with pytest.raises(ValueError, match="a must be a scalar"):
            sf.marcum_q1(np.array([1.0, 2.0]), 1.0, mode=mode, order=25)
    with pytest.raises(ValueError, match="b="):
        sf.marcum_q1(1.0, np.array([0.5, math.nan]))
    # truncated mode once raised "NaN log magnitude in signed_logsumexp";
    # exact mode keeps Q1(a, inf) = 0 and its overflow error at a = inf
    for a, b, name in ((math.inf, 1.0, "a=inf"), (1.0, math.inf, "b=inf")):
        with pytest.raises(ValueError, match=name):
            sf.marcum_q1(a, b, mode="truncated", order=25)
    assert sf.marcum_q1(1.0, math.inf) == 0.0
    with pytest.raises(sf.SeriesOverflowError):
        sf.marcum_q1(math.inf, 1.0)


def test_marcum_exact_overflow_guard():
    with pytest.raises(OverflowError):
        sf.marcum_q1(60.0, 1.0)


def test_marcum_exact_grid_terminates_quickly():
    # the Poisson mass settles at 0.9999999999999998 for a = 4, which once
    # left the loop running to its 100 000-term cap (about 9 s over this grid)
    grid_a = list(np.linspace(0.0, 4.0, 9)) + [math.sqrt(2.0 * h) for h in (50.0, 200.0, 600.0)]
    grid_b = np.linspace(0.0, 6.0, 13)
    start = time.perf_counter()
    values = [sf.marcum_q1(float(a), float(b)) for a in grid_a for b in grid_b]
    assert time.perf_counter() - start < 1.0
    assert all(0.0 <= v <= 1.0 for v in values)


def test_marcum_at_stalling_argument_matches_reference():
    # Q1(a, b) is the survival function of a noncentral chi-square with
    # 2 dof and noncentrality a^2, evaluated at b^2
    stats = pytest.importorskip("scipy.stats")
    for b in np.linspace(0.0, 6.0, 13):
        want = float(stats.ncx2.sf(b * b, 2, 16.0))
        assert sf.marcum_q1(4.0, float(b)) == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_marcum_truncated_envelope():
    # measured over a in [0,4], b in [0,6]: monotone in D, 0.248 max at D=25
    grid_a = np.linspace(0.0, 4.0, 9)
    grid_b = np.linspace(0.0, 6.0, 13)
    worst = {}
    for order in [5, 10, 25]:
        worst[order] = max(
            abs(sf.marcum_q1(float(a), float(b), mode="truncated", order=order) - sf.marcum_q1(float(a), float(b)))
            for a in grid_a
            for b in grid_b
        )
    assert worst[5] > worst[10] > worst[25]
    assert 0.2 < worst[25] < 0.3


def test_marcum_truncated_matches_term_by_term_loop():
    # the finite double series is summed as one array in the loop's d-major
    # order with the same arithmetic, so every value keeps its bits
    def loop(a, b, order):
        t = sf.lgamma_int(2 * order + 2)
        log_terms = []
        for d in range(1 if a == 0.0 else order + 1):
            w_d = t[order + d] + (1 - 2 * d) * math.log(order) - t[order - d + 1] - t[d + 1]
            for u in range(1 if b == 0.0 else d + 1):
                lt = w_d - t[u + 1] - (d + u) * sf.LN2 - 0.5 * (a * a + b * b)
                if d:
                    lt += 2.0 * d * math.log(a)
                if u:
                    lt += 2.0 * u * math.log(b)
                log_terms.append(lt)
        return math.exp(sf.logsumexp(log_terms))

    for order in (1, 5, 25):
        for a in (0.0, 1e-8, 0.5, 4.0, math.sqrt(60.0)):
            for b in (0.0, 1e-8, 1.5, 6.0, 50.0):
                got = sf.marcum_q1(a, b, mode="truncated", order=order)
                assert got == loop(a, b, order)


def test_marcum_truncated_deep_order_finite():
    for a, b in [(math.sqrt(60.0), 8.0), (1e-8, 50.0), (4.0, 0.0)]:
        value = sf.marcum_q1(a, b, mode="truncated", order=40)
        assert math.isfinite(value)


# the specfun-check grids and the term-by-term grid; zeros sit inside arrays
CHECK_A = [float(a) for a in np.linspace(0.0, 4.0, 9)]
CHECK_B = np.linspace(0.0, 6.0, 13)
LOOP_A = [0.0, 1e-8, 0.5, 4.0, math.sqrt(60.0)]
LOOP_B = np.array([1e-8, 0.0, 1.5, 6.0, 0.0, 50.0])
CHECK_X = np.linspace(0.01, 10.0, 60)


@pytest.mark.parametrize("order", [1, 5, 25, 40])
@pytest.mark.parametrize("matrix_terms", [None, 100],
                         ids=["one-matrix", "split-rows"])
def test_truncated_arrays_match_scalar_calls_bit_for_bit(order, matrix_terms,
                                                        monkeypatch):
    if matrix_terms is not None:
        # a small cap cuts every grid across several term matrices
        monkeypatch.setattr(sf, "_MATRIX_TERMS", matrix_terms)
    for grid_a, grid_b in ((CHECK_A, CHECK_B), (LOOP_A, LOOP_B)):
        for a in grid_a:
            got = sf.marcum_q1(a, grid_b, mode="truncated", order=order)
            want = [sf.marcum_q1(a, b, mode="truncated", order=order)
                    for b in grid_b.tolist()]
            assert got.tolist() == want
    xs = np.concatenate(([0.0], CHECK_X[:30], [0.0, 1e-8], CHECK_X[30:], [0.0]))
    got = sf.bessel_i(xs.reshape(4, 16), mode="truncated", order=order)
    want = [sf.bessel_i(x, mode="truncated", order=order) for x in xs.tolist()]
    assert got.ravel().tolist() == want
    assert want[0] == 1.0


def test_truncated_array_guards():
    # bessel_i(inf, mode="truncated") once warned, then raised "NaN log term
    # in logsumexp"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf):
            for value in (bad, np.array([0.5, 0.0, bad])):
                with pytest.raises(ValueError, match=f"b={bad}"):
                    sf.marcum_q1(1.0, value, mode="truncated", order=25)
                with pytest.raises(ValueError, match=f"x={bad}"):
                    sf.bessel_i(value, mode="truncated", order=25)
        with pytest.raises(ValueError, match="b=-2.0"):
            sf.marcum_q1(1.0, np.array([0.5, -2.0]), mode="truncated", order=25)
        # b * b overflows to inf, where Q1 is 0, without a warning
        got = sf.marcum_q1(1.0, np.array([1e200, 2.0]), mode="truncated",
                           order=25)
        assert got.tolist() == [0.0, sf.marcum_q1(1.0, 2.0, mode="truncated",
                                                  order=25)]
    # x/2 underflows to 0 at the least subnormal, once "math domain error"
    assert sf.bessel_i(5e-324, mode="truncated", order=25) == 1.0
    assert sf.bessel_i(1e-323, mode="truncated", order=25) == 1.0
    with pytest.raises(sf.SeriesOverflowError, match=r"I0\(1e\+300\)"):
        sf.bessel_i(np.array([1.0, 1e300, 2.0]), mode="truncated", order=25)
    for b in (2.0, np.float64(2.0)):
        assert type(sf.marcum_q1(1.0, b, mode="truncated", order=5)) is float
        assert type(sf.bessel_i(b, mode="truncated", order=5)) is float
    assert sf.marcum_q1(1.0, np.ones((2, 3)), mode="truncated",
                        order=5).shape == (2, 3)
    assert sf.bessel_i(np.ones((3, 2)), mode="truncated", order=5).shape == (3, 2)


def test_truncated_marcum_array_peak_memory_stays_near_one_call():
    # at order 1000 one row holds 500 500 terms; thirteen rows in one matrix
    # would need about 52 MB per temporary
    order = 1000
    sf.lgamma_int(2 * order + 2)

    def peak(b):
        tracemalloc.start()
        try:
            sf.marcum_q1(2.0, b, mode="truncated", order=order)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(CHECK_B) <= 2 * peak(1.5)


# ---------------------------------------------------------------------------
# exponential integral


def e1(x):
    return math.exp(sf.log_exp_integral_e1(x))


def test_e1_frozen():
    assert e1(1.0) == pytest.approx(0.21938393439552026, rel=1e-12)


def test_e1_singularity_law():
    x = 1e-8
    assert abs(e1(x) + math.log(x) + EG) < 1e-7


def test_e1_asymptotic_law():
    assert e1(10.0) * math.exp(10.0) * 10.0 == pytest.approx(1.0, rel=0.10)


@pytest.mark.parametrize("x", [1e-6, 0.01, 0.8, 1.5, 1.6, 4.0, 30.0, 600.0])
def test_e1_matches_reference(x):
    scipy_special = pytest.importorskip("scipy.special")
    assert e1(x) == pytest.approx(float(scipy_special.exp1(x)), rel=5e-13)


def test_e1_log_branch_beyond_linear_range():
    mp = pytest.importorskip("mpmath")
    for x in [500.0, 2000.0]:
        assert sf.log_exp_integral_e1(x) == pytest.approx(float(mp.log(mp.e1(x))), rel=1e-12)


def test_e1_domain():
    with pytest.raises(ValueError):
        sf.log_exp_integral_e1(0.0)


def test_e1_rejects_nan():
    with pytest.raises(ValueError, match="x="):
        sf.log_exp_integral_e1(math.nan)


def test_e1_rejects_inf():
    # once a silent nan
    with pytest.raises(ValueError, match="x=inf"):
        sf.log_exp_integral_e1(math.inf)


# ---------------------------------------------------------------------------
# 1F1(r+1; 1; x) behind the leakage series: the Whittaker M(-(r+1/2), 0, x)
# identity M = exp(-x/2) sqrt(x) 1F1(r+1; 1; x)


def log_f11(r, x):
    return an._log_f11_table(r, x)[r]


def test_whittaker_trivial_identity():
    # 1F1(1;1;x) = e^x
    assert log_f11(0, 1.0) == pytest.approx(1.0, rel=1e-13)


def test_whittaker_frozen():
    # 1F1(2;1;2) = 3 e^2
    assert log_f11(1, 2.0) == pytest.approx(math.log(3.0) + 2.0, rel=1e-13)


def test_whittaker_leading_order():
    # 1F1(3;1;x) = 1 + 3x + O(x^2)
    x = 1e-8
    assert math.exp(log_f11(2, x)) == pytest.approx(1.0, rel=1e-6)


def test_whittaker_log_form_matches_reference():
    mp = pytest.importorskip("mpmath")
    for r, x in [(0, 1.0), (3, 0.2), (25, 15.0), (25, 0.01)]:
        log_m = float(mp.log(mp.whitm(-(r + 0.5), 0, x)))
        want = log_m + 0.5 * x - 0.5 * math.log(x)
        assert log_f11(r, x) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# Phi and the log moment


def _phi_quadrature(i, b):
    """Phi(i, b) = (1/2) integral_0^inf x^i ln(x+b) exp(-x/2) dx by panels."""
    def f(x):
        return 0.5 * x**i * np.log(x + b) * np.exp(-0.5 * x)

    # the x^i factor pushes mass far beyond the exponential scale
    upper = 2.0 * (i + 1) + 24.0 * math.sqrt(i + 1.0) + 80.0
    return sf.panel_quadrature(f, sf._dyadic_edges(upper, splits=50), points=32)


def _phi_oracle(mp, i, b):
    # Phi(i, b) = 2^i integral_0^inf t^i ln(2t + b) exp(-t) dt; below b = 1
    # the log turns over at t ~ b, so the panels split there too
    s = max(i, 1)
    edges = sorted({0, s, 2 * s + 20} | ({b / 2, 4 * b} if b < 1 else set()))
    with mp.workdps(20):
        return mp.ldexp(mp.quad(lambda t: t**i * mp.log(2 * t + b) * mp.exp(-t),
                                edges + [mp.inf]), i)


def _phi(i, b):
    """Phi(i, b) = 2^i i! e_i(b), e_i from the recurrence."""
    return math.ldexp(math.factorial(i) * sf._log_offset_moments(i, b)[i], i)


def test_phi_exponential_case_identity():
    want = math.log(2.0) + math.e * math.exp(sf.log_exp_integral_e1(1.0))
    assert _phi(0, 2.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "i,b",
    [(0, 0.1), (2, 1.0), (5, 8.0), (10, 30.0), (25, 137.0), (25, 840.0), (12, 23000.0)],
)
def test_phi_recurrence_matches_quadrature(i, b):
    # the recurrence on both sides of its anchor against an independent rule
    assert _phi(i, b) == pytest.approx(_phi_quadrature(i, b), rel=5e-8)


@pytest.mark.parametrize(
    "b", [0.0, 1e-6, 1e-3, 0.1, 0.63, 0.79, 0.999, 1.0, 1.26, 3.0, 16.0, 137.5,
          300.0, 840.0, 11383.0, 17682.0, 1e6])
def test_offset_moments_match_mpmath_oracle(b):
    # e_i = Phi(i, b) / (2^i i!) for i <= 400, past the i = 149 where Phi
    # leaves double range; measured max 1.9e-15 over these offsets
    mp = pytest.importorskip("mpmath")
    indices = [0, 1, 2, 5, 13, 30, 100, 149, 150, 400]
    got = sf._log_offset_moments(400, b)
    for i in indices:
        want = _phi_oracle(mp, i, b) / (mp.factorial(i) * mp.mpf(2) ** i)
        assert got[i] == pytest.approx(float(want), rel=5e-14), i


@pytest.mark.parametrize("b", [5e-324, 1e-320, 1e-300])
def test_log_offset_moments_meet_the_zero_offset(b):
    # c = b/2 underflows to 0 at the smallest b, which once raised from
    # log_exp_integral_e1; E[ln(Y + b)] - E[ln Y] is below b E[1/Y] here
    zero = sf._log_offset_moments(60, 0.0)
    assert zero[0] == math.log(2.0) - EG
    np.testing.assert_allclose(sf._log_offset_moments(60, b), zero, rtol=0, atol=1e-15)
    for lam in (0.0, 5.0):
        assert sf.log_moment_ncx2(lam, b) == pytest.approx(
            sf.log_moment_ncx2(lam, 0.0), rel=0, abs=1e-15)


@pytest.mark.parametrize("c", [1.0, 1.5, 7.3, 40.0, 399.5])
def test_log_offset_moments_anchor_on_either_side(c):
    # the anchor index m = floor(c) moves with i_max; every anchor gives
    # the same e_i, forward or backward from it
    full = sf._log_offset_moments(400, 2.0 * c)
    for i_max in (0, 1, int(c) - 1, int(c), int(c) + 1):
        np.testing.assert_allclose(sf._log_offset_moments(i_max, 2.0 * c),
                                   full[: i_max + 1], rtol=4e-15)


def _panel_loop(f, edges, points=32):
    # the per-panel quadrature that one call on the node matrix replaced
    x, w = sf._gl_rule(points)
    edges = np.asarray(edges, dtype=float)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        total += half * float(np.sum(w * f(mid + half * x)))
    return total


def test_panel_quadrature_matches_per_panel_loop(monkeypatch):
    moments = [(0.0, 0.0), (0.0, 1.0), (4.0, 0.0), (9.4, 137.0), (20.0, 0.1)]
    brackets = [(0, 0.1), (5, 8.0), (25, 840.0), (12, 23000.0)]

    def integrals():
        return ([sf._log_moment_quadrature(lam, b) for lam, b in moments]
                + [_phi_quadrature(i, b) for i, b in brackets])

    got = integrals()
    monkeypatch.setattr(sf, "panel_quadrature", _panel_loop)
    assert got == integrals()


def test_log_moment_central_chi_square():
    assert sf.log_moment_ncx2(0.0, 0.0) == pytest.approx(math.log(2.0) - EG, rel=1e-12)


def test_log_moment_exponential_shift():
    want = math.log(2.0) + math.e * math.exp(sf.log_exp_integral_e1(1.0))
    assert sf.log_moment_ncx2(0.0, 2.0) == pytest.approx(want, rel=1e-11)


def test_log_moment_quadrature_reuses_one_density_per_lam():
    # the integrand that evaluated the density on every call
    def per_call(lam, b):
        def f(x):
            dens = 0.5 * np.exp(-0.5 * (x + lam))
            if lam > 0:
                dens = dens * sf._bessel_i0_series(np.sqrt(lam * x))
            return np.log(x + b) * dens

        upper = (math.sqrt(lam) + 14.0) ** 2
        return sf.panel_quadrature(f, sf._dyadic_edges(upper, splits=54), points=32)

    sf._ncx2_density.cache_clear()
    for lam in (0.0, 5.0, 10.0, 20.0):
        for b in (0.0, 0.1, 1.0, 10.0):
            assert sf._log_moment_quadrature(lam, b) == per_call(lam, b)
    assert sf._ncx2_density.cache_info().misses == 4


def test_log_moment_quadrature_matches_reference():
    mp = pytest.importorskip("mpmath")

    def ref(lam, b):
        f = lambda x: mp.log(x + b) * mp.mpf(0.5) * mp.exp(-(x + lam) / 2) * mp.besseli(0, mp.sqrt(lam * x))
        hi = (math.sqrt(lam) + 16.0) ** 2
        return float(mp.quad(f, [0, 1e-4, 1.0, hi]))

    for lam, b in [(4.0, 0.0), (9.4, 137.0)]:
        got = sf.log_moment_ncx2(lam, b, mode="quadrature")
        assert got == pytest.approx(ref(lam, b), rel=1e-9)


def test_log_moment_series_convergence_profile():
    # measured: rel errors 0.710 / 0.385 / 0.093 / 0.039 at R = 5/10/25/40
    quad = sf.log_moment_ncx2(10.0, 0.0, mode="quadrature")
    errors = [abs(sf.log_moment_ncx2(10.0, 0.0, order=r) - quad) / quad for r in [5, 10, 25, 40]]
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert 0.07 < errors[2] < 0.12


def test_log_moment_domain():
    with pytest.raises(ValueError):
        sf.log_moment_ncx2(-1.0, 0.0)
    with pytest.raises(ValueError):
        sf.log_moment_ncx2(1.0, 0.0, mode="nonsense")


def test_log_moment_rejects_nan():
    for mode in ("series", "quadrature"):
        with pytest.raises(ValueError, match="lam="):
            sf.log_moment_ncx2(math.nan, 0.0, mode)
        with pytest.raises(ValueError, match="b="):
            sf.log_moment_ncx2(1.0, math.nan, mode)
    # arrays once raised "unhashable type" from the cache
    with pytest.raises(ValueError, match="lam must be a scalar"):
        sf.log_moment_ncx2(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ValueError, match="b must be a scalar"):
        sf.log_moment_ncx2(1.0, np.array([0.0, 1.0]))
    assert sf.log_moment_ncx2(np.array(1.0), np.array(0.5)) == \
        sf.log_moment_ncx2(1.0, 0.5)


def test_log_moment_rejects_inf():
    # once a silent nan and "NaN log magnitude in signed_logsumexp"
    for mode in ("series", "quadrature"):
        with pytest.raises(ValueError, match="lam=inf"):
            sf.log_moment_ncx2(math.inf, 0.0, mode)
        with pytest.raises(ValueError, match="b=inf"):
            sf.log_moment_ncx2(1.0, math.inf, mode)


@pytest.mark.parametrize("order", [128, 130, 160, 400])
@pytest.mark.parametrize("b", [0.0, 0.5, 1000.0])
def test_log_moment_deep_orders_match_quadrature(order, b):
    # from R = 128 the Laguerre rule once gave a silent nan, and from R = 150
    # Phi(i, b) left double range and raised; e_i has no such limit
    value = sf.log_moment_ncx2(10.0, b, order=order)
    exact = sf.log_moment_ncx2(10.0, b, mode="quadrature")
    # measured: rel errors 0.0033-0.0040 at R = 128 and 130
    assert value == pytest.approx(exact, rel=0.005)


def _series_per_r(lam, b, order):
    t = sf.lgamma_int(order + 1)
    e = sf._log_offset_moments(order, b)
    log_terms = np.empty(order + 1)
    for r in range(order + 1):
        log_terms[r] = (sf.log_series_weight(order, r) - t[r + 1] - r * sf.LN2
                        + np.log(e[r]) + r * math.log(lam))
    return math.exp(sf.logsumexp(log_terms) - 0.5 * lam)


def test_log_moment_series_keep_the_per_r_weight_bits():
    for order in (1, 5, 25, 40, 60):
        for lam in (0.3, 5.0, 20.0, 60.0):
            for b in (0.0, 1e-3, 0.1, 1.0, 10.0, 300.0):
                assert (sf.log_moment_ncx2.__wrapped__(lam, b, "series", order)
                        == _series_per_r(lam, b, order))
