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


def test_signed_logsumexp_identities():
    v, s = sf.signed_logsumexp([math.log(3.0), math.log(1.0)], [1.0, -1.0])
    assert s == 1.0
    assert v == pytest.approx(math.log(2.0), rel=1e-14)
    v, s = sf.signed_logsumexp([], [])
    assert v == -math.inf and s == 0.0
    v, s = sf.signed_logsumexp([0.0, 0.0], [1.0, -1.0])
    assert v == -math.inf and s == 0.0
    with pytest.raises(ValueError):
        sf.signed_logsumexp([math.nan], [1.0])


def test_logsumexp_is_the_unit_sign_sum():
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 26, 41, 129, 1000):
        x = rng.normal(scale=40.0, size=size)
        x[rng.random(size) < 0.1] = -math.inf
        assert sf.logsumexp(x) == sf.signed_logsumexp(x, np.ones(size))[0]


def test_signed_logsumexp_shift_safety():
    # magnitudes near the overflow edge must not overflow after shifting
    v, s = sf.signed_logsumexp([800.0, 799.0], [1.0, 1.0])
    assert s == 1.0
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


# ---------------------------------------------------------------------------
# gamma family


def test_digamma_classical_value():
    assert sf.digamma(1.0) == pytest.approx(-EG, rel=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.7, 1.5, 3.0, 7.2, 26.0, 300.0])
def test_digamma_matches_reference(x):
    scipy_special = pytest.importorskip("scipy.special")
    assert sf.digamma(x) == pytest.approx(float(scipy_special.digamma(x)), rel=5e-13, abs=1e-14)


def test_upper_incomplete_gamma_integer_identity():
    # Gamma(3, 1) = 2 e^-1 (1 + 1 + 1/2) = 5/e
    assert math.exp(sf.log_upper_incomplete_gamma(3, 1.0)) == pytest.approx(5.0 / math.e, rel=1e-13)
    assert math.exp(sf.log_upper_incomplete_gamma(1, 0.0)) == pytest.approx(1.0, rel=1e-15)


def test_upper_incomplete_gamma_log_large_x():
    mp = pytest.importorskip("mpmath")
    got = sf.log_upper_incomplete_gamma(26, 420.0)
    want = float(mp.log(mp.gammainc(26, 420)))
    assert got == pytest.approx(want, rel=1e-12)


def test_upper_incomplete_gamma_domain():
    with pytest.raises(ValueError):
        sf.log_upper_incomplete_gamma(0, 1.0)
    with pytest.raises(ValueError):
        sf.log_upper_incomplete_gamma(2, -1.0)


def test_upper_incomplete_gamma_rejects_nan():
    with pytest.raises(ValueError, match="x="):
        sf.log_upper_incomplete_gamma(2, math.nan)


def test_upper_incomplete_gamma_rejects_non_finite():
    # once "NaN log magnitude in signed_logsumexp" and an int(nan) error
    with pytest.raises(ValueError, match="x=inf"):
        sf.log_upper_incomplete_gamma(2, math.inf)
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"a={a}"):
            sf.log_upper_incomplete_gamma(a, 1.0)


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
# the log-weighted tail integral behind Phi's closed form:
# integral_x^inf t^j exp(-t) ln(t/x) dt = j! (E1(x) + sum_{k=1..j} Gamma(k,x)/k!)


def log_tail_integral(j, x):
    parts = [sf.log_exp_integral_e1(x)]
    parts += [sf.log_upper_incomplete_gamma(k, x) - math.lgamma(k + 1)
              for k in range(1, j + 1)]
    return math.lgamma(j + 1) + sf.logsumexp(parts)


@pytest.mark.parametrize("j,x", [(0, 1.0), (1, 0.5), (3, 2.0), (10, 7.0), (25, 68.5), (25, 0.05)])
def test_meijer_closed_vs_quadrature(j, x):
    def f(s):
        # t = x + s keeps the log factor analytic at the lower limit
        return (x + s) ** j * np.exp(-(x + s)) * np.log1p(s / x)

    upper = 60.0 + x + 4.0 * j * (1.0 + math.log1p(j + x))
    quad = sf.panel_quadrature(f, sf._dyadic_edges(upper, splits=50), points=32)
    assert math.exp(log_tail_integral(j, x)) == pytest.approx(quad, rel=1e-9)


def test_meijer_decays_at_infinity():
    assert log_tail_integral(2, 400.0) < math.log(1e-150)


# ---------------------------------------------------------------------------
# Phi and the log moment


def test_phi_exponential_case_identity():
    want = math.log(2.0) + math.e * math.exp(sf.log_exp_integral_e1(1.0))
    assert sf.phi_log_bracket(0, 2.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "i,b",
    [(0, 0.1), (2, 1.0), (5, 8.0), (10, 30.0), (25, 137.0), (25, 840.0), (12, 23000.0)],
)
def test_phi_closed_vs_quadrature(i, b):
    # includes the catastrophic-cancellation zone served by the fallback
    closed = sf.phi_log_bracket(i, b)
    quad = sf.phi_log_bracket(i, b, mode="quadrature")
    assert closed == pytest.approx(quad, rel=5e-8)


@pytest.mark.parametrize("b", [1.0, 16.0, 137.5, 840.0, 11383.0, 23000.0])
def test_phi_laguerre_route_matches_oracle(b):
    mp = pytest.importorskip("mpmath")
    indices = [0, 1, 2, 3, 5, 8, 13, 21, 30, 40]
    got = sf._phi_fixed_point(indices, b)
    for i, value in zip(indices, got):
        # Phi(i, b) = 2^i integral_0^inf t^i ln(2t + b) exp(-t) dt
        with mp.workdps(20):
            want = mp.ldexp(mp.quad(lambda t: t**i * mp.log(2 * t + b) * mp.exp(-t),
                                    [0, max(i, 1), mp.inf]), i)
        assert value == pytest.approx(float(want), rel=1e-12)


def _phi_laguerre_one_power(indices, b):
    """The Laguerre rule with (2s)^i applied as one power; that power
    overflows from i = 128."""
    nodes, weights = sf._laguerre_rule()
    i = np.asarray(indices)
    s = np.maximum(i, 1).astype(float)
    powers = (nodes[None, :] / s[:, None]) ** i[:, None]
    return (2.0 * s) ** i * (powers @ (weights * np.log(2.0 * nodes + b)))


@pytest.mark.parametrize("b", [1.0, 16.0, 840.0, 23000.0])
def test_phi_laguerre_route_keeps_its_bits_below_index_128(b):
    indices = list(range(128))
    assert (sf._phi_fixed_point(indices, b).tolist()
            == _phi_laguerre_one_power(indices, b).tolist())


@pytest.mark.parametrize("b", [1.0, 137.5, 11383.0])
def test_phi_laguerre_route_past_index_128(b):
    # the one power once made these nan; Phi itself fits up to i = 149
    mp = pytest.importorskip("mpmath")
    indices = [128, 130, 149]
    got = sf._phi_fixed_point(indices, b)
    for i, value in zip(indices, got):
        with mp.workdps(30):
            want = mp.ldexp(mp.quad(lambda t: t**i * mp.log(2 * t + b) * mp.exp(-t),
                                    [0, i, 2 * i, mp.inf]), i)
        assert value == pytest.approx(float(want), rel=1e-12)
    with pytest.raises(sf.SeriesOverflowError, match=rf"Phi\(150, {b}\)"):
        sf._phi_fixed_point([3, 150], b)


def test_phi_closed_form_overflow_is_signalled():
    # math.exp once raised a bare OverflowError here
    assert math.isfinite(sf.phi_log_bracket(149, 0.5))
    with pytest.raises(sf.SeriesOverflowError, match=r"Phi\(150, 0.5\)"):
        sf.phi_log_bracket(150, 0.5)


@pytest.mark.parametrize("b", [0.3, 1.0, 2.0, 137.5, 840.0])
def test_phi_closed_form_matches_term_by_term_loop(b):
    # the closed form hoists every i-independent factor out of its i-loop;
    # the arithmetic is unchanged, so each trusted index keeps its bits
    i_max = 25
    x_half, log_b = 0.5 * b, math.log(b)
    t = sf.lgamma_int(i_max + 2)
    gamma_terms = [sf.log_exp_integral_e1(x_half)]
    for k in range(1, i_max + 2):
        gamma_terms.append(sf.log_upper_incomplete_gamma(k, x_half) - t[k + 1])
    got = sf._phi_eq_log_bracket(i_max, b)
    for i in range(i_max + 1):
        log_mag, signs = [], []
        for j in range(i + 1):
            log_common = sf.log_binomial(i, j) + (i - j) * log_b + j * sf.LN2
            sign_binom = 1.0 if (i - j) % 2 == 0 else -1.0
            log_g = t[j + 1] + sf.logsumexp(gamma_terms[: j + 1])
            log_mag.append(log_common + log_g)
            signs.append(sign_binom)
            if log_b == 0.0:
                log_mag.append(-math.inf)
                signs.append(0.0)
            else:
                log_mag.append(log_common + math.log(abs(log_b))
                               + sf.log_upper_incomplete_gamma(j + 1, x_half))
                signs.append(sign_binom * math.copysign(1.0, log_b))
        value, sign = sf.signed_logsumexp(log_mag, signs)
        if max(log_mag) - value <= sf._PHI_MAX_LOST:
            assert got[i] == sign * math.exp(x_half + value)


def test_phi_rejects_nan():
    for mode in ("closed", "quadrature"):
        with pytest.raises(ValueError, match="b="):
            sf.phi_log_bracket(1, math.nan, mode=mode)


def test_phi_rejects_non_finite():
    # once "NaN log magnitude in signed_logsumexp" and an int(nan) error
    for mode in ("closed", "quadrature"):
        with pytest.raises(ValueError, match="b=inf"):
            sf.phi_log_bracket(1, math.inf, mode=mode)
        for i in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"i={i}"):
                sf.phi_log_bracket(i, 1.0, mode=mode)


def test_phi_closed_form_flags_nothing_below_unit_offset():
    # an index flagged below b = 1 would raise SeriesOverflowError
    for b in np.geomspace(1e-6, 1.0, 25, endpoint=False):
        values = sf._phi_eq_log_bracket(60, float(b))
        assert all(math.isfinite(v) for v in values)


def test_phi_flag_below_unit_offset_raises(monkeypatch):
    # the quadrature route is off by 1.3e-5 at b = 0.1, so a flagged index
    # there must not fall back to it silently
    monkeypatch.setattr(sf, "_PHI_MAX_LOST", -1.0)
    with pytest.raises(sf.SeriesOverflowError):
        sf._phi_eq_log_bracket(3, 0.5)
    # at b >= 1 every flagged index takes the quadrature route
    panel = [sf.phi_log_bracket(i, 2.0, mode="quadrature") for i in range(4)]
    assert sf._phi_eq_log_bracket(3, 2.0) == pytest.approx(panel, rel=1e-12)


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
                + [sf.phi_log_bracket(i, b, mode="quadrature") for i, b in brackets])

    got = integrals()
    monkeypatch.setattr(sf, "panel_quadrature", _panel_loop)
    assert got == integrals()


def test_log_moment_central_chi_square():
    assert sf.log_moment_ncx2(0.0, 0.0) == pytest.approx(math.log(2.0) - EG, rel=1e-12)


def test_log_moment_exponential_shift():
    want = math.log(2.0) + math.e * math.exp(sf.log_exp_integral_e1(1.0))
    assert sf.log_moment_ncx2(0.0, 2.0) == pytest.approx(want, rel=1e-11)


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


def test_log_moment_rejects_inf():
    # once a silent nan and "NaN log magnitude in signed_logsumexp"
    for mode in ("series", "quadrature"):
        with pytest.raises(ValueError, match="lam=inf"):
            sf.log_moment_ncx2(math.inf, 0.0, mode)
        with pytest.raises(ValueError, match="b=inf"):
            sf.log_moment_ncx2(1.0, math.inf, mode)


@pytest.mark.parametrize("order", [128, 130, 160])
@pytest.mark.parametrize("b", [0.0, 0.5, 1000.0])
def test_log_moment_deep_orders_are_finite_or_signalled(order, b):
    # from R = 128 the Laguerre fallback once gave a silent nan, and from
    # R = 150 the closed form raised a bare OverflowError; Phi(i, b) leaves
    # double range from i = 150
    if order >= 150 and b > 0.0:
        with pytest.raises(sf.SeriesOverflowError, match=rf"Phi\(150, {b}\)"):
            sf.log_moment_ncx2(10.0, b, order=order)
        return
    value = sf.log_moment_ncx2(10.0, b, order=order)
    exact = sf.log_moment_ncx2(10.0, b, mode="quadrature")
    # measured: rel errors 0.0033-0.0040 at R = 128 and 130
    assert value == pytest.approx(exact, rel=0.005)


def _g1_per_r_weights(lam, order):
    t = sf.lgamma_int(2 * order + 2)
    r_top = 0 if lam == 0.0 else order
    log_terms = np.empty(r_top + 1)
    for r in range(r_top + 1):
        coeff = sf.digamma(r + 1.0) + sf.LN2
        lt = (sf.log_series_weight(order, r) - t[r + 1] - r * sf.LN2
              + math.log(coeff))
        if r:
            lt += r * math.log(lam)
        log_terms[r] = lt
    value, sign = sf.signed_logsumexp(log_terms, np.ones(r_top + 1))
    return sign * math.exp(value - 0.5 * lam)


def _g2_per_r_weights(lam, b, order):
    t = sf.lgamma_int(2 * order + 2)
    r_top = 0 if lam == 0.0 else order
    phis = sf._phi_eq_log_bracket(r_top, b)
    log_terms = np.full(r_top + 1, -math.inf)
    signs = np.zeros(r_top + 1)
    for r, phi in enumerate(phis):
        if phi == 0.0:
            continue
        lt = (sf.log_series_weight(order, r) - 2.0 * t[r + 1]
              - r * 2.0 * sf.LN2 + math.log(abs(phi)))
        if r:
            lt += r * math.log(lam)
        log_terms[r] = lt
        signs[r] = math.copysign(1.0, phi)
    value, sign = sf.signed_logsumexp(log_terms, signs)
    return sign * math.exp(value - 0.5 * lam)


def test_log_moment_series_keep_the_per_r_weight_bits():
    for order in (1, 5, 25, 40, 60):
        for lam in (0.0, 0.3, 5.0, 20.0, 60.0):
            assert sf._g1_series(lam, order) == _g1_per_r_weights(lam, order)
            for b in (1e-3, 0.1, 1.0, 10.0, 300.0):
                assert (sf._g2_series(lam, b, order)
                        == _g2_per_r_weights(lam, b, order))
