"""Special-function kernel.

Exact evaluators plus the finite-series approximations that the closed-form
metrics are built from. Every finite series is evaluated in log space with
sign tracking: the Gamma(order+idx) series weights overflow double precision
long before the assembled series value does.

Conventions: ``mode="exact"`` selects the reference evaluator and
``mode="truncated"`` (``mode="series"`` for the log-moment) the finite form
whose depth is set by a truncation order. Arguments are scalars unless a
docstring says otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606065
LN2 = math.log(2.0)

# ln of the largest representable double, rounded down.
_LOG_HUGE = 709.0


class SeriesOverflowError(OverflowError):
    """A function value left the representable range."""


@dataclass(frozen=True)
class TruncationOrders:
    """Depths of the three finite-series approximations used by the metrics.

    ``D`` truncates the first Marcum Q expansion, ``R`` the Bessel-I kernel of
    the connection series, ``Q`` the Bessel-I kernel of the leakage series.
    """

    D: int = 25
    R: int = 25
    Q: int = 25

    def __post_init__(self) -> None:
        if min(self.D, self.R, self.Q) < 1:
            raise ValueError(f"truncation orders must be >= 1, got {self}")


# ---------------------------------------------------------------------------
# log-space primitives

_LGAMMA_TABLE = np.array([math.inf, 0.0, 0.0])


def lgamma_int(n_max: int) -> np.ndarray:
    """Table t with t[k] = ln Gamma(k) for k = 0..n_max (t[0] = +inf)."""
    global _LGAMMA_TABLE
    if n_max >= _LGAMMA_TABLE.size:
        t = np.empty(n_max + 1)
        t[0] = math.inf
        for k in range(1, n_max + 1):
            t[k] = math.lgamma(k)
        _LGAMMA_TABLE = t
    return _LGAMMA_TABLE


def log_binomial(n: int, k) -> np.ndarray:
    """ln C(n, k) for integer 0 <= k <= n; k may be an integer array."""
    t = lgamma_int(n + 2)
    k = np.asarray(k)
    return t[n + 1] - t[k + 1] - t[n - k + 1]


def signed_logsumexp(log_mag, signs=None) -> tuple[float, float]:
    """Return (log|S|, sign(S)) for S = sum(signs * exp(log_mag)).

    Entries with log magnitude -inf are neutral. The sum is shifted by the
    largest magnitude, so cancellation costs precision but never overflows.
    Without ``signs`` every term is positive; that is the same sum as unit
    signs, since x * 1.0 is exact.
    """
    log_mag = np.asarray(log_mag, dtype=float)
    if log_mag.size == 0:
        return (-math.inf, 0.0)
    if np.isnan(log_mag).any():
        raise ValueError("NaN log magnitude in signed_logsumexp")
    m = float(np.max(log_mag))
    if m == -math.inf:
        return (-math.inf, 0.0)
    scaled = np.exp(log_mag - m)
    if signs is not None:
        scaled = np.asarray(signs, dtype=float) * scaled
    total = float(np.sum(scaled))
    if total == 0.0:
        return (-math.inf, 0.0)
    return (m + math.log(abs(total)), math.copysign(1.0, total))


def logsumexp(log_mag) -> float:
    """log(sum(exp(log_mag))) for all-positive terms."""
    return signed_logsumexp(log_mag)[0]


def log_series_weight(order: int, idx) -> np.ndarray:
    """ln of the truncation weight Gamma(order+idx) * order^(1-2 idx) / Gamma(order-idx+1).

    ``idx`` may be an integer array with 0 <= idx <= order. The weight tends
    to 1 for idx << order; it is what ties the finite series to the exact
    transcendental as the order grows.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    idx = np.asarray(idx)
    if np.any(idx < 0) or np.any(idx > order):
        raise ValueError("series index outside [0, order]")
    t = lgamma_int(2 * order + 1)
    return t[order + idx] + (1 - 2 * idx) * math.log(order) - t[order - idx + 1]


# ---------------------------------------------------------------------------
# fixed-panel Gauss-Legendre quadrature (reference integrals)

@functools.lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def panel_quadrature(f, edges, points: int = 32) -> float:
    """Integrate an elementwise callable over consecutive [edges[i], edges[i+1]] panels.

    ``f`` is called once, on the (panels x points) node matrix. Each row is
    reduced on its own and the panel totals are added in panel order.
    """
    x, w = _gl_rule(points)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    sums = np.sum(w * f(mid[:, None] + half[:, None] * x), axis=1)
    total = 0.0
    for h, s in zip(half, sums):
        total += h * float(s)
    return total


def _dyadic_edges(upper: float, splits: int = 54) -> np.ndarray:
    """Panel edges 0, upper/2^splits, ..., upper/2, upper.

    Geometric refinement toward zero keeps a logarithmic endpoint singularity
    analytic on every interior panel.
    """
    return np.concatenate(([0.0], upper * 2.0 ** np.arange(-splits, 1.0)))


# ---------------------------------------------------------------------------
# modified Bessel I

def bessel_i(x, mode: str = "exact", order: int | None = None):
    """Modified Bessel function of the first kind of order 0, x >= 0.

    Exact mode sums the ascending series adaptively; ``x`` may be an array
    there. Truncated mode (scalar x) evaluates the finite surrogate of depth
    ``order`` that the metric series inherit their weights from.
    """
    # written as "not >=" so that NaN fails too
    if not np.all(np.asarray(x) >= 0):
        raise ValueError(f"bessel_i requires x >= 0, got x={x}")
    if mode == "exact":
        value = _bessel_i0_series(x)
        return float(value) if np.ndim(x) == 0 else value
    if mode == "truncated":
        if order is None:
            raise ValueError("truncated mode needs an order")
        return _bessel_i0_truncated(x, order)
    raise ValueError(f"unknown bessel_i mode {mode!r}")


def _bessel_i0_series(x) -> np.ndarray:
    """Ascending series of I0 at every element of x >= 0.

    Each element runs the operations of the scalar series loop. Past
    k > x/2 its terms only shrink, so once a term is at most 1e-17 of its
    total, under half an ulp, no later term moves a bit: the sum stops when
    that holds for every element, and an element that got there early keeps
    its bits through the terms it takes while the others converge.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x > _LOG_HUGE):
        raise SeriesOverflowError(f"bessel_i({x.max()}) exceeds double range")
    half = 0.5 * x
    term = np.ones_like(half)
    total = term.copy()
    q = half * half
    top = half.max(initial=0.0)
    for k in range(1, 20000):
        term *= q / (k * k)
        total += term
        if k > top and np.all(term <= 1e-17 * total):
            return total
    raise RuntimeError("bessel_i series failed to converge")


def _bessel_i0_truncated(x: float, order: int) -> float:
    if x == 0.0:
        return 1.0
    t = lgamma_int(2 * order + 2)
    r = np.arange(order + 1)
    log_terms = log_series_weight(order, r) - 2.0 * t[r + 1] + 2.0 * r * math.log(0.5 * x)
    log_value = logsumexp(log_terms)
    if log_value > _LOG_HUGE:
        raise SeriesOverflowError(f"truncated I0({x}) exceeds double range")
    return math.exp(log_value)


# ---------------------------------------------------------------------------
# modified Bessel K (integer order)

def _log_k0_k1(x: float) -> tuple[float, float]:
    """ln K0(x) and ln K1(x) for every finite x > 0.

    K_nu(x) = e^-x integral_0^inf exp(-2x sinh^2(t/2)) cosh(nu t) dt. The
    integrand is even and analytic in a strip about the real axis, so the
    trapezoid rule converges exponentially in 1/h (Trefethen & Weideman,
    SIAM Review 56, 2014). The nodes stop where 2x sinh^2(t/2) reaches 746,
    past which every term is below e^-746 of the first. Summed in logs,
    with ln cosh t = t + ln(1 + e^-2t) - ln 2, neither e^-x nor K1 ~ 1/x
    leaves double range.
    """
    h = min(0.125, 0.5 / math.sqrt(x))
    root = math.sqrt(2.0 * x)
    t_max = 2.0 * math.asinh(math.sqrt(746.0) / root)
    t = h * np.arange(int(t_max / h) + 2)
    # (sqrt(2x) sinh(t/2))^2 rather than 2x sinh^2(t/2): the square of the
    # sinh alone overflows for subnormal x
    expo = -(root * np.sinh(0.5 * t)) ** 2
    expo[0] -= LN2  # the half weight of the end node
    log_cosh = t + np.log1p(np.exp(-2.0 * t)) - LN2
    lead = math.log(h) - x
    return lead + logsumexp(expo), lead + logsumexp(expo + log_cosh)


def log_bessel_k_sequence(nu_max: int, x: float) -> np.ndarray:
    """ln K_nu(x) for nu = 0..nu_max, finite for every finite x > 0.

    Upward recurrence in log space: the linear recurrence overflows near
    nu ~ 50 for small arguments while the log form cannot.
    """
    if not 0 < x < math.inf:
        raise ValueError(f"log_bessel_k_sequence requires finite x > 0, got x={x}")
    out = np.empty(nu_max + 1)
    out[:2] = _log_k0_k1(x)[: nu_max + 1]
    log_x = math.log(x)
    for v in range(1, nu_max):
        # K_{v+1} = (2v/x) K_v + K_{v-1} as a log-add-exp of ln(2v/x) and
        # ln(K_{v-1}/K_v); 2v/x itself overflows for x below v * 1.1e-308
        a, b = math.log(2.0 * v) - log_x, out[v - 1] - out[v]
        out[v + 1] = out[v] + max(a, b) + math.log1p(math.exp(-abs(a - b)))
    return out


# ---------------------------------------------------------------------------
# first-order Marcum Q

def marcum_q1(a: float, b, mode: str = "exact", order: int | None = None):
    """First-order Marcum Q function Q1(a, b).

    Exact mode sums the Poisson mixture Q1 = sum_k P[N_a = k] P[N_b <= k]
    with N_a ~ Poisson(a^2/2), N_b ~ Poisson(b^2/2); both factors update in
    O(1) and every term is positive. ``b`` may be an array in exact mode.
    Truncated mode evaluates the finite double series of depth ``order``.
    """
    if not a >= 0:
        raise ValueError(f"marcum_q1 requires a >= 0, got a={a}")
    if not np.all(np.asarray(b) >= 0):
        raise ValueError(f"marcum_q1 requires b >= 0, got b={b}")
    if mode == "exact":
        return _marcum_q1_exact(a, b)
    if mode == "truncated":
        if order is None:
            raise ValueError("truncated mode needs an order")
        if not math.isfinite(a) or not math.isfinite(b):
            raise ValueError(f"truncated marcum_q1 requires finite a and b, got a={a}, b={b}")
        return _marcum_q1_truncated(a, float(b), order)
    raise ValueError(f"unknown marcum_q1 mode {mode!r}")


def _marcum_q1_exact(a: float, b):
    scalar = np.isscalar(b)
    y = np.atleast_1d(np.asarray(b, dtype=float))
    ha = 0.5 * a * a
    if ha > 700.0:
        raise SeriesOverflowError(
            f"marcum_q1 exact mode underflows for a^2/2 = {ha:.3g} > 700"
        )
    with np.errstate(over="ignore"):
        hy = 0.5 * y * y
    # past b ~ 1.3e154, b^2/2 overflows and Q1 is 0 to double precision
    near = ~np.isinf(hy)
    q = np.zeros_like(y)
    if np.any(near):
        q[near] = _poisson_mixture(ha, hy[near])
    return float(q[0]) if scalar else q


def _poisson_mixture(ha: float, hy: np.ndarray) -> np.ndarray:
    # t = Poisson pmf of N_b at k, g = its CDF; p = Poisson pmf of N_a at k.
    t = np.exp(-hy)
    g = t.copy()
    p = math.exp(-ha)
    cum_p = p
    q = p * g
    k = 0
    while cum_p < 1.0 - 1e-16 and k < 100000:
        k += 1
        t *= hy / k
        g += t
        p *= ha / k
        cum_p += p
        q += p * g
        # cum_p can settle a few ulp short of 1 (0.9999999999999998 at
        # a = 4). Past the mode p only shrinks and g stays below 2, so once
        # adding 2p moves neither cum_p nor any q, no later term changes a
        # bit and the loop may stop.
        if k > ha and cum_p + p == cum_p and np.all(q + 2.0 * p == q):
            break
    # remaining Poisson mass multiplies CDF values <= 1; cum_p itself can
    # round a few ulp past 1, which must not drag q below 0
    return np.minimum(q + max(1.0 - cum_p, 0.0), 1.0)


def _marcum_q1_truncated(a: float, b: float, order: int) -> float:
    t = lgamma_int(2 * order + 2)
    expo = -0.5 * (a * a + b * b)
    d_top = 0 if a == 0.0 else order
    # all (d, u) with u <= d (u = 0 when b = 0), d-major
    if b == 0.0:
        d, u = np.arange(d_top + 1), np.zeros(d_top + 1, dtype=int)
    else:
        d, u = np.tril_indices(d_top + 1)
    w_d = log_series_weight(order, d) - t[d + 1]
    log_terms = w_d - t[u + 1] - (d + u) * LN2 + expo
    # the d = 0 and u = 0 terms gain a signed zero, which moves no bit
    if a != 0.0:
        log_terms += 2.0 * d * math.log(a)
    if b != 0.0:
        log_terms += 2.0 * u * math.log(b)
    return math.exp(logsumexp(log_terms))


# ---------------------------------------------------------------------------
# gamma family

def digamma(x: float) -> float:
    """Psi function for x > 0: recurrence shift into the asymptotic region."""
    if x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = math.log(x) - 0.5 / x - inv2 * (
        1.0 / 12.0
        - inv2
        * (
            1.0 / 120.0
            - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * 691.0 / 32760.0)))
        )
    )
    return acc + tail


def log_upper_incomplete_gamma(a: int, x: float) -> float:
    """ln Gamma(a, x), integer a >= 1, x >= 0; stable for large x."""
    # written as "not <" so that NaN fails too
    if not 1 <= a < math.inf or a != int(a):
        raise ValueError(f"integer a >= 1 required, got a={a}")
    if not 0 <= x < math.inf:
        raise ValueError(f"finite x >= 0 required, got x={x}")
    a = int(a)
    t = lgamma_int(a + 1)
    if x == 0.0:
        return t[a]
    k = np.arange(a)
    return t[a] - x + logsumexp(k * math.log(x) - t[k + 1])


# ---------------------------------------------------------------------------
# exponential integral E1

def log_exp_integral_e1(x: float) -> float:
    """ln E1(x); remains finite for arguments far beyond the linear range."""
    if not 0 < x < math.inf:
        raise ValueError(f"log_exp_integral_e1 requires finite x > 0, got x={x}")
    if x <= 1.5:
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 200):
            term *= -x / k
            total -= term / k
            if abs(term) < 1e-18 * k:
                break
        return math.log(total)
    return -x - math.log(_e1_continued_fraction(x))


def _e1_continued_fraction(x: float) -> float:
    """f with E1(x) = exp(-x)/f, by the modified Lentz algorithm."""
    tiny = 1e-300
    f = x + 1.0
    c = f
    d = 0.0
    for n in range(1, 500):
        a_n = -n * n
        b_n = x + 2.0 * n + 1.0
        d = b_n + a_n * d
        if d == 0.0:
            d = tiny
        c = b_n + a_n / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f
    return f


# ---------------------------------------------------------------------------
# Lemma machinery: E[ln(X + b)] for X ~ noncentral chi-square, 2 dof

@functools.lru_cache(maxsize=256)
def log_moment_ncx2(lam: float, b: float, mode: str = "series", order: int = 25):
    """E[ln(X + b)] where X is noncentral chi-square with 2 degrees of
    freedom and noncentrality lam >= 0, and b >= 0 is a constant offset.

    Series mode evaluates the finite form of depth ``order`` used by the rate
    lower bound; quadrature mode integrates the density directly and is the
    reference the series is validated against.

    Values are cached per argument tuple: a grid of rate bounds repeats the
    same few (lam, b), since the offset depends on the split and not on the
    allocation. Errors are not cached.
    """
    if not 0 <= lam < math.inf:
        raise ValueError(f"finite lam >= 0 required, got lam={lam}")
    if not 0 <= b < math.inf:
        raise ValueError(f"finite b >= 0 required, got b={b}")
    if mode == "quadrature":
        return _log_moment_quadrature(lam, b)
    if mode != "series":
        raise ValueError(f"unknown log_moment_ncx2 mode {mode!r}")
    if b == 0.0:
        return _g1_series(lam, order)
    return _g2_series(lam, b, order)


def _log_moment_quadrature(lam: float, b: float) -> float:
    upper = (math.sqrt(lam) + 14.0) ** 2

    def f(x):
        dens = 0.5 * np.exp(-0.5 * (x + lam))
        if lam > 0:
            dens = dens * _bessel_i0_series(np.sqrt(lam * x))
        return np.log(x + b) * dens

    return panel_quadrature(f, _dyadic_edges(upper, splits=54), points=32)


def _g1_series(lam: float, order: int) -> float:
    """Finite form of E[ln X]; every term is positive."""
    t = lgamma_int(2 * order + 2)
    r_top = 0 if lam == 0.0 else order
    w = log_series_weight(order, np.arange(r_top + 1))
    log_terms = np.empty(r_top + 1)
    for r in range(r_top + 1):
        # math.log, not np.log: the two differ in the last bit
        coeff = digamma(r + 1.0) + LN2
        lt = w[r] - t[r + 1] - r * LN2 + math.log(coeff)
        if r:
            lt += r * math.log(lam)
        log_terms[r] = lt
    return math.exp(logsumexp(log_terms) - 0.5 * lam)


def _g2_series(lam: float, b: float, order: int) -> float:
    """Finite form of E[ln(X + b)], b > 0; every term is positive.

    Phi(i, b) = 2^i i! E[ln(Y + b)] with Y ~ Gamma(i + 1, scale 2), and
    E[ln Y] >= ln 2 - gamma > 0, so Phi > 0 for every b > 0.
    """
    t = lgamma_int(2 * order + 2)
    r_top = 0 if lam == 0.0 else order
    phis = _phi_eq_log_bracket(r_top, b)
    w = log_series_weight(order, np.arange(r_top + 1))
    log_terms = np.empty(r_top + 1)
    for r in range(r_top + 1):
        lt = w[r] - 2.0 * t[r + 1] - r * 2.0 * LN2 + math.log(phis[r])
        if r:
            lt += r * math.log(lam)
        log_terms[r] = lt
    return math.exp(logsumexp(log_terms) - 0.5 * lam)


def _phi_eq_log_bracket(i_max: int, b: float) -> list[float]:
    """Phi(i, b) = (1/2) integral_0^inf x^i ln(x+b) exp(-x/2) dx for all
    i = 0..i_max at a shared offset b > 0.

    The route is picked by b alone. Below b = 1 the closed form expands the
    binomial (x + b - b)^i and pairs each power with the log-weighted tail
    integral. That expansion cancels more as b grows (1.4e-7 relative at
    b = 16), so from b = 1 the Gauss-Laguerre rule takes every index. Against
    a 30-digit quadrature over i <= 149 and b in [1e-6, 1e6], each route
    held 2.3e-13 relative on its side of b = 1.
    """
    if b >= 1.0:
        return _phi_fixed_point(range(i_max + 1), b).tolist()
    out: list[float] = []
    x_half = 0.5 * b
    log_b = math.log(b)
    t = lgamma_int(i_max + 2)
    # lg_upper[j] = ln Gamma(j+1, x); prefix sums of Gamma(k, x)/k! build
    # G(j) = j! (E1 + sum_{k<=j} ...). Neither depends on i.
    lg_upper = np.array([log_upper_incomplete_gamma(j + 1, x_half)
                         for j in range(i_max + 1)])
    log_gamma_terms = [log_exp_integral_e1(x_half)]
    log_gamma_terms += [lg_upper[k - 1] - t[k + 1] for k in range(1, i_max + 2)]
    log_g = np.array([t[j + 1] + logsumexp(log_gamma_terms[: j + 1])
                      for j in range(i_max + 1)])
    for i in range(i_max + 1):
        j = np.arange(i + 1)
        log_common = log_binomial(i, j) + (i - j) * log_b + j * LN2
        sign_binom = np.where((i - j) % 2 == 0, 1.0, -1.0)
        # the two terms of each j sit side by side, as the reduction expects;
        # ln b < 0 flips the sign of the second
        log_mag = np.empty(2 * (i + 1))
        signs = np.empty(2 * (i + 1))
        log_mag[0::2] = log_common + log_g[: i + 1]
        signs[0::2] = sign_binom
        log_mag[1::2] = log_common + math.log(-log_b) + lg_upper[: i + 1]
        signs[1::2] = -sign_binom
        value, sign = signed_logsumexp(log_mag, signs)
        try:
            out.append(sign * math.exp(x_half + value))
        except OverflowError:
            raise SeriesOverflowError(f"Phi({i}, {b}) exceeds double range") from None
    return out


@functools.lru_cache(maxsize=None)
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    # numpy's 120-node rule holds its low moments to ~2e-13; the 80-, 100-
    # and 130-node rules do worse
    return np.polynomial.laguerre.laggauss(120)


def _phi_fixed_point(indices, b: float) -> np.ndarray:
    """Phi(i, b) for the given indices on one fixed Gauss-Laguerre rule.

    Phi(i, b) = 2^i integral_0^inf t^i ln(2t + b) exp(-t) dt. For b >= 1 the
    integrand is positive and smooth on [0, inf) (the log singularity sits at
    t = -b/2 <= -1/2), so the rule holds about 2.3e-13 relative for i <= 149.
    Closer to the singularity it does not: 1.3e-5 at b = 0.1.
    """
    nodes, weights = _laguerre_rule()
    i = np.asarray(indices)
    # t^i = s^i (t/s)^i with s = max(i, 1) near the peak of t^i exp(-t)
    # keeps every power inside double range. (2s)^i itself leaves it from
    # i = 128, so its binary exponent is applied last, by an exact ldexp;
    # only a Phi past double range comes out infinite.
    s = np.maximum(i, 1).astype(float)
    powers = (nodes[None, :] / s[:, None]) ** i[:, None]
    mantissa, exponent = np.frexp(2.0 * s)
    with np.errstate(over="ignore"):
        phi = np.ldexp(mantissa ** i * (powers @ (weights * np.log(2.0 * nodes + b))),
                       exponent * i)
    if not np.all(np.isfinite(phi)):
        raise SeriesOverflowError(
            f"Phi({i[~np.isfinite(phi)][0]}, {b}) exceeds double range")
    return phi
