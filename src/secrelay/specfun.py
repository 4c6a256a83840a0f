"""Special-function kernel.

Exact evaluators plus the finite-series approximations that the closed-form
metrics are built from. Every finite series is a sum of positive
terms evaluated in log space: the Gamma(order+idx) series weights overflow
double precision long before the assembled series value does.

Conventions: ``mode="exact"`` selects the reference evaluator and
``mode="truncated"`` (``mode="series"`` for the log-moment) the finite form
whose depth is set by a truncation order. Arguments are scalars unless a
docstring says otherwise; a function that takes an array returns a float for
a scalar argument and an array of the argument's shape otherwise.
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

# Entries per term matrix of a whole-array truncated series: a matrix holds
# as many rows as fit, and at least one.
_MATRIX_TERMS = 2**20


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


def logsumexp(log_terms) -> float:
    """log(sum(exp(log_terms))) for positive terms given by their logs.

    Entries at -inf are neutral. The sum is shifted by the largest term, so
    it never overflows.
    """
    log_terms = np.asarray(log_terms, dtype=float)
    if log_terms.size == 0:
        return -math.inf
    if np.isnan(log_terms).any():
        raise ValueError("NaN log term in logsumexp")
    m = float(np.max(log_terms))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(log_terms - m))))


def row_logsumexp(terms: np.ndarray) -> np.ndarray:
    """ln sum_j exp(terms[i, j]) for every row i; an all -inf row gives -inf.

    Each row is reduced as logsumexp reduces a 1-D array: the same shift,
    the same pairwise sum over a row of the same length, math.log of the
    total (numpy's vectorized log may differ from libm in the last bit).
    """
    m = np.max(terms, axis=1)
    shift = np.where(m == -math.inf, 0.0, m)
    totals = np.sum(np.exp(terms - shift[:, None]), axis=1)
    return shift + np.array([math.log(t) if t > 0.0 else -math.inf
                             for t in totals.tolist()])


def _row_blocks(rows: np.ndarray, n_terms: int) -> list[np.ndarray]:
    """rows cut into runs whose term matrices of width n_terms fit _MATRIX_TERMS."""
    step = max(1, _MATRIX_TERMS // n_terms)
    return [rows[i:i + step] for i in range(0, rows.size, step)]


def _require(ok, requirement: str, name: str, value) -> None:
    """Raise ValueError naming the first element of value where ok is False."""
    ok = np.asarray(ok)
    if not ok.all():
        bad = np.asarray(value, dtype=float)[~ok].flat[0]
        raise ValueError(f"{requirement}, got {name}={float(bad)}")


def _scalar(name: str, value):
    """An argument that must be one value: itself, or the number a 0-d array
    holds; any other array raises ValueError naming the argument."""
    if isinstance(value, (int, float)):
        # the common case, without the array np.ndim would make of it
        return value
    if np.ndim(value) != 0:
        raise ValueError(f"{name} must be a scalar, got an array of shape "
                         f"{np.shape(value)}")
    return value.item() if isinstance(value, np.ndarray) else value


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

    ``x`` may be an array in either mode. Exact mode sums the ascending
    series adaptively. Truncated mode evaluates the finite surrogate of depth
    ``order`` that the metric series inherit their weights from, for finite
    x only; every element keeps the bits of its own scalar call.
    """
    # x >= 0 is False at NaN, so NaN fails too
    _require(np.asarray(x) >= 0, "bessel_i requires x >= 0", "x", x)
    if mode == "exact":
        value = _bessel_i0_series(x)
    elif mode == "truncated":
        if order is None:
            raise ValueError("truncated mode needs an order")
        _require(np.isfinite(x), "truncated bessel_i requires finite x", "x", x)
        value = _bessel_i0_truncated(np.asarray(x, dtype=float), order)
    else:
        raise ValueError(f"unknown bessel_i mode {mode!r}")
    return float(value) if np.ndim(x) == 0 else value


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


def _bessel_i0_truncated(x: np.ndarray, order: int) -> np.ndarray:
    """Truncated I0 at every element of x, one term matrix row per element.

    Each row holds the scalar series' terms with its arithmetic; ln(x/2) and
    the final exp are libm's, taken one element at a time. Where x/2 is 0
    (x = 0, or the least subnormal) the value is 1, as it is at x = 1e-323.
    """
    t = lgamma_int(2 * order + 2)
    r = np.arange(order + 1)
    base = log_series_weight(order, r) - 2.0 * t[r + 1]
    two_r = 2.0 * r
    flat = x.ravel()
    value = np.ones(flat.size)
    for rows in _row_blocks(np.flatnonzero(0.5 * flat), r.size):
        log_half = np.array([math.log(0.5 * v) for v in flat[rows].tolist()])
        log_values = row_logsumexp(base + two_r * log_half[:, None])
        for i, log_value in zip(rows.tolist(), log_values.tolist()):
            if log_value > _LOG_HUGE:
                raise SeriesOverflowError(f"truncated I0({flat[i]}) exceeds double range")
            value[i] = math.exp(log_value)
    return value.reshape(x.shape)


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
    O(1) and every term is positive. Truncated mode evaluates the finite
    double series of depth ``order``, for finite a and b only. ``b`` may be
    an array in either mode; in truncated mode every element keeps the bits
    of its own scalar call. ``a`` must be a scalar.
    """
    a = _scalar("a", a)
    if not a >= 0:
        raise ValueError(f"marcum_q1 requires a >= 0, got a={a}")
    _require(np.asarray(b) >= 0, "marcum_q1 requires b >= 0", "b", b)
    if mode == "exact":
        return _marcum_q1_exact(a, b)
    if mode == "truncated":
        if order is None:
            raise ValueError("truncated mode needs an order")
        requirement = "truncated marcum_q1 requires finite a and b"
        _require(math.isfinite(a), requirement, "a", a)
        _require(np.isfinite(b), requirement, "b", b)
        q = _marcum_q1_truncated(a, np.asarray(b, dtype=float), order)
        return float(q) if np.ndim(b) == 0 else q
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


def _marcum_q1_truncated(a: float, b: np.ndarray, order: int) -> np.ndarray:
    """Truncated Q1(a, b) at every element of b, one term matrix row per element.

    Each row holds the scalar series' terms, with its arithmetic in its
    order; ln b and the final exp are libm's, taken one element at a time.
    """
    t = lgamma_int(2 * order + 2)
    d_top = 0 if a == 0.0 else order
    flat = b.ravel()
    q = np.empty(flat.size)
    zero = flat == 0.0
    for b_zero in (True, False):
        rows = np.flatnonzero(zero == b_zero)
        if rows.size == 0:
            continue
        # all (d, u) with u <= d (u = 0 when b = 0), d-major
        if b_zero:
            d, u = np.arange(d_top + 1), np.zeros(d_top + 1, dtype=int)
        else:
            d, u = np.tril_indices(d_top + 1)
        w_d = log_series_weight(order, d) - t[d + 1]
        base = w_d - t[u + 1] - (d + u) * LN2
        # the d = 0 and u = 0 terms gain a signed zero, which moves no bit
        log_a_terms = 2.0 * d * math.log(a) if a != 0.0 else None
        two_u = None if b_zero else 2.0 * u
        del d, u, w_d  # at order 2000 each index array is 16 MB
        for block in _row_blocks(rows, base.size):
            with np.errstate(over="ignore"):  # b * b past 1.3e154 is inf, Q1 is 0
                expo = -0.5 * (a * a + flat[block] * flat[block])
            terms = base + expo[:, None]
            if log_a_terms is not None:
                terms += log_a_terms
            if two_u is not None:
                log_b = np.array([math.log(v) for v in flat[block].tolist()])
                terms += two_u * log_b[:, None]
            q[block] = [math.exp(v) for v in row_logsumexp(terms).tolist()]
    return q.reshape(b.shape)


# ---------------------------------------------------------------------------
# exponential integrals E_n

def log_exp_integral_e1(x: float) -> float:
    """ln E1(x); remains finite for arguments far beyond the linear range."""
    if not 0 < x < math.inf:
        raise ValueError(f"log_exp_integral_e1 requires finite x > 0, got x={x}")
    if x <= 1.5:
        return math.log(_e1_ascending_series(x, -EULER_GAMMA - math.log(x)))
    return -x - math.log(_en_continued_fraction(1, x))


def _e1_ascending_series(x: float, total: float) -> float:
    """total - sum_{k>=1} (-x)^k / (k k!); E1(x) for total = -gamma - ln x."""
    term = 1.0
    for k in range(1, 200):
        term *= -x / k
        total -= term / k
        if abs(term) < 1e-18 * k:
            break
    return total


def _en_continued_fraction(n: int, x: float) -> float:
    """f with E_n(x) = exp(-x)/f, by the modified Lentz algorithm."""
    tiny = 1e-300
    f = x + n
    c = f
    d = 0.0
    for k in range(1, 500):
        a_k = -k * (n - 1 + k)
        b_k = x + 2.0 * k + n
        d = b_k + a_k * d
        if d == 0.0:
            d = tiny
        c = b_k + a_k / c
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

def log_moment_ncx2(lam: float, b: float, mode: str = "series", order: int = 25):
    """E[ln(X + b)] where X is noncentral chi-square with 2 degrees of
    freedom and noncentrality lam >= 0, and b >= 0 is a constant offset.

    Series mode evaluates the finite form of depth ``order`` used by the rate
    lower bound, the Poisson(lam/2) mixture sum_r w_r P(r) E[ln(Y_r + b)]
    with Y_r ~ Gamma(r + 1, scale 2) and truncation weights w_r; every term
    is positive. Quadrature mode integrates the density directly and is the
    reference the series is validated against.

    Values are cached per argument tuple: a grid of rate bounds repeats the
    same few (lam, b), since the offset depends on the split and not on the
    allocation. Errors are not cached. lam and b must be scalars; an array
    is refused before the cache would try to hash it.
    """
    return _cached_log_moment(_scalar("lam", lam), _scalar("b", b), mode, order)


@functools.lru_cache(maxsize=256)
def _cached_log_moment(lam: float, b: float, mode: str, order: int) -> float:
    if not 0 <= lam < math.inf:
        raise ValueError(f"finite lam >= 0 required, got lam={lam}")
    if not 0 <= b < math.inf:
        raise ValueError(f"finite b >= 0 required, got b={b}")
    if mode == "quadrature":
        return _log_moment_quadrature(lam, b)
    if mode != "series":
        raise ValueError(f"unknown log_moment_ncx2 mode {mode!r}")
    if lam == 0.0:
        # X is Y_0 itself, exponential with mean 2
        return float(_log_offset_moments(0, b)[0])
    r = np.arange(order + 1)
    log_terms = (log_series_weight(order, r) - lgamma_int(order + 1)[r + 1] - r * LN2
                 + np.log(_log_offset_moments(order, b)) + r * math.log(lam))
    return math.exp(logsumexp(log_terms) - 0.5 * lam)


# the cache's handles, on the public name
log_moment_ncx2.cache_clear = _cached_log_moment.cache_clear
log_moment_ncx2.__wrapped__ = _cached_log_moment.__wrapped__


def _log_moment_quadrature(lam: float, b: float) -> float:
    upper = (math.sqrt(lam) + 14.0) ** 2
    return panel_quadrature(
        lambda x: np.log(x + b) * _ncx2_density(lam, x.tobytes(), x.shape),
        _dyadic_edges(upper, splits=54), points=32)


@functools.lru_cache(maxsize=64)
def _ncx2_density(lam: float, nodes: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """Noncentral chi-square density (2 dof, noncentrality lam) at the nodes.

    The nodes come as the bytes of a float array of the given shape, so the
    density is memoized on them: every offset b of one lam integrates over
    the same panel nodes, and their I0 series runs once.
    """
    x = np.frombuffer(nodes).reshape(shape)
    dens = 0.5 * np.exp(-0.5 * (x + lam))
    if lam > 0:
        dens = dens * _bessel_i0_series(np.sqrt(lam * x))
    dens.setflags(write=False)
    return dens


def _log_offset_moments(i_max: int, b: float) -> np.ndarray:
    """e_i = E[ln(Y_i + b)] with Y_i ~ Gamma(i + 1, scale 2), for i = 0..i_max
    and every finite b >= 0; each e_i >= ln 2 - gamma > 0.

    Integration by parts gives e_i - e_{i-1} = j_i = e^c E_{i+1}(c), c = b/2,
    and E_n's recurrence gives j_i = (1 - c j_{i-1}) / i. An error in j_{i-1}
    is multiplied by c/i there, so the recurrence runs forward above i = c
    and backward below it, from one anchor j_m, m = min(i_max, floor(c)),
    taken from the continued fraction of E_{m+1}. Below c = 1 the anchor is
    j_0 = e^c E1(c) from the ascending series, written with ln c = ln b - ln 2
    so that e_0 = ln b + j_0 cancels nothing as b -> 0, where it meets
    e_0 = ln 2 - gamma and the increments 1/i of b = 0. Against a 25-digit
    quadrature over i <= 400 and 40 offsets from 0 to 1e6, every e_i held
    2e-15.
    """
    c = 0.5 * b
    j = np.empty(i_max + 1)
    if c < 1.0:
        m = 0
        # ln b only enters times c or expm1(c), both 0 at b = 0
        log_b = math.log(b) if b > 0.0 else 0.0
        series = _e1_ascending_series(c, LN2 - EULER_GAMMA)  # E1(c) + ln b
        exp_c = math.exp(c)
        j[0] = exp_c * (series - log_b)
        e_0 = exp_c * series - math.expm1(c) * log_b
    else:
        m = min(i_max, int(c))
        j[m] = 1.0 / _en_continued_fraction(m + 1, c)
        for i in range(m, 0, -1):
            j[i - 1] = (1.0 - i * j[i]) / c
        e_0 = math.log(b) + j[0]
    for i in range(m + 1, i_max + 1):
        j[i] = (1.0 - c * j[i - 1]) / i
    j[0] = e_0  # e_i = e_0 + j_1 + ... + j_i
    return np.cumsum(j)
