"""Truncated-series evaluators for the three secrecy metrics.

Connection probability and the second secrecy-outage factor are finite
multiple series over Rician expansion indices; the rate lower bound is a
Jensen-style log-moment expression. Every series is accumulated in log
space: powers, factorials, Bessel and confluent factors enter as logarithms,
so deep operating points (high power, order 25) stay inside float range.
Every CP and phase-2 outage term is a product of one-index factors, tied
only by u = s + m (CP) or u = r + s + m (outage) and u <= d. Each factor is
a vector over its own index; the Bessel-kernel index is summed once per
offset -m into a vector h(m). Log-space anti-diagonal convolutions then
combine the factors over u, a prefix sum runs u up to d, and one
logsumexp over d gives the series: O(D^2) work per call, and no array
spans more than one index set besides the (D + 1) x (R + 1) or
(D + 1) x (Q + 1) Bessel rows.

Probabilities come back as the raw series value plus a [0, 1]-clamped
companion. The truncation weights keep the finite sums close to the exact
transcendentals but can leave small out-of-range residues, and consumers
need the raw number to judge the truncation rather than a silently
repaired one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun as sf
from .channel_models import LinkSet
from .protocol import ProtocolConfig, require_noise, sinr_terms

_NEG_INF = float("-inf")


class ClosedFormUndefinedError(ValueError):
    """The closed form does not apply at this input: a power split at 0 or
    1, no jamming power where the bound needs it, or Rician fading on an
    eavesdropper ground link. The CLI writes such a series cell as nan."""


@dataclass(frozen=True)
class SeriesAuxiliaries:
    """Constants of the eavesdropper-branch series, fixed by (config, links).

    a1, a2, a3 split the phase-2 outage threshold into its jamming,
    relay-noise, and processing-noise contributions, each normalized by the
    source-relay arrival power. The b and c families collect the Rician
    constants that multiply them inside the series.
    """

    a1: float
    a2: float
    a3: float
    a: float
    b: float
    b_tilde: float
    c_tilde: float
    c1: float

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "a", "b", "b_tilde", "c_tilde", "c1"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")


def series_auxiliaries(cfg: ProtocolConfig, links: LinkSet) -> SeriesAuxiliaries:
    """Auxiliary constants for the phase-2 outage factor. Needs 0 < beta < 1."""
    delta = cfg.delta_e
    beta, eta = cfg.power_split, cfg.harvester_efficiency
    zeta, n0 = cfg.processing_noise_ratio, cfg.noise_power
    p_a, p_b = cfg.source_power, cfg.jamming_power
    k_au, k_ub, k_ue = links.au.k_factor, links.ub.k_factor, links.ue.k_factor
    l_au, l_ub, l_ue = (links.au.large_scale_gain, links.ub.large_scale_gain,
                        links.ue.large_scale_gain)

    a1 = delta * p_b * l_ub / (p_a * l_au)
    a2 = delta * n0 / (eta * beta * p_a * l_au * l_ue)
    a3 = delta * (1.0 - beta + zeta) * n0 / ((1.0 - beta) * p_a * l_au)
    b = 2.0 * (1.0 + k_au) * a1
    return SeriesAuxiliaries(
        a1=a1,
        a2=a2,
        a3=a3,
        a=2.0 * k_au,
        b=b,
        b_tilde=0.5 * b + k_ub + 1.0,
        c_tilde=math.sqrt(k_ub * (1.0 + k_ub)),
        c1=k_ue * (1.0 + k_ue),
    )


class SeriesProbability(NamedTuple):
    """Raw series value alongside its [0, 1] clamp."""

    raw: float
    clamped: float


def _as_series_probability(raw: float) -> SeriesProbability:
    return SeriesProbability(raw, min(max(raw, 0.0), 1.0))


def _xlog(exponents, base: float) -> np.ndarray:
    """exponents * log(base) with the 0 * log(0) = 0 convention."""
    exponents = np.asarray(exponents)
    if base == 0.0:
        return np.where(exponents == 0, 0.0, _NEG_INF)
    return exponents * math.log(base)


def _require_in_range(terms: np.ndarray, label: str,
                      what: str = "log-term") -> None:
    """A NaN or +inf log-term means the series left float range."""
    flat = terms.ravel()
    bad = np.isnan(flat) | np.isposinf(flat)
    if np.any(bad):
        index = int(np.argmax(bad))
        raise sf.SeriesOverflowError(
            f"{label} series: {what} {index} of {flat.size} is {flat[index]}"
        )


def _require_factors_in_range(label: str, **factors: np.ndarray) -> None:
    for name, factor in factors.items():
        _require_in_range(factor, label, f"{name}-factor log-term")


def _checked_logsumexp(terms: np.ndarray, label: str) -> float:
    _require_in_range(terms, label)
    return sf.logsumexp(terms.ravel())


def _require_finite_constants(label: str, **constants: float) -> None:
    for name, value in constants.items():
        if not math.isfinite(value):
            raise sf.SeriesOverflowError(f"{label} series: {name} is {value}")


def _log_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """z[u] = ln sum_{i + j = u} exp(x[i] + y[j]) for u < len(x) = len(y).

    Row u of the lower-triangular term matrix holds x[i] + y[u - i]; the
    negative lags above it index y from the end and are masked out.
    """
    k = np.arange(x.size)
    lag = k[:, None] - k
    return sf.row_logsumexp(np.where(lag >= 0, x + y[lag], _NEG_INF))


def _log_nested_sum(outer: np.ndarray, inner: np.ndarray, label: str) -> float:
    """ln sum_d exp(outer[d]) sum_{u <= d} exp(inner[u]).

    The prefix sums over u <= d are a convolution with ln 1 = 0.
    """
    prefix = _log_convolve(inner, np.zeros(inner.size))
    return _checked_logsumexp(outer + prefix, label)


def _bessel_inner_logsums(
    base_inner: np.ndarray,
    depth: int,
    argument: float,
    log_ratio: float,
    label: str,
) -> np.ndarray:
    """h[m] = ln sum_j exp(base_inner[j] + nu log_ratio / 2
    + ln K_|nu|(argument)) with nu = j + 1 - m, for m = 0..depth.

    The Bessel-kernel index j meets the outer indices only through the
    offset -m, so each offset is reduced once, as one row of a
    (depth + 1, inner) term matrix. A NaN or +inf row is reported as the
    first bad row in increasing order of the offset.
    """
    j = np.arange(base_inner.size)
    # |nu| peaks at depth - 1 (m = depth, first j) or at base_inner.size
    # (m = 0, last j)
    log_k = sf.log_bessel_k_sequence(max(depth - 1, base_inner.size), argument)
    nu = j + 1 - np.arange(depth + 1)[:, None]
    terms = base_inner + 0.5 * nu * log_ratio + log_k[np.abs(nu)]
    bad_rows = np.any(np.isnan(terms) | np.isposinf(terms), axis=1)
    if np.any(bad_rows):
        _require_in_range(terms[depth - np.argmax(bad_rows[::-1])], label)
    return sf.row_logsumexp(terms)


def _require_interior_split(cfg: ProtocolConfig) -> None:
    # beta at either end starves the relay of signal or of harvested power
    if not 0.0 < cfg.power_split < 1.0:
        raise ClosedFormUndefinedError(
            f"power_split must lie strictly inside (0, 1), got {cfg.power_split}"
        )


def connection_probability(
    cfg: ProtocolConfig,
    links: LinkSet,
    orders: sf.TruncationOrders = sf.TruncationOrders(),
) -> SeriesProbability:
    """Probability that the destination decodes at the transmission rate.

    Finite weighted series over the source-relay expansion index d, its
    binomial split (u, s) of the two threshold contributions, and the
    relay-destination index r, with a modified Bessel K factor joining the
    two links.
    """
    require_noise(cfg)
    _require_interior_split(cfg)
    delta = cfg.delta_t
    if delta == 0.0:
        # zero threshold: the end-to-end SINR is positive almost surely
        return SeriesProbability(1.0, 1.0)
    beta, eta = cfg.power_split, cfg.harvester_efficiency
    zeta, n0 = cfg.processing_noise_ratio, cfg.noise_power
    p_a = cfg.source_power
    k_au, k_ub = links.au.k_factor, links.ub.k_factor
    l_au, l_ub = links.au.large_scale_gain, links.ub.large_scale_gain

    # threshold split: direct-noise part scales 1/P_a, relayed part 1/(P_a L_ub)
    part_a = (1.0 - beta + zeta) * n0 * delta / ((1.0 - beta) * p_a * l_au)
    part_b = n0 * delta / (eta * beta * p_a * l_au * l_ub)
    _require_finite_constants("connection", part_a=part_a, part_b=part_b)

    depth, radial = orders.D, orders.R
    lg = sf.lgamma_int(depth + radial + 3)
    w_d = sf.log_series_weight(depth, np.arange(depth + 1))
    w_r = sf.log_series_weight(radial, np.arange(radial + 1))

    # each term factors over d, u = s + m, s and the Bessel offset -m, and
    # every one of these indices runs over 0..depth
    i = np.arange(depth + 1)
    factor_d = w_d - lg[i + 1] + _xlog(i, k_au)
    factor_u = i * math.log1p(k_au)
    factor_s = _xlog(i, part_a) - lg[i + 1]
    factor_m = _xlog(i, part_b) - lg[i + 1]
    r = np.arange(radial + 1)
    base_r = w_r - 2.0 * lg[r + 1] + _xlog(r, k_ub * (1.0 + k_ub))
    _require_factors_in_range("connection", d=factor_d, u=factor_u, s=factor_s,
                              m=factor_m, r=base_r)

    argument = 2.0 * math.sqrt((1.0 + k_au) * (1.0 + k_ub) * part_b)
    log_ratio = math.log((1.0 + k_au) * part_b / (1.0 + k_ub))
    h = _bessel_inner_logsums(base_r, depth, argument, log_ratio, "connection")
    by_u = _log_convolve(factor_s, factor_m + h)
    log_sum = _log_nested_sum(factor_d, factor_u + by_u, "connection")
    log_prefix = (math.log(2.0 * (1.0 + k_ub))
                  - k_au - k_ub - (1.0 + k_au) * part_a)
    raw = math.exp(log_prefix + log_sum)
    return _as_series_probability(raw)


def _log_f11_table(max_r: int, x: float) -> np.ndarray:
    """log 1F1(r+1; 1; x) for r = 0..max_r via e^x * sum_k C(r,k) x^k / k!.

    C(r,k) / k! = r! / (k!^2 (r-k)!), so the sums over k <= r are one
    anti-diagonal convolution of x^k / k!^2 with 1 / j!.
    """
    lg = sf.lgamma_int(max_r + 2)
    k = np.arange(max_r + 1)
    return x + lg[k + 1] + _log_convolve(_xlog(k, x) - 2.0 * lg[k + 1],
                                         -lg[k + 1])


def _require_rayleigh_ground_links(links: LinkSet, metric: str) -> None:
    # the closed forms take exponential gains on the two ground links to the
    # eavesdropper, which holds only while source, destination and
    # eavesdropper all sit at altitude 0
    for name in ("ae", "be"):
        k_factor = getattr(links, name).k_factor
        if k_factor != 0.0:
            raise ClosedFormUndefinedError(
                f"{metric} assumes Rayleigh fading on link {name}, "
                f"got K_{name} = {k_factor}"
            )


def sop_l1(cfg: ProtocolConfig, links: LinkSet) -> float:
    """Probability the phase-1 eavesdropper SINR stays below threshold.

    Needs Rayleigh fading (K = 0) on the ae and be links.
    """
    _require_rayleigh_ground_links(links, "sop_l1")
    delta = cfg.delta_e
    p_a, p_b, n0 = cfg.source_power, cfg.jamming_power, cfg.noise_power
    l_ae, l_be = links.ae.large_scale_gain, links.be.large_scale_gain
    num = p_a * l_ae * math.exp(-n0 * delta / (p_a * l_ae))
    return 1.0 - num / (p_b * l_be * delta + p_a * l_ae)


def sop_l2(
    cfg: ProtocolConfig,
    links: LinkSet,
    orders: sf.TruncationOrders = sf.TruncationOrders(),
) -> SeriesProbability:
    """Probability the phase-2 eavesdropper SINR stays below threshold.

    Finite weighted series over the source-relay index d, its split into the
    jamming (r), processing-noise (s), and relay-noise (m = u - r - s)
    threshold contributions, and the relay-eavesdropper index q. The jamming
    contribution carries a confluent hypergeometric factor from integrating
    over the relay-destination gain; the relay-noise one carries a Bessel K.
    """
    require_noise(cfg)
    _require_interior_split(cfg)
    delta = cfg.delta_e
    if delta == 0.0:
        # zero threshold: the SINR is positive almost surely, so never below
        return SeriesProbability(0.0, 0.0)
    k_au, k_ub, k_ue = links.au.k_factor, links.ub.k_factor, links.ue.k_factor

    aux = series_auxiliaries(cfg, links)
    # noise offsets rescaled to the source-link chi-square normalization
    shift_t = 2.0 * (1.0 + k_au) * aux.a3
    shift_p = 2.0 * (1.0 + k_au) * aux.a2
    x_f11 = aux.c_tilde**2 / aux.b_tilde
    _require_finite_constants("phase-2 outage", a1=aux.a1, a2=aux.a2, a3=aux.a3,
                              shift_t=shift_t, shift_p=shift_p)

    depth, radial = orders.D, orders.Q
    lg = sf.lgamma_int(depth + radial + 3)
    w_d = sf.log_series_weight(depth, np.arange(depth + 1))
    w_q = sf.log_series_weight(radial, np.arange(radial + 1))
    f11 = _log_f11_table(depth, x_f11)

    # each term factors over d, u = r + s + m, r, s and the Bessel offset -m,
    # and every one of these indices runs over 0..depth
    i = np.arange(depth + 1)
    factor_d = w_d + _xlog(i, aux.a) - lg[i + 1] - i * sf.LN2
    factor_u = -i * sf.LN2
    factor_r = _xlog(i, aux.b) + f11 - (i + 1) * math.log(aux.b_tilde)
    factor_s = _xlog(i, shift_t) - lg[i + 1]
    factor_m = _xlog(i, shift_p) - lg[i + 1]
    q = np.arange(radial + 1)
    base_q = w_q + _xlog(q, aux.c1) - 2.0 * lg[q + 1]
    _require_factors_in_range("phase-2 outage", d=factor_d, u=factor_u,
                              r=factor_r, s=factor_s, m=factor_m, q=base_q)

    argument = 2.0 * math.sqrt((1.0 + k_au) * (1.0 + k_ue) * aux.a2)
    log_ratio = math.log((1.0 + k_au) * aux.a2 / (1.0 + k_ue))
    # the Bessel order is s - (u - r) + q + 1 = q + 1 - m
    h = _bessel_inner_logsums(base_q, depth, argument, log_ratio,
                              "phase-2 outage")
    by_u = _log_convolve(factor_r, _log_convolve(factor_s, factor_m + h))
    log_sum = _log_nested_sum(factor_d, factor_u + by_u, "phase-2 outage")
    log_prefix = (math.log(2.0 * (1.0 + k_ub) * (1.0 + k_ue))
                  - k_au - k_ub - k_ue - 0.5 * shift_t)
    raw = 1.0 - math.exp(log_prefix + log_sum)
    return _as_series_probability(raw)


def secrecy_outage_probability(
    cfg: ProtocolConfig,
    links: LinkSet,
    orders: sf.TruncationOrders = sf.TruncationOrders(),
) -> SeriesProbability:
    """1 - L1 L2: the two eavesdropper phases fail independently."""
    l1 = sop_l1(cfg, links)
    l2 = sop_l2(cfg, links, orders)
    return _as_series_probability(1.0 - l1 * l2.raw)


def mean_gamma_eve_phase1(cfg: ProtocolConfig, links: LinkSet) -> float:
    """Mean phase-1 eavesdropper SINR via the exponential integral.

    Needs Rayleigh fading (K = 0) on the ae and be links.
    """
    _require_rayleigh_ground_links(links, "mean_gamma_eve_phase1")
    p_b = cfg.jamming_power
    if p_b == 0.0:
        raise ClosedFormUndefinedError(
            "mean_gamma_eve_phase1 needs active jamming (allocation < 1)")
    x = cfg.noise_power / (p_b * links.be.large_scale_gain)
    ratio = ((cfg.source_power / p_b)
             * (links.ae.large_scale_gain / links.be.large_scale_gain))
    # e^x E1(x) composed in log space; the product tends to 1/x for large x
    return ratio * math.exp(x + sf.log_exp_integral_e1(x))


def asr_lower_bound(
    cfg: ProtocolConfig,
    links: LinkSet,
    orders: sf.TruncationOrders = sf.TruncationOrders(),
    scale_corrected: bool = False,
) -> float:
    """Jensen-route lower bound on the average secrecy rate, bits/s/Hz.

    The main-link term exponentiates a log-moment proxy T1; the
    eavesdropper term is a mean-level proxy T2. The default evaluates both
    proxies on standard chi-square variables with no scale normalization;
    scale_corrected=True restores the unit-mean gain scales and path losses,
    which changes the result materially (the two disagree by the chi-square
    normalization, and only the corrected form tracks measured log-moments).
    """
    require_noise(cfg)
    _require_interior_split(cfg)
    if cfg.jamming_power == 0.0:
        raise ClosedFormUndefinedError(
            "asr_lower_bound needs active jamming (allocation < 1)")
    t1 = _log_main_sinr_proxy(cfg, links, orders.R, scale_corrected)
    t2 = _mean_eve_sinr_proxy(cfg, links, scale_corrected)
    if t1 > 35.0:
        main = t1 + math.log1p(math.exp(-t1))
    else:
        main = math.log1p(math.exp(t1))
    return max(main - math.log1p(t2), 0.0) / (2.0 * sf.LN2)


def _log_main_sinr_proxy(
    cfg: ProtocolConfig, links: LinkSet, order: int, scale_corrected: bool
) -> float:
    """T1: log-moment proxy for the legitimate end-to-end SINR."""
    beta, eta = cfg.power_split, cfg.harvester_efficiency
    zeta, n0 = cfg.processing_noise_ratio, cfg.noise_power
    k_au, k_ub = links.au.k_factor, links.ub.k_factor
    l_au, l_ub = links.au.large_scale_gain, links.ub.large_scale_gain
    shift = (1.0 - beta) / (eta * beta * (1.0 - beta + zeta) * l_ub)
    t1 = (math.log((1.0 - beta) * cfg.source_power * l_au / ((1.0 - beta + zeta) * n0))
          + sf.log_moment_ncx2(2.0 * k_au, 0.0, "series", order)
          + sf.log_moment_ncx2(2.0 * k_ub, 0.0, "series", order))
    if scale_corrected:
        # E ln S = g1(2K) - ln(2(1+K)); the relay-side log cancels against
        # rescaling the denominator shift, leaving the source-side offset
        t1 -= sf.log_moment_ncx2(
            2.0 * k_ub, 2.0 * (1.0 + k_ub) * shift, "series", order
        )
        t1 -= math.log(2.0 * (1.0 + k_au))
    else:
        t1 -= sf.log_moment_ncx2(2.0 * k_ub, shift, "series", order)
    return t1


def _mean_eve_sinr_proxy(
    cfg: ProtocolConfig, links: LinkSet, scale_corrected: bool
) -> float:
    """T2: mean-level proxy for the eavesdropper SINR across both phases."""
    au, ub, ue = links.au, links.ub, links.ue
    if scale_corrected:
        # unit-mean gains behind the path losses
        terms = sinr_terms(cfg, 1.0, 1.0, 1.0, au.large_scale_gain,
                           ub.large_scale_gain, ue.large_scale_gain)
    else:
        # chi-square means 2K + 2 stand in for the gains, losses dropped
        terms = sinr_terms(cfg, 2.0 * au.k_factor + 2.0, 2.0 * ub.k_factor + 2.0,
                           2.0 * ue.k_factor + 2.0, 1.0, 1.0, 1.0)
    # phase 2 of protocol.sinrs at these gains: the power-free half above,
    # then the per-power step of sinrs_from_terms with the residual-epsilon
    # term left out, as T1 leaves it out
    phase2 = (cfg.source_power * terms.num2
              / (cfg.jamming_power * terms.jam2 + terms.den2))
    return phase2 + mean_gamma_eve_phase1(cfg, links)
