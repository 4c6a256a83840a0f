"""Truncated-series evaluators for the three secrecy metrics.

Connection probability and the second secrecy-outage factor are finite
multiple series over Rician expansion indices; the rate lower bound is a
Jensen-style log-moment expression. Every series is accumulated in log
space: powers, factorials, Bessel and confluent factors enter as logarithms,
so deep operating points (high power, order 25) stay inside float range.
The CP and phase-2 outage series reduce in two stages. Their Bessel-kernel
index meets the outer indices only through an offset in [-D, 0], so it is
summed once per offset by a small logsumexp each; one logsumexp over the
outer index set then adds those sums, and no array spans both indices.

Probabilities come back as the raw series value plus a [0, 1]-clamped
companion. The truncation weights keep the finite sums close to the exact
transcendentals but can leave small out-of-range residues, and consumers
need the raw number to judge the truncation rather than a silently
repaired one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun as sf
from .channel_models import LinkSet
from .protocol import ProtocolConfig, require_noise

_NEG_INF = float("-inf")


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


def _require_in_range(terms: np.ndarray, label: str) -> None:
    """A NaN or +inf log-term means the series left float range."""
    flat = terms.ravel()
    bad = np.isnan(flat) | np.isposinf(flat)
    if np.any(bad):
        index = int(np.argmax(bad))
        raise sf.SeriesOverflowError(
            f"{label} series: log-term {index} of {flat.size} is {flat[index]}"
        )


def _checked_logsumexp(terms: np.ndarray, label: str) -> float:
    _require_in_range(terms, label)
    return sf.logsumexp(terms.ravel())


def _require_finite_constants(label: str, **constants: float) -> None:
    for name, value in constants.items():
        if not math.isfinite(value):
            raise sf.SeriesOverflowError(f"{label} series: {name} is {value}")


def _bessel_series_logsum(
    base: np.ndarray,
    offset: np.ndarray,
    base_inner: np.ndarray,
    depth: int,
    argument: float,
    log_ratio: float,
    label: str,
) -> float:
    """ln sum_i sum_j exp(base[i] + base_inner[j] + nu log_ratio / 2
    + ln K_|nu|(argument)) with nu = offset[i] + j + 1.

    Every offset lies in [-depth, 0], so the inner index j is reduced once
    per offset into h, then the outer terms base + h[offset] are reduced.
    The inner sums are the rows of one (depth + 1, inner) term matrix. Each
    row is reduced as sf.logsumexp reduces a 1-D array: the same shift, the
    same pairwise sum over a row of the same length, math.log of the total.
    """
    j = np.arange(base_inner.size)
    # |nu| peaks at depth - 1 (offset -depth, first j) or at base_inner.size
    # (offset 0, last j)
    log_k = sf.log_bessel_k_sequence(max(depth - 1, base_inner.size), argument)
    nu = np.arange(-depth, 1)[:, None] + j + 1
    terms = base_inner + 0.5 * nu * log_ratio + log_k[np.abs(nu)]
    bad_rows = np.any(np.isnan(terms) | np.isposinf(terms), axis=1)
    if np.any(bad_rows):
        _require_in_range(terms[np.argmax(bad_rows)], label)
    # each row's j = 0 term is finite, so no shift m is -inf
    m = np.max(terms, axis=1)
    totals = np.sum(np.exp(terms - m[:, None]), axis=1)
    h = m + np.array([math.log(t) for t in totals.tolist()])
    return _checked_logsumexp(base + h[offset + depth], label)


def _require_interior_split(cfg: ProtocolConfig) -> None:
    # beta at either end starves the relay of signal or of harvested power
    if not 0.0 < cfg.power_split < 1.0:
        raise ValueError(
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

    d_i, u_i, s_i = _triangle_indices(depth)
    base = (w_d[d_i] - lg[d_i + 1] - lg[s_i + 1] - lg[u_i - s_i + 1]
            + _xlog(d_i, k_au) + u_i * math.log1p(k_au)
            + _xlog(s_i, part_a) + _xlog(u_i - s_i, part_b))
    r = np.arange(radial + 1)
    base_r = w_r - 2.0 * lg[r + 1] + _xlog(r, k_ub * (1.0 + k_ub))

    argument = 2.0 * math.sqrt((1.0 + k_au) * (1.0 + k_ub) * part_b)
    log_ratio = math.log((1.0 + k_au) * part_b / (1.0 + k_ub))
    log_sum = _bessel_series_logsum(base, s_i - u_i, base_r, depth, argument,
                                    log_ratio, "connection")
    log_prefix = (math.log(2.0 * (1.0 + k_ub))
                  - k_au - k_ub - (1.0 + k_au) * part_a)
    raw = math.exp(log_prefix + log_sum)
    return _as_series_probability(raw)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(parent, rank) for every child when parent i has counts[i] children,
    parent-major: the flatten order of a nested loop."""
    parent = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    return parent, np.arange(parent.size) - starts[parent]


@functools.lru_cache(maxsize=8)
def _triangle_indices(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (d, u, s) with 0 <= s <= u <= d <= depth, flattened d-major.

    Cached per depth and shared between calls, so the arrays are read-only.
    """
    d_i = np.arange(depth + 1)
    parent, u_i = _expand(d_i + 1)
    d_i = d_i[parent]
    parent, s_i = _expand(u_i + 1)
    return _read_only(d_i[parent], u_i[parent], s_i)


@functools.lru_cache(maxsize=8)
def _pyramid_indices(
    depth: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All (d, u, r, s) with u <= d <= depth, r <= u, s <= u - r, flattened
    d-major.

    Cached per depth and shared between calls, so the arrays are read-only.
    """
    d_i = np.arange(depth + 1)
    parent, u_i = _expand(d_i + 1)
    d_i = d_i[parent]
    parent, r_i = _expand(u_i + 1)
    d_i, u_i = d_i[parent], u_i[parent]
    parent, s_i = _expand(u_i - r_i + 1)
    return _read_only(d_i[parent], u_i[parent], r_i[parent], s_i)


def _log_f11_table(max_r: int, x: float) -> np.ndarray:
    """log 1F1(r+1; 1; x) for r = 0..max_r via e^x * sum_k C(r,k) x^k / k!."""
    lg = sf.lgamma_int(max_r + 2)
    out = np.empty(max_r + 1)
    for r in range(max_r + 1):
        k = np.arange(r + 1)
        body = sf.log_binomial(r, k) + _xlog(k, x) - lg[k + 1]
        out[r] = x + sf.logsumexp(body)
    return out


def sop_l1(cfg: ProtocolConfig, links: LinkSet) -> float:
    """Probability the phase-1 eavesdropper SINR stays below threshold."""
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

    d_i, u_i, r_i, s_i = _pyramid_indices(depth)
    m_i = u_i - r_i - s_i
    base = (w_d[d_i] + _xlog(d_i, aux.a) - lg[d_i + 1] - (d_i + u_i) * sf.LN2
            + _xlog(r_i, aux.b) + f11[r_i] - (r_i + 1) * math.log(aux.b_tilde)
            + _xlog(s_i, shift_t) - lg[s_i + 1]
            + _xlog(m_i, shift_p) - lg[m_i + 1])
    q = np.arange(radial + 1)
    base_q = w_q + _xlog(q, aux.c1) - 2.0 * lg[q + 1]

    argument = 2.0 * math.sqrt((1.0 + k_au) * (1.0 + k_ue) * aux.a2)
    log_ratio = math.log((1.0 + k_au) * aux.a2 / (1.0 + k_ue))
    # the Bessel order is s - (u - r) + q + 1 = q + 1 - m
    log_sum = _bessel_series_logsum(base, -m_i, base_q, depth, argument,
                                    log_ratio, "phase-2 outage")
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
    """Mean phase-1 eavesdropper SINR via the exponential integral."""
    p_b = cfg.jamming_power
    if p_b == 0.0:
        raise ValueError("mean_gamma_eve_phase1 needs active jamming (allocation < 1)")
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
        raise ValueError("asr_lower_bound needs active jamming (allocation < 1)")
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
    beta, eta = cfg.power_split, cfg.harvester_efficiency
    zeta, n0 = cfg.processing_noise_ratio, cfg.noise_power
    p_a, p_b = cfg.source_power, cfg.jamming_power
    if scale_corrected:
        l_au, l_ub, l_ue = (links.au.large_scale_gain,
                            links.ub.large_scale_gain,
                            links.ue.large_scale_gain)
        num = eta * beta * (1.0 - beta) * p_a * l_au * l_ue
        den = (eta * beta * (1.0 - beta) * p_b * l_ub * l_ue
               + eta * beta * (1.0 - beta + zeta) * l_ue * n0
               + (1.0 - beta) * n0)
    else:
        # chi-square means 2K + 2 stand in for the gains, losses dropped
        m_au, m_ub, m_ue = (2.0 * links.au.k_factor + 2.0,
                            2.0 * links.ub.k_factor + 2.0,
                            2.0 * links.ue.k_factor + 2.0)
        num = eta * beta * (1.0 - beta) * p_a * m_au * m_ue
        den = (eta * beta * (1.0 - beta) * p_b * m_ub * m_ue
               + eta * beta * (1.0 - beta + zeta) * m_ue * n0
               + (1.0 - beta) * n0)
    return num / den + mean_gamma_eve_phase1(cfg, links)
