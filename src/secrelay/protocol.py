"""Per-frame physics of the two-phase relaying protocol.

Phase 1: the source transmits while the destination jams; the relay splits its
received power between an energy harvester (fraction beta) and the processing
chain. Phase 2: the relay amplifies and forwards on the harvested budget. The
destination cancels its own jamming; the eavesdropper cannot.

sinrs is the only route to the three per-frame SINRs. It writes them with
the relay gain G, from G^2 (processed power + N_p) = harvested power, already
substituted, so neither G nor the harvested power appears on its own; the
tests rebuild both from the received-signal model as an independent check.
sinrs is written in two halves: sinr_terms holds the factors that do not
depend on the two transmit powers, and sinrs_from_terms brings the powers
in, so a sweep over the powers alone can keep the first half. Every
operation broadcasts over numpy arrays, so gains may be scalars or
equal-shape arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel_models import LinkSet

_HALF_PER_LN2 = 0.5 / math.log(2.0)


@dataclass(frozen=True)
class ProtocolConfig:
    """Transmit powers, harvesting split, noise levels, and code rates.

    total_power is in watts (linear scale). allocation is the source's share;
    the destination jams with the remainder, so allocation = 1 disables
    cooperative jamming. power_split is the harvested fraction beta.
    processing_noise_ratio is N_p / N0. rate_t is the transmission rate and
    rate_s the secrecy rate, bits/s/Hz.
    """

    total_power: float
    allocation: float = 0.5
    power_split: float = 0.5
    harvester_efficiency: float = 0.7
    noise_power: float = 1e-2
    processing_noise_ratio: float = 2.0
    rate_t: float = 0.5
    rate_s: float = 0.2
    include_residual_epsilon: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.total_power < math.inf:
            raise ValueError(f"total_power must be finite and > 0, got {self.total_power}")
        if not 0.0 < self.allocation <= 1.0:
            raise ValueError(
                f"allocation must lie in (0, 1], got {self.allocation}"
            )
        if not 0.0 <= self.power_split <= 1.0:
            raise ValueError(f"power_split must lie in [0, 1], got {self.power_split}")
        if not 0.0 < self.harvester_efficiency <= 1.0:
            raise ValueError(
                f"harvester_efficiency must lie in (0, 1], got {self.harvester_efficiency}"
            )
        if not self.noise_power >= 0:
            raise ValueError(f"noise_power must be >= 0, got {self.noise_power}")
        if not self.processing_noise_ratio >= 0:
            raise ValueError(
                f"processing_noise_ratio must be >= 0, got {self.processing_noise_ratio}"
            )
        if not self.rate_t > self.rate_s > 0:
            raise ValueError(
                f"need rate_t > rate_s > 0, got rate_t={self.rate_t}, rate_s={self.rate_s}"
            )

    @property
    def source_power(self) -> float:
        return self.allocation * self.total_power

    @property
    def jamming_power(self) -> float:
        return (1.0 - self.allocation) * self.total_power

    @property
    def processing_noise(self) -> float:
        return self.processing_noise_ratio * self.noise_power

    @property
    def delta_t(self) -> float:
        """SINR threshold for decoding at the transmission rate."""
        return 2.0 ** (2.0 * self.rate_t) - 1.0

    @property
    def delta_e(self) -> float:
        """SINR threshold above which the eavesdropper breaks secrecy."""
        return 2.0 ** (2.0 * (self.rate_t - self.rate_s)) - 1.0


def require_noise(cfg: ProtocolConfig) -> None:
    """Reject the noise-free limit at a metric's entry point.

    ProtocolConfig accepts noise_power = 0 for noise-free identities, but
    every metric divides by the noise power somewhere.
    """
    if not cfg.noise_power > 0:
        raise ValueError(
            f"noise_power must be > 0 to evaluate a metric, got {cfg.noise_power}"
        )


class SinrTerms(NamedTuple):
    """The power-free half of the per-frame SINRs (sinr_terms).

    At source power P_s and jamming power P_j, with the residual-epsilon
    term off, gamma_main = P_s * main and
    gamma_eve2 = P_s * num2 / (P_j * jam2 + den2). With it on, den_main
    holds gamma_main's denominator, to which the residual adds; off, it is
    None.
    """

    main: object
    num2: object
    jam2: object
    den2: object
    den_main: object = None


def sinr_terms(cfg: ProtocolConfig, s_au, s_ub, s_ue,
               l_au: float, l_ub: float, l_ue: float) -> SinrTerms:
    """The factors of the relayed-path SINRs that do not depend on the
    transmit powers, for frames with small-scale gains s_au, s_ub and s_ue
    on links with large-scale gains l_au, l_ub and l_ue.

    They depend on cfg only through (beta, eta, zeta, N0) and the residual
    switch, so a caller that varies the powers alone can keep them.
    """
    beta = cfg.power_split
    if beta == 0.0 or beta == 1.0:
        # no harvest or nothing processed: the relayed path carries nothing
        zero = 0.0 * (s_au * s_ub)
        return SinrTerms(zero, zero, zero, zero + 1.0,
                         zero + 1.0 if cfg.include_residual_epsilon else None)
    n0, eta = cfg.noise_power, cfg.harvester_efficiency
    shared = eta * beta * (1.0 - beta)
    forwarded_noise = eta * beta * (1.0 - beta + cfg.processing_noise_ratio) * n0
    floor = (1.0 - beta) * n0
    # scalar factors are multiplied together before they meet an array, so
    # each product costs one pass over the frames
    den_main = (forwarded_noise * l_ub) * s_ub + floor
    return SinrTerms(
        main=(shared * l_au * l_ub) * (s_au * s_ub) / den_main,
        num2=(shared * l_au * l_ue) * (s_au * s_ue),
        # the eavesdropper also hears the destination's jamming, forwarded
        jam2=(shared * l_ub * l_ue) * (s_ub * s_ue),
        den2=(forwarded_noise * l_ue) * s_ue + floor,
        den_main=den_main if cfg.include_residual_epsilon else None,
    )


def sinrs_from_terms(cfg: ProtocolConfig, links: LinkSet, terms: SinrTerms,
                     s_au, s_ub, s_ae, s_be, source_power, jamming_power):
    """The per-power half of sinrs: (gamma_main, gamma_eve1, gamma_eve2)
    from the frames' sinr_terms and their au, ub, ae and be gains."""
    n0 = cfg.noise_power
    gamma_eve1 = (
        source_power * s_ae * links.ae.large_scale_gain
        / (jamming_power * s_be * links.be.large_scale_gain + n0)
    )
    gamma_main = source_power * terms.main
    den_eve2 = jamming_power * terms.jam2 + terms.den2
    if cfg.include_residual_epsilon:
        # Self-noise floor left after substituting the relay gain. It vanishes
        # at moderate/high SNR, hence the switch; the exact substitution
        # would add the noise power to the denominator as well.
        x_a = source_power * s_au * links.au.large_scale_gain
        x_b = jamming_power * s_ub * links.ub.large_scale_gain
        residual = cfg.processing_noise * n0 / (x_a + x_b)
        gamma_main = gamma_main * (terms.den_main / (terms.den_main + residual))
        den_eve2 = den_eve2 + residual
    return gamma_main, gamma_eve1, source_power * terms.num2 / den_eve2


def sinrs(cfg: ProtocolConfig, links: LinkSet, s_au, s_ub, s_ue, s_ae, s_be,
          source_power, jamming_power):
    """(gamma_main, gamma_eve1, gamma_eve2) of frames with the given gains.

    This is the one route to the three SINRs: sinrs_from_terms of
    sinr_terms, which callers that keep the power-free half between calls
    compose themselves. The powers are arguments rather than read from
    cfg, so a caller can give each frame its own allocation (arrays
    broadcast against the gains). The relay-destination gain s_ub serves
    both directions by reciprocity. The gains are taken as given: the Monte
    Carlo engine draws them positive and finite, and no route in the
    package takes gains from elsewhere.
    """
    terms = sinr_terms(cfg, s_au, s_ub, s_ue, links.au.large_scale_gain,
                       links.ub.large_scale_gain, links.ue.large_scale_gain)
    return sinrs_from_terms(cfg, links, terms, s_au, s_ub, s_ae, s_be,
                            source_power, jamming_power)


def secrecy_rate(gamma_main, gamma_eve):
    """Clamped secrecy rate max(C(gamma_main) - C(gamma_eve), 0) in bits/s/Hz.

    C(gamma) = 0.5 * log2(1 + gamma), the 1/2 being the two phases. This is
    the one place the rate is written, as one logarithm,
    0.5 * log2(1 + max(gamma_main - gamma_eve, 0) / (1 + gamma_eve)): the
    difference of two near-equal SINRs is exact, where the difference of
    their capacities would cancel digits. The clamp comes first, so a frame
    the eavesdropper wins is exactly 0. A NaN SINR or an infinite main SINR
    gives a non-finite rate; an infinite eavesdropper SINR against a finite
    main one clamps to 0. Scalars and arrays are both accepted.
    """
    # one expression, so numpy can reuse the large temporaries in place
    rate = np.log1p(np.maximum(gamma_main - gamma_eve, 0.0) / (1.0 + gamma_eve))
    rate *= _HALF_PER_LN2
    return rate
