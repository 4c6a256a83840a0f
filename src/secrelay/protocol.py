"""Per-frame physics of the two-phase relaying protocol.

Phase 1: the source transmits while the destination jams; the relay splits its
received power between an energy harvester (fraction beta) and the processing
chain. Phase 2: the relay amplifies and forwards on the harvested budget. The
destination cancels its own jamming; the eavesdropper cannot.

sinrs is the only route to the three per-frame SINRs. It writes them with
the relay gain G, from G^2 (processed power + N_p) = harvested power, already
substituted, so neither G nor the harvested power appears on its own; the
tests rebuild both from the received-signal model as an independent check.
Every operation broadcasts over numpy arrays, so gains may be scalars or
equal-shape arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if self.noise_power < 0:
            raise ValueError(f"noise_power must be >= 0, got {self.noise_power}")
        if self.processing_noise_ratio < 0:
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


def sinrs(cfg: ProtocolConfig, links: LinkSet, s_au, s_ub, s_ue, s_ae, s_be,
          source_power, jamming_power):
    """(gamma_main, gamma_eve1, gamma_eve2) of frames with the given gains.

    This is the one place the three SINRs are written; every other route
    evaluates it. The powers are arguments rather than read from cfg, so a
    caller can give each frame its own allocation (arrays broadcast against
    the gains). The relay-destination gain s_ub serves both directions by
    reciprocity. The gains are taken as given: the Monte Carlo engine draws
    them positive and finite, and no route in the package takes gains from
    elsewhere.
    """
    n0 = cfg.noise_power
    gamma_eve1 = (
        source_power * s_ae * links.ae.large_scale_gain
        / (jamming_power * s_be * links.be.large_scale_gain + n0)
    )
    beta = cfg.power_split
    arrived_ub = s_ub * links.ub.large_scale_gain
    arrived_ue = s_ue * links.ue.large_scale_gain
    if beta == 0.0 or beta == 1.0:
        # no harvest or nothing processed: the relayed path carries nothing
        return 0.0 * (s_au * arrived_ub), gamma_eve1, 0.0 * (s_au * arrived_ue)
    eta = cfg.harvester_efficiency
    shared = eta * beta * (1.0 - beta)
    # scalar factors are multiplied together before they meet an array, so
    # each product costs one pass over the frames
    relayed = (shared * source_power * links.au.large_scale_gain) * s_au
    forwarded_noise = eta * beta * (1.0 - beta + cfg.processing_noise_ratio) * n0
    floor = (1.0 - beta) * n0
    den_main = forwarded_noise * arrived_ub + floor
    # the eavesdropper also hears the destination's jamming, forwarded
    den_eve2 = (
        shared * jamming_power * arrived_ub * arrived_ue
        + floor
        + forwarded_noise * arrived_ue
    )
    if cfg.include_residual_epsilon:
        # Self-noise floor left after substituting the relay gain. It vanishes
        # at moderate/high SNR, hence the switch; the exact substitution
        # would add the noise power to the denominator as well.
        x_a = source_power * s_au * links.au.large_scale_gain
        x_b = jamming_power * s_ub * links.ub.large_scale_gain
        residual = cfg.processing_noise * n0 / (x_a + x_b)
        den_main = den_main + residual
        den_eve2 = den_eve2 + residual
    return relayed * arrived_ub / den_main, gamma_eve1, relayed * arrived_ue / den_eve2


def secrecy_rate(gamma_main, gamma_eve):
    """Clamped secrecy rate max(C(gamma_main) - C(gamma_eve), 0) in bits/s/Hz.

    C(gamma) = 0.5 * log2(1 + gamma), the 1/2 being the two phases. This is
    the one place the rate is written. The clamp comes before the scaling,
    so a frame the eavesdropper wins is exactly 0. A NaN SINR or an infinite
    main SINR gives a non-finite rate; an infinite eavesdropper SINR against
    a finite main one clamps to 0.
    """
    rate = np.maximum(np.log1p(gamma_main) - np.log1p(gamma_eve), 0.0)
    rate *= _HALF_PER_LN2
    return rate
