"""Per-frame physics of the two-phase relaying protocol.

Phase 1: the source transmits while the destination jams; the relay splits its
received power between an energy harvester (fraction beta) and the processing
chain. Phase 2: the relay amplifies and forwards on the harvested budget. The
destination cancels its own jamming; the eavesdropper cannot.

Every operation broadcasts over numpy arrays, so a FrameRealization may hold
either scalars or equal-shape arrays of gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel_models import LinkSet

_LN2 = math.log(2.0)

_GAIN_FIELDS = ("s_au", "s_ub", "s_ue", "s_ae", "s_be")


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


@dataclass(frozen=True)
class FrameRealization:
    """Small-scale power gains of one frame (or an array batch of frames).

    The relay-destination gain s_ub serves both directions by reciprocity.
    """

    s_au: object
    s_ub: object
    s_ue: object
    s_ae: object
    s_be: object

    def __post_init__(self) -> None:
        for name in _GAIN_FIELDS:
            v = np.asarray(getattr(self, name))
            if not np.all(np.isfinite(v) & (v > 0)):
                raise ValueError(f"{name} must be positive and finite")

    def gains(self) -> tuple:
        """The five gains in (au, ub, ue, ae, be) order, as sinrs takes them."""
        return (self.s_au, self.s_ub, self.s_ue, self.s_ae, self.s_be)


class SecrecyQuantities(NamedTuple):
    capacity_main: object
    capacity_eve: object
    secrecy_rate: object


def _arrival_powers(cfg: ProtocolConfig, frame: FrameRealization, links: LinkSet):
    """Received powers of the source and jamming streams at the relay."""
    x_a = cfg.source_power * frame.s_au * links.au.large_scale_gain
    x_b = cfg.jamming_power * frame.s_ub * links.ub.large_scale_gain
    return x_a, x_b


def harvested_power(cfg: ProtocolConfig, frame: FrameRealization, links: LinkSet):
    """Power banked by the relay in phase 1; the noise floor is harvested too."""
    x_a, x_b = _arrival_powers(cfg, frame, links)
    return cfg.harvester_efficiency * cfg.power_split * (x_a + x_b + cfg.noise_power)


def relay_gain(cfg: ProtocolConfig, frame: FrameRealization, links: LinkSet):
    """Amplification G satisfying G^2 * (processed power + N_p) = harvested power."""
    beta = cfg.power_split
    if beta == 1.0 and cfg.processing_noise == 0.0:
        raise ValueError("relay gain undefined: nothing reaches the processing chain")
    x_a, x_b = _arrival_powers(cfg, frame, links)
    total = x_a + x_b + cfg.noise_power
    return np.sqrt(
        cfg.harvester_efficiency * beta * total
        / ((1.0 - beta) * total + cfg.processing_noise)
    )


def sinrs(cfg: ProtocolConfig, links: LinkSet, s_au, s_ub, s_ue, s_ae, s_be,
          source_power, jamming_power):
    """(gamma_main, gamma_eve1, gamma_eve2) of frames with the given gains.

    This is the one place the three SINRs are written; every other route
    evaluates it. The powers are arguments rather than read from cfg, so a
    caller can give each frame its own allocation (arrays broadcast against
    the gains). The gains are taken as given: FrameRealization validates
    them where they arrive from outside.
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
    relayed = shared * source_power * s_au * links.au.large_scale_gain
    noise_gain = eta * beta * (1.0 - beta + cfg.processing_noise_ratio)
    floor = (1.0 - beta) * n0
    den_main = noise_gain * arrived_ub * n0 + floor
    # the eavesdropper also hears the destination's jamming, forwarded
    den_eve2 = (
        shared * jamming_power * s_ub * links.ub.large_scale_gain * arrived_ue
        + floor
        + noise_gain * arrived_ue * n0
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


def _frame_sinrs(cfg: ProtocolConfig, frame: FrameRealization, links: LinkSet):
    return sinrs(cfg, links, *frame.gains(), cfg.source_power, cfg.jamming_power)


def sinr_main(cfg: ProtocolConfig, frame: FrameRealization, links: LinkSet):
    """End-to-end SINR of the relayed source stream at the destination."""
    return _frame_sinrs(cfg, frame, links)[0]


def sinr_eve_phase1(cfg: ProtocolConfig, frame: FrameRealization, links: LinkSet):
    """Eavesdropper SINR on the direct phase-1 signal, degraded by the jammer."""
    return _frame_sinrs(cfg, frame, links)[1]


def sinr_eve_phase2(cfg: ProtocolConfig, frame: FrameRealization, links: LinkSet):
    """Eavesdropper SINR on the relayed signal; the forwarded jamming remains."""
    return _frame_sinrs(cfg, frame, links)[2]


def sinr_eve(cfg: ProtocolConfig, frame: FrameRealization, links: LinkSet):
    """Best of the eavesdropper's two interception chances."""
    _, gamma_1, gamma_2 = _frame_sinrs(cfg, frame, links)
    return np.maximum(gamma_1, gamma_2)


def capacity(gamma):
    """Capacity 0.5 * log2(1 + gamma) in bits/s/Hz; the 1/2 is the two phases."""
    return 0.5 * np.log1p(gamma) / _LN2


def secrecy_quantities(
    cfg: ProtocolConfig, frame: FrameRealization, links: LinkSet
) -> SecrecyQuantities:
    """Main capacity, wiretap capacity, and their clamped difference (bits/s/Hz)."""
    gamma_m, gamma_1, gamma_2 = _frame_sinrs(cfg, frame, links)
    c_main = capacity(gamma_m)
    c_eve = capacity(np.maximum(gamma_1, gamma_2))
    return SecrecyQuantities(c_main, c_eve, np.maximum(c_main - c_eve, 0.0))
