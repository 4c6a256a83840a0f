"""Power-gain fading laws for the five network links.

Air-to-ground links fade with a squared-Rician law whose Rice factor comes
from the link's elevation angle; ground-to-ground links are the K = 0
(exponential) special case. Gains are normalized to unit mean, so large-scale
path loss enters every downstream formula as a separate multiplicative factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .geometry import (
    Environment,
    NetworkGeometry,
    NodePosition,
    distance,
    elevation_angle,
    path_loss_exponent,
    path_loss_gain,
    rice_k_factor,
)


@dataclass(frozen=True)
class LinkModel:
    """Small-scale law (k_factor) and large-scale gain of a single link."""

    k_factor: float
    large_scale_gain: float

    def __post_init__(self) -> None:
        _require_k_factor(self.k_factor)
        specfun._require(0 < self.large_scale_gain < math.inf,
                         "large_scale_gain must be finite and positive",
                         "large_scale_gain", self.large_scale_gain)


@dataclass(frozen=True)
class LinkSet:
    """One LinkModel per link; the relay-destination link serves both directions."""

    au: LinkModel
    ub: LinkModel
    ue: LinkModel
    ae: LinkModel
    be: LinkModel

    def ordered(self) -> tuple[LinkModel, ...]:
        """Links in the fixed (au, ub, ue, ae, be) order the gain kernel relies on."""
        return (self.au, self.ub, self.ue, self.ae, self.be)


def _require_k_factor(k_factor: float) -> None:
    specfun._require(0 <= k_factor < math.inf, "k_factor must be finite and >= 0",
                     "k_factor", k_factor)


def amplitude_params(k_factor: float) -> tuple[float, float]:
    """LOS amplitude mu and per-quadrature scatter deviation sigma.

    mu^2 + 2 sigma^2 = 1, so (mu + sigma*g1)^2 + (sigma*g2)^2 with independent
    standard normal g1, g2 is a unit-mean gain with Rice factor k_factor.
    """
    _require_k_factor(k_factor)
    mu = math.sqrt(k_factor / (k_factor + 1.0))
    sigma = math.sqrt(0.5 / (k_factor + 1.0))
    return mu, sigma


def rician_power_gain(mu, sigma, g1, g2):
    """One link's gain (mu + sigma*g1)^2 + (sigma*g2)^2 from the amplitude
    parameters of amplitude_params and standard normals g1, g2."""
    amp = mu + sigma * g1
    return amp * amp + (sigma * g2) ** 2


def squared_rician_pdf(x, k_factor: float):
    """Density of a unit-mean squared-Rician gain at x (scalar or array).

    Evaluated in log space: the net exponent -K - (K+1)x + log I0(...) equals
    -(sqrt(K) - sqrt((K+1)x))^2 up to the subexponential I0 prefactor, so the
    density stays finite even where either factor alone would overflow.
    """
    _require_k_factor(k_factor)
    xs = np.asarray(x, dtype=float).ravel()
    specfun._require(np.isfinite(xs) & (xs >= 0), "gains must be finite and >= 0", "x", xs)
    kp1 = k_factor + 1.0
    log_pref = math.log(kp1) - k_factor
    z = 2.0 * np.sqrt(k_factor * kp1 * xs)
    near = z <= 600.0
    log_i0 = np.empty(z.shape)
    log_i0[near] = np.log(specfun.bessel_i(z[near]))
    # Hankel expansion; five terms reach double precision for z > 600.
    far = z[~near]
    u = 1.0 / (8.0 * far)
    tail = 1.0 + u * (1.0 + u * (4.5 + u * (37.5 + u * 459.375)))
    log_i0[~near] = far - 0.5 * np.log(2.0 * math.pi * far) + np.log(tail)
    out = np.exp(log_pref - kp1 * xs + log_i0)
    return specfun._result(out, x)


def squared_rician_cdf(x, k_factor: float):
    """P[S <= x] = 1 - Q1(sqrt(2K), sqrt(2(1+K)x)), for scalar or array x.

    Uses the exact Marcum evaluator, which bounds the usable Rice factor at
    k_factor <= 700 (far beyond any elevation-derived value).
    """
    _require_k_factor(k_factor)
    xs = np.asarray(x, dtype=float).ravel()
    specfun._require(np.isfinite(xs) & (xs >= 0), "gains must be finite and >= 0", "x", xs)
    b = np.sqrt(2.0 * (k_factor + 1.0) * xs)
    return specfun._result(1.0 - specfun.marcum_q1(math.sqrt(2.0 * k_factor), b), x)


def _link(a: NodePosition, b: NodePosition, env: Environment) -> LinkModel:
    d = distance(a, b)
    if a.z == 0.0 and b.z == 0.0:
        # ground-to-ground: pure scatter, NLOS exponent
        k, alpha = 0.0, env.alpha_nlos
    else:
        ground, aerial = (a, b) if a.z <= b.z else (b, a)
        theta = elevation_angle(ground, aerial)
        k = rice_k_factor(theta, env)
        alpha = path_loss_exponent(theta, env)
    return LinkModel(k_factor=k, large_scale_gain=path_loss_gain(d, alpha))


def build_links(geom: NetworkGeometry, env: Environment) -> LinkSet:
    """Per-link propagation constants for a node layout.

    A link counts as ground-to-ground exactly when both endpoints sit at
    z = 0, so lowering the relay to the ground reclassifies its links too.
    """
    return LinkSet(
        au=_link(geom.source, geom.relay, env),
        ub=_link(geom.relay, geom.destination, env),
        ue=_link(geom.relay, geom.eavesdropper, env),
        ae=_link(geom.source, geom.eavesdropper, env),
        be=_link(geom.destination, geom.eavesdropper, env),
    )
