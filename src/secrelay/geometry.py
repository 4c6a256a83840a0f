"""Node coordinates and environment constants to per-link propagation quantities.

Distances are normalized (1 unit = 100 m). Every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

_HALF_PI = math.pi / 2.0

K_FACTOR_LINEAR = "linear"
K_FACTOR_DECIBEL = "decibel"


@dataclass(frozen=True)
class NodePosition:
    """A point in normalized 3D space; ground nodes sit at z = 0."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self) -> None:
        if self.z < 0:
            raise ValueError(f"node altitude must be >= 0, got z={self.z}")


@dataclass(frozen=True)
class Environment:
    """Propagation constants shared by every link.

    alpha_los / alpha_nlos bound the elevation-dependent path-loss exponent,
    omega1 / omega2 shape its sigmoid, kappa_min / kappa_max bound the Rice
    factor. k_factor_interpretation selects whether the interpolated Rice
    factor is used as-is ("linear") or read as a dB value ("decibel").
    """

    alpha_los: float = 2.0
    alpha_nlos: float = 3.5
    omega1: float = 0.28
    omega2: float = 9.61
    kappa_min: float = 1.0
    kappa_max: float = 10.0
    k_factor_interpretation: str = K_FACTOR_LINEAR

    def __post_init__(self) -> None:
        if not (self.alpha_nlos >= self.alpha_los > 0):
            raise ValueError("need alpha_nlos >= alpha_los > 0")
        if not (self.kappa_max >= self.kappa_min >= 0):
            raise ValueError("need kappa_max >= kappa_min >= 0")
        if self.omega2 <= 0:
            raise ValueError("need omega2 > 0")
        if self.k_factor_interpretation not in (K_FACTOR_LINEAR, K_FACTOR_DECIBEL):
            raise ValueError(
                "k_factor_interpretation must be 'linear' or 'decibel', got "
                f"{self.k_factor_interpretation!r}"
            )


@dataclass(frozen=True)
class NetworkGeometry:
    """Positions of source, destination, eavesdropper, and relay."""

    source: NodePosition
    destination: NodePosition
    eavesdropper: NodePosition
    relay: NodePosition


def move_relay(geometry: NetworkGeometry, along: float | None = None,
               altitude: float | None = None) -> NetworkGeometry:
    """The same network with the relay moved; the other nodes stay.

    along puts the relay's ground point that fraction of the way from the
    source's ground point to the destination's; altitude sets its height.
    A coordinate left None keeps the relay's own.
    """
    relay = geometry.relay
    x, y = relay.x, relay.y
    if along is not None:
        src, dst = geometry.source, geometry.destination
        x = src.x + along * (dst.x - src.x)
        y = src.y + along * (dst.y - src.y)
    z = relay.z if altitude is None else altitude
    return replace(geometry, relay=NodePosition(x, y, z))


def distance(a: NodePosition, b: NodePosition) -> float:
    """Euclidean distance between two nodes, in normalized units."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def elevation_angle(ground: NodePosition, aerial: NodePosition) -> float:
    """Elevation angle asin(dz/d) in [0, pi/2] seen from `ground` to `aerial`.

    Raises ValueError for coincident nodes (the angle is undefined) and for
    an aerial node below the ground node.
    """
    d = distance(ground, aerial)
    if d == 0.0:
        raise ValueError("elevation angle undefined for coincident nodes")
    dz = aerial.z - ground.z
    if dz < 0:
        raise ValueError("aerial node must not be below the ground node")
    return math.asin(min(dz / d, 1.0))


def rice_k_factor(theta: float, env: Environment) -> float:
    """Rice factor at elevation angle theta: linear interpolation between the
    kappa endpoints over [0, pi/2], optionally interpreted as a dB value."""
    if not 0.0 <= theta <= _HALF_PI:
        raise ValueError(f"theta must be in [0, pi/2], got {theta}")
    k = env.kappa_min + (env.kappa_max - env.kappa_min) * (2.0 * theta / math.pi)
    if env.k_factor_interpretation == K_FACTOR_DECIBEL:
        return 10.0 ** (k / 10.0)
    return k


def path_loss_exponent(
    theta: float, env: Environment, is_ground_to_ground: bool = False
) -> float:
    """Path-loss exponent: alpha_nlos exactly for ground-to-ground links,
    otherwise the elevation-angle sigmoid, which lies in (alpha_los, alpha_nlos)."""
    if is_ground_to_ground:
        return env.alpha_nlos
    if not 0.0 <= theta <= _HALF_PI:
        raise ValueError(f"theta must be in [0, pi/2], got {theta}")
    span = env.alpha_los - env.alpha_nlos
    return env.alpha_nlos + span / (
        1.0 + env.omega1 * math.exp(-env.omega2 * (theta - env.omega1))
    )


def path_loss_gain(d: float, alpha: float) -> float:
    """Large-scale power gain d**(-alpha). Rejects non-positive distances."""
    if d <= 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    return d ** (-alpha)
