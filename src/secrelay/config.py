"""Experiment configuration: one key-value-group text file to runnable objects.

The file format is INI: each section is a group, every key is optional, and
defaults reproduce the reference drop (10-unit source-destination separation,
relay at (2, 0, 1.5), eavesdropper at (8, 1, 0), 20 dBW, even splits, 1e5
frames). Unknown sections or keys are hard errors, so typos cannot silently
fall back to defaults. Power enters in dBW, as on every figure axis, and is
converted to linear watts exactly once, here.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from . import channel_models as cm
from . import geometry as geo
from . import montecarlo as mc
from . import protocol as pr
from . import specfun as sf

BASELINE_UAV_CJ = "uav_cj"
BASELINE_UAV_NO_CJ = "uav_no_cj"
BASELINE_GROUND_RELAY = "ground_relay"
BASELINES = (BASELINE_UAV_CJ, BASELINE_UAV_NO_CJ, BASELINE_GROUND_RELAY)

DEFAULT_POWER_DBW = 20.0


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


def default_geometry() -> geo.NetworkGeometry:
    return geo.NetworkGeometry(
        source=geo.NodePosition(0.0, 0.0, 0.0),
        destination=geo.NodePosition(10.0, 0.0, 0.0),
        eavesdropper=geo.NodePosition(8.0, 1.0, 0.0),
        relay=geo.NodePosition(2.0, 0.0, 1.5),
    )


def dbw_to_watts(power_dbw: float) -> float:
    """Linear watts of a dBW power; ConfigError unless positive and finite."""
    try:
        watts = 10.0 ** (power_dbw / 10.0)
    except OverflowError:
        watts = math.inf
    if not 0.0 < watts < math.inf:
        raise ConfigError(f"{power_dbw} dBW is not a positive, finite power")
    return watts


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one command run needs, in engine units.

    protocol.total_power is already linear watts. baseline selects the
    comparison mode: the cooperative-jamming drop as configured, the same
    drop with the whole budget at the source (no jamming), or a ground
    relay on the source-destination line at the aerial relay's along-line
    distance (its links then fade exponentially with the NLOS exponent).
    """

    geometry: geo.NetworkGeometry
    environment: geo.Environment
    protocol: pr.ProtocolConfig
    orders: sf.TruncationOrders
    plan: mc.SimulationPlan
    baseline: str = BASELINE_UAV_CJ

    def __post_init__(self) -> None:
        if self.baseline not in BASELINES:
            raise ConfigError(
                f"baseline must be one of {BASELINES}, got {self.baseline!r}"
            )
        try:
            self.build_links()
        except ValueError as exc:
            raise ConfigError(f"{self.baseline} geometry: {exc}") from None

    def effective_geometry(self) -> geo.NetworkGeometry:
        if self.baseline != BASELINE_GROUND_RELAY:
            return self.geometry
        src, dst = self.geometry.source, self.geometry.destination
        along = ((self.geometry.relay.x - src.x) * (dst.x - src.x)
                 + (self.geometry.relay.y - src.y) * (dst.y - src.y))
        span = (dst.x - src.x) ** 2 + (dst.y - src.y) ** 2
        if span == 0.0:
            raise ConfigError(
                "ground_relay baseline needs distinct source/destination "
                "ground coordinates"
            )
        return geo.move_relay(self.geometry, along=along / span, altitude=0.0)

    def effective_protocol(self) -> pr.ProtocolConfig:
        if self.baseline == BASELINE_UAV_NO_CJ:
            return replace(self.protocol, allocation=1.0)
        return self.protocol

    def build_links(self) -> cm.LinkSet:
        return cm.build_links(self.effective_geometry(), self.environment)


_SECTION_KEYS = {
    "geometry": {"source", "destination", "eavesdropper", "relay"},
    "environment": {"alpha_los", "alpha_nlos", "omega1", "omega2",
                    "kappa_min", "kappa_max"},
    "protocol": {"power_dbw", "allocation", "power_split",
                 "harvester_efficiency", "processing_noise_ratio",
                 "noise_power", "rate_t", "rate_s"},
    "truncation": {"d", "r", "q"},
    "plan": {"frames", "seed"},
    "mode": {"baseline", "residual_epsilon", "k_factor"},
}

_BOOL_WORDS = {"on": True, "true": True, "yes": True, "1": True,
               "off": False, "false": False, "no": False, "0": False}


def _node(text: str, where: str) -> geo.NodePosition:
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise ConfigError(f"{where} needs three coordinates, got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{where} has a non-numeric coordinate: {text!r}") from None
    return geo.NodePosition(x, y, z)


def _convert(raw: str, caster, where: str):
    try:
        return caster(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not a valid value") from None


def _bool_word(raw: str, where: str) -> bool:
    word = raw.strip().lower()
    if word not in _BOOL_WORDS:
        raise ConfigError(f"{where} must be on/off, got {raw!r}")
    return _BOOL_WORDS[word]


def load_config(path: str | None = None) -> ExperimentConfig:
    """Parse an INI file into an ExperimentConfig; path None means defaults."""
    sections: dict[str, dict[str, str]] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from None
        for name in parser.sections():
            if name not in _SECTION_KEYS:
                raise ConfigError(f"unknown config section [{name}]")
            sections[name] = dict(parser.items(name))
            unknown = set(sections[name]) - _SECTION_KEYS[name]
            if unknown:
                raise ConfigError(
                    f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}"
                )

    def get(section: str, key: str, caster, default):
        raw = sections.get(section, {}).get(key)
        if raw is None:
            return default
        return _convert(raw, caster, f"[{section}] {key}")

    g = sections.get("geometry", {})
    base = default_geometry()
    geometry = geo.NetworkGeometry(
        source=_node(g["source"], "[geometry] source") if "source" in g else base.source,
        destination=(_node(g["destination"], "[geometry] destination")
                     if "destination" in g else base.destination),
        eavesdropper=(_node(g["eavesdropper"], "[geometry] eavesdropper")
                      if "eavesdropper" in g else base.eavesdropper),
        relay=_node(g["relay"], "[geometry] relay") if "relay" in g else base.relay,
    )

    k_factor = get("mode", "k_factor", str, geo.K_FACTOR_LINEAR).strip().lower()
    try:
        environment = geo.Environment(
            alpha_los=get("environment", "alpha_los", float, 2.0),
            alpha_nlos=get("environment", "alpha_nlos", float, 3.5),
            omega1=get("environment", "omega1", float, 0.28),
            omega2=get("environment", "omega2", float, 9.61),
            kappa_min=get("environment", "kappa_min", float, 1.0),
            kappa_max=get("environment", "kappa_max", float, 10.0),
            k_factor_interpretation=k_factor,
        )
        power_dbw = get("protocol", "power_dbw", float, DEFAULT_POWER_DBW)
        residual_raw = sections.get("mode", {}).get("residual_epsilon")
        protocol = pr.ProtocolConfig(
            total_power=dbw_to_watts(power_dbw),
            allocation=get("protocol", "allocation", float, 0.5),
            power_split=get("protocol", "power_split", float, 0.5),
            harvester_efficiency=get("protocol", "harvester_efficiency", float, 0.7),
            processing_noise_ratio=get("protocol", "processing_noise_ratio",
                                       float, 2.0),
            noise_power=get("protocol", "noise_power", float, 1e-2),
            rate_t=get("protocol", "rate_t", float, 0.5),
            rate_s=get("protocol", "rate_s", float, 0.2),
            include_residual_epsilon=(
                _bool_word(residual_raw, "[mode] residual_epsilon")
                if residual_raw is not None else False),
        )
        orders = sf.TruncationOrders(
            D=get("truncation", "d", int, 25),
            R=get("truncation", "r", int, 25),
            Q=get("truncation", "q", int, 25),
        )
        plan = mc.SimulationPlan(
            frames=get("plan", "frames", int, 100_000),
            seed=get("plan", "seed", int, 0),
        )
        return ExperimentConfig(
            geometry=geometry, environment=environment, protocol=protocol,
            orders=orders, plan=plan,
            baseline=get("mode", "baseline", str, BASELINE_UAV_CJ).strip().lower(),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_truncation(text: str) -> sf.TruncationOrders:
    """Parse a 'D,R,Q' flag value."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--truncation needs D,R,Q, got {text!r}")
    try:
        d, r, q = (int(p) for p in parts)
        return sf.TruncationOrders(D=d, R=r, Q=q)
    except ValueError as exc:
        raise ConfigError(f"bad --truncation value {text!r}: {exc}") from None


def apply_overrides(
    cfg: ExperimentConfig,
    seed: int | None = None,
    frames: int | None = None,
    orders: sf.TruncationOrders | None = None,
    baseline: str | None = None,
) -> ExperimentConfig:
    """Command-line flag values win over the file."""
    plan = cfg.plan
    if seed is not None or frames is not None:
        try:
            plan = replace(cfg.plan,
                           seed=plan.seed if seed is None else seed,
                           frames=plan.frames if frames is None else frames)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return replace(
        cfg, plan=plan,
        orders=cfg.orders if orders is None else orders,
        baseline=cfg.baseline if baseline is None else baseline,
    )
