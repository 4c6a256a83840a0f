"""Experiment configuration: one key-value-group text file to runnable objects.

The file format is INI: each section is a group, and every key is optional.
A key left out keeps the default of the dataclass field it sets; together
they reproduce the reference drop (10-unit source-destination separation,
relay at (2, 0, 1.5), eavesdropper at (8, 1, 0), 20 dBW, even splits, 1e5
frames). Unknown sections or keys, and keys under [DEFAULT], are hard errors,
so typos cannot silently fall back to defaults. A command-line flag sets one
of these keys and goes through the same parser. Power enters in dBW, as on
every figure axis, and is converted to linear watts exactly once, here.
"""

from __future__ import annotations

import collections
import configparser
import functools
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
        # every metric needs noise; ProtocolConfig alone allows none
        try:
            pr.require_noise(self.protocol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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


_BOOL_WORDS = {"on": True, "true": True, "yes": True, "1": True,
               "off": False, "false": False, "no": False, "0": False}


def _node(text: str, where: str) -> geo.NodePosition:
    parts = text.split(",") if "," in text else text.split()
    if len(parts) != 3 or not all(part.strip() for part in parts):
        raise ConfigError(f"{where} needs three coordinates, got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{where} has a non-numeric coordinate: {text!r}") from None
    try:
        return geo.NodePosition(x, y, z)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _cast(caster, raw: str, where: str):
    try:
        return caster(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not a valid value") from None


_float = functools.partial(_cast, float)
_int = functools.partial(_cast, int)


def _watts(raw: str, where: str) -> float:
    return dbw_to_watts(_float(raw, where))


def _word(raw: str, where: str) -> str:
    return raw.strip().lower()


def _bool_word(raw: str, where: str) -> bool:
    word = _word(raw, where)
    if word not in _BOOL_WORDS:
        raise ConfigError(f"{where} must be on/off, got {raw!r}")
    return _BOOL_WORDS[word]


# [section] key -> (ExperimentConfig field, dataclass field, parser). A key
# the file leaves out keeps its dataclass default; "experiment" is the
# ExperimentConfig itself.
_KEYS = {
    "geometry": {name: ("geometry", name, _node) for name in
                 ("source", "destination", "eavesdropper", "relay")},
    "environment": {name: ("environment", name, _float) for name in
                    ("alpha_los", "alpha_nlos", "omega1", "omega2",
                     "kappa_min", "kappa_max")},
    "protocol": {
        "power_dbw": ("protocol", "total_power", _watts),
        **{name: ("protocol", name, _float) for name in
           ("allocation", "power_split", "harvester_efficiency",
            "processing_noise_ratio", "noise_power", "rate_t", "rate_s")},
    },
    "truncation": {name.lower(): ("orders", name, _int) for name in "DRQ"},
    "plan": {name: ("plan", name, _int) for name in ("frames", "seed")},
    "mode": {
        "baseline": ("experiment", "baseline", _word),
        "residual_epsilon": ("protocol", "include_residual_epsilon", _bool_word),
        "k_factor": ("environment", "k_factor_interpretation", _word),
    },
}


def load_config(path: str | None = None,
                flags: dict[tuple[str, str], str] | None = None) -> ExperimentConfig:
    """Parse an INI file and command-line flags into an ExperimentConfig.

    path None means no file. flags maps (section, key) to a flag's raw
    string; it wins over the file's key and goes through the same parser,
    and an error names the flag (--truncation sets the three [truncation]
    keys, every other flag the key of its own name).
    """
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
        # configparser would copy [DEFAULT] keys into every section, or
        # drop them unread
        if parser.defaults():
            raise ConfigError(
                "keys under [DEFAULT] are not allowed: "
                f"{', '.join(sorted(parser.defaults()))}"
            )
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
    where = {(section, key): f"[{section}] {key}"
             for section, values in sections.items() for key in values}
    for (section, key), raw in (flags or {}).items():
        sections.setdefault(section, {})[key] = raw
        where[section, key] = ("--truncation" if section == "truncation"
                               else f"--{key}")
    # every name is checked before any value is parsed
    for name, values in sections.items():
        if name not in _KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        unknown = set(values) - set(_KEYS[name])
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}"
            )

    fields: dict[str, dict] = collections.defaultdict(dict)
    setters: dict[str, dict] = collections.defaultdict(dict)
    for section, values in sections.items():
        for key, raw in values.items():
            target, field, parse = _KEYS[section][key]
            fields[target][field] = parse(raw, where[section, key])
            setters[target][where[section, key]] = None

    def build(target, make, **defaults):
        # an object's error names the keys or flags that set it
        try:
            return make(**{**defaults, **fields[target]})
        except ValueError as exc:
            raise ConfigError(f"{', '.join(setters[target])}: {exc}") from None

    return ExperimentConfig(
        geometry=replace(default_geometry(), **fields["geometry"]),
        environment=build("environment", geo.Environment),
        protocol=build("protocol", pr.ProtocolConfig,
                       total_power=dbw_to_watts(DEFAULT_POWER_DBW)),
        orders=build("orders", sf.TruncationOrders),
        plan=build("plan", mc.SimulationPlan),
        **fields["experiment"],
    )
