"""Power allocation and relay placement tuning.

Two optimization layers live here. The per-frame layer works on one channel
realization: SinrConstants carry the exact allocation dependence of a
frame's SINRs, and the closed form lambda* = 1 / (1 + sqrt(nu)) predicts
the allocation that maximizes its SINR gap ratio
(gamma_main - gamma_eve) / (1 + gamma_eve), whose sign matches the
instantaneous secrecy rate. The ergodic layer searches Monte Carlo estimates
over parameter grids: a joint (allocation, split) search and a relay
placement sweep along the source-destination line.

The per-frame allocation policy applies lambda* where nu >= 1 and
otherwise the best allocation on the grid 0.01, 0.02, ..., 0.99, located
from the critical points of the frame's rate curve so that only a few grid
points are evaluated.

The closed form is derived for high transmit SNR with the eavesdropper
ratios summed rather than maximized; where those premises fail the grid
argmax of the exact gap ratio can sit far from lambda*. The tests measure
that difference against a brute-force grid.

All Monte Carlo searches reuse one simulation plan across grid cells
(common random numbers), so surfaces are smooth in the parameters and
results are deterministic given (seed, grid).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import channel_models as cm
from . import geometry as geo
from . import montecarlo as mc
from . import protocol as pr

# The nu < 1 fallback picks the best of the allocations 0.01, 0.02, ..., 0.99:
# allocation k = 0 ... _FALLBACK_LAST is _FALLBACK_STEP * k + _FALLBACK_STEP,
# bit for bit np.linspace(0.01, 0.99, 99)[k].
_FALLBACK_STEP = 0.01
_FALLBACK_LAST = 98


class SinrConstants(NamedTuple):
    """Coefficients of the exact SINR dependence on the allocation factor.

    With effective (loss-scaled) gains behind them, the per-frame SINRs are
    exactly gamma_main = a*c1, gamma_eve1 = a*c2/((1-a)*c3 + 1), and
    gamma_eve2 = a*c4/((1-a)*c5 + 1) for every allocation a, so the tuple
    carries the full allocation dependence of one frame.
    """

    c1: object
    c2: object
    c3: object
    c4: object
    c5: object

    @property
    def nu(self):
        """Gain-ratio sum driving the closed-form allocation."""
        return self.c2 / self.c3 + self.c4 / self.c5


def sinr_constants(cfg: pr.ProtocolConfig, links: cm.LinkSet,
                   terms: pr.SinrTerms, s_ae, s_be) -> SinrConstants:
    """Reparametrize the SINRs of frames as rational functions of the
    allocation, from their power-free terms (protocol.sinr_terms at cfg)
    and their ae and be gains.

    The relayed-path constants are those terms at the total power; the
    residual-epsilon term is left out.
    """
    v = s_ae * links.ae.large_scale_gain
    w = s_be * links.be.large_scale_gain
    p, n0 = cfg.total_power, cfg.noise_power
    return SinrConstants(
        c1=p * terms.main,
        c2=p * v / n0,
        c3=p * w / n0,
        c4=p * terms.num2 / terms.den2,
        c5=p * terms.jam2 / terms.den2,
    )


# ---------------------------------------------------------------------------
# Per-frame allocation policy inside the ergodic estimator.


def _rate_from_constants(allocation, consts: SinrConstants):
    jamming = 1.0 - allocation
    gamma_e = np.maximum(
        allocation * consts.c2 / (jamming * consts.c3 + 1.0),
        allocation * consts.c4 / (jamming * consts.c5 + 1.0),
    )
    return pr.secrecy_rate(allocation * consts.c1, gamma_e)


def _critical_points(consts: SinrConstants) -> list:
    """Allocations where the policy rate can change direction, per frame.

    The rate is 0.5*log2 of min(f1, f2), clamped at 0, where on branch
    (cn, cd) = (c2, c3) or (c4, c5)
    f = (1 + c1*a)*(1 + cd - cd*a) / (1 + cd + (cn - cd)*a).
    Its stationary points solve
    c1*cd*(cn - cd)*a^2 + 2*c1*cd*B*a - B*(c1*B - cn) = 0 with B = 1 + cd;
    divided through by c1*cd*B, this is p*a^2 + 2*a - q = 0 with
    p = (cn - cd)/B > -1, whose coefficients stay inside double range. Its
    root -(1 + sqrt(1 + p*q))/p is negative for p > 0 and above 1/|p| > 1
    for p < 0, so only the other root can lie in (0, 1). The branches cross
    at a = 1 - (c4 - c2)/(c2*c5 - c4*c3). Points may be non-finite or
    outside (0, 1); the caller clips them.
    """
    c1, c2, c3, c4, c5 = consts
    points = [1.0 - (c4 - c2) / (c2 * c5 - c4 * c3)]
    for cn, cd in ((c2, c3), (c4, c5)):
        b = 1.0 + cd
        p = (cn - cd) / b
        q = (b - cn / c1) / cd
        # the cancellation-free form of (sqrt(1 + p*q) - 1)/p, which is
        # also the root q/2 of the linear case p = 0
        points.append(q / (1.0 + np.sqrt(1.0 + p * q)))
    return points


def _grid_argmax(consts: SinrConstants) -> np.ndarray:
    """Per frame, the allocation on the grid 0.01, 0.02, ..., 0.99 that
    maximizes _rate_from_constants, ties to the lowest.

    Between consecutive critical points (_critical_points) the rate is
    monotone, so the maximum sits at an end of the grid or at a grid point
    next to a critical point: only those eight candidates are evaluated.
    Where every grid rate is clamped to 0, the first allocation wins. A
    rate curve flat to rounding (possible at nu >> 1, never seen at
    nu < 1) lets rounding pick the full grid's winner, which this may miss.

    The candidates are evaluated one length-n row at a time against a
    running best rate and allocation, so no temporary is larger than a row.
    Each row is built in place from its critical point; the rates of finite
    constants are finite, so every comparison is decided.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        points = _critical_points(consts)
        for below in points:
            # the grid index at or below the point, 0 where it is NaN
            below -= _FALLBACK_STEP
            below /= _FALLBACK_STEP
            np.floor(below, out=below)
            np.copyto(below, 0.0, where=np.isnan(below))
    best = np.full(consts.c1.shape, _FALLBACK_STEP)
    best_rate = _rate_from_constants(_FALLBACK_STEP, consts)

    def consider(allocation):
        rate = _rate_from_constants(allocation, consts)
        # a higher rate wins, an equal one only at a lower allocation
        take = (rate > best_rate) | ((rate == best_rate) & (allocation < best))
        np.copyto(best, allocation, where=take)
        np.copyto(best_rate, rate, where=take)

    consider(_FALLBACK_STEP * _FALLBACK_LAST + _FALLBACK_STEP)
    candidate = np.empty_like(best)
    for below in points:
        for offset in (0.0, 1.0):
            np.add(below, offset, out=candidate)
            np.clip(candidate, 0, _FALLBACK_LAST, out=candidate)
            candidate *= _FALLBACK_STEP
            candidate += _FALLBACK_STEP
            consider(candidate)
    return best


def _policy_allocations(consts: SinrConstants) -> np.ndarray:
    """Per-frame allocation of the policy: the closed form 1/(1 + sqrt(nu)),
    and where nu < 1, which leaves no interior optimum, the best allocation
    on the grid 0.01, 0.02, ..., 0.99 (_grid_argmax)."""
    nu = np.asarray(consts.nu)
    allocation = 1.0 / (1.0 + np.sqrt(nu))
    low = np.flatnonzero(nu < 1.0)
    if low.size:
        allocation[low] = _grid_argmax(
            SinrConstants(*(np.take(c, low) for c in consts)))
    return allocation


def _policy_estimate(cfg: pr.ProtocolConfig, links: cm.LinkSet,
                     plan: mc.SimulationPlan, per_frame) -> mc.Estimate:
    """estimate_functional of per_frame(consts, gains, terms), consts the
    block's SinrConstants.

    The constants are built from the power-free SINR terms that the engine
    hands the functional beside the gains, the ones it caches per block and
    split, so the policy makes no terms of its own. They are those terms at
    the total power, which the policy may give to either transmitter, so
    they leave double range at powers where the SINRs at cfg's powers do
    not. A frame with a non-finite constant is refused before the policy
    reads it, as the engine refuses non-finite SINRs: from then on the
    policy reads no block, and NonFiniteSinrError gives the count over the
    whole plan.
    """
    refused = 0

    def functional(gains, terms):
        nonlocal refused
        with np.errstate(over="ignore", invalid="ignore"):
            consts = sinr_constants(cfg, links, terms, *gains[3:])
        refused += mc._nonfinite(functools.reduce(np.maximum, consts))
        if refused:
            return np.zeros(len(gains[0]))
        return per_frame(consts, gains, terms)

    estimate = mc.estimate_functional(cfg, links, plan, functional)
    if refused:
        raise mc.NonFiniteSinrError(
            f"{refused} of {plan.frames} frames gave a non-finite SINR constant "
            f"for the allocation policy; the total power {cfg.total_power} W "
            "leaves double range"
        )
    return estimate


def estimate_asr_allocation_policy(cfg: pr.ProtocolConfig, links: cm.LinkSet,
                                   plan: mc.SimulationPlan) -> mc.Estimate:
    """Average secrecy rate when every frame applies its own lambda*.

    The closed form needs the eavesdropper's instantaneous gains, so this is
    the genie-aided upper layer of the policy, distinct from the ergodic
    grid searches below. Frames in the nu < 1 branch fall back to a grid
    argmax over [0.01, 0.99]; allocation_policy_fallback_share reports how
    often that happens under the same draws. The rule reads SinrConstants,
    which leave out the residual-epsilon term; the rate at the chosen
    allocation comes from the protocol SINRs, which keep it when it is on.
    """

    def rates(consts, gains, terms):
        allocation = _policy_allocations(consts)
        p = cfg.total_power
        s_au, s_ub, _, s_ae, s_be = gains
        gamma_m, gamma_1, gamma_2 = pr.sinrs_from_terms(
            cfg, links, terms, s_au, s_ub, s_ae, s_be,
            allocation * p, (1.0 - allocation) * p)
        return pr.secrecy_rate(gamma_m, np.maximum(gamma_1, gamma_2))

    return _policy_estimate(cfg, links, plan, rates)


def allocation_policy_fallback_share(cfg: pr.ProtocolConfig, links: cm.LinkSet,
                                     plan: mc.SimulationPlan) -> float:
    """Fraction of frames the per-frame policy sends to the grid fallback."""

    def indicator(consts, gains, terms):
        return (np.asarray(consts.nu) < 1.0).astype(float)

    return _policy_estimate(cfg, links, plan, indicator).mean


# ---------------------------------------------------------------------------
# Ergodic grid searches.

_ALLOCATION_POINTS = tuple(float(v) for v in np.linspace(0.01, 0.99, 25))
_DISTANCE_POINTS = tuple(float(v) for v in np.linspace(0.05, 0.95, 19))
_ALTITUDE_POINTS = tuple(float(v) for v in np.linspace(0.5, 8.0, 16))


def _validated_axis(name, values, lower, upper, closed):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d grid")
    if not np.all(np.isfinite(arr)) or np.any(np.diff(arr) <= 0):
        raise ValueError(f"{name} must be finite and strictly increasing")
    inside = (lower <= arr[0] and arr[-1] <= upper) if closed \
        else (lower < arr[0] and arr[-1] < upper)
    if not inside:
        raise ValueError(
            f"{name} must stay within {'[' if closed else '('}{lower}, "
            f"{upper}{']' if closed else ')'}"
        )


@dataclass(frozen=True)
class SweepGrid:
    """Axes for the ergodic searches; defaults match the reference figures.

    Allocation and split axes must stay inside [0.01, 0.99] (the estimators
    degenerate at the endpoints), distances are normalized to the
    source-destination separation, altitudes are absolute.
    """

    allocation_grid: tuple = _ALLOCATION_POINTS
    split_grid: tuple = _ALLOCATION_POINTS
    distance_grid: tuple = _DISTANCE_POINTS
    altitude_grid: tuple = _ALTITUDE_POINTS

    def __post_init__(self) -> None:
        _validated_axis("allocation_grid", self.allocation_grid, 0.01, 0.99, True)
        _validated_axis("split_grid", self.split_grid, 0.01, 0.99, True)
        _validated_axis("distance_grid", self.distance_grid, 0.0, 1.0, False)
        _validated_axis("altitude_grid", self.altitude_grid, 0.0, math.inf, False)


@dataclass(frozen=True, eq=False)
class OpsaSearchResult:
    """Metric surface over (allocation, split) plus its argmax cell."""

    objective: str
    allocation_grid: np.ndarray
    split_grid: np.ndarray
    surface: np.ndarray
    se_surface: np.ndarray
    allocation_best: float
    split_best: float
    metric_best: float


_OBJECTIVES = {"asr": mc.estimate_asr, "cp": mc.estimate_cp}


def grid_search_opsa(cfg_template: pr.ProtocolConfig, links: cm.LinkSet,
                     plan: mc.SimulationPlan, grid: SweepGrid | None = None,
                     objective: str = "asr") -> OpsaSearchResult:
    """Joint (allocation, split) search of a Monte Carlo metric surface.

    Every cell reuses the same plan, so the whole surface shares one set of
    channel draws and the argmax is deterministic given (seed, grid). The
    cells are visited split by split, so the allocations of one split reuse
    the power-free SINR terms the engine caches per block and split.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {sorted(_OBJECTIVES)}, "
                         f"got {objective!r}")
    grid = grid if grid is not None else SweepGrid()
    estimator = _OBJECTIVES[objective]
    allocations = np.asarray(grid.allocation_grid)
    splits = np.asarray(grid.split_grid)
    surface = np.empty((allocations.size, splits.size))
    se_surface = np.empty_like(surface)
    for j, split in enumerate(splits):
        for i, allocation in enumerate(allocations):
            cfg = replace(cfg_template, allocation=float(allocation),
                          power_split=float(split))
            est = estimator(cfg, links, plan)
            surface[i, j] = est.mean
            se_surface[i, j] = est.std_error
    i_best, j_best = np.unravel_index(int(np.argmax(surface)), surface.shape)
    return OpsaSearchResult(
        objective=objective, allocation_grid=allocations, split_grid=splits,
        surface=surface, se_surface=se_surface,
        allocation_best=float(allocations[i_best]),
        split_best=float(splits[j_best]), metric_best=float(surface[i_best, j_best]),
    )


@dataclass(frozen=True, eq=False)
class PlacementCurve:
    """ASR against the relay's position on the source-destination line,
    under four allocation strategies.

    positions are normalized distances from the source. asr_fixed keeps the
    template allocation; asr_best_allocation re-optimizes the allocation
    grid per position (best_allocation records the winner); asr_policy
    applies the per-frame closed form with policy_fallback_share logging its
    nu < 1 fallback rate; asr_no_jamming hands the whole budget to the
    source.
    """

    positions: np.ndarray
    asr_fixed: np.ndarray
    asr_fixed_se: np.ndarray
    asr_best_allocation: np.ndarray
    asr_best_allocation_se: np.ndarray
    best_allocation: np.ndarray
    asr_policy: np.ndarray
    asr_policy_se: np.ndarray
    policy_fallback_share: np.ndarray
    asr_no_jamming: np.ndarray
    asr_no_jamming_se: np.ndarray


def placement_sweep(cfg: pr.ProtocolConfig, geometry_template: geo.NetworkGeometry,
                    plan: mc.SimulationPlan, grid: SweepGrid | None = None,
                    env: geo.Environment | None = None) -> PlacementCurve:
    """ASR curve with the relay slid along the source-destination line at
    the template's altitude, one grid.distance_grid position at a time,
    links rebuilt per position.
    """
    grid = grid if grid is not None else SweepGrid()
    env = env if env is not None else geo.Environment()
    positions = np.asarray(grid.distance_grid)
    rows = []
    for along in positions:
        links_k = cm.build_links(
            geo.move_relay(geometry_template, along=float(along)), env)
        fixed = mc.estimate_asr(cfg, links_k, plan)
        # max keeps the first of equal means, as the grid scan did
        best_alloc, best = max(
            ((a, mc.estimate_asr(replace(cfg, allocation=a), links_k, plan))
             for a in grid.allocation_grid), key=lambda pair: pair[1].mean)
        policy = estimate_asr_allocation_policy(cfg, links_k, plan)
        share = allocation_policy_fallback_share(cfg, links_k, plan)
        no_jam = mc.estimate_asr(replace(cfg, allocation=1.0), links_k, plan)
        rows.append((fixed.mean, fixed.std_error, best.mean, best.std_error,
                     best_alloc, policy.mean, policy.std_error, share,
                     no_jam.mean, no_jam.std_error))
    return PlacementCurve(positions, *np.array(rows).T)
