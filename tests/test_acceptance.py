"""End-to-end targets for the assembled pipeline, one test per target.

Every test pins a numeric target, its tolerance, and a wall-clock budget.
The runtime assertion always runs, so a missed target still verifies the
budget; assertion messages carry the measured values. Four targets are not
met and are left red on purpose rather than widened until they pass:

- CP and SOP series vs simulation: connection_probability and sop_l2 scale
  every expansion index by specfun.log_series_weight, which is already 0.62
  at index 10 of order 25. With that weight set to one the series land
  within 0.0015 of the simulation at every power; with it they miss by up
  to 0.071 (CP) and 0.074 (SOP). Dropping the weight moves the benchmark
  reference series values, so it waits for a re-recorded reference.
- ASR bound gap profile: the default asr_lower_bound drops the gain scales
  and path losses (1.23 to 1.87 bit/s/Hz against a simulated mean of
  0.049). The scale-corrected route is clipped to 0 because at this drop
  E[C_m] (0.47) is below E[C_e] (0.83), so no bound of the form
  [ln(1 + e^T1) - ln(1 + T2)]+ reaches the 0.05-0.09 targets; they must be
  re-derived at an operating point where E[C_m] > E[C_e].
- 0.75 split as the global best: the simulated ASR peaks near split 0.85,
  where 0.9 beats 0.75, in agreement with test_asr_grid_peak_location.
  Which split the paper finds best cannot be settled from the abstract
  alone.

The closed-form allocation target is evaluated at 80 dBW, where the
high-SNR premise of lambda* holds on every frame; its 30 dBW behaviour is
pinned in test_optimize.py.
"""

import pathlib
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from frame_helpers import draw_frames, frame_constants, phi_grid_argmax

from secrelay import analytic as an
from secrelay import channel_models as cm
from secrelay import geometry as geo
from secrelay import montecarlo as mc
from secrelay import optimize as opt
from secrelay import protocol as pr
from secrelay import specfun as sf

ENV = geo.Environment()
GEOM = geo.NetworkGeometry(
    source=geo.NodePosition(0.0, 0.0, 0.0),
    destination=geo.NodePosition(10.0, 0.0, 0.0),
    eavesdropper=geo.NodePosition(8.0, 1.0, 0.0),
    relay=geo.NodePosition(2.0, 0.0, 1.5),
)
LINKS = cm.build_links(GEOM, ENV)
PLAN = mc.SimulationPlan(frames=100_000, seed=0)
ORDERS = sf.TruncationOrders(D=25, R=25, Q=25)
POWERS_DBW = (10.0, 15.0, 20.0, 25.0, 30.0)


def watts(p_dbw):
    return 10.0 ** (p_dbw / 10.0)


CFG20 = pr.ProtocolConfig(total_power=watts(20.0))


def test_cp_series_tracks_simulation():
    start = time.perf_counter()
    gaps = {}
    for p_dbw in POWERS_DBW:
        cfg = pr.ProtocolConfig(total_power=watts(p_dbw))
        series = an.connection_probability(cfg, LINKS, ORDERS).clamped
        estimate = mc.estimate_cp(cfg, LINKS, PLAN)
        gaps[p_dbw] = abs(series - estimate.mean)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert all(gap < 0.01 for gap in gaps.values()), (
        f"series-vs-simulation gaps by power (dBW): {gaps}")


def test_sop_series_tracks_simulation():
    start = time.perf_counter()
    gaps = {}
    for p_dbw in POWERS_DBW:
        cfg = pr.ProtocolConfig(total_power=watts(p_dbw), allocation=0.7)
        series = an.secrecy_outage_probability(cfg, LINKS, ORDERS).clamped
        estimate = mc.estimate_sop(cfg, LINKS, PLAN)
        gaps[p_dbw] = abs(series - estimate.mean)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert all(gap < 0.02 for gap in gaps.values()), (
        f"series-vs-simulation gaps by power (dBW): {gaps}")


def test_asr_bound_gap_profile():
    start = time.perf_counter()
    estimate = mc.estimate_asr(CFG20, LINKS, PLAN)
    rel_gaps = {}
    for r_order in (5, 10, 25):
        bound = an.asr_lower_bound(CFG20, LINKS, replace(ORDERS, R=r_order))
        rel_gaps[r_order] = (estimate.mean - bound) / estimate.mean
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ordered = [rel_gaps[r] for r in (5, 10, 25)]
    assert ordered[0] > ordered[1] > ordered[2], (
        f"relative gaps not strictly decreasing in series depth: {rel_gaps}")
    expected = {5: 0.0907, 10: 0.0617, 25: 0.0512}
    for r_order, want in expected.items():
        assert abs(rel_gaps[r_order] - want) <= 0.03, (
            f"relative gap at depth {r_order}: {rel_gaps[r_order]:.4f}, "
            f"target {want} +/- 0.03 (simulated mean {estimate.mean:.5f})")


def test_allocation_closed_form_hits_grid_argmax():
    # lambda* = 1/(1 + sqrt(nu)) is derived for high transmit SNR with the
    # eavesdropper ratios summed (see the optimize module docstring), so the
    # target is checked where that premise holds on every frame. 80 dBW is
    # the lowest power on a 10 dB grid where it does for these frames (at
    # 70 dBW min c1/nu is 0.93). At 30 dBW c1 < nu on most of them, phi is
    # negative at every allocation on about half, and the grid argmax is
    # just the first grid point; that behaviour (1 hit in 100) stays pinned
    # in test_optimize.py::test_closed_form_hit_count_on_frozen_frames.
    start = time.perf_counter()
    cfg = pr.ProtocolConfig(total_power=watts(80.0))
    frames = draw_frames(LINKS, mc.block_stream(2024, 0), 100)
    consts = frame_constants(cfg, frames, LINKS)
    residual = 1.0 - 1.0 / (1.0 + np.sqrt(consts.nu))
    assert np.all(consts.c1 > consts.nu), (
        f"high-SNR premise fails: min c1/nu {np.min(consts.c1 / consts.nu):.3g}")
    for name, c in (("c3", consts.c3), ("c5", consts.c5)):
        assert np.all(c * residual >= 100.0), (
            f"high-SNR premise fails: min {name}(1 - lambda*) "
            f"{np.min(c * residual):.3g}, need 100")
    brute = phi_grid_argmax(cfg, frames, LINKS)
    stars = opt._policy_allocations(consts)
    closed_form = consts.nu >= 1.0
    eligible = int(np.count_nonzero(closed_form))
    hits = int(np.count_nonzero(closed_form & (np.abs(stars - brute) <= 2e-3)))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert hits >= 95, (
        f"closed form within 2e-3 of the grid argmax on {hits} of "
        f"{eligible} eligible frames; need 95")


def test_asr_grid_peak_location():
    start = time.perf_counter()
    search = opt.grid_search_opsa(CFG20, LINKS, PLAN)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert abs(search.allocation_best - 0.83) <= 0.1, (
        f"allocation peak at {search.allocation_best:.4f}")
    assert abs(search.split_best - 0.80) <= 0.1, (
        f"power-split peak at {search.split_best:.4f}")


def test_placement_peak_and_jamming_dominance():
    start = time.perf_counter()
    curve = opt.placement_sweep(CFG20, GEOM, PLAN, axis="horizontal")
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    positions = np.asarray(curve.positions)
    with_jamming = np.asarray(curve.asr_best_allocation)
    without = np.asarray(curve.asr_no_jamming)
    peak = float(positions[int(np.argmax(with_jamming))])
    assert abs(peak - 0.9) <= 0.05, f"best relay position at {peak:.2f}"
    short = with_jamming < without
    assert not short.any(), (
        f"jamming curve falls below the no-jamming curve at positions "
        f"{positions[short]}")


@pytest.fixture(scope="module")
def altitude_profiles():
    start = time.perf_counter()
    altitudes = np.linspace(0.5, 8.0, 16)
    profiles = {}
    for split in (0.25, 0.5, 0.75, 0.9):
        cfg = replace(CFG20, power_split=split)
        means = []
        for altitude in altitudes:
            geom = replace(GEOM, relay=geo.NodePosition(
                GEOM.relay.x, GEOM.relay.y, float(altitude)))
            links = cm.build_links(geom, ENV)
            means.append(mc.estimate_asr(cfg, links, PLAN).mean)
        profiles[split] = np.array(means)
    return time.perf_counter() - start, altitudes, profiles


def test_altitude_peak_at_three_quarter_split(altitude_profiles):
    elapsed, altitudes, profiles = altitude_profiles
    assert elapsed < 180.0
    peak = float(altitudes[int(np.argmax(profiles[0.75]))])
    assert abs(peak - 3.5) <= 0.5, f"altitude peak at {peak}"


def test_three_quarter_split_is_global_best(altitude_profiles):
    _, _, profiles = altitude_profiles
    best = {split: float(values.max()) for split, values in profiles.items()}
    winner = max(best, key=best.get)
    assert winner == 0.75, f"best split {winner}; peak values {best}"


def test_grid_optimal_cp_vs_equal_split():
    start = time.perf_counter()
    search = opt.grid_search_opsa(CFG20, LINKS, PLAN, objective="cp")
    equal_split = mc.estimate_cp(CFG20, LINKS, PLAN)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    ratio = search.metric_best / equal_split.mean
    assert ratio >= 1.5, (
        f"optimized {search.metric_best:.4f} vs equal-split "
        f"{equal_split.mean:.4f}: ratio {ratio:.3f}")


PROPERTY_MODULES = (
    "test_channel_models.py",
    "test_specfun.py",
    "test_protocol.py",
    "test_montecarlo.py",
    "test_analytic.py",
    "test_optimize.py",
)


def test_property_suite_green_within_budget():
    here = pathlib.Path(__file__).resolve().parent
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(here / name) for name in PROPERTY_MODULES)],
        capture_output=True, text=True, cwd=str(here.parent))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert elapsed < 120.0
