"""Allocation tuning: closed form vs exact grid, policy estimator, searches."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from frame_helpers import (PHI_GRID, Frame, capacity, draw_frames, frame_constants,
                           frame_sinrs, phi, phi_grid_argmax)
from hypothesis import assume, given, settings, strategies as st

from secrelay import channel_models as cm
from secrelay import config as cfgfile
from secrelay import geometry as geo
from secrelay import montecarlo as mc
from secrelay import optimize as opt
from secrelay import protocol as pr

ENV = geo.Environment()
GEOM = geo.NetworkGeometry(
    source=geo.NodePosition(0.0, 0.0, 0.0),
    destination=geo.NodePosition(10.0, 0.0, 0.0),
    eavesdropper=geo.NodePosition(8.0, 1.0, 0.0),
    relay=geo.NodePosition(2.0, 0.0, 1.5),
)
LINKS = cm.build_links(GEOM, ENV)
CFG30 = pr.ProtocolConfig(total_power=1000.0)
CFG20 = pr.ProtocolConfig(total_power=100.0)

# Line-of-sight losses collapsed to unity: isolates the small-scale ratios.
UNIT_LINKS = cm.LinkSet(
    au=cm.LinkModel("au", 0.0, 1.0), ub=cm.LinkModel("ub", 0.0, 1.0),
    ue=cm.LinkModel("ue", 0.0, 1.0), ae=cm.LinkModel("ae", 0.0, 1.0),
    be=cm.LinkModel("be", 0.0, 1.0),
)

FRAMES = draw_frames(LINKS, mc.block_stream(2024, 0), 100)

# Measured once on the frozen frame stream above, then pinned. The first
# frames show the typical drift between the closed form and the exact grid
# argmax at this operating point; only 1 of the 100 frames lands within 2e-3.
FRAME_PINS = [
    (0, 41.832953187675564, 0.1339075303111013, 0.001),
    (1, 7.562785034986693, 0.266662981451482, 0.271),
    (2, 21.030020850616957, 0.17902378111472586, 0.149),
]
CLOSED_FORM_HITS = 1

# Per-frame policy at the default drop, 20 dBW, 1e5 frames, seed 0.
POLICY_ASR = 0.029097112841190338
POLICY_SE = 0.0002584664704052534
POLICY_FALLBACK_SHARE = 0.00173


def one_frame(s_au, s_ub, s_ue, s_ae, s_be):
    """A single frame as length-1 arrays, the shape the policy works on."""
    return Frame(*(np.array([g], dtype=float) for g in (s_au, s_ub, s_ue, s_ae, s_be)))


def policy(cfg, frame, links):
    """(nu, allocation) of the per-frame policy, one entry per frame."""
    consts = frame_constants(cfg, frame, links)
    return consts.nu, opt._policy_allocations(consts)


# The 99-point grid of the policy's nu < 1 fallback.
FULL_GRID = np.linspace(0.01, 0.99, 99)


# ---------------------------------------------------------------------------
# closed-form branches


def test_interior_branch():
    nu, allocation = policy(CFG30, one_frame(2.0, 1.0, 1.0, 2.0, 1.0), UNIT_LINKS)
    assert nu[0] == 4.0
    assert allocation[0] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_no_optimum_branch_is_a_value():
    # no interior optimum: the policy takes the best point of its grid
    frame = one_frame(1.0, 8.0, 1.0, 1.0, 8.0)
    consts = frame_constants(CFG30, frame, UNIT_LINKS)
    assert consts.nu[0] == 0.25
    allocation = opt._policy_allocations(consts)
    assert np.isin(allocation, FULL_GRID).all()
    np.testing.assert_array_equal(allocation, opt._grid_argmax(consts))


def test_half_branch():
    nu, allocation = policy(CFG30, one_frame(1.0, 2.0, 1.0, 1.0, 2.0), UNIT_LINKS)
    assert nu[0] == 1.0
    assert allocation[0] == 0.5


def test_links_scale_the_ratios():
    frame = one_frame(1.0, 1.0, 1.0, 1.0, 1.0)
    raw = frame_constants(CFG30, frame, UNIT_LINKS).nu
    scaled = frame_constants(CFG30, frame, LINKS).nu
    assert raw[0] == 2.0
    expected = (LINKS.ae.large_scale_gain / LINKS.be.large_scale_gain
                + LINKS.au.large_scale_gain / LINKS.ub.large_scale_gain)
    assert scaled[0] == pytest.approx(expected, rel=1e-14)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=80, deadline=None)
def test_branches_partition_nu(s_au, s_ub, s_ae, s_be):
    nu, allocation = policy(CFG30, one_frame(s_au, s_ub, 1.0, s_ae, s_be), UNIT_LINKS)
    if nu[0] < 1.0:
        assert np.isin(allocation, FULL_GRID).all()
    elif nu[0] == 1.0:
        assert allocation[0] == 0.5
    else:
        assert 0.0 < allocation[0] < 0.5


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.sampled_from([2.0 ** -20, 2.0 ** -6, 2.0 ** 8, 2.0 ** 17]),
)
@settings(max_examples=80, deadline=None)
def test_lambda_star_scale_invariant(s_au, s_ub, s_ae, s_be, kappa):
    a_nu, a = policy(CFG30, one_frame(s_au, s_ub, 1.0, s_ae, s_be), UNIT_LINKS)
    b_nu, b = policy(CFG30, one_frame(kappa * s_au, kappa * s_ub, kappa,
                                      kappa * s_ae, kappa * s_be), UNIT_LINKS)
    assert a_nu[0] == pytest.approx(b_nu[0], rel=1e-12)
    # the closed form reads nu alone; the fallback also reads the SNR
    if a_nu[0] >= 1.0 and b_nu[0] >= 1.0:
        assert a[0] == pytest.approx(b[0], rel=1e-12)


# ---------------------------------------------------------------------------
# the allocation objective


def test_exact_phi_matches_rational_reparametrization():
    # The SinrConstants tuple claims to capture the whole allocation
    # dependence; check it against the protocol route across the domain.
    for lam in (0.05, 0.37, 0.93):
        exact = phi(CFG30, FRAMES, LINKS, lam)
        c = frame_constants(CFG30, FRAMES, LINKS)
        gamma_m = lam * c.c1
        gamma_e = np.maximum(lam * c.c2 / ((1 - lam) * c.c3 + 1.0),
                             lam * c.c4 / ((1 - lam) * c.c5 + 1.0))
        rational = (gamma_m - gamma_e) / (1.0 + gamma_e)
        np.testing.assert_allclose(exact, rational, rtol=1e-12)


@pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
def test_sinr_constants_reproduce_protocol_sinrs(beta):
    # The rational form is the only SINR model besides protocol.sinrs; with
    # the residual term off it must give the same three SINRs.
    cfg = pr.ProtocolConfig(total_power=1000.0, power_split=beta)
    c = frame_constants(cfg, FRAMES, LINKS)
    for lam in (0.05, 0.37, 0.93, 1.0):
        p_a, p_b = lam * cfg.total_power, (1.0 - lam) * cfg.total_power
        gamma_m, gamma_1, gamma_2 = pr.sinrs(cfg, LINKS, *FRAMES, p_a, p_b)
        np.testing.assert_allclose(lam * c.c1, gamma_m, rtol=1e-12)
        np.testing.assert_allclose(
            lam * c.c2 / ((1.0 - lam) * c.c3 + 1.0), gamma_1, rtol=1e-12)
        np.testing.assert_allclose(
            lam * c.c4 / ((1.0 - lam) * c.c5 + 1.0), gamma_2, rtol=1e-12)


def test_phi_vanishes_linearly_at_zero_allocation():
    # No source power, no rate for anyone: phi -> 0, with slope c1.
    frame = Frame(1.0, 1.0, 1.0, 1.0, 1.0)
    v12 = phi(CFG30, frame, UNIT_LINKS, 1e-12)
    v10 = phi(CFG30, frame, UNIT_LINKS, 1e-10)
    assert abs(v12) < 1e-7
    assert v12 / v10 == pytest.approx(0.01, rel=1e-6)


def test_phi_negative_when_eavesdropper_dominates():
    frame = Frame(1.0, 1.0, 1.0, 1000.0, 0.001)
    for lam in (1e-8, 1e-4, 0.5):
        assert phi(CFG30, frame, UNIT_LINKS, lam) < 0.0


def test_approximate_mode_peaks_at_closed_form():
    # phi's high-SNR form c1*a*(1-a) / (1 + (nu-1)*a) peaks at the closed
    # form 1/(1 + sqrt(nu)) that the policy applies
    consts = frame_constants(CFG30, one_frame(1.0, 1.0, 1.0, 1.0, 1.0), UNIT_LINKS)
    values = consts.c1 * PHI_GRID * (1.0 - PHI_GRID) / (1.0 + (consts.nu - 1.0) * PHI_GRID)
    argmax = float(PHI_GRID[int(np.argmax(values))])
    assert argmax == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)), abs=1e-3)
    assert argmax == pytest.approx(opt._policy_allocations(consts)[0], abs=1e-3)


def test_exact_argmax_approaches_closed_form_as_relay_gain_grows():
    # With the relayed path overwhelming (huge s_ub), the remaining
    # eavesdropper ratio dominates nu and the closed form becomes exact.
    frame = one_frame(1.0, 1e12, 1.0, 2.0, 1.0)
    best = phi_grid_argmax(CFG30, frame, UNIT_LINKS)[0]
    _, star = policy(CFG30, frame, UNIT_LINKS)
    assert star[0] == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)), rel=1e-6)
    assert abs(best - star[0]) <= 2e-3


# ---------------------------------------------------------------------------
# grid argmax vs closed form on sampled frames


def test_frozen_frame_anatomy():
    brute = phi_grid_argmax(CFG30, FRAMES, LINKS)
    assert brute.shape == (100,)
    nu, stars = policy(CFG30, FRAMES, LINKS)
    for i, nu_i, star, best in FRAME_PINS:
        assert nu[i] == pytest.approx(nu_i, rel=1e-12)
        assert stars[i] == pytest.approx(star, rel=1e-12)
        assert brute[i] == pytest.approx(best, abs=1e-12)


def test_closed_form_hit_count_on_frozen_frames():
    # At this drop the high-SNR premise fails for most frames (the amplified
    # noise terms are order one), so the closed form rarely lands on the
    # exact argmax. Pinned so any drift in either route is caught.
    brute = phi_grid_argmax(CFG30, FRAMES, LINKS)
    nu, stars = policy(CFG30, FRAMES, LINKS)
    assert np.all(nu >= 1.0)  # every frame takes the closed form
    hits = int(np.sum(np.abs(stars - brute) <= 2e-3))
    assert hits == CLOSED_FORM_HITS


def test_closed_form_accurate_under_its_premise():
    # Crush the direct eavesdropper tap so one ratio dominates nu, and raise
    # the power so amplified noise is negligible: the regime the closed form
    # is derived for. There it should match the exact argmax almost always.
    dominated = cm.LinkSet(
        au=cm.LinkModel("au", 0.0, 1.0), ub=cm.LinkModel("ub", 0.0, 1.0),
        ue=cm.LinkModel("ue", 0.0, 1.0), ae=cm.LinkModel("ae", 0.0, 1e-6),
        be=cm.LinkModel("be", 0.0, 1.0),
    )
    frames = draw_frames(dominated, mc.block_stream(2024, 2), 100)
    cfg = pr.ProtocolConfig(total_power=1e5)
    brute = phi_grid_argmax(cfg, frames, dominated)
    nu, stars = policy(cfg, frames, dominated)
    closed_form = nu >= 1.0
    eligible = int(np.count_nonzero(closed_form))
    hits = int(np.count_nonzero(closed_form & (np.abs(stars - brute) <= 2e-3)))
    assert eligible == 53
    assert hits >= round(0.95 * eligible)


def test_phi_unimodal_on_grid():
    # min of two quasi-concave ratios: at most one sign change in the
    # discrete slopes of every frame's profile.
    values = np.stack([phi(CFG30, FRAMES, LINKS, float(g)) for g in PHI_GRID])
    for i in range(values.shape[1]):
        signs = np.sign(np.diff(values[:, i]))
        signs = signs[signs != 0]
        flips = int(np.count_nonzero(np.diff(signs) != 0))
        assert flips <= 1


# ---------------------------------------------------------------------------
# per-frame policy inside the ergodic estimator


def test_policy_estimate_frozen():
    plan = mc.SimulationPlan(frames=100_000, seed=0)
    est = opt.estimate_asr_allocation_policy(CFG20, LINKS, plan)
    assert est.mean == pytest.approx(POLICY_ASR, rel=1e-9)
    assert est.std_error == pytest.approx(POLICY_SE, rel=1e-9)
    share = opt.allocation_policy_fallback_share(CFG20, LINKS, plan)
    assert share == pytest.approx(POLICY_FALLBACK_SHARE, abs=1e-12)


def full_grid_argmax(consts):
    rates = np.stack([opt._rate_from_constants(g, consts) for g in FULL_GRID])
    return FULL_GRID[np.argmax(rates, axis=0)]


def low_nu(consts):
    keep = np.asarray(consts.nu) < 1.0
    return opt.SinrConstants(*(np.asarray(c)[keep] for c in consts))


def constants(*columns):
    return opt.SinrConstants(*(np.asarray(c, dtype=float) for c in columns))


def test_fallback_matches_full_grid_on_placement_frames():
    # every nu < 1 frame of `sweep placement` on the default config at
    # 16384 frames, seeds 0-3, read through the estimator's own gains
    cfg = cfgfile.load_config(None)
    protocol = cfg.effective_protocol()
    geometry = cfg.effective_geometry()
    parts = []
    for seed in range(4):
        plan = mc.SimulationPlan(frames=16384, seed=seed)
        for along in opt.SweepGrid().distance_grid:
            links = cm.build_links(geo.move_relay(geometry, along=along),
                                   cfg.environment)

            def grab(gains, terms, links=links):
                parts.append(low_nu(
                    opt.sinr_constants(protocol, links, terms, *gains[3:])))
                return np.zeros(gains[0].size)

            mc.estimate_functional(protocol, links, plan, grab)
    consts = opt.SinrConstants(*(np.concatenate(c) for c in zip(*parts)))
    assert consts.c1.size == 609_785
    np.testing.assert_array_equal(opt._policy_allocations(consts),
                                  full_grid_argmax(consts))


@pytest.mark.parametrize("decades", [60, 150])
def test_fallback_matches_full_grid_on_log_uniform_constants(decades):
    # an unnormalized stationary quadratic overflowed on hundreds of these
    exponents = np.random.default_rng(decades).uniform(
        -decades, decades, size=(5, 200_000))
    consts = low_nu(constants(*10.0 ** exponents))
    assert consts.c1.size > 40_000
    np.testing.assert_array_equal(opt._policy_allocations(consts),
                                  full_grid_argmax(consts))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(*[st.floats(-150.0, 150.0)] * 5),
                min_size=1, max_size=32))
def test_fallback_matches_full_grid_property(exponents):
    consts = low_nu(constants(*10.0 ** np.array(exponents).T))
    assume(consts.c1.size > 0)
    np.testing.assert_array_equal(opt._policy_allocations(consts),
                                  full_grid_argmax(consts))


@pytest.mark.parametrize("linear_branch", [0, 1])
def test_grid_argmax_with_linear_stationary_equation(linear_branch):
    # cn == cd drops the quadratic term of that branch; nu >= 1 then, so
    # the policy never sends such a frame to the fallback, but the
    # argmax itself holds for any constants
    c1 = np.logspace(-2, 4, 61)
    cn = np.full_like(c1, 2.0)
    other = (np.full_like(c1, 0.1), np.full_like(c1, 5.0))
    branches = [(cn, cn), other] if linear_branch == 0 else [other, (cn, cn)]
    consts = constants(c1, *branches[0], *branches[1])
    want = full_grid_argmax(consts)
    assert np.any((want > 0.01) & (want < 0.99))
    np.testing.assert_array_equal(opt._grid_argmax(consts), want)


def test_fallback_with_crossing_outside_unit_interval():
    c1 = np.logspace(-2, 4, 61)
    consts = constants(c1, *np.broadcast_arrays(0.5, 2.0, 0.05, 0.3, c1)[:4])
    assert np.all(consts.nu < 1.0)
    crossing = opt._critical_points(consts)[0]
    assert np.all((crossing < 0.0) | (crossing > 1.0))
    want = full_grid_argmax(consts)
    assert np.any((want > 0.01) & (want < 0.99))
    np.testing.assert_array_equal(opt._policy_allocations(consts), want)


def test_fallback_zero_rate_everywhere_picks_first_allocation():
    # the eavesdropper beats the destination at every allocation
    consts = constants([1e-3, 1e-9], [1.0, 1.0], [10.0, 10.0],
                       [1e-3, 1e-3], [10.0, 10.0])
    assert np.all(consts.nu < 1.0)
    rates = np.stack([opt._rate_from_constants(g, consts) for g in FULL_GRID])
    assert np.all(rates == 0.0)
    np.testing.assert_array_equal(opt._policy_allocations(consts), [0.01, 0.01])


def test_grid_argmax_all_clamped_picks_first_allocation():
    # every candidate rate clamps to exactly 0: all tie, the lowest wins
    consts = constants([1e-3, 1e-9, 1e-6], [1.0, 1.0, 50.0], [10.0, 10.0, 1.0],
                       [1e-3, 1e-3, 1e-3], [10.0, 10.0, 1.0])
    assert np.all(np.stack([opt._rate_from_constants(g, consts)
                            for g in FULL_GRID]) == 0.0)
    np.testing.assert_array_equal(opt._grid_argmax(consts), [0.01] * 3)


def test_grid_argmax_two_way_tie_picks_lower_allocation(monkeypatch):
    # the tie rule on its own: a rate that peaks, exactly equal, at the top
    # end 0.99 (always a candidate) and at the largest candidate below it,
    # which is evaluated after 0.99
    c1 = np.logspace(-2, 4, 61)
    consts = constants(c1, *np.broadcast_arrays(0.5, 2.0, 0.05, 0.3, c1)[:4])
    rows = []

    def recording(candidates, consts):
        rows.append(np.broadcast_to(candidates, c1.shape).copy())
        return np.zeros(c1.shape)

    monkeypatch.setattr(opt, "_rate_from_constants", recording)
    opt._grid_argmax(consts)
    rows = np.stack(rows)
    assert len(rows) == 8
    second = np.where(rows < 0.99, rows, 0.0).max(axis=0)

    def two_top(candidates, consts):
        return ((candidates == 0.99) | (candidates == second)).astype(float)

    monkeypatch.setattr(opt, "_rate_from_constants", two_top)
    got = opt._grid_argmax(consts)
    assert np.any(second > 0.01)
    np.testing.assert_array_equal(got, second)


def replayed_policy_mean(cfg, plan):
    """Replay the policy on the plan's single block, frame by frame.

    Each frame's allocation is chosen by the closed-form rule on its
    SinrConstants; its rate is then read from the protocol SINRs at that
    allocation.
    """
    assert plan.frames <= mc.BLOCK_FRAMES
    mu = np.array([cm.amplitude_params(l.k_factor)[0] for l in LINKS.ordered()])
    sigma = np.array([cm.amplitude_params(l.k_factor)[1] for l in LINKS.ordered()])
    z = mc.block_stream(plan.seed, 0).standard_normal((plan.frames, 5, 2))
    amp = mu + sigma * z[:, :, 0]
    gains = amp * amp + (sigma * z[:, :, 1]) ** 2
    frames = Frame(*[gains[:, j] for j in range(5)])
    consts = frame_constants(cfg, frames, LINKS)
    nu = np.asarray(consts.nu)
    fallback_grid = np.linspace(0.01, 0.99, 99)
    rates = np.empty(plan.frames)
    for i in range(plan.frames):
        ci = opt.SinrConstants(*(np.asarray(c)[i] for c in consts))
        if nu[i] >= 1.0:
            lam = 1.0 / (1.0 + math.sqrt(nu[i]))
        else:
            cand = [opt._rate_from_constants(g, ci) for g in fallback_grid]
            lam = float(fallback_grid[int(np.argmax(cand))])
        frame = Frame(*(float(g[i]) for g in frames))
        gm, g1, g2 = frame_sinrs(replace(cfg, allocation=lam), frame, LINKS)
        rates[i] = np.maximum(capacity(gm) - capacity(np.maximum(g1, g2)), 0.0)
    return float(rates.mean())


def test_policy_matches_manual_replay():
    # Replay the same draws outside the estimator and apply the same
    # per-frame rule; the means must agree exactly.
    plan = mc.SimulationPlan(frames=8192, seed=11)
    est = opt.estimate_asr_allocation_policy(CFG20, LINKS, plan)
    assert est.mean == pytest.approx(replayed_policy_mean(CFG20, plan), rel=1e-13)


def test_placement_sweep_makes_sinr_terms_once_per_block(monkeypatch):
    # the policy functionals read the terms the engine caches per block and
    # split, so only the first estimate at each position makes them: 19
    # positions x 2 blocks. Rebuilt by the policy, they were made 152 times.
    cfg = cfgfile.load_config(None)
    made = []
    original = pr.sinr_terms

    def counting(*args, **kwargs):
        made.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pr, "sinr_terms", counting)
    mc.clear_block_cache()
    opt.placement_sweep(cfg.effective_protocol(), cfg.effective_geometry(),
                        mc.SimulationPlan(frames=16384, seed=0), "horizontal",
                        env=cfg.environment)
    mc.clear_block_cache()
    assert len(made) == 38


def test_policy_peak_memory_stays_within_block_rows():
    # near the destination almost every frame takes the grid fallback; its
    # eight candidates as (8, n) arrays once lifted this peak to 4.8 MB
    cfg = cfgfile.load_config(None)
    protocol = cfg.effective_protocol()
    links = cm.build_links(geo.move_relay(cfg.effective_geometry(), along=0.9),
                           cfg.environment)
    plan = mc.SimulationPlan(frames=16384, seed=0)
    # also leaves the plan's blocks, gains and terms in the cache
    assert opt.allocation_policy_fallback_share(protocol, links, plan) >= 0.98
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        opt.estimate_asr_allocation_policy(protocol, links, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 2e6


def test_policy_rate_keeps_residual_term():
    # The allocation rule reads SinrConstants, which carry no residual term;
    # the reported rate must still come from the protocol SINRs with it.
    plan = mc.SimulationPlan(frames=4096, seed=11)
    cfg = replace(CFG20, include_residual_epsilon=True)
    est = opt.estimate_asr_allocation_policy(cfg, LINKS, plan)
    assert est.mean == pytest.approx(replayed_policy_mean(cfg, plan), rel=1e-13)
    assert est.mean < opt.estimate_asr_allocation_policy(CFG20, LINKS, plan).mean


# ---------------------------------------------------------------------------
# ergodic searches


def test_grid_validation():
    opt.SweepGrid()
    with pytest.raises(ValueError):
        opt.SweepGrid(allocation_grid=(0.0, 0.5))
    with pytest.raises(ValueError):
        opt.SweepGrid(split_grid=(0.5, 0.4))
    with pytest.raises(ValueError):
        opt.SweepGrid(distance_grid=(0.2, 1.0))
    with pytest.raises(ValueError):
        opt.SweepGrid(altitude_grid=(-1.0, 2.0))
    with pytest.raises(ValueError):
        opt.SweepGrid(allocation_grid=())


def test_single_cell_search_returns_that_cell():
    plan = mc.SimulationPlan(frames=4096, seed=5)
    grid = opt.SweepGrid(allocation_grid=(0.37,), split_grid=(0.6,))
    result = opt.grid_search_opsa(CFG20, LINKS, plan, grid)
    assert result.surface.shape == (1, 1)
    assert result.allocation_best == 0.37
    assert result.split_best == 0.6
    direct = mc.estimate_asr(replace(CFG20, allocation=0.37, power_split=0.6),
                             LINKS, plan)
    assert result.metric_best == direct.mean
    assert result.se_surface[0, 0] == direct.std_error


def test_search_deterministic_and_argmax_consistent():
    plan = mc.SimulationPlan(frames=4096, seed=7)
    grid = opt.SweepGrid(allocation_grid=(0.2, 0.5, 0.8),
                         split_grid=(0.3, 0.6, 0.9))
    a = opt.grid_search_opsa(CFG20, LINKS, plan, grid)
    b = opt.grid_search_opsa(CFG20, LINKS, plan, grid)
    np.testing.assert_array_equal(a.surface, b.surface)
    assert (a.allocation_best, a.split_best) == (b.allocation_best, b.split_best)
    i = list(grid.allocation_grid).index(a.allocation_best)
    j = list(grid.split_grid).index(a.split_best)
    assert a.surface[i, j] == a.surface.max() == a.metric_best


def test_search_cp_objective_bounded():
    plan = mc.SimulationPlan(frames=4096, seed=7)
    grid = opt.SweepGrid(allocation_grid=(0.2, 0.8), split_grid=(0.3, 0.9))
    result = opt.grid_search_opsa(CFG20, LINKS, plan, grid, objective="cp")
    assert np.all((result.surface >= 0.0) & (result.surface <= 1.0))
    with pytest.raises(ValueError):
        opt.grid_search_opsa(CFG20, LINKS, plan, grid, objective="sop")


def test_placement_columns_consistent():
    plan = mc.SimulationPlan(frames=4096, seed=9)
    grid = opt.SweepGrid(allocation_grid=(0.1, 0.5, 0.9),
                         distance_grid=(0.2, 0.9))
    curve = opt.placement_sweep(CFG20, GEOM, plan, "horizontal", grid)
    assert curve.axis == "horizontal"
    assert curve.positions.shape == (2,)
    # The template allocation sits on the grid, so the best column can
    # never fall below the fixed one under shared draws.
    assert np.all(curve.asr_best_allocation >= curve.asr_fixed)
    assert np.all(np.isin(curve.best_allocation, grid.allocation_grid))
    assert np.all((curve.policy_fallback_share >= 0.0)
                  & (curve.policy_fallback_share <= 1.0))
    for name in ("asr_fixed_se", "asr_best_allocation_se", "asr_policy_se",
                 "asr_no_jamming_se"):
        assert np.all(getattr(curve, name) >= 0.0)
    # Rebuild one position by hand and check every column against it.
    geom_end = geo.NetworkGeometry(
        source=GEOM.source, destination=GEOM.destination,
        eavesdropper=GEOM.eavesdropper,
        relay=geo.NodePosition(9.0, 0.0, 1.5),
    )
    links_end = cm.build_links(geom_end, ENV)
    assert curve.asr_fixed[1] == mc.estimate_asr(CFG20, links_end, plan).mean
    assert curve.asr_no_jamming[1] == mc.estimate_asr(
        replace(CFG20, allocation=1.0), links_end, plan).mean
    assert curve.asr_policy[1] == opt.estimate_asr_allocation_policy(
        CFG20, links_end, plan).mean


def test_placement_altitude_moves_only_height():
    plan = mc.SimulationPlan(frames=4096, seed=9)
    grid = opt.SweepGrid(altitude_grid=(1.5, 4.0))
    curve = opt.placement_sweep(CFG20, GEOM, plan, "altitude", grid)
    assert curve.axis == "altitude"
    # First grid point equals the template drop, so the fixed column must
    # reproduce the plain estimator there.
    assert curve.asr_fixed[0] == mc.estimate_asr(CFG20, LINKS, plan).mean
    with pytest.raises(ValueError):
        opt.placement_sweep(CFG20, GEOM, plan, "diagonal", grid)
