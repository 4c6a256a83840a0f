"""Monte Carlo engine: determinism, cross-route agreement, convergence."""

import sys
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from frame_helpers import frame_sinrs

from secrelay import _kernels
from secrelay import channel_models as cm
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
CFG = pr.ProtocolConfig(total_power=100.0)
PLAN = mc.SimulationPlan(frames=100_000, seed=20240817)

# Values measured once with the reference sampler + protocol route, then frozen.
FROZEN_CP = 0.40883
FROZEN_SOP = 0.87424
FROZEN_ASR = 0.04986225174195613
FROZEN_EVE1_MEAN = 0.05697728620822851
# 4e6-frame estimate at the same operating point, for the convergence ladder.
CP_REFERENCE = 0.409729


def reference_metrics(cfg, links, plan):
    """Recompute the engine's metrics through the protocol layer."""
    mu = np.empty(5)
    sigma = np.empty(5)
    for j, link in enumerate(links.ordered()):
        mu[j], sigma[j] = cm.amplitude_params(link.k_factor)
    parts = []
    for index, length in mc._spans(plan.frames):
        z = mc.block_stream(plan.seed, index).standard_normal((length, 5, 2))
        amp = mu + sigma * z[:, :, 0]
        gains = amp * amp + (sigma * z[:, :, 1]) ** 2
        parts.append(frame_sinrs(cfg, [gains[:, j] for j in range(5)], links))
    return tuple(np.concatenate(cols) for cols in zip(*parts))


# ---------------------------------------------------------------------------
# plan and estimate contracts


def test_plan_validation():
    with pytest.raises(ValueError):
        mc.SimulationPlan(frames=0)
    with pytest.raises(ValueError):
        mc.SimulationPlan(frames=10, seed=-1)


def test_estimate_validation():
    with pytest.raises(ValueError):
        mc.Estimate(mean=0.5, std_error=-1e-3, frames=10, seed=0)
    for mean, std_error in ((np.inf, 0.1), (np.nan, 0.1), (0.5, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            mc.Estimate(mean=mean, std_error=std_error, frames=10, seed=0)


@pytest.mark.parametrize("estimator", [mc.estimate_cp, mc.estimate_sop,
                                       mc.estimate_asr])
def test_estimators_reject_zero_noise(estimator):
    # estimate_asr once returned mean=inf, std_error=nan here
    cfg = pr.ProtocolConfig(total_power=100.0, noise_power=0.0)
    with pytest.raises(ValueError, match="noise_power"):
        estimator(cfg, LINKS, mc.SimulationPlan(frames=100, seed=0))


def constant_functional(cfg, links, plan):
    """estimate_functional of a functional that is 1 on every frame."""
    return mc.estimate_functional(cfg, links, plan,
                                  lambda gains, terms: np.ones_like(gains[0]))


@pytest.mark.parametrize("estimator,power,noise,bad", [
    # the main-link SINR overflows to inf on 191 frames
    (mc.estimate_cp, 1e300, 1e-12, 191),
    # the phase-1 eavesdropper SINR is NaN on 3 frames and inf on 28
    (mc.estimate_sop, 1e308, 1e-2, 31),
    (mc.estimate_asr, 1e308, 1e-2, 31),
    (opt.estimate_asr_allocation_policy, 1e308, 1e-2, 31),
    (opt.allocation_policy_fallback_share, 1e308, 1e-2, 31),
    # one rule for every estimator, whichever SINR its metric reads
    (mc.estimate_cp, 1e308, 1e-2, 31),
    (mc.estimate_sop, 1e300, 1e-12, 191),
    (constant_functional, 1e308, 1e-2, 31),
    (constant_functional, 1e300, 1e-12, 191),
    # the SINRs at cfg's powers are finite, but the policy's constant
    # c3 = p*w/n0 at the total power is inf on 57 frames
    (opt.estimate_asr_allocation_policy, 1e307, 1e-2, 57),
    (opt.allocation_policy_fallback_share, 1e307, 1e-2, 57),
])
def test_estimators_reject_non_finite_sinr(estimator, power, noise, bad):
    # these frames once counted as decoded or as no outage, surfaced as a
    # non-finite mean without a cause, or gave the policy a finite mean
    cfg = pr.ProtocolConfig(total_power=power, noise_power=noise)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(mc.NonFiniteSinrError,
                           match=f"{bad} of 1000 frames gave a non-finite SINR"):
            estimator(cfg, LINKS, mc.SimulationPlan(frames=1000, seed=0))


def test_refusal_counts_every_frame_whose_sinr_sum_is_not_finite():
    big = np.finfo(float).max
    # frame 0: both finite, their sum overflows; 2: inf; 4: NaN
    gamma_m = np.array([big, big, 1.0, 0.0, np.nan])
    gamma_e = np.array([big, 0.0, np.inf, 0.0, 1.0])
    # the totals overflow, but no frame's sum does
    wide = np.full(4, big / 2)
    with np.errstate(over="ignore"):
        assert mc._nonfinite_sum(gamma_m, gamma_e) == 3
        assert mc._nonfinite_sum(wide, wide * 0.5) == 0


@pytest.mark.parametrize("estimator", [opt.estimate_asr_allocation_policy,
                                       opt.allocation_policy_fallback_share])
def test_policy_refuses_overflowed_constants_without_warning(estimator):
    # the policy once picked allocations from the infinite constants, with
    # an overflow RuntimeWarning from sinr_constants and a finite mean
    cfg = pr.ProtocolConfig(total_power=1e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mc.NonFiniteSinrError, match="57 of 1000 frames"):
            estimator(cfg, LINKS, mc.SimulationPlan(frames=1000, seed=0))


def test_functional_rejects_zero_noise():
    cfg = pr.ProtocolConfig(total_power=100.0, noise_power=0.0)
    with pytest.raises(ValueError, match="noise_power"):
        mc.estimate_functional(cfg, LINKS, mc.SimulationPlan(frames=100, seed=0),
                               lambda gains, terms: np.ones_like(gains[0]))


def test_block_stream_reproducible_and_distinct():
    a = mc.block_stream(3, 0).standard_normal(4)
    b = mc.block_stream(3, 0).standard_normal(4)
    c = mc.block_stream(3, 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# frozen estimates and determinism


def test_frozen_estimates():
    cp = mc.estimate_cp(CFG, LINKS, PLAN)
    sop = mc.estimate_sop(CFG, LINKS, PLAN)
    asr = mc.estimate_asr(CFG, LINKS, PLAN)
    assert cp.mean == pytest.approx(FROZEN_CP, rel=1e-12)
    assert sop.mean == pytest.approx(FROZEN_SOP, rel=1e-12)
    assert asr.mean == pytest.approx(FROZEN_ASR, rel=1e-12)
    for est in (cp, sop, asr):
        assert est.frames == PLAN.frames and est.seed == PLAN.seed
        assert est.std_error > 0.0
    # binomial error bars at this sample size
    assert cp.std_error == pytest.approx(
        np.sqrt(FROZEN_CP * (1 - FROZEN_CP) / PLAN.frames), rel=1e-9)


def test_seed_changes_the_estimate():
    a = mc.estimate_cp(CFG, LINKS, mc.SimulationPlan(frames=20_000, seed=1))
    b = mc.estimate_cp(CFG, LINKS, mc.SimulationPlan(frames=20_000, seed=2))
    assert a.mean != b.mean


def test_engine_matches_protocol_route():
    plan = mc.SimulationPlan(frames=20_000, seed=31)
    gm, g1, g2 = reference_metrics(CFG, LINKS, plan)
    ge = np.maximum(g1, g2)
    cp_ref = np.mean(gm > CFG.delta_t)
    sop_ref = np.mean(ge > CFG.delta_e)
    rate = np.maximum(0.5 * np.log2(1 + gm) - 0.5 * np.log2(1 + ge), 0.0)
    assert mc.estimate_cp(CFG, LINKS, plan).mean == pytest.approx(cp_ref, rel=1e-12)
    assert mc.estimate_sop(CFG, LINKS, plan).mean == pytest.approx(sop_ref, rel=1e-12)
    assert mc.estimate_asr(CFG, LINKS, plan).mean == pytest.approx(
        np.mean(rate), rel=1e-12)


# ---------------------------------------------------------------------------
# limiting configurations with known answers


def test_tiny_target_rate_always_connects():
    cfg = pr.ProtocolConfig(total_power=100.0, rate_t=1e-9, rate_s=1e-10)
    est = mc.estimate_cp(cfg, LINKS, mc.SimulationPlan(frames=5_000, seed=2))
    assert est.mean == 1.0 and est.std_error == 0.0


def test_vanishing_source_power_never_connects():
    cfg = pr.ProtocolConfig(total_power=100.0, allocation=1e-300)
    est = mc.estimate_cp(cfg, LINKS, mc.SimulationPlan(frames=5_000, seed=2))
    assert est.mean == 0.0


def test_no_secrecy_margin_forces_outage():
    cfg = pr.ProtocolConfig(total_power=100.0, rate_t=0.5, rate_s=0.5 - 1e-12)
    est = mc.estimate_sop(cfg, LINKS, mc.SimulationPlan(frames=5_000, seed=2))
    assert est.mean == 1.0


def test_dominant_eavesdropper_kills_secrecy_rate():
    weak = 1e-6
    links = cm.LinkSet(
        au=cm.LinkModel(0.0, weak),
        ub=cm.LinkModel(0.0, weak),
        ue=cm.LinkModel(0.0, 1.0),
        ae=cm.LinkModel(0.0, 1.0),
        be=cm.LinkModel(0.0, 1e-9),
    )
    cfg = pr.ProtocolConfig(total_power=100.0, allocation=1.0)
    est = mc.estimate_asr(cfg, links, mc.SimulationPlan(frames=5_000, seed=2))
    assert est.mean == 0.0


def test_secrecy_rate_bounded_by_main_capacity():
    plan = mc.SimulationPlan(frames=20_000, seed=6)
    cap = mc.estimate_functional(
        CFG, LINKS, plan,
        lambda frame, terms: 0.5 * np.log2(1.0 + frame_sinrs(CFG, frame, LINKS)[0]))
    asr = mc.estimate_asr(CFG, LINKS, plan)
    assert asr.mean < cap.mean


def test_outage_factorises_over_independent_phases():
    # phase-1 and phase-2 eavesdropper SINRs use disjoint fading coordinates
    plan = mc.SimulationPlan(frames=40_000, seed=12)
    delta = CFG.delta_e
    p1 = mc.estimate_functional(
        CFG, LINKS, plan,
        lambda f, terms: (frame_sinrs(CFG, f, LINKS)[1] > delta).astype(float))
    p2 = mc.estimate_functional(
        CFG, LINKS, plan,
        lambda f, terms: (frame_sinrs(CFG, f, LINKS)[2] > delta).astype(float))
    sop = mc.estimate_sop(CFG, LINKS, plan)
    predicted = 1.0 - (1.0 - p1.mean) * (1.0 - p2.mean)
    gap_se = np.sqrt(p1.std_error**2 + p2.std_error**2 + sop.std_error**2)
    assert abs(predicted - sop.mean) < 4.0 * gap_se


# ---------------------------------------------------------------------------
# generic functionals


def test_constant_functional():
    plan = mc.SimulationPlan(frames=3_000, seed=0)
    est = mc.estimate_functional(
        CFG, LINKS, plan, lambda gains, terms: np.ones_like(gains[0]))
    assert est.mean == 1.0 and est.std_error == 0.0


def test_indicator_functional_matches_cp():
    plan = mc.SimulationPlan(frames=20_000, seed=8)
    delta = CFG.delta_t
    est = mc.estimate_functional(
        CFG, LINKS, plan,
        lambda f, terms: (frame_sinrs(CFG, f, LINKS)[0] > delta).astype(float))
    cp = mc.estimate_cp(CFG, LINKS, plan)
    assert est.mean == cp.mean
    # sample-variance versus binomial error bar differ only by n/(n-1)
    assert est.std_error == pytest.approx(
        cp.std_error * np.sqrt(plan.frames / (plan.frames - 1)), rel=1e-9)


def test_frozen_eavesdropper_mean():
    plan = mc.SimulationPlan(frames=50_000, seed=5)
    est = mc.estimate_functional(
        CFG, LINKS, plan, lambda f, terms: frame_sinrs(CFG, f, LINKS)[1])
    assert est.mean == pytest.approx(FROZEN_EVE1_MEAN, rel=1e-12)


def test_functional_shape_mismatch_rejected():
    plan = mc.SimulationPlan(frames=1_000, seed=0)
    with pytest.raises(ValueError):
        mc.estimate_functional(CFG, LINKS, plan, lambda frame, terms: 1.0)


def test_functional_shape_error_names_the_block_length():
    # two blocks of 8192 and 1808 frames; the first block raises at once
    plan = mc.SimulationPlan(frames=10_000, seed=0)
    with pytest.raises(ValueError,
                       match=r"functional returned shape \(8191,\), expected \(8192,\)"):
        mc.estimate_functional(CFG, LINKS, plan, lambda gains, terms: gains[0][:-1])


def test_functional_non_finite_count_spans_the_plan():
    # ln(1 - s_au) is NaN or -inf wherever s_au >= 1, in both blocks
    plan = mc.SimulationPlan(frames=10_000, seed=0)

    def bad(gains, terms):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log(1.0 - gains[0])

    with pytest.raises(ValueError,
                       match="functional produced 4463 non-finite values over 10000 frames"):
        mc.estimate_functional(CFG, LINKS, plan, bad)


def test_functional_must_stay_finite():
    plan = mc.SimulationPlan(frames=1_000, seed=0)

    def bad(gains, terms):
        with np.errstate(invalid="ignore"):
            return np.log(1.0 - gains[0])

    with pytest.raises(ValueError, match="non-finite"):
        mc.estimate_functional(CFG, LINKS, plan, bad)


# ---------------------------------------------------------------------------
# block gains


def block_gains(seed, length):
    """The per-link gains of block 0 of seed, as the engine computes them."""
    mu, sigma = mc._link_arrays(LINKS)
    z = mc.block_stream(seed, 0).standard_normal((length, 5, 2))
    return _kernels.power_gains(z, mu, sigma)


def test_block_gains_k0_marginal_is_exponential():
    draws = np.sort(block_gains(17, 100_000)[3])  # zero Rice factor on ae
    grid = (np.arange(draws.size) + 0.5) / draws.size
    ks = np.max(np.abs(grid - (1.0 - np.exp(-draws))))
    assert ks < 1.628 / np.sqrt(draws.size)


def test_block_gains_links_uncorrelated():
    s_au, s_ub, s_ue, _, _ = block_gains(23, 20_000)
    corr = np.corrcoef(np.vstack([s_au, s_ub, s_ue]))
    off_diag = corr[np.triu_indices(3, k=1)]
    assert np.max(np.abs(off_diag)) < 0.02


# ---------------------------------------------------------------------------
# convergence


def test_rmse_shrinks_with_sample_size():
    sizes = (2_000, 16_000, 128_000)
    rmse = []
    for frames in sizes:
        errs = [mc.estimate_cp(CFG, LINKS, mc.SimulationPlan(frames=frames,
                                                             seed=s)).mean
                - CP_REFERENCE for s in range(6)]
        rmse.append(float(np.sqrt(np.mean(np.square(errs)))))
    assert rmse[0] > rmse[1] > rmse[2]
    assert rmse[0] / rmse[2] > 3.0


# ---------------------------------------------------------------------------
# block cache: each (seed, block) is drawn once per process


@pytest.fixture
def draws(monkeypatch):
    """Count block_stream calls per (seed, index), starting from no cache."""
    mc.clear_block_cache()
    counts = Counter()
    original = mc.block_stream

    def counting(seed, index):
        counts[(seed, index)] += 1
        return original(seed, index)

    monkeypatch.setattr(mc, "block_stream", counting)
    yield counts
    mc.clear_block_cache()


def test_grid_search_draws_each_block_once(draws):
    plan = mc.SimulationPlan(frames=2 * mc.BLOCK_FRAMES + 100, seed=41)
    axis = tuple(np.linspace(0.1, 0.9, 5))
    opt.grid_search_opsa(CFG, LINKS, plan,
                         opt.SweepGrid(allocation_grid=axis, split_grid=axis))
    assert draws == {(41, i): 1 for i in range(3)}


def test_placement_sweep_draws_each_block_once(draws):
    plan = mc.SimulationPlan(frames=mc.BLOCK_FRAMES + 100, seed=42)
    grid = opt.SweepGrid(allocation_grid=(0.3, 0.6, 0.9),
                         distance_grid=(0.2, 0.5, 0.8))
    opt.placement_sweep(CFG, GEOM, plan, grid)
    assert draws == {(42, 0): 1, (42, 1): 1}


def test_plan_longer_than_cache_draws_each_block_once_per_call(draws):
    blocks = mc.CACHE_BLOCKS + 1
    plan = mc.SimulationPlan(frames=blocks * mc.BLOCK_FRAMES, seed=43)
    first = mc.estimate_asr(CFG, LINKS, plan)
    assert draws == {(43, i): 1 for i in range(blocks)}
    assert len(mc._cache) <= mc.CACHE_BLOCKS
    draws.clear()
    again = mc.estimate_asr(CFG, LINKS, plan)
    assert set(draws.values()) <= {1}
    mc.clear_block_cache()
    fresh = mc.estimate_asr(CFG, LINKS, plan)
    assert first == again == fresh


def test_cache_stays_bounded_during_a_long_call(draws, monkeypatch):
    plan_blocks = mc.CACHE_BLOCKS + 2
    plan = mc.SimulationPlan(frames=plan_blocks * mc.BLOCK_FRAMES, seed=64)
    held = []
    counting = mc.block_stream

    def recording(seed, index):
        held.append(len(mc._cache))
        return counting(seed, index)

    monkeypatch.setattr(mc, "block_stream", recording)
    mc.estimate_asr(CFG, LINKS, plan)
    assert draws == {(64, i): 1 for i in range(plan_blocks)}
    # the block being drawn joins the ones held
    assert len(held) == plan_blocks
    assert max(held) + 1 <= mc.CACHE_BLOCKS


def test_each_block_is_drawn_and_made_just_before_the_next(monkeypatch):
    # blocks of 8192 and 100 frames, told apart by their lengths
    plan = mc.SimulationPlan(frames=mc.BLOCK_FRAMES + 100, seed=65)
    index_of = {mc.BLOCK_FRAMES: 0, 100: 1}
    events = []
    draw, gains_of, terms_of = (mc.block_stream, _kernels.power_gains,
                                _kernels.sinr_terms)

    def drawing(seed, index):
        events.append(("draw", index))
        return draw(seed, index)

    def transforming(z, mu, sigma):
        events.append(("gains", index_of[len(z)]))
        return gains_of(z, mu, sigma)

    def making(gains, cfg, links):
        events.append(("terms", index_of[len(gains[0])]))
        return terms_of(gains, cfg, links)

    monkeypatch.setattr(mc, "block_stream", drawing)
    monkeypatch.setattr(_kernels, "power_gains", transforming)
    monkeypatch.setattr(_kernels, "sinr_terms", making)
    mc.clear_block_cache()
    try:
        mc.estimate_asr(CFG, LINKS, plan)
    finally:
        mc.clear_block_cache()
    assert events == [(step, i) for i in (0, 1)
                      for step in ("draw", "gains", "terms")]


def test_cached_blocks_are_read_only(draws):
    mc.estimate_cp(CFG, LINKS, mc.SimulationPlan(frames=3_000, seed=44))
    (block,) = mc._cache.values()
    with pytest.raises(ValueError):
        block.z[0, 0, 0] = 0.0
    assert len(block.gains) == 5
    for gains in block.gains:
        with pytest.raises(ValueError):
            gains[0] = 0.0
    terms = [term for term in block.terms if term is not None]
    assert len(terms) == 4
    for term in terms:
        with pytest.raises(ValueError):
            term[0] = 0.0


@pytest.fixture
def gain_calls(monkeypatch):
    """Count _kernels.power_gains calls, starting from no cache."""
    mc.clear_block_cache()
    calls = Counter()
    original = _kernels.power_gains

    def counting(z, mu, sigma):
        calls[(len(z), mu.tobytes())] += 1
        return original(z, mu, sigma)

    monkeypatch.setattr(_kernels, "power_gains", counting)
    yield calls
    mc.clear_block_cache()


def test_grid_search_computes_gains_once_per_block(gain_calls):
    # blocks of 8192, 8192 and 100 frames on one link set
    plan = mc.SimulationPlan(frames=2 * mc.BLOCK_FRAMES + 100, seed=46)
    axis = tuple(np.linspace(0.1, 0.9, 5))
    opt.grid_search_opsa(CFG, LINKS, plan,
                         opt.SweepGrid(allocation_grid=axis, split_grid=axis))
    mu, _ = mc._link_arrays(LINKS)
    assert gain_calls == {(mc.BLOCK_FRAMES, mu.tobytes()): 2,
                          (100, mu.tobytes()): 1}


def test_placement_sweep_computes_gains_once_per_block_and_position(gain_calls):
    plan = mc.SimulationPlan(frames=mc.BLOCK_FRAMES + 100, seed=47)
    grid = opt.SweepGrid(allocation_grid=(0.3, 0.6, 0.9),
                         distance_grid=(0.2, 0.5, 0.8))
    opt.placement_sweep(CFG, GEOM, plan, grid)
    # each position moves the relay and with it the Rice factors
    assert len(gain_calls) == 6
    assert set(gain_calls.values()) == {1}


def test_switching_link_sets_recomputes_the_gains(gain_calls):
    plan = mc.SimulationPlan(frames=3_000, seed=48)
    other = cm.build_links(geo.move_relay(GEOM, along=0.7), ENV)
    first = mc.estimate_asr(CFG, LINKS, plan)
    moved = mc.estimate_asr(CFG, other, plan)
    assert mc.estimate_asr(CFG, LINKS, plan) == first
    assert sum(gain_calls.values()) == 3
    mc.clear_block_cache()
    assert mc.estimate_asr(CFG, other, plan) == moved


def test_clear_block_cache_drops_the_gains(gain_calls):
    plan = mc.SimulationPlan(frames=3_000, seed=49)
    mc.estimate_cp(CFG, LINKS, plan)
    mc.estimate_sop(CFG, LINKS, plan)
    assert sum(gain_calls.values()) == 1
    mc.clear_block_cache()
    assert not mc._cache
    mc.estimate_cp(CFG, LINKS, plan)
    assert sum(gain_calls.values()) == 2


@pytest.fixture
def terms_calls(monkeypatch):
    """Count _kernels.sinr_terms calls per (block length, split), starting
    from no cache."""
    mc.clear_block_cache()
    calls = Counter()
    original = _kernels.sinr_terms

    def counting(gains, cfg, links):
        calls[(len(gains[0]), cfg.power_split)] += 1
        return original(gains, cfg, links)

    monkeypatch.setattr(_kernels, "sinr_terms", counting)
    yield calls
    mc.clear_block_cache()


def test_grid_search_computes_terms_once_per_block_and_split(terms_calls):
    # blocks of 8192, 8192 and 100 frames, 5 splits x 5 allocations: the
    # power-free SINR terms are made 15 times, not once per cell and block
    plan = mc.SimulationPlan(frames=2 * mc.BLOCK_FRAMES + 100, seed=57)
    axis = tuple(np.linspace(0.1, 0.9, 5))
    opt.grid_search_opsa(CFG, LINKS, plan,
                         opt.SweepGrid(allocation_grid=axis, split_grid=axis))
    assert sum(terms_calls.values()) == 15
    assert terms_calls == {key: count for split in axis for key, count in
                           (((mc.BLOCK_FRAMES, split), 2), ((100, split), 1))}


def test_placement_sweep_computes_terms_once_per_block_and_position(terms_calls):
    # every estimator of a position runs at cfg's split on that position's
    # links, the allocation policy's SINR check included
    plan = mc.SimulationPlan(frames=mc.BLOCK_FRAMES + 100, seed=58)
    grid = opt.SweepGrid(allocation_grid=(0.3, 0.6, 0.9),
                         distance_grid=(0.2, 0.5, 0.8))
    opt.placement_sweep(CFG, GEOM, plan, grid)
    assert terms_calls == {(mc.BLOCK_FRAMES, 0.5): 3, (100, 0.5): 3}


def scaled_link(name, k_factor=1.0, loss=1.0):
    """LINKS with one link's K factor and large-scale gain scaled."""
    link = getattr(LINKS, name)
    return cm.LinkSet(**{
        n: getattr(LINKS, n) for n in ("au", "ub", "ue", "ae", "be") if n != name
    }, **{name: cm.LinkModel(k_factor * link.k_factor,
                             loss * link.large_scale_gain)})


# each changes one input of the cached SINR terms: a key field or the gains
TERMS_KEY_VARIANTS = {
    "split": (pr.ProtocolConfig(total_power=100.0, power_split=0.6), LINKS),
    "efficiency": (pr.ProtocolConfig(total_power=100.0,
                                     harvester_efficiency=0.5), LINKS),
    "processing_noise": (pr.ProtocolConfig(total_power=100.0,
                                           processing_noise_ratio=1.0), LINKS),
    "noise": (pr.ProtocolConfig(total_power=100.0, noise_power=2e-2), LINKS),
    "residual": (pr.ProtocolConfig(total_power=100.0,
                                   include_residual_epsilon=True), LINKS),
    "au_loss": (CFG, scaled_link("au", loss=2.0)),
    "ub_loss": (CFG, scaled_link("ub", loss=2.0)),
    "ue_loss": (CFG, scaled_link("ue", loss=2.0)),
    # new gains under the same large-scale gains and configuration
    "au_rice_factor": (CFG, scaled_link("au", k_factor=2.0)),
}


@pytest.mark.parametrize("variant", sorted(TERMS_KEY_VARIANTS))
def test_cached_terms_follow_every_input_they_read(variant):
    cfg, links = TERMS_KEY_VARIANTS[variant]
    plan = mc.SimulationPlan(frames=mc.BLOCK_FRAMES + 100, seed=59)
    mc.clear_block_cache()
    base = mc.estimate_asr(CFG, LINKS, plan)
    warm = mc.estimate_asr(cfg, links, plan)
    mc.clear_block_cache()
    cold = mc.estimate_asr(cfg, links, plan)
    mc.clear_block_cache()
    assert warm == cold
    assert cold.mean != base.mean


def test_terms_of_replaced_gains_never_pass_for_the_new_gains():
    # a block fetched for one link set, then moved to a link set with the
    # same large-scale gains and other K factors: each fetch must hand back
    # the terms of the gains it hands back
    plan = mc.SimulationPlan(frames=1000, seed=63)
    [(index, length)] = mc._spans(plan.frames)
    moved = scaled_link("au", k_factor=2.0)
    mc.clear_block_cache()
    fetched = []
    for links in (LINKS, moved):
        mu, sigma = mc._link_arrays(links)
        terms_key = mc._terms_key(mu.tobytes() + sigma.tobytes(), CFG, links)
        gains, terms = mc._block((plan.seed, index, length), mu, sigma, CFG,
                                 links, terms_key)
        fetched.append(gains[0])
        for got, want in zip(terms, _kernels.sinr_terms(gains, CFG, links)):
            np.testing.assert_array_equal(got, want)
    assert not np.array_equal(*fetched)
    warm = mc.estimate_asr(CFG, moved, plan)
    mc.clear_block_cache()
    assert warm == mc.estimate_asr(CFG, moved, plan)
    mc.clear_block_cache()


def test_threads_alternating_splits_keep_their_own_terms():
    # two callers on the same blocks replace each other's cached terms
    # between lookups; each must still reduce the terms it was handed
    plan = mc.SimulationPlan(frames=mc.BLOCK_FRAMES + 100, seed=62)
    cfgs = [pr.ProtocolConfig(total_power=100.0, power_split=split)
            for split in (0.3, 0.7)]
    mc.clear_block_cache()
    want = [mc.estimate_asr(cfg, LINKS, plan) for cfg in cfgs]
    got = [[], []]

    def run(k):
        for i in range(12):
            which = (k + i) % 2
            got[k].append((which, mc.estimate_asr(cfgs[which], LINKS, plan)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    mc.clear_block_cache()
    assert not any(t.is_alive() for t in threads)
    assert [len(results) for results in got] == [12, 12]
    for results in got:
        for which, estimate in results:
            assert estimate == want[which]


def test_functional_gets_read_only_gains():
    plan = mc.SimulationPlan(frames=1_000, seed=0)

    def writes(gains, terms):
        gains[0][0] = 1.0
        return np.ones_like(gains[0])

    with pytest.raises(ValueError, match="read-only"):
        mc.estimate_functional(CFG, LINKS, plan, writes)


def test_block_missed_by_two_callers_is_drawn_once(draws, monkeypatch):
    # a slow draw widens the window between a caller's lookup and insert
    plan = mc.SimulationPlan(frames=1000, seed=45)
    counting = mc.block_stream

    def slow(seed, index):
        time.sleep(0.05)
        return counting(seed, index)

    monkeypatch.setattr(mc, "block_stream", slow)
    got = [None, None]

    def run(k):
        got[k] = mc.estimate_asr(CFG, LINKS, plan)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert got[0] == got[1]
    assert draws == {(45, 0): 1}


def test_concurrent_callers_share_the_cache():
    # more callers than cores and more blocks than the cache holds, with
    # frequent thread switches, so lookups, inserts and evictions interleave
    plans = [mc.SimulationPlan(frames=2 * mc.BLOCK_FRAMES + 1, seed=s)
             for s in range(50, 56)]
    mc.clear_block_cache()
    want = [mc.estimate_asr(CFG, LINKS, p) for p in plans]
    got = [None] * len(plans)

    def run(k):
        for _ in range(3):
            got[k] = mc.estimate_asr(CFG, LINKS, plans[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    assert len(mc._cache) <= mc.CACHE_BLOCKS
    mc.clear_block_cache()
