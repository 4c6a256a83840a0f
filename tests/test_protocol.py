"""Two-phase protocol physics: power budget, SINRs, secrecy.

protocol.sinrs is the only SINR route, and it writes the SINRs with the relay
gain already substituted. This file keeps an independent, unsubstituted
reference: harvested_power and relay_gain below build the relay gain from the
received-signal model, and composition_route applies it. The substituted
closed forms must equal that composition when the processing-noise ratio is
zero.
"""

import itertools

import numpy as np
import pytest
from frame_helpers import Frame, capacity, draw_frames, frame_sinrs

from secrelay import channel_models as cm
from secrelay import geometry as geo
from secrelay import protocol as pr

ENV = geo.Environment()
GEOM = geo.NetworkGeometry(
    source=geo.NodePosition(0.0, 0.0, 0.0),
    destination=geo.NodePosition(10.0, 0.0, 0.0),
    eavesdropper=geo.NodePosition(8.0, 1.0, 0.0),
    relay=geo.NodePosition(2.0, 0.0, 1.5),
)
LINKS = cm.build_links(GEOM, ENV)

UNIT_LINKS = cm.LinkSet(*[cm.LinkModel(i, 0.0, 1.0) for i in cm.LINK_IDS])
ONES = Frame(1.0, 1.0, 1.0, 1.0, 1.0)


def random_frames(n, seed):
    return draw_frames(LINKS, np.random.default_rng(seed), n)


def arrival_powers(cfg, frame, links):
    """Received powers of the source and jamming streams at the relay."""
    x_a = cfg.source_power * frame.s_au * links.au.large_scale_gain
    x_b = cfg.jamming_power * frame.s_ub * links.ub.large_scale_gain
    return x_a, x_b


def harvested_power(cfg, frame, links):
    """Power banked by the relay in phase 1; the noise floor is harvested too."""
    x_a, x_b = arrival_powers(cfg, frame, links)
    return cfg.harvester_efficiency * cfg.power_split * (x_a + x_b + cfg.noise_power)


def relay_gain(cfg, frame, links):
    """Amplification G satisfying G^2 * (processed power + N_p) = harvested power."""
    beta = cfg.power_split
    if beta == 1.0 and cfg.processing_noise == 0.0:
        raise ValueError("relay gain undefined: nothing reaches the processing chain")
    x_a, x_b = arrival_powers(cfg, frame, links)
    total = x_a + x_b + cfg.noise_power
    return np.sqrt(
        cfg.harvester_efficiency * beta * total
        / ((1.0 - beta) * total + cfg.processing_noise)
    )


def composition_route(cfg, frame, links):
    """gamma_main and gamma_eve2 rebuilt from the relay gain, exact at zeta=0."""
    beta = cfg.power_split
    n0 = cfg.noise_power
    g2 = relay_gain(cfg, frame, links) ** 2
    x_a, x_b = arrival_powers(cfg, frame, links)
    fwd_b = frame.s_ub * links.ub.large_scale_gain * g2
    fwd_e = frame.s_ue * links.ue.large_scale_gain * g2
    gamma_b = (1.0 - beta) * x_a * fwd_b / (
        fwd_b * ((1.0 - beta) * n0 + cfg.processing_noise) + n0
    )
    gamma_e = (1.0 - beta) * x_a * fwd_e / (
        (1.0 - beta) * x_b * fwd_e
        + fwd_e * ((1.0 - beta) * n0 + cfg.processing_noise)
        + n0
    )
    return gamma_b, gamma_e


# ---------------------------------------------------------------------------
# configuration


def test_config_power_budget():
    cfg = pr.ProtocolConfig(total_power=100.0, allocation=0.7)
    assert cfg.source_power == pytest.approx(70.0)
    assert cfg.jamming_power == pytest.approx(30.0)
    assert cfg.source_power + cfg.jamming_power == pytest.approx(cfg.total_power)


def test_config_thresholds_frozen():
    cfg = pr.ProtocolConfig(total_power=1.0)  # rate_t=0.5, rate_s=0.2
    assert cfg.delta_t == pytest.approx(1.0, rel=1e-15)
    assert cfg.delta_e == pytest.approx(0.5157165665103982, rel=1e-14)


def test_config_full_allocation_disables_jamming():
    cfg = pr.ProtocolConfig(total_power=10.0, allocation=1.0)
    assert cfg.jamming_power == 0.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(total_power=0.0),
        dict(total_power=1.0, allocation=0.0),
        dict(total_power=1.0, allocation=1.5),
        dict(total_power=1.0, power_split=-0.1),
        dict(total_power=1.0, power_split=1.1),
        dict(total_power=1.0, harvester_efficiency=0.0),
        dict(total_power=1.0, processing_noise_ratio=-1.0),
        dict(total_power=1.0, rate_t=0.2, rate_s=0.2),
        dict(total_power=1.0, rate_t=0.1, rate_s=0.2),
        # NaN fails every comparison, so each check is written to be True
        # only for a number at or above its bound
        dict(total_power=1.0, noise_power=np.nan),
        dict(total_power=1.0, processing_noise_ratio=np.nan),
    ],
)
def test_config_validation(bad):
    with pytest.raises(ValueError):
        pr.ProtocolConfig(**bad)


# ---------------------------------------------------------------------------
# harvesting and relay gain


def test_harvested_power_zero_split():
    cfg = pr.ProtocolConfig(total_power=100.0, power_split=0.0)
    assert harvested_power(cfg, ONES, LINKS) == 0.0


def test_harvested_power_full_harvest_toy():
    cfg = pr.ProtocolConfig(
        total_power=2.0, power_split=1.0, harvester_efficiency=1.0, noise_power=0.0
    )
    assert harvested_power(cfg, ONES, UNIT_LINKS) == pytest.approx(2.0, rel=1e-15)


def test_harvested_power_default_layout_frozen():
    cfg = pr.ProtocolConfig(total_power=100.0)
    assert harvested_power(cfg, ONES, LINKS) == pytest.approx(
        2.8439214850197887, rel=1e-14
    )


def test_relay_gain_zero_split():
    cfg = pr.ProtocolConfig(total_power=100.0, power_split=0.0)
    assert relay_gain(cfg, ONES, LINKS) == 0.0


def test_relay_gain_balanced_toy_is_unity():
    cfg = pr.ProtocolConfig(
        total_power=2.0, harvester_efficiency=1.0, noise_power=0.0,
        processing_noise_ratio=0.0,
    )
    assert relay_gain(cfg, ONES, UNIT_LINKS) == pytest.approx(1.0, rel=1e-15)


def test_relay_gain_identity_on_random_frames():
    cfg = pr.ProtocolConfig(total_power=100.0)
    frames = random_frames(20_000, 3)
    g = relay_gain(cfg, frames, LINKS)
    x_a = cfg.source_power * frames.s_au * LINKS.au.large_scale_gain
    x_b = cfg.jamming_power * frames.s_ub * LINKS.ub.large_scale_gain
    den = 0.5 * (x_a + x_b + cfg.noise_power) + cfg.processing_noise
    np.testing.assert_allclose(g * g * den, harvested_power(cfg, frames, LINKS), rtol=1e-12)


def test_relay_gain_rejects_empty_processing_chain():
    cfg = pr.ProtocolConfig(total_power=1.0, power_split=1.0, processing_noise_ratio=0.0)
    with pytest.raises(ValueError):
        relay_gain(cfg, ONES, LINKS)
    # with processing noise present the beta = 1 gain is still defined
    ok = pr.ProtocolConfig(total_power=1.0, power_split=1.0, processing_noise_ratio=2.0)
    assert np.isfinite(relay_gain(ok, ONES, LINKS))


# ---------------------------------------------------------------------------
# main-link SINR


def test_sinr_main_vanishes_at_split_endpoints():
    for beta in (0.0, 1.0):
        cfg = pr.ProtocolConfig(total_power=100.0, power_split=beta)
        assert frame_sinrs(cfg, ONES, LINKS)[0] == 0.0
    cfg = pr.ProtocolConfig(total_power=100.0, power_split=0.0)
    out = frame_sinrs(cfg, random_frames(8, 0), LINKS)[0]
    assert out.shape == (8,) and np.all(out == 0.0)


def test_sinr_main_toy_hand_value():
    # eta=1, beta=1/2, P_a=2, S=L=1, zeta=0, N0=1:
    # 0.25*2 / (0.25*1 + 0.5*1) = 2/3 by direct substitution
    cfg = pr.ProtocolConfig(
        total_power=4.0, harvester_efficiency=1.0, noise_power=1.0,
        processing_noise_ratio=0.0,
    )
    assert frame_sinrs(cfg, ONES, UNIT_LINKS)[0] == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_sinr_main_matches_composition_at_zero_zeta():
    cfg = pr.ProtocolConfig(total_power=100.0, processing_noise_ratio=0.0)
    frames = random_frames(20_000, 11)
    gamma_b, gamma_e = composition_route(cfg, frames, LINKS)
    gamma_m, _, gamma_2 = frame_sinrs(cfg, frames, LINKS)
    np.testing.assert_allclose(gamma_m, gamma_b, rtol=1e-12)
    np.testing.assert_allclose(gamma_2, gamma_e, rtol=1e-12)


def test_sinr_main_monotone_in_source_gain_and_power():
    cfg = pr.ProtocolConfig(total_power=100.0, include_residual_epsilon=True)
    frames = random_frames(500, 7)
    bumped = Frame(
        s_au=frames.s_au * 1.3, s_ub=frames.s_ub, s_ue=frames.s_ue,
        s_ae=frames.s_ae, s_be=frames.s_be,
    )
    base = frame_sinrs(cfg, frames, LINKS)[0]
    assert np.all(frame_sinrs(cfg, bumped, LINKS)[0] > base)
    richer = pr.ProtocolConfig(total_power=130.0, include_residual_epsilon=True)
    assert np.all(frame_sinrs(richer, frames, LINKS)[0] > base)


def test_sinr_main_unimodal_in_beta():
    betas = np.linspace(0.01, 0.99, 99)
    frames = random_frames(16, 5)
    for i in range(16):
        one = Frame(
            *[float(np.asarray(getattr(frames, f"s_{n}"))[i]) for n in cm.LINK_IDS]
        )
        vals = np.array([
            frame_sinrs(
                pr.ProtocolConfig(total_power=100.0, power_split=float(b)), one, LINKS
            )[0]
            for b in betas
        ])
        rises = np.sign(np.diff(vals))
        assert np.count_nonzero(np.diff(rises) != 0) <= 1  # single interior peak


def test_residual_epsilon_lowers_sinr_but_stays_small_in_mean():
    frames = random_frames(20_000, 13)
    for p_dbw in (20.0, 25.0, 30.0):
        p = 10.0 ** (p_dbw / 10.0)
        off = frame_sinrs(pr.ProtocolConfig(total_power=p), frames, LINKS)[0]
        on = frame_sinrs(
            pr.ProtocolConfig(total_power=p, include_residual_epsilon=True), frames, LINKS
        )[0]
        assert np.all(on < off)  # extra noise can only hurt
        assert abs(on.mean() - off.mean()) / off.mean() < 0.01


# ---------------------------------------------------------------------------
# eavesdropper SINRs


def test_sinr_eve_phase1_no_jamming_toy():
    cfg = pr.ProtocolConfig(total_power=2.0, allocation=1.0, noise_power=1.0)
    assert frame_sinrs(cfg, ONES, UNIT_LINKS)[1] == pytest.approx(2.0, rel=1e-15)


def test_sinr_eve_phase1_jamming_dominance():
    # jamming power grows with fixed source power: the leak must vanish
    p_a = 10.0
    values = [
        frame_sinrs(
            pr.ProtocolConfig(total_power=p_a / lam, allocation=lam), ONES, LINKS
        )[1]
        for lam in (0.9, 0.5, 0.1, 0.01, 1e-6)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-4 * values[0]


def test_sinr_eve_phase2_vanishes_at_split_endpoints():
    for beta in (0.0, 1.0):
        cfg = pr.ProtocolConfig(total_power=100.0, power_split=beta)
        assert frame_sinrs(cfg, ONES, LINKS)[2] == 0.0


def test_sinr_eve_phase2_no_jamming_toy():
    # same structure as the main-link toy: 0.25*2 / (0 + 0.5 + 0.25) = 2/3
    cfg = pr.ProtocolConfig(
        total_power=2.0, allocation=1.0, harvester_efficiency=1.0,
        noise_power=1.0, processing_noise_ratio=0.0,
    )
    assert frame_sinrs(cfg, ONES, UNIT_LINKS)[2] == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_sinr_eve_is_the_phase_maximum():
    # the eavesdropper keeps the better of its two chances, and on these
    # frames each phase is the better one somewhere
    cfg = pr.ProtocolConfig(total_power=100.0)
    _, g1, g2 = frame_sinrs(cfg, random_frames(5_000, 17), LINKS)
    assert np.any(g1 > g2) and np.any(g2 > g1)


def test_sinr_eve_non_increasing_in_jamming_power():
    frames = random_frames(1_000, 19)
    p_a = 10.0
    prev = None
    for lam in (0.9, 0.5, 0.2, 0.05, 0.01):
        cfg = pr.ProtocolConfig(total_power=p_a / lam, allocation=lam)
        _, g1, g2 = frame_sinrs(cfg, frames, LINKS)
        cur = np.maximum(g1, g2)
        if prev is not None:
            assert np.all(cur <= prev * (1.0 + 1e-12))
        prev = cur


def test_phase_sinrs_use_disjoint_gain_coordinates():
    cfg = pr.ProtocolConfig(total_power=100.0)
    frames = random_frames(100, 23)
    gm, g1, g2 = frame_sinrs(cfg, frames, LINKS)
    relay_bumped = Frame(
        s_au=frames.s_au * 2.0, s_ub=frames.s_ub * 3.0, s_ue=frames.s_ue * 1.7,
        s_ae=frames.s_ae, s_be=frames.s_be,
    )
    np.testing.assert_array_equal(g1, frame_sinrs(cfg, relay_bumped, LINKS)[1])
    direct_bumped = Frame(
        s_au=frames.s_au, s_ub=frames.s_ub, s_ue=frames.s_ue,
        s_ae=frames.s_ae * 2.0, s_be=frames.s_be * 3.0,
    )
    gm_direct, _, g2_direct = frame_sinrs(cfg, direct_bumped, LINKS)
    np.testing.assert_array_equal(g2, g2_direct)
    np.testing.assert_array_equal(gm, gm_direct)


# ---------------------------------------------------------------------------
# secrecy quantities


def assert_rate_matches_capacity_gap(gm, ge):
    """secrecy_rate against max(C(gm) - C(ge), 0) from the test capacity.

    The reference subtracts two rounded capacities, so near a tie it can be
    off by a few ulps of C(gm) relative to the gap; the bound is 1e-15 of
    C(gm), plus one subnormal step where 0.5 * gamma underflows.
    """
    rate = pr.secrecy_rate(gm, ge)
    want = np.maximum(capacity(gm) - capacity(ge), 0.0)
    assert np.all(np.abs(rate - want) <= 1e-15 * capacity(gm) + 5e-324)
    # exactly 0, not a rounding residue, wherever the eavesdropper wins
    assert np.all(rate[gm <= ge] == 0.0)
    assert np.all(rate[gm > ge] > 0.0)
    return rate


def test_secrecy_quantities_identities():
    cfg = pr.ProtocolConfig(total_power=100.0)
    gm, g1, g2 = frame_sinrs(cfg, random_frames(5_000, 29), LINKS)
    ge = np.maximum(g1, g2)
    assert 0 < np.count_nonzero(gm > ge) < gm.size
    rate = assert_rate_matches_capacity_gap(gm, ge)
    assert np.all(rate <= 0.5 * np.log2(1.0 + gm))
    assert_rate_matches_capacity_gap(gm, gm)


def test_secrecy_rate_clamps_when_eavesdropper_wins():
    strong_eve = cm.LinkSet(
        au=cm.LinkModel("au", 0.0, 1e-6),
        ub=cm.LinkModel("ub", 0.0, 1e-6),
        ue=cm.LinkModel("ue", 0.0, 1.0),
        ae=cm.LinkModel("ae", 0.0, 1.0),
        be=cm.LinkModel("be", 0.0, 1e-9),
    )
    cfg = pr.ProtocolConfig(total_power=100.0)
    gm, g1, g2 = frame_sinrs(cfg, ONES, strong_eve)
    # the wiretap capacity wins, so the clamped rate of estimate_asr is 0
    assert capacity(max(g1, g2)) > capacity(gm)
    assert pr.secrecy_rate(gm, max(g1, g2)) == 0.0


def test_secrecy_rate_approaches_main_capacity_without_leaks():
    deaf_eve = cm.LinkSet(
        au=LINKS.au, ub=LINKS.ub,
        ue=cm.LinkModel("ue", 0.0, 1e-30),
        ae=cm.LinkModel("ae", 0.0, 1e-30),
        be=LINKS.be,
    )
    cfg = pr.ProtocolConfig(total_power=100.0)
    gm, g1, g2 = frame_sinrs(cfg, ONES, deaf_eve)
    c_main = capacity(gm)
    assert pr.secrecy_rate(gm, max(g1, g2)) == pytest.approx(c_main, rel=1e-12)


def test_secrecy_rate_is_finite_across_double_range():
    values = (0.0, 5e-324, 1e-300, 1e300, 1.7e308)
    gm, ge = (np.array(v) for v in zip(*itertools.product(values, repeat=2)))
    assert np.all(np.isfinite(assert_rate_matches_capacity_gap(gm, ge)))


@pytest.mark.parametrize("gm, ge", [
    (np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, np.inf),
])
def test_secrecy_rate_keeps_non_finite_sinrs_visible(gm, ge):
    # the estimators count such frames as non-finite; a finite rate here
    # would hide them from estimate_functional; inf - inf warns, as the
    # estimators' callers see at overflowing powers
    with np.errstate(invalid="ignore"):
        rate = pr.secrecy_rate(np.array([gm, 1.0]), np.array([ge, 0.5]))
    assert not np.isfinite(rate[0])
    assert np.isfinite(rate[1])


def test_secrecy_rate_clamps_an_infinite_eavesdropper_sinr():
    # the one non-finite input that gives a finite rate; estimate_asr counts
    # such frames through the SINRs instead
    assert pr.secrecy_rate(np.array([1.0]), np.array([np.inf])).tolist() == [0.0]


@pytest.mark.parametrize("gm, ge", [
    (1e12 * (1.0 + 1e-12), 1e12),
    (1e8 * (1.0 + 1e-9), 1e8),
])
def test_secrecy_rate_keeps_the_digits_of_near_equal_sinrs(gm, ge):
    # the difference of two capacities near 0.5*log2(1e12) cancels all but
    # a few digits of a rate of about 7e-13; the one-log form keeps them
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        want = mp.log((1 + mp.mpf(gm)) / (1 + mp.mpf(ge))) / (2 * mp.log(2))
    for rate in (pr.secrecy_rate(gm, ge),
                 pr.secrecy_rate(np.array([gm]), np.array([ge]))[0]):
        assert abs(rate - float(want)) <= 1e-14 * float(want)
