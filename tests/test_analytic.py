"""Series evaluators pinned against independent quadrature and Monte Carlo.

Expected values were produced by a standalone oracle before this module was
written: the weighted series with weights forced to one converges to direct
numerical integrals (noncentral chi-square CDF under the squared-Rician
density) to machine precision at order 60, which validates the algebra; the
weighted order-25 numbers are then frozen as regression pins, and the gap to
the exact integral is asserted as a truncation envelope, not hidden.
"""

import functools
import math

import numpy as np
import pytest
from frame_helpers import frame_sinrs
from hypothesis import given, seed, settings, strategies as st

from secrelay import analytic as an
from secrelay import channel_models as cm
from secrelay import geometry as geo
from secrelay import montecarlo as mc
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

# weighted series at the default D = R = Q = 25
CP_SERIES_25 = {
    10: 0.00029527043853096955,
    15: 0.05023962513736714,
    20: 0.36581627669021777,
    25: 0.7084106603135604,
    30: 0.8587105783016727,
}
# direct quadrature of the defining probability, independent of the series
CP_EXACT = {
    10: 0.00042060349298656945,
    15: 0.060336286009134474,
    20: 0.4098904237033506,
    25: 0.7737455464945715,
    30: 0.9303045892748741,
}
L1_LAMBDA_07 = {
    10: 0.9838365933514379,
    20: 0.9566468679442305,
    30: 0.9521513998595414,
}
L2_SERIES_25_LAMBDA_07 = {
    10: 0.741160114503314,
    20: 0.16175985608334664,
    30: 0.084852897601286,
}
L2_EXACT_LAMBDA_07 = {
    10: 0.7039521055931932,
    20: 0.08734022360966087,
    30: 0.00786181729535566,
}
ASR_VERBATIM_20DBW = {5: 1.2263994716823847, 10: 1.5313455674705092,
                      25: 1.8725883872611475}
T1_VERBATIM_20DBW = 3.6398308090405376
T1_CORRECTED_20DBW = -0.553978205451779
T2_VERBATIM_20DBW = 1.9147675714419434
T2_CORRECTED_20DBW = 2.9494036715097343
MEAN_EVE1_20DBW = 0.05779600728320794


def cfg_at(p_dbw, lam=0.5, beta=0.5, **kwargs):
    return pr.ProtocolConfig(total_power=10.0 ** (p_dbw / 10.0),
                             allocation=lam, power_split=beta, **kwargs)


def links_with(au=None, ub=None, ue=None, ae=None, be=None):
    """LinkSet overriding (k_factor, large_scale_gain) pairs per link."""
    spec_map = {"au": au, "ub": ub, "ue": ue, "ae": ae, "be": be}
    fields = {}
    for name, override in spec_map.items():
        k, gain = override if override is not None else (0.0, 1.0)
        fields[name] = cm.LinkModel(k, gain)
    return cm.LinkSet(**fields)


def zero_delta_t_config():
    # rates this small round the SINR threshold to exactly zero while still
    # satisfying the strict rate_t > rate_s > 0 validation
    return pr.ProtocolConfig(total_power=100.0, rate_t=2.5e-17, rate_s=1e-17)


def zero_delta_e_config():
    return pr.ProtocolConfig(total_power=100.0, rate_t=0.5, rate_s=0.5 - 6e-17)


# ---------------------------------------------------------------------------
# domain types


def test_series_auxiliaries_definitions():
    cfg = cfg_at(20, lam=0.7)
    aux = an.series_auxiliaries(cfg, LINKS)
    k_au, k_ub, k_ue = LINKS.au.k_factor, LINKS.ub.k_factor, LINKS.ue.k_factor
    l_au = LINKS.au.large_scale_gain
    delta = cfg.delta_e
    want_a1 = delta * cfg.jamming_power * LINKS.ub.large_scale_gain / (
        cfg.source_power * l_au)
    want_a2 = delta * cfg.noise_power / (
        0.7 * 0.5 * cfg.source_power * l_au * LINKS.ue.large_scale_gain)
    want_a3 = delta * (1.0 - 0.5 + 2.0) * cfg.noise_power / (
        0.5 * cfg.source_power * l_au)
    assert aux.a1 == pytest.approx(want_a1, rel=1e-14)
    assert aux.a2 == pytest.approx(want_a2, rel=1e-14)
    assert aux.a3 == pytest.approx(want_a3, rel=1e-14)
    assert aux.a == pytest.approx(2.0 * k_au, rel=1e-15)
    assert aux.b == pytest.approx(2.0 * (1.0 + k_au) * want_a1, rel=1e-14)
    assert aux.b_tilde == pytest.approx(0.5 * aux.b + k_ub + 1.0, rel=1e-15)
    assert aux.c_tilde == pytest.approx(math.sqrt(k_ub * (1.0 + k_ub)), rel=1e-15)
    assert aux.c1 == pytest.approx(k_ue * (1.0 + k_ue), rel=1e-15)


def test_series_auxiliaries_rejects_negative():
    with pytest.raises(ValueError, match="a2"):
        an.SeriesAuxiliaries(a1=0.0, a2=-1.0, a3=0.0, a=0.0, b=0.0,
                             b_tilde=1.0, c_tilde=0.0, c1=0.0)


# ---------------------------------------------------------------------------
# connection probability


@pytest.mark.parametrize("p_dbw", sorted(CP_SERIES_25))
def test_connection_probability_frozen(p_dbw):
    got = an.connection_probability(cfg_at(p_dbw), LINKS)
    assert got.raw == pytest.approx(CP_SERIES_25[p_dbw], rel=1e-12)
    assert got.clamped == got.raw


def _cp_quadrature(cfg, links):
    """Independent route: integrate the source-link noncentral chi-square
    tail over the relay-link squared-Rician density."""
    stats = pytest.importorskip("scipy.stats")
    k_au, k_ub = links.au.k_factor, links.ub.k_factor
    beta, eta, zeta = cfg.power_split, cfg.harvester_efficiency, cfg.processing_noise_ratio
    part_a = ((1.0 - beta + zeta) * cfg.noise_power * cfg.delta_t
              / ((1.0 - beta) * cfg.source_power * links.au.large_scale_gain))
    part_b = (cfg.noise_power * cfg.delta_t
              / (eta * beta * cfg.source_power * links.au.large_scale_gain
                 * links.ub.large_scale_gain))

    def integrand(y):
        threshold = 2.0 * (1.0 + k_au) * (part_a + part_b / y)
        tail = stats.ncx2.sf(threshold, 2, 2.0 * k_au)
        return tail * cm.squared_rician_pdf(y, k_ub)

    upper = (math.sqrt(k_ub) + 14.0) ** 2 / (1.0 + k_ub)
    return sf.panel_quadrature(integrand, sf._dyadic_edges(upper, 40), points=64)


@pytest.mark.parametrize("p_dbw", sorted(CP_EXACT))
def test_connection_probability_quadrature_reference(p_dbw):
    cfg = cfg_at(p_dbw)
    assert _cp_quadrature(cfg, LINKS) == pytest.approx(CP_EXACT[p_dbw], rel=1e-9)
    # the weighted series sums a subset of the positive terms, so it sits
    # below the exact value; the deficit at order 25 stays inside 0.075
    raw = an.connection_probability(cfg, LINKS).raw
    assert 0.0 < CP_EXACT[p_dbw] - raw < 0.075


def test_connection_probability_order_refinement():
    cfg = cfg_at(20)
    gaps = []
    for order in (10, 15, 25, 40):
        raw = an.connection_probability(
            cfg, LINKS, sf.TruncationOrders(D=order, R=order)).raw
        gaps.append(CP_EXACT[20] - raw)
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.02


def test_connection_probability_matches_monte_carlo_at_low_power():
    cfg = cfg_at(10)
    est = mc.estimate_cp(cfg, LINKS, mc.SimulationPlan(frames=100_000, seed=0))
    raw = an.connection_probability(cfg, LINKS).raw
    assert abs(est.mean - raw) < 0.01


def test_connection_probability_zero_threshold():
    assert an.connection_probability(zero_delta_t_config(), LINKS) == (1.0, 1.0)


def test_connection_probability_vanishing_source():
    cfg = pr.ProtocolConfig(total_power=100.0, allocation=1e-300)
    assert an.connection_probability(cfg, LINKS) == (0.0, 0.0)


def test_connection_probability_monotone_in_power():
    values = [an.connection_probability(cfg_at(p), LINKS).raw
              for p in np.linspace(5.0, 30.0, 9)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_connection_probability_monotone_in_rate():
    values = []
    for rate_t in np.linspace(0.1, 1.4, 10):
        cfg = pr.ProtocolConfig(total_power=100.0, rate_t=float(rate_t),
                                rate_s=0.05)
        values.append(an.connection_probability(cfg, LINKS).raw)
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_connection_probability_rejects_degenerate_split(beta):
    cfg = pr.ProtocolConfig(total_power=100.0, power_split=beta)
    with pytest.raises(an.ClosedFormUndefinedError, match="power_split"):
        an.connection_probability(cfg, LINKS)


def test_connection_probability_overflow_signalled():
    links = links_with(au=(1.0, 1.0), ub=(1.0, 1e-320))
    with pytest.raises(sf.SeriesOverflowError, match="part_b"):
        an.connection_probability(pr.ProtocolConfig(total_power=100.0), links)


# ---------------------------------------------------------------------------
# secrecy outage probability


@pytest.mark.parametrize("p_dbw", sorted(L1_LAMBDA_07))
def test_sop_l1_frozen(p_dbw):
    got = an.sop_l1(cfg_at(p_dbw, lam=0.7), LINKS)
    assert got == pytest.approx(L1_LAMBDA_07[p_dbw], rel=1e-12)


def test_sop_l1_threshold_limits():
    assert an.sop_l1(zero_delta_e_config(), LINKS) == 0.0
    huge = pr.ProtocolConfig(total_power=100.0, rate_t=10.0, rate_s=0.05)
    assert an.sop_l1(huge, LINKS) == pytest.approx(1.0, abs=1e-9)


def test_sop_l1_matches_empirical():
    cfg = cfg_at(20, lam=0.7)
    delta_e = cfg.delta_e
    est = mc.estimate_functional(
        cfg, LINKS, mc.SimulationPlan(frames=1_000_000, seed=13),
        lambda frame, terms: (frame_sinrs(cfg, frame, LINKS)[1] <= delta_e).astype(float),
    )
    assert abs(an.sop_l1(cfg, LINKS) - est.mean) < 3.0 * est.std_error


@pytest.mark.parametrize("p_dbw", sorted(L2_SERIES_25_LAMBDA_07))
def test_sop_l2_frozen(p_dbw):
    got = an.sop_l2(cfg_at(p_dbw, lam=0.7), LINKS)
    assert got.raw == pytest.approx(L2_SERIES_25_LAMBDA_07[p_dbw], rel=1e-12)
    assert got.clamped == got.raw


def _l2_quadrature(cfg, links):
    """Independent route: tensor quadrature of the source-link noncentral
    chi-square CDF over the relay-destination and relay-eavesdropper gains."""
    stats = pytest.importorskip("scipy.stats")
    k_au, k_ub, k_ue = links.au.k_factor, links.ub.k_factor, links.ue.k_factor
    aux = an.series_auxiliaries(cfg, links)

    def edges_for(k):
        return sf._dyadic_edges((math.sqrt(k) + 14.0) ** 2 / (1.0 + k), 40)

    def rule(edges, points=24):
        x, w = np.polynomial.legendre.leggauss(points)
        nodes, weights = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
            weights.append(0.5 * (hi - lo) * w)
        return np.concatenate(nodes), np.concatenate(weights)

    y, wy = rule(edges_for(k_ub))
    z, wz = rule(edges_for(k_ue))
    argument = 2.0 * (1.0 + k_au) * (aux.a1 * y[:, None]
                                     + aux.a2 / z[None, :] + aux.a3)
    cdf = stats.ncx2.cdf(argument, 2, 2.0 * k_au)
    wy = wy * cm.squared_rician_pdf(y, k_ub)
    wz = wz * cm.squared_rician_pdf(z, k_ue)
    return float(wy @ cdf @ wz)


@pytest.mark.parametrize("p_dbw", sorted(L2_EXACT_LAMBDA_07))
def test_sop_l2_quadrature_reference(p_dbw):
    cfg = cfg_at(p_dbw, lam=0.7)
    assert _l2_quadrature(cfg, LINKS) == pytest.approx(
        L2_EXACT_LAMBDA_07[p_dbw], rel=1e-9)
    # truncating the positive series under-reads the non-outage factor, so
    # the reported probability sits above the exact one by the same deficit
    raw = an.sop_l2(cfg, LINKS).raw
    assert 0.0 < raw - L2_EXACT_LAMBDA_07[p_dbw] < 0.08


def test_sop_l2_order_refinement():
    cfg = cfg_at(20, lam=0.7)
    gaps = []
    for order in (10, 15, 25, 40):
        raw = an.sop_l2(cfg, LINKS, sf.TruncationOrders(D=order, Q=order)).raw
        gaps.append(raw - L2_EXACT_LAMBDA_07[20])
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.035


def test_sop_l2_zero_threshold():
    assert an.sop_l2(zero_delta_e_config(), LINKS) == (0.0, 0.0)


def test_sop_l2_saturates_at_huge_threshold():
    huge = pr.ProtocolConfig(total_power=100.0, rate_t=10.0, rate_s=0.05)
    got = an.sop_l2(huge, LINKS)
    assert got.raw == pytest.approx(1.0, abs=1e-2)
    assert got.clamped <= 1.0


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_sop_l2_rejects_degenerate_split(beta):
    cfg = pr.ProtocolConfig(total_power=100.0, power_split=beta)
    with pytest.raises(ValueError, match="power_split"):
        an.sop_l2(cfg, LINKS)


def test_sop_l2_overflow_signalled():
    links = links_with(au=(1.0, 1.0), ue=(0.0, 1e-320))
    with pytest.raises(sf.SeriesOverflowError, match="a2"):
        an.sop_l2(pr.ProtocolConfig(total_power=100.0), links)


@pytest.mark.parametrize("p_dbw", sorted(L1_LAMBDA_07))
def test_secrecy_outage_composition_frozen(p_dbw):
    cfg = cfg_at(p_dbw, lam=0.7)
    got = an.secrecy_outage_probability(cfg, LINKS)
    want = 1.0 - L1_LAMBDA_07[p_dbw] * L2_SERIES_25_LAMBDA_07[p_dbw]
    assert got.raw == pytest.approx(want, rel=1e-12)
    assert got.clamped == got.raw


def test_secrecy_outage_trivial_compositions():
    # zero threshold: both factors vanish, outage is certain
    assert an.secrecy_outage_probability(zero_delta_e_config(), LINKS) == (1.0, 1.0)
    # huge threshold: both factors saturate, outage vanishes
    huge = pr.ProtocolConfig(total_power=100.0, rate_t=10.0, rate_s=0.05)
    assert an.secrecy_outage_probability(huge, LINKS).raw == pytest.approx(
        0.0, abs=1e-2)


def test_secrecy_outage_monotone_in_rate():
    values = []
    for rate_t in np.linspace(0.25, 1.0, 8):
        cfg = pr.ProtocolConfig(total_power=100.0, allocation=0.7,
                                rate_t=float(rate_t), rate_s=0.2)
        values.append(an.secrecy_outage_probability(cfg, LINKS).raw)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_clamp_residue_zero_on_reference_grid():
    # every series term is positive, so truncation can only remove mass:
    # raw values stay inside [0, 1] and clamping never has to act
    for p_dbw in (10, 15, 20, 25, 30):
        for lam in (0.5, 0.7):
            cfg = cfg_at(p_dbw, lam=lam)
            for got in (an.connection_probability(cfg, LINKS),
                        an.sop_l2(cfg, LINKS),
                        an.secrecy_outage_probability(cfg, LINKS)):
                assert got.clamped == got.raw
                assert 0.0 <= got.raw <= 1.0


@functools.cache
def _triangle_loop(depth):
    """All (d, u, s) with 0 <= s <= u <= d <= depth, in nested-loop order."""
    rows = [(d, u, s) for d in range(depth + 1) for u in range(d + 1)
            for s in range(u + 1)]
    return tuple(np.array(col) for col in zip(*rows))


@functools.cache
def _pyramid_loop(depth):
    """All (d, u, r, s) with u <= d <= depth, r <= u, s <= u - r, in
    nested-loop order."""
    rows = [(d, u, r, s) for d in range(depth + 1) for u in range(d + 1)
            for r in range(u + 1) for s in range(u - r + 1)]
    return tuple(np.array(col) for col in zip(*rows))


@pytest.mark.parametrize("metric", [an.connection_probability,
                                    an.secrecy_outage_probability,
                                    an.sop_l2,
                                    an.asr_lower_bound])
def test_series_metrics_reject_zero_noise(metric):
    # once a Bessel K domain error and a ZeroDivisionError from deep inside
    cfg = pr.ProtocolConfig(total_power=100.0, noise_power=0.0)
    with pytest.raises(ValueError, match="noise_power"):
        metric(cfg, LINKS)


# ---------------------------------------------------------------------------
# nested reduction of the CP and phase-2 outage series


def _one_shot_cp(cfg, links, orders):
    """Connection series as one logsumexp over the (triangle x R) term array."""
    delta = cfg.delta_t
    beta, eta = cfg.power_split, cfg.harvester_efficiency
    zeta, n0, p_a = cfg.processing_noise_ratio, cfg.noise_power, cfg.source_power
    k_au, k_ub = links.au.k_factor, links.ub.k_factor
    l_au, l_ub = links.au.large_scale_gain, links.ub.large_scale_gain
    part_a = (1.0 - beta + zeta) * n0 * delta / ((1.0 - beta) * p_a * l_au)
    part_b = n0 * delta / (eta * beta * p_a * l_au * l_ub)
    depth, radial = orders.D, orders.R
    lg = sf.lgamma_int(depth + radial + 3)
    w_d = sf.log_series_weight(depth, np.arange(depth + 1))
    w_r = sf.log_series_weight(radial, np.arange(radial + 1))
    d_i, u_i, s_i = _triangle_loop(depth)
    base = (w_d[d_i] - lg[d_i + 1] - lg[s_i + 1] - lg[u_i - s_i + 1]
            + an._xlog(d_i, k_au) + u_i * math.log1p(k_au)
            + an._xlog(s_i, part_a) + an._xlog(u_i - s_i, part_b))
    r = np.arange(radial + 1)
    base_r = w_r - 2.0 * lg[r + 1] + an._xlog(r, k_ub * (1.0 + k_ub))
    argument = 2.0 * math.sqrt((1.0 + k_au) * (1.0 + k_ub) * part_b)
    order_nu = (s_i - u_i)[:, None] + r[None, :] + 1
    log_k = sf.log_bessel_k_sequence(int(np.max(np.abs(order_nu))), argument)
    log_ratio = math.log((1.0 + k_au) * part_b / (1.0 + k_ub))
    terms = (base[:, None] + base_r[None, :]
             + 0.5 * order_nu * log_ratio + log_k[np.abs(order_nu)])
    log_prefix = (math.log(2.0 * (1.0 + k_ub))
                  - k_au - k_ub - (1.0 + k_au) * part_a)
    return math.exp(log_prefix + sf.logsumexp(terms.ravel()))


def _one_shot_l2(cfg, links, orders):
    """Phase-2 outage series as one logsumexp over the (pyramid x Q) array."""
    k_au, k_ub, k_ue = links.au.k_factor, links.ub.k_factor, links.ue.k_factor
    aux = an.series_auxiliaries(cfg, links)
    shift_t = 2.0 * (1.0 + k_au) * aux.a3
    shift_p = 2.0 * (1.0 + k_au) * aux.a2
    depth, radial = orders.D, orders.Q
    lg = sf.lgamma_int(depth + radial + 3)
    w_d = sf.log_series_weight(depth, np.arange(depth + 1))
    w_q = sf.log_series_weight(radial, np.arange(radial + 1))
    f11 = an._log_f11_table(depth, aux.c_tilde**2 / aux.b_tilde)
    d_i, u_i, r_i, s_i = _pyramid_loop(depth)
    m_i = u_i - r_i - s_i
    base = (w_d[d_i] + an._xlog(d_i, aux.a) - lg[d_i + 1] - (d_i + u_i) * sf.LN2
            + an._xlog(r_i, aux.b) + f11[r_i] - (r_i + 1) * math.log(aux.b_tilde)
            + an._xlog(s_i, shift_t) - lg[s_i + 1]
            + an._xlog(m_i, shift_p) - lg[m_i + 1])
    q = np.arange(radial + 1)
    base_q = w_q + an._xlog(q, aux.c1) - 2.0 * lg[q + 1]
    argument = 2.0 * math.sqrt((1.0 + k_au) * (1.0 + k_ue) * aux.a2)
    order_nu = (s_i - (u_i - r_i))[:, None] + q[None, :] + 1
    log_k = sf.log_bessel_k_sequence(int(np.max(np.abs(order_nu))), argument)
    log_ratio = math.log((1.0 + k_au) * aux.a2 / (1.0 + k_ue))
    terms = (base[:, None] + base_q[None, :]
             + 0.5 * order_nu * log_ratio + log_k[np.abs(order_nu)])
    log_prefix = (math.log(2.0 * (1.0 + k_ub) * (1.0 + k_ue))
                  - k_au - k_ub - k_ue - 0.5 * shift_t)
    return 1.0 - math.exp(log_prefix + sf.logsumexp(terms.ravel()))


# D != Q and D != R, Q or R above D, and a deep order
@pytest.mark.parametrize("depths", [(1, 1, 1), (5, 3, 7), (7, 9, 2),
                                    (25, 25, 25), (40, 40, 40)], ids=str)
def test_two_stage_sum_matches_one_shot_sum(depths):
    orders = sf.TruncationOrders(*depths)
    for p_dbw in (0, 10, 20, 30, 40):
        cfg = cfg_at(p_dbw)
        cp = an.connection_probability(cfg, LINKS, orders).raw
        assert cp == pytest.approx(_one_shot_cp(cfg, LINKS, orders), rel=1e-13)
        l2 = _one_shot_l2(cfg, LINKS, orders)
        sop = an.secrecy_outage_probability(cfg, LINKS, orders).raw
        assert an.sop_l2(cfg, LINKS, orders).raw == pytest.approx(l2, rel=1e-13)
        assert sop == pytest.approx(1.0 - an.sop_l1(cfg, LINKS) * l2, rel=1e-13)


@pytest.mark.parametrize("metric, label", [
    (an.connection_probability, "connection series"),
    (an.secrecy_outage_probability, "phase-2 outage series"),
])
def test_series_term_overflow_signalled(monkeypatch, metric, label):
    real = sf.log_bessel_k_sequence

    def top_order_overflows(nu_max, x):
        out = real(nu_max, x).copy()
        out[-1] = math.inf
        return out

    monkeypatch.setattr(sf, "log_bessel_k_sequence", top_order_overflows)
    with pytest.raises(sf.SeriesOverflowError, match=label):
        metric(cfg_at(20), LINKS, sf.TruncationOrders(D=6, R=9, Q=9))


def _per_offset_logsums(base_inner, depth, argument, log_ratio, label):
    """The Bessel-kernel sums h(m) with one checked logsumexp per offset -m,
    offsets in increasing order."""
    j = np.arange(base_inner.size)
    log_k = sf.log_bessel_k_sequence(max(depth - 1, base_inner.size), argument)
    h = np.empty(depth + 1)
    for m in range(depth, -1, -1):
        nu = j + 1 - m
        h[m] = an._checked_logsumexp(
            base_inner + 0.5 * nu * log_ratio + log_k[np.abs(nu)], label)
    return h


@pytest.mark.parametrize("order", [5, 25, 40])
def test_row_wise_bessel_kernel_keeps_the_per_offset_bits(monkeypatch, order):
    orders = sf.TruncationOrders(order, order, order)
    raised = cm.build_links(geo.move_relay(GEOM, altitude=6.0), ENV)
    cases = [(cfg_at(p_dbw, lam, beta), links)
             for p_dbw in (0, 10, 20, 30, 40, 60)
             for lam, beta in ((0.5, 0.5), (0.9, 0.1), (0.1, 0.9))
             for links in (LINKS, raised)]

    def values():
        return [(an.connection_probability(cfg, links, orders).raw,
                 an.sop_l2(cfg, links, orders).raw) for cfg, links in cases]

    row_wise = values()
    monkeypatch.setattr(an, "_bessel_inner_logsums", _per_offset_logsums)
    assert row_wise == values()


@pytest.mark.parametrize("bad_order", [2, -1])
@pytest.mark.parametrize("bad_value", [math.inf, math.nan])
@pytest.mark.parametrize("metric", [an.connection_probability, an.sop_l2])
def test_row_wise_bessel_kernel_reports_the_per_offset_error(
        monkeypatch, metric, bad_value, bad_order):
    # ln K at order 2 enters many offset rows, the top order only the last
    real = sf.log_bessel_k_sequence

    def poisoned(nu_max, x):
        out = real(nu_max, x).copy()
        out[bad_order] = bad_value
        return out

    monkeypatch.setattr(sf, "log_bessel_k_sequence", poisoned)
    args = (cfg_at(20), LINKS, sf.TruncationOrders(D=6, R=9, Q=9))
    with pytest.raises(sf.SeriesOverflowError) as row_wise:
        metric(*args)
    monkeypatch.setattr(an, "_bessel_inner_logsums", _per_offset_logsums)
    with pytest.raises(sf.SeriesOverflowError) as per_offset:
        metric(*args)
    assert str(row_wise.value) == str(per_offset.value)


def test_deep_series_memory_stays_pyramid_sized():
    # a (pyramid x Q) term array would take about 1.5 GB at order 60
    tracemalloc = pytest.importorskip("tracemalloc")
    orders = sf.TruncationOrders(D=60, R=60, Q=60)
    cfg = cfg_at(20)
    tracemalloc.start()
    try:
        an.secrecy_outage_probability(cfg, LINKS, orders)
        an.connection_probability(cfg, LINKS, orders)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150e6


def test_deep_series_footprint_is_quadratic_in_the_order():
    # every CP and phase-2 outage array is at most (D + 1) x (max(D, R, Q)
    # + 1); both calls together peaked at 136 kB at order 60, and at 30.6 MB
    # when they summed over the flattened (d, u, r, s) index set
    tracemalloc = pytest.importorskip("tracemalloc")
    orders = sf.TruncationOrders(D=60, R=60, Q=60)
    cfg = cfg_at(20)
    an.secrecy_outage_probability(cfg, LINKS, orders)
    tracemalloc.start()
    try:
        an.secrecy_outage_probability(cfg, LINKS, orders)
        an.connection_probability(cfg, LINKS, orders)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400e3


@pytest.mark.parametrize("metric, label, factors", [
    (an.connection_probability, "connection series", "dsmr"),
    # the first _xlog call fills the confluent table inside the r factor
    (an.sop_l2, "phase-2 outage series", "-drsmq"),
])
@pytest.mark.parametrize("bad_value", [math.inf, math.nan])
def test_factor_overflow_signalled(monkeypatch, metric, label, factors,
                                   bad_value):
    # the factors in the order their _xlog calls come
    real = an._xlog
    for poisoned_call, name in enumerate(factors):
        if name == "-":
            continue
        calls = []

        def poisoned(exponents, base):
            out = np.array(real(exponents, base), dtype=float)
            if len(calls) == poisoned_call:
                out[2] = bad_value
            calls.append(base)
            return out

        monkeypatch.setattr(an, "_xlog", poisoned)
        with pytest.raises(sf.SeriesOverflowError,
                           match=f"{label}: {name}-factor log-term 2 of 7 "
                                 f"is {bad_value}"):
            metric(cfg_at(20), LINKS, sf.TruncationOrders(D=6, R=6, Q=6))


def _f11_per_row(max_r, x):
    """log 1F1(r+1; 1; x), one logsumexp over k <= r per r."""
    lg = sf.lgamma_int(max_r + 2)
    out = np.empty(max_r + 1)
    for r in range(max_r + 1):
        k = np.arange(r + 1)
        log_binomial = lg[r + 1] - lg[k + 1] - lg[r - k + 1]  # ln C(r, k)
        body = log_binomial + an._xlog(k, x) - lg[k + 1]
        out[r] = x + sf.logsumexp(body)
    return out


@pytest.mark.parametrize("x", [0.0, 1e-300, 0.3, 2.0, 45.0, 700.0])
@pytest.mark.parametrize("max_r", [0, 1, 7, 40, 60])
def test_log_f11_table_matches_per_row_sums(max_r, x):
    got = an._log_f11_table(max_r, x)
    want = _f11_per_row(max_r, x)
    # 1e-13 absolute on the log is 1e-13 relative on 1F1 itself; both routes
    # round the log-factorials, which reach 188 at r = 60, and the log, which
    # passes 700 at x = 700, to an ulp each
    np.testing.assert_allclose(got, want, rtol=4e-16, atol=1e-13)
    if x == 0.0:
        np.testing.assert_array_equal(got, np.zeros(max_r + 1))
    else:
        # 1F1(1; 1; x) = e^x
        assert got[0] == x


@pytest.mark.parametrize("x, y", [
    ([0.0], [1.0]),
    ([0.5, -1.0, 2.0], [1.0, 0.25, -3.0]),
    ([0.0, -math.inf, -math.inf], [0.0, -math.inf, 1.0]),
    ([-700.0, 0.0, 700.0, 1.5], [3.0, -2.0, 650.0, 0.0]),
])
def test_log_convolve_matches_direct_sums(x, y):
    x, y = np.array(x), np.array(y)
    want = [sf.logsumexp([x[i] + y[u - i] for i in range(u + 1)])
            for u in range(x.size)]
    np.testing.assert_allclose(an._log_convolve(x, y), want, rtol=1e-15)


def _log_space_tolerance(value):
    """pytest.approx bounds for a value computed as exp(log-sum).

    Both routes round ln(value) to a few ulps, a relative error of about
    1e-15 |ln value| that passes 1e-13 below value ~ 1e-43: at a CP of
    1.5e-178 they were 6e-14 and 5e-14 off a 50-digit sum of the same
    log-terms, in opposite directions. A subnormal value keeps only an
    absolute precision.
    """
    log_size = abs(math.log(value)) if value > 0.0 else 0.0
    return {"rel": max(1e-13, 1e-15 * log_size), "abs": 1e-320}


@given(
    depths=st.tuples(st.integers(1, 40), st.integers(1, 40),
                     st.integers(1, 40)),
    p_dbw=st.floats(min_value=0.0, max_value=60.0),
    lam=st.floats(min_value=0.05, max_value=0.95),
    beta=st.floats(min_value=0.05, max_value=0.95),
    altitude=st.floats(min_value=0.2, max_value=12.0),
)
@seed(20261018)
@settings(max_examples=25, deadline=None)
def test_nested_sums_match_one_shot_sums(depths, p_dbw, lam, beta, altitude):
    orders = sf.TruncationOrders(*depths)
    cfg = cfg_at(p_dbw, lam, beta)
    links = cm.build_links(geo.move_relay(GEOM, altitude=altitude), ENV)
    cp = _one_shot_cp(cfg, links, orders)
    assert an.connection_probability(cfg, links, orders).raw == pytest.approx(
        cp, **_log_space_tolerance(cp))
    assert an.sop_l2(cfg, links, orders).raw == pytest.approx(
        _one_shot_l2(cfg, links, orders), rel=1e-13)


# ---------------------------------------------------------------------------
# mean phase-1 eavesdropper SINR


def test_mean_gamma_eve_phase1_frozen():
    got = an.mean_gamma_eve_phase1(cfg_at(20), LINKS)
    assert got == pytest.approx(MEAN_EVE1_20DBW, rel=1e-12)


def test_mean_gamma_eve_phase1_symmetric_toy():
    # equal powers, equal losses, unit exponential-integral argument
    links = links_with(ae=(0.0, 0.02), be=(0.0, 0.02))
    cfg = pr.ProtocolConfig(total_power=1.0, allocation=0.5, noise_power=0.01)
    want = math.e * math.exp(sf.log_exp_integral_e1(1.0))
    assert an.mean_gamma_eve_phase1(cfg, links) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.5963473623231941, rel=1e-12)


def test_mean_gamma_eve_phase1_small_noise_law():
    # x e^x E1(x) -> -x ln x as x -> 0, so the mean grows like -ln(N0)
    links = links_with(ae=(0.0, 0.02), be=(0.0, 0.02))
    x = 1e-10
    cfg = pr.ProtocolConfig(total_power=1.0, allocation=0.5,
                            noise_power=0.5 * 0.02 * x)
    law = -math.log(x) - sf.EULER_GAMMA
    assert an.mean_gamma_eve_phase1(cfg, links) == pytest.approx(law, rel=1e-6)


def test_mean_gamma_eve_phase1_matches_monte_carlo():
    cfg = cfg_at(20)
    est = mc.estimate_functional(
        cfg, LINKS, mc.SimulationPlan(frames=1_000_000, seed=13),
        lambda frame, terms: frame_sinrs(cfg, frame, LINKS)[1],
    )
    got = an.mean_gamma_eve_phase1(cfg, LINKS)
    assert abs(got - est.mean) / est.mean < 0.02


def test_mean_gamma_eve_phase1_rejects_full_allocation():
    with pytest.raises(an.ClosedFormUndefinedError, match="jamming"):
        an.mean_gamma_eve_phase1(cfg_at(20, lam=1.0), LINKS)


@pytest.mark.parametrize("metric", [an.sop_l1, an.secrecy_outage_probability,
                                    an.mean_gamma_eve_phase1,
                                    an.asr_lower_bound])
def test_eavesdropper_closed_forms_reject_rician_ground_links(metric):
    # the default ground links are Rayleigh, so the frozen pins above still
    # run through the closed forms
    assert LINKS.ae.k_factor == LINKS.be.k_factor == 0.0
    # at z = 1 the eavesdropper's links are Rician (K_ae 1.71, K_be 3.41),
    # where sop_l1 read 0.969 against a simulated 0.994
    raised = cm.build_links(
        geo.NetworkGeometry(source=GEOM.source, destination=GEOM.destination,
                            eavesdropper=geo.NodePosition(8.0, 1.0, 1.0),
                            relay=GEOM.relay), ENV)
    assert raised.be.k_factor == pytest.approx(3.4095, abs=1e-4)
    with pytest.raises(an.ClosedFormUndefinedError,
                       match=r"link ae, got K_ae = 1\.707"):
        metric(cfg_at(20), raised)
    with pytest.raises(an.ClosedFormUndefinedError,
                       match="link be, got K_be = 0.5"):
        metric(cfg_at(20), links_with(be=(0.5, 1.0)))


# ---------------------------------------------------------------------------
# average secrecy rate lower bound


def test_asr_lower_bound_frozen():
    cfg = cfg_at(20)
    for order, want in ASR_VERBATIM_20DBW.items():
        got = an.asr_lower_bound(cfg, LINKS, sf.TruncationOrders(R=order))
        assert got == pytest.approx(want, rel=1e-12)
    assert an.asr_lower_bound(cfg, LINKS, scale_corrected=True) == 0.0


def test_asr_proxies_frozen():
    cfg = cfg_at(20)
    assert an._log_main_sinr_proxy(cfg, LINKS, 25, False) == pytest.approx(
        T1_VERBATIM_20DBW, rel=1e-12)
    assert an._log_main_sinr_proxy(cfg, LINKS, 25, True) == pytest.approx(
        T1_CORRECTED_20DBW, rel=1e-12)
    assert an._mean_eve_sinr_proxy(cfg, LINKS, False) == pytest.approx(
        T2_VERBATIM_20DBW, rel=1e-12)
    assert an._mean_eve_sinr_proxy(cfg, LINKS, True) == pytest.approx(
        T2_CORRECTED_20DBW, rel=1e-12)


@pytest.mark.parametrize("scale_corrected", [False, True])
def test_mean_eve_proxy_is_the_phase2_sinr_at_plugin_gains(monkeypatch,
                                                          scale_corrected):
    # T2's phase-2 term is protocol.sinrs at unit-mean gains with the path
    # losses (scale-corrected) or at gains 2K + 2 with unit losses (verbatim)
    cfg = cfg_at(20)
    assert not cfg.include_residual_epsilon
    monkeypatch.setattr(an, "mean_gamma_eve_phase1", lambda cfg, links: 0.0)
    if scale_corrected:
        links, gains = LINKS, (1.0,) * 5
    else:
        links = links_with(**{name: (getattr(LINKS, name).k_factor, 1.0)
                              for name in ("au", "ub", "ue", "ae", "be")})
        gains = [2.0 * link.k_factor + 2.0 for link in links.ordered()]
    want = pr.sinrs(cfg, links, *gains, cfg.source_power, cfg.jamming_power)[2]
    assert an._mean_eve_sinr_proxy(cfg, LINKS, scale_corrected) == want


def test_log_moment_cache_runs_each_argument_once(monkeypatch):
    calls = []

    def counted(*args, _body=sf._log_offset_moments):
        calls.append(args)
        return _body(*args)

    monkeypatch.setattr(sf, "_log_offset_moments", counted)
    sf.log_moment_ncx2.cache_clear()
    try:
        for lam in np.linspace(0.1, 0.9, 5):
            for beta in np.linspace(0.1, 0.9, 5):
                an.asr_lower_bound(cfg_at(20, lam=lam, beta=beta), LINKS)
    finally:
        sf.log_moment_ncx2.cache_clear()
    # one offset per split and none per allocation: 2 central calls (one
    # per link, both at b = 0), 5 shifted
    offsets = [b for _, b in calls]
    assert len(calls) == 7 and offsets.count(0.0) == 2
    assert len(set(offsets)) == 6
    for b in set(offsets):
        for lam in (2.0 * LINKS.au.k_factor, 2.0 * LINKS.ub.k_factor):
            assert sf.log_moment_ncx2(lam, b, "series", 25) == \
                sf.log_moment_ncx2.__wrapped__(lam, b, "series", 25)


def test_asr_lower_bound_order_refinement():
    cfg = cfg_at(20)
    values = [an.asr_lower_bound(cfg, LINKS, sf.TruncationOrders(R=order))
              for order in (5, 10, 25)]
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("order", [128, 130, 160, 400])
def test_asr_lower_bound_deep_orders_are_finite_and_grow(order):
    # at R = 128 and 130 the bound was once a silent nan, and from R = 150
    # Phi(150, b) left double range and raised
    got = an.asr_lower_bound(cfg_at(20), LINKS, sf.TruncationOrders(R=order))
    assert math.isfinite(got)
    assert an.asr_lower_bound(cfg_at(20), LINKS, sf.TruncationOrders(R=127)) < got


def test_asr_lower_bound_vanishing_source():
    cfg = pr.ProtocolConfig(total_power=100.0, allocation=1e-300)
    assert an.asr_lower_bound(cfg, LINKS) == pytest.approx(0.0, abs=1e-290)


def test_asr_lower_bound_guards():
    with pytest.raises(an.ClosedFormUndefinedError, match="power_split"):
        an.asr_lower_bound(pr.ProtocolConfig(total_power=100.0, power_split=1.0),
                           LINKS)
    with pytest.raises(an.ClosedFormUndefinedError, match="jamming"):
        an.asr_lower_bound(cfg_at(20, lam=1.0), LINKS)


def test_asr_scale_corrected_keeps_lower_bound_character():
    plan = mc.SimulationPlan(frames=200_000, seed=99)
    for p_dbw in (17, 20, 23, 26, 30):
        cfg = cfg_at(p_dbw)
        est = mc.estimate_asr(cfg, LINKS, plan)
        bound = an.asr_lower_bound(cfg, LINKS, scale_corrected=True)
        assert bound <= est.mean + 2.0 * est.std_error + 0.05


def test_asr_verbatim_exceeds_monte_carlo():
    # the unnormalized proxies overshoot the simulated rate by more than a
    # bit everywhere on the reference grid; the scale_corrected flag exists
    # to quantify exactly this
    plan = mc.SimulationPlan(frames=200_000, seed=99)
    for p_dbw in (17, 20, 23, 26, 30):
        cfg = cfg_at(p_dbw)
        est = mc.estimate_asr(cfg, LINKS, plan)
        assert an.asr_lower_bound(cfg, LINKS) > est.mean + 1.0


# ---------------------------------------------------------------------------
# randomized domain sweep


@given(
    p_dbw=st.floats(min_value=0.0, max_value=35.0),
    lam=st.floats(min_value=0.05, max_value=0.95),
    beta=st.floats(min_value=0.05, max_value=0.95),
    rate_t=st.floats(min_value=0.1, max_value=2.0),
    ratio=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=80, deadline=None)
def test_series_probabilities_stay_in_range(p_dbw, lam, beta, rate_t, ratio):
    cfg = pr.ProtocolConfig(total_power=10.0 ** (p_dbw / 10.0), allocation=lam,
                            power_split=beta, rate_t=rate_t,
                            rate_s=rate_t * ratio)
    orders = sf.TruncationOrders(D=8, R=8, Q=8)
    cp = an.connection_probability(cfg, LINKS, orders)
    l1 = an.sop_l1(cfg, LINKS)
    l2 = an.sop_l2(cfg, LINKS, orders)
    sop = an.secrecy_outage_probability(cfg, LINKS, orders)
    for got in (cp, l2, sop):
        assert 0.0 <= got.raw <= 1.0
        assert got.clamped == got.raw
    assert 0.0 <= l1 <= 1.0
    assert sop.raw == pytest.approx(1.0 - l1 * l2.raw, rel=1e-12, abs=1e-15)
    bound = an.asr_lower_bound(cfg, LINKS, orders)
    assert bound >= 0.0 and math.isfinite(bound)
