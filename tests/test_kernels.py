"""Monte Carlo kernel: split endpoints, residual switch, identity with protocol."""

import numpy as np
import pytest
from frame_helpers import frame_sinrs

from secrelay import _kernels as kr
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
CFG = pr.ProtocolConfig(total_power=100.0)


def link_arrays():
    mu = np.empty(5)
    sigma = np.empty(5)
    for j, link in enumerate(LINKS.ordered()):
        mu[j], sigma[j] = cm.amplitude_params(link.k_factor)
    return mu, sigma


def run_kernel(z, cfg):
    mu, sigma = link_arrays()
    gains = kr.power_gains(z, mu, sigma)
    return kr.frame_metrics(gains, cfg, LINKS, kr.sinr_terms(gains, cfg, LINKS))


# ---------------------------------------------------------------------------
# contracts


def test_split_endpoints_zero_relayed_path():
    z = np.random.default_rng(0).standard_normal((64, 5, 2))
    for beta in (0.0, 1.0):
        cfg = pr.ProtocolConfig(total_power=100.0, power_split=beta)
        gm, g1, g2 = run_kernel(z, cfg)
        assert np.all(gm == 0.0) and np.all(g2 == 0.0)
        assert np.all(g1 > 0.0)


def test_residual_flag_changes_output():
    z = np.random.default_rng(1).standard_normal((64, 5, 2))
    gm_off, _, g2_off = run_kernel(z, CFG)
    cfg_on = pr.ProtocolConfig(total_power=100.0, include_residual_epsilon=True)
    gm_on, _, g2_on = run_kernel(z, cfg_on)
    assert np.all(gm_on < gm_off) and np.all(g2_on < g2_off)


# ---------------------------------------------------------------------------
# the kernel is protocol.sinrs on the transformed normals


@pytest.mark.parametrize("residual", [False, True])
def test_numpy_kernel_equals_protocol(residual):
    rng = np.random.default_rng(7)
    z = rng.standard_normal((4096, 5, 2))
    mu, sigma = link_arrays()
    amp = mu + sigma * z[:, :, 0]
    gains = amp * amp + (sigma * z[:, :, 1]) ** 2
    frame = [gains[:, j] for j in range(5)]
    for beta in (0.0, 0.5, 1.0):
        cfg = pr.ProtocolConfig(total_power=100.0, power_split=beta,
                                include_residual_epsilon=residual)
        for got, want in zip(run_kernel(z, cfg), frame_sinrs(cfg, frame, LINKS)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("residual", [False, True])
def test_sinr_terms_do_not_depend_on_the_powers(residual):
    # the engine keeps a block's sinr_terms across calls that change only
    # the allocation or the total power, so terms made at one pair of
    # powers must give every other pair's SINRs bit for bit
    z = np.random.default_rng(3).standard_normal((1024, 5, 2))
    mu, sigma = link_arrays()
    gains = kr.power_gains(z, mu, sigma)
    for beta in (0.0, 0.3, 1.0):
        cfg = pr.ProtocolConfig(total_power=100.0, power_split=beta,
                                include_residual_epsilon=residual)
        terms = kr.sinr_terms(gains, cfg, LINKS)
        for power, allocation in ((100.0, 0.2), (3e4, 0.9), (7.0, 1.0)):
            other = pr.ProtocolConfig(total_power=power, allocation=allocation,
                                      power_split=beta,
                                      include_residual_epsilon=residual)
            for got, want in zip(kr.frame_metrics(gains, other, LINKS, terms),
                                 frame_sinrs(other, gains, LINKS)):
                np.testing.assert_array_equal(got, want)
