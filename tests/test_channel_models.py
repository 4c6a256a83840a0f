"""Channel distribution layer: squared-Rician law, sampling, link building.

Frozen constants come from independent mpmath / scipy oracles (noncentral-chi2
identity: 2(1+K)S ~ ncx2(df=2, nc=2K)) and from a from-scratch trig evaluation
of the default node layout.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secrelay import channel_models as cm
from secrelay import geometry as geo
from secrelay import specfun as sf

ENV = geo.Environment()

DEFAULT_GEOMETRY = geo.NetworkGeometry(
    source=geo.NodePosition(0.0, 0.0, 0.0),
    destination=geo.NodePosition(10.0, 0.0, 0.0),
    eavesdropper=geo.NodePosition(8.0, 1.0, 0.0),
    relay=geo.NodePosition(2.0, 0.0, 1.5),
)

# frozen per-link constants for DEFAULT_GEOMETRY under ENV
LINK_TABLE = {
    "au": (4.686989764584402, 0.15815452910730146),
    "ub": (2.0619655276155138, 0.004155270036686477),
    "ue": (2.385266876076205, 0.01153491064491593),
    "ae": (0.0, 0.0006720500625878528),
    "be": (0.0, 0.059813951248848814),
}


# ---------------------------------------------------------------------------
# amplitude decomposition


def test_amplitude_params_unit_power():
    for k in (0.0, 0.3, 1.0, 4.686989764584402, 50.0):
        mu, sigma = cm.amplitude_params(k)
        assert mu * mu + 2.0 * sigma * sigma == pytest.approx(1.0, rel=1e-15)


def test_amplitude_params_rayleigh_case():
    mu, sigma = cm.amplitude_params(0.0)
    assert mu == 0.0
    assert sigma == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_amplitude_params_rejects_negative():
    with pytest.raises(ValueError):
        cm.amplitude_params(-0.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="k_factor"):
            cm.amplitude_params(bad)


# ---------------------------------------------------------------------------
# density


def test_pdf_rayleigh_special_case():
    assert cm.squared_rician_pdf(0.0, 0.0) == 1.0
    assert cm.squared_rician_pdf(1.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_pdf_frozen_values():
    assert cm.squared_rician_pdf(1.0, 5.0) == pytest.approx(0.69934522292321629, rel=1e-13)
    assert cm.squared_rician_pdf(0.3, 1.0) == pytest.approx(0.68492605974393566, rel=1e-13)


def test_pdf_large_k_uses_log_path():
    # crosses the Hankel switchover inside the I0 evaluation
    assert cm.squared_rician_pdf(1.0, 500.0) == pytest.approx(6.31492490830356, rel=1e-10)
    assert cm.squared_rician_pdf(1.0, 1.0e6) == pytest.approx(282.09495045216823, rel=1e-8)


def test_pdf_array_input_keeps_shape():
    x = np.array([[0.0, 0.5], [1.0, 2.0]])
    out = cm.squared_rician_pdf(x, 5.0)
    assert out.shape == x.shape
    assert out[1, 0] == pytest.approx(0.69934522292321629, rel=1e-13)
    # a 0-d array gives the float of the scalar call
    zero_d = cm.squared_rician_pdf(np.array(1.0), 5.0)
    assert type(zero_d) is float and zero_d == cm.squared_rician_pdf(1.0, 5.0)


def test_pdf_domain_errors():
    with pytest.raises(ValueError):
        cm.squared_rician_pdf(-0.1, 1.0)
    with pytest.raises(ValueError):
        cm.squared_rician_pdf(1.0, -1.0)
    with pytest.raises(ValueError):
        cm.squared_rician_pdf(math.nan, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="k_factor"):
            cm.squared_rician_pdf(1.0, bad)


@pytest.mark.parametrize("k", [0.0, 1.0, 5.0, 10.0, 15.0])
def test_pdf_integrates_to_one(k):
    upper = (math.sqrt(k) + 12.0) ** 2 / (k + 1.0)
    edges = np.linspace(0.0, upper, 33)
    total = sf.panel_quadrature(lambda v: cm.squared_rician_pdf(v, k), edges)
    assert total == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# distribution function


def test_cdf_rayleigh_special_case():
    assert cm.squared_rician_cdf(1.0, 0.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_cdf_frozen_values():
    assert cm.squared_rician_cdf(1.0, 5.0) == pytest.approx(0.55899208290034356, rel=1e-13)
    assert cm.squared_rician_cdf(2.0, 10.0) == pytest.approx(0.98074620206408093, rel=1e-13)


def test_cdf_at_origin_is_zero():
    for k in (0.0, 1.0, 10.0):
        assert cm.squared_rician_cdf(0.0, k) == 0.0


def test_cdf_array_input():
    x = np.array([0.0, 0.5, 1.0, 3.0])
    out = cm.squared_rician_cdf(x, 5.0)
    assert out.shape == x.shape
    assert np.all(np.diff(out) > 0)
    zero_d = cm.squared_rician_cdf(np.array(1.0), 5.0)
    assert type(zero_d) is float and zero_d == cm.squared_rician_cdf(1.0, 5.0)


def test_cdf_domain_errors():
    for x in (-0.1, math.nan, math.inf, np.array([0.5, -2.0])):
        with pytest.raises(ValueError, match="gains must be finite and >= 0"):
            cm.squared_rician_cdf(x, 1.0)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="k_factor"):
            cm.squared_rician_cdf(1.0, bad)


@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_cdf_bounded_and_monotone(k, x1, x2):
    lo, hi = sorted((x1, x2))
    c_lo = cm.squared_rician_cdf(lo, k)
    c_hi = cm.squared_rician_cdf(hi, k)
    assert 0.0 <= c_lo <= c_hi <= 1.0


def test_cdf_derivative_matches_pdf():
    rng = np.random.default_rng(20240817)
    h = 1e-5
    for _ in range(20):
        k = float(rng.uniform(0.0, 12.0))
        x = float(rng.uniform(0.05, 4.0))
        fd = (cm.squared_rician_cdf(x + h, k) - cm.squared_rician_cdf(x - h, k)) / (2 * h)
        assert abs(fd - cm.squared_rician_pdf(x, k)) < 1e-6


# ---------------------------------------------------------------------------
# sampling


def rician_draws(k, rng, n):
    """n gains from the transform the Monte Carlo engine applies to normals."""
    mu, sigma = cm.amplitude_params(k)
    return cm.rician_power_gain(mu, sigma, rng.standard_normal(n), rng.standard_normal(n))


@pytest.mark.parametrize("k", [0.0, 2.0619655276155138, 4.686989764584402, 15.0])
def test_sampler_matches_cdf(k):
    rng = np.random.default_rng(42)
    s = np.sort(rician_draws(k, rng, 100_000))
    empirical = np.arange(1, s.size + 1) / s.size
    ks = np.max(np.abs(cm.squared_rician_cdf(s, k) - empirical))
    assert ks < 1.628 / math.sqrt(s.size)  # 1% critical value


@pytest.mark.parametrize("k", [0.0, 1.0, 4.686989764584402, 20.0])
def test_sampler_unit_mean(k):
    rng = np.random.default_rng(7)
    s = rician_draws(k, rng, 200_000)
    var = (1.0 + 2.0 * k) / (1.0 + k) ** 2
    assert abs(s.mean() - 1.0) < 4.0 * math.sqrt(var / s.size)


def test_sampler_variance_identity():
    rng = np.random.default_rng(11)
    s = rician_draws(10.0, rng, 1_000_000)
    assert s.var() == pytest.approx(21.0 / 121.0, rel=0.02)


def test_sampler_deterministic_los_limit():
    rng = np.random.default_rng(3)
    s = rician_draws(1.0e6, rng, 10_000)
    assert np.all((s > 0.99) & (s < 1.01))


# ---------------------------------------------------------------------------
# link construction


def test_link_model_validation():
    with pytest.raises(ValueError):
        cm.LinkModel(-1.0, 0.1)
    with pytest.raises(ValueError):
        cm.LinkModel(1.0, 0.0)
    # a NaN Rice factor once failed only inside the Monte Carlo kernel
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="k_factor"):
            cm.LinkModel(bad, 0.1)
    with pytest.raises(ValueError, match="large_scale_gain"):
        cm.LinkModel(1.0, math.inf)


def test_build_links_default_layout():
    links = cm.build_links(DEFAULT_GEOMETRY, ENV)
    assert links.ordered() == (links.au, links.ub, links.ue, links.ae, links.be)
    for name, (k, gain) in LINK_TABLE.items():
        link = getattr(links, name)
        assert link.k_factor == pytest.approx(k, rel=1e-14, abs=0 if k else 1e-300)
        assert link.large_scale_gain == pytest.approx(gain, rel=1e-14)


def test_build_links_decibel_mode():
    env = geo.Environment(k_factor_interpretation=geo.K_FACTOR_DECIBEL)
    links = cm.build_links(DEFAULT_GEOMETRY, env)
    assert links.au.k_factor == pytest.approx(2.9423814671367343, rel=1e-14)
    # path loss is unaffected by the Rice-factor interpretation
    assert links.au.large_scale_gain == pytest.approx(LINK_TABLE["au"][1], rel=1e-14)


def test_build_links_grounded_relay():
    grounded = geo.NetworkGeometry(
        source=DEFAULT_GEOMETRY.source,
        destination=DEFAULT_GEOMETRY.destination,
        eavesdropper=DEFAULT_GEOMETRY.eavesdropper,
        relay=geo.NodePosition(2.0, 0.0, 0.0),
    )
    links = cm.build_links(grounded, ENV)
    assert links.au.k_factor == 0.0
    assert links.ub.k_factor == 0.0
    assert links.au.large_scale_gain == pytest.approx(2.0 ** -3.5, rel=1e-14)


def test_ground_to_ground_link_is_rayleigh_with_nlos_exponent():
    # both ends at z = 0: K = 0 and exactly alpha_nlos, not the sigmoid at
    # theta = 0, which stays below alpha_nlos
    env = geo.Environment(alpha_nlos=4.1)
    links = cm.build_links(DEFAULT_GEOMETRY, env)
    for name, a in (("ae", DEFAULT_GEOMETRY.source),
                    ("be", DEFAULT_GEOMETRY.destination)):
        link = getattr(links, name)
        d = geo.distance(a, DEFAULT_GEOMETRY.eavesdropper)
        assert link.k_factor == 0.0
        assert link.large_scale_gain == d ** -4.1
    assert geo.path_loss_exponent(0.0, env) < 4.1


def test_build_links_rejects_coincident_nodes():
    bad = geo.NetworkGeometry(
        source=geo.NodePosition(0.0, 0.0, 0.0),
        destination=DEFAULT_GEOMETRY.destination,
        eavesdropper=DEFAULT_GEOMETRY.eavesdropper,
        relay=geo.NodePosition(0.0, 0.0, 0.0),
    )
    with pytest.raises(ValueError):
        cm.build_links(bad, ENV)
