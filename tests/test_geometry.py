"""Geometry layer: distances, elevation angles, Rice factor, path loss."""

import math

import pytest
from hypothesis import given, strategies as st

from secrelay import geometry as geo

ENV = geo.Environment()

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
altitude = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def node(x, y, z=0.0):
    return geo.NodePosition(x, y, z)


# ---------------------------------------------------------------------------
# positions and validation


def test_node_rejects_negative_altitude():
    with pytest.raises(ValueError):
        geo.NodePosition(0.0, 0.0, -0.1)
    for bad in ((math.nan, 0.0, 1.5), (0.0, math.inf, 0.0), (0.0, 0.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            geo.NodePosition(*bad)


def test_environment_rejects_bad_constants():
    with pytest.raises(ValueError):
        geo.Environment(alpha_los=4.0, alpha_nlos=3.5)
    with pytest.raises(ValueError):
        geo.Environment(kappa_min=5.0, kappa_max=1.0)
    with pytest.raises(ValueError):
        geo.Environment(omega2=0.0)
    with pytest.raises(ValueError):
        geo.Environment(k_factor_interpretation="log")
    for name, bad in (("kappa_max", math.inf), ("alpha_nlos", math.inf),
                      ("omega1", math.nan), ("omega2", math.inf)):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            geo.Environment(**{name: bad})


# ---------------------------------------------------------------------------
# distance


def test_distance_simple_cases():
    assert geo.distance(node(0, 0), node(3, 4)) == 5.0
    assert geo.distance(node(0, 0), node(2, 0, 1.5)) == 2.5
    assert geo.distance(node(1, 2, 3), node(1, 2, 3)) == 0.0


@given(st.tuples(coord, coord, altitude), st.tuples(coord, coord, altitude),
       st.tuples(coord, coord, altitude))
def test_distance_symmetry_and_triangle(pa, pb, pc):
    a, b, c = (node(*p) for p in (pa, pb, pc))
    assert geo.distance(a, b) == geo.distance(b, a)
    slack = 1e-9 * (1.0 + geo.distance(a, b) + geo.distance(b, c))
    assert geo.distance(a, c) <= geo.distance(a, b) + geo.distance(b, c) + slack


# ---------------------------------------------------------------------------
# elevation angle


def test_elevation_angle_reference():
    # ground at origin, aerial at (2, 0, 1.5): sin(theta) = 1.5 / 2.5
    assert geo.elevation_angle(node(0, 0), node(2, 0, 1.5)) == pytest.approx(
        math.asin(0.6), rel=1e-15
    )


def test_elevation_angle_vertical_and_horizontal():
    assert geo.elevation_angle(node(0, 0), node(0, 0, 3.0)) == pytest.approx(math.pi / 2)
    assert geo.elevation_angle(node(0, 0), node(4, 0, 0.0)) == 0.0


def test_elevation_angle_rejects_degenerate_pairs():
    with pytest.raises(ValueError):
        geo.elevation_angle(node(1, 1, 0), node(1, 1, 0))
    with pytest.raises(ValueError):
        geo.elevation_angle(node(0, 0, 2.0), node(1, 0, 1.0))


# ---------------------------------------------------------------------------
# Rice factor


def test_rice_k_factor_endpoints_exact():
    assert geo.rice_k_factor(0.0, ENV) == ENV.kappa_min
    assert geo.rice_k_factor(math.pi / 2, ENV) == ENV.kappa_max


def test_rice_k_factor_linear_reference():
    # frozen: 1 + 9 * (2 * asin(0.6) / pi)
    assert geo.rice_k_factor(math.asin(0.6), ENV) == pytest.approx(
        4.686989764584402, rel=1e-14
    )


def test_rice_k_factor_decibel_mode():
    env = geo.Environment(k_factor_interpretation=geo.K_FACTOR_DECIBEL)
    assert geo.rice_k_factor(0.0, env) == pytest.approx(10 ** 0.1, rel=1e-14)
    assert geo.rice_k_factor(math.pi / 2, env) == pytest.approx(10.0, rel=1e-14)
    # frozen: 10 ** (4.686989764584402 / 10)
    assert geo.rice_k_factor(math.asin(0.6), env) == pytest.approx(
        2.9423814671367343, rel=1e-14
    )


@given(st.floats(min_value=0.0, max_value=math.pi / 2), st.floats(min_value=0.0, max_value=math.pi / 2))
def test_rice_k_factor_monotone(t1, t2):
    lo, hi = sorted((t1, t2))
    assert geo.rice_k_factor(lo, ENV) <= geo.rice_k_factor(hi, ENV)


def test_rice_k_factor_domain():
    with pytest.raises(ValueError):
        geo.rice_k_factor(-0.01, ENV)
    with pytest.raises(ValueError):
        geo.rice_k_factor(math.pi / 2 + 0.01, ENV)


# ---------------------------------------------------------------------------
# path-loss exponent


def test_path_loss_exponent_endpoint_values():
    # frozen sigmoid values at the angle extremes
    assert geo.path_loss_exponent(math.pi / 2, ENV) == pytest.approx(2.0, abs=1e-5)
    assert geo.path_loss_exponent(0.0, ENV) == pytest.approx(3.207498023365495, rel=1e-13)


@given(st.floats(min_value=0.0, max_value=math.pi / 2), st.floats(min_value=0.0, max_value=math.pi / 2))
def test_path_loss_exponent_decreasing_and_bounded(t1, t2):
    lo, hi = sorted((t1, t2))
    a_lo = geo.path_loss_exponent(lo, ENV)
    a_hi = geo.path_loss_exponent(hi, ENV)
    assert ENV.alpha_los < a_hi <= a_lo < ENV.alpha_nlos
    if hi - lo > 1e-9:  # below float resolution of the sigmoid the values tie
        assert a_hi < a_lo


# ---------------------------------------------------------------------------
# path-loss gain


def test_path_loss_gain_values():
    assert geo.path_loss_gain(1.0, 3.5) == 1.0
    assert geo.path_loss_gain(2.5, 2.0) == pytest.approx(0.16, rel=1e-15)
    # frozen: 65 ** -1.75
    assert geo.path_loss_gain(math.sqrt(65.0), 3.5) == pytest.approx(
        6.720500625878528e-4, rel=1e-13
    )


def test_path_loss_gain_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        geo.path_loss_gain(0.0, 2.0)
    with pytest.raises(ValueError):
        geo.path_loss_gain(-1.0, 2.0)


@given(st.floats(min_value=1.001, max_value=50.0), st.floats(min_value=1.001, max_value=50.0),
       st.floats(min_value=0.5, max_value=4.0))
def test_path_loss_gain_decreasing_in_distance(d1, d2, alpha):
    lo, hi = sorted((d1, d2))
    if lo < hi:
        assert geo.path_loss_gain(hi, alpha) < geo.path_loss_gain(lo, alpha)
