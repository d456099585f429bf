import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restriction_lab.curves import (DerivativeOracle, HomogeneousCurve,
                                    SimpleCurve, affine_weight,
                                    curve_from_spec, evaluate_curve,
                                    expflat_oracle, expflat_phi_derivative,
                                    finite_difference, monomial_oracle,
                                    normalize_domain, poly_oracle,
                                    validate_monotone)
from restriction_lab.report import CapabilityError, ConfigError, DomainError


def test_evaluate_curve_structure(moment_curve_3):
    t = 0.7
    g = evaluate_curve(moment_curve_3, t, 0)
    assert np.allclose(g, [t, t ** 2 / 2, t ** 3 / 6])
    g1 = evaluate_curve(moment_curve_3, t, 1)
    assert np.allclose(g1, [1.0, t, t ** 2 / 2])


def test_affine_weight_cubic_plane_curve():
    # d=2, phi = t^3: w = (6 t)^{1/3}
    c = SimpleCurve(d=2, phi=poly_oracle([0, 0, 0, 1.0], domain=(0.0, 2.0)),
                    label="cubic")
    for t in (0.3, 1.0, 1.7):
        assert affine_weight(c, t) == pytest.approx((6 * t) ** (1 / 3))


def test_affine_weight_homogeneous_arrays():
    # (t, t^2, t^3) has torsion determinant 1 * 2 * 6 = 12 everywhere
    c = HomogeneousCurve(exponents=(1.0, 2.0, 3.0))
    ts = np.linspace(0.1, 0.9, 7)
    w = affine_weight(c, ts)
    assert w == pytest.approx(np.full(7, 12.0 ** (1 / 6)), rel=1e-12)
    assert np.array_equal(w, [affine_weight(c, t) for t in ts])


def test_homogeneous_curve_basics():
    c = HomogeneousCurve(exponents=(1.0, 2.0, 3.0))
    assert c.d == 3
    assert c.homogeneous_dimension == 6.0
    assert np.allclose(c.point(0.5), [0.5, 0.25, 0.125])
    # derivative via falling factorials
    assert c.derivative(0.5, 1) == pytest.approx([1.0, 1.0, 0.75])


def test_oracle_capability_and_domain_errors():
    orc = monomial_oracle(4.0, domain=(0.0, 1.0), max_order=4)
    with pytest.raises(CapabilityError):
        orc(0.5, 5)
    with pytest.raises(DomainError):
        orc(1.5, 1)


def test_normalize_domain_rescales_derivatives():
    c = SimpleCurve(d=3, phi=monomial_oracle(4.0, domain=(0.0, 2.0)),
                    label="m4")
    cn = normalize_domain(c)
    assert cn.domain[1] == pytest.approx(1.0)
    for k in range(4):
        assert cn.phi(0.4, k) == pytest.approx(2 ** k * c.phi(0.8, k))


def test_validate_monotone(quartic_curve):
    assert validate_monotone(quartic_curve).passed
    wiggly = SimpleCurve(d=3, phi=poly_oracle([0, 1, -1, 0.1],
                                              domain=(0.0, 1.0)),
                         label="wiggly")
    assert not validate_monotone(wiggly).passed


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(2.5, 8.0), k=st.integers(0, 3),
       t=st.floats(0.2, 0.9))
def test_monomial_oracle_matches_finite_differences(beta, k, t):
    orc = monomial_oracle(beta, domain=(0.0, 1.0))
    if k == 0:
        assert orc(t, 0) == pytest.approx(t ** beta)
    else:
        fd = finite_difference(orc, t, k)
        assert orc(t, k) == pytest.approx(fd, rel=1e-5, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(st.floats(-2, 2), min_size=4, max_size=7),
       k=st.integers(1, 3), t=st.floats(-0.8, 0.8))
def test_poly_oracle_matches_finite_differences(coeffs, k, t):
    orc = poly_oracle(coeffs, domain=(-1.0, 1.0))
    fd = finite_difference(orc, t, k, step=1e-6)
    assert orc(t, k) == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_expflat_first_derivative_closed_form():
    # phi'(t) = beta exp(-t^{-beta}) t^{-(beta+1)}
    for beta in (1.0, 2.0):
        for t in (0.4, 0.9):
            expect = beta * math.exp(-t ** -beta) * t ** (-(beta + 1))
            assert expflat_phi_derivative(beta, 1, t) == pytest.approx(expect)


def test_expflat_domain_error():
    with pytest.raises(DomainError):
        expflat_phi_derivative(1.0, 2, -0.1)


def test_expflat_oracle_order_zero():
    orc = expflat_oracle(1.0, domain=(0.05, 2.0))
    assert orc(0.5, 0) == pytest.approx(math.exp(-2.0))


def test_curve_from_spec_kinds():
    m = curve_from_spec({"kind": "monomial", "beta": 4.0, "d": 3,
                         "domain": [0.0, 1.0]})
    assert m.d == 3 and m.phi(0.5, 0) == pytest.approx(0.5 ** 4)
    e = curve_from_spec({"kind": "exp-flat", "beta": 2.0, "d": 3,
                         "domain": [0.1, 1.0]})
    assert e.phi(0.5, 0) == pytest.approx(math.exp(-4.0))
    p = curve_from_spec({"kind": "poly-phi", "coeffs": [0, 0, 0, 1.0],
                         "d": 3, "domain": [0.0, 1.0]})
    assert p.phi(0.5, 3) == pytest.approx(6.0)
    hom = curve_from_spec({"kind": "homogeneous", "exponents": [1.0, 2.5]})
    assert hom.homogeneous_dimension == pytest.approx(3.5)
    fl = curve_from_spec({"kind": "flatten",
                          "base": {"kind": "monomial", "beta": 4.0},
                          "steps": 1, "variant": "exp", "d": 3,
                          "domain": [0.0, 1.0]})
    assert fl.phi(0.5, 3) == pytest.approx(
        2.0 * math.exp(-1.0 / (24 * 0.5)))


def test_curve_from_spec_validation():
    with pytest.raises(ConfigError):
        curve_from_spec({"kind": "nope"})
    with pytest.raises(ConfigError):
        curve_from_spec({"kind": "monomial", "beta": 3.0, "d": 7})
    # explicit override admits larger d
    big = curve_from_spec({"kind": "monomial", "beta": 8.0, "d": 7,
                           "allow_large_d": True})
    assert big.d == 7
