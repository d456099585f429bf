import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from restriction_lab.curves import SimpleCurve, poly_oracle
from restriction_lab.jacobian import jacobian_direct, jacobian_integral
from restriction_lab.vandermonde import (GapVector, check_lin_lemma,
                                         check_psi_lower_bound,
                                         check_tail_inequalities,
                                         check_vandermonde_integration,
                                         psi, psi_mean_tail_ratio,
                                         psi_mean_tail_ratio_quad,
                                         vandermonde, vandermonde_arr)

# tail-mass ratios frozen from the independent pointwise-psi quadrature
# route (they cross-check the determinant evaluation below)
FROZEN_TAIL_D3 = 0.23011363636363633  # t=0.2, h=(0.5, 1.1)
FROZEN_TAIL_D4 = 0.04203691045796307  # t=0.2, h=(0.5, 1.1, 0.3)

gaps = st.floats(0.05, 2.0)


def test_vandermonde_known_value():
    assert vandermonde([0.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert vandermonde([0.0, 1.0]) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=5))
def test_vandermonde_array_route_agrees(xs):
    x = np.asarray(xs)
    assert vandermonde_arr(x[None, :])[0] == pytest.approx(
        vandermonde(xs), rel=1e-12, abs=1e-12)


def test_gap_vector_prefix_sums():
    g = GapVector.of((0.5, 1.1, 0.3))
    assert np.allclose(g.kappa, [0.0, 0.5, 1.6, 1.9])
    assert g.v == pytest.approx(vandermonde(g.kappa))


def test_psi_d2_is_indicator():
    h = (0.7,)
    assert psi(2, 0.3, h) == 1.0
    assert psi(2, 0.8, h) == 0.0
    assert psi(2, -0.1, h) == 0.0


def test_psi3_integral_matches_vandermonde():
    # int Psi_3 = v(h) / 1!2! ... the d=3 normalization is v(h)/2
    for h in ((1.0, 1.0), (0.5, 1.3)):
        g = GapVector.of(h)
        total, _ = quad(lambda u: psi(3, u, g), 0, g.kappa[-1])
        assert total == pytest.approx(g.v / 2.0, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(3, 4), t=st.floats(-0.5, 3.0),
       h=st.lists(gaps, min_size=3, max_size=3))
def test_psi_nonnegative_and_supported(d, t, h):
    g = GapVector.of(h[: d - 1])
    val = psi(d, t, g)
    assert val >= 0.0
    if t < 0 or t > g.kappa[-1]:
        assert val == 0.0


def _psi_divided_difference(d, u, h):
    """Psi_d(u; h) from the Curry-Schoenberg definition of the unit-mass
    B-spline, M(u) = (d-1) [kappa_1, ..., kappa_d] (. - u)_+^(d-2),
    with the divided difference expanded over distinct knots in mpmath."""
    with mpmath.workdps(50):
        kappa = [mpmath.mpf(0)]
        for hj in h:
            kappa.append(kappa[-1] + mpmath.mpf(hj))
        u = mpmath.mpf(u)
        M = (d - 1) * mpmath.fsum(
            max(kj - u, 0) ** (d - 2)
            / mpmath.fprod(kj - ki for ki in kappa if ki != kj)
            for kj in kappa)
        v = mpmath.fprod(kappa[j] - kappa[i]
                         for j in range(d) for i in range(j))
        return float(v * M / math.prod(math.factorial(i)
                                       for i in range(1, d)))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_psi_matches_divided_difference_definition(d):
    h = (0.5, 1.1, 0.3, 0.7, 0.9)[: d - 1]
    for frac in (0.03, 0.2, 0.37, 0.5, 0.64, 0.81, 0.97):
        u = frac * sum(h)
        assert psi(d, u, h) == pytest.approx(
            _psi_divided_difference(d, u, h), rel=1e-12)


def test_psi_d6_mass_and_jacobian_routes():
    d = 6
    g = GapVector.of((0.4, 0.25, 0.6, 0.35, 0.5))
    total, _ = quad(lambda u: psi(d, u, g), 0.0, g.kappa[-1],
                    points=g.kappa[1:-1], epsabs=0.0, epsrel=1e-13)
    assert total == pytest.approx(
        g.v / math.prod(math.factorial(i) for i in range(1, d)), rel=1e-10)
    coeffs = [0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.7, -0.3, 0.05]
    curve = SimpleCurve(d=d, phi=poly_oracle(coeffs, domain=(-3.0, 3.0)),
                        label="p6")
    J1 = jacobian_direct(curve, -0.8, g)
    J2 = jacobian_integral(curve, -0.8, g)
    assert J2 == pytest.approx(J1, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 1.0), h1=gaps)
def test_tail_ratio_d2_is_half(t, h1):
    assert psi_mean_tail_ratio(2, t, (h1,)) == pytest.approx(0.5, abs=1e-12)


def test_tail_ratio_frozen_values():
    assert psi_mean_tail_ratio(3, 0.2, (0.5, 1.1)) == pytest.approx(
        FROZEN_TAIL_D3, rel=1e-10)
    assert psi_mean_tail_ratio(4, 0.2, (0.5, 1.1, 0.3)) == pytest.approx(
        FROZEN_TAIL_D4, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(3, 4), h=st.lists(gaps, min_size=3, max_size=3))
def test_tail_ratio_routes_agree(d, h):
    h = tuple(h[: d - 1])
    det_route = psi_mean_tail_ratio(d, 0.3, h)
    quad_route = psi_mean_tail_ratio_quad(d, 0.3, h)
    assert det_route == pytest.approx(quad_route, rel=1e-8, abs=1e-10)


def test_psi_lower_bound_check(rng):
    samples = [(0.3, tuple(rng.uniform(0.05, 1.0, size=2)))
               for _ in range(100)]
    rep = check_psi_lower_bound(3, samples)
    assert rep.passed
    assert rep.estimate > 0
    # degenerate samples are excluded, not crashed on
    rep2 = check_psi_lower_bound(3, [(0.1, (0.5, 0.5)), (0.0, (0.3, 0.3))])
    assert rep2.passed


def test_vandermonde_integration_identity(rng):
    for n in (3, 4):
        s = np.sort(rng.uniform(0.0, 1.0, size=n))
        rep = check_vandermonde_integration(n, s)
        assert rep.passed, rep.notes


def test_tail_inequalities(rng):
    t = np.sort(rng.uniform(0.0, 2.0, size=3))
    rep = check_tail_inequalities(3, t, delta=0.5)
    assert rep.passed
    for w in rep.witnesses:
        for key, val in w.items():
            if key.startswith("ratio"):
                assert val > 0


def test_lin_lemma_ratio_positive():
    instance = {
        "intervals": [[0.0, 1.0], [2.0, 3.0]],
        "lambdas": [0.5, 0.25],
        "factors": [{"type": "diff", "j": 0, "k": 1},
                    {"type": "upper", "j": 0, "d": 4.0},
                    {"type": "lower", "j": 1, "c": 1.0}],
    }
    rep = check_lin_lemma(instance)
    assert rep.passed
    assert 0 < rep.estimate <= 1.0
