import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restriction_lab.curves import (SimpleCurve, expflat_oracle,
                                    monomial_oracle, poly_oracle)
from restriction_lab.jacobian import (check_offspring_closure,
                                      estimate_sigma, jacobian_at_nodes,
                                      jacobian_direct, jacobian_integral,
                                      offspring_curve,
                                      offspring_decomposition,
                                      offspring_point, sample_admissible,
                                      sigma_ratio, weight_product_bound)
from restriction_lab.report import DomainError
from restriction_lab.vandermonde import GapVector

gaps = st.floats(0.02, 0.4)


def _mp_node_determinant(coeffs, d, t, h):
    """J and the sigma ratio from the node determinant, evaluated in
    50-digit mpmath with the nodes t + kappa formed exactly."""
    with mpmath.workdps(50):
        s = [mpmath.mpf(t)]
        for hj in h:
            s.append(s[-1] + mpmath.mpf(hj))
        c = [mpmath.mpf(x) for x in coeffs]

        def deriv(x, k):
            return mpmath.fsum(c[j] * mpmath.ff(j, k) * x ** (j - k)
                               for j in range(k, len(c)))

        mat = mpmath.matrix(d, d)
        for j, sj in enumerate(s):
            for i in range(d - 1):
                mat[i, j] = sj ** i / mpmath.factorial(i)
            mat[d - 1, j] = deriv(sj, 1)
        J = mpmath.det(mat)
        v = mpmath.fprod(s[j] - s[i] for j in range(d) for i in range(j))
        geo = mpmath.fprod(deriv(sj, d) for sj in s) ** (mpmath.mpf(1) / d)
        return float(J), float(J / (v * geo))


def test_jacobian_d2_closed_form():
    c = SimpleCurve(d=2, phi=poly_oracle([0, 0, 0, 1.0], domain=(0.0, 2.0)),
                    label="cubic")
    t, h = 0.3, 0.6
    expect = c.phi(t + h, 1) - c.phi(t, 1)
    assert jacobian_direct(c, t, (h,)) == pytest.approx(expect)
    assert jacobian_integral(c, t, (h,)) == pytest.approx(expect)


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(st.floats(-1.5, 1.5), min_size=6, max_size=6),
       t=st.floats(-0.5, 0.5), h=st.lists(gaps, min_size=2, max_size=2))
def test_jacobian_routes_agree_d3(coeffs, t, h):
    c = SimpleCurve(d=3, phi=poly_oracle(coeffs, domain=(-3.0, 3.0)),
                    label="p")
    J1 = jacobian_direct(c, t, h)
    J2 = jacobian_integral(c, t, h)
    assert abs(J1 - J2) <= 1e-9 * (1 + abs(J1))


def test_jacobian_routes_agree_nonpolynomial():
    c = SimpleCurve(d=3, phi=expflat_oracle(1.0, domain=(0.1, 2.0)),
                    label="ef")
    J1 = jacobian_direct(c, 0.5, (0.2, 0.3))
    J2 = jacobian_integral(c, 0.5, (0.2, 0.3))
    assert J1 == pytest.approx(J2, rel=1e-8)


@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("scale", [1e-3, 1e-4])
def test_kernel_route_small_gaps_large_t(d, scale):
    # the float determinant of jacobian_direct loses from 2e-6 (d=4,
    # gaps 1e-3) to all digits (d=5, gaps 1e-4) at these points
    coeffs = [0.0] * d + [c / math.factorial(d + j)
                          for j, c in enumerate((1.3, 0.7, 1.9))]
    curve = SimpleCurve(d=d, phi=poly_oracle(coeffs, domain=(0.0, 14.0)),
                        label="positive-poly")
    t, h = 10.0, scale * np.array([1.0, 1.7, 0.6, 1.3])[: d - 1]
    J_ref, sigma_ref = _mp_node_determinant(coeffs, d, t, h)
    assert jacobian_integral(curve, t, h) == pytest.approx(J_ref, rel=1e-10)
    assert sigma_ratio(curve, t, h) == pytest.approx(sigma_ref, rel=1e-10)


def test_kernel_route_near_singular_domain_end():
    # phi^(3) of t^3.5 is 13.1 t^0.5: near t = 0 the first Gauss-Legendre
    # rule does not converge and the panels are bisected
    c = SimpleCurve(d=3, phi=monomial_oracle(3.5, domain=(0.0, 1.0)),
                    label="m")
    for t, h in ((0.015, (0.02, 0.32)), (0.002, (0.05, 0.3))):
        assert jacobian_integral(c, t, h) == pytest.approx(
            jacobian_direct(c, t, h), rel=1e-10)


def test_sigma_ratio_rejects_negative_top_derivative():
    # phi^(3) of exp(-1/t) is negative on (0.21, 0.79)
    c = SimpleCurve(d=3, phi=expflat_oracle(1.0, domain=(0.0, 1.0)),
                    label="ef")
    with pytest.raises(DomainError, match=r"phi\^\(3\) >= 0"):
        sigma_ratio(c, 0.4, (0.1, 0.1))


def test_sigma_ratio_rejects_underflowed_top_derivative():
    # phi'' = exp(-1/t)(1 - 2t)/t^4 of exp(-1/t) underflows to 0 at t = 1e-3
    c = SimpleCurve(d=2, phi=expflat_oracle(1.0, domain=(0.0, 0.4)),
                    label="ef")
    assert c.phi(1e-3, 2) == 0.0
    with pytest.raises(DomainError, match="underflows"):
        sigma_ratio(c, 1e-3, (0.05,))


def test_monomial_closed_form_spot():
    d = 4
    c = SimpleCurve(d=d, phi=poly_oracle([0] * d + [1 / math.factorial(d)],
                                         domain=(0.0, 10.0)),
                    label="mono")
    g = GapVector.of((0.4, 0.9, 0.2))
    pf = math.prod(math.factorial(j) for j in range(1, d))
    assert jacobian_direct(c, 0.6, g) * pf == pytest.approx(g.v, rel=1e-12)


def test_jacobian_at_sorted_nodes_matches_gap_form(moment_curve_3):
    t, h = 0.2, (0.3, 0.5)
    nodes = t + GapVector.of(h).kappa
    assert jacobian_at_nodes(moment_curve_3, nodes) == pytest.approx(
        jacobian_direct(moment_curve_3, t, h))


def test_offspring_point_definition(quartic_curve):
    t, h = 0.1, (0.2, 0.3)
    kappa = GapVector.of(h).kappa
    expect = sum(np.array([s, s ** 2 / 2, s ** 4])
                 for s in (t + kappa))
    assert np.allclose(offspring_point(quartic_curve, t, h), expect)
    with pytest.raises(DomainError):
        offspring_point(quartic_curve, 0.8, (0.2, 0.3))


@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 4), h=st.lists(gaps, min_size=3, max_size=3),
       t=st.floats(0.15, 0.5))
def test_offspring_reconstruction_exact(d, h, t):
    c = SimpleCurve(d=d, phi=expflat_oracle(1.0, domain=(0.05, 3.0)),
                    label="ef")
    h = tuple(h[: d - 1])
    frame = offspring_decomposition(c, h)
    lhs = offspring_point(c, t, h)
    rhs = frame.reconstruct(t)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
    # the matrix is unimodular and the translation has no first or last
    # component
    assert np.linalg.det(frame.matrix) == pytest.approx(1.0)
    assert frame.shift[0] == pytest.approx(0.0, abs=1e-12)
    assert frame.shift[-1] == 0.0


def test_sigma_ratio_moment_curve_is_half(moment_curve_3):
    # J = v(h)/2 and phi''' = 1, so the ratio is 1/2 everywhere
    for t, h in ((0.1, (0.3, 0.2)), (0.5, (0.1, 0.6))):
        assert sigma_ratio(moment_curve_3, t, h) == pytest.approx(0.5)


def test_estimate_sigma_moment_curve(rng, moment_curve_3):
    us = rng.uniform(size=(100, 3))
    rep = estimate_sigma(moment_curve_3, us)
    assert rep.passed
    assert rep.estimate == pytest.approx(0.5, rel=1e-9)


def test_sample_admissible_in_domain(rng, quartic_curve):
    for _ in range(50):
        t, g = sample_admissible(quartic_curve, rng.uniform(size=3))
        a, b = quartic_curve.domain
        assert a <= t and t + g.kappa[-1] <= b + 1e-12


def test_offspring_closure(rng, quartic_curve):
    us = rng.uniform(size=(150, 3))
    rep = check_offspring_closure(quartic_curve, (0.05, 0.08), us)
    assert rep.passed
    assert rep.estimate >= rep.bound - 1e-9


def test_offspring_curve_domain_shrinks(quartic_curve):
    child = offspring_curve(quartic_curve, (0.1, 0.2))
    a, b = child.phi.domain
    hbar = np.mean(GapVector.of((0.1, 0.2)).kappa)
    assert a == pytest.approx(0.0 + hbar)
    assert b == pytest.approx(1.0 - 0.3 + hbar)
    with pytest.raises(DomainError):
        offspring_curve(quartic_curve, (0.5, 0.6))


def test_weight_product_bound(rng, quartic_curve):
    us = rng.uniform(size=(60, 3))
    rep = weight_product_bound(quartic_curve, us)
    assert rep.passed
    assert rep.estimate <= 1e-12
