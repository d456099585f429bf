import math
from itertools import combinations_with_replacement

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restriction_lab import conditions
from restriction_lab.conditions import (build_flattened, check_phicond,
                                        estimate_A, exponent_calculator)
from restriction_lab.curves import (DerivativeOracle, SimpleCurve,
                                    expflat_phi_derivative,
                                    finite_difference, monomial_oracle,
                                    poly_oracle)
from restriction_lab.report import ConfigError, DomainError


def _top_derivative_curve(d, fn, domain=(0.0, 1.0)):
    """Curve whose phi^(d) equals fn; lower orders are unused here."""
    return SimpleCurve(d=d, phi=DerivativeOracle(domain=domain, max_order=d,
                                                 fn=lambda t, k: fn(t)),
                       label="custom-top")


def test_estimate_A_monomial_GM_is_one():
    c = SimpleCurve(d=3, phi=monomial_oracle(4.5, domain=(0.0, 1.0)),
                    label="m")
    est = estimate_A(c, "GM", 10)
    assert est.constant == pytest.approx(1.0, abs=1e-9)


def test_estimate_A_exponential_cases():
    exp_top = _top_derivative_curve(2, np.exp)
    # GM of exponentials equals the exponential of the AM: constant 1
    assert estimate_A(exp_top, "AM", 10).constant == pytest.approx(
        1.0, abs=1e-9)
    # GM-mean denominator on (0,1): sup is e^{1/2} at the endpoints
    est = estimate_A(exp_top, "GM", 16)
    assert est.constant == pytest.approx(math.sqrt(math.e), rel=1e-3)


@settings(max_examples=15, deadline=None)
@given(beta=st.floats(3.0, 8.0), scale=st.floats(0.1, 10.0))
def test_estimate_A_at_least_one_and_scale_invariant(beta, scale):
    d = 3
    top = _top_derivative_curve(d, lambda t: np.maximum(t, 1e-12) ** beta)
    scaled = _top_derivative_curve(
        d, lambda t: scale * np.maximum(t, 1e-12) ** beta)
    a1 = estimate_A(top, "AM", 6).constant
    a2 = estimate_A(scaled, "AM", 6).constant
    assert a1 >= 1.0 - 1e-12
    assert a1 == pytest.approx(a2, rel=1e-9)


def _ratio_per_tuple(curve, s, variant):
    """The mean-value ratio of one tuple by scalar numpy reductions: the
    reference the array route must match bit for bit."""
    d = curve.d
    vals = curve.phi(s, d)
    if np.any(vals <= 0):
        raise DomainError("phi^(d) <= 0 inside the simplex sweep")
    gm = float(np.exp(np.mean(np.log(vals))))
    center = float(np.mean(s)) if variant == "AM" else float(
        np.exp(np.mean(np.log(s))))
    return gm / curve.phi(center, d)


def _estimate_A_per_tuple(curve, variant, grid_size):
    """estimate_A as a loop over simplex tuples and golden-section points,
    one ratio at a time."""
    a, b = curve.domain
    inset = 1e-6 * (b - a)
    grid = conditions._usable_grid(
        curve, np.linspace(a + inset, b - inset, grid_size))
    best, best_s = -math.inf, None
    for combo in combinations_with_replacement(range(len(grid)), curve.d):
        s = grid[list(combo)]
        r = _ratio_per_tuple(curve, s, variant)
        if r > best:
            best, best_s = r, s
    width = (b - a) / (grid_size - 1)
    s = best_s.copy()
    best = _ratio_per_tuple(curve, s, variant)
    golden = conditions._GOLDEN
    for _ in range(2):
        for i in range(len(s)):
            lo = max(a, s[i] - width, s[i - 1] if i > 0 else a)
            hi = min(b, s[i] + width, s[i + 1] if i + 1 < len(s) else b)
            if hi - lo <= 0:
                continue
            x1 = hi - golden * (hi - lo)
            x2 = lo + golden * (hi - lo)

            def val(x):
                t = s.copy()
                t[i] = x
                return _ratio_per_tuple(curve, t, variant)

            f1, f2 = val(x1), val(x2)
            for _ in range(40):
                if f1 < f2:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + golden * (hi - lo)
                    f2 = val(x2)
                else:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - golden * (hi - lo)
                    f1 = val(x1)
            xstar = 0.5 * (lo + hi)
            fstar = val(xstar)
            if fstar > best:
                best = fstar
                s[i] = xstar
    return best, [float(x) for x in s]


@pytest.mark.parametrize("grid_size", [6, 10])
@pytest.mark.parametrize("variant", ["AM", "GM"])
def test_estimate_A_array_route_equals_per_tuple_loop(variant, grid_size):
    quartic = SimpleCurve(d=3, phi=monomial_oracle(4.0, domain=(0.0, 1.0)),
                          label="m4")
    curves = [
        quartic,
        SimpleCurve(d=3, phi=poly_oracle([0, 0, 0, 0.5, 1.0, 0.3],
                                         domain=(0.0, 1.0)), label="poly"),
        build_flattened(quartic, "exp"),
    ]
    if variant == "AM":  # GM rejects a domain through 0 (test below)
        curves.append(SimpleCurve(d=3, phi=poly_oracle(
            [0, 0, 0, 1.0, 0.1], domain=(-1.0, 1.0)), label="signs"))
    for curve in curves:
        est = estimate_A(curve, variant, grid_size)
        best, s = _estimate_A_per_tuple(curve, variant, grid_size)
        assert est.constant == best
        assert est.attained_at["s"] == s


def test_estimate_A_GM_rejects_nonpositive_nodes():
    # the GM centre of a nonpositive node is undefined; the sup used to be
    # taken silently over the positive nodes only (1.0649477893954908)
    c = SimpleCurve(d=3, phi=poly_oracle([0, 0, 0, 1.0, 0.1],
                                         domain=(-1.0, 1.0)), label="signs")
    with pytest.raises(DomainError, match=r"GM condition needs positive "
                       r"nodes; the grid holds t = -0\.99999"):
        estimate_A(c, "GM", 10)
    assert estimate_A(c, "AM", 10).constant > 1.0


def test_estimate_A_validation():
    c = SimpleCurve(d=3, phi=poly_oracle([0, 0, 0, -1.0], domain=(0.0, 1.0)),
                    label="neg")
    with pytest.raises(DomainError):
        estimate_A(c, "GM", 6)
    good = SimpleCurve(d=3, phi=monomial_oracle(4.0, domain=(0.0, 1.0)),
                       label="m")
    with pytest.raises(ConfigError):
        estimate_A(good, "XY", 6)


def test_check_phicond_linear_case(moment_curve_3):
    # phi^(d-1) = t^2/2... for the moment curve phi'' = t, so the
    # difference quotient at rho = 1 is identically 1
    est = check_phicond(moment_curve_3, 1.0 / 6.0, 48)
    assert est.passed
    assert est.attained_at["inf"] == pytest.approx(1.0, rel=1e-9)
    assert est.constant == pytest.approx(1.0, rel=1e-9)


def test_check_phicond_alpha_validation(moment_curve_3):
    with pytest.raises(ConfigError):
        check_phicond(moment_curve_3, 0.5, 16)


def test_flattened_top_derivative_formula(quartic_curve):
    flat = build_flattened(quartic_curve, "exp")
    for t in (0.2, 0.7):
        expect = 2.0 * math.exp(-1.0 / quartic_curve.phi(t, 3))
        assert flat.phi(t, 3) == pytest.approx(expect, rel=1e-12)


def test_flattened_lower_derivatives_consistent(quartic_curve):
    flat = build_flattened(quartic_curve, "exp")
    for k in (1, 2):
        fd = finite_difference(flat.phi, 0.6, k, step=1e-5)
        assert flat.phi(0.6, k) == pytest.approx(fd, rel=1e-6, abs=1e-12)


def _flattened_mp(steps, k, t, dps=30):
    """psi^(k)(t), k < 3, of the ``steps``-fold exp flattening of t^4 at
    d = 3 by the Cauchy formula (2/m!) int_0^t (t-u)^m exp(-1/f(u)) du,
    m = 2 - k, f the previous member's top derivative, in mpmath."""
    with mpmath.workdps(dps):
        tt = mpmath.mpf(t)
        m = 2 - k

        def integrand(u):
            f = 24 * u
            for _ in range(steps - 1):
                f = 2 * mpmath.exp(-1 / f)
            return (tt - u) ** m * mpmath.exp(-1 / f)

        # below lo, f < 1/150 and the integrand is under exp(-150)
        lo = 1 / mpmath.mpf(3600) if steps == 1 else 1 / (
            24 * mpmath.log(300))
        pieces = [lo + (tt - lo) * x for x in (0, 0.05, 0.15, 0.3, 0.5,
                                               0.75, 1)]
        return float(2 / mpmath.factorial(m) * mpmath.quad(integrand, pieces))


def test_flattened_oracle_array_call_matches_points_and_mpmath(quartic_curve):
    ts = np.linspace(0.3, 0.95, 5)
    for steps in (1, 2):
        flat = quartic_curve
        for _ in range(steps):
            flat = build_flattened(flat, "exp")
        for k in range(3):
            vals = flat.phi(ts, k)
            assert np.array_equal(vals, [flat.phi(t, k) for t in ts])
            ref = [_flattened_mp(steps, k, t) for t in ts]
            assert vals == pytest.approx(ref, rel=1e-8, abs=0)


def test_flattened_log_variant_validation(quartic_curve):
    # phi^(3) = 24 t dips below e near zero: rejected
    with pytest.raises(ConfigError):
        build_flattened(quartic_curve, "log")
    shifted = SimpleCurve(
        d=3, phi=poly_oracle([0, 20.0, 0, 10.0], domain=(0.0, 1.0)),
        label="steep")
    flat = build_flattened(shifted, "log")
    assert flat.phi(0.5, 3) == pytest.approx(2.0 * math.log(60.0), rel=1e-12)


def test_expflat_derivatives_match_finite_differences():
    from restriction_lab.curves import expflat_oracle
    orc = expflat_oracle(2.0, domain=(0.05, 3.0))
    for d in (2, 3):
        for t in (0.4, 0.8):
            env = (2.0 ** d * math.exp(-t ** -2.0) * t ** (-d * 3.0))
            fd = finite_difference(orc, t, d)
            assert abs(expflat_phi_derivative(2.0, d, t) - fd) <= 1e-5 * env


def test_exponent_calculator_known_values():
    rec = exponent_calculator(3, p=9 / 8, alpha=1 / 6)
    assert rec["p_d"] == 7 / 6
    assert rec["Q_paired"] == pytest.approx(1.5, abs=1e-12)
    assert rec["q_alpha"] == pytest.approx(7.0)
    assert rec["delta"] == pytest.approx(0.2, abs=1e-12)
    assert abs(rec["identity_eta"]) < 1e-14
    assert abs(rec["identity_s"]) < 1e-14
    rec2 = exponent_calculator(3, s=2.0)
    assert rec2["q_lorentz"] == pytest.approx((7 / 6) * 2 / 3)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 5), u=st.floats(0.01, 0.99))
def test_theta_in_unit_interval(d, u):
    p_d = (d * d + d + 2) / (d * d + d)
    p = 1 + u * (p_d - 1)
    rec = exponent_calculator(d, p=p)
    assert 0 < rec["theta"] < 1


def test_exponent_calculator_validation():
    with pytest.raises(ConfigError):
        exponent_calculator(3, p=2.0)
    with pytest.raises(ConfigError):
        exponent_calculator(3, alpha=0.5)
    with pytest.raises(ConfigError):
        exponent_calculator(1)
