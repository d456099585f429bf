import math
import warnings
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
from restriction_lab.registry import run_check
from restriction_lab.report import ConfigError, DomainError


def _top_derivative_curve(d, fn, domain=(0.0, 1.0)):
    """Curve whose phi^(d) equals fn; lower orders are unused here."""
    return SimpleCurve(d=d, phi=DerivativeOracle(domain=domain,
                                                 fn=lambda t, k: fn(t)),
                       label="custom-top")


def test_estimate_A_monomial_GM_is_one():
    c = SimpleCurve(d=3, phi=monomial_oracle(4.5, domain=(0.0, 1.0)),
                    label="m")
    est = estimate_A(c, "GM", 10)
    assert est.estimate == pytest.approx(1.0, abs=1e-9)


def test_estimate_A_exponential_cases():
    exp_top = _top_derivative_curve(2, np.exp)
    # GM of exponentials equals the exponential of the AM: constant 1
    assert estimate_A(exp_top, "AM", 10).estimate == pytest.approx(
        1.0, abs=1e-9)
    # GM-mean denominator on (0,1): sup is e^{1/2} at the endpoints
    est = estimate_A(exp_top, "GM", 16)
    assert est.estimate == pytest.approx(math.sqrt(math.e), rel=1e-3)


@settings(max_examples=15, deadline=None)
@given(beta=st.floats(3.0, 8.0), scale=st.floats(0.1, 10.0))
def test_estimate_A_at_least_one_and_scale_invariant(beta, scale):
    d = 3
    top = _top_derivative_curve(d, lambda t: np.maximum(t, 1e-12) ** beta)
    scaled = _top_derivative_curve(
        d, lambda t: scale * np.maximum(t, 1e-12) ** beta)
    a1 = estimate_A(top, "AM", 6).estimate
    a2 = estimate_A(scaled, "AM", 6).estimate
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
        assert est.estimate == best
        assert est.witnesses[0]["s"] == s


def _ref_ratio_at(curve, rows, variant):
    """conditions._ratio_at as written with np.mean and np.column_stack."""
    d = curve.d
    center = np.mean(rows, axis=1) if variant == "AM" else np.exp(
        np.mean(np.log(rows), axis=1))
    vals = curve.phi(np.column_stack([rows, center]), d)
    if np.any(vals[:, :d] <= 0):
        raise DomainError("phi^(d) <= 0 inside the simplex sweep")
    gm = np.exp(np.mean(np.log(vals[:, :d]), axis=1))
    return gm / vals[:, d]


@pytest.mark.parametrize("variant", ["AM", "GM"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ratio_at_and_estimate_A_equal_the_np_mean_route(monkeypatch, d,
                                                         variant):
    curves = [
        SimpleCurve(d=d, phi=monomial_oracle(d + 1.5, domain=(0.0, 1.0)),
                    label="m"),
        SimpleCurve(d=d, phi=poly_oracle([0.0] * d + [0.5, 1.0, 0.3],
                                         domain=(0.0, 2.0)), label="poly"),
    ]
    rows = np.sort(np.random.default_rng(d).uniform(
        1e-3, 1.0, size=(300, d)), axis=1)
    for curve in curves:
        assert np.array_equal(conditions._ratio_at(curve, rows, variant),
                              _ref_ratio_at(curve, rows, variant))
        for i in range(0, 300, 37):  # one-row calls, as the golden search
            assert np.array_equal(
                conditions._ratio_at(curve, rows[i:i + 1], variant),
                _ref_ratio_at(curve, rows[i:i + 1], variant))
        est = estimate_A(curve, variant, 7)
        with monkeypatch.context() as m:
            m.setattr(conditions, "_ratio_at", _ref_ratio_at)
            ref = estimate_A(curve, variant, 7)
        assert (est.estimate, est.witnesses[0]) == (ref.estimate,
                                                    ref.witnesses[0])


def test_estimate_A_makes_one_oracle_call_per_lookahead():
    # d = 3, grid 10: one call for the usable grid, one for the simplex
    # sweep, one for the best sample, then per coordinate and sweep one
    # for x1 and x2, one per lookahead and one for the midpoint (63); one
    # call a golden-section step made 261
    quartic = monomial_oracle(4.0, domain=(0.0, 1.0))
    calls = [0]

    def counted(t, k):
        calls[0] += 1
        return quartic.fn(t, k)

    curve = SimpleCurve(d=3, phi=DerivativeOracle(
        domain=quartic.domain, fn=counted),
        label="m4")
    est = estimate_A(curve, "GM", 10)
    assert calls[0] <= 70
    ref = estimate_A(SimpleCurve(d=3, phi=quartic, label="m4"), "GM", 10)
    assert (est.estimate, est.witnesses) == (ref.estimate, ref.witnesses)


def test_golden_search_raises_only_at_points_it_visits(monkeypatch):
    # the lookahead evaluates points the search may never visit, and on
    # the twice-flattened quartic the top derivative underflows to 0 at
    # some of them
    quartic = SimpleCurve(d=3, phi=monomial_oracle(4.0, domain=(0.0, 1.0)),
                          label="m4")
    twice = build_flattened(build_flattened(quartic, "exp"), "exp")
    ratio_at = conditions._ratio_at
    undefined = [0]

    def recorded(*args):
        out = ratio_at(*args)
        undefined[0] += int(np.count_nonzero(np.isnan(out)))
        return out

    monkeypatch.setattr(conditions, "_ratio_at", recorded)
    for grid_size in (6, 10, 14):
        est = estimate_A(twice, "GM", grid_size)
        best, s = _estimate_A_per_tuple(twice, "GM", grid_size)
        assert (est.estimate, est.witnesses[0]["s"]) == (best, s)
    assert undefined[0] > 0
    # the top derivative of this polynomial dips below 0 between the grid
    # points, and the search visits such a point
    dip = SimpleCurve(d=4, phi=poly_oracle(
        [-0.4786384630527245, -0.7213157478486046, -0.5197597723701788,
         0.1602267063174243, -0.3803527272151388, 0.1004418528325065,
         1.9011872000332568, 0.4791181507969435],
        domain=(-0.8406069232018643, 1.8101257883415856)), label="dip")
    for route in (estimate_A, _estimate_A_per_tuple):
        with pytest.raises(DomainError, match="inside the simplex sweep"):
            route(dip, "AM", 3)


def test_estimate_A_GM_rejects_nonpositive_nodes():
    # the GM centre of a nonpositive node is undefined; the sup used to be
    # taken silently over the positive nodes only (1.0649477893954908)
    c = SimpleCurve(d=3, phi=poly_oracle([0, 0, 0, 1.0, 0.1],
                                         domain=(-1.0, 1.0)), label="signs")
    with pytest.raises(DomainError, match=r"GM condition needs positive "
                       r"nodes; the grid holds t = -0\.99999"):
        estimate_A(c, "GM", 10)
    assert estimate_A(c, "AM", 10).estimate > 1.0


def test_estimate_A_validation():
    c = SimpleCurve(d=3, phi=poly_oracle([0, 0, 0, -1.0], domain=(0.0, 1.0)),
                    label="neg")
    with pytest.raises(DomainError):
        estimate_A(c, "GM", 6)
    with pytest.raises(ConfigError, match="'variant' must be one of"):
        run_check({"operation": "estimate-A", "variant": "XY",
                   "grid_size": 6,
                   "curve": {"kind": "monomial", "beta": 4.0, "d": 3}}, 1)


def test_check_phicond_linear_case(moment_curve_3):
    # phi^(d-1) = t^2/2... for the moment curve phi'' = t, so the
    # difference quotient at rho = 1 is identically 1
    est = check_phicond(moment_curve_3, 1.0 / 6.0, 48)
    assert est.passed
    assert est.witnesses[0]["inf"] == pytest.approx(1.0, rel=1e-9)
    assert est.estimate == pytest.approx(1.0, rel=1e-9)


def test_check_phicond_alpha_validation(moment_curve_3):
    with pytest.raises(ConfigError):
        check_phicond(moment_curve_3, 0.5, 16)


def test_check_phicond_refuses_powers_outside_the_doubles(quartic_curve):
    # at alpha = 1e-3, rho = 995: the grid's smallest gap 0.016 to that
    # power is 0, and the pair ratios once divided by 0 and still PASSed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError, match="alpha = 0.001"):
            run_check({"operation": "check-phicond", "alpha": 1e-3,
                       "curve": {"kind": "monomial", "beta": 4.0, "d": 3,
                                 "domain": [0.0, 1.0]}}, 1)
        # on (0, 100) at rho = 195 the gaps are above 1, and the largest
        # to that power overflows
        wide = SimpleCurve(d=3, phi=monomial_oracle(4.0, domain=(0.0, 100.0)))
        with pytest.raises(ConfigError, match="rho = 195"):
            check_phicond(wide, 1 / 200)
        assert check_phicond(quartic_curve, 1 / 6).passed


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


# psi^(k) at t = 0.3, 0.6, 0.9351475 and 1 of t^4.1 on (0, 1) flattened
# by exp, and of 20 t + 10 t^3 by log, once and twice, as float.hex,
# recorded when np.linspace and gl_nodes built integrate_refine's panels
# and np.where the exp integrand.  The 1-step exp psi' at 0.9351475 keeps
# its known 2.0e-7 error: this table pins the values, not their accuracy
_FLAT_BASES = {"exp": monomial_oracle(4.1, domain=(0.0, 1.0)),
               "log": poly_oracle([0, 20.0, 0, 10.0], domain=(0.0, 1.0))}
_FLAT_GOLDEN = {
    ("exp", 1): (
        ("0x1.e3a44f1c285f4p-9", "0x1.5a6acd410a4d7p-5",
         "0x1.7dd125053dd64p-3", "0x1.dbddcf4d2a51bp-3"),
        ("0x1.7073a41ee0db4p-5", "0x1.eae1c11cc3789p-3",
         "0x1.4feca8be877b4p-1", "0x1.85de7587c4554p-1"),
        ("0x1.845220055120fp-2", "0x1.d9c47615f38fep-1",
         "0x1.8ff0c4a4d0c33p+0", "0x1.afe1149af1f5ap+0"),
        ("0x1.bcba0c7818a44p+0", "0x1.df6f70a63e44ap+0",
         "0x1.ebc296bc1833ap+0", "0x1.ed2c22884b445p+0")),
    ("exp", 2): (
        ("0x1.4696fcfd50a56p-9", "0x1.cefd9374a52a6p-6",
         "0x1.f6166a380679ap-4", "0x1.3814989ddbb00p-3"),
        ("0x1.f3b43e3cb85e6p-6", "0x1.44d781be13f16p-3",
         "0x1.b49c0de9d9d56p-2", "0x1.f967d26a9ea38p-2"),
        ("0x1.0522476437ccap-2", "0x1.33e43e120015fp-1",
         "0x1.fea9f432634dcp-1", "0x1.13138a0a86406p+0"),
        ("0x1.1fec1489858d7p+0", "0x1.2c2c9b4ff8ff7p+0",
         "0x1.3037e3c934d52p+0", "0x1.30ac13df96277p+0")),
    ("log", 1): (
        ("0x1.2dde2a7e11f9ap-5", "0x1.2dde2a7e11f9ap-2",
         "0x1.1db8cb0685713p+0", "0x1.5d62524c2e6ebp+0"),
        ("0x1.7955b51d96780p-2", "0x1.7955b51d96780p+0",
         "0x1.ca4e144334e6ep+1", "0x1.0609bdbd8844ep+2"),
        ("0x1.3a7216edfd640p+1", "0x1.3a7216edfd640p+2",
         "0x1.ea16a53638d22p+2", "0x1.0609bdc1edb6dp+3"),
        ("0x1.0609bdc65328bp+3",) * 4),
    ("log", 2): (
        ("0x1.36104c9107defp-6", "0x1.36104c9107defp-3",
         "0x1.257ab414d4b90p-1", "0x1.66deb75ce8835p-1"),
        ("0x1.83945fb549d6cp-3", "0x1.83945fb549d6cp-1",
         "0x1.d6bf877377002p+0", "0x1.0d27098a3262cp+1"),
        ("0x1.42fba51712ddap+0", "0x1.42fba51712ddap+1",
         "0x1.f765019f726d4p+1", "0x1.0d27098eb6632p+2"),
        ("0x1.0d2709933a636p+2",) * 4),
}


@pytest.mark.parametrize("variant", ["exp", "log"])
def test_flattened_oracles_keep_their_values_bit_for_bit(variant):
    ts = np.array([0.3, 0.6, 0.9351475, 1.0])
    flat = SimpleCurve(d=3, phi=_FLAT_BASES[variant])
    for steps in (1, 2):
        flat = build_flattened(flat, variant)
        for k, want in enumerate(_FLAT_GOLDEN[variant, steps]):
            assert [float(v).hex() for v in flat.phi(ts, k)] == list(want)
            # one limit at a time gives the same bits
            assert float(flat.phi(0.9351475, k)).hex() == want[2]


def test_exp_integrand_maps_nonpositive_nan_and_tiny_tops_to_zero():
    # the base's top derivative is t itself, so psi^(3) = 2 exp(-1/t);
    # fn is the oracle's formula without the domain clamp
    base = SimpleCurve(d=3, phi=DerivativeOracle(
        domain=(0.0, 1.0),
        fn=lambda t, k: np.asarray(t, dtype=float) ** (4 - k)
        / math.factorial(4 - k)))
    flat = build_flattened(base, "exp")
    tops = np.array([0.0, -1.0, np.nan, 1e-320, -0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = flat.phi.fn(tops, 3)
    assert np.array_equal(got[:5], np.zeros(5))
    assert got[5] == 2.0 * math.exp(-2.0)


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
