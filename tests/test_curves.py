import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restriction_lab.curves import (CURVE, DerivativeOracle,
                                    HomogeneousCurve, SimpleCurve,
                                    affine_weight, curve_from_spec,
                                    expflat_oracle,
                                    expflat_phi_derivative,
                                    finite_difference, monomial_oracle,
                                    poly_oracle, poly_rows,
                                    validate_monotone)
from restriction_lab.report import ConfigError, DomainError


def test_simple_curve_jet_structure(moment_curve_3):
    t = 0.7
    g = moment_curve_3.jet(t)
    assert g.shape == (3,)
    assert np.allclose(g, [t, t ** 2 / 2, t ** 3 / 6])
    assert np.allclose(moment_curve_3.jet(t, 1), [1.0, t, t ** 2 / 2])
    # the components below order k vanish; phi^(3) = 1 for t^3/6
    assert np.array_equal(moment_curve_3.jet(t, 3), [0.0, 0.0, 1.0])
    ts = np.array([[0.2, 0.7], [1.1, 1.9]])
    for k in range(4):
        rows = moment_curve_3.jet(ts, k)
        assert rows.shape == (2, 2, 3)
        for idx in np.ndindex(ts.shape):
            assert np.allclose(rows[idx], moment_curve_3.jet(ts[idx], k))


def test_simple_curve_jet_keeps_the_power_of_its_argument(moment_curve_3):
    # a float is raised by Python's power, an array by numpy's (whose
    # square is exact); jet does not coerce one into the other
    ts = np.random.default_rng(3).uniform(0.0, 2.0, 2000)
    arr = moment_curve_3.jet(ts)
    assert np.array_equal(arr[:, 1], ts ** 2 / 2)
    assert [moment_curve_3.jet(t)[1] for t in ts.tolist()] == [
        t ** 2 / 2 for t in ts.tolist()]


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
    assert np.allclose(c.jet(0.5), [0.5, 0.25, 0.125])
    # derivative via falling factorials
    assert c.jet(0.5, 1) == pytest.approx([1.0, 1.0, 0.75])
    assert c.jet(0.5, 3) == pytest.approx([0.0, 0.0, 6.0])
    ts = np.linspace(0.1, 0.9, 5)
    # k = 0 broadcasts the powers against all exponents at once
    assert np.array_equal(c.jet(ts), ts[:, None] ** np.array([1.0, 2.0, 3.0]))
    assert c.jet(ts, 2).shape == (5, 3)


def test_homogeneous_jet_columns_with_a_zero_factorial_are_zero_at_0():
    # (t, t^2, t^3): the column of t from k = 2 and that of t^2 from k = 3
    # have c = 0, so they take no negative power of t = 0
    c = HomogeneousCurve(exponents=(1.0, 2.0, 3.0))
    assert np.array_equal(c.jet(0.0, 2), [0.0, 2.0, 0.0])
    assert np.array_equal(c.jet(np.zeros(2), 3), [[0.0, 0.0, 6.0]] * 2)


@pytest.mark.parametrize("exponents, k", [((-1.0, 1.0), 0),
                                          ((0.5, 1.0), 1),
                                          ((1.0, 2.5), 3)])
def test_homogeneous_jet_refuses_a_negative_power_at_0(exponents, k):
    c = HomogeneousCurve(exponents=exponents)
    with pytest.raises(DomainError, match="t > 0 where a - k < 0"):
        c.jet(np.array([0.0, 0.5]), k)
    assert np.all(np.isfinite(c.jet(np.array([1e-3, 0.5]), k)))


def test_homogeneous_jet_refuses_a_t_beyond_its_domain():
    c = HomogeneousCurve(exponents=(1.0, 2.0, 3.0), domain=(0.5, 2.0))
    # within a relative 1e-12 of the ends, and not clamped
    assert c.jet(2.0 + 1e-12)[0] == 2.0 + 1e-12
    assert c.jet(0.5 - 1e-12)[0] == 0.5 - 1e-12
    for t in (3.0, 0.4, np.array([0.5, 2.1])):
        with pytest.raises(DomainError, match="outside domain"):
            c.jet(t)
    # a t < 0 within the tolerance of the end 0
    with pytest.raises(DomainError, match="needs t >= 0"):
        HomogeneousCurve(exponents=(0.5, 1.0)).jet(-1e-13)


def test_homogeneous_curve_needs_a_domain_in_the_half_line():
    with pytest.raises(ConfigError, match=r"must lie in \[0, inf\)"):
        curve_from_spec({"kind": "homogeneous", "exponents": [0.5, 1.0],
                         "domain": [-1e-3, 1.0]})


def test_oracle_contract():
    orc = monomial_oracle(4.5, domain=(0.0, 1.0))
    assert type(orc(0.5, 2)) is float
    assert type(orc(np.float64(0.5), 2)) is float
    for bad in (1.5, np.array([0.2, 1.5]), np.array([np.nan, -0.5])):
        with pytest.raises(DomainError) as err:
            orc(bad, 1)
        assert str(err.value) == f"t={bad} outside domain (0.0, 1.0)"
    empty = orc(np.array([]), 1)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    assert math.isnan(orc(math.nan, 1))
    vals = orc(np.array([[0.5, np.nan]]), 1)
    assert vals.shape == (1, 2)
    assert vals[0, 0] == orc(0.5, 1) and np.isnan(vals[0, 1])
    # points within the 1e-12 tolerance of an end are clamped as np.clip
    # clamps them; fn sees exactly the clamped points
    ident = DerivativeOracle(domain=(0.0, 2.0), fn=lambda t, k: t)
    eps = 2.0 * 1e-9
    t = np.array([-1e-12, 0.0, 1e-12, 1.0, 2.0 - 1e-12, 2.0, 2.0 + 1e-12])
    assert np.array_equal(ident(t, 0), np.clip(t, eps, 2.0 - eps))
    for x in t:
        assert ident(x, 0) == float(np.clip(x, eps, 2.0 - eps))


_FLAT_SPEC = {"kind": "flatten", "d": 3, "domain": [0.0, 1.0],
              "base": {"kind": "monomial", "beta": 4.05}}


@pytest.mark.parametrize("phi", [
    monomial_oracle(4.05), monomial_oracle(2.0), poly_oracle([1.0, 2.0]),
    expflat_oracle(1.5),
    curve_from_spec(_FLAT_SPEC).phi,
    curve_from_spec({**_FLAT_SPEC, "steps": 2}).phi,
    curve_from_spec({**_FLAT_SPEC, "variant": "log", "base": {
        "kind": "poly-phi", "coeffs": [0.0, 20.0, 0.0, 10.0]}}).phi],
    ids=["monomial", "monomial-zero-column", "poly-phi", "exp-flat",
         "flatten-exp", "flatten-exp-twice", "flatten-log"])
def test_oracle_fn_returns_a_new_array(phi):
    # a caller may overwrite what fn returns: the flattening integrands
    # divide, exponentiate and scale it in place
    for k in range(4):
        t = np.linspace(0.2, 0.9, 6).reshape(2, 3)
        before = t.copy()
        out = phi.fn(t, k)
        assert isinstance(out, np.ndarray) and out.shape == t.shape
        assert not np.shares_memory(out, t)
        assert np.array_equal(t, before)
        want = out.copy()
        out *= 2.0
        assert np.array_equal(phi.fn(t, k), want)


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


def test_poly_oracle_repeated_calls_match_fresh_derivatives():
    coeffs = [0.3, -1.0, 2.0, 0.5, -0.25, 0.125]
    orc = poly_oracle(coeffs, domain=(-1.0, 1.0))
    poly = np.polynomial.Polynomial(coeffs)
    t = np.linspace(-0.9, 0.9, 7)
    for _ in range(2):
        for k in range(max(5, len(coeffs)) + 1):
            assert np.array_equal(orc(t, k), poly.deriv(k)(t))
            assert orc(0.25, k) == float(poly.deriv(k)(0.25))


def _bits(x):
    """Type, shape and bytes of a value: -0.0 and NaN compare too."""
    return type(x), np.shape(x), np.asarray(x, dtype=float).tobytes()


HORNER_COEFFS = [
    [2.5],
    [-1.5, 0.25],
    [0.3, -1.0, 2.0, 0.5, -0.25, 0.125],
    [-0.0, 3.0, 0.0, -7.0],
    [1e300, -3.0, 1e-300, 1e10, -1e-10, 5.0, 0.0, 1.0],
    [1, 0, -2],  # integers, as a JSON config gives them
]
HORNER_POINTS = [
    0.37, -0.0, 0.0, math.nan, math.inf, -2.5, 7, np.float64(1.75),
    np.array(-0.0), np.array(0.6), np.array([]), np.zeros((2, 0)),
    np.array([-0.0, 0.0, math.nan, -math.inf, 1e-320, -3.3]),
    np.linspace(-4.0, 4.0, 24).reshape(2, 3, 4),
]


@pytest.mark.parametrize("coeffs", HORNER_COEFFS,
                         ids=[str(i) for i in range(len(HORNER_COEFFS))])
def test_poly_oracle_horner_equals_numpy_polynomial(coeffs):
    # fn by itself sees every point unclamped; the oracle clamps first
    orc = poly_oracle(coeffs, domain=(-5.0, 5.0))
    poly = np.polynomial.Polynomial(coeffs)
    for k in range(max(5, len(coeffs)) + 1):
        ref = poly.deriv(k) if k else poly
        for x in HORNER_POINTS:
            with np.errstate(invalid="ignore", over="ignore"):  # inf * 0
                got, want = orc.fn(x, k), ref(np.asarray(x, dtype=float))
            assert _bits(got) == _bits(want), (k, x)
        for x in (0.37, -0.0, np.array([[-0.0, 4.5], [math.nan, -5.0]])):
            clamped = np.clip(x, -5.0 + 1e-8, 5.0 - 1e-8)
            ref_val = ref(clamped)
            assert _bits(orc(x, k)) == _bits(
                float(ref_val) if np.ndim(x) == 0 else ref_val)


def test_poly_oracle_needs_a_coefficient():
    with pytest.raises(ConfigError):
        poly_oracle([])


def test_poly_rows_equal_one_oracle_per_row():
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(5, 6))
    coeffs[1, 0] = -0.0
    x = rng.uniform(-5.0, 5.0, size=(5, 3, 4))
    x[0, 0, :3] = -0.0, math.nan, 5.0 + 1e-12  # the last is clamped
    oracles = [poly_oracle(c, (-5.0, 5.0)) for c in coeffs]
    for k in range(7):  # 6 and up: the coefficients c[0] * 0
        top = poly_rows(coeffs, (-5.0, 5.0), k)
        block = top(x[1:4], slice(1, 4))
        picked = top(x[[4, 0]], np.array([4, 0]))
        for j in range(5):
            want = _bits(oracles[j](x[j], k))
            assert _bits(top(x[j], j)) == want
            if 1 <= j < 4:
                assert _bits(block[j - 1]) == want
        assert _bits(picked[0]) == _bits(oracles[4](x[4], k))
        assert _bits(picked[1]) == _bits(oracles[0](x[0], k))
    # the oracle's domain check, with its message
    bad = x[1:3] + 0.5
    with pytest.raises(DomainError) as err:
        top(bad, slice(1, 3))
    assert str(err.value) == f"t={bad} outside domain (-5.0, 5.0)"


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
    assert hom.exponents == (1.0, 2.5) and hom.d == 2
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


def test_flatten_base_may_repeat_but_not_change_d_and_domain():
    base = {"kind": "monomial", "beta": 6, "d": 3, "domain": [0, 1]}
    fl = curve_from_spec({"kind": "flatten", "base": base})
    assert fl.d == 3 and fl.domain == (0.0, 1.0)
    for key, value in (("d", 5), ("domain", [0.0, 0.5])):
        with pytest.raises(ConfigError, match=f"the base's {key} "):
            curve_from_spec({"kind": "flatten", "base": {**base, key: value}})


_M3 = {"kind": "monomial", "beta": 4.0, "d": 3}


@pytest.mark.parametrize("spec, message", [
    # d = 3.5 once became 3 without a word
    ({**_M3, "d": 3.5}, "'d' must be a whole number, got 3.5"),
    ({**_M3, "d": 6}, "'d' must be at most 5, got 6"),
    ({**_M3, "d": math.nan}, "'d' must be a finite number, got nan"),
    # steps = -1 once flattened 0 times and PASSed
    ({"kind": "flatten", "base": _M3, "steps": -1},
     "'steps' must be at least 1, got -1"),
    ({"kind": "flatten", "base": {**_M3, "beta": math.inf}},
     "'beta' must be a finite number, got inf"),
    ({"kind": "exp-flat", "beta": -math.inf},
     "'beta' must be a finite number, got -inf"),
    # a missing beta once leaked a KeyError
    ({"kind": "monomial", "d": 3},
     "curve spec 'monomial': missing required key 'beta'"),
    ({"kind": "poly-phi", "coeffs": [0.0, math.nan]},
     r"'coeffs\[1\]' must be a finite number, got nan"),
    # a one-point domain once PASSed validate-monotone with estimate 0.0
    ({**_M3, "domain": [0.5, 0.5]},
     r"'domain' must be an interval \[a, b\] with a < b, got \[0.5, 0.5\]"),
    ({"kind": "flatten", "base": _M3, "domain": [1.0, 0.0]},
     r"'domain' must be an interval \[a, b\] with a < b, got \[1.0, 0.0\]"),
])
def test_curve_spec_numbers_are_checked_before_any_curve(spec, message):
    with pytest.raises(ConfigError, match=message):
        CURVE.parse(spec)
