import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restriction_lab import jacobian
from restriction_lab.curves import (DerivativeOracle, SimpleCurve,
                                    expflat_oracle, monomial_oracle,
                                    poly_oracle, poly_rows)
from restriction_lab.jacobian import (check_offspring_closure,
                                      estimate_sigma,
                                      jacobian_direct, jacobian_integral,
                                      offspring_curve,
                                      offspring_decomposition,
                                      offspring_point, sample_admissible,
                                      sigma_ratio, UnderflowError,
                                      weight_product_bound)
from restriction_lab.quadrature import QuadratureError, gl_nodes
from restriction_lab.registry import run_check
from restriction_lab.report import ConfigError, DomainError, worst_index
from restriction_lab.vandermonde import kappa_of, unit_bspline, vandermonde

gaps = st.floats(0.02, 0.4)


def _J(curve, t, h):
    """jacobian_integral of the one sample (t, h) on ``curve``."""
    return float(jacobian_integral(curve.top, np.array([t], dtype=float),
                                   np.array([h], dtype=float))[0])


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
    assert _J(c, t, (h,)) == pytest.approx(expect)


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(st.floats(-1.5, 1.5), min_size=6, max_size=6),
       t=st.floats(-0.5, 0.5), h=st.lists(gaps, min_size=2, max_size=2))
def test_jacobian_routes_agree_d3(coeffs, t, h):
    c = SimpleCurve(d=3, phi=poly_oracle(coeffs, domain=(-3.0, 3.0)),
                    label="p")
    J1 = jacobian_direct(c, t, h)
    J2 = _J(c, t, h)
    assert abs(J1 - J2) <= 1e-9 * (1 + abs(J1))


def test_jacobian_routes_agree_nonpolynomial():
    c = SimpleCurve(d=3, phi=expflat_oracle(1.0, domain=(0.1, 2.0)),
                    label="ef")
    J1 = jacobian_direct(c, 0.5, (0.2, 0.3))
    J2 = _J(c, 0.5, (0.2, 0.3))
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
    assert _J(curve, t, h) == pytest.approx(J_ref, rel=1e-10)
    assert sigma_ratio(curve, t, h) == pytest.approx(sigma_ref, rel=1e-10)


def test_kernel_route_near_singular_domain_end():
    # phi^(3) of t^3.5 is 13.1 t^0.5: near t = 0 the first Gauss-Legendre
    # rule does not converge and the panels are bisected
    c = SimpleCurve(d=3, phi=monomial_oracle(3.5, domain=(0.0, 1.0)),
                    label="m")
    for t, h in ((0.015, (0.02, 0.32)), (0.002, (0.05, 0.3))):
        assert _J(c, t, h) == pytest.approx(
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


def test_sigma_ratio_rejects_a_subnormal_node_product():
    # phi^(5) of exp(-t^-3) is positive at every node of this sample (one
    # that estimate-sigma draws at seed 2), but its product over them is
    # subnormal: its 5th root would have lost bits
    c = SimpleCurve(d=5, phi=expflat_oracle(3.0, domain=(0.0, 0.4)),
                    label="ef")
    t, h = 0.11895511426148134, (0.06011341242538311, 0.07059482051032315,
                                 0.07372612430658458, 0.021183634687122366)
    phid = c.phi(t + kappa_of(h), 5)
    assert np.all(phid > 0) and 0.0 < np.prod(phid) < sys.float_info.min
    with pytest.raises(UnderflowError, match="underflows"):
        sigma_ratio(c, t, h)


def test_monomial_closed_form_spot():
    d = 4
    c = SimpleCurve(d=d, phi=poly_oracle([0] * d + [1 / math.factorial(d)],
                                         domain=(0.0, 10.0)),
                    label="mono")
    h = (0.4, 0.9, 0.2)
    pf = math.prod(math.factorial(j) for j in range(1, d))
    assert jacobian_direct(c, 0.6, h) * pf == pytest.approx(
        vandermonde(kappa_of(h)), rel=1e-12)


def test_offspring_point_definition(quartic_curve):
    t, h = 0.1, (0.2, 0.3)
    kappa = kappa_of(h)
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


def test_estimate_sigma_rejects_a_negative_gap(moment_curve_3):
    # a unit sample outside [0, 1] maps to a negative gap, here the second
    # sample's h_1 = 1e-3 - (2/3 - 1e-3); the first sample, from inside
    # the box, does not save the set
    units = np.array([[0.2, 0.5, 0.5], [0.2, -1.0, 0.5]])
    with pytest.raises(ConfigError, match="gap entries must be "
                                          "nonnegative"):
        estimate_sigma(moment_curve_3, units)


def test_sample_admissible_in_domain(rng, quartic_curve):
    t, h = sample_admissible(quartic_curve, rng.uniform(size=(50, 3)))
    a, b = quartic_curve.domain
    assert np.all(a <= t) and np.all(t + kappa_of(h)[:, -1] <= b + 1e-12)


def test_offspring_closure(rng, quartic_curve):
    us = rng.uniform(size=(150, 3))
    rep = check_offspring_closure(quartic_curve, (0.05, 0.08), us)
    assert rep.passed
    assert rep.estimate >= rep.bound - 1e-9


def test_offspring_curve_domain_shrinks(quartic_curve):
    child = offspring_curve(quartic_curve, (0.1, 0.2))
    a, b = child.phi.domain
    hbar = np.mean(kappa_of((0.1, 0.2)))
    assert a == pytest.approx(0.0 + hbar)
    assert b == pytest.approx(1.0 - 0.3 + hbar)
    with pytest.raises(DomainError):
        offspring_curve(quartic_curve, (0.5, 0.6))


def test_weight_product_bound(rng, quartic_curve):
    us = rng.uniform(size=(60, 3))
    rep = weight_product_bound(quartic_curve, us)
    assert rep.passed
    assert rep.estimate <= 1e-12


# ---------------------------------------------------------------------------
# the batched sigma sweep against the per-sample loop it replaced


def _ref_unit_bspline(kappa, u):
    """unit_bspline on one knot vector, as written before knot rows."""
    x = u[..., None]
    b = ((x >= kappa[:-1]) & (x < kappa[1:])).astype(float)
    b[..., -1] += u == kappa[-1]
    for k in range(1, kappa.size - 1):
        span = kappa[k:] - kappa[:-k]
        inv = np.divide(1.0, span, out=np.zeros_like(span), where=span > 0)
        b = ((x - kappa[:-k - 1]) * inv[:-1] * b[..., :-1]
             + (kappa[k + 1:] - x) * inv[1:] * b[..., 1:])
    return b[..., 0] * (kappa.size - 1) / (kappa[-1] - kappa[0])


def _ref_spline_mean(curve, t, kappa, rel_tol=1e-9):
    """The B-spline mean of one sample, as the per-sample loop took it,
    with the sweep's panel test: never tighter than the smallest normal
    double."""
    lo, hi = kappa[:-1], kappa[1:]
    total, density = 0.0, None
    for _ in range(60):
        x1, w1 = gl_nodes(lo, hi, 8)
        x2, w2 = gl_nodes(lo, hi, 16)
        x = np.concatenate((x1, x2), axis=-1)
        f = _ref_unit_bspline(kappa, x) * curve.phi(t + x, curve.d)
        coarse = np.sum(w1 * f[..., :8], axis=-1)
        terms = w2 * f[..., 8:]
        fine, mass = terms.sum(axis=-1), np.abs(terms).sum(axis=-1)
        if density is None:
            density = float(np.sum(mass)) / float(kappa[-1] - kappa[0])
        done = np.abs(fine - coarse) <= np.maximum(rel_tol * np.maximum(
            mass, density * (hi - lo)), sys.float_info.min)
        total += float(np.sum(fine[done]))
        lo, hi = lo[~done], hi[~done]
        if not lo.size:
            return total
        if lo.size > 512:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    raise QuadratureError(f"B-spline mean did not converge (d={curve.d}, "
                          f"t={t}, kappa={kappa.tolist()})")


def _ref_estimate_sigma(curve, unit_samples, floor=1e-12):
    """The per-sample estimate_sigma loop: (estimate, witness, excluded).
    A node product below the smallest normal double is excluded, as the
    sweep does (the loop divided by it)."""
    d = curve.d
    a, b = curve.domain
    best, best_sample, excluded = math.inf, None, 0
    for u in unit_samples:
        u = np.asarray(u, float)
        h_max = (b - a) / d
        h = 1e-3 + u[1:] * (h_max - 1e-3)
        t = a + float(u[0]) * max(b - a - float(np.sum(h)), 0.0)
        kappa = kappa_of(h)
        if vandermonde(kappa) < floor:
            excluded += 1
            continue
        phid = curve.phi(t + kappa, d)
        if np.any(phid < 0):
            raise DomainError(f"sigma_ratio needs phi^({d}) >= 0, got "
                              f"{float(phid.min())!r} at t={t}, "
                              f"h={h.tolist()}")
        prod = float(np.prod(phid))
        if np.any(phid == 0) or prod < sys.float_info.min:
            excluded += 1
            continue
        r = _ref_spline_mean(curve, t, kappa) / (
            math.prod(math.factorial(i) for i in range(1, d))
            * prod ** (1.0 / d))
        if r < best:
            best, best_sample = r, {"t": t, "h": h.tolist(), "ratio": r}
    return (best if best_sample else None), best_sample, excluded


def _sweep_result(rep):
    excluded = 0
    for note in rep.notes:
        if note.startswith("excluded "):
            excluded = int(note.split()[1])
    return rep.estimate, (rep.witnesses or [None])[0], excluded


def _positive_poly(d, scale=1.0):
    return [0.0] * d + [c * scale / math.factorial(d + j)
                        for j, c in enumerate((1.3, 0.7, 1.9))]


SWEEP_CURVES = [
    *(SimpleCurve(d=d, phi=poly_oracle(_positive_poly(d), domain=(0.0, 12.0)),
                  label="poly") for d in (2, 3, 4, 5)),
    *(SimpleCurve(d=d, phi=monomial_oracle(d + 1.5, domain=(0.0, 1.0)),
                  label="monomial") for d in (2, 3, 4, 5)),
    # phi^(d) underflows at nodes near 0, and at d = 5 its product too
    SimpleCurve(d=2, phi=expflat_oracle(1.0, domain=(0.0, 0.4)), label="ef"),
    SimpleCurve(d=5, phi=expflat_oracle(3.0, domain=(0.0, 0.4)), label="ef"),
    offspring_curve(SimpleCurve(d=4, phi=poly_oracle(
        _positive_poly(4), domain=(0.0, 12.0)), label="poly"),
        (0.2, 0.1, 0.3)),
]


@pytest.mark.parametrize("n", [1, 15, 16, 37, 200])
@pytest.mark.parametrize("curve", SWEEP_CURVES,
                         ids=[f"{c.label}-{c.d}" for c in SWEEP_CURVES])
def test_estimate_sigma_sweep_equals_per_sample_loop(curve, n):
    units = np.random.default_rng(100 + n).uniform(size=(n, curve.d))
    assert _sweep_result(estimate_sigma(curve, units)) == (
        _ref_estimate_sigma(curve, units))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_estimate_sigma_sweep_equals_loop_sample_by_sample(d):
    # each one-sample sweep reports its own ratio, so every row's
    # arithmetic shows (numpy's array power would differ in some)
    curve = SimpleCurve(d=d, phi=monomial_oracle(d + 1.5, domain=(0.0, 1.0)),
                        label="monomial")
    for u in np.random.default_rng(d).uniform(size=(60, 1, d)):
        assert _sweep_result(estimate_sigma(curve, u)) == (
            _ref_estimate_sigma(curve, u))


def test_estimate_sigma_sweep_skips_a_nan_ratio():
    # phi'' is NaN at the clamped left end only: the first sample's ratio
    # is NaN, and a NaN never wins the minimum
    curve = SimpleCurve(d=2, phi=DerivativeOracle(
        domain=(0.0, 1.0),
        fn=lambda t, k: np.where(t < 1e-6, np.nan, 1.0 + t)), label="x")
    units = np.array([[0.0, 0.5], [0.3, 0.5], [0.6, 0.2]])
    est, witness, excluded = _sweep_result(estimate_sigma(curve, units))
    assert est == est and witness["t"] > 0 and excluded == 0
    assert (est, witness, excluded) == _ref_estimate_sigma(curve, units)


def test_estimate_sigma_sweep_counts_underflowed_products():
    curve = SimpleCurve(d=5, phi=expflat_oracle(3.0, domain=(0.0, 0.4)),
                        label="ef")
    units = np.random.default_rng(7).uniform(size=(200, 5))
    t, h = sample_admissible(curve, units)
    kappa = np.concatenate((np.zeros((200, 1)), np.cumsum(h, axis=1)), axis=1)
    phid = curve.phi(t[:, None] + kappa, 5)
    prod = np.prod(phid, axis=1)
    product_only = (prod < sys.float_info.min) & np.all(phid > 0, axis=1)
    # each node positive, the product 0, or subnormal but not 0
    assert (prod[product_only] == 0).any() and prod[product_only].any()
    est, _, excluded = _sweep_result(estimate_sigma(curve, units))
    assert excluded >= product_only.sum() and est > 0
    assert (est, excluded) == _ref_estimate_sigma(curve, units)[::2]


def test_estimate_sigma_sweep_bisects_like_the_loop(monkeypatch):
    # phi^(3) of t^3.5 is 13.1 t^0.5: rows with t near 0 bisect
    curve = SimpleCurve(d=3, phi=monomial_oracle(3.5, domain=(0.0, 1.0)),
                        label="m")
    units = np.random.default_rng(3).uniform(size=(40, 3))
    units[::7, 0] *= 1e-3
    bisected = []
    bisect = jacobian._bisect_mean
    monkeypatch.setattr(jacobian, "_bisect_mean", lambda *a: bisected.append(
        a[1]) or bisect(*a))
    assert _sweep_result(estimate_sigma(curve, units)) == (
        _ref_estimate_sigma(curve, units))
    assert bisected


def _messages(fn):
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _nan_then_negative(t, k):
    # phi^(3) NaN on (0.245, 0.255), so a panel over it never converges,
    # and negative beyond 0.9
    t = np.asarray(t, float)
    return np.where(np.abs(t - 0.25) < 0.005, np.nan,
                    np.where(t > 0.9, -1.0, 1.0 + t))


@pytest.mark.parametrize("rows", [(0, 1), (1, 0), (2, 1), (1, 2)])
def test_estimate_sigma_sweep_raises_at_the_first_failing_sample(rows):
    curve = SimpleCurve(d=3, phi=DerivativeOracle(
        domain=(0.0, 1.0), fn=_nan_then_negative), label="x")
    # t = 0.1: its first panel spans the NaNs (QuadratureError); t = 0.3:
    # its last node is beyond 0.9 (DomainError); t beyond the domain
    # (the oracle's DomainError)
    kinds = np.array([[0.3, 1.0, 1.0], [0.9, 1.0, 1.0], [1.5, 0.5, 0.5]])
    units = np.vstack([np.full((5, 3), 0.05), kinds[list(rows)]])
    got = _messages(lambda: estimate_sigma(curve, units))
    assert got is not None
    assert got == _messages(lambda: _ref_estimate_sigma(curve, units))
    assert got[0] is {0: QuadratureError, 1: DomainError,
                      2: DomainError}[rows[0]]


def test_unit_bspline_knot_rows_equal_one_row_calls():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4, 5):
        kappa = np.concatenate((np.zeros((9, 1)), np.cumsum(
            rng.uniform(0.0, 1.0, size=(9, d - 1)), axis=1)), axis=1)
        kappa[0, 1:] = kappa[0, 1]  # coincident knots
        u = rng.uniform(-0.1, 1.1, size=(9, 3, 7)) * kappa[:, -1, None, None]
        u[1, 0, 0] = kappa[1, -1]  # the closed right end
        rows = unit_bspline(kappa, u)
        for i in range(9):
            assert np.array_equal(rows[i], unit_bspline(kappa[i], u[i]),
                                  equal_nan=True)
            assert np.array_equal(rows[i], _ref_unit_bspline(kappa[i], u[i]),
                                  equal_nan=True)


def _cox_de_boor_rows(kappa, u):
    """unit_bspline as written before its u - kappa table: both signs of
    each difference formed, and each level's spans divided on their
    own."""
    kappa = np.asarray(kappa, dtype=float)
    u = np.asarray(u, dtype=float)
    d = kappa.shape[-1]
    kappa = kappa.T.reshape(
        (d,) + kappa.shape[:-1] + (1,) * (u.ndim - kappa.ndim + 1))
    b = ((u >= kappa[:-1]) & (u < kappa[1:])).astype(float)
    b[-1] += u == kappa[-1]
    for k in range(1, d - 1):
        span = kappa[k:] - kappa[:-k]
        inv = np.divide(1.0, span, out=np.zeros_like(span), where=span > 0)
        b = ((u - kappa[:-k - 1]) * inv[:-1] * b[:-1]
             + (kappa[k + 1:] - u) * inv[1:] * b[1:])
    return b[0] * (d - 1) / (kappa[-1] - kappa[0])


def _bits(x):
    """The IEEE bits of each entry, so that 0.0 and -0.0 differ; every NaN
    reads as one value."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


@pytest.mark.parametrize("knots", ["random", "repeated", "zero-width",
                                   "tiny", "shifted"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
def test_unit_bspline_equals_cox_de_boor_bit_for_bit(d, knots):
    rng = np.random.default_rng(1000 * d + len(knots))
    g = rng.uniform(0.0, 1.0, size=(40, d - 1))
    if knots == "repeated":
        g[rng.uniform(size=g.shape) < 0.4] = 0.0
    elif knots == "zero-width":
        g[:] = 0.0
    elif knots == "tiny":  # spans down to subnormal, reciprocals to inf
        g = 10.0 ** rng.uniform(-320.0, 0.0, size=g.shape)
    kappa = np.concatenate((np.zeros((40, 1)), np.cumsum(g, axis=1)), axis=1)
    if knots == "shifted":  # knots across 0
        kappa -= rng.uniform(0.0, 1.0, size=(40, 1))
    lo, hi = kappa[:, :1, None], kappa[:, -1:, None]
    u = lo + rng.uniform(-0.2, 1.2, size=(40, 3, 11)) * (hi - lo)
    u[:, 0, :d] = kappa  # nodes on every knot
    u[:, 1, :5] = [-0.0, 0.0, np.nan, np.inf, -np.inf]
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(unit_bspline(kappa, u)),
                              _bits(_cox_de_boor_rows(kappa, u)))
        for i in range(0, 40, 7):
            assert np.array_equal(_bits(unit_bspline(kappa[i], u[i])),
                                  _bits(_cox_de_boor_rows(kappa[i], u[i])))


@pytest.mark.parametrize("curve", SWEEP_CURVES,
                         ids=[f"{c.label}-{c.d}" for c in SWEEP_CURVES])
def test_spline_means_do_not_depend_on_the_block(curve, monkeypatch):
    t, h = sample_admissible(
        curve, np.random.default_rng(23).uniform(size=(150, curve.d)))
    kappa = kappa_of(h)
    per_row = (curve.d - 1) ** 2 * 24
    means = []
    for rows in (1, 16, 150):
        monkeypatch.setattr(jacobian, "_MEAN_BUDGET", rows * per_row)
        assert jacobian._block_rows(curve.d) == rows
        means.append(_bits(jacobian._spline_means(curve.top, t, kappa)))
    assert np.array_equal(means[0], means[1])
    assert np.array_equal(means[0], means[2])


def _counting_oracle(monkeypatch):
    seen = {"calls": 0, "points": 0}
    call = DerivativeOracle.__call__

    def counting(self, t, k):
        seen["calls"] += 1
        seen["points"] += np.size(t)
        return call(self, t, k)

    monkeypatch.setattr(DerivativeOracle, "__call__", counting)
    return seen


def test_estimate_sigma_oracle_calls_and_points(monkeypatch):
    curve = SimpleCurve(d=5, phi=poly_oracle(_positive_poly(5),
                                             domain=(0.0, 12.0)), label="p")
    units = np.random.default_rng(11).uniform(size=(200, 5))
    seen = _counting_oracle(monkeypatch)
    _ref_estimate_sigma(curve, units)
    loop = dict(seen)
    counts = []
    for _ in range(2):
        seen.update(calls=0, points=0)
        estimate_sigma(curve, units)
        counts.append(dict(seen))
    assert counts[0] == counts[1]
    # one call for the nodes, one per block; no row bisects here
    assert counts[0]["calls"] <= math.ceil(200 / jacobian._block_rows(5)) + 1
    assert counts[0]["points"] == loop["points"] == 200 * 5 + 200 * 4 * 24
    assert loop["calls"] == 400


# ---------------------------------------------------------------------------
# the batched weight-product sweep against the per-sample loop it replaced


def _ref_jacobian_integral(curve, t, h):
    """J of one sample, as the per-sample loops took it."""
    kappa = kappa_of(h)
    v = vandermonde(kappa)
    if v == 0.0:
        return 0.0
    return v / math.prod(math.factorial(i) for i in range(1, curve.d)) * (
        _ref_spline_mean(curve, t, kappa))


def _ref_weight_product_bound(curve, unit_samples):
    """The per-sample weight_product_bound loop: (estimate, witnesses,
    notes, passed).  The samples _ref_estimate_sigma excludes are
    excluded and counted, as the sweep does (the loop kept those whose
    node product underflows)."""
    d = curve.d
    sigma_est = _ref_estimate_sigma(curve, unit_samples)[0]
    if sigma_est is None:
        return None, [], ["inconclusive: no admissible sample"], False
    worst_identity, worst_margin, excluded = 0.0, math.inf, 0
    for u in unit_samples:
        t, h = sample_admissible(curve, np.asarray(u, float)[None])
        t, kappa = float(t[0]), kappa_of(h[0])
        v = vandermonde(kappa)
        if v < 1e-12:
            excluded += 1
            continue
        phid = np.asarray(curve.phi(t + kappa, d))
        if np.any(phid == 0) or abs(float(np.prod(phid))) < (
                sys.float_info.min):
            excluded += 1
            continue
        H = float(np.prod(np.abs(phid) ** (2.0 / (d * (d + 1)))))
        lhs = float(np.prod(phid)) ** (1.0 / d)
        rhs = H ** ((d + 1) / 2.0)
        rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        worst_identity = max(worst_identity, rel)
        margin = _ref_jacobian_integral(curve, t, h[0]) - sigma_est * v * rhs
        worst_margin = min(worst_margin, margin)
    passed = (worst_identity <= 1e-12 and
              worst_margin >= -1e-9 * max(1.0, abs(worst_margin)))
    notes = ([f"excluded {excluded} near-degenerate samples"] if excluded
             else [])
    return (worst_identity,
            [{"sigma_est": sigma_est, "min_margin": worst_margin}], notes,
            passed)


def _report_result(rep):
    return rep.estimate, rep.witnesses, rep.notes, rep.passed


@pytest.mark.parametrize("n", [1, 15, 16, 37, 200])
@pytest.mark.parametrize("curve", SWEEP_CURVES,
                         ids=[f"{c.label}-{c.d}" for c in SWEEP_CURVES])
def test_weight_product_bound_sweep_equals_per_sample_loop(curve, n):
    units = np.random.default_rng(300 + n).uniform(size=(n, curve.d))
    assert _report_result(weight_product_bound(curve, units)) == (
        _ref_weight_product_bound(curve, units))


def _gapless(units, rows):
    # gap units of 0 put every gap at h_min = 1e-3: at d = 4 that is
    # v = 1.2e-17, below the 1e-12 floor
    units = units.copy()
    units[rows, 1:] = 0.0
    return units


@pytest.mark.parametrize("case", ["some-degenerate", "all-degenerate",
                                  "nan-ratio"])
def test_weight_product_bound_sweep_edge_cases(case):
    if case == "nan-ratio":
        # phi'' is NaN at the clamped left end only: the first sample's
        # identity error and margin are NaN, and a NaN is never the worst
        curve = SimpleCurve(d=2, phi=DerivativeOracle(
            domain=(0.0, 1.0),
            fn=lambda t, k: np.where(t < 1e-6, np.nan, 1.0 + t)), label="x")
        units = np.array([[0.0, 0.5], [0.3, 0.5], [0.6, 0.2]])
    else:
        curve = SimpleCurve(d=4, phi=poly_oracle(_positive_poly(4),
                                                 domain=(0.0, 12.0)),
                            label="poly")
        units = np.random.default_rng(9).uniform(size=(37, 4))
        units = _gapless(units, slice(None) if case == "all-degenerate"
                         else slice(None, None, 5))
    rep = weight_product_bound(curve, units)
    assert _report_result(rep) == _ref_weight_product_bound(curve, units)
    assert rep.passed == (case != "all-degenerate")
    if case == "all-degenerate":
        assert rep.notes == ["inconclusive: no admissible sample"]


def test_weight_product_bound_oracle_calls_and_points(monkeypatch):
    curve = SimpleCurve(d=5, phi=poly_oracle(_positive_poly(5),
                                             domain=(0.0, 12.0)), label="p")
    units = np.random.default_rng(13).uniform(size=(100, 5))
    seen = _counting_oracle(monkeypatch)
    _ref_weight_product_bound(curve, units)
    loop = dict(seen)
    counts = []
    for _ in range(2):
        seen.update(calls=0, points=0)
        weight_product_bound(curve, units)
        counts.append(dict(seen))
    assert counts[0] == counts[1]
    # one sweep for sigma, the identity and J: one call for the nodes and
    # one per block; no row bisects here
    assert counts[0]["calls"] <= math.ceil(100 / jacobian._block_rows(5)) + 1
    assert counts[0]["points"] == 100 * 5 + 100 * 4 * 24
    # the loop asks for every sample twice: for sigma, then for its margin
    assert loop["points"] == 2 * counts[0]["points"]
    assert loop["calls"] == 400


@pytest.mark.parametrize("curve", SWEEP_CURVES,
                         ids=[f"{c.label}-{c.d}" for c in SWEEP_CURVES])
def test_jacobian_integrals_equal_one_sample_calls(curve):
    t, h = sample_admissible(
        curve, np.random.default_rng(17).uniform(size=(37, curve.d)))
    h[0] = 0.0  # v = 0: J is exactly 0.0
    J = jacobian_integral(curve.top, t, h)
    assert J[0] == 0.0 and math.copysign(1.0, J[0]) == 1.0
    assert J.tolist() == [_ref_jacobian_integral(curve, ti, hi)
                          for ti, hi in zip(t.tolist(), h)]
    assert J.tolist() == [_J(curve, ti, hi)
                          for ti, hi in zip(t.tolist(), h)]


# ---------------------------------------------------------------------------
# the jacobian-identity sweep against the per-trial loop it replaced


def _ref_poly_oracle(coeffs, domain):
    """poly_oracle as numpy.polynomial evaluated it."""
    poly = np.polynomial.Polynomial(list(coeffs))
    return DerivativeOracle(
        domain=tuple(domain),
        fn=lambda t, k: (poly.deriv(k) if k else poly)(
            np.asarray(t, dtype=float)))


def _ref_jacobian_identity(d, n, seed):
    """The per-trial jacobian-identity loop: (estimate, witnesses, passed)
    and every trial's integral route."""
    rng = np.random.default_rng(seed)
    errs, trials = [], []
    for _ in range(n):
        curve = SimpleCurve(d=d, phi=_ref_poly_oracle(
            rng.normal(size=d + 3), (-5.0, 5.0)), label="random-poly")
        t = float(rng.uniform(-1, 1))
        h = rng.uniform(0.05, 0.8, size=d - 1)
        J1 = jacobian_direct(curve, t, h)
        J2 = _ref_jacobian_integral(curve, t, h)
        errs.append(abs(J1 - J2) / (1 + abs(J1)))
        trials.append({"t": t, "h": h.tolist(), "direct": J1,
                       "integral": J2})
    i = worst_index(errs)
    return (errs[i], [trials[i]], errs[i] <= 1e-8), [
        trial["integral"] for trial in trials]


@pytest.mark.parametrize("n", [1, 16, 17, 20])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_jacobian_identity_sweep_equals_per_trial_loop(d, n):
    for seed in (n, 20260823):
        rep = run_check({"operation": "jacobian-identity", "d": d,
                         "n_trials": n}, seed)
        expect, integrals = _ref_jacobian_identity(d, n, seed)
        assert (rep.estimate, rep.witnesses, rep.passed) == expect
        # every trial's row of the sweep, not just the worst
        rng = np.random.default_rng(seed)
        coeffs, t, h = [], [], []
        for _ in range(n):
            coeffs.append(rng.normal(size=d + 3))
            t.append(rng.uniform(-1, 1))
            h.append(rng.uniform(0.05, 0.8, size=d - 1))
        assert jacobian_integral(poly_rows(coeffs, (-5.0, 5.0), d),
                                  np.array(t), np.array(h)).tolist() == (
            integrals)


def test_poly_rows_sweep_bisects_like_one_curve_calls(monkeypatch):
    # degree-30 polynomials: the 8-point rule is not exact on them, so
    # some rows bisect, asking poly_rows for one row at a time
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=(40, 31)) * 3.0 ** np.arange(31)
    t, h = rng.uniform(-1, 1, size=40), rng.uniform(0.05, 0.8, size=(40, 3))
    h[5] = 0.0  # v = 0: J is exactly 0.0
    bisected = []
    bisect = jacobian._bisect_mean
    monkeypatch.setattr(jacobian, "_bisect_mean", lambda *a: bisected.append(
        a[1]) or bisect(*a))
    J = jacobian_integral(poly_rows(coeffs, (-5.0, 5.0), 4), t, h)
    assert bisected and all(isinstance(r, (int, np.integer))
                            for r in bisected)
    for i in range(40):
        curve = SimpleCurve(d=4, phi=poly_oracle(coeffs[i], (-5.0, 5.0)))
        assert J[i] == _J(curve, t[i], h[i])
        assert J[i] == _ref_jacobian_integral(SimpleCurve(
            d=4, phi=_ref_poly_oracle(coeffs[i], (-5.0, 5.0))), t[i], h[i])


@pytest.mark.parametrize("t, kappa", [
    # a panel left over at level 1 meets the floor once bisected
    (0.0370, [0, 0.0206, 0.0332, 0.0633, 0.0741]),
    # the panels meet the floor at level 1 (bisected, the sum differs)
    (0.04822791241928931, [0.0, 0.022992256064476083, 0.03113313115484708,
                           0.03956242306468115, 0.06255620219807193]),
], ids=["bisected", "level-1"])
def test_spline_mean_of_a_subnormal_top_derivative(t, kappa):
    # phi^(5) of exp(-t^-3) is 0 or subnormal over the panels: the mean is
    # 0 to double precision, and the panel test once demanded an
    # agreement finer than any double could show (QuadratureError)
    curve = SimpleCurve(d=5, phi=expflat_oracle(3.0, domain=(0.0, 0.4)),
                        label="ef")
    kappa = np.array(kappa)
    (mean,) = jacobian._spline_means(curve.top, np.array([t]), kappa[None])
    assert 0.0 <= mean < 1e-300
    assert mean == _ref_spline_mean(curve, t, kappa)
    J = _J(curve, t, np.diff(kappa))
    assert 0.0 <= J < 1e-300
