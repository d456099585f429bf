import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restriction_lab import jacobian
from restriction_lab.curves import (DerivativeOracle, SimpleCurve,
                                    expflat_oracle, monomial_oracle,
                                    poly_oracle)
from restriction_lab.jacobian import (check_offspring_closure,
                                      estimate_sigma, jacobian_at_nodes,
                                      jacobian_direct, jacobian_integral,
                                      offspring_curve,
                                      offspring_decomposition,
                                      offspring_point, sample_admissible,
                                      sigma_ratio, weight_product_bound)
from restriction_lab.quadrature import QuadratureError, gl_nodes
from restriction_lab.report import DomainError
from restriction_lab.vandermonde import GapVector, unit_bspline

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
    """The B-spline mean of one sample, as the per-sample loop took it."""
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
        done = np.abs(fine - coarse) <= rel_tol * np.maximum(
            mass, density * (hi - lo))
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
    A node product that underflows to 0 is excluded, as the sweep does
    (the loop divided by it)."""
    d = curve.d
    a, b = curve.domain
    best, best_sample, excluded = math.inf, None, 0
    for u in unit_samples:
        u = np.asarray(u, float)
        h_max = (b - a) / d
        h = 1e-3 + u[1:] * (h_max - 1e-3)
        t = a + float(u[0]) * max(b - a - float(np.sum(h)), 0.0)
        g = GapVector.of(h)
        if g.v < floor:
            excluded += 1
            continue
        phid = curve.phi(t + g.kappa, d)
        if np.any(phid < 0):
            raise DomainError(f"sigma_ratio needs phi^({d}) >= 0, got "
                              f"{float(phid.min())!r} at t={t}, "
                              f"h={list(g.h)}")
        prod = float(np.prod(phid))
        if np.any(phid == 0) or prod == 0.0:
            excluded += 1
            continue
        r = _ref_spline_mean(curve, t, g.kappa) / (
            math.prod(math.factorial(i) for i in range(1, d))
            * prod ** (1.0 / d))
        if r < best:
            best, best_sample = r, {"t": t, "h": list(g.h), "ratio": r}
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
        domain=(0.0, 1.0), max_order=5,
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
    product_only = (np.prod(phid, axis=1) == 0) & np.all(phid > 0, axis=1)
    assert product_only.any()  # each node positive, the product 0
    est, _, excluded = _sweep_result(estimate_sigma(curve, units))
    assert excluded >= product_only.sum() and est > 0


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
        domain=(0.0, 1.0), max_order=5, fn=_nan_then_negative), label="x")
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


def test_estimate_sigma_oracle_calls_and_points(monkeypatch):
    curve = SimpleCurve(d=5, phi=poly_oracle(_positive_poly(5),
                                             domain=(0.0, 12.0)), label="p")
    units = np.random.default_rng(11).uniform(size=(200, 5))
    seen = {"calls": 0, "points": 0}
    call = DerivativeOracle.__call__

    def counting(self, t, k):
        seen["calls"] += 1
        seen["points"] += np.size(t)
        return call(self, t, k)

    monkeypatch.setattr(DerivativeOracle, "__call__", counting)
    _ref_estimate_sigma(curve, units)
    loop = dict(seen)
    counts = []
    for _ in range(2):
        seen.update(calls=0, points=0)
        estimate_sigma(curve, units)
        counts.append(dict(seen))
    assert counts[0] == counts[1]
    # one call for the nodes, one per block; no row bisects here
    assert counts[0]["calls"] <= math.ceil(200 / jacobian._MEAN_BLOCK) + 1
    assert counts[0]["points"] == loop["points"] == 200 * 5 + 200 * 4 * 24
    assert loop["calls"] == 400
