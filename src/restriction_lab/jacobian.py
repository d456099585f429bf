"""Offspring curves, the change-of-variables Jacobian two ways, and the
central lower bound with empirical constant estimation.

The Jacobian of (t, h) -> sum_j gamma(t + kappa_j(h)) equals the
determinant of a d x d matrix whose last row carries phi' at the
offsets, and also the integral of phi^(d) against the Psi kernel, a
scaled B-spline (Hermite-Genocchi).  Their agreement is the module's
central identity.  The kernel route is primary: at small gaps and large
t the determinant cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import DerivativeOracle, SimpleCurve, evaluate_curve
from .quadrature import QuadratureError, gl_nodes
from .report import CheckReport, DomainError
from .vandermonde import GapVector, factorial_product, unit_bspline


def offspring_point(curve: SimpleCurve, t: float, h) -> np.ndarray:
    """Gamma(t, h) = sum_j gamma(t + kappa_j(h))."""
    g = GapVector.of(h)
    a, b = curve.domain
    if t < a or t + g.kappa[-1] > b:
        raise DomainError("offspring offsets exit the curve domain")
    return np.sum([evaluate_curve(curve, t + kj, 0) for kj in g.kappa], axis=0)


def _node_matrix(curve: SimpleCurve, nodes: np.ndarray) -> np.ndarray:
    d = curve.d
    cols = []
    for sj in nodes:
        col = [sj ** i / math.factorial(i) for i in range(d - 1)]
        col.append(curve.phi(float(sj), 1))
        cols.append(col)
    return np.array(cols).T


def jacobian_direct(curve: SimpleCurve, t: float, h) -> float:
    """J_phi(t, h) as the determinant with columns
    (1, s_j, ..., s_j^{d-2}/(d-2)!, phi'(s_j)) at s_j = t + kappa_j(h)."""
    g = GapVector.of(h)
    nodes = t + g.kappa
    return float(np.linalg.det(_node_matrix(curve, nodes)))


def _spline_mean(curve: SimpleCurve, t: float, kappa: np.ndarray,
                 rel_tol: float = 1e-9) -> float:
    """The B-spline mean int phi^(d)(t + u) M(u; kappa) du.

    One Gauss-Legendre rule spans the knot intervals at orders 8 and 16.
    A panel is kept once the two agree to ``rel_tol`` relative to its
    integral of |phi^(d)| M, or to its width's share of the whole one;
    the rest are bisected, which only happens near a singularity of phi.
    """
    lo, hi = kappa[:-1], kappa[1:]
    total, density = 0.0, None
    for _ in range(60):
        x1, w1 = gl_nodes(lo, hi, 8)
        x2, w2 = gl_nodes(lo, hi, 16)
        x = np.concatenate((x1, x2), axis=-1)
        f = unit_bspline(kappa, x) * curve.phi(t + x, curve.d)
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


def jacobian_integral(curve: SimpleCurve, t: float, h,
                      rel_tol: float = 1e-9) -> float:
    """J_phi(t, h) = int phi^(d)(t + u) Psi_d(u; h) du (Hermite-Genocchi):
    v(h) / prod_{i<d} i! times the B-spline mean."""
    g = GapVector.of(h)
    if g.v == 0.0:
        return 0.0
    return (g.v / factorial_product(curve.d)
            * _spline_mean(curve, t, g.kappa, rel_tol))


def jacobian_at_nodes(curve: SimpleCurve, nodes) -> float:
    """J_phi at arbitrary sorted nodes s_1 <= ... <= s_d."""
    nodes = np.asarray(nodes, dtype=float)
    return jacobian_integral(curve, float(nodes[0]), np.diff(nodes))


# ---------------------------------------------------------------------------
# affine decomposition of the offspring curve


@dataclass(frozen=True)
class OffspringFrame:
    """Gamma(t, h) = shift + d * matrix @ gamma_tilde(t + hbar)."""

    d: int
    hbar: float
    shift: np.ndarray
    matrix: np.ndarray
    phi_tilde: DerivativeOracle

    def gamma_tilde(self, s: float) -> np.ndarray:
        out = np.zeros(self.d)
        for j in range(1, self.d):
            out[j - 1] = s ** j / math.factorial(j)
        out[self.d - 1] = self.phi_tilde(s, 0)
        return out

    def reconstruct(self, t: float) -> np.ndarray:
        return self.shift + self.d * self.matrix @ self.gamma_tilde(t + self.hbar)


def offspring_decomposition(curve: SimpleCurve, h) -> OffspringFrame:
    """Split Gamma(t, h) into a translation, a unimodular upper-triangular
    matrix, and the averaged offspring curve gamma_tilde."""
    g = GapVector.of(h)
    d = curve.d
    kappa = g.kappa
    hbar = float(np.mean(kappa))
    centered = kappa - hbar

    shift = np.zeros(d)
    for k in range(1, d):
        shift[k - 1] = np.sum(centered ** k) / math.factorial(k)

    mat = np.zeros((d, d))
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if i == j:
                mat[i - 1, j - 1] = 1.0
            elif j < i <= d - 1:
                p = i - j
                mat[i - 1, j - 1] = np.sum(centered ** p) / (d * math.factorial(p))

    a, b = curve.domain
    base = curve.phi

    def fn(s, k):
        s = np.asarray(s, dtype=float)
        acc = 0.0
        for kj in kappa:
            acc = acc + base.fn(s - hbar + kj, k)
        return acc / d

    phi_tilde = DerivativeOracle(
        domain=(a + hbar, b - float(kappa[-1]) + hbar),
        max_order=base.max_order, fn=fn)
    return OffspringFrame(d=d, hbar=hbar, shift=shift, matrix=mat,
                          phi_tilde=phi_tilde)


def offspring_curve(curve: SimpleCurve, h) -> SimpleCurve:
    frame = offspring_decomposition(curve, h)
    lo, hi = frame.phi_tilde.domain
    if hi <= lo:
        raise DomainError("offspring domain is empty for these gaps")
    return SimpleCurve(d=curve.d, phi=frame.phi_tilde,
                       label=curve.label + f"-offspring")


# ---------------------------------------------------------------------------
# the central lower bound


def sample_admissible(curve: SimpleCurve, unit: np.ndarray,
                      h_min: float = 1e-3):
    """Map a unit-box sample (u_0, ..., u_{d-1}) to an admissible (t, h):
    gaps in [h_min, (b-a)/d], t spanning [a, b - kappa_d(h)]."""
    a, b = curve.domain
    d = curve.d
    h_max = (b - a) / d
    h = h_min + np.asarray(unit[1:], float) * (h_max - h_min)
    kd = float(np.sum(h))
    t = a + float(unit[0]) * max(b - a - kd, 0.0)
    return t, GapVector.of(h)


class UnderflowError(DomainError):
    """phi^(d) is exactly 0 at a node: a positive but very flat top
    derivative that underflowed."""


def sigma_ratio(curve: SimpleCurve, t: float, h) -> float:
    """J_phi(t,h) / [v(h) * (prod_i phi^(d)(t + kappa_i))^{1/d}], taken
    from the B-spline mean so that v(h) cancels analytically."""
    g = GapVector.of(h)
    d = curve.d
    phid = curve.phi(t + g.kappa, d)
    if np.any(phid < 0):
        raise DomainError(f"sigma_ratio needs phi^({d}) >= 0, got "
                          f"{float(phid.min())!r} at t={t}, h={list(g.h)}")
    if np.any(phid == 0):
        raise UnderflowError(f"phi^({d}) underflows to 0 at a node (t={t}, "
                             f"h={list(g.h)}); the sigma ratio is undefined")
    geo = float(np.prod(phid)) ** (1.0 / d)
    return _spline_mean(curve, t, g.kappa) / (factorial_product(d) * geo)


def estimate_sigma(curve: SimpleCurve, unit_samples,
                   degenerate_floor: float = 1e-12) -> CheckReport:
    """Empirical infimum of the Jacobian lower-bound ratio over samples.

    Passes iff the infimum is strictly positive.  Samples with gaps of
    Vandermonde volume below ``degenerate_floor``, or with phi^(d)
    underflowing to exactly 0 at a node, are excluded.
    """
    best = math.inf
    best_sample = None
    excluded = 0
    n = 0
    for u in unit_samples:
        n += 1
        t, g = sample_admissible(curve, np.asarray(u, float))
        if g.v < degenerate_floor:
            excluded += 1
            continue
        try:
            r = sigma_ratio(curve, t, g)
        except UnderflowError:
            excluded += 1
            continue
        if r < best:
            best = r
            best_sample = {"t": t, "h": list(g.h), "ratio": r}
    rep = CheckReport(
        check_id="estimate_sigma",
        parameters={"d": curve.d, "curve": curve.label, "n_samples": n},
        estimate=best if best_sample else None,
        bound=0.0,
        tolerance=0.0,
        passed=best_sample is not None and best > 0,
        witnesses=[best_sample] if best_sample else [],
    )
    if excluded:
        rep.notes.append(f"excluded {excluded} near-degenerate samples")
    if best_sample is None:
        rep.notes.append("all samples degenerate; inconclusive")
        rep.passed = False
    return rep


def check_offspring_closure(curve: SimpleCurve, h, unit_samples,
                            tolerance: float = 1e-9) -> CheckReport:
    """The offspring function keeps at least 1/d of the parent's sigma."""
    unit_samples = [np.asarray(u, float) for u in unit_samples]
    parent = estimate_sigma(curve, unit_samples)
    child_curve = offspring_curve(curve, h)
    child = estimate_sigma(child_curve, unit_samples)
    if parent.estimate is None or child.estimate is None:
        rep = CheckReport(check_id="check_offspring_closure",
                          parameters={"d": curve.d, "h": list(GapVector.of(h).h)},
                          passed=False)
        rep.notes.append("inconclusive: degenerate sample set")
        return rep
    target = parent.estimate / curve.d
    passed = child.estimate >= target - tolerance
    return CheckReport(
        check_id="check_offspring_closure",
        parameters={"d": curve.d, "curve": curve.label,
                    "h": list(GapVector.of(h).h)},
        estimate=child.estimate,
        bound=target,
        tolerance=tolerance,
        passed=passed,
        witnesses=[{"sigma_parent": parent.estimate,
                    "sigma_offspring": child.estimate}],
    )


def weight_product_bound(curve: SimpleCurve, unit_samples,
                         identity_tol: float = 1e-12) -> CheckReport:
    """H(t,h) = prod_i w(t + kappa_i) satisfies
    (prod phi^(d))^{1/d} = H^{(d+1)/2} identically, and
    J >= sigma_est * v(h) * H^{(d+1)/2} over the sample sweep."""
    d = curve.d
    unit_samples = [np.asarray(u, float) for u in unit_samples]
    sigma_rep = estimate_sigma(curve, unit_samples)
    sigma_est = sigma_rep.estimate
    worst_identity = 0.0
    worst_margin = math.inf
    for u in unit_samples:
        t, g = sample_admissible(curve, u)
        if g.v < 1e-12:
            continue
        nodes = t + g.kappa
        phid = np.asarray(curve.phi(nodes, d))
        H = float(np.prod(np.abs(phid) ** (2.0 / (d * (d + 1)))))
        lhs = float(np.prod(phid)) ** (1.0 / d)
        rhs = H ** ((d + 1) / 2.0)
        rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        worst_identity = max(worst_identity, rel)
        J = jacobian_integral(curve, t, g)
        margin = J - sigma_est * g.v * rhs
        worst_margin = min(worst_margin, margin)
    passed = (worst_identity <= identity_tol and
              worst_margin >= -1e-9 * max(1.0, abs(worst_margin)))
    return CheckReport(
        check_id="weight_product_bound",
        parameters={"d": d, "curve": curve.label, "n_samples": len(unit_samples)},
        estimate=worst_identity,
        bound=identity_tol,
        tolerance=identity_tol,
        passed=passed,
        witnesses=[{"sigma_est": sigma_est, "min_margin": worst_margin}],
    )
