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
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import DerivativeOracle, SimpleCurve
from .quadrature import QuadratureError, _leggauss
from .report import CheckReport, DomainError
from .vandermonde import (factorial_product, gaps, kappa_of, unit_bspline,
                          vandermonde_arr)


def offspring_point(curve: SimpleCurve, t: float, h) -> np.ndarray:
    """Gamma(t, h) = sum_j gamma(t + kappa_j(h))."""
    kappa = kappa_of(gaps(h))
    a, b = curve.domain
    if t < a or t + kappa[-1] > b:
        raise DomainError("offspring offsets exit the curve domain")
    return np.sum([curve.jet(t + kj) for kj in kappa], axis=0)


def _node_matrix(curve: SimpleCurve, nodes: np.ndarray) -> np.ndarray:
    """Columns gamma'(s_j), one scalar call per node: an array call moves
    the determinant by up to 4.7e-12."""
    return np.array([curve.jet(sj, 1) for sj in nodes]).T


def jacobian_direct(curve: SimpleCurve, t: float, h) -> float:
    """J_phi(t, h) as the determinant with columns
    (1, s_j, ..., s_j^{d-2}/(d-2)!, phi'(s_j)) at s_j = t + kappa_j(h)."""
    nodes = t + kappa_of(gaps(h))
    return float(np.linalg.det(_node_matrix(curve, nodes)))


# the kernel elements of one block of the batched B-spline mean, a row of
# d knots having (d - 1)^2 x 24: 64 rows at d = 5, 113 at d = 4.  Of the
# budgets 6,144 to 49,152 and one block for all rows, this one swept 100
# and 200 rows fastest at d = 3, 4, 5 (best of 60 interleaved timings,
# 2-core box): each of its arrays, 192 KB, stays in cache.  Its sweep
# holds about 1 MB at its peak (tracemalloc), against 0.2 MB for 16-row
# blocks of the kernel before its u - kappa table.  A 25 s high-d
# benchmark run read 56.6 MB of peak RSS against their 53.0 MB, of which
# about 2.7 MB are the records of the 128 more passes it ran
_MEAN_BUDGET = 24_576
# a B-spline mean panel is kept once its 8- and 16-point rules agree to
# this relative tolerance, or to the smallest normal double where that
# is less (phi^(d) subnormal over the panel: its mean is 0 to double
# precision)
_MEAN_REL_TOL = 1e-9
_MEAN_ABS_FLOOR = sys.float_info.min


@lru_cache(maxsize=1)
def _mean_rule():
    """The 8-point Gauss-Legendre rule on [-1, 1], then the 16-point one."""
    (x1, w1), (x2, w2) = _leggauss(8), _leggauss(16)
    return np.concatenate((x1, x2)), np.concatenate((w1, w2))


def _panel_rules(top, rows, t, kappa, lo, hi):
    """The 8- and 16-point Gauss-Legendre rules of phi^(d)(t + u) M(u; kappa)
    on the panels [lo, hi] of ``rows``, and the 16-point rule of its
    absolute value; phi^(d) is ``top(x, rows)``."""
    nodes, weights = _mean_rule()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[..., None] + half[..., None] * nodes
    w = half[..., None] * weights
    terms = w * (unit_bspline(kappa, x) * top(t + x, rows))
    fine = terms[..., 8:]
    return (terms[..., :8].sum(axis=-1), fine.sum(axis=-1),
            np.abs(fine).sum(axis=-1))


def _panels_done(coarse, fine, mass, density, width):
    """Whether each panel's two rules agree: to _MEAN_REL_TOL relative to
    its integral of |phi^(d)| M or its width's share of the whole one, and
    never to less than _MEAN_ABS_FLOOR."""
    return np.abs(fine - coarse) <= np.maximum(
        _MEAN_REL_TOL * np.maximum(mass, density * width), _MEAN_ABS_FLOOR)


def _block_rows(d: int) -> int:
    """Rows per block of :func:`_spline_means` on knot rows of d knots:
    as many as fit _MEAN_BUDGET kernel elements, and at least one."""
    return max(1, _MEAN_BUDGET // ((d - 1) ** 2 * 24))


def _spline_means(top, t: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """The B-spline means int phi^(d)(t_i + u) M(u; kappa_i) du of the rows
    t (shape (n,)) and kappa (shape (n, d)).

    phi^(d) is ``top(x, rows)``, at the points x of the rows ``rows`` of
    t: a slice, with one leading entry of x per row, or one row's index.
    One Gauss-Legendre rule spans each knot interval at orders 8 and 16,
    for a block of rows per call of ``top``.  A panel is kept once the two
    agree (:func:`_panels_done`); a row with a panel left over bisects it
    by itself, which only happens near a singularity of phi.
    """
    out = np.empty(t.size)
    block = _block_rows(kappa.shape[-1])
    for i in range(0, t.size, block):
        rows = slice(i, i + block)
        tb, kb = t[rows], kappa[rows]
        lo, hi = kb[:, :-1], kb[:, 1:]
        coarse, fine, mass = _panel_rules(top, rows, tb[:, None, None], kb,
                                          lo, hi)
        density = mass.sum(axis=-1) / (kb[:, -1] - kb[:, 0])
        done = _panels_done(coarse, fine, mass, density[:, None], hi - lo)
        # 0.0 + ...: each running total starts at 0.0, which turns -0.0
        # into 0.0
        out[rows] = 0.0 + fine.sum(axis=-1)
        for r in np.flatnonzero(~done.all(axis=-1)):
            out[i + r] = _bisect_mean(
                top, i + r, tb[r], kb[r], lo[r][~done[r]], hi[r][~done[r]],
                0.0 + float(np.sum(fine[r][done[r]])), density[r])
    return out


def _bisect_mean(top, row, t, kappa, lo, hi, total, density):
    """Finish the row ``row`` of :func:`_spline_means` from its first level:
    bisect the panels [lo, hi] left over, adding each kept panel to
    ``total``."""
    for _ in range(59):  # 60 levels in all
        if lo.size > 512:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        coarse, fine, mass = _panel_rules(top, row, t, kappa, lo, hi)
        done = _panels_done(coarse, fine, mass, density, hi - lo)
        total += float(np.sum(fine[done]))
        lo, hi = lo[~done], hi[~done]
        if not lo.size:
            return total
    raise QuadratureError(f"B-spline mean did not converge (d={kappa.size}, "
                          f"t={t}, kappa={kappa.tolist()})")


def jacobian_integral(top, t: np.ndarray, h) -> np.ndarray:
    """J_phi(t, h) = int phi^(d)(t + u) Psi_d(u; h) du (Hermite-Genocchi)
    of the samples t (shape (n,)) and gaps h (shape (n, d - 1)): v(h) /
    prod_{i<d} i! times the B-spline mean, and 0.0 where v(h) = 0.  One
    call takes all the B-spline means, with the arithmetic of one sample
    in each.

    phi^(d) is ``top(x, rows)`` as in :func:`_spline_means`, its rows
    those of t: ``curve.top`` for one curve, :func:`poly_rows` for one
    polynomial per sample.
    """
    kappa = kappa_of(gaps(h))
    v = vandermonde_arr(kappa)
    J = np.zeros(len(kappa))
    live = np.flatnonzero(v != 0.0)
    J[live] = v[live] / factorial_product(kappa.shape[-1]) * _spline_means(
        lambda x, rows: top(x, live[rows]), t[live], kappa[live])
    return J


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

    def reconstruct(self, t: float) -> np.ndarray:
        gamma_tilde = SimpleCurve(d=self.d, phi=self.phi_tilde)
        return self.shift + self.d * self.matrix @ gamma_tilde.jet(
            t + self.hbar)


def offspring_decomposition(curve: SimpleCurve, h) -> OffspringFrame:
    """Split Gamma(t, h) into a translation, a unimodular upper-triangular
    matrix, and the averaged offspring curve gamma_tilde."""
    d = curve.d
    kappa = kappa_of(gaps(h))
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
        domain=(a + hbar, b - float(kappa[-1]) + hbar), fn=fn)
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


def sample_admissible(curve: SimpleCurve, unit: np.ndarray):
    """Map unit-box samples (u_0, ..., u_{d-1}), the rows of ``unit``
    (shape (n, d)), to admissible (t, h): gaps in [h_min, (b-a)/d] with
    h_min = 1e-3, t spanning [a, b - kappa_d(h)].  Gives the arrays t, of
    shape (n,), and h, of shape (n, d - 1).
    """
    a, b = curve.domain
    unit = np.asarray(unit, dtype=float)
    h_min = 1e-3
    h_max = (b - a) / curve.d
    h = h_min + unit[..., 1:] * (h_max - h_min)
    kd = np.sum(h, axis=-1)
    t = a + unit[..., 0] * np.maximum(b - a - kd, 0.0)
    return t, h


class UnderflowError(DomainError):
    """phi^(d) is 0 at a node, or its product over the nodes is below the
    smallest normal double: a positive but very flat top derivative,
    whose geometric mean over the nodes would be 0 or short of bits."""


def _negative_top(d: int, phid: np.ndarray, t: float, h: list) -> DomainError:
    return DomainError(f"sigma_ratio needs phi^({d}) >= 0, got "
                       f"{float(phid.min())!r} at t={t}, h={h}")


def _sigma_sweep(curve: SimpleCurve, t: np.ndarray, h: np.ndarray):
    """The sigma ratios of the rows t (shape (n,)) and gaps h (shape
    (n, d - 1)), each with the arithmetic of one row.

    Returns (kept, phid, geo, mean, ratio, err): the indices of the rows
    kept, then per kept row phi^(d) at its nodes, their geometric mean,
    the B-spline mean and the ratio.  A row whose nodes the oracle
    rejects, or where phi^(d) is negative, ends the sweep: err is its
    error, and the rows from it on drop out.  A row is excluded where
    phi^(d) is 0 at a node or its product over the nodes is below the
    smallest normal double.
    """
    d = curve.d
    kappa = kappa_of(h)
    nodes = t[:, None] + kappa
    err = None
    try:
        phid = curve.phi(nodes, d)
    except DomainError:
        # the oracle's message names the nodes it was given: ask it again
        # one row at a time, up to the first it rejects
        phid = []
        for row in nodes:
            try:
                phid.append(curve.phi(row, d))
            except DomainError as exc:
                err = exc
                break
        phid = np.reshape(phid, (len(phid), d))
    bad = (phid < 0).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        err = _negative_top(d, phid[i], float(t[i]), h[i].tolist())
        phid = phid[:i]
    prod = phid.prod(axis=1)
    kept = (~((phid == 0).any(axis=1)
              | (prod < sys.float_info.min))).nonzero()[0]  # NaN is kept
    phid = phid[kept]
    # the geometric mean by Python's scalar power: numpy's array power
    # differs from it in the last bit on some inputs
    geo = np.array([p ** (1.0 / d) for p in prod[kept].tolist()])
    mean = _spline_means(curve.top, t[kept], kappa[kept])
    return kept, phid, geo, mean, mean / (factorial_product(d) * geo), err


def sigma_ratio(curve: SimpleCurve, t: float, h) -> float:
    """J_phi(t,h) / [v(h) * (prod_i phi^(d)(t + kappa_i))^{1/d}], taken
    from the B-spline mean so that v(h) cancels analytically."""
    h = gaps(h)
    kept, _, _, _, ratio, err = _sigma_sweep(
        curve, np.array([t], dtype=float), h[None])
    if err is not None:
        raise err
    if not kept.size:
        raise UnderflowError(f"phi^({curve.d}) underflows at a node or in "
                             f"its product (t={t}, h={h.tolist()}); the "
                             f"sigma ratio is undefined")
    return float(ratio[0])


def _sigma_samples(curve: SimpleCurve, unit_samples):
    """:func:`estimate_sigma`'s report, then v(h), phi^(d) at the nodes,
    its geometric mean and the B-spline mean of each sample kept.

    The samples are swept as arrays (:func:`_sigma_sweep`), after those
    with gaps of Vandermonde volume below 1e-12 are excluded.  A negative
    gap (from a unit sample outside [0, 1]) raises before the sweep; a
    sample that raises in the sweep does so once the samples before it
    are done, as in a loop of :func:`sigma_ratio` over them.
    """
    d = curve.d
    units = np.asarray(unit_samples, dtype=float)
    units = units.reshape(len(units), d)  # an empty set has no row width
    n = len(units)
    t, h = sample_admissible(curve, units)
    v = vandermonde_arr(kappa_of(gaps(h)))
    live = np.flatnonzero(~(v < 1e-12))  # NaN is kept
    kept, phid, geo, mean, ratio, err = _sigma_sweep(curve, t[live], h[live])
    if err is not None:
        raise err
    kept = live[kept]
    rep = CheckReport(
        check_id="estimate_sigma",
        parameters={"d": d, "curve": curve.label, "n_samples": n},
        bound=0.0, tolerance=0.0, passed=False)
    # the first strict minimum wins; NaN and inf never do
    wins = ratio < math.inf
    if np.any(wins):
        i = int(np.argmin(np.where(wins, ratio, math.inf)))
        rep.estimate = float(ratio[i])
        rep.passed = rep.estimate > 0
        rep.witnesses = [{"t": float(t[kept[i]]), "h": h[kept[i]].tolist(),
                          "ratio": rep.estimate}]
    if kept.size < n:
        rep.notes.append(f"excluded {n - kept.size} near-degenerate samples")
    if rep.estimate is None:
        rep.notes.append("all samples degenerate; inconclusive")
    return rep, v[kept], phid, geo, mean


def estimate_sigma(curve: SimpleCurve, unit_samples) -> CheckReport:
    """Empirical infimum of the Jacobian lower-bound ratio over samples.

    Passes iff the infimum is strictly positive.  Each sample has the
    arithmetic of :func:`sigma_ratio`; the samples :func:`_sigma_samples`
    excludes are counted in a note.
    """
    return _sigma_samples(curve, unit_samples)[0]


def check_offspring_closure(curve: SimpleCurve, h,
                            unit_samples) -> CheckReport:
    """The offspring function keeps at least 1/d of the parent's sigma."""
    tolerance = 1e-9
    parent = estimate_sigma(curve, unit_samples)
    child_curve = offspring_curve(curve, h)
    child = estimate_sigma(child_curve, unit_samples)
    if parent.estimate is None or child.estimate is None:
        rep = CheckReport(check_id="check_offspring_closure",
                          parameters={"d": curve.d, "h": gaps(h).tolist()},
                          passed=False)
        rep.notes.append("inconclusive: degenerate sample set")
        return rep
    target = parent.estimate / curve.d
    passed = child.estimate >= target - tolerance
    return CheckReport(
        check_id="check_offspring_closure",
        parameters={"d": curve.d, "curve": curve.label,
                    "h": gaps(h).tolist()},
        estimate=child.estimate,
        bound=target,
        tolerance=tolerance,
        passed=passed,
        witnesses=[{"sigma_parent": parent.estimate,
                    "sigma_offspring": child.estimate}],
    )


def weight_product_bound(curve: SimpleCurve, unit_samples) -> CheckReport:
    """H(t,h) = prod_i w(t + kappa_i) satisfies
    (prod phi^(d))^{1/d} = H^{(d+1)/2} identically, and
    J >= sigma_est * v(h) * H^{(d+1)/2} over the sample sweep.

    sigma_est, the samples kept, phi^(d) at their nodes, its geometric
    mean (the left side of the identity) and the B-spline means of J all
    come from the one sweep that gives :func:`estimate_sigma`'s report.
    The powers of each row are Python's scalar ``**``.
    """
    d = curve.d
    identity_tol = 1e-12
    sigma, v, phid, lhs, mean = _sigma_samples(curve, unit_samples)
    if sigma.estimate is None:
        return CheckReport(check_id="weight_product_bound",
                           parameters=sigma.parameters, passed=False,
                           notes=["inconclusive: no admissible sample"])
    sigma_est = sigma.estimate
    H = np.prod(np.abs(phid) ** (2.0 / (d * (d + 1))), axis=1)
    rhs = np.array([x ** ((d + 1) / 2.0) for x in H.tolist()])
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)
    # J as jacobian_integral takes it
    J = v / factorial_product(d) * mean
    margin = J - sigma_est * v * rhs
    # a running max from 0.0 and min from inf, which a NaN never replaces
    worst_identity = max([0.0, *rel.tolist()])
    worst_margin = min([math.inf, *margin.tolist()])
    passed = (worst_identity <= identity_tol and
              worst_margin >= -1e-9 * max(1.0, abs(worst_margin)))
    return CheckReport(
        check_id="weight_product_bound",
        parameters=sigma.parameters,
        estimate=worst_identity,
        bound=identity_tol,
        tolerance=identity_tol,
        passed=passed,
        witnesses=[{"sigma_est": sigma_est, "min_margin": worst_margin}],
        notes=sigma.notes,  # the count of samples excluded
    )
