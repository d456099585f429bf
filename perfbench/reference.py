"""Reference values computed apart from restriction_lab.

Nothing here imports the package under test.  Every function is written
from the definitions the paper's objects rest on:

- ``sigma_ratio_mp``: the torsion ratio J / (v(h) (prod phi^(d))^(1/d))
  with the node determinant taken in 50-digit arithmetic;
- ``flattened_derivative_mp``: lower derivatives of a flattened monomial
  from the Cauchy repeated-integral formula, by mpmath quadrature;
- ``shell_measure``: the Lebesgue measure of a truncated K-shell by a
  tensor Gauss-Legendre rule in all but the last gap, with the last gap
  handled exactly through polynomial roots.

These run outside the timed region of a benchmark run.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def sigma_ratio_mp(coeffs, d: int, t: float, h, dps: int = 50) -> float:
    """J_phi(t, h) / [v(h) (prod_j phi^(d)(t + kappa_j))^(1/d)] for the
    polynomial phi = sum coeffs[n] t^n, evaluated at ``dps`` digits.

    J is the determinant with columns (1, s, ..., s^(d-2)/(d-2)!, phi'(s))
    at the nodes s_j = t + kappa_j, kappa the prefix sums of h.
    """
    import mpmath

    with mpmath.workdps(dps):
        c = [mpmath.mpf(x) for x in coeffs]

        def dphi(s, k):
            return mpmath.fsum(c[n] * mpmath.ff(n, k) * s ** (n - k)
                               for n in range(k, len(c)))

        kappa = [mpmath.mpf(0)]
        for x in h:
            kappa.append(kappa[-1] + mpmath.mpf(float(x)))
        nodes = [mpmath.mpf(float(t)) + k for k in kappa]
        mat = mpmath.matrix(d, d)
        for j, s in enumerate(nodes):
            for i in range(d - 1):
                mat[i, j] = s ** i / mpmath.factorial(i)
            mat[d - 1, j] = dphi(s, 1)
        v = mpmath.fprod(kappa[j] - kappa[i]
                         for i in range(d) for j in range(i + 1, d))
        geo = mpmath.fprod(dphi(s, d) for s in nodes) ** (mpmath.mpf(1) / d)
        return float(mpmath.det(mat) / (v * geo))


def flattened_derivative_mp(beta: float, steps: int, k: int, t: float,
                            d: int = 3, dps: int = 20) -> float:
    """psi^(k)(t) for the ``steps``-fold exp flattening of phi_0 = t^beta
    on [0, b].

    One flattening step maps a top derivative f to (d-1)! exp(-1/f);
    below the top, psi^(k)(t) = (d-1)!/m! int_0^t (t-u)^m exp(-1/f(u)) du
    with m = d-1-k and f the previous member's top derivative.  The
    integrand is flat to all orders at u = 0, so the quadrature starts
    where it turns on.
    """
    import mpmath

    fac = math.factorial(d - 1)
    with mpmath.workdps(dps):
        c0 = mpmath.mpf(1)
        for i in range(d):
            c0 *= beta - i

        def top(u, n):
            """Top derivative of the n-fold flattened member."""
            f = c0 * u ** (mpmath.mpf(beta) - d)
            for _ in range(n):
                f = fac * mpmath.exp(-1 / f) if f > 0 else mpmath.mpf(0)
            return f

        if k == d:
            return float(top(mpmath.mpf(t), steps))
        if steps < 1 or not 0 <= k < d:
            raise ValueError("need steps >= 1 and 0 <= k <= d")
        m = d - 1 - k
        tt = mpmath.mpf(t)

        def integrand(u):
            f = top(u, steps - 1)
            return (tt - u) ** m * mpmath.exp(-1 / f) if f > 0 else 0

        # below lo, exp(-1/f) < exp(-150): that part of the integral is
        # far under the compared precision, and quadrature wastes its
        # effort on it
        lo, hi = mpmath.mpf(0), tt
        if top(hi, steps - 1) > mpmath.mpf(1) / 150:
            for _ in range(80):
                mid = (lo + hi) / 2
                if top(mid, steps - 1) < mpmath.mpf(1) / 150:
                    lo = mid
                else:
                    hi = mid
        pieces = [lo + (tt - lo) * x for x in (0, 0.05, 0.15, 0.3, 0.5,
                                               0.75, 1)]
        val = mpmath.quad(integrand, pieces)
        return float(fac / mpmath.factorial(m) * val)


def flattened_top_closed_form(beta: float, steps: int, t, d: int = 3):
    """psi^(d) of the ``steps``-fold flattening of t^beta, in float64:
    f -> (d-1)! exp(-1/f) applied ``steps`` times to phi_0^(d)."""
    fac = math.factorial(d - 1)
    f = math.prod(beta - i for i in range(d)) * np.asarray(t, float) ** (
        beta - d)
    for _ in range(steps):
        with np.errstate(divide="ignore"):
            f = np.where(f > 0, fac * np.exp(-1.0 / np.where(f > 0, f, 1.0)),
                         0.0)
    return f


def _u_prefactor(outer: np.ndarray) -> np.ndarray:
    """prod over pairs of |a - b| among the outer gaps and 0."""
    pts = np.concatenate([outer, np.zeros((outer.shape[0], 1))], axis=1)
    out = np.ones(outer.shape[0])
    for i, j in combinations(range(pts.shape[1]), 2):
        out *= np.abs(pts[:, i] - pts[:, j])
    return out


def _last_gap_length(outer: np.ndarray, lo: float, hi: float,
                     side: float) -> np.ndarray:
    """Length of {x in [0, side]: lo < u(outer, x) <= hi} for each row.

    With the outer gaps fixed, u = C |x prod_i (x - h_i)| is a polynomial
    in the last gap x, so the set's end points are real roots of
    p(x) = +-lo and p(x) = +-hi, found as companion-matrix eigenvalues.
    """
    n, k = outer.shape
    deg = k + 1
    prefactor = _u_prefactor(outer)
    coef = np.zeros((n, deg + 1))          # highest power first
    coef[:, 0] = 1.0
    for root in [np.zeros(n)] + [outer[:, i] for i in range(k)]:
        coef[:, 1:] = coef[:, 1:] - coef[:, :-1] * root[:, None]
    coef *= prefactor[:, None]
    live = prefactor > 0
    lead = np.where(live, coef[:, 0], 1.0)[:, None]
    breaks = [np.zeros((n, 1)), np.full((n, 1), side)]
    for level in (lo, -lo, hi, -hi):
        shifted = coef[:, 1:].copy()
        shifted[:, -1] -= level
        comp = np.zeros((n, deg, deg))
        comp[:, 0, :] = -shifted / lead
        comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        roots = np.full((n, deg), side, dtype=complex)
        roots[live] = np.linalg.eigvals(comp[live])
        real = np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots.real))
        breaks.append(np.clip(np.where(real, roots.real, side), 0.0, side))
    breaks = np.sort(np.concatenate(breaks, axis=1), axis=1)
    mid = 0.5 * (breaks[:, 1:] + breaks[:, :-1])
    val = np.zeros_like(mid)
    for j in range(deg + 1):
        val = val * mid + coef[:, j:j + 1]
    val = np.abs(val)
    return np.sum(np.diff(breaks, axis=1) * ((val > lo) & (val <= hi)),
                  axis=1)


def _panel_rule(panels: int, order: int = 8):
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


def shell_measure(d: int, alpha: float, m: int, box_side: float = 10.0,
                  panels: int | None = None) -> float:
    """Measure of {h in [0, box_side]^(d-1): 2^(-m-1) < K(h) <= 2^(-m)}.

    K(h) = u(h) * spread(h)^(1/alpha - d(d+1)/2) with u the product of
    pairwise distances among (h_1, ..., h_(d-1), 0).  Only the case
    1/alpha = d(d+1)/2 is supported, where K = u is a polynomial.

    u is symmetric in the gaps, so the outer gaps are taken in increasing
    order (times (d-2)!), and written as h_1 = s_1^2, h_2 = h_1 + s_2^2 so
    that the 1/sqrt singularities of the inner length along h_1 = 0 and
    h_1 = h_2 become smooth; the inner gap is exact.  Halving the panel
    width moves the result by under 3e-5 (d = 3) and 4e-4 (d = 4)
    relative, far inside the Monte Carlo error bars it is compared with.
    """
    if abs(1.0 / alpha - d * (d + 1) / 2.0) > 1e-9:
        raise ValueError("shell_measure needs 1/alpha = d(d+1)/2")
    lo, hi = 2.0 ** (-m - 1), 2.0 ** (-m)
    root = math.sqrt(box_side)
    if d == 3:
        x, w = _panel_rule(panels or 400)
        s = root * x
        length = _last_gap_length((s * s)[:, None], lo, hi, box_side)
        return float(np.sum(root * w * 2.0 * s * length))
    if d == 4:
        x, w = _panel_rule(panels or 25)
        s1, frac = np.meshgrid(root * x, x, indexing="ij")
        weight = np.outer(root * w, w)
        reach = np.sqrt(box_side - s1 ** 2)
        s2 = frac * reach
        h1 = s1 ** 2
        outer = np.stack([h1.ravel(), (h1 + s2 ** 2).ravel()], axis=1)
        jac = (weight * 4.0 * s1 * s2 * reach).ravel()
        length = _last_gap_length(outer, lo, hi, box_side)
        return 2.0 * float(np.sum(jac * length))
    raise ValueError(f"shell_measure supports d = 3, 4; got {d}")
