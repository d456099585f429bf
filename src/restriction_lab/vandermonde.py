"""Vandermonde determinants, gap vectors and the Psi kernel.

The kernel Psi_d is a scaled B-spline on the offsets kappa(h) and
represents the offspring Jacobian as an integral against phi^(d); see
:mod:`restriction_lab.jacobian`.  Everything here is piecewise
polynomial, so Gauss-Legendre rules split at the knots are exact up to
roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import box_rule, gl_nodes
from .report import CheckReport, ConfigError, reject_unknown_keys


def vandermonde(x) -> float:
    """prod_{i<j} (x_j - x_i); zero iff two entries coincide."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    out = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            out *= x[j] - x[i]
    return float(out)


def vandermonde_arr(x: np.ndarray) -> np.ndarray:
    """Vectorized Vandermonde product over the last axis."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    out = np.ones(x.shape[:-1])
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (x[..., j] - x[..., i])
    return out


@dataclass(frozen=True)
class GapVector:
    """Nonnegative gaps h = (h_1, ..., h_{d-1}) between offspring offsets."""

    h: tuple[float, ...]

    def __post_init__(self):
        if any(x < 0 for x in self.h):
            raise ConfigError("gap entries must be nonnegative")

    @classmethod
    def of(cls, h) -> "GapVector":
        if isinstance(h, GapVector):
            return h
        return cls(tuple(float(x) for x in np.atleast_1d(h)))

    @property
    def d(self) -> int:
        return len(self.h) + 1

    @property
    def kappa(self) -> np.ndarray:
        """Prefix-sum offsets kappa_1 = 0, kappa_j = h_1 + ... + h_{j-1}."""
        return np.concatenate(([0.0], np.cumsum(self.h)))

    @property
    def v(self) -> float:
        return vandermonde(self.kappa)


# ---------------------------------------------------------------------------
# the Psi kernel


def factorial_product(d: int) -> int:
    """prod_{i<d} i! = 1! 2! ... (d-1)!."""
    return math.prod(math.factorial(i) for i in range(1, d))


def unit_bspline(kappa, u) -> np.ndarray:
    """The unit-mass B-spline M(u; kappa) on knots kappa_1 <= ... <= kappa_d:
    piecewise polynomial of degree d - 2 with integral 1, zero outside
    [kappa_1, kappa_d].  Cox-de Boor recurrence from the interval
    indicators, the last interval closed.

    ``kappa`` is one knot vector of shape (d,), or knot rows of shape
    (n, d) against ``u`` of shape (n, ...), row i of ``u`` on knots i.
    Either way each value has the arithmetic of the one-vector case.
    """
    kappa = np.asarray(kappa, dtype=float)
    u = np.asarray(u, dtype=float)
    d = kappa.shape[-1]
    # the knot index leads, and each knot row lines up with its u
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


def psi(d: int, t, h) -> float | np.ndarray:
    """The kernel Psi_d(t; h) = v(h) / prod_{i<d} i! * M(t; kappa(h))
    (Curry-Schoenberg), nonnegative, supported in [0, h_1 + ... + h_{d-1}]."""
    if d < 2:
        raise ConfigError(f"psi needs d >= 2, got {d}")
    g = GapVector.of(h)
    if g.d != d:
        raise ConfigError(f"gap vector has {g.d - 1} entries, need {d - 1}")
    t_arr = np.asarray(t, dtype=float)
    if g.v == 0.0:
        out = np.zeros_like(t_arr)
    else:
        out = g.v / factorial_product(d) * unit_bspline(g.kappa, t_arr)
    if np.ndim(t) == 0:
        return float(out)
    return out


def _mean_tail_ratios(d: int, kappa: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """:func:`psi_mean_tail_ratio` of each row of offsets ``kappa`` (shape
    (n, d)), given v = v(kappa) > 0 per row.

    Evaluated in closed form: the tail integral equals the offspring
    determinant for phi(u) = (u - c)_+^d / d! with c at the node mean,
    so it reduces to a d x d determinant.
    """
    # the determinant is invariant under a common node translation, so
    # center at the node mean; for d = 2 this makes the value exactly 1/2
    s = kappa - np.mean(kappa, axis=1, keepdims=True)
    # entries by Python's scalar power: numpy's array power differs from
    # it in the last bit on some inputs
    flat = s.ravel().tolist()
    entries = [[x ** i / math.factorial(i) for x in flat]
               for i in range(d - 1)]
    entries.append([max(x, 0.0) ** (d - 1) / math.factorial(d - 1)
                    for x in flat])
    # mat[k, i, j]: entry i at node j of sample k
    mat = np.array(entries).reshape(d, *s.shape).transpose(1, 0, 2)
    if d == 2:
        # cofactor formula; LAPACK's LU loses the exact 1/2 by an ulp
        det = mat[:, 0, 0] * mat[:, 1, 1] - mat[:, 0, 1] * mat[:, 1, 0]
    else:
        det = np.linalg.det(mat)
    return det / v


def psi_mean_tail_ratio(d: int, t: float, h) -> float:
    """The ratio int_{g_d}^{t+kappa_d} Psi_d(u - t; h) du / v(h), with
    g_d = t + mean(kappa); it does not depend on t."""
    g = GapVector.of(h)
    v = g.v
    if v == 0.0:
        raise ZeroDivisionError("degenerate gap vector (v(h) = 0)")
    return float(_mean_tail_ratios(d, g.kappa[None], np.array([v]))[0])


def psi_mean_tail_ratio_quad(d: int, t: float, h, order: int = 12) -> float:
    """Independent route to :func:`psi_mean_tail_ratio`: pointwise Psi_d
    quadrature, with panels split at the kink offsets kappa_j."""
    g = GapVector.of(h)
    kappa = g.kappa
    lo = t + float(np.mean(kappa))
    hi = t + float(kappa[-1])
    breaks = sorted({lo, hi} | {t + float(k) for k in kappa
                                if lo < t + float(k) < hi})
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        x, w = gl_nodes(a, b, order)
        total += float(np.sum(w * psi(d, x - t, g)))
    return total / g.v


def check_psi_lower_bound(d: int, t, h,
                          tolerance: float = 0.0) -> CheckReport:
    """Empirical infimum of the Psi tail-mass ratio over the samples
    (t_k, h_k): ``h`` holds one row of d - 1 gaps per sample and ``t`` is
    one float for all of them or one per sample.

    For d = 2 the ratio is identically 1/2; for d >= 3 the check passes
    iff the sampled infimum is strictly positive.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[1] != d - 1:
        raise ConfigError(f"need one row of {d - 1} gaps per sample, "
                          f"got shape {h.shape}")
    if np.any(h < 0):
        raise ConfigError("gap entries must be nonnegative")
    n = h.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    kappa = np.concatenate([np.zeros((n, 1)), np.cumsum(h, axis=1)], axis=1)
    v = vandermonde_arr(kappa)
    kept = np.flatnonzero(v > 0.0)
    ratios = _mean_tail_ratios(d, kappa[kept], v[kept])
    best_sample = None
    if kept.size:
        i = int(np.argmin(ratios))  # the first strict minimum
        k = kept[i]
        best_sample = {"t": float(t[k]), "h": h[k].tolist(),
                       "ratio": float(ratios[i])}
    passed = best_sample is not None and best_sample["ratio"] > tolerance
    rep = CheckReport(
        check_id="check_psi_lower_bound",
        parameters={"d": d, "n_samples": n},
        estimate=best_sample["ratio"] if best_sample else None,
        bound=0.0,
        tolerance=tolerance,
        passed=passed,
        witnesses=[best_sample] if best_sample else [],
    )
    if kept.size < n:
        rep.notes.append(
            f"skipped {n - kept.size} degenerate samples with v(h)=0")
    if best_sample is None:
        rep.notes.append("all samples degenerate; inconclusive")
    return rep


# ---------------------------------------------------------------------------
# integral identities and inequalities for Vandermonde determinants


def check_vandermonde_integration(n: int, s, rel_tol: float = 1e-8) -> CheckReport:
    """V_n(s) = (n-1)! * iterated integral of V_{n-1} over prod [s_i, s_{i+1}],
    and the mass of the kernel,
    int Psi_n(u; diff(s)) du = V_n(s) / prod_{i<n} i!.

    The estimate is the larger relative error of the two identities.
    """
    s = np.asarray(s, dtype=float)
    if n < 2 or s.shape != (n,) or np.any(np.diff(s) <= 0):
        raise ConfigError("s must be strictly increasing of length n >= 2")
    lhs = vandermonde(s)
    lo, hi = s[:-1], s[1:]
    pts, wts = box_rule(lo, hi, max(4, n))  # integrand is a polynomial
    rhs = math.factorial(n - 1) * float(np.sum(wts * vandermonde_arr(pts)))
    rel_err = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    # Psi_n is a polynomial of degree n - 2 between its knots, so a rule of
    # this order on each knot interval is exact
    g = GapVector.of(np.diff(s))
    x, w = gl_nodes(g.kappa[:-1], g.kappa[1:], max(4, n))
    mass = float(np.sum(w * psi(n, x, g)))
    mass_ref = lhs / factorial_product(n)
    mass_err = abs(mass - mass_ref) / max(abs(mass_ref), 1e-300)
    err = max(rel_err, mass_err)
    return CheckReport(
        check_id="check_vandermonde_integration",
        parameters={"n": n, "s": list(map(float, s))},
        estimate=err,
        bound=rel_tol,
        tolerance=rel_tol,
        passed=err <= rel_tol,
        witnesses=[{"lhs": lhs, "rhs": rhs},
                   {"psi_mass": mass, "v_over_factorials": mass_ref}],
    )


def _nested_integral(integrand, bounds, order: int = 10, panels: int = 6):
    """Iterated integral with bounds that may depend on the outer variables.

    ``bounds[k](prefix) -> (lo, hi)`` where prefix is the tuple of outer
    values.  The innermost axis is vectorized.
    """
    depth = len(bounds)

    def recurse(prefix):
        k = len(prefix)
        lo, hi = bounds[k](prefix)
        if hi <= lo:
            return 0.0
        edges = np.linspace(lo, hi, panels + 1)
        nodes, weights = gl_nodes(edges[:-1], edges[1:], order)
        nodes = nodes.ravel()
        weights = weights.ravel()
        if k == depth - 1:
            pts = np.empty((nodes.size, depth))
            pts[:, :k] = prefix
            pts[:, k] = nodes
            return float(np.sum(weights * integrand(pts)))
        return float(sum(w * recurse(prefix + (x,))
                         for x, w in zip(nodes, weights)))

    return recurse(())


def check_tail_inequalities(n: int, t, delta: float,
                            floor: float = 1e-6) -> CheckReport:
    """Two lower bounds for iterated Vandermonde integrals.

    (a) spread-weighted: int_box V_{n-1}(u) (u_{n-1}-u_1)^delta du versus
        V_n(t) (t_n - t_1)^delta;
    (b) mean-restricted: the same integral restricted to
        mean(u) >= mean(t), versus V_n(t).

    Both ratios must exceed ``floor``.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (n,) or np.any(np.diff(t) <= 0):
        raise ConfigError("t must be strictly increasing of length n")
    if n < 3:
        raise ConfigError("tail inequalities need n >= 3 "
                          "(the n=2 spread factor degenerates)")
    lo, hi = t[:-1], t[1:]

    pts, wts = box_rule(lo, hi, 24)
    spread = pts[:, -1] - pts[:, 0]
    lhs_a = float(np.sum(wts * vandermonde_arr(pts) * spread ** delta))
    rhs_a = vandermonde(t) * (t[-1] - t[0]) ** delta
    ratio_a = lhs_a / rhs_a

    mean_t = float(np.mean(t))
    target = (n - 1) * mean_t  # sum of the n-1 inner variables

    def bound_k(k):
        if k < n - 2:
            return lambda prefix: (lo[k], hi[k])
        return lambda prefix: (max(lo[k], target - sum(prefix)), hi[k])

    lhs_b = _nested_integral(vandermonde_arr,
                             [bound_k(k) for k in range(n - 1)])
    ratio_b = lhs_b / vandermonde(t)

    est = min(ratio_a, ratio_b)
    return CheckReport(
        check_id="check_tail_inequalities",
        parameters={"n": n, "t": list(map(float, t)), "delta": delta},
        estimate=est,
        bound=floor,
        tolerance=0.0,
        passed=ratio_a >= floor and ratio_b >= floor,
        witnesses=[{"spread_ratio": ratio_a, "mean_restricted_ratio": ratio_b}],
    )


# the keys each lin-lemma factor type reads besides 'type' and 'j'
_FACTOR_KEYS = {"diff": ("k",), "upper": ("d",), "lower": ("c",)}


def check_lin_lemma_keys(instance) -> None:
    """ConfigError unless the lin-lemma instance and each of its factors
    hold only the keys they read, and every factor type is known."""
    if not isinstance(instance, dict):
        raise ConfigError("lin-lemma instance must be an object")
    reject_unknown_keys("lin-lemma instance", instance,
                        ("intervals", "lambdas", "factors"))
    for f in instance.get("factors", []):
        kind = f.get("type") if isinstance(f, dict) else None
        if not isinstance(kind, str) or kind not in _FACTOR_KEYS:
            raise ConfigError(f"unknown factor type {kind!r}")
        reject_unknown_keys(f"lin-lemma factor {kind!r}", f,
                            ("type", "j") + _FACTOR_KEYS[kind])


def check_lin_lemma(instance: dict, floor: float = 0.0) -> CheckReport:
    """Restricted-box versus full-box integrals of products of linear factors.

    ``instance`` = {"intervals": [[a_j, b_j], ...], "lambdas": [...],
    "factors": [{"type": "diff", "j": j, "k": k} |
                {"type": "upper", "j": j, "d": d_j} |
                {"type": "lower", "j": j, "c": c_j}, ...]}
    (j, k are 0-based axis indices).  The ratio restricted/full must be
    positive: the restriction keeps only the top lambda_j fraction of
    each axis.
    """
    check_lin_lemma_keys(instance)
    intervals = [tuple(map(float, iv)) for iv in instance["intervals"]]
    lambdas = [float(x) for x in instance.get("lambdas", [])]
    factors = instance.get("factors", [])
    N = len(intervals)
    if len(lambdas) != N:
        raise ConfigError("need one lambda per interval")
    for j in range(N - 1):
        if intervals[j][1] > intervals[j + 1][0]:
            raise ConfigError("intervals must be nondecreasing and disjoint")
    for (a, b) in intervals:
        if not a < b:
            raise ConfigError("each interval must satisfy a < b")
    for lam in lambdas:
        if not 0.0 < lam < 1.0:
            raise ConfigError("lambdas must lie in (0, 1)")
    for f in factors:
        kind = f["type"]
        if kind == "diff":
            if not 0 <= f["j"] < f["k"] < N:
                raise ConfigError("diff factor needs 0 <= j < k < N")
        elif kind == "upper":
            if f["d"] < intervals[f["j"]][1]:
                raise ConfigError("upper factor needs d >= b_j")
        elif f["c"] > intervals[f["j"]][0]:
            raise ConfigError("lower factor needs c <= a_j")

    def integrand(pts):
        out = np.ones(pts.shape[0])
        for f in factors:
            if f["type"] == "diff":
                out = out * (pts[:, f["k"]] - pts[:, f["j"]])
            elif f["type"] == "upper":
                out = out * (f["d"] - pts[:, f["j"]])
            else:
                out = out * (pts[:, f["j"]] - f["c"])
        return out

    order = max(4, len(factors) + 2)  # polynomial integrand
    lo_full = np.array([iv[0] for iv in intervals])
    hi_full = np.array([iv[1] for iv in intervals])
    pts, wts = box_rule(lo_full, hi_full, order)
    full = float(np.sum(wts * integrand(pts)))
    lo_res = np.array([(1 - lam) * a + lam * b
                       for (a, b), lam in zip(intervals, lambdas)])
    pts, wts = box_rule(lo_res, hi_full, order)
    restricted = float(np.sum(wts * integrand(pts)))
    ratio = restricted / full if full != 0 else math.inf
    return CheckReport(
        check_id="check_lin_lemma",
        parameters={"N": N, "M": len(factors)},
        estimate=ratio,
        bound=floor,
        tolerance=0.0,
        passed=full > 0 and ratio > floor,
        witnesses=[{"restricted": restricted, "full": full}],
    )
