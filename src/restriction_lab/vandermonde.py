"""Vandermonde determinants, gap vectors and the Psi kernel.

The kernel Psi_d is a scaled B-spline on the offsets kappa(h) and
represents the offspring Jacobian as an integral against phi^(d); see
:mod:`restriction_lab.jacobian`.  Everything here is piecewise
polynomial, so Gauss-Legendre rules split at the knots are exact up to
roundoff.
"""

import math
from functools import lru_cache

import numpy as np

from .quadrature import box_rule, gl_nodes
from .report import (CheckReport, ConfigError, Int, Kind, Many, Real,
                     at_most)


def vandermonde(x) -> float:
    """prod_{i<j} (x_j - x_i) of a vector x; zero iff two entries coincide."""
    return float(vandermonde_arr(x))


def vandermonde_arr(x: np.ndarray) -> np.ndarray:
    """The Vandermonde product prod_{i<j} (x_j - x_i) over the last axis."""
    x = np.asarray(x, dtype=float)
    # the coordinate axis leads, so a vector's factors are numpy scalars,
    # and the product starts from the first factor (1.0 times it)
    cols = x.transpose(-1, *range(x.ndim - 1))
    out = np.ones(x.shape[:-1]) if len(cols) < 2 else 1.0
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            out = out * (cols[j] - cols[i])
    return out


def kappa_of(h: np.ndarray) -> np.ndarray:
    """Prefix-sum offsets kappa_1 = 0, kappa_j = h_1 + ... + h_{j-1} of the
    gaps h on the last axis."""
    h = np.asarray(h, dtype=float)
    return np.concatenate((np.zeros(h.shape[:-1] + (1,)),
                           np.cumsum(h, axis=-1)), axis=-1)


def gaps(h) -> np.ndarray:
    """The gaps h = (h_1, ..., h_{d-1}) between offspring offsets as a float
    array (one number is one gap), or rows of them; ConfigError on a
    negative entry."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if np.any(h < 0):
        raise ConfigError("gap entries must be nonnegative")
    return h


# ---------------------------------------------------------------------------
# the Psi kernel


def factorial_product(d: int) -> int:
    """prod_{i<d} i! = 1! 2! ... (d-1)!."""
    return math.prod(math.factorial(i) for i in range(1, d))


# one gather and one divide per call for every level's spans, instead of a
# subtract and a divide per level: the sigma checks of configs/high_d.json
# and 60 one-row sigma_ratio calls ran 5 % faster with this table, in 36
# of 40 alternating pairs (2-core box); one call took 392 against 433 us
# on 64 rows at d = 5, and 34 against 42 us on one row
@lru_cache(maxsize=16)
def _span_pairs(d: int):
    """The knot pairs (j, j + k) of the Cox-de Boor levels k = 1..d - 2,
    level by level: the lower and the upper knot indices (read-only), and
    the offset of each level's first pair (level k spans
    starts[k - 1]:starts[k])."""
    levels = range(1, d - 1)
    lo = np.array([j for k in levels for j in range(d - k)], dtype=np.intp)
    hi = np.array([j + k for k in levels for j in range(d - k)],
                  dtype=np.intp)
    lo.flags.writeable = hi.flags.writeable = False
    starts = [0]
    for k in levels:
        starts.append(starts[-1] + d - k)
    return lo, hi, tuple(starts)


def unit_bspline(kappa, u) -> np.ndarray:
    """The unit-mass B-spline M(u; kappa) on knots kappa_1 <= ... <= kappa_d:
    piecewise polynomial of degree d - 2 with integral 1, zero outside
    [kappa_1, kappa_d].  Cox-de Boor recurrence from the interval
    indicators, the last interval closed.

    ``kappa`` is one knot vector of shape (d,), or knot rows of shape
    (n, d) against ``u`` of shape (n, ...), row i of ``u`` on knots i.
    Either way each value has the arithmetic of the one-vector case.

    The recurrence runs on the one table D_j = u - kappa_j: IEEE
    subtraction and multiplication are symmetric in sign, so
    (kappa_j - u) * s * b added is -(D_j * s * b) subtracted, bit for bit,
    zero signs included.
    """
    kappa = np.asarray(kappa, dtype=float)
    u = np.asarray(u, dtype=float)
    d = kappa.shape[-1]
    # the knot index leads, and each knot row lines up with its u
    kappa = kappa.T.reshape(
        (d,) + kappa.shape[:-1] + (1,) * (u.ndim - kappa.ndim + 1))
    D = u - kappa
    b = ((D[:-1] >= 0) & (D[1:] < 0)).astype(float)
    b[-1] += D[-1] == 0
    # every level's reciprocal knot spans, 0 on an empty span
    lo, hi, starts = _span_pairs(d)
    span = kappa[hi] - kappa[lo]
    inv = np.divide(1.0, span, out=np.zeros_like(span), where=span > 0)
    for k in range(1, d - 1):
        s = inv[starts[k - 1]:starts[k]]
        # (D[:-k-1] * s[:-1] * b[:-1]) - (D[k+1:] * s[1:] * b[1:]), with
        # two temporaries instead of five
        lower = D[:-k - 1] * s[:-1]
        lower *= b[:-1]
        upper = D[k + 1:] * s[1:]
        upper *= b[1:]
        lower -= upper
        b = lower
    return b[0] * (d - 1) / (kappa[-1] - kappa[0])


def psi(d: int, t, h) -> float | np.ndarray:
    """The kernel Psi_d(t; h) = v(h) / prod_{i<d} i! * M(t; kappa(h))
    (Curry-Schoenberg), nonnegative, supported in [0, h_1 + ... + h_{d-1}]."""
    if d < 2:
        raise ConfigError(f"psi needs d >= 2, got {d}")
    h = gaps(h)
    if h.size != d - 1:
        raise ConfigError(f"gap vector has {h.size} entries, need {d - 1}")
    kappa = kappa_of(h)
    v = vandermonde(kappa)
    t_arr = np.asarray(t, dtype=float)
    if v == 0.0:
        out = np.zeros_like(t_arr)
    else:
        out = v / factorial_product(d) * unit_bspline(kappa, t_arr)
    if np.ndim(t) == 0:
        return float(out)
    return out


# rows per block of psi_mean_tail_ratio: a row holds d^2 Python floats of
# about 32 bytes while its matrix is built.  At 200,000 rows and d = 5 the
# check's peak RSS was 340 MB with every row's entries built at once, and
# is 77 MB in blocks
_TAIL_BLOCK = 4096


def psi_mean_tail_ratio(d: int, h) -> np.ndarray:
    """The ratio int_{g_d}^{t+kappa_d} Psi_d(u - t; h) du / v(h), with
    g_d = t + mean(kappa), of each row of gaps ``h`` (shape (n, d - 1));
    it does not depend on t.  ZeroDivisionError on a row with v(h) = 0.

    Evaluated in closed form: the tail integral equals the offspring
    determinant for phi(u) = (u - c)_+^d / d! with c at the node mean,
    so it reduces to a d x d determinant.
    """
    kappa = kappa_of(gaps(h))
    v = vandermonde_arr(kappa)
    if np.any(v == 0.0):
        raise ZeroDivisionError("degenerate gap vector (v(h) = 0)")
    # the determinant is invariant under a common node translation, so
    # center at the node mean; for d = 2 this makes the value exactly 1/2
    s = kappa - np.mean(kappa, axis=1, keepdims=True)
    det = np.empty(len(s))
    for i in range(0, len(s), _TAIL_BLOCK):
        det[i:i + _TAIL_BLOCK] = _tail_determinants(d, s[i:i + _TAIL_BLOCK])
    return det / v


def _tail_determinants(d: int, s: np.ndarray) -> np.ndarray:
    """The determinants of psi_mean_tail_ratio at the centered nodes ``s``
    (shape (n, d)), one per row."""
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
        return mat[:, 0, 0] * mat[:, 1, 1] - mat[:, 0, 1] * mat[:, 1, 0]
    return np.linalg.det(mat)


def psi_mean_tail_ratio_quad(d: int, t: float, h) -> float:
    """Independent route to :func:`psi_mean_tail_ratio` for one gap
    vector: pointwise Psi_d quadrature, with panels split at the kink
    offsets kappa_j."""
    h = gaps(h)
    kappa = kappa_of(h)
    lo = t + float(np.mean(kappa))
    hi = t + float(kappa[-1])
    breaks = sorted({lo, hi} | {t + float(k) for k in kappa
                                if lo < t + float(k) < hi})
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        x, w = gl_nodes(a, b, 12)
        total += float(np.sum(w * psi(d, x - t, h)))
    return total / vandermonde(kappa)


def check_psi_lower_bound(d: int, t, h) -> CheckReport:
    """Empirical infimum of the Psi tail-mass ratio over the samples
    (t_k, h_k): ``h`` holds one row of d - 1 gaps per sample and ``t`` is
    one float for all of them or one per sample.

    For d = 2 the ratio is identically 1/2; for d >= 3 the check passes
    iff the sampled infimum is strictly positive.
    """
    tolerance = 0.0
    h = gaps(h)
    if h.ndim != 2 or h.shape[1] != d - 1:
        raise ConfigError(f"need one row of {d - 1} gaps per sample, "
                          f"got shape {h.shape}")
    n = h.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    kept = np.flatnonzero(vandermonde_arr(kappa_of(h)) > 0.0)
    ratios = psi_mean_tail_ratio(d, h[kept])
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


# the largest n of check_vandermonde_integration: its tensor rule has
# max(4, n)^(n-1) nodes, 2,097,152 at n = 8 (about 1 s and 0.5 GB) and
# 43,046,721 at n = 9
_MAX_INTEGRATION_N = 8


def check_vandermonde_integration(n: int, s) -> CheckReport:
    """V_n(s) = (n-1)! * iterated integral of V_{n-1} over prod [s_i, s_{i+1}],
    and the mass of the kernel,
    int Psi_n(u; diff(s)) du = V_n(s) / prod_{i<n} i!.

    The estimate is the worse relative error of the two identities; a NaN
    error is the worse one and FAILs.
    """
    rel_tol = 1e-8
    if n > _MAX_INTEGRATION_N:
        raise ConfigError(
            f"n = {n} needs a tensor rule of {max(4, n) ** (n - 1):,} "
            f"nodes; n must be at most {_MAX_INTEGRATION_N}")
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
    h = np.diff(s)
    kappa = kappa_of(h)
    x, w = gl_nodes(kappa[:-1], kappa[1:], max(4, n))
    mass = float(np.sum(w * psi(n, x, h)))
    mass_ref = lhs / factorial_product(n)
    mass_err = abs(mass - mass_ref) / max(abs(mass_ref), 1e-300)
    return at_most("check_vandermonde_integration",
                   {"n": n, "s": list(map(float, s))},
                   [rel_err, mass_err], rel_tol,
                   witnesses=[{"lhs": lhs, "rhs": rhs},
                              {"psi_mass": mass,
                               "v_over_factorials": mass_ref}])


def _nested_integral(integrand, bounds):
    """Iterated integral with bounds that may depend on the outer variables,
    by 6 panels of a 10-point Gauss-Legendre rule on each axis.

    ``bounds[k](prefix) -> (lo, hi)`` where prefix is the tuple of outer
    values.  The innermost axis is vectorized.
    """
    order, panels = 10, 6
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


def check_tail_inequalities(n: int, t, delta: float) -> CheckReport:
    """Two lower bounds for iterated Vandermonde integrals.

    (a) spread-weighted: int_box V_{n-1}(u) (u_{n-1}-u_1)^delta du versus
        V_n(t) (t_n - t_1)^delta;
    (b) mean-restricted: the same integral restricted to
        mean(u) >= mean(t), versus V_n(t).

    Both ratios must exceed 1e-6.
    """
    floor = 1e-6
    t = np.asarray(t, dtype=float)
    if t.shape != (n,) or np.any(np.diff(t) <= 0):
        raise ConfigError("t must be strictly increasing of length n")
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


# the builders of the lin-lemma factor types (keys besides 'type'; j, k are
# 0-based axes), each giving the factor's values at an array of points
def _diff(j: Int(0), k: Int(0)):
    return lambda pts: pts[:, k] - pts[:, j]


def _upper(j: Int(0), d: Real()):
    return lambda pts: d - pts[:, j]


def _lower(j: Int(0), c: Real()):
    return lambda pts: pts[:, j] - c


FACTOR = Kind("lin-lemma factor",
              {"diff": _diff, "upper": _upper, "lower": _lower}, tag="type")


def check_lin_lemma(intervals: Many(Many(Real(), size=2)),
                    lambdas: Many(Real()) = (),
                    factors: Many(FACTOR, empty=True) = ()) -> CheckReport:
    """Restricted-box versus full-box integrals of products of linear
    factors (x_k - x_j), (d - x_j) and (x_j - c) over the box of
    ``intervals`` [a_j, b_j] (see :data:`FACTOR`).  The ratio
    restricted/full must be positive: the restriction keeps only the top
    lambda_j fraction of each axis.
    """
    floor = 0.0
    N = len(intervals)
    intervals = [tuple(map(float, iv)) for iv in intervals]
    lambdas = [float(x) for x in lambdas]
    if len(lambdas) != N:
        raise ConfigError("need one lambda per interval")
    if any(b > a for (_, b), (a, _) in zip(intervals, intervals[1:])):
        raise ConfigError("intervals must be nondecreasing and disjoint")
    if any(not a < b for a, b in intervals):
        raise ConfigError("each interval must satisfy a < b")
    if any(not 0.0 < lam < 1.0 for lam in lambdas):
        raise ConfigError("lambdas must lie in (0, 1)")
    # the rule that ties each factor type's keys to the intervals
    rules = {"diff": ("0 <= j < k < N", lambda j, k: j < k < N),
             "upper": ("j < N and d >= b_j",
                       lambda j, d: j < N and d >= intervals[j][1]),
             "lower": ("j < N and c <= a_j",
                       lambda j, c: j < N and c <= intervals[j][0])}
    values = []
    for f in factors:
        builder, v = FACTOR.parse(f)
        rule, holds = rules[f["type"]]
        if not holds(**v):
            raise ConfigError(f"{f['type']} factor needs {rule}")
        values.append(builder.fn(**v))

    def integrand(pts):
        out = np.ones(pts.shape[0])
        for value in values:
            out = out * value(pts)
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
