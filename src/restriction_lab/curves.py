"""Curve models, derivative oracles and affine arclength weights.

The central objects are curves of the shape

    gamma(t) = (t, t^2/2, ..., t^(d-1)/(d-1)!, phi(t)),

where all torsion is carried by the last coordinate, together with
power curves (t^{a_1}, ..., t^{a_d}) on t > 0.  Derivative stacks are
supplied analytically per family; central finite differences serve as a
validation oracle only.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .report import (CheckReport, Choice, ConfigError, DomainError, Int, Kind,
                     Many, Real, Spec, worst_index)

DEFAULT_MAX_D = 5
# oracles clamp evaluation points this far (relative to the domain
# length) inside the domain ends
CLAMP_EPS_REL = 1e-9


@dataclass(frozen=True)
class DerivativeOracle:
    """A real function on an open interval answering f^(k)(t), k >= 0.

    ``fn(t, k)`` must accept a numpy array t of any shape and answer the
    array of values as a new array, which shares no memory with t and
    which a caller may overwrite (a 0-d t may give a scalar instead).
    Evaluation clamps t to [a + eps, b - eps] to keep away from endpoint
    singularities of t^beta with non-integer beta.

    A float t gives a float, an array gives an array of its shape (an
    empty one included).  A t beyond the domain by more than a relative
    1e-12 raises DomainError; NaN entries pass through unchecked.
    """

    domain: tuple[float, float]
    fn: Callable

    def __call__(self, t, k: int):
        out = np.asarray(self.fn(_clamped(self.domain, t), k), dtype=float)
        if np.ndim(t) == 0:
            return float(out)
        return out


def _in_domain(domain: tuple[float, float], t) -> np.ndarray:
    """t as a float array; a t beyond ``domain`` by more than a relative
    1e-12 raises DomainError, and NaN entries pass through unchecked."""
    a, b = domain
    t_arr = np.asarray(t, dtype=float)
    # fmin/fmax skip NaN, so a NaN entry hides no out-of-domain one
    if t_arr.size:
        tol = 1e-12 * max(1.0, abs(a), abs(b))
        if (np.fmin.reduce(t_arr, axis=None) < a - tol
                or np.fmax.reduce(t_arr, axis=None) > b + tol):
            raise DomainError(f"t={t} outside domain ({a}, {b})")
    return t_arr


def _clamped(domain: tuple[float, float], t) -> np.ndarray:
    """t checked by :func:`_in_domain` and clamped CLAMP_EPS_REL inside
    ``domain``."""
    a, b = domain
    t_arr = _in_domain(domain, t)
    eps = CLAMP_EPS_REL * (b - a)
    # the values of np.clip, NaN kept, at a fraction of its cost
    return np.minimum(np.maximum(t_arr, a + eps), b - eps)


@dataclass(frozen=True)
class SimpleCurve:
    """gamma(t) = (t, t^2/2, ..., t^(d-1)/(d-1)!, phi(t))."""

    d: int
    phi: DerivativeOracle
    label: str = "simple"

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError("simple curve needs d >= 2")

    @property
    def domain(self) -> tuple[float, float]:
        return self.phi.domain

    def top(self, x, rows):
        """phi^(d) at x.  This is the signature of the B-spline mean sweep,
        whose rows may each lie on a curve of their own (see
        :func:`poly_rows`); on one curve the rows do not matter."""
        return self.phi(x, self.d)

    def jet(self, t, k: int = 0):
        """gamma^(k)(t) on the last axis: t^(j-k)/(j-k)! for j = 1..d-1
        (0 for j < k), then phi^(k)(t).

        ``t`` is used as given: a float, a numpy scalar or an array each
        keeps its own power arithmetic, and a scalar t gives shape (d,).
        """
        cols = [t ** (j - k) / math.factorial(j - k) if j >= k
                else np.zeros(np.shape(t)) for j in range(1, self.d)]
        cols.append(self.phi(t, k))
        return np.stack(cols, axis=-1) if np.ndim(t) else np.array(cols)


@dataclass(frozen=True)
class HomogeneousCurve:
    """gamma(t) = (t^{a_1}, ..., t^{a_d}) on t >= 0, a_1 < ... < a_d
    nonzero, on a domain inside [0, inf)."""

    exponents: tuple[float, ...]
    domain: tuple[float, float] = (0.0, 1.0)
    label: str = "homogeneous"

    def __post_init__(self):
        a = self.exponents
        if any(x == 0 for x in a):
            raise ConfigError("homogeneous exponents must be nonzero")
        if any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
            raise ConfigError("homogeneous exponents must be strictly increasing")
        if not self.domain[0] >= 0:
            raise ConfigError(f"a homogeneous curve's domain must lie in "
                              f"[0, inf), got {list(self.domain)}")

    @property
    def d(self) -> int:
        return len(self.exponents)

    def jet(self, t, k: int = 0):
        """gamma^(k)(t) on the last axis, t taken as a float array: the
        powers t^a broadcast against all exponents for k = 0, and one
        falling-factorial column c * t^(a-k) per exponent for k >= 1, 0
        where c = 0.

        A t beyond the domain by more than a relative 1e-12 raises
        DomainError (t is not clamped), as do a t < 0 and t = 0 in a
        column with c != 0 and a negative power a - k.
        """
        t = _in_domain(self.domain, t)
        # the falling factorials a (a - 1) ... (a - k + 1)
        coefs = [math.prod(a - i for i in range(k)) for a in self.exponents]
        low = np.fmin.reduce(t, axis=None) if t.size else 1.0
        if low < 0 or low == 0 and any(
                c and a < k for a, c in zip(self.exponents, coefs)):
            raise DomainError(f"gamma^({k}) of (t^a for a in "
                              f"{list(self.exponents)}) needs t >= 0, and "
                              f"t > 0 where a - k < 0; got t = {low}")
        if k == 0:
            return t[..., None] ** np.asarray(self.exponents, dtype=float)
        return np.stack([c * t ** (a - k) if c else np.zeros(t.shape)
                         for a, c in zip(self.exponents, coefs)], axis=-1)


def affine_weight(curve, t):
    """Affine arclength weight w(t), for a float or an array t.

    For simple curves this is |phi^(d)(t)|^{2/(d(d+1))}; for homogeneous
    curves it is the torsion determinant
    |det(gamma', ..., gamma^(d))|^{2/(d(d+1))} (which reduces to the same
    thing on simple curves).
    """
    d = curve.d
    expo = 2.0 / (d * (d + 1))
    if isinstance(curve, SimpleCurve):
        return np.abs(curve.phi(t, d)) ** expo
    # columns gamma'(t), ..., gamma^(d)(t), one matrix per point
    frame = np.stack([curve.jet(t, k) for k in range(1, d + 1)], axis=-1)
    return np.abs(np.linalg.det(frame)) ** expo


def validate_monotone(curve: SimpleCurve, grid_size: int = 64) -> CheckReport:
    """Check that phi', ..., phi^(d) are nonnegative and nondecreasing on a
    grid.  A NaN derivative on the grid fails the check, with a note naming
    its order and first t."""
    tolerance = 1e-12
    a, b = curve.domain
    grid = np.linspace(a, b, grid_size)
    values, increments = [], []
    witnesses = []
    notes = []
    for k in range(1, curve.d + 1):
        vals = curve.phi(grid, k)
        nan = np.flatnonzero(np.isnan(vals))
        if nan.size:
            notes.append(f"phi^({k}) is NaN at t = {float(grid[nan[0]])!r}")
            continue
        mv = float(np.min(vals))
        md = float(np.min(np.diff(vals)))
        values.append(mv)
        increments.append(md)
        witnesses.append({"order": k, "min_value": mv, "min_increment": md})
    # the lowest minimum, a value before an increment on a tie
    lows = values + increments
    i = worst_index([-x for x in lows])
    lowest = None if i is None else lows[i]
    return CheckReport(
        check_id="validate_monotone",
        parameters={"d": curve.d, "grid_size": grid_size, "curve": curve.label},
        estimate=lowest,
        bound=0.0,
        tolerance=tolerance,
        passed=not notes and lowest >= -tolerance,
        witnesses=witnesses,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# curve families


def monomial_oracle(beta: float, domain=(0.0, 1.0)) -> DerivativeOracle:
    """phi(t) = t^beta."""

    def fn(t, k):
        c = 1.0
        for i in range(k):
            c *= (beta - i)
        if c == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float))
        # t ** (beta - k) is a new array (a numpy scalar for a 0-d t, where
        # *= rebinds), scaled by c in place
        out = np.asarray(t, dtype=float) ** (beta - k)
        out *= c
        return out

    return DerivativeOracle(domain=tuple(domain), fn=fn)


def _horner(c, x):
    """sum_j c[j] x^j by Horner's rule, with the arithmetic of numpy's
    polyval: c[-1] + x*0, then c[-i] + (...)*x.  The entries of ``c`` are
    floats, or arrays that broadcast against x."""
    out = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        out = c[-i] + out * x
    return out


def _deriv_coeffs(c, k: int):
    """The coefficients of the k-th derivative as numpy.polynomial's
    deriv(k) takes them: k steps of c[j-1] <- j * c[j], or c[0] * 0 alone
    once k reaches len(c)."""
    if k >= len(c):
        return [c[0] * 0]
    for _ in range(k):
        c = [j * c[j] for j in range(1, len(c))]
    return c


def poly_oracle(coeffs: Sequence[float],
                domain=(0.0, 1.0)) -> DerivativeOracle:
    """phi(t) = sum coeffs[k] * t^k, evaluated by Horner's rule with the
    values of numpy.polynomial.Polynomial and its deriv(k)."""
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ConfigError("a polynomial needs at least one coefficient")
    # each derivative's coefficients are built on first use and kept
    deriv = lru_cache(maxsize=None)(lambda k: _deriv_coeffs(coeffs, k))

    def fn(t, k):
        # 0.0 + t: Polynomial maps its argument to 0.0 + 1.0 * t
        return _horner(deriv(k), 0.0 + np.asarray(t, dtype=float))

    return DerivativeOracle(domain=tuple(domain), fn=fn)


def poly_rows(coeffs, domain, k: int):
    """The k-th derivatives of the polynomials whose coefficients are the
    rows of ``coeffs`` (shape (n, m)), all on ``domain``, as the B-spline
    mean sweep's top(x, rows): x has one leading entry per row of
    ``rows`` (a slice or an index array), or is the points of the one row
    ``rows`` (an int).  Each value is the one :func:`poly_oracle` of that
    row gives, the oracle's domain check and clamp included."""
    cols = _deriv_coeffs(list(np.asarray(coeffs, dtype=float).T), k)

    def top(x, rows):
        x = _clamped(domain, x)
        c = [col[rows] for col in cols]
        c = [ci.reshape(ci.shape + (1,) * (x.ndim - ci.ndim)) for ci in c]
        return _horner(c, 0.0 + x)

    return top


@lru_cache(maxsize=128)
def _expflat_coeffs(beta: float, d: int) -> tuple[float, ...]:
    """Coefficients a_{1..d} in the closed form of the d-th derivative of
    exp(-t^{-beta}); a_0 = 1 implicitly.

    Recursion (derived by differentiating the closed form):
        a_{k,d+1} = a_{k,d} - a_{k-1,d} * (d + 1 - k + d/beta).
    """
    a = [1.0]  # a_{0,1}=1; a_{j,1}=0 for j>=1 handled by padding
    for cur_d in range(1, d):
        prev = a + [0.0]
        nxt = [1.0]
        for k in range(1, cur_d + 2):
            a_k = prev[k] if k < len(prev) else 0.0
            a_km1 = prev[k - 1] if k - 1 < len(prev) else 0.0
            nxt.append(a_k - a_km1 * (cur_d + 1 - k + cur_d / beta))
        a = nxt
    return tuple(a[1:]) if d >= 1 else ()


def expflat_phi_derivative(beta: float, k: int, t):
    """k-th derivative of phi(t) = exp(-t^{-beta}) for t > 0, closed form."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("exp-flat derivatives require t > 0")
    core = np.exp(-t ** (-beta))
    if k == 0:
        out = core
    else:
        coeffs = _expflat_coeffs(beta, k)
        poly = np.ones_like(t)
        for j, a in enumerate(coeffs, start=1):
            poly = poly + a * t ** (j * beta)
        out = beta ** k * core * t ** (-k * (beta + 1)) * poly
    return float(out) if out.ndim == 0 else out


def expflat_oracle(beta: float, domain=(0.0, 1.0)) -> DerivativeOracle:
    """phi(t) = exp(-t^{-beta}), beta > 0."""

    def fn(t, k):
        return expflat_phi_derivative(beta, k, t)

    return DerivativeOracle(domain=tuple(domain), fn=fn)


def finite_difference(oracle: DerivativeOracle, t: float, k: int,
                      step: float | None = None) -> float:
    """Central finite difference of f^(k-1) as an independent check of f^(k)."""
    if step is None:
        a, b = oracle.domain
        step = 1e-5 * (b - a)
    return (oracle(t + step, k - 1) - oracle(t - step, k - 1)) / (2 * step)


# the builders of the curve kinds: each one's keyword parameters are the
# keys of its spec besides 'kind'
_D = Int(2, DEFAULT_MAX_D)


def _domain(key: str, value):
    """A curve domain [a, b] with a < b, as written."""
    a, b = Many(Real(), size=2)(key, value)
    if not a < b:
        raise ConfigError(f"'{key}' must be an interval [a, b] with a < b, "
                          f"got {value!r}")
    return value


def _monomial(beta: Real(keep=True), d: _D = 3,
              domain: _domain = (0.0, 1.0)) -> SimpleCurve:
    return SimpleCurve(d=d, phi=monomial_oracle(float(beta), domain),
                       label=f"monomial(beta={beta})")


# beta > 0: the derivative coefficients divide by beta
def _exp_flat(beta: Real(0, keep=True), d: _D = 3,
              domain: _domain = (0.0, 1.0)) -> SimpleCurve:
    return SimpleCurve(d=d, phi=expflat_oracle(float(beta), domain),
                       label=f"exp-flat(beta={beta})")


def _poly_phi(coeffs: Many(Real()), d: _D = 3,
              domain: _domain = (0.0, 1.0)) -> SimpleCurve:
    return SimpleCurve(d=d, phi=poly_oracle(coeffs, domain),
                       label="poly-phi")


def _homogeneous(exponents: Many(Real()),
                 domain: _domain = (0.0, 1.0)) -> HomogeneousCurve:
    return HomogeneousCurve(exponents=tuple(exponents), domain=tuple(domain))


_SIMPLE_KINDS = {"monomial": _monomial, "exp-flat": _exp_flat,
                 "poly-phi": _poly_phi}
# the kinds of a curve with a phi: the spec of a check that reads phi
SIMPLE_CURVE = Kind("curve spec", _SIMPLE_KINDS)
# every kind: the spec of a check that traces gamma alone
CURVE = Kind("curve spec", {**_SIMPLE_KINDS, "homogeneous": _homogeneous})


def _flatten(base: SIMPLE_CURVE, d: _D = 3, domain: _domain = (0.0, 1.0),
             steps: Int(1) = 1,
             variant: Choice("exp", "log") = "exp") -> SimpleCurve:
    """``base`` at this spec's d and domain, flattened ``steps`` times; a
    base may repeat the spec's d or domain, but not differ from it."""
    from .conditions import build_flattened
    for key, value in (("d", d), ("domain", list(domain))):
        if base.get(key, value) != value:
            raise ConfigError(f"curve spec 'flatten': the base's {key} "
                              f"{base[key]!r} differs from the spec's "
                              f"{value!r}")
    cur = SIMPLE_CURVE.build({**base, "d": d, "domain": list(domain)})
    for _ in range(steps):
        cur = build_flattened(cur, variant=variant)
    return cur


# flatten joins both tables last, since its base is a curve spec of a
# simple kind, flatten included
SIMPLE_CURVE.builders["flatten"] = CURVE.builders["flatten"] = Spec(
    _flatten, "curve spec 'flatten'")
# the curve of a JSON spec
curve_from_spec = CURVE.build
