"""Curve models, derivative oracles and affine arclength weights.

The central objects are curves of the shape

    gamma(t) = (t, t^2/2, ..., t^(d-1)/(d-1)!, phi(t)),

where all torsion is carried by the last coordinate, together with
power curves (t^{a_1}, ..., t^{a_d}) on t > 0.  Derivative stacks are
supplied analytically per family; central finite differences serve as a
validation oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .report import CapabilityError, CheckReport, ConfigError, DomainError

DEFAULT_MAX_D = 5
# oracles clamp evaluation points this far (relative to the domain
# length) inside the domain ends
CLAMP_EPS_REL = 1e-9


@dataclass(frozen=True)
class DerivativeOracle:
    """A real function on an open interval answering f^(k)(t), 0 <= k <= max_order.

    ``fn(t, k)`` must accept a numpy array t of any shape and answer the
    array of values.  Evaluation clamps t to [a + eps, b - eps] to keep
    away from endpoint singularities of t^beta with non-integer beta.
    """

    domain: tuple[float, float]
    max_order: int
    fn: Callable

    def __call__(self, t, k: int):
        if k < 0 or k > self.max_order:
            raise CapabilityError(
                f"derivative order {k} outside 0..{self.max_order}")
        a, b = self.domain
        t_arr = np.asarray(t, dtype=float)
        tol = 1e-12 * max(1.0, abs(a), abs(b))
        if np.any(t_arr < a - tol) or np.any(t_arr > b + tol):
            raise DomainError(f"t={t} outside domain ({a}, {b})")
        eps = CLAMP_EPS_REL * (b - a)
        t_arr = np.clip(t_arr, a + eps, b - eps)
        out = np.asarray(self.fn(t_arr, k), dtype=float)
        if np.ndim(t) == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class SimpleCurve:
    """gamma(t) = (t, t^2/2, ..., t^(d-1)/(d-1)!, phi(t))."""

    d: int
    phi: DerivativeOracle
    label: str = "simple"

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError("simple curve needs d >= 2")
        if self.phi.max_order < self.d:
            raise CapabilityError(
                f"phi oracle supports order {self.phi.max_order} < d={self.d}")

    @property
    def domain(self) -> tuple[float, float]:
        return self.phi.domain


@dataclass(frozen=True)
class HomogeneousCurve:
    """gamma(t) = (t^{a_1}, ..., t^{a_d}) on t > 0, a_1 < ... < a_d nonzero."""

    exponents: tuple[float, ...]
    domain: tuple[float, float] = (0.0, 1.0)
    label: str = "homogeneous"

    def __post_init__(self):
        a = self.exponents
        if any(x == 0 for x in a):
            raise ConfigError("homogeneous exponents must be nonzero")
        if any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
            raise ConfigError("homogeneous exponents must be strictly increasing")

    @property
    def d(self) -> int:
        return len(self.exponents)

    @property
    def homogeneous_dimension(self) -> float:
        return float(sum(self.exponents))

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([t ** a for a in self.exponents], axis=-1)

    def derivative(self, t, k: int):
        t = np.asarray(t, dtype=float)
        cols = []
        for a in self.exponents:
            c = 1.0
            for i in range(k):
                c *= (a - i)
            cols.append(c * t ** (a - k))
        return np.stack(cols, axis=-1)


def evaluate_curve(curve: SimpleCurve, t: float, k: int = 0) -> np.ndarray:
    """gamma^(k)(t) as a length-d vector.

    The first d-1 components follow the polynomial pattern; the last is
    phi^(k)(t).
    """
    d = curve.d
    if k > d:
        raise CapabilityError(f"k={k} > d={d}")
    a, b = curve.domain
    out = np.zeros(d)
    for j in range(1, d):  # component j is t^j / j!
        if j >= k:
            out[j - 1] = float(t) ** (j - k) / math.factorial(j - k)
    out[d - 1] = curve.phi(t, k)
    return out


def curve_derivative_matrix(curve, t) -> np.ndarray:
    """Columns gamma'(t), ..., gamma^(d)(t); for homogeneous curves t may
    be an array, giving one matrix per point."""
    if isinstance(curve, HomogeneousCurve):
        return np.stack([curve.derivative(t, k) for k in range(1, curve.d + 1)],
                        axis=-1)
    return np.stack([evaluate_curve(curve, t, k) for k in range(1, curve.d + 1)],
                    axis=-1)


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
    return np.abs(np.linalg.det(curve_derivative_matrix(curve, t))) ** expo


def normalize_domain(curve: SimpleCurve) -> SimpleCurve:
    """Rescale so the domain right endpoint is 1: phi -> phi(b*t)."""
    a, b = curve.domain
    if not np.isfinite(b):
        raise ConfigError("cannot normalize a curve with infinite right endpoint")
    if b == 1.0:
        return curve
    base = curve.phi

    def fn(t, k):
        return b ** k * base.fn(np.asarray(t) * b, k)

    phi = DerivativeOracle(domain=(a / b, 1.0), max_order=base.max_order,
                           fn=fn)
    return SimpleCurve(d=curve.d, phi=phi, label=curve.label + "-normalized")


def validate_monotone(curve: SimpleCurve, grid_size: int = 64,
                      tolerance: float = 1e-12) -> CheckReport:
    """Check that phi', ..., phi^(d) are nonnegative and nondecreasing on a grid."""
    if grid_size < 2:
        raise ConfigError("grid_size must be >= 2")
    a, b = curve.domain
    grid = np.linspace(a, b, grid_size)
    min_val = math.inf
    min_diff = math.inf
    witnesses = []
    for k in range(1, curve.d + 1):
        vals = curve.phi(grid, k)
        mv = float(np.min(vals))
        md = float(np.min(np.diff(vals)))
        if mv < min_val:
            min_val = mv
        if md < min_diff:
            min_diff = md
        witnesses.append({"order": k, "min_value": mv, "min_increment": md})
    passed = min_val >= -tolerance and min_diff >= -tolerance
    return CheckReport(
        check_id="validate_monotone",
        parameters={"d": curve.d, "grid_size": grid_size, "curve": curve.label},
        estimate=min(min_val, min_diff),
        bound=0.0,
        tolerance=tolerance,
        passed=passed,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# curve families


def monomial_oracle(beta: float, domain=(0.0, 1.0),
                    max_order: int | None = None) -> DerivativeOracle:
    """phi(t) = t^beta."""
    if max_order is None:
        max_order = DEFAULT_MAX_D

    def fn(t, k):
        c = 1.0
        for i in range(k):
            c *= (beta - i)
        if c == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float))
        return c * np.asarray(t, dtype=float) ** (beta - k)

    return DerivativeOracle(domain=tuple(domain), max_order=max_order, fn=fn)


def poly_oracle(coeffs: Sequence[float], domain=(0.0, 1.0),
                max_order: int | None = None) -> DerivativeOracle:
    """phi(t) = sum coeffs[k] * t^k."""
    if max_order is None:
        max_order = max(DEFAULT_MAX_D, len(coeffs))
    poly = np.polynomial.Polynomial(list(coeffs))

    def fn(t, k):
        return poly.deriv(k)(np.asarray(t, dtype=float)) if k else poly(
            np.asarray(t, dtype=float))

    return DerivativeOracle(domain=tuple(domain), max_order=max_order, fn=fn)


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


def expflat_oracle(beta: float, domain=(0.0, 1.0),
                   max_order: int | None = None) -> DerivativeOracle:
    """phi(t) = exp(-t^{-beta})."""
    if max_order is None:
        max_order = DEFAULT_MAX_D

    def fn(t, k):
        return expflat_phi_derivative(beta, k, t)

    return DerivativeOracle(domain=tuple(domain), max_order=max_order, fn=fn)


def finite_difference(oracle: DerivativeOracle, t: float, k: int,
                      step: float | None = None) -> float:
    """Central finite difference of f^(k-1) as an independent check of f^(k)."""
    if step is None:
        a, b = oracle.domain
        step = 1e-5 * (b - a)
    return (oracle(t + step, k - 1) - oracle(t - step, k - 1)) / (2 * step)


def curve_from_spec(spec: dict) -> SimpleCurve | HomogeneousCurve:
    """Build a curve from its JSON specification.

    Kinds: monomial | exp-flat | poly-phi | flatten | homogeneous.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("curve spec must be an object with a 'kind'")
    kind = spec["kind"]
    domain = tuple(spec.get("domain", (0.0, 1.0)))
    if kind == "homogeneous":
        return HomogeneousCurve(exponents=tuple(spec["exponents"]),
                                domain=domain, label="homogeneous")
    d = int(spec.get("d", 3))
    if not (2 <= d <= DEFAULT_MAX_D) and not spec.get("allow_large_d", False):
        raise ConfigError(f"d={d} outside 2..{DEFAULT_MAX_D}; "
                          "set allow_large_d to override")
    max_order = max(d, DEFAULT_MAX_D)
    if kind == "monomial":
        phi = monomial_oracle(float(spec["beta"]), domain, max_order)
        label = f"monomial(beta={spec['beta']})"
    elif kind == "exp-flat":
        phi = expflat_oracle(float(spec["beta"]), domain, max_order)
        label = f"exp-flat(beta={spec['beta']})"
    elif kind == "poly-phi":
        phi = poly_oracle(list(spec["coeffs"]), domain, max_order)
        label = "poly-phi"
    elif kind == "flatten":
        from .conditions import build_flattened
        base = curve_from_spec({**spec["base"], "d": d, "domain": list(domain)})
        cur = base
        for _ in range(int(spec.get("steps", 1))):
            cur = build_flattened(cur, variant=spec.get("variant", "exp"))
        return cur
    else:
        raise ConfigError(f"unknown curve kind {kind!r}")
    return SimpleCurve(d=d, phi=phi, label=label)
