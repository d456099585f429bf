"""Mean-value condition constants, the derivative-gap condition, the
flattening constructors, and exponent arithmetic.

The two mean-value conditions compare a geometric mean of top-derivative
values against the value at an averaged point; ``estimate_A`` reports the
grid supremum of that ratio.  Flattening replaces phi^(d) by
(d-1)! exp(-1/phi^(d)) (or its log variant), producing progressively
flatter curves while keeping the geometric-mean constant at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Any

import numpy as np

from .curves import DerivativeOracle, SimpleCurve, validate_monotone
from .quadrature import integrate_refine
from .report import ConfigError, DomainError

_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass
class ConditionEstimate:
    condition_id: str
    constant: float
    attained_at: dict[str, Any] = field(default_factory=dict)
    grid_spec: str = ""
    passed: bool = True


def _usable_grid(curve: SimpleCurve, grid: np.ndarray) -> np.ndarray:
    """Grid points where phi^(d) is strictly positive in floating point.

    Negative values violate the condition's hypothesis and raise; exact
    zeros are treated as underflow of a very flat (but positive) top
    derivative and the point is dropped from the simplex sweep.
    """
    vals = curve.phi(grid, curve.d)
    if np.any(vals < 0):
        bad = float(grid[int(np.argmin(vals))])
        raise DomainError(f"phi^(d) < 0 at t = {bad}; condition undefined")
    keep = vals > 0
    if not np.any(keep):
        raise DomainError("phi^(d) underflows to zero on the whole grid")
    return grid[keep]


def _ratio_at(curve: SimpleCurve, rows: np.ndarray,
              variant: str) -> np.ndarray:
    """The mean-value ratio of each row of ``rows`` (shape (m, d)), from
    one oracle call on the nodes and their centres together."""
    d = curve.d
    center = np.mean(rows, axis=1) if variant == "AM" else np.exp(
        np.mean(np.log(rows), axis=1))
    vals = curve.phi(np.column_stack([rows, center]), d)
    if np.any(vals[:, :d] <= 0):
        raise DomainError("phi^(d) <= 0 inside the simplex sweep")
    gm = np.exp(np.mean(np.log(vals[:, :d]), axis=1))
    return gm / vals[:, d]


def _golden_refine(curve: SimpleCurve, s: np.ndarray, variant: str,
                   width: float, sweeps: int = 2, iters: int = 40):
    """Coordinate-wise golden-section ascent around the best grid sample,
    keeping the tuple ordered."""
    a_dom, b_dom = curve.domain
    s = s.copy()
    best = float(_ratio_at(curve, s[None], variant)[0])
    for _ in range(sweeps):
        for i in range(len(s)):
            lo = max(a_dom, s[i] - width, s[i - 1] if i > 0 else a_dom)
            hi = min(b_dom, s[i] + width,
                     s[i + 1] if i + 1 < len(s) else b_dom)
            if hi - lo <= 0:
                continue
            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)

            def val(x):
                t = s.copy()
                t[i] = x
                return float(_ratio_at(curve, t[None], variant)[0])

            f1, f2 = val(x1), val(x2)
            for _ in range(iters):
                if f1 < f2:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + _GOLDEN * (hi - lo)
                    f2 = val(x2)
                else:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - _GOLDEN * (hi - lo)
                    f1 = val(x1)
            xstar = 0.5 * (lo + hi)
            fstar = val(xstar)
            if fstar > best:
                best = fstar
                s[i] = xstar
    return s, best


def estimate_A(curve: SimpleCurve, variant: str = "GM",
               grid_size: int = 12) -> ConditionEstimate:
    """Grid supremum of (prod phi^(d)(s_j))^{1/d} / phi^(d)(mean(s)) over
    the ordered simplex, with the arithmetic (AM) or geometric (GM) mean
    in the denominator.  The reported constant is a grid sup, not a
    certified bound.
    """
    if variant not in ("AM", "GM"):
        raise ConfigError(f"variant must be AM or GM, got {variant!r}")
    if grid_size < 2:
        raise ConfigError("grid_size must be >= 2")
    a, b = curve.domain
    inset = 1e-6 * (b - a)
    grid = _usable_grid(curve, np.linspace(a + inset, b - inset, grid_size))
    if variant == "GM" and grid[0] <= 0:
        raise DomainError(f"the GM condition needs positive nodes; the grid "
                          f"holds t = {float(grid[0])}")
    d = curve.d
    rows = grid[np.array(list(
        combinations_with_replacement(range(len(grid)), d)))]
    ratios = _ratio_at(curve, rows, variant)
    # the first strict maximum wins; a NaN ratio (the GM centre of a
    # nonpositive node) never does
    best_s = rows[int(np.argmax(np.where(np.isnan(ratios), -np.inf,
                                         ratios)))]
    width = (b - a) / (grid_size - 1)
    best_s, best = _golden_refine(curve, best_s, variant, width)
    return ConditionEstimate(
        condition_id=variant,
        constant=best,
        attained_at={"s": [float(x) for x in best_s]},
        grid_spec=f"simplex grid {grid_size}^{d} deduplicated + golden refine",
    )


def _validate_alpha(d: int, alpha: float) -> None:
    if d >= 3:
        if not 0 < alpha <= 2.0 / (d * (d + 1)):
            raise ConfigError(
                f"alpha must lie in (0, 2/(d(d+1))] for d={d}, got {alpha}")
    else:
        if not 0 < alpha < 1.0 / 3.0:
            raise ConfigError(f"alpha must lie in (0, 1/3) for d=2, got {alpha}")


def check_phicond(curve: SimpleCurve, alpha: float,
                  grid_size: int = 64) -> ConditionEstimate:
    """Infimum over a < t < s < b of
    (phi^(d-1)(s) - phi^(d-1)(t)) / (s-t)^rho with
    rho = 1/alpha + 1 - d(d+1)/2; the reported constant is inf^(-alpha).
    """
    d = curve.d
    _validate_alpha(d, alpha)
    rho = 1.0 / alpha + 1 - d * (d + 1) / 2.0
    a, b = curve.domain
    inset = 1e-6 * (b - a)
    grid = np.linspace(a + inset, b - inset, grid_size)
    vals = curve.phi(grid, d - 1)
    tt, ss = np.meshgrid(grid, grid, indexing="ij")
    vt, vs = np.meshgrid(vals, vals, indexing="ij")
    mask = ss > tt
    ratios = np.full_like(tt, np.inf)
    ratios[mask] = (vs[mask] - vt[mask]) / (ss[mask] - tt[mask]) ** rho
    idx = np.unravel_index(np.argmin(ratios), ratios.shape)
    inf_val = float(ratios[idx])
    passed = inf_val > 0
    constant = inf_val ** (-alpha) if passed else math.inf
    return ConditionEstimate(
        condition_id="phicond",
        constant=constant,
        attained_at={"t": float(tt[idx]), "s": float(ss[idx]),
                     "inf": inf_val, "rho": rho},
        grid_spec=f"{grid_size}x{grid_size} pair grid",
        passed=passed,
    )


def build_flattened(base: SimpleCurve, variant: str = "exp") -> SimpleCurve:
    """Flattened curve: psi^(d) = (d-1)! exp(-1/phi^(d)) (exp) or
    (d-1)! log(phi^(d)) (log; needs phi^(d) > e).  Lower derivatives come
    from repeated quadrature of psi^(d) from the left endpoint, so psi and
    its first d-1 derivatives all vanish there.
    """
    if variant not in ("exp", "log"):
        raise ConfigError(f"variant must be exp or log, got {variant!r}")
    mono = validate_monotone(base)
    if not mono.passed:
        raise ConfigError(
            f"flattening needs monotone nonneg derivatives; {mono.notes}")
    d = base.d
    a, b = base.domain
    fac = math.factorial(d - 1)
    phi = base.phi

    probe = np.linspace(a + 1e-9 * (b - a), b, 33)
    top = phi(probe, d)
    if variant == "log" and np.any(top <= math.e):
        raise ConfigError("log flattening requires phi^(d) > e on the domain")
    if variant == "exp" and np.any(top < 0):
        raise ConfigError("exp flattening requires phi^(d) >= 0 on the domain")

    def g(u):
        vals = phi.fn(u, d)
        if variant == "exp":
            # exp(-1/0+) -> 0; zeros of the top derivative are the flat
            # points the constructor exists for.
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(vals > 0, np.exp(-1.0 / np.where(
                    vals > 0, vals, 1.0)), 0.0)
        return np.log(vals)

    def fn(t, k):
        if k == d:
            return fac * g(t)
        m = d - 1 - k
        return fac / math.factorial(m) * integrate_refine(
            lambda u, s: (s - u) ** m * g(u) if m else g(u),
            a, t, rel_tol=1e-10)

    psi = DerivativeOracle(domain=(a, b), max_order=d, fn=fn)
    return SimpleCurve(d=d, phi=psi, label=base.label + f"-flat-{variant}")


def exponent_calculator(d: int, p: float | None = None,
                        alpha: float | None = None,
                        s: float | None = None) -> dict[str, Any]:
    """All the exponent bookkeeping in one place.

    With ``p``: the dual pairing, the interpolation parameter theta and the
    derived exponents (A, B, s, eta), plus residuals of the two identities
    eta - (d+1) theta/4 = 1/p and s_p = (d+1) p'/2.
    With ``alpha``: q = 1 + 1/alpha and delta(alpha).
    With ``s``: the q defined by 1/q = 1/p_d + 1/(s p_d).
    """
    if d < 2:
        raise ConfigError("d must be >= 2")
    d0 = d * (d + 1) / 2.0
    p_d = (d * d + d + 2) / (d * d + d)
    out: dict[str, Any] = {"d": d, "p_d": p_d, "D0": d0}

    if p is not None:
        if not 1 < p <= p_d:
            raise ConfigError(f"p must lie in (1, p_d={p_d}], got {p}")
        pp = p / (p - 1)
        q = d * (d + 1) * pp / 2.0
        theta = 2.0 * (d - 1) / (q - 2)
        A = 1.0 / (1 - theta / 2.0)
        B = 1.0 / (1.0 / p + theta * (0.5 - 1.0 / p))
        s_p = 1.0 / ((1 - theta) / q + theta / 2.0)
        eta = 1 - (d + 1) * (1 - theta) / (2 * q)
        Q_pair = 2.0 / (d * (d + 1) * (1 - 1.0 / p))
        out.update({
            "p": p, "p_prime": pp, "q": q, "theta": theta,
            "A_p": A, "B_p": B, "s_p": s_p, "eta_p": eta,
            "Q_paired": Q_pair,
            "identity_eta": eta - (d + 1) * theta / 4.0 - 1.0 / p,
            # s_p grows like p'; report this residual relatively
            "identity_s": s_p / ((d + 1) * pp / 2.0) - 1.0,
        })

    if alpha is not None:
        _validate_alpha(d, alpha)
        out.update({
            "alpha": alpha,
            "q_alpha": 1 + 1.0 / alpha,
            "delta": (1 - (2 * d - 1) * alpha) / (1 - alpha),
        })

    if s is not None:
        if s <= 0:
            raise ConfigError(f"s must be positive, got {s}")
        out.update({"s": s, "q_lorentz": p_d * s / (s + 1)})

    return out
