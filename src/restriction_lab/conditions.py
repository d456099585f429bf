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
import sys
from itertools import combinations_with_replacement
from typing import Any, Callable

import numpy as np

from .curves import DerivativeOracle, SimpleCurve, validate_monotone
from .quadrature import integrate_refine
from .report import CheckReport, ConfigError, DomainError

_GOLDEN = (math.sqrt(5) - 1) / 2


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
    one oracle call on the nodes and their centres together.  A row with
    a node where phi^(d) <= 0, where the condition is undefined, gets NaN:
    the golden search evaluates points it may never visit, and raises only
    for one it does (``_visit``)."""
    d = curve.d
    # np.add.reduce(...) / d and np.concatenate: the values of np.mean and
    # np.column_stack without their Python wrappers
    center = np.add.reduce(rows, axis=1) / d if variant == "AM" else np.exp(
        np.add.reduce(np.log(rows), axis=1) / d)
    vals = curve.phi(np.concatenate((rows, center[:, None]), axis=1), d)
    nodes = vals[:, :d]
    gm = np.exp(np.add.reduce(np.log(np.where(nodes > 0, nodes, np.nan)),
                              axis=1) / d)
    return gm / vals[:, d]


def _visit(curve: SimpleCurve, xs: list, fs: list) -> list:
    """The ratios ``fs`` at the points ``xs`` of one coordinate that the
    golden search visits.  Its other coordinates hold points where
    phi^(d) > 0, so a NaN ratio at an x where phi^(d)(x) <= 0 is one the
    condition leaves undefined, and raises."""
    nan_xs = [x for x, f in zip(xs, fs) if f != f]
    if nan_xs and np.any(curve.phi(np.array(nan_xs), curve.d) <= 0):
        raise DomainError("phi^(d) <= 0 inside the simplex sweep")
    return fs


# golden-section steps per coordinate, and how many of them one oracle call
# looks ahead (it divides the steps)
_STEPS = 40
_LOOKAHEAD = 5


def _golden_tree(lo: float, hi: float, x1: float, x2: float,
                 depth: int) -> tuple[list, list]:
    """Every state (lo, hi, x1, x2) that the next ``depth`` golden-section
    steps can reach from the given one, as a heap, and the point each
    state but the first asks for (node n's at n - 1).  Node n's children
    are 2n + 1, the step taken when f1 < f2 (lo moves up, and x2 is new),
    and 2n + 2, the other step (hi moves down, and x1 is new).  Each point
    comes from the float expressions of a one-step-at-a-time search, so a
    walk down the heap meets the very points that search would."""
    nodes, xs = [(lo, hi, x1, x2)], []
    for n in range(2 ** depth - 1):
        lo, hi, x1, x2 = nodes[n]
        up = x1 + _GOLDEN * (hi - x1)
        down = x2 - _GOLDEN * (x2 - lo)
        nodes += ((x1, hi, x2, up), (lo, x2, down, x1))
        xs += (up, down)
    return nodes, xs


def _golden_refine(curve: SimpleCurve, s: np.ndarray, variant: str,
                   width: float):
    """Coordinate-wise golden-section ascent around the best grid sample,
    keeping the tuple ordered: 2 sweeps over the coordinates, _STEPS
    section steps each.

    Golden-section search is a fixed decision tree (Kiefer, Proc. AMS 4,
    1953), so each oracle call evaluates every point the next _LOOKAHEAD
    steps could ask for, and the comparisons f1 < f2 then walk the tree:
    the same points, values and answer as one call per step."""
    a_dom, b_dom = curve.domain
    s = s.copy()

    def vals(xs):
        """The ratios at s with its coordinate i set to each of xs."""
        rows = np.repeat(s[None], len(xs), axis=0)
        rows[:, i] = xs
        return _ratio_at(curve, rows, variant).tolist()

    best = float(_ratio_at(curve, s[None], variant)[0])
    for _ in range(2):
        for i in range(len(s)):
            lo = max(a_dom, s[i] - width, s[i - 1] if i > 0 else a_dom)
            hi = min(b_dom, s[i] + width,
                     s[i + 1] if i + 1 < len(s) else b_dom)
            if hi - lo <= 0:
                continue
            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)
            f1, f2 = _visit(curve, [x1, x2], vals([x1, x2]))
            for _ in range(_STEPS // _LOOKAHEAD):
                nodes, xs = _golden_tree(lo, hi, x1, x2, _LOOKAHEAD)
                fs = vals(xs)
                path = [0]
                for _ in range(_LOOKAHEAD):
                    n = path[-1]
                    if f1 < f2:
                        path.append(2 * n + 1)
                        f1, f2 = f2, fs[2 * n]
                    else:
                        path.append(2 * n + 2)
                        f1, f2 = fs[2 * n + 1], f1
                _visit(curve, [xs[n - 1] for n in path[1:]],
                       [fs[n - 1] for n in path[1:]])
                lo, hi, x1, x2 = nodes[path[-1]]
            xstar = 0.5 * (lo + hi)
            (fstar,) = _visit(curve, [xstar], vals([xstar]))
            if fstar > best:
                best = fstar
                s[i] = xstar
    return s, best


def estimate_A(curve: SimpleCurve, variant: str = "GM",
               grid_size: int = 12) -> CheckReport:
    """Grid supremum of (prod phi^(d)(s_j))^{1/d} / phi^(d)(mean(s)) over
    the ordered simplex, with the arithmetic (AM) or geometric (GM) mean
    in the denominator.  The estimate is a grid sup, not a certified
    bound; the witness is the tuple s attaining it.
    """
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
    return CheckReport(
        check_id="estimate_A",
        parameters={"grid": f"simplex grid {grid_size}^{d} deduplicated "
                            "+ golden refine"},
        estimate=best, passed=True,
        witnesses=[{"s": [float(x) for x in best_s]}])


def _validate_alpha(d: int, alpha: float) -> None:
    if d >= 3:
        if not 0 < alpha <= 2.0 / (d * (d + 1)):
            raise ConfigError(
                f"alpha must lie in (0, 2/(d(d+1))] for d={d}, got {alpha}")
    else:
        if not 0 < alpha < 1.0 / 3.0:
            raise ConfigError(f"alpha must lie in (0, 1/3) for d=2, got {alpha}")


def _normal_doubles(compute: Callable[[], list[float]]) -> list[float] | None:
    """compute()'s values where each is a normal double; None where one is
    0, subnormal, infinite or NaN, or where compute raises OverflowError,
    as a float power past the largest double does."""
    try:
        xs = compute()
    except OverflowError:
        return None
    return xs if all(sys.float_info.min <= x < math.inf for x in xs) else None


def check_phicond(curve: SimpleCurve, alpha: float,
                  grid_size: int = 64) -> CheckReport:
    """Infimum over a < t < s < b of
    (phi^(d-1)(s) - phi^(d-1)(t)) / (s-t)^rho with
    rho = 1/alpha + 1 - d(d+1)/2; the estimate is the constant
    inf^(-alpha), and the witness the (t, s) attaining the infimum.

    An infimum that is not positive (or NaN) fails the condition: there is
    no constant, and a note gives the infimum and its (t, s).
    """
    d = curve.d
    _validate_alpha(d, alpha)
    rho = 1.0 / alpha + 1 - d * (d + 1) / 2.0
    a, b = curve.domain
    inset = 1e-6 * (b - a)
    grid = np.linspace(a + inset, b - inset, grid_size)
    # the smallest and largest s - t; each to the power rho must be a
    # normal double
    gaps = (float(np.min(np.diff(grid))), float(grid[-1] - grid[0]))
    if _normal_doubles(lambda: [gap ** rho for gap in gaps]) is None:
        raise ConfigError(f"(s - t)^rho leaves the normal doubles at "
                          f"alpha = {alpha}: the grid's gaps {gaps[0]:g} to "
                          f"{gaps[1]:g} raised to rho = {rho:g}")
    vals = curve.phi(grid, d - 1)
    tt, ss = np.meshgrid(grid, grid, indexing="ij")
    vt, vs = np.meshgrid(vals, vals, indexing="ij")
    mask = ss > tt
    ratios = np.full_like(tt, np.inf)
    ratios[mask] = (vs[mask] - vt[mask]) / (ss[mask] - tt[mask]) ** rho
    idx = np.unravel_index(np.argmin(ratios), ratios.shape)
    inf_val = float(ratios[idx])
    t, s = float(tt[idx]), float(ss[idx])
    passed = inf_val > 0
    return CheckReport(
        check_id="check_phicond",
        parameters={"grid": f"{grid_size}x{grid_size} pair grid"},
        estimate=inf_val ** (-alpha) if passed else None,
        passed=passed,
        # a report is strict JSON: no NaN or infinite value in it
        witnesses=[{"t": t, "s": s,
                    "inf": inf_val if math.isfinite(inf_val) else None,
                    "rho": rho}],
        notes=[] if passed else [f"infimum {inf_val!r} at t={t!r}, "
                                 f"s={s!r} is not positive; no constant"])


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
        # fn returns a new array, written over here; a 0-d u may give a
        # numpy scalar, which asarray copies into a 0-d array
        vals = np.asarray(phi.fn(u, d))
        if variant == "exp":
            # exp(-1/0+) -> 0; zeros of the top derivative are the flat
            # points the constructor exists for.  Evaluated in place, then
            # 0 where the top was <= 0 or NaN: the same values as masking
            # the divide and exp with where=, which ran the flat workload's
            # checks 9 % slower
            off = ~(vals > 0)
            with np.errstate(divide="ignore", over="ignore"):
                np.divide(-1.0, vals, out=vals)
                np.exp(vals, out=vals)
            vals[off] = 0.0
            return vals
        return np.log(vals)

    def integrand(m):
        """(s - u)^m g(u) on the nodes u, written into u itself: the
        quadrature hands each node slice to one call only."""
        def f(u, s):
            vals = g(u)
            np.subtract(s, u, out=u)
            u **= m
            vals *= u
            return vals
        return f if m else lambda u, s: g(u)

    def fn(t, k):
        if k == d:
            top = g(t)
            top *= fac
            return top
        m = d - 1 - k
        return fac / math.factorial(m) * integrate_refine(
            integrand(m), a, t, rel_tol=1e-10)

    psi = DerivativeOracle(domain=(a, b), fn=fn)
    return SimpleCurve(d=d, phi=psi, label=base.label + f"-flat-{variant}")


def exponent_calculator(d: int, p: float | None = None,
                        alpha: float | None = None) -> dict[str, Any]:
    """All the exponent bookkeeping in one place.

    With ``p``: the dual pairing, the interpolation parameter theta and the
    derived exponents (A, B, s, eta), plus residuals of the two identities
    eta - (d+1) theta/4 = 1/p and s_p = (d+1) p'/2.
    With ``alpha``: q = 1 + 1/alpha and delta(alpha).
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

    return out
