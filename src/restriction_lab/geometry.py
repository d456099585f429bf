"""Parallelepipeds, the curve occupation measure, the trapping-chain
construction, and the K/u shell geometry.

The chain construction traps a curve segment in a nested family of
parallelepipeds whose measures obey an exact recursion
m_k = h^k * m_{k-1}; the final set certifies the measure-condition
exponent for the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .conditions import _validate_alpha
from .curves import HomogeneousCurve, SimpleCurve, validate_monotone
from .jacobian import jacobian_at_nodes
from .report import CheckReport, ConfigError, DomainError


@dataclass(frozen=True)
class Parallelepiped:
    """base + sum_j a_j edges[j], a in [0,1]^d.  Edges are rows of the
    ``edges`` matrix (one vector per row, matching the JSON layout)."""

    base: np.ndarray
    edges: np.ndarray

    @classmethod
    def of(cls, base, edges) -> "Parallelepiped":
        base = np.asarray(base, dtype=float)
        edges = np.asarray(edges, dtype=float)
        if edges.shape != (base.size, base.size):
            raise ConfigError("edges must be d vectors of length d")
        if abs(np.linalg.det(edges)) == 0:
            raise ConfigError("edges must be linearly independent")
        return cls(base=base, edges=edges)

    @property
    def dim(self) -> int:
        return self.base.size

    @property
    def volume(self) -> float:
        return abs(float(np.linalg.det(self.edges)))

    def coords(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.linalg.solve(self.edges.T, (x - self.base).T).T

    def contains(self, x, tol: float = 1e-12):
        c = self.coords(x)
        return np.all((c >= -tol) & (c <= 1 + tol), axis=-1)

    @property
    def barycenter(self) -> np.ndarray:
        return self.base + 0.5 * self.edges.sum(axis=0)

    def to_dict(self) -> dict:
        return {"base": self.base.tolist(), "edges": self.edges.tolist()}

    @classmethod
    def from_dict(cls, raw: dict) -> "Parallelepiped":
        if "base" not in raw or "edges" not in raw:
            raise ConfigError("parallelepiped JSON needs 'base' and 'edges'")
        return cls.of(raw["base"], raw["edges"])


def cube(center, side: float) -> Parallelepiped:
    center = np.asarray(center, dtype=float)
    d = center.size
    return Parallelepiped.of(center - side / 2.0, side * np.eye(d))


def shrink_family(center, side0: float, count: int,
                  ratio: float = 0.5) -> list[Parallelepiped]:
    """Dyadic (by default) family of cubes shrinking onto ``center``."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    return [cube(center, side0 * ratio ** i) for i in range(count)]


def _curve_points(curve, ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if isinstance(curve, HomogeneousCurve):
        a = np.asarray(curve.exponents, dtype=float)
        return ts[:, None] ** a
    d = curve.d
    cols = [ts ** j / math.factorial(j) for j in range(1, d)]
    cols.append(curve.phi(ts, 0))
    return np.stack(cols, axis=-1)


def lambda_measure(curve, E: Parallelepiped, tol: float = 1e-8,
                   coarse: int = 4096) -> float:
    """Lebesgue measure of {t in (a,b): gamma(t) in E}.

    Membership is scanned on a coarse grid; each transition is then
    bracketed by bisection to width tol / (number of crossings).
    """
    a, b = curve.domain
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ConfigError("lambda_measure needs a bounded domain")
    ts = np.linspace(a, b, coarse + 1)
    inside = np.asarray(E.contains(_curve_points(curve, ts)))
    flips = np.nonzero(inside[:-1] != inside[1:])[0]
    width_target = tol / max(1, len(flips))

    def bisect(lo, hi, lo_in):
        while hi - lo > width_target:
            mid = 0.5 * (lo + hi)
            if bool(E.contains(_curve_points(curve, np.array([mid]))[0])) == lo_in:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    crossings = [bisect(ts[i], ts[i + 1], inside[i]) for i in flips]
    edges = [a] + crossings + [b]
    total = 0.0
    state = bool(inside[0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        if state:
            total += hi - lo
        state = not state
    return float(total)


def estimate_alpha_B(curve, family, alpha: float,
                     tol: float = 1e-8) -> CheckReport:
    """B_est = sup over the family of lambda(E) / m_d(E)^alpha."""
    family = list(family)
    if not family:
        raise ConfigError("parallelepiped family is empty")
    _validate_alpha(curve.d, alpha)
    best = -math.inf
    best_E = None
    series = []
    for E in family:
        lam = lambda_measure(curve, E, tol=tol)
        md = E.volume
        ratio = lam / md ** alpha
        series.append({"m_d": md, "lambda": lam, "ratio": ratio})
        if ratio > best:
            best = ratio
            best_E = E
    return CheckReport(
        check_id="estimate_alpha_B",
        parameters={"d": curve.d, "alpha": alpha, "family_size": len(family)},
        estimate=best,
        passed=math.isfinite(best),
        witnesses=[best_E.to_dict()],
        series=series,
    )


# ---------------------------------------------------------------------------
# the trapping chain


def _chain_base(curve: SimpleCurve, t: float, h: float):
    d = curve.d
    phi = curve.phi
    rho = (h * phi(t + h, d - 1) + phi(t, d - 2) - phi(t + h, d - 2))
    delta = phi(t + h, d - 2) - phi(t, d - 2)
    base = np.array([t, phi(t, d - 2) - rho])
    edges = np.array([[0.0, rho], [h, delta + rho]])
    return rho, Parallelepiped(base=base, edges=edges)


def _chain_step(prev: Parallelepiped, anchor: np.ndarray,
                h: float) -> Parallelepiped:
    """Lift E_{k-1} in R^{k-1} to E_k = anchor + h * E~ where
    E~ = {(1, x) - v (1, x0)}, x0 the barycenter of E_{k-1}."""
    k = prev.dim + 1
    x0 = prev.barycenter
    base = np.concatenate([[1.0], prev.base])
    edges = np.zeros((k, k))
    edges[:-1, 1:] = prev.edges
    edges[-1, 0] = -1.0
    edges[-1, 1:] = -x0
    return Parallelepiped(base=anchor + h * base, edges=h * edges)


def _derivative_tail(curve: SimpleCurve, s: np.ndarray, k: int) -> np.ndarray:
    """Last k coordinates of gamma^(d-k)(s): (s, ..., s^{k-1}/(k-1)!,
    phi^(d-k)(s))."""
    cols = [s ** j / math.factorial(j) for j in range(1, k)]
    cols.append(curve.phi(s, curve.d - k))
    return np.stack(cols, axis=-1)


def lemma1_chain(curve: SimpleCurve, t: float, h: float,
                 n_samples: int = 1000,
                 containment_tol: float = 1e-9) -> tuple[list, CheckReport]:
    """Build the nested trapping parallelepipeds E_{d-2}, ..., E_0 for the
    segment [t, t+h] and verify, in order: rho >= 0, sampled containment
    at every level, the exact measure recursion m_k = h^k * m_{k-1}, and
    the measure bound m_k <= h^{(k^2+k-2)/2} (phi^(d-1)(t+h)-phi^(d-1)(t)).
    """
    d = curve.d
    a, b = curve.domain
    if h <= 0:
        raise ConfigError("h must be positive")
    if t < a or t + h > b:
        raise DomainError("[t, t+h] must sit inside the curve domain")
    mono = validate_monotone(curve)
    if not mono.passed:
        raise ConfigError("chain construction needs monotone derivatives")

    rho, E = _chain_base(curve, t, h)
    gap = curve.phi(t + h, d - 1) - curve.phi(t, d - 1)
    chain = [E]
    witnesses = []
    notes = []
    passed = rho >= -1e-15
    if not passed:
        notes.append(f"rho = {rho} negative")
    if E.volume == 0.0:
        # zero curvature: the parallelogram collapses to the chord band
        report = CheckReport(
            check_id="lemma1_chain",
            parameters={"d": d, "t": t, "h": h},
            estimate=0.0, bound=0.0, passed=passed,
            witnesses=[{"rho": float(rho)}],
            notes=notes + ["degenerate chord band (rho = 0); "
                           "chain recursion skipped"])
        return chain, report

    s_grid = np.linspace(t, t + h, n_samples)
    recursion_err = 0.0
    for k in range(2, d + 1):
        if k > 2:
            anchor = np.array(
                [t ** j / math.factorial(j) for j in range(1, k)]
                + [curve.phi(t, d - k)])
            E = _chain_step(chain[-1], anchor, h)
            chain.append(E)
            rec = abs(E.volume - h ** k * chain[-2].volume)
            recursion_err = max(
                recursion_err, rec / max(E.volume, 1e-300))
        pts = _derivative_tail(curve, s_grid, k)
        ok = np.asarray(E.contains(pts, tol=containment_tol))
        if not np.all(ok):
            passed = False
            bad = int(np.argmin(ok))
            witnesses.append({"level_k": k, "s": float(s_grid[bad]),
                              "coords": E.coords(pts[bad]).tolist()})
            notes.append(f"containment fails at level k={k}")
        bound = h ** ((k * k + k - 2) / 2.0) * gap
        if E.volume > bound * (1 + 1e-12):
            passed = False
            notes.append(f"measure bound fails at level k={k}: "
                         f"{E.volume} > {bound}")
    if recursion_err > 1e-12:
        passed = False
        notes.append(f"measure recursion off by rel {recursion_err}")

    report = CheckReport(
        check_id="lemma1_chain",
        parameters={"d": d, "t": t, "h": h, "n_samples": n_samples},
        estimate=chain[-1].volume,
        bound=h ** ((d * d + d - 2) / 2.0) * gap,
        tolerance=containment_tol,
        passed=passed,
        witnesses=witnesses,
        notes=notes,
    )
    report.witnesses.append({"rho": float(rho),
                             "recursion_rel_err": recursion_err})
    return chain, report


def lemma1_conclusion(curve: SimpleCurve, samples, alpha: float,
                      B_est: float, tolerance: float = 1e-9) -> CheckReport:
    """B^{-1/alpha} (s-t)^{1/alpha + 1 - d(d+1)/2} <=
    phi^(d-1)(s) - phi^(d-1)(t) at every sampled pair, plus the
    occupation cross-check lambda(E_0) >= h on the sampled chains."""
    d = curve.d
    _validate_alpha(d, alpha)
    expo = 1.0 / alpha + 1 - d * (d + 1) / 2.0
    worst = math.inf
    witnesses = []
    passed = True
    for t, s in samples:
        if not t < s:
            raise ConfigError("samples must satisfy t < s")
        lhs = B_est ** (-1.0 / alpha) * (s - t) ** expo
        rhs = curve.phi(s, d - 1) - curve.phi(t, d - 1)
        margin = rhs - lhs
        if margin < worst:
            worst = margin
            witnesses = [{"t": t, "s": s, "lhs": lhs, "rhs": rhs}]
        if margin < -tolerance:
            passed = False
    # occupation cross-check on the first sample's chain
    t0, s0 = min(samples, key=lambda p: p[1] - p[0])
    chain, chain_rep = lemma1_chain(curve, t0, s0 - t0, n_samples=200)
    lam = lambda_measure(curve, chain[-1])
    if lam < (s0 - t0) * (1 - 1e-6):
        passed = False
        witnesses.append({"lambda_E0": lam, "h": s0 - t0})
    rep = CheckReport(
        check_id="lemma1_conclusion",
        parameters={"d": d, "alpha": alpha, "B_est": B_est,
                    "n_samples": len(list(samples))},
        estimate=worst,
        bound=0.0,
        tolerance=tolerance,
        passed=passed and chain_rep.passed,
        witnesses=witnesses,
    )
    rep.notes.append(f"lambda(E_0) = {lam!r} >= h = {s0 - t0!r}")
    return rep


# ---------------------------------------------------------------------------
# K/u shells


def u_of(h) -> float:
    """prod over pairs of |h_i - h_j| with the h_d = 0 convention."""
    hh = np.concatenate([np.asarray(h, dtype=float), [0.0]])
    out = 1.0
    for i, j in combinations(range(hh.size), 2):
        out *= abs(hh[i] - hh[j])
    return out


def K_of(h, alpha: float) -> float:
    hh = np.concatenate([np.asarray(h, dtype=float), [0.0]])
    d = hh.size
    spread = float(np.max(hh) - np.min(hh))
    if spread == 0:
        return 0.0
    return u_of(h) * spread ** (1.0 / alpha - d * (d + 1) / 2.0)


def _K_many(hs: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized K over sample rows (gap vectors, h_d = 0 appended)."""
    hh = np.concatenate([hs, np.zeros((hs.shape[0], 1))], axis=1)
    d = hh.shape[1]
    u = np.ones(hs.shape[0])
    for i, j in combinations(range(d), 2):
        u *= np.abs(hh[:, i] - hh[:, j])
    spread = hh.max(axis=1) - hh.min(axis=1)
    expo = 1.0 / alpha - d * (d + 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(spread > 0, u * spread ** expo, 0.0)
    return K


def K_u_geometry(h, alpha: float,
                 scales=(2.0, 10.0)) -> tuple[float, float, CheckReport]:
    """(u(h), K(h)) plus a numerical check that K is homogeneous of
    degree 1/alpha - d."""
    h = np.asarray(h, dtype=float)
    d = h.size + 1
    _validate_alpha(d, alpha)
    u = u_of(h)
    K = K_of(h, alpha)
    deg = 1.0 / alpha - d
    worst = 0.0
    for lam in scales:
        if K == 0:
            err = abs(K_of(lam * h, alpha))
        else:
            err = abs(K_of(lam * h, alpha) - lam ** deg * K) / (
                lam ** deg * K)
        worst = max(worst, err)
    rep = CheckReport(
        check_id="K_u_geometry",
        parameters={"d": d, "alpha": alpha, "h": h.tolist(),
                    "scales": list(scales)},
        estimate=worst,
        bound=1e-12,
        tolerance=1e-12,
        passed=worst <= 1e-12,
        witnesses=[{"u": u, "K": K, "degree": deg}],
    )
    return u, K, rep


def sm_measure(d: int, alpha: float, m: int, mc_samples: int = 4_000_000,
               seed: int = 7, box_side: float = 10.0) -> CheckReport:
    """Monte Carlo measure of the shell {h >= 0: 2^{-m-1} < K(h) <= 2^{-m}}
    inside [0, box_side]^{d-1}."""
    if not 0 < alpha < 1.0 / d:
        raise ConfigError(f"alpha must lie in (0, 1/d), got {alpha}")
    if m < 0 or mc_samples < 1:
        raise ConfigError("m >= 0 and mc_samples >= 1 required")
    rng = np.random.default_rng(seed)
    vol = box_side ** (d - 1)
    hits = 0
    chunk = 500_000
    remaining = mc_samples
    lo, hi = 2.0 ** (-m - 1), 2.0 ** (-m)
    while remaining > 0:
        n = min(chunk, remaining)
        hs = rng.uniform(0.0, box_side, size=(n, d - 1))
        K = _K_many(hs, alpha)
        hits += int(np.count_nonzero((K > lo) & (K <= hi)))
        remaining -= n
    est = vol * hits / mc_samples
    rep = CheckReport(
        check_id="sm_measure",
        parameters={"d": d, "alpha": alpha, "m": m, "mc_samples": mc_samples,
                    "seed": seed, "box_side": box_side},
        estimate=est,
        passed=hits > 0,
        witnesses=[{"hits": hits}],
    )
    if hits < 100:
        rep.notes.append("fewer than 100 hits; wide confidence interval")
    return rep


def check_J_geq_K(curve: SimpleCurve, sigma_est: float, alpha: float,
                  samples) -> CheckReport:
    """Empirical constant in J(s, h) >= c * sigma^{-1/alpha} * K(h), with
    J evaluated at the nondecreasing rearrangement of {s} union {s+h_j}."""
    d = curve.d
    _validate_alpha(d, alpha)
    if sigma_est <= 0:
        raise ConfigError("sigma_est must be positive")
    c_est = math.inf
    witness = None
    degenerate = 0
    n = 0
    for s, h in samples:
        n += 1
        h = np.asarray(h, dtype=float)
        K = K_of(h, alpha)
        if K == 0:
            degenerate += 1
            continue
        nodes = np.sort(np.concatenate([[s], s + h]))
        J = jacobian_at_nodes(curve, nodes)
        c = J / (sigma_est ** (-1.0 / alpha) * K)
        if c < c_est:
            c_est = c
            witness = {"s": float(s), "h": h.tolist(), "J": J, "K": K,
                       "c": c}
    rep = CheckReport(
        check_id="check_J_geq_K",
        parameters={"d": d, "alpha": alpha, "sigma_est": sigma_est,
                    "n_samples": n},
        estimate=None if witness is None else c_est,
        bound=0.0,
        passed=bool(witness is not None and c_est > 0),
        witnesses=[witness] if witness else [],
    )
    if degenerate:
        rep.notes.append(f"{degenerate} samples with collided gaps "
                         "(both sides vanish)")
    return rep
