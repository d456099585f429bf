"""Oscillatory-quadrature probes of the restriction/extension operators,
discrete Lorentz norms, the homogeneous rescaling identity, and the
converse scaling computation.

Fourier convention: g_hat(xi) = int g(x) exp(-i<xi, x>) dx, except in
``converse_scaling_check`` where the unitary normalization is used so the
norm identity holds without stray 2*pi factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .curves import HomogeneousCurve, affine_weight
from .geometry import Parallelepiped, _curve_points, lambda_measure
from .quadrature import QuadratureError, gl_nodes
from .report import CheckReport, ConfigError


@dataclass(frozen=True)
class TestFunction:
    """Test bump with a closed-form Fourier transform.

    Gaussian: amp * exp(-|x - center|^2 / (2 sigma^2)) with per-axis sigma.
    BoxBump: amp * indicator of the box with given center and side lengths.
    ModulatedGaussian: Gaussian times exp(i <freq, x>).
    """

    __test__ = False  # keep pytest from collecting this as a test class

    kind: str
    center: np.ndarray
    sigma: np.ndarray | None = None
    sides: np.ndarray | None = None
    freq: np.ndarray | None = None
    amp: float = 1.0

    @classmethod
    def gaussian(cls, center, sigma, amp: float = 1.0) -> "TestFunction":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        sigma = np.broadcast_to(np.asarray(sigma, dtype=float),
                                center.shape).copy()
        return cls(kind="Gaussian", center=center, sigma=sigma, amp=amp)

    @classmethod
    def box_bump(cls, center, sides, amp: float = 1.0) -> "TestFunction":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        sides = np.broadcast_to(np.asarray(sides, dtype=float),
                                center.shape).copy()
        return cls(kind="BoxBump", center=center, sides=sides, amp=amp)

    @classmethod
    def modulated(cls, center, sigma, freq, amp: float = 1.0) -> "TestFunction":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        sigma = np.broadcast_to(np.asarray(sigma, dtype=float),
                                center.shape).copy()
        freq = np.broadcast_to(np.asarray(freq, dtype=float),
                               center.shape).copy()
        return cls(kind="ModulatedGaussian", center=center, sigma=sigma,
                   freq=freq, amp=amp)

    @classmethod
    def from_spec(cls, spec: dict) -> "TestFunction":
        kind = spec.get("kind")
        if kind == "Gaussian":
            return cls.gaussian(spec["center"], spec["sigma"],
                                spec.get("amp", 1.0))
        if kind == "BoxBump":
            return cls.box_bump(spec["center"], spec["sides"],
                                spec.get("amp", 1.0))
        if kind == "ModulatedGaussian":
            return cls.modulated(spec["center"], spec["sigma"], spec["freq"],
                                 spec.get("amp", 1.0))
        raise ConfigError(f"unknown test-function kind {kind!r}")

    @property
    def dim(self) -> int:
        return self.center.size

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rel = x - self.center
        if self.kind == "BoxBump":
            inside = np.all(np.abs(rel) <= self.sides / 2.0, axis=-1)
            return self.amp * inside.astype(float)
        val = self.amp * np.exp(-0.5 * np.sum((rel / self.sigma) ** 2,
                                              axis=-1))
        if self.kind == "ModulatedGaussian":
            return val * np.exp(1j * (x @ self.freq))
        return val

    def fourier(self, xi) -> np.ndarray:
        """Closed-form g_hat(xi) = int g(x) exp(-i<xi, x>) dx."""
        xi = np.asarray(xi, dtype=float)
        phase = np.exp(-1j * (xi @ self.center))
        if self.kind == "BoxBump":
            arg = xi * self.sides / (2 * np.pi)
            mag = self.amp * np.prod(self.sides * np.sinc(arg), axis=-1)
            return mag * phase
        shift = xi if self.kind == "Gaussian" else xi - self.freq
        if self.kind == "ModulatedGaussian":
            phase = np.exp(-1j * (shift @ self.center))
        mag = self.amp * np.prod(
            np.sqrt(2 * np.pi) * self.sigma
            * np.exp(-0.5 * (shift * self.sigma) ** 2), axis=-1)
        return mag * phase

    def lp_norm(self, p: float) -> float:
        """|| g ||_{L^p(R^d)} in closed form."""
        if p <= 0:
            raise ConfigError("p must be positive")
        if self.kind == "BoxBump":
            return self.amp * float(np.prod(self.sides)) ** (1.0 / p)
        return self.amp * float(
            np.prod((2 * np.pi * self.sigma ** 2 / p) ** (1.0 / (2 * p))))


@dataclass
class SampledFunction:
    """Function samples against an explicit quadrature measure."""

    grid: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.values = np.asarray(self.values)
        if not (self.grid.shape == self.weights.shape == self.values.shape):
            raise ConfigError("grid, weights and values must share a shape")
        if np.any(self.weights <= 0):
            raise ConfigError("quadrature weights must be positive")
        if np.any(np.diff(self.grid) < 0):
            raise ConfigError("grid must be sorted")

    def lp(self, p: float) -> float:
        return float(np.sum(self.weights * np.abs(self.values) ** p)
                     ** (1.0 / p))

    def interp(self, t) -> np.ndarray:
        re = np.interp(t, self.grid, self.values.real)
        im = np.interp(t, self.grid, self.values.imag)
        return re + 1j * im


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.zeros_like(grid)
    dg = np.diff(grid)
    w[:-1] += dg / 2.0
    w[1:] += dg / 2.0
    return w


def restrict(g: TestFunction, curve, t_grid,
             weighted: bool = False) -> SampledFunction:
    """Evaluate g_hat along the curve (closed forms, no quadrature).

    The stored measure is the trapezoid measure of the grid, times the
    affine arclength weight when ``weighted``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    pts = _curve_points(curve, t_grid)
    vals = g.fourier(pts)
    w = _trapezoid_weights(t_grid)
    if weighted:
        w = w * affine_weight(curve, t_grid)
    keep = w > 0
    return SampledFunction(grid=t_grid[keep], weights=w[keep],
                           values=vals[keep])


def extension(f, curve, weight: str, x, lam: float = 1.0,
              order: int = 12, max_panels: int = 20000) -> complex:
    """T f(x) = int_a^b f(t) w(t) exp(-i lam <x, gamma(t)>) dt by
    panel quadrature with at most pi/2 of phase variation per panel."""
    if weight not in ("on", "off"):
        raise ConfigError("weight must be 'on' or 'off'")
    if lam < 1:
        raise ConfigError("lam must be >= 1")
    a, b = curve.domain
    x = np.asarray(x, dtype=float)

    if isinstance(f, SampledFunction):
        fvals = f.interp
    elif callable(f):
        fvals = f
    else:
        raise ConfigError("f must be a SampledFunction or callable")

    # phase variation from a coarse scan of <x, gamma(t)>
    scan = np.linspace(a, b, 257)
    phase = lam * (_curve_points(curve, scan) @ x)
    variation = float(np.sum(np.abs(np.diff(phase))))
    panels = max(8, int(math.ceil(variation / (math.pi / 2))))
    if panels > max_panels:
        raise QuadratureError(
            f"phase variation {variation:.3g} needs {panels} panels "
            f"(> {max_panels}); reduce lam*|x|")
    edges = np.linspace(a, b, panels + 1)
    nodes, wts = gl_nodes(edges[:-1], edges[1:], order)
    nodes = nodes.reshape(-1)
    wts = wts.reshape(-1)
    integrand = np.asarray(fvals(nodes), dtype=complex)
    if weight == "on":
        integrand = integrand * affine_weight(curve, nodes)
    integrand = integrand * np.exp(
        -1j * lam * (_curve_points(curve, nodes) @ x))
    return complex(np.sum(wts * integrand))


def lorentz_norm(fn: SampledFunction, q: float, r: float) -> float:
    """Discrete L^{q,r} functional against the stored measure.

    r = inf gives the weak-type functional sup_k f*_k T_k^{1/q}; r = q
    reduces to the plain L^q norm.
    """
    if q <= 0 or (r != math.inf and r <= 0):
        raise ConfigError("Lorentz exponents must be positive")
    mags = np.abs(fn.values)
    order = np.argsort(-mags, kind="stable")
    f_star = mags[order]
    T = np.cumsum(fn.weights[order])
    if r == math.inf:
        return float(np.max(f_star * T ** (1.0 / q)))
    T_prev = np.concatenate([[0.0], T[:-1]])
    terms = f_star ** r * (q / r) * (T ** (r / q) - T_prev ** (r / q))
    return float(np.sum(terms) ** (1.0 / r))


def empirical_ratio(curves, P: float, Q: float, weighted: bool,
                    test_family, t_grid) -> CheckReport:
    """Exploratory sweep of ||g_hat o gamma||_{L^Q} / ||g||_{L^P} across
    curves and test functions.  Reports per-curve maxima and the spread;
    never a bound on the operator norm."""
    curves = list(curves)
    test_family = list(test_family)
    if not curves or not test_family:
        raise ConfigError("need at least one curve and one test function")
    series = []
    per_curve_max = []
    for ci, curve in enumerate(curves):
        best = 0.0
        for gi, g in enumerate(test_family):
            rs = restrict(g, curve, t_grid, weighted=weighted)
            ratio = rs.lp(Q) / g.lp_norm(P)
            series.append({"curve_index": ci, "test_index": gi,
                           "ratio": ratio})
            best = max(best, ratio)
        per_curve_max.append(best)
    spread = max(per_curve_max) / min(per_curve_max)
    rep = CheckReport(
        check_id="empirical_ratio",
        parameters={"P": P, "Q": Q, "weighted": weighted,
                    "n_curves": len(curves), "n_tests": len(test_family)},
        estimate=max(per_curve_max),
        passed=all(math.isfinite(r) for r in per_curve_max),
        witnesses=[{"per_curve_max": per_curve_max, "spread": spread}],
        series=series,
    )
    rep.notes.append("exploratory probe; observed ratios are not "
                     "operator-norm bounds")
    return rep


def check_dilation_invariance(d: int, P: float, Q: float, g: TestFunction,
                              octaves: int = 4, t_span: float = 40.0,
                              n_grid: int = 4001) -> CheckReport:
    """Ratio invariance under the curve-adapted dilations of the moment
    curve.  g_lam(x) = g(delta_lam^{-1} x) scales both sides of the ratio
    identically exactly when (1 - 1/P) = (2/(d(d+1))) (1/Q)."""
    a_exp = np.arange(1, d + 1, dtype=float)
    lam_max = 2.0 ** octaves

    def ratio(lam: float) -> float:
        ts = np.linspace(1e-9, t_span / lam, n_grid)
        pts = np.stack([ts ** j / math.factorial(j)
                        for j in range(1, d + 1)], axis=-1)
        scaled = pts * lam ** a_exp
        vals = np.abs(g.fourier(scaled)) * lam ** np.sum(a_exp)
        w = _trapezoid_weights(ts)
        num = float(np.sum(w * vals ** Q) ** (1.0 / Q))
        den = g.lp_norm(P) * lam ** (np.sum(a_exp) / P)
        return num / den

    base = ratio(1.0)
    drift = 0.0
    series = []
    for j in range(octaves + 1):
        r = ratio(2.0 ** j)
        series.append({"lam": 2.0 ** j, "ratio": r})
        drift = max(drift, abs(r - base) / base)
    rep = CheckReport(
        check_id="check_dilation_invariance",
        parameters={"d": d, "P": P, "Q": Q, "octaves": octaves},
        estimate=drift,
        bound=0.01,
        tolerance=0.01,
        passed=drift <= 0.01,
        series=series,
    )
    return rep


def homogeneous_rescale_check(curve: HomogeneousCurve, k: int,
                              g: TestFunction, p: float,
                              order: int = 64) -> CheckReport:
    """With t = 2^{-k} s the restriction satisfies
    g_hat(gamma(2^{-k} s)) = g_hat_k(gamma(s)), g_hat_k = g_hat o delta_k;
    hence the L^p norm over I_k = [2^{-k-1}, 2^{-k}] equals
    2^{-k/p} times the norm of g_hat_k o gamma over [1/2, 1]."""
    if k < 0:
        raise ConfigError("k must be >= 0")
    a_exp = np.asarray(curve.exponents, dtype=float)
    if np.any(a_exp == 0):
        raise ConfigError("homogeneous exponents must be nonzero")
    lo, hi = 2.0 ** (-k - 1), 2.0 ** (-k)
    nodes, wts = gl_nodes(lo, hi, order)
    lhs = float(np.sum(
        wts * np.abs(g.fourier(nodes[:, None] ** a_exp)) ** p) ** (1.0 / p))
    s_nodes, s_wts = gl_nodes(0.5, 1.0, order)
    delta_k = 2.0 ** (-k * a_exp)
    scaled = (s_nodes[:, None] ** a_exp) * delta_k
    rhs = 2.0 ** (-k / p) * float(
        np.sum(s_wts * np.abs(g.fourier(scaled)) ** p) ** (1.0 / p))
    resid = abs(lhs - rhs) / max(rhs, 1e-300)
    return CheckReport(
        check_id="homogeneous_rescale_check",
        parameters={"exponents": a_exp.tolist(), "k": k, "p": p,
                    "order": order},
        estimate=resid,
        bound=1e-9,
        tolerance=1e-9,
        passed=resid <= 1e-9,
        witnesses=[{"lhs": lhs, "rhs": rhs}],
    )


def converse_scaling_check(E: Parallelepiped, f: TestFunction, P: float,
                           Q: float, alpha: float, curve=None,
                           lattice: int = 64,
                           span_sigmas: float = 8.0) -> CheckReport:
    """||g||_{L^P} = m_d(E)^{1/P'} ||f_hat||_{L^P} for g defined through
    g_hat(x) = f(T^{-1}(x - x_0)), T the edge map of E.

    Uses the unitary Fourier normalization.  Optionally also verifies the
    monotonicity step lambda(E)^{1/Q} <= ||g_hat o gamma||_{L^Q(dt)} when
    g_hat >= 1 on E (requires f >= 1 on the unit cube).
    """
    if f.kind == "BoxBump":
        raise ConfigError("converse check needs a smooth (Gaussian) f")
    Pp = P / (P - 1)
    if abs(1.0 / Pp - alpha / Q) > 1e-12:
        raise ConfigError("exponents must satisfy 1/P' = alpha/Q")
    d = E.dim
    if f.dim != d:
        raise ConfigError("f dimension must match the parallelepiped")
    if d > 3:
        raise ConfigError("lattice norms are capped at d <= 3")
    T = E.edges.T  # columns are edge vectors; x = x_0 + T u
    det_T = abs(float(np.linalg.det(T)))

    def f_hat(xi):
        """Unitary transform of f (Gaussian closed form)."""
        xi = np.asarray(xi, dtype=float)
        shift = xi if f.kind == "Gaussian" else xi - f.freq
        mag = f.amp * np.prod(
            f.sigma * np.exp(-0.5 * (shift * f.sigma) ** 2), axis=-1)
        return mag  # phases drop out of |.|; center only adds a phase

    # f_hat decays like exp(-sigma^2 xi^2 / 2): lattice half-width in xi
    half = span_sigmas / f.sigma
    axes = [np.linspace(-hw, hw, lattice) for hw in half]
    step = np.prod([ax[1] - ax[0] for ax in axes])
    Z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    norm_fhat = float(np.sum(f_hat(Z) ** P) * step) ** (1.0 / P)
    # |g(y)| = m_d(E) |f_hat(-T^T y)|, integrated on an axis-aligned
    # y-lattice covering the preimage of the xi-box
    y_half = np.abs(np.linalg.inv(T.T)) @ half
    y_axes = [np.linspace(-hw, hw, lattice) for hw in y_half]
    y_step = np.prod([ax[1] - ax[0] for ax in y_axes])
    Y = np.stack(np.meshgrid(*y_axes, indexing="ij"), axis=-1).reshape(-1, d)
    g_vals = det_T * f_hat(-(Y @ T))
    norm_g = float(np.sum(np.abs(g_vals) ** P) * y_step) ** (1.0 / P)
    target = det_T ** (1.0 / Pp) * norm_fhat
    resid = abs(norm_g - target) / target
    rep = CheckReport(
        check_id="converse_scaling_check",
        parameters={"d": d, "P": P, "Q": Q, "alpha": alpha,
                    "lattice": lattice},
        estimate=resid,
        bound=1e-6,
        tolerance=1e-6,
        passed=resid <= 1e-6,
        witnesses=[{"norm_g": norm_g, "target": target, "m_d": det_T}],
    )
    if curve is not None:
        ts = np.linspace(*curve.domain, 4001)
        ghat_on_curve = f(np.linalg.solve(
            T, (_curve_points(curve, ts) - E.base).T).T)
        if np.min(np.abs(f(np.stack(np.meshgrid(
                *[np.linspace(0, 1, 5)] * d, indexing="ij"),
                axis=-1).reshape(-1, d)))) < 1:
            rep.notes.append("g_hat < 1 somewhere on E; monotonicity step "
                             "skipped")
        else:
            w = _trapezoid_weights(ts)
            lhsQ = lambda_measure(curve, E) ** (1.0 / Q)
            rhsQ = float(np.sum(w * np.abs(ghat_on_curve) ** Q) ** (1.0 / Q))
            ok = lhsQ <= rhsQ * (1 + 1e-9)
            rep.witnesses.append({"lambda^{1/Q}": lhsQ, "normQ": rhsQ})
            rep.passed = rep.passed and ok
    return rep
