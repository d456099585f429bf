"""Oscillatory-quadrature probes of the restriction/extension operators,
the homogeneous rescaling identity, and the converse scaling computation.

Fourier convention: g_hat(xi) = int g(x) exp(-i<xi, x>) dx, except in
``converse_scaling_check`` where the unitary normalization is used so the
norm identity holds without stray 2*pi factors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .conditions import _normal_doubles
from .curves import HomogeneousCurve, affine_weight
from .geometry import Parallelepiped
from .quadrature import QuadratureError, gl_nodes
from .report import (CheckReport, ConfigError, DomainError, Kind, Many, Real,
                     at_most, worst_index)

# a width (and a frequency) is one number, or one per axis of the center
_CENTER, _WIDTH = Many(Real()), Many(Real(0), single=True)


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
    def _of(cls, kind: str, center, amp: float,
            **per_axis) -> "TestFunction":
        """The ``kind`` test function; ``per_axis`` in the center's shape."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        for key, value in per_axis.items():
            value = np.asarray(value, dtype=float)
            if value.ndim and value.shape != center.shape:
                raise ConfigError(f"'{key}' needs one entry per axis of the "
                                  f"center, {center.size}, got {value.size}")
            per_axis[key] = np.broadcast_to(value, center.shape).copy()
        return cls(kind=kind, center=center, amp=amp, **per_axis)

    # the builders of the kinds: each one's keyword parameters are the
    # keys of its spec besides 'kind'

    @classmethod
    def gaussian(cls, center: _CENTER, sigma: _WIDTH,
                 amp: Real() = 1.0) -> "TestFunction":
        return cls._of("Gaussian", center, amp, sigma=sigma)

    @classmethod
    def box_bump(cls, center: _CENTER, sides: _WIDTH,
                 amp: Real() = 1.0) -> "TestFunction":
        return cls._of("BoxBump", center, amp, sides=sides)

    @classmethod
    def modulated(cls, center: _CENTER, sigma: _WIDTH,
                  freq: Many(Real(), single=True),
                  amp: Real() = 1.0) -> "TestFunction":
        return cls._of("ModulatedGaussian", center, amp, sigma=sigma,
                       freq=freq)

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
        shift = xi - self.freq if self.kind == "ModulatedGaussian" else xi
        phase = np.exp(-1j * (shift @ self.center))
        if self.kind == "BoxBump":
            arg = xi * self.sides / (2 * np.pi)
            mag = self.amp * np.prod(self.sides * np.sinc(arg), axis=-1)
            return mag * phase
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


TEST = Kind("test function", {"Gaussian": TestFunction.gaussian,
                              "BoxBump": TestFunction.box_bump,
                              "ModulatedGaussian": TestFunction.modulated})


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.zeros_like(grid)
    dg = np.diff(grid)
    w[:-1] += dg / 2.0
    w[1:] += dg / 2.0
    return w


def lq_norm(weights, values, q: float) -> float:
    """(sum_i weights_i |values_i|^q)^(1/q): the L^q norm of samples
    against the quadrature measure ``weights``."""
    return float(np.sum(weights * np.abs(values) ** q) ** (1.0 / q))


def restrict(tests, curve, t_grid, weighted: bool = False
             ) -> tuple[np.ndarray, list[np.ndarray]]:
    """g_hat along the curve for each test function (closed forms, no
    quadrature): the measure weights kept and one array of g_hat values
    per test, in order.

    The curve is swept once for the whole family: its points on the grid
    and the measure (the trapezoid measure of the grid, times the affine
    arclength weight when ``weighted``) are computed once and shared, so
    each test costs only its own transform.  Grid points of zero measure
    are dropped.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    pts = curve.jet(t_grid)
    w = _trapezoid_weights(t_grid)
    if weighted:
        w = w * affine_weight(curve, t_grid)
    keep = w > 0
    return w[keep], [g.fourier(pts)[keep] for g in tests]


def extension(f, curve, weight: str, x, lam: float = 1.0,
              max_panels: int = 20000) -> complex:
    """T f(x) = int_a^b f(t) w(t) exp(-i lam <x, gamma(t)>) dt, f a
    callable on arrays of t, by 12-point Gauss-Legendre panels with at
    most pi/2 of phase variation per panel."""
    if weight not in ("on", "off"):
        raise ConfigError("weight must be 'on' or 'off'")
    if lam < 1:
        raise ConfigError("lam must be >= 1")
    a, b = curve.domain
    x = np.asarray(x, dtype=float)

    # phase variation from a coarse scan of <x, gamma(t)>
    scan = np.linspace(a, b, 257)
    phase = lam * (curve.jet(scan) @ x)
    variation = float(np.sum(np.abs(np.diff(phase))))
    panels = max(8, int(math.ceil(variation / (math.pi / 2))))
    if panels > max_panels:
        raise QuadratureError(
            f"phase variation {variation:.3g} needs {panels} panels "
            f"(> {max_panels}); reduce lam*|x|")
    edges = np.linspace(a, b, panels + 1)
    nodes, wts = gl_nodes(edges[:-1], edges[1:], 12)
    nodes = nodes.reshape(-1)
    wts = wts.reshape(-1)
    integrand = np.asarray(f(nodes), dtype=complex)
    if weight == "on":
        integrand = integrand * affine_weight(curve, nodes)
    integrand = integrand * np.exp(
        -1j * lam * (curve.jet(nodes) @ x))
    return complex(np.sum(wts * integrand))


def empirical_ratio(curves, P: float, Q: float, weighted: bool,
                    test_family, t_grid) -> CheckReport:
    """Exploratory sweep of ||g_hat o gamma||_{L^Q} / ||g||_{L^P} across
    curves and test functions.  Reports per-curve maxima and the spread;
    never a bound on the operator norm.

    Each curve is restricted once for the whole test family, so a curve's
    points and weights are evaluated once however many tests there are."""
    curves = list(curves)
    test_family = list(test_family)
    if any(g.dim != c.d for c in curves for g in test_family):
        raise ConfigError("every test function needs the dimension of "
                          "every curve")
    series = []
    per_curve_max = []
    for ci, curve in enumerate(curves):
        weights, values = restrict(test_family, curve, t_grid,
                                   weighted=weighted)
        ratios = [lq_norm(weights, v, Q) / g.lp_norm(P)
                  for g, v in zip(test_family, values)]
        series += [{"curve_index": ci, "test_index": gi, "ratio": ratio}
                   for gi, ratio in enumerate(ratios)]
        per_curve_max.append(ratios[worst_index(ratios)])
        if per_curve_max[-1] == 0:  # the spread would divide by zero
            raise ConfigError(f"every ratio of curve {ci} is 0: the curve "
                              f"has no measure on the t grid")
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
                              octaves: int = 4) -> CheckReport:
    """Ratio invariance under the curve-adapted dilations of the moment
    curve on t in (0, 40 / lam], 4001 trapezoid points.
    g_lam(x) = g(delta_lam^{-1} x) scales both sides of the ratio
    identically exactly when (1 - 1/P) = (2/(d(d+1))) (1/Q)."""
    if g.dim != d:
        raise ConfigError(f"g has dimension {g.dim}, the curve {d}")
    a_exp = np.arange(1, d + 1, dtype=float)

    def ratio(lam: float) -> float:
        ts = np.linspace(1e-9, 40.0 / lam, 4001)
        # by hand, not by jet: a SimpleCurve's oracle clamps t a relative
        # 1e-9 inside its domain, which would move the first point, 1e-9
        pts = np.stack([ts ** j / math.factorial(j)
                        for j in range(1, d + 1)], axis=-1)
        scaled = pts * lam ** a_exp
        vals = np.abs(g.fourier(scaled)) * lam ** np.sum(a_exp)
        num = lq_norm(_trapezoid_weights(ts), vals, Q)
        den = g.lp_norm(P) * lam ** (np.sum(a_exp) / P)
        return num / den

    base = ratio(1.0)
    series = [{"lam": 2.0 ** j, "ratio": ratio(2.0 ** j)}
              for j in range(octaves + 1)]
    drifts = [abs(row["ratio"] - base) / base for row in series]
    return at_most("check_dilation_invariance",
                   {"d": d, "P": P, "Q": Q, "octaves": octaves},
                   drifts, 0.01, series=series)


def homogeneous_rescale_check(curve: HomogeneousCurve, k: int,
                              g: TestFunction, p: float) -> CheckReport:
    """With t = 2^{-k} s the restriction satisfies
    g_hat(gamma(2^{-k} s)) = g_hat_k(gamma(s)), g_hat_k = g_hat o delta_k;
    hence the L^p norm over I_k = [2^{-k-1}, 2^{-k}] equals
    2^{-k/p} times the norm of g_hat_k o gamma over [1/2, 1], both by a
    64-point Gauss-Legendre rule.

    A k that the doubles cannot test raises DomainError: one where a
    gamma_i^2 on I_k, or on its rescaled side s^a 2^{-k a}, overflows, or
    where either norm is 0 or subnormal, as g_hat underflows far out
    along a curve with a negative exponent.  An entry of gamma that
    underflows to 0 is harmless: g_hat is smooth at 0."""
    order = 64
    if g.dim != curve.d:
        raise ConfigError(f"g has dimension {g.dim}, the curve {curve.d}")
    # each power is monotone in s, so the largest squares are at the ends
    # of I_k = [2^{-k-1}, 2^{-k}]; a float power past the largest double
    # raises OverflowError, and a product past it is inf
    try:
        big = max(x * x for a in curve.exponents for s in (0.5, 1.0)
                  for x in ((s * 2.0 ** -k) ** a, s ** a * 2.0 ** (-k * a)))
    except OverflowError:
        big = math.inf
    if big == math.inf:
        raise DomainError(f"gamma^2 on I_k overflows at k = {k} for the "
                          f"exponents {list(curve.exponents)}, so the "
                          f"rescaling cannot be tested there")
    a_exp = np.asarray(curve.exponents, dtype=float)
    nodes, wts = gl_nodes(2.0 ** (-k - 1), 2.0 ** (-k), order)
    lhs = lq_norm(wts, g.fourier(curve.jet(nodes)), p)
    s_nodes, s_wts = gl_nodes(0.5, 1.0, order)
    delta_k = 2.0 ** (-k * a_exp)
    rhs = 2.0 ** (-k / p) * lq_norm(
        s_wts, g.fourier(curve.jet(s_nodes) * delta_k), p)
    if _normal_doubles(lambda: [lhs, rhs]) is None:
        raise DomainError(f"the L^p norms on I_k are {lhs!r} and {rhs!r} at "
                          f"k = {k}: 0 or subnormal, so the rescaling "
                          f"cannot be tested there")
    resid = abs(lhs - rhs) / max(rhs, 1e-300)
    return at_most("homogeneous_rescale_check",
                   {"exponents": a_exp.tolist(), "k": k, "p": p,
                    "order": order},
                   [resid], 1e-9, witnesses=[{"lhs": lhs, "rhs": rhs}])


def converse_scaling_check(E: Parallelepiped, f: TestFunction, P: float,
                           Q: float, alpha: float,
                           lattice: int = 64) -> CheckReport:
    """||g||_{L^P} = m_d(E)^{1/P'} ||f_hat||_{L^P} for g defined through
    g_hat(x) = f(T^{-1}(x - x_0)), T the edge map of E.

    Uses the unitary Fourier normalization.
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

    # f_hat decays like exp(-sigma^2 xi^2 / 2): lattice half-width in xi,
    # 8 of its widths
    half = 8.0 / f.sigma
    axes = [np.linspace(-hw, hw, lattice) for hw in half]
    step = np.prod([ax[1] - ax[0] for ax in axes])
    Z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    norm_fhat = float(np.sum(f_hat(Z) ** P) * step) ** (1.0 / P)
    # |g(y)| = m_d(E) |f_hat(-T^T y)|, integrated on a y-lattice laid on
    # the right singular axes of T^T = U S V^T: in z = V^T y (a rotation)
    # the preimage of the xi-box is a box of half-widths (|U^T| half) / S,
    # while an axis-aligned y-box undersamples it when T is ill-conditioned
    U, S, Vt = np.linalg.svd(T.T)
    z_half = (np.abs(U.T) @ half) / S
    z_axes = [np.linspace(-hw, hw, lattice) for hw in z_half]
    y_step = np.prod([ax[1] - ax[0] for ax in z_axes])
    Z = np.stack(np.meshgrid(*z_axes, indexing="ij"), axis=-1).reshape(-1, d)
    Y = Z @ Vt
    g_vals = det_T * f_hat(-(Y @ T))
    norm_g = float(np.sum(np.abs(g_vals) ** P) * y_step) ** (1.0 / P)
    target = det_T ** (1.0 / Pp) * norm_fhat
    resid = abs(norm_g - target) / target
    return at_most("converse_scaling_check",
                   {"d": d, "P": P, "Q": Q, "alpha": alpha,
                    "lattice": lattice},
                   [resid], 1e-6,
                   witnesses=[{"norm_g": norm_g, "target": target,
                               "m_d": det_T}])
