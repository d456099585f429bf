"""Registry mapping check names to adapters over the library modules.

Each adapter takes the raw parameter dict from a config file plus the
run seed and returns a CheckReport.  Adapters are thin: they build
curves/test functions from their JSON specs, draw any random samples
from a seeded generator, and delegate to the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import conditions, geometry, jacobian, probe, vandermonde
from .curves import (SimpleCurve, curve_from_spec, poly_oracle,
                     validate_monotone)
from .report import CheckReport, ConfigError
from .vandermonde import GapVector


@dataclass(frozen=True)
class OpEntry:
    name: str
    summary: str
    fn: Callable[[dict, int], CheckReport]


def _rng(params: dict, seed: int) -> np.random.Generator:
    return np.random.default_rng(int(params.get("seed", seed)))


def _count(params: dict, key: str, default: int) -> int:
    """A sample count from the config; it must be at least 1."""
    n = int(params.get(key, default))
    if n < 1:
        raise ConfigError(f"'{key}' must be at least 1, got {n}")
    return n


def _curve(params: dict, key: str = "curve") -> SimpleCurve:
    if key not in params:
        raise ConfigError(f"missing required parameter '{key}'")
    return curve_from_spec(params[key])


def _op_validate_monotone(params, seed):
    return validate_monotone(_curve(params),
                             grid_size=int(params.get("grid_size", 64)))


def _op_psi_lower_bound(params, seed):
    d = int(params["d"])
    n = _count(params, "n_samples", 1000)
    rng = _rng(params, seed)
    samples = [(0.3, tuple(rng.uniform(0.05, 1.0, size=d - 1)))
               for _ in range(n)]
    return vandermonde.check_psi_lower_bound(d, samples)


def _op_vandermonde_integration(params, seed):
    n = int(params["n"])
    rng = _rng(params, seed)
    s = np.sort(rng.uniform(0.0, 1.0, size=n))
    return vandermonde.check_vandermonde_integration(n, s)


def _op_tail_inequalities(params, seed):
    t = np.asarray(params["t"], dtype=float)
    return vandermonde.check_tail_inequalities(
        int(params["n"]), t, float(params.get("delta", 0.5)),
        floor=float(params.get("floor", 1e-6)))


def _op_lin_lemma(params, seed):
    return vandermonde.check_lin_lemma(params["instance"],
                                       floor=float(params.get("floor", 0.0)))


def _random_poly_curve(rng, d: int) -> SimpleCurve:
    coeffs = rng.normal(size=d + 3)
    return SimpleCurve(d=d, phi=poly_oracle(coeffs, domain=(-5.0, 5.0)),
                       label="random-poly")


def _op_jacobian_identity(params, seed):
    d = int(params["d"])
    n = _count(params, "n_trials", 50)
    rng = _rng(params, seed)
    worst = 0.0
    witness = None
    for _ in range(n):
        curve = _random_poly_curve(rng, d)
        t = float(rng.uniform(-1, 1))
        h = rng.uniform(0.05, 0.8, size=d - 1)
        J1 = jacobian.jacobian_direct(curve, t, h)
        J2 = jacobian.jacobian_integral(curve, t, h)
        err = abs(J1 - J2) / (1 + abs(J1))
        if err > worst:
            worst = err
            witness = {"t": t, "h": h.tolist(), "direct": J1, "integral": J2}
    tol = float(params.get("tolerance", 1e-8))
    return CheckReport(
        check_id="jacobian_identity",
        parameters={"d": d, "n_trials": n},
        estimate=worst, bound=tol, tolerance=tol, passed=worst <= tol,
        witnesses=[witness] if witness else [])


def _op_monomial_closed_form(params, seed):
    d_max = int(params.get("d_max", 5))
    rng = _rng(params, seed)
    worst = 0.0
    for d in range(2, d_max + 1):
        coeffs = [0.0] * d + [1.0 / math.factorial(d)]
        curve = SimpleCurve(d=d, phi=poly_oracle(coeffs, domain=(0.0, 50.0)),
                            label=f"monomial-{d}")
        for _ in range(5):
            h = rng.uniform(0.1, 1.5, size=d - 1)
            g = GapVector.of(h)
            t = float(rng.uniform(0.0, 2.0))
            J = jacobian.jacobian_direct(curve, t, g)
            pf = vandermonde.factorial_product(d)
            worst = max(worst, abs(J * pf - g.v) / g.v)
    tol = float(params.get("tolerance", 1e-10))
    return CheckReport(
        check_id="monomial_closed_form",
        parameters={"d_max": d_max},
        estimate=worst, bound=tol, tolerance=tol, passed=worst <= tol)


def _unit_samples(rng, n: int, d: int):
    return rng.uniform(size=(n, d))


def _op_estimate_sigma(params, seed):
    curve = _curve(params)
    rng = _rng(params, seed)
    us = _unit_samples(rng, _count(params, "n_samples", 200), curve.d)
    return jacobian.estimate_sigma(curve, us, A=params.get("A"))


def _op_offspring_closure(params, seed):
    curve = _curve(params)
    rng = _rng(params, seed)
    us = _unit_samples(rng, _count(params, "n_samples", 200), curve.d)
    return jacobian.check_offspring_closure(curve, params["h"], us)


def _op_weight_product_bound(params, seed):
    curve = _curve(params)
    rng = _rng(params, seed)
    us = _unit_samples(rng, _count(params, "n_samples", 100), curve.d)
    return jacobian.weight_product_bound(curve, us)


def _wrap_condition(est, check_id, bound=None, tolerance=None):
    passed = est.passed if bound is None else (
        est.passed and est.constant <= bound + (tolerance or 0.0))
    return CheckReport(
        check_id=check_id,
        parameters={"grid": est.grid_spec},
        estimate=est.constant, bound=bound, tolerance=tolerance,
        passed=passed, witnesses=[est.attained_at])


def _op_estimate_A(params, seed):
    est = conditions.estimate_A(_curve(params),
                                params.get("variant", "GM"),
                                int(params.get("grid_size", 12)))
    return _wrap_condition(est, "estimate_A", params.get("bound"),
                           params.get("tolerance"))


def _op_check_phicond(params, seed):
    est = conditions.check_phicond(_curve(params), float(params["alpha"]),
                                   int(params.get("grid_size", 64)))
    return _wrap_condition(est, "check_phicond")


def _op_exponent_identities(params, seed):
    d = int(params["d"])
    n_p = int(params.get("n_p", 40))
    p_d = (d * d + d + 2) / (d * d + d)
    worst = 0.0
    theta_ok = True
    # p very close to 1 sends p' and q to huge values and the identity
    # residual picks up cancellation noise; 1.01 keeps it at fp level
    for p in np.linspace(1.01, p_d, n_p):
        rec = conditions.exponent_calculator(d, p=float(p))
        worst = max(worst, abs(rec["identity_eta"]), abs(rec["identity_s"]))
        theta_ok = theta_ok and 0 < rec["theta"] < 1
    delta_ok = True
    amax = 2.0 / (d * (d + 1)) if d >= 3 else 1.0 / 3 - 1e-9
    for alpha in np.linspace(amax / 20, amax, 20):
        rec = conditions.exponent_calculator(d, alpha=float(alpha))
        delta_ok = delta_ok and 0 < rec["delta"] < 1
    tol = float(params.get("tolerance", 1e-14))
    return CheckReport(
        check_id="exponent_identities",
        parameters={"d": d, "n_p": n_p},
        estimate=worst, bound=tol, tolerance=tol,
        passed=worst <= tol and theta_ok and delta_ok,
        notes=[] if (theta_ok and delta_ok) else ["range violation"])


def _op_lemma1_chain(params, seed):
    _, rep = geometry.lemma1_chain(
        _curve(params), float(params["t"]), float(params["h"]),
        n_samples=_count(params, "n_samples", 1000))
    return rep


def _shrink_family_from(params, curve):
    t0 = float(params.get("center_t", 0.5 * sum(curve.domain)))
    center = geometry._curve_points(curve, np.array([t0]))[0]
    return geometry.shrink_family(center, float(params.get("side0", 1.0)),
                                  int(params.get("count", 6)),
                                  float(params.get("ratio", 0.5)))


def _op_estimate_alpha_B(params, seed):
    curve = _curve(params)
    family = ([geometry.Parallelepiped.from_dict(e) for e in params["family"]]
              if "family" in params else _shrink_family_from(params, curve))
    return geometry.estimate_alpha_B(curve, family, float(params["alpha"]))


def _op_lemma1_conclusion(params, seed):
    curve = _curve(params)
    alpha = float(params["alpha"])
    rng = _rng(params, seed)
    a, b = curve.domain
    n = _count(params, "n_samples", 20)
    samples = []
    while len(samples) < n:
        t, s = np.sort(rng.uniform(a + 0.05 * (b - a), b, size=2))
        if s - t > 1e-3:
            samples.append((float(t), float(s)))
    B_rep = geometry.estimate_alpha_B(
        curve, _shrink_family_from(params, curve), alpha)
    return geometry.lemma1_conclusion(curve, samples, alpha, B_rep.estimate)


def _op_K_u_geometry(params, seed):
    _, _, rep = geometry.K_u_geometry(params["h"], float(params["alpha"]))
    return rep


def _op_sm_measure(params, seed):
    return geometry.sm_measure(
        int(params["d"]), float(params["alpha"]), int(params["m"]),
        mc_samples=_count(params, "mc_samples", 4_000_000),
        seed=int(params.get("seed", seed)),
        box_side=float(params.get("box_side", 10.0)))


def _op_sm_scaling(params, seed):
    d = int(params["d"])
    alpha = float(params["alpha"])
    m_max = int(params.get("m_max", 4))
    target = 2.0 ** (-(d - 1) * alpha / (1 - d * alpha))
    ests = []
    series = []
    for m in range(m_max + 1):
        rep = _op_sm_measure({**params, "m": m}, seed)
        ests.append(rep.estimate)
        series.append({"m": m, "measure": rep.estimate})
    worst = 0.0
    for lo, hi in zip(ests[1:], ests[:-1]):
        worst = max(worst, abs(lo / hi - target) / target)
    tol = float(params.get("tolerance", 0.2))
    return CheckReport(
        check_id="sm_scaling",
        parameters={"d": d, "alpha": alpha, "m_max": m_max,
                    "target_ratio": target},
        estimate=worst, bound=tol, tolerance=tol, passed=worst <= tol,
        series=series)


def _op_check_J_geq_K(params, seed):
    curve = _curve(params)
    alpha = float(params["alpha"])
    if "sigma_est" in params:
        sigma = float(params["sigma_est"])
    else:
        est = conditions.check_phicond(curve, alpha,
                                       int(params.get("grid_size", 64)))
        if not est.passed:
            raise ConfigError("check_phicond failed; no sigma available")
        sigma = est.constant
    rng = _rng(params, seed)
    a, b = curve.domain
    n = _count(params, "n_samples", 200)
    samples = []
    for _ in range(n):
        h = rng.uniform(1e-3, (b - a) / curve.d, size=curve.d - 1)
        s = rng.uniform(a, b - float(np.max(h)))
        samples.append((float(s), h))
    return geometry.check_J_geq_K(curve, sigma, alpha, samples)


def _tests_from(params):
    return [probe.TestFunction.from_spec(s) for s in params["tests"]]


def _grid_from(params):
    g = params.get("t_grid", {})
    return np.linspace(float(g.get("a", 1e-4)), float(g.get("b", 1.0)),
                       int(g.get("n", 2001)))


def _op_empirical_ratio(params, seed):
    curves = [curve_from_spec(s) for s in params["curves"]]
    P = float(params["P"])
    if "Q" in params:
        Q = float(params["Q"])
    else:
        d = curves[0].d
        Q = 2.0 / (d * (d + 1) * (1 - 1.0 / P))
    return probe.empirical_ratio(curves, P, Q,
                                 bool(params.get("weighted", True)),
                                 _tests_from(params), _grid_from(params))


def _op_homogeneous_rescale(params, seed):
    curve = curve_from_spec({"kind": "homogeneous",
                             "exponents": params["exponents"]})
    g = probe.TestFunction.from_spec(params["g"])
    p = float(params.get("p", 7.0 / 6.0))
    worst = None
    for k in params.get("k_list", [0, 1, 2]):
        rep = probe.homogeneous_rescale_check(curve, int(k), g, p)
        if worst is None or rep.estimate > worst.estimate:
            worst = rep
        worst.passed = worst.passed and rep.passed
    worst.parameters["k_list"] = list(params.get("k_list", [0, 1, 2]))
    return worst


def _op_converse_scaling(params, seed):
    alpha = float(params["alpha"])
    Q = float(params["Q"])
    P = 1.0 / (1.0 - alpha / Q)
    d = int(params["d"])
    f = probe.TestFunction.from_spec(params["f"])
    rng = _rng(params, seed)
    n = _count(params, "n_random", 20)
    worst = 0.0
    for _ in range(n):
        E = geometry.Parallelepiped.of(
            rng.normal(size=d), np.eye(d) + 0.3 * rng.normal(size=(d, d)))
        rep = probe.converse_scaling_check(E, f, P, Q, alpha)
        worst = max(worst, rep.estimate)
    tol = float(params.get("tolerance", 1e-6))
    return CheckReport(
        check_id="converse_scaling",
        parameters={"d": d, "P": P, "Q": Q, "alpha": alpha, "n_random": n},
        estimate=worst, bound=tol, tolerance=tol, passed=worst <= tol)


def _op_dilation_invariance(params, seed):
    g = probe.TestFunction.from_spec(params["g"])
    return probe.check_dilation_invariance(
        int(params["d"]), float(params["P"]), float(params["Q"]), g,
        octaves=int(params.get("octaves", 4)))


REGISTRY: dict[str, OpEntry] = {}


def _register(name: str, summary: str, fn) -> None:
    REGISTRY[name] = OpEntry(name=name, summary=summary, fn=fn)


_register("validate-monotone",
          "derivative stack nonnegative and nondecreasing on a grid",
          _op_validate_monotone)
_register("psi-lower-bound",
          "positivity of the kernel mean-tail ratio (exactly 1/2 for d=2)",
          _op_psi_lower_bound)
_register("vandermonde-integration",
          "iterated-integral identity for the Vandermonde determinant",
          _op_vandermonde_integration)
_register("tail-inequalities",
          "spread-weighted and mean-restricted Vandermonde integral bounds",
          _op_tail_inequalities)
_register("lin-lemma",
          "restricted-box vs full-box ratio for factored integrands",
          _op_lin_lemma)
_register("jacobian-identity",
          "determinant Jacobian equals its Hermite-Genocchi B-spline integral",
          _op_jacobian_identity)
_register("monomial-closed-form",
          "J * prod(j!) = v(h) for the pure monomial phi = t^d/d!",
          _op_monomial_closed_form)
_register("estimate-sigma",
          "empirical infimum of the Jacobian lower-bound ratio",
          _op_estimate_sigma)
_register("offspring-closure",
          "offspring curve keeps at least 1/d of the parent's sigma",
          _op_offspring_closure)
_register("weight-product-bound",
          "weight-product identity and the Jacobian lower bound",
          _op_weight_product_bound)
_register("estimate-A",
          "grid supremum of the mean-value condition ratio",
          _op_estimate_A)
_register("check-phicond",
          "derivative-gap condition infimum and sigma estimate",
          _op_check_phicond)
_register("exponent-identities",
          "exponent bookkeeping identities on a p-grid",
          _op_exponent_identities)
_register("lemma1-chain",
          "trapping parallelepiped chain with exact measure recursion",
          _op_lemma1_chain)
_register("estimate-alpha-B",
          "sup of occupation measure over parallelepiped volume^alpha",
          _op_estimate_alpha_B)
_register("lemma1-conclusion",
          "derivative-gap lower bound from the measure condition",
          _op_lemma1_conclusion)
_register("K-u-geometry",
          "gap polynomial u, the kernel K, and its homogeneity",
          _op_K_u_geometry)
_register("sm-measure",
          "Monte Carlo measure of one dyadic K-shell",
          _op_sm_measure)
_register("sm-scaling",
          "consecutive K-shell measures follow the dilation ratio",
          _op_sm_scaling)
_register("check-J-geq-K",
          "Jacobian dominates the gap kernel K up to a constant",
          _op_check_J_geq_K)
_register("empirical-ratio",
          "exploratory restriction-ratio sweep over a curve family",
          _op_empirical_ratio)
_register("homogeneous-rescale",
          "dyadic rescaling identity for homogeneous curves",
          _op_homogeneous_rescale)
_register("converse-scaling",
          "norm identity behind the converse scaling computation",
          _op_converse_scaling)
_register("dilation-invariance",
          "ratio invariance under curve-adapted dilations",
          _op_dilation_invariance)


def get_operation(name: str) -> OpEntry:
    if name not in REGISTRY:
        raise ConfigError(f"unknown operation {name!r}; see list-checks")
    return REGISTRY[name]


def run_check(descriptor: dict[str, Any], seed: int) -> CheckReport:
    op = get_operation(descriptor["operation"])
    params = {k: v for k, v in descriptor.items() if k != "operation"}
    return op.fn(params, seed)
