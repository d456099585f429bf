"""Registry mapping check names to adapters over the library modules.

Each adapter takes the raw parameter dict from a config file plus the
run seed and returns a CheckReport.  Adapters are thin: they build
curves/test functions from their JSON specs, draw any random samples
from a generator seeded with the run seed, and delegate to the library.
Every operation declares the descriptor keys its adapter reads;
``check_descriptor`` rejects any other key before a check runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import conditions, geometry, jacobian, probe, vandermonde
from .curves import (SimpleCurve, check_curve_keys, curve_from_spec,
                     poly_oracle, poly_rows, validate_monotone)
from .report import (CheckReport, ConfigError, at_most, reject_unknown_keys,
                     worst_index)
from .vandermonde import GapVector


@dataclass(frozen=True)
class OpEntry:
    name: str
    summary: str
    fn: Callable[[dict, int], CheckReport]

    @property
    def keys(self) -> tuple[str, ...]:
        """The descriptor keys the adapter reads, besides 'operation'."""
        return KEYS[self.name]


def _count(params: dict, key: str, default: int | None = None,
           least: int = 1) -> int:
    """An integer from the config, such as a sample count or a dimension;
    it must be at least ``least``.  A key without a default is required."""
    n = int(params[key] if default is None else params.get(key, default))
    if n < least:
        raise ConfigError(f"'{key}' must be at least {least}, got {n}")
    return n


def _curve(params: dict) -> SimpleCurve:
    if "curve" not in params:
        raise ConfigError("missing required parameter 'curve'")
    return curve_from_spec(params["curve"])


def _op_validate_monotone(params, seed):
    return validate_monotone(_curve(params),
                             grid_size=int(params.get("grid_size", 64)))


def _op_psi_lower_bound(params, seed):
    d = _count(params, "d", least=2)
    n = _count(params, "n_samples", 1000)
    rng = np.random.default_rng(seed)
    # the same numbers as n draws of d - 1 gaps each
    return vandermonde.check_psi_lower_bound(
        d, 0.3, rng.uniform(0.05, 1.0, size=(n, d - 1)))


def _op_vandermonde_integration(params, seed):
    n = _count(params, "n", least=2)
    rng = np.random.default_rng(seed)
    s = np.sort(rng.uniform(0.0, 1.0, size=n))
    return vandermonde.check_vandermonde_integration(n, s)


def _op_tail_inequalities(params, seed):
    t = np.asarray(params["t"], dtype=float)
    return vandermonde.check_tail_inequalities(
        int(params["n"]), t, float(params.get("delta", 0.5)))


def _op_lin_lemma(params, seed):
    return vandermonde.check_lin_lemma(params["instance"])


# the domain of jacobian-identity's random polynomials
_TRIAL_DOMAIN = (-5.0, 5.0)


def _op_jacobian_identity(params, seed):
    d = int(params["d"])
    n = _count(params, "n_trials", 50)
    rng = np.random.default_rng(seed)
    coeffs, t, h, direct = [], [], [], []
    for _ in range(n):
        coeffs.append(rng.normal(size=d + 3))
        curve = SimpleCurve(d=d, phi=poly_oracle(coeffs[-1], _TRIAL_DOMAIN),
                            label="random-poly")
        t.append(float(rng.uniform(-1, 1)))
        h.append(rng.uniform(0.05, 0.8, size=d - 1))
        direct.append(jacobian.jacobian_direct(curve, t[-1], h[-1]))
    # every trial's integral route in one sweep, row i on trial i's
    # polynomial
    integral = jacobian.jacobian_integrals(
        poly_rows(coeffs, _TRIAL_DOMAIN, d), np.array(t),
        np.array(h)).tolist()
    errs = [abs(J1 - J2) / (1 + abs(J1)) for J1, J2 in zip(direct, integral)]
    return at_most("jacobian_identity", {"d": d, "n_trials": n}, errs, 1e-8,
                   witness=lambda i: {"t": t[i], "h": h[i].tolist(),
                                      "direct": direct[i],
                                      "integral": integral[i]})


def _op_monomial_closed_form(params, seed):
    d_max = _count(params, "d_max", 5, least=2)
    rng = np.random.default_rng(seed)
    errs = []
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
            errs.append(abs(J * pf - g.v) / g.v)
    return at_most("monomial_closed_form", {"d_max": d_max}, errs, 1e-10)


def _unit_samples(params, seed, curve, default):
    """'n_samples' points of the unit box [0, 1]^d, drawn from the run
    seed: the samples of the sigma checks."""
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(_count(params, "n_samples", default), curve.d))


def _op_estimate_sigma(params, seed):
    curve = _curve(params)
    return jacobian.estimate_sigma(curve,
                                   _unit_samples(params, seed, curve, 200))


def _op_offspring_closure(params, seed):
    curve = _curve(params)
    return jacobian.check_offspring_closure(
        curve, params["h"], _unit_samples(params, seed, curve, 200))


def _op_weight_product_bound(params, seed):
    curve = _curve(params)
    return jacobian.weight_product_bound(
        curve, _unit_samples(params, seed, curve, 100))


def _op_estimate_A(params, seed):
    rep = conditions.estimate_A(_curve(params),
                                params.get("variant", "GM"),
                                int(params.get("grid_size", 12)))
    rep.bound, rep.tolerance = params.get("bound"), params.get("tolerance")
    if rep.bound is not None:
        rep.passed = rep.estimate <= rep.bound + (rep.tolerance or 0.0)
    return rep


def _op_check_phicond(params, seed):
    return conditions.check_phicond(_curve(params), float(params["alpha"]),
                                    int(params.get("grid_size", 64)))


def _op_exponent_identities(params, seed):
    d = int(params["d"])
    n_p = 40
    p_d = (d * d + d + 2) / (d * d + d)
    resids = []
    theta_ok = True
    # p very close to 1 sends p' and q to huge values and the identity
    # residual picks up cancellation noise; 1.01 keeps it at fp level
    for p in np.linspace(1.01, p_d, n_p):
        rec = conditions.exponent_calculator(d, p=float(p))
        resids += [abs(rec["identity_eta"]), abs(rec["identity_s"])]
        theta_ok = theta_ok and 0 < rec["theta"] < 1
    delta_ok = True
    amax = 2.0 / (d * (d + 1)) if d >= 3 else 1.0 / 3 - 1e-9
    for alpha in np.linspace(amax / 20, amax, 20):
        rec = conditions.exponent_calculator(d, alpha=float(alpha))
        delta_ok = delta_ok and 0 < rec["delta"] < 1
    rep = at_most("exponent_identities", {"d": d, "n_p": n_p}, resids, 1e-14,
                  notes=[] if (theta_ok and delta_ok) else ["range violation"])
    rep.passed = rep.passed and theta_ok and delta_ok
    return rep


def _op_lemma1_chain(params, seed):
    _, rep = geometry.lemma1_chain(
        _curve(params), float(params["t"]), float(params["h"]))
    return rep


def _shrink_family_from(params, curve):
    t0 = float(params.get("center_t", 0.5 * sum(curve.domain)))
    center = curve.jet(np.array([t0]))[0]
    return geometry.shrink_family(center, float(params.get("side0", 1.0)),
                                  int(params.get("count", 6)))


def _op_estimate_alpha_B(params, seed):
    curve = _curve(params)
    return geometry.estimate_alpha_B(curve, _shrink_family_from(params, curve),
                                     float(params["alpha"]))


def _op_lemma1_conclusion(params, seed):
    curve = _curve(params)
    alpha = float(params["alpha"])
    rng = np.random.default_rng(seed)
    a, b = curve.domain
    n = _count(params, "n_samples", 20)
    # a pair is kept only if it is more than 1e-3 apart: from a draw
    # interval 2e-3 wide three pairs in four are redrawn, and from one
    # 1e-3 wide or narrower every pair is
    if 0.95 * (b - a) < 2e-3:
        raise ConfigError(f"the pairs are drawn from [a + 0.05 (b - a), b] "
                          f"at least 1e-3 apart, which needs 0.95 (b - a) "
                          f">= 2e-3; the domain is [{a}, {b}]")
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
        mc_samples=_count(params, "mc_samples", 4_000_000), seed=seed)


def _op_sm_scaling(params, seed):
    d = int(params["d"])
    alpha = float(params["alpha"])
    m_max = _count(params, "m_max", 4)  # two shells give the first ratio
    ests, _ = geometry.sm_shells(
        d, alpha, m_max,
        mc_samples=_count(params, "mc_samples", 4_000_000), seed=seed)
    target = 2.0 ** (-(d - 1) * alpha / (1 - d * alpha))
    series = [{"m": m, "measure": est} for m, est in enumerate(ests)]
    devs = [abs(lo / hi - target) / target
            for lo, hi in zip(ests[1:], ests[:-1])]
    return at_most("sm_scaling", {"d": d, "alpha": alpha, "m_max": m_max,
                                  "target_ratio": target},
                   devs, 0.2, series=series)


def _op_check_J_geq_K(params, seed):
    curve = _curve(params)
    alpha = float(params["alpha"])
    a, b = curve.domain
    if (b - a) / curve.d < 1e-3:
        raise ConfigError(f"the gaps are drawn from [1e-3, (b - a) / d], "
                          f"which needs b - a >= d * 1e-3; the domain is "
                          f"[{a}, {b}] at d = {curve.d}")
    phicond = conditions.check_phicond(curve, alpha)
    if not phicond.passed:
        raise ConfigError("check_phicond failed; no sigma available")
    sigma = phicond.estimate
    rng = np.random.default_rng(seed)
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
    if not P > 1:
        raise ConfigError(f"'P' must exceed 1, got {P}")
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
    k_list = list(params.get("k_list", [0, 1, 2]))
    if not k_list:
        raise ConfigError("'k_list' must name at least one k")
    reps = [probe.homogeneous_rescale_check(curve, int(k), g, p)
            for k in k_list]
    worst = reps[worst_index([r.estimate for r in reps])]
    worst.passed = all(r.passed for r in reps)
    worst.parameters["k_list"] = k_list
    return worst


def _op_converse_scaling(params, seed):
    alpha = float(params["alpha"])
    Q = float(params["Q"])
    P = 1.0 / (1.0 - alpha / Q)
    d = int(params["d"])
    f = probe.TestFunction.from_spec(params["f"])
    rng = np.random.default_rng(seed)
    n = _count(params, "n_random", 20)
    resids, boxes = [], []
    for _ in range(n):
        E = geometry.Parallelepiped.of(
            rng.normal(size=d), np.eye(d) + 0.3 * rng.normal(size=(d, d)))
        resids.append(probe.converse_scaling_check(E, f, P, Q, alpha).estimate)
        boxes.append(E)
    return at_most("converse_scaling",
                   {"d": d, "P": P, "Q": Q, "alpha": alpha, "n_random": n},
                   resids, 1e-6,
                   witness=lambda i: {**boxes[i].to_dict(),
                                      "residual": resids[i]})


def _op_dilation_invariance(params, seed):
    g = probe.TestFunction.from_spec(params["g"])
    return probe.check_dilation_invariance(
        int(params["d"]), float(params["P"]), float(params["Q"]), g,
        octaves=int(params.get("octaves", 4)))


REGISTRY: dict[str, OpEntry] = {}
# accepted keys by operation name, apart from the entries so that an entry
# rebuilt around a wrapped adapter (as the benchmark's tracer does) keeps them
KEYS: dict[str, tuple[str, ...]] = {}


def _register(name: str, summary: str, fn, keys: str) -> None:
    """Register an adapter with the space-separated keys it reads."""
    REGISTRY[name] = OpEntry(name=name, summary=summary, fn=fn)
    KEYS[name] = tuple(keys.split())


_register("validate-monotone",
          "derivative stack nonnegative and nondecreasing on a grid",
          _op_validate_monotone, "curve grid_size")
_register("psi-lower-bound",
          "positivity of the kernel mean-tail ratio (exactly 1/2 for d=2)",
          _op_psi_lower_bound, "d n_samples")
_register("vandermonde-integration",
          "iterated-integral identity for the Vandermonde determinant",
          _op_vandermonde_integration, "n")
_register("tail-inequalities",
          "spread-weighted and mean-restricted Vandermonde integral bounds",
          _op_tail_inequalities, "n t delta")
_register("lin-lemma",
          "restricted-box vs full-box ratio for factored integrands",
          _op_lin_lemma, "instance")
_register("jacobian-identity",
          "determinant Jacobian equals its Hermite-Genocchi B-spline integral",
          _op_jacobian_identity, "d n_trials")
_register("monomial-closed-form",
          "J * prod(j!) = v(h) for the pure monomial phi = t^d/d!",
          _op_monomial_closed_form, "d_max")
_register("estimate-sigma",
          "empirical infimum of the Jacobian lower-bound ratio",
          _op_estimate_sigma, "curve n_samples")
_register("offspring-closure",
          "offspring curve keeps at least 1/d of the parent's sigma",
          _op_offspring_closure, "curve h n_samples")
_register("weight-product-bound",
          "weight-product identity and the Jacobian lower bound",
          _op_weight_product_bound, "curve n_samples")
_register("estimate-A",
          "grid supremum of the mean-value condition ratio",
          _op_estimate_A, "curve variant grid_size bound tolerance")
_register("check-phicond",
          "derivative-gap condition infimum and sigma estimate",
          _op_check_phicond, "curve alpha grid_size")
_register("exponent-identities",
          "exponent bookkeeping identities on a p-grid",
          _op_exponent_identities, "d")
_register("lemma1-chain",
          "trapping parallelepiped chain with exact measure recursion",
          _op_lemma1_chain, "curve t h")
_register("estimate-alpha-B",
          "sup of occupation measure over parallelepiped volume^alpha",
          _op_estimate_alpha_B, "curve alpha center_t side0 count")
_register("lemma1-conclusion",
          "derivative-gap lower bound from the measure condition",
          _op_lemma1_conclusion, "curve alpha n_samples center_t side0 count")
_register("K-u-geometry",
          "gap polynomial u, the kernel K, and its homogeneity",
          _op_K_u_geometry, "h alpha")
_register("sm-measure",
          "Monte Carlo measure of one dyadic K-shell",
          _op_sm_measure, "d alpha m mc_samples")
_register("sm-scaling",
          "consecutive K-shell measures follow the dilation ratio",
          _op_sm_scaling, "d alpha m_max mc_samples")
_register("check-J-geq-K",
          "Jacobian dominates the gap kernel K up to a constant",
          _op_check_J_geq_K, "curve alpha n_samples")
_register("empirical-ratio",
          "exploratory restriction-ratio sweep over a curve family",
          _op_empirical_ratio, "curves P weighted tests t_grid")
_register("homogeneous-rescale",
          "dyadic rescaling identity for homogeneous curves",
          _op_homogeneous_rescale, "exponents g p k_list")
_register("converse-scaling",
          "norm identity behind the converse scaling computation",
          _op_converse_scaling, "d Q alpha n_random f")
_register("dilation-invariance",
          "ratio invariance under curve-adapted dilations",
          _op_dilation_invariance, "d P Q g octaves")


def _each(check):
    def check_all(specs):
        for spec in specs:
            check(spec)
    return check_all


# the key check of each nested spec, by the descriptor key that holds it
# (a key names the same kind of spec in every operation that reads it)
_NESTED = {
    "curve": check_curve_keys,
    "curves": _each(check_curve_keys),
    "tests": _each(probe.check_test_keys),
    "g": probe.check_test_keys,
    "f": probe.check_test_keys,
    "t_grid": lambda g: reject_unknown_keys("t_grid", g, ("a", "b", "n")),
    "instance": vandermonde.check_lin_lemma_keys,
}


def get_operation(name: str) -> OpEntry:
    if name not in REGISTRY:
        raise ConfigError(f"unknown operation {name!r}; see list-checks")
    return REGISTRY[name]


def check_descriptor(descriptor: dict[str, Any]) -> OpEntry:
    """The descriptor's operation; ConfigError if it names an unknown
    operation or a key the operation does not read, at the top level or
    in a nested spec.  Builds no curve and runs nothing."""
    op = get_operation(descriptor["operation"])
    reject_unknown_keys(op.name, descriptor.keys() - {"operation"}, op.keys)
    for key in op.keys:
        if key in descriptor and key in _NESTED:
            _NESTED[key](descriptor[key])
    return op


def run_check(descriptor: dict[str, Any], seed: int) -> CheckReport:
    op = check_descriptor(descriptor)
    params = {k: v for k, v in descriptor.items() if k != "operation"}
    return op.fn(params, seed)
