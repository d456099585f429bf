"""Registry mapping check names to adapters over the library modules.

Each adapter takes the run seed and the descriptor's keys as keyword
parameters and returns a CheckReport; its signature is the operation's
key table.  A parameter's name is the key, its annotation the parser of
the key's value (see ``report.Int``), and its default the value of a
missing key; a key without a default is required.  Adapters are thin:
they build curves/test functions from their JSON specs, draw any random
samples from a generator seeded with the run seed, and delegate to the
library.

A check that reads phi parses its curve spec with PhiCurve, the curve
kinds with a phi; one that traces gamma alone (estimate-alpha-B,
empirical-ratio) with Curve, every kind.
"""

import inspect
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import conditions, geometry, jacobian, probe, vandermonde
from .curves import (CURVE as Curve, SIMPLE_CURVE as PhiCurve, SimpleCurve,
                     poly_oracle, poly_rows, validate_monotone)
from .probe import TEST as Test
from .report import (CheckReport, Choice, ConfigError, Int, Many, Real, Spec,
                     at_most, parse_keys, worst_index)


@dataclass(frozen=True)
class OpEntry:
    name: str
    summary: str
    fn: Callable[..., CheckReport]


def _op_validate_monotone(seed, curve: PhiCurve, grid_size: Int(2) = 64):
    return validate_monotone(PhiCurve.build(curve), grid_size=grid_size)


# each sample count is bounded near where its check takes about 10 s
# (registry.run_check on a 2-core box, at the costliest d measured), and
# psi-lower-bound's d too: at 200,000 samples it takes 1.0 s and 77 MB of
# RSS at d = 5 (its determinants are built in blocks of rows), and 8.0 s
# and 168 MB at d = 14
def _op_psi_lower_bound(seed, d: Int(2, 14),
                        n_samples: Int(1, 200_000) = 1000):
    rng = np.random.default_rng(seed)
    # the same numbers as n draws of d - 1 gaps each
    return vandermonde.check_psi_lower_bound(
        d, 0.3, rng.uniform(0.05, 1.0, size=(n_samples, d - 1)))


def _op_vandermonde_integration(seed, n: Int(2)):
    rng = np.random.default_rng(seed)
    s = np.sort(rng.uniform(0.0, 1.0, size=n))
    return vandermonde.check_vandermonde_integration(n, s)


# n = 2 is left out: its spread factor degenerates.  The cost grows as
# 24^(n-1) box-rule points and 60^(n-2) nested-integral calls: n = 3 takes
# 0.012 s, n = 4 0.167 s, n = 5 9.4 s, and n = 6 had not finished after
# 5 minutes
def _op_tail_inequalities(seed, n: Int(3, 5), t: Many(Real()),
                          delta: Real() = 0.5):
    return vandermonde.check_tail_inequalities(
        n, np.asarray(t, dtype=float), delta)


def _op_lin_lemma(seed, instance: Spec(vandermonde.check_lin_lemma,
                                       "lin-lemma instance")):
    return vandermonde.check_lin_lemma(**instance)


# the domain of jacobian-identity's random polynomials
_TRIAL_DOMAIN = (-5.0, 5.0)


# 50,000 trials take 9.2 s at d = 5.  A trial's nodes reach t + kappa_d <
# 1 + 0.8 (d - 1), which stays in _TRIAL_DOMAIN up to d = 6
def _op_jacobian_identity(seed, d: Int(2, 6), n_trials: Int(1, 50_000) = 50):
    rng = np.random.default_rng(seed)
    coeffs, t, h, direct = [], [], [], []
    for _ in range(n_trials):
        coeffs.append(rng.normal(size=d + 3))
        curve = SimpleCurve(d=d, phi=poly_oracle(coeffs[-1], _TRIAL_DOMAIN),
                            label="random-poly")
        t.append(float(rng.uniform(-1, 1)))
        h.append(rng.uniform(0.05, 0.8, size=d - 1))
        direct.append(jacobian.jacobian_direct(curve, t[-1], h[-1]))
    # every trial's integral route in one sweep, row i on trial i's
    # polynomial
    integral = jacobian.jacobian_integral(
        poly_rows(coeffs, _TRIAL_DOMAIN, d), np.array(t),
        np.array(h)).tolist()
    errs = [abs(J1 - J2) / (1 + abs(J1)) for J1, J2 in zip(direct, integral)]
    return at_most("jacobian_identity", {"d": d, "n_trials": n_trials}, errs,
                   1e-8, witness=lambda i: {"t": t[i], "h": h[i].tolist(),
                                            "direct": direct[i],
                                            "integral": integral[i]})


# the determinant route holds its 1e-10 tolerance up to d = 6: above it
# the check FAILs at some seeds, and at d_max 34 the factorial product
# leaves the doubles
def _op_monomial_closed_form(seed, d_max: Int(2, 6) = 5):
    rng = np.random.default_rng(seed)
    errs = []
    for d in range(2, d_max + 1):
        coeffs = [0.0] * d + [1.0 / math.factorial(d)]
        curve = SimpleCurve(d=d, phi=poly_oracle(coeffs, domain=(0.0, 50.0)),
                            label=f"monomial-{d}")
        for _ in range(5):
            h = rng.uniform(0.1, 1.5, size=d - 1)
            v = vandermonde.vandermonde(vandermonde.kappa_of(h))
            t = float(rng.uniform(0.0, 2.0))
            J = jacobian.jacobian_direct(curve, t, h)
            pf = vandermonde.factorial_product(d)
            errs.append(abs(J * pf - v) / v)
    return at_most("monomial_closed_form", {"d_max": d_max}, errs, 1e-10)


def _unit_samples(seed, n_samples, curve):
    """``n_samples`` points of the unit box [0, 1]^d, drawn from the run
    seed: the samples of the sigma checks."""
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n_samples, curve.d))


# the sigma checks at their bounds: estimate-sigma 9.3 s (exp-flat,
# d = 2), offspring-closure 10.5 s (monomial, d = 3) and
# weight-product-bound 11.0 s (monomial, d = 5)
def _op_estimate_sigma(seed, curve: PhiCurve,
                       n_samples: Int(1, 200_000) = 200):
    curve = PhiCurve.build(curve)
    return jacobian.estimate_sigma(curve,
                                   _unit_samples(seed, n_samples, curve))


def _op_offspring_closure(seed, curve: PhiCurve, h: Many(Real()),
                          n_samples: Int(1, 500_000) = 200):
    curve = PhiCurve.build(curve)
    return jacobian.check_offspring_closure(
        curve, h, _unit_samples(seed, n_samples, curve))


def _op_weight_product_bound(seed, curve: PhiCurve,
                             n_samples: Int(1, 500_000) = 100):
    curve = PhiCurve.build(curve)
    return jacobian.weight_product_bound(
        curve, _unit_samples(seed, n_samples, curve))


def _op_estimate_A(seed, curve: PhiCurve, variant: Choice("AM", "GM") = "GM",
                   grid_size: Int(2) = 12, bound: Real(keep=True) = None,
                   tolerance: Real(keep=True) = None):
    rep = conditions.estimate_A(PhiCurve.build(curve), variant, grid_size)
    rep.bound, rep.tolerance = bound, tolerance
    if rep.bound is not None:
        rep.passed = rep.estimate <= rep.bound + (rep.tolerance or 0.0)
    return rep


def _op_check_phicond(seed, curve: PhiCurve, alpha: Real(0),
                      grid_size: Int(2) = 64):
    return conditions.check_phicond(PhiCurve.build(curve), alpha, grid_size)


def _op_exponent_identities(seed, d: Int(2)):
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


def _op_lemma1_chain(seed, curve: PhiCurve, t: Real(), h: Real(0)):
    _, rep = geometry.lemma1_chain(PhiCurve.build(curve), t, h)
    return rep


def _boxes(curve, center_t, side0, count):
    """The cubes around gamma(center_t), by default the domain's midpoint."""
    t0 = 0.5 * sum(curve.domain) if center_t is None else center_t
    center = curve.jet(np.array([t0]))[0]
    return geometry.shrink_family(center, side0, count)


def _op_estimate_alpha_B(seed, curve: Curve, alpha: Real(0),
                         center_t: Real() = None, side0: Real(0) = 1.0,
                         count: Int(1) = 6):
    curve = Curve.build(curve)
    return geometry.estimate_alpha_B(
        curve, _boxes(curve, center_t, side0, count), alpha)


# 200,000 pairs took 6.2 s (monomial, d = 3)
def _op_lemma1_conclusion(seed, curve: PhiCurve, alpha: Real(0),
                          n_samples: Int(1, 300_000) = 20,
                          center_t: Real() = None, side0: Real(0) = 1.0,
                          count: Int(1) = 6):
    curve = PhiCurve.build(curve)
    rng = np.random.default_rng(seed)
    a, b = curve.domain
    # a pair is kept only if it is more than 1e-3 apart: from a draw
    # interval 2e-3 wide three pairs in four are redrawn, and from one
    # 1e-3 wide or narrower every pair is
    if 0.95 * (b - a) < 2e-3:
        raise ConfigError(f"the pairs are drawn from [a + 0.05 (b - a), b] "
                          f"at least 1e-3 apart, which needs 0.95 (b - a) "
                          f">= 2e-3; the domain is [{a}, {b}]")
    samples = []
    while len(samples) < n_samples:
        t, s = np.sort(rng.uniform(a + 0.05 * (b - a), b, size=2))
        if s - t > 1e-3:
            samples.append((float(t), float(s)))
    B_rep = geometry.estimate_alpha_B(
        curve, _boxes(curve, center_t, side0, count), alpha)
    return geometry.lemma1_conclusion(curve, samples, alpha, B_rep.estimate)


def _op_K_u_geometry(seed, h: Many(Real()), alpha: Real(0)):
    _, _, rep = geometry.K_u_geometry(h, alpha)
    return rep


# the K-shell draws stream in blocks: 200,000,000 samples took 4.1 s at
# d = 5, for sm-measure and for sm-scaling's five shells alike
_MAX_MC_SAMPLES = 500_000_000


def _op_sm_measure(seed, d: Int(2), alpha: Real(0), m: Int(0),
                   mc_samples: Int(1, _MAX_MC_SAMPLES) = 4_000_000):
    return geometry.sm_measure(d, alpha, m, mc_samples=mc_samples, seed=seed)


def _op_sm_scaling(seed, d: Int(2), alpha: Real(0),
                   m_max: Int(1) = 4,  # two shells give the first ratio
                   mc_samples: Int(1, _MAX_MC_SAMPLES) = 4_000_000):
    ests, _ = geometry.sm_shells(d, alpha, m_max, mc_samples=mc_samples,
                                 seed=seed)
    target = 2.0 ** (-(d - 1) * alpha / (1 - d * alpha))
    series = [{"m": m, "measure": est} for m, est in enumerate(ests)]
    devs = [abs(lo / hi - target) / target
            for lo, hi in zip(ests[1:], ests[:-1])]
    return at_most("sm_scaling", {"d": d, "alpha": alpha, "m_max": m_max,
                                  "target_ratio": target},
                   devs, 0.2, series=series)


# 200,000 samples take 9.6 s (monomial, d = 5)
def _op_check_J_geq_K(seed, curve: PhiCurve, alpha: Real(0),
                      n_samples: Int(1, 200_000) = 200):
    curve = PhiCurve.build(curve)
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
    samples = []
    for _ in range(n_samples):
        h = rng.uniform(1e-3, (b - a) / curve.d, size=curve.d - 1)
        s = rng.uniform(a, b - float(np.max(h)))
        samples.append((float(s), h))
    return geometry.check_J_geq_K(curve, sigma, alpha, samples)


def _t_grid(a: Real() = 1e-4, b: Real() = 1.0, n: Int(2) = 2001):
    if not a < b:
        raise ConfigError(f"t_grid needs a < b, got a = {a}, b = {b}")
    return np.linspace(a, b, n)


T_GRID = Spec(_t_grid, "t_grid")


def _op_empirical_ratio(seed, curves: Many(Curve), P: Real(1),
                        tests: Many(Test),
                        weighted: Choice(True, False) = True,
                        t_grid: T_GRID = None):
    curves = [Curve.build(s) for s in curves]
    d = curves[0].d
    Q = 2.0 / (d * (d + 1) * (1 - 1.0 / P))
    return probe.empirical_ratio(
        curves, P, Q, weighted, [Test.build(s) for s in tests],
        T_GRID.build(t_grid or {}))


# k <= 1021 keeps 2^(-k-1) a normal double: further out the nodes are
# subnormal or 0, and from k = 1043 the identity FAILs
def _op_homogeneous_rescale(seed, exponents: Many(Real()), g: Test,
                            p: Real(0) = 7.0 / 6.0,
                            k_list: Many(Int(0, 1021)) = (0, 1, 2)):
    curve = Curve.build({"kind": "homogeneous", "exponents": exponents})
    g = Test.build(g)
    k_list = list(k_list)
    reps = [probe.homogeneous_rescale_check(curve, int(k), g, p)
            for k in k_list]
    worst = reps[worst_index([r.estimate for r in reps])]
    worst.passed = all(r.passed for r in reps)
    worst.parameters["k_list"] = k_list
    return worst


# 200 parallelepipeds took 12.6 s at d = 3
def _op_converse_scaling(seed, d: Int(1), Q: Real(0), alpha: Real(0),
                         f: Test, n_random: Int(1, 150) = 20):
    if not alpha < Q:
        raise ConfigError(f"P = 1 / (1 - alpha / Q) needs alpha < Q, got "
                          f"alpha = {alpha}, Q = {Q}")
    P = 1.0 / (1.0 - alpha / Q)
    f = Test.build(f)
    rng = np.random.default_rng(seed)
    resids, boxes = [], []
    for _ in range(n_random):
        E = geometry.Parallelepiped.of(
            rng.normal(size=d), np.eye(d) + 0.3 * rng.normal(size=(d, d)))
        resids.append(probe.converse_scaling_check(E, f, P, Q, alpha).estimate)
        boxes.append(E)
    return at_most("converse_scaling",
                   {"d": d, "P": P, "Q": Q, "alpha": alpha,
                    "n_random": n_random},
                   resids, 1e-6,
                   witness=lambda i: {**boxes[i].to_dict(),
                                      "residual": resids[i]})


def _op_dilation_invariance(seed, d: Int(1), P: Real(0), Q: Real(0), g: Test,
                            octaves: Int(0) = 4):
    return probe.check_dilation_invariance(
        d, P, Q, Test.build(g), octaves=octaves)


REGISTRY: dict[str, OpEntry] = {}
# the adapter parameters after 'seed' by operation name: the keys, their
# parsers and defaults.  Kept apart from the entries so that an entry
# rebuilt around a wrapped adapter (as the benchmark's tracer does) keeps
# them
KEYS: dict[str, tuple[inspect.Parameter, ...]] = {}


def _register(name: str, summary: str, fn) -> None:
    """Register an adapter; its parameters after 'seed' are the keys it
    reads."""
    REGISTRY[name] = OpEntry(name=name, summary=summary, fn=fn)
    KEYS[name] = tuple(inspect.signature(fn).parameters.values())[1:]


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


def check_descriptor(
        descriptor: dict[str, Any]) -> tuple[OpEntry, dict[str, Any]]:
    """The descriptor's operation and the parsed values of its keys;
    ConfigError if it names an unknown operation, a key the operation
    does not read (at the top level or in a nested spec), misses a
    required key or holds a value out of range.  Builds no curve and runs
    nothing."""
    op = get_operation(descriptor["operation"])
    return op, parse_keys(
        op.name, {k: v for k, v in descriptor.items() if k != "operation"},
        KEYS[op.name])


def run_check(descriptor: dict[str, Any], seed: int) -> CheckReport:
    op, values = check_descriptor(descriptor)
    return op.fn(seed, **values)
