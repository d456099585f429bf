"""Acceptance suite: one test per headline criterion, one status line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.  Each test is self-contained and seeded.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from restriction_lab.conditions import (build_flattened, estimate_A,
                                        exponent_calculator)
from restriction_lab.curves import (HomogeneousCurve, SimpleCurve,
                                    expflat_phi_derivative, monomial_oracle,
                                    poly_oracle)
from restriction_lab.geometry import (Parallelepiped, lemma1_chain,
                                      sm_measure)
from restriction_lab.jacobian import (jacobian_direct, jacobian_integral,
                                      sample_admissible)
from restriction_lab.probe import TestFunction, empirical_ratio, \
    converse_scaling_check, homogeneous_rescale_check
from restriction_lab.runner import load_config, run, write_report
from restriction_lab.vandermonde import GapVector, check_psi_lower_bound

ROOT = Path(__file__).resolve().parent.parent


def _status(n, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {n:2d} {label}: {detail}")
    assert ok, f"criterion {n} ({label}): {detail}"


def test_criterion_01_jacobian_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(50):
            deg = d + rng.integers(1, 4)
            coeffs = rng.uniform(-1.5, 1.5, size=deg + 1)
            curve = SimpleCurve(
                d=d, phi=poly_oracle(coeffs, domain=(-1.0, 1.0)),
                label="rand-poly")
            t, gaps = sample_admissible(curve, rng.uniform(size=d))
            J1 = jacobian_direct(curve, t, gaps)
            J2 = jacobian_integral(curve, t, gaps)
            worst = max(worst, abs(J1 - J2) / (1 + abs(J1)))
    elapsed = time.perf_counter() - start
    _status(1, "jacobian direct vs iterated", worst <= 1e-8 and elapsed <= 60,
            f"worst rel err {worst:.3g}, {elapsed:.1f}s")


def test_criterion_02_monomial_closed_form():
    rng = np.random.default_rng(102)
    worst = 0.0
    for d in (2, 3, 4, 5):
        curve = SimpleCurve(
            d=d, phi=poly_oracle([0.0] * d + [1.0 / math.factorial(d)],
                                 domain=(-2.0, 4.0)),
            label="mono")
        pf = math.prod(math.factorial(j) for j in range(1, d))
        for _ in range(10):
            t = rng.uniform(-1, 1)
            g = GapVector.of(rng.uniform(0.05, 0.8, size=d - 1))
            lhs = jacobian_direct(curve, t, g) * pf
            worst = max(worst, abs(lhs - g.v) / abs(g.v))
    _status(2, "monomial Jacobian equals Vandermonde", worst <= 1e-10,
            f"worst rel err {worst:.3g}")


def test_criterion_03_psi_lower_bound():
    rng = np.random.default_rng(103)
    rep2 = check_psi_lower_bound(
        2, [(rng.uniform(0, 1), (rng.uniform(0.05, 1),)) for _ in range(50)])
    exact_half = rep2.estimate == 0.5
    infs = {}
    for d in (3, 4):
        samples = [(rng.uniform(0, 1),
                    tuple(rng.uniform(0.02, 1.0, size=d - 1)))
                   for _ in range(1000)]
        infs[d] = check_psi_lower_bound(d, samples).estimate
    ok = exact_half and all(v > 0 for v in infs.values())
    _status(3, "Psi tail-mass lower bound", ok,
            f"d=2 ratio {rep2.estimate}, inf d=3 {infs[3]:.3g}, "
            f"d=4 {infs[4]:.3g}")


def test_criterion_04_condition_constant_A():
    worst = 0.0
    for d in (2, 3):
        for beta in (float(d), d + 0.5, 2.0 * d):
            curve = SimpleCurve(d=d, phi=monomial_oracle(
                beta, domain=(0.0, 1.0)), label=f"t^{beta}")
            est = estimate_A(curve, "GM", 10)
            worst = max(worst, abs(est.constant - 1.0))
    base = SimpleCurve(d=3, phi=monomial_oracle(4.0, domain=(0.0, 1.0)),
                       label="base")
    once = build_flattened(base, "exp")
    twice = build_flattened(once, "exp")
    flat_worst = 0.0
    for flat in (once, twice):
        for grid in (6, 10, 14):
            flat_worst = max(flat_worst,
                             estimate_A(flat, "GM", grid).constant - 1.0)
    ok = worst <= 1e-9 and flat_worst <= 1e-6
    _status(4, "geometric-mean constant A", ok,
            f"monomial dev {worst:.3g}, flattened excess {flat_worst:.3g}")


def test_criterion_05_flat_derivative_recursion():
    # each recursion step d-1 -> d is checked against a central finite
    # difference; order 0 is the plain closed form exp(-t^{-beta}).
    # errors are measured against the derivative envelope because the
    # derivatives themselves change sign (e.g. at t = 0.5 for d=2, beta=1)
    worst = 0.0
    step = 1e-5
    for d in (1, 2, 3, 4):
        for beta in (1.0, 2.0):
            for t in np.linspace(0.3, 1.0, 9):
                env = beta ** d * math.exp(-t ** -beta) \
                    * t ** (-d * (beta + 1))
                fd = (expflat_phi_derivative(beta, d - 1, t + step)
                      - expflat_phi_derivative(beta, d - 1, t - step)) \
                    / (2 * step)
                err = abs(expflat_phi_derivative(beta, d, t) - fd) / env
                worst = max(worst, err)
    _status(5, "flat-curve derivative recursion", worst <= 1e-4,
            f"worst envelope-relative err {worst:.3g}")


def test_criterion_06_chain_of_parallelepipeds():
    curve = SimpleCurve(d=3, phi=poly_oracle([0, 0, 0, 0, 1.0],
                                             domain=(0.0, 1.0)),
                        label="t^4")
    t, h = 0.2, 0.1
    chain, rep = lemma1_chain(curve, t, h, n_samples=1000)
    m2, m3 = chain[0].volume, chain[1].volume
    recursion_err = abs(m3 - h ** 3 * m2) / (h ** 3 * m2)
    cap = h ** 5 * (curve.phi(t + h, 2) - curve.phi(t, 2))
    ok = rep.passed and recursion_err <= 1e-12 and m3 <= cap
    _status(6, "parallelepiped chain", ok,
            f"containment {rep.passed}, recursion err {recursion_err:.3g}, "
            f"m_3 {m3:.3g} <= {cap:.3g}")


def test_criterion_07_converse_norm_identity():
    rng = np.random.default_rng(107)
    worst = 0.0
    for d in (2, 3):
        for _ in range(10):
            edges = np.eye(d) + 0.4 * rng.normal(size=(d, d))
            # the axis-aligned integration lattice loses resolution on
            # badly skewed boxes, so keep the edge map well conditioned
            while np.linalg.cond(edges) > 2.5:
                edges = np.eye(d) + 0.4 * rng.normal(size=(d, d))
            E = Parallelepiped.of(rng.normal(size=d), edges)
            f = TestFunction.gaussian(rng.normal(scale=0.3, size=d),
                                      rng.uniform(0.7, 1.4, size=d),
                                      amp=rng.uniform(0.5, 2.0))
            rep = converse_scaling_check(E, f, 6 / 5, 2.0, 1 / 3,
                                         lattice=96)
            worst = max(worst, rep.estimate)
    _status(7, "converse norm identity", worst <= 1e-6,
            f"worst rel residual {worst:.3g} over 20 boxes")


def test_criterion_08_exponent_algebra():
    worst = 0.0
    for d in (2, 3, 4, 5):
        p_d = (d * d + d + 2) / (d * d + d)
        # the grid starts at 1.01: p' ~ 1/(p-1) amplifies roundoff near 1
        for p in np.linspace(1.01, p_d, 40):
            rec = exponent_calculator(d, p=float(p))
            worst = max(worst, abs(rec["identity_eta"]),
                        abs(rec["identity_s"]))
    p3_exact = exponent_calculator(3)["p_d"] == 7 / 6
    delta_ok = True
    for d in (2, 3, 4, 5):
        hi = 1 / 3 if d == 2 else 2 / (d * (d + 1))
        for alpha in np.linspace(hi / 50, hi * (0.999 if d == 2 else 1.0),
                                 50):
            delta = exponent_calculator(d, alpha=float(alpha))["delta"]
            delta_ok = delta_ok and 0 < delta < 1
    ok = worst <= 1e-14 and p3_exact and delta_ok
    _status(8, "exponent identities", ok,
            f"worst identity residual {worst:.3g}, p_3 exact {p3_exact}, "
            f"delta in (0,1): {delta_ok}")


def test_criterion_09_shell_geometry():
    from restriction_lab.geometry import K_u_geometry
    _, _, hom = K_u_geometry([0.7, 1.9], 1 / 6, scales=(2.0, 5.0, 11.0))
    alpha = 1 / 6
    target = 2.0 ** (-2 * alpha / (1 - 3 * alpha))
    measures = [sm_measure(3, alpha, m, mc_samples=2_000_000,
                           seed=900 + m).estimate for m in range(6)]
    ratios = [measures[m + 1] / measures[m] for m in range(5)]
    ratio_ok = all(abs(r / target - 1) <= 0.2 for r in ratios)
    ok = hom.passed and ratio_ok
    _status(9, "K homogeneity and shell measures", ok,
            f"homogeneity err {hom.estimate:.3g}, ratios "
            + ", ".join(f"{r:.3f}" for r in ratios)
            + f" vs target {target:.3f}")


def test_criterion_10_homogeneous_rescaling():
    g = TestFunction.gaussian([0.0, 0.0, 0.0], [1.0, 0.9, 1.3])
    worst = 0.0
    for exps in ((1.0, 2.0, 3.0), (1.0, 1.5, 6.5)):
        curve = HomogeneousCurve(exponents=exps)
        for k in (0, 1, 2):
            rep = homogeneous_rescale_check(curve, k, g, 7 / 6)
            worst = max(worst, rep.estimate)
    _status(10, "homogeneous dyadic rescaling", worst <= 1e-9,
            f"worst residual {worst:.3g}")


def test_criterion_11_flat_family_probe():
    base = SimpleCurve(d=3, phi=monomial_oracle(4.0, domain=(0.0, 1.0)),
                       label="t^4")
    once = build_flattened(base, "exp")
    twice = build_flattened(once, "exp")
    fam = [TestFunction.gaussian([0, 0, 0], s) for s in (0.5, 1.0, 2.0)]
    P = 9 / 8
    Q = 2.0 / (3 * 4 * (1 - 1 / P))
    rep = empirical_ratio([base, once, twice], P, Q, True, fam,
                          np.linspace(0.02, 0.98, 801))
    finite = rep.passed and math.isfinite(rep.estimate)
    spread = rep.witnesses[0]["spread"]
    _status(11, "flat-family ratio probe (exploratory)", finite,
            f"max ratio {rep.estimate:.4g}, family spread {spread:.4g} "
            "(recorded, no threshold)")


def test_criterion_12_reproducible_reports(tmp_path):
    cfg_path = ROOT / "configs" / "default.json"
    blobs = []
    for _ in (1, 2):
        config = load_config(str(cfg_path))
        config.output = str(tmp_path / "run")
        path = write_report(config, run(config))
        blobs.append(Path(path).read_bytes())
    identical = blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    _status(12, "byte-identical reports", identical and payload["all_passed"],
            f"identical {identical}, all checks passed "
            f"{payload['all_passed']}")
