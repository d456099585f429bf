"""The benchmark's workloads.

A workload draws one pass's inputs from the pass generator: a config
for ``restriction-lab run`` and the inputs of its direct layer calls.
It checks the written report, makes the direct calls, and after the
timed loop compares what it kept against references computed apart from
the program (``reference.py``).

Every pass yields a list of operations, one per registry check and one
per direct layer call, each a dict with ``op`` and ``ok``.  An operation
whose check needs a reference also carries ``later``; ``verify`` settles
those once the timed loop is over.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference
from restriction_lab import jacobian
from restriction_lab.curves import SimpleCurve, curve_from_spec, poly_oracle

HERE = Path(__file__).resolve().parent

# Monte Carlo estimates must lie within this many binomial standard
# errors of the grid integral.  A run makes about 70 such comparisons;
# at 4 errors one run in 230 would fail one by chance, at 5 one run in
# 25 000.
SHELL_Z = 5.0
# sigma_ratio and the flattened lower derivatives must match their
# mpmath references to this relative error.
MP_REL_TOL = 1e-8


def registry_ops(cfg: dict, report: dict | None) -> list[dict]:
    """One operation per registry check; a missing report fails them all."""
    if report is None:
        return [{"op": c["operation"], "ok": False} for c in cfg["checks"]]
    return [{"op": c["operation"], "ok": bool(r["passed"]), "report": r}
            for c, r in zip(cfg["checks"], report["reports"])]


def direct(op: str, fn, later=None) -> dict:
    """Run one direct layer call; an exception fails the operation."""
    try:
        value = fn()
    except Exception as exc:  # the failure is counted, the run goes on
        return {"op": op, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    entry = {"op": op, "ok": True, "value": value}
    if later is not None:
        entry["later"] = later
    return entry


def shell_within(d: int, alpha: float, m: int, box_side: float,
                 samples: int, estimate: float, refs: dict) -> bool:
    """|estimate - grid integral| <= SHELL_Z binomial standard errors."""
    key = (d, alpha, m, box_side)
    if key not in refs:
        refs[key] = reference.shell_measure(d, alpha, m, box_side)
    vol = box_side ** (d - 1)
    p = refs[key] / vol
    se = vol * math.sqrt(p * (1.0 - p) / samples)
    return abs(estimate - refs[key]) <= SHELL_Z * se


class Standard:
    """The checks of the shipped default config at a fresh seed."""

    repeat_check = True
    # converse-scaling FAILs at 66 of the 1000 pass-0 config seeds of
    # workload seeds 1-1000 (residuals up to 45 against a 1e-6
    # tolerance), so it cannot be kept in a workload whose failures
    # must repeat exactly.
    left_out = ("converse-scaling",)

    def __init__(self):
        with open(HERE / "default.json", encoding="utf-8") as fh:
            self.base = json.load(fh)
        self.base["checks"] = [c for c in self.base["checks"]
                               if c["operation"] not in self.left_out]

    def make(self, rng: np.random.Generator, seed: int):
        return {**self.base, "seed": seed}, None

    def check(self, cfg: dict, inputs, report: dict | None) -> list[dict]:
        ops = registry_ops(cfg, report)
        for c, op in zip(cfg["checks"], ops):
            if "report" not in op:
                continue
            rep = op.pop("report")
            if c["operation"] == "psi-lower-bound" and c["d"] == 2:
                op["ok"] = op["ok"] and rep["estimate"] == 0.5
            elif c["operation"] == "sm-measure":
                op["later"] = ("shell", c["d"], c["alpha"], c["m"],
                               c.get("box_side", 10.0), c["mc_samples"],
                               rep["estimate"])
        return ops

    def verify(self, ops: list[dict]) -> None:
        refs: dict = {}
        for op in ops:
            if op.get("later"):
                _, d, alpha, m, side, n, est = op["later"]
                op["ok"] = op["ok"] and shell_within(d, alpha, m, side, n,
                                                     est, refs)


def _positive_poly(rng: np.random.Generator, d: int) -> list[float]:
    """phi = sum_j c_j t^(d+j)/(d+j)!, so phi^(d) = sum_j c_j t^j/j! > 0
    and every lower derivative is nonnegative on [0, inf)."""
    c = rng.uniform(0.5, 2.0, size=3)
    return [0.0] * d + [c[j] / math.factorial(d + j) for j in range(3)]


class HighD:
    """d = 4, 5 Jacobian, kernel and sigma checks plus direct sigma_ratio
    calls at small gaps and large t."""

    repeat_check = False
    dims = (4, 5)
    domain = [0.0, 12.0]
    # sigma_ratio points: a fixed set, the same in every run and pass, so
    # the operations that fail on them fail the same number of times.
    fault_seed = 0
    fault_points_per_d = 30

    def __init__(self):
        rng = np.random.default_rng(self.fault_seed)
        self.points = []
        for d in self.dims:
            for _ in range(self.fault_points_per_d):
                coeffs = _positive_poly(rng, d)
                h = 10.0 ** rng.uniform(-3.0, 0.0, size=d - 1)
                t = float(rng.uniform(0.0, 10.0))
                curve = SimpleCurve(d=d, phi=poly_oracle(
                    coeffs, domain=(0.0, 14.0)), label="fault-point")
                self.points.append((coeffs, d, t, h, curve))
        self.refs: dict[int, float] = {}

    def make(self, rng: np.random.Generator, seed: int):
        checks = []
        for d in self.dims:
            def curve():
                return {"kind": "poly-phi", "d": d, "domain": self.domain,
                        "coeffs": _positive_poly(rng, d)}
            checks += [
                {"operation": "jacobian-identity", "d": d,
                 "n_trials": 10 if d == 4 else 4},
                {"operation": "psi-lower-bound", "d": d, "n_samples": 200},
                {"operation": "monomial-closed-form", "d_max": d},
                {"operation": "estimate-sigma", "curve": curve(),
                 "n_samples": 200},
                {"operation": "offspring-closure", "curve": curve(),
                 "h": rng.uniform(0.1, 0.5, size=d - 1).tolist(),
                 "n_samples": 100},
                {"operation": "weight-product-bound", "curve": curve(),
                 "n_samples": 100},
            ]
        return {"seed": seed, "checks": checks}, None

    def check(self, cfg: dict, inputs, report: dict | None) -> list[dict]:
        ops = registry_ops(cfg, report)
        for op in ops:
            op.pop("report", None)
        for i, (_, _, t, h, curve) in enumerate(self.points):
            ops.append(direct("sigma_ratio",
                              lambda: jacobian.sigma_ratio(curve, t, h),
                              later=("sigma", i)))
        return ops

    def verify(self, ops: list[dict]) -> None:
        for op in ops:
            if not op.get("later"):
                continue
            i = op["later"][1]
            if i not in self.refs:
                coeffs, d, t, h, _ = self.points[i]
                self.refs[i] = reference.sigma_ratio_mp(coeffs, d, t, h)
            ref = self.refs[i]
            op["ok"] = op["ok"] and abs(op["value"] - ref) <= (
                MP_REL_TOL * abs(ref))


class Flat:
    """The flat-family sweep as registry checks, plus direct derivative
    calls on the flattened members."""

    repeat_check = False
    d = 3
    n_points = 2

    def make(self, rng: np.random.Generator, seed: int):
        # scripts/flat_family_sweep.py runs beta = d + 1; a narrow band
        # above it gives every pass its own curve at about the same cost
        beta = float(rng.uniform(4.0, 4.1))
        base = {"kind": "monomial", "beta": beta, "d": self.d,
                "domain": [0.0, 1.0]}
        members = [base] + [{"kind": "flatten", "base": base, "steps": s,
                             "d": self.d, "domain": [0.0, 1.0]}
                            for s in (1, 2)]

        def center():
            return rng.uniform(-0.5, 0.5, size=self.d).tolist()

        # the script's three test functions, with fresh centres
        tests = [
            {"kind": "Gaussian", "sigma": 1.0, "center": center()},
            {"kind": "Gaussian", "sigma": 0.7, "center": center()},
            {"kind": "ModulatedGaussian", "sigma": 1.2, "center": center(),
             "freq": [2.0] + [0.0] * (self.d - 1)},
        ]
        cfg = {
            "seed": seed,
            "checks": [
                {"operation": "empirical-ratio", "P": 1.125, "weighted": True,
                 "curves": members, "tests": tests,
                 "t_grid": {"a": 1e-4, "b": 1.0, "n": 1500}},
                {"operation": "estimate-alpha-B", "alpha": 1.0 / 6.0,
                 "center_t": float(rng.uniform(0.3, 0.7)), "side0": 1.0,
                 "count": 2, "curve": members[1]},
                {"operation": "check-phicond", "alpha": 1.0 / 6.0,
                 "grid_size": 64, "curve": members[1]},
            ],
        }
        return cfg, np.sort(rng.uniform(0.3, 0.95, size=self.n_points))

    def check(self, cfg: dict, pts, report: dict | None) -> list[dict]:
        ops = registry_ops(cfg, report)
        for op in ops:
            rep = op.pop("report", None)
            if rep is None:
                continue
            if op["op"] == "empirical-ratio":
                maxima = rep["witnesses"][0]["per_curve_max"]
                op["ok"] = op["ok"] and all(
                    math.isfinite(r) and r > 0 for r in maxima)
            elif op["op"] == "estimate-alpha-B":
                lam = [s["lambda"] for s in rep["series"]]
                op["ok"] = op["ok"] and all(
                    b <= a for a, b in zip(lam, lam[1:])) and max(lam) <= 1.0
        members = cfg["checks"][0]["curves"]
        beta = members[0]["beta"]
        for spec in members[1:]:
            steps = spec["steps"]
            curve = direct("DerivativeOracle", lambda: curve_from_spec(spec))
            if not curve["ok"]:
                ops += [dict(curve) for _ in range(self.d + 1)]
                continue
            phi = curve["value"].phi
            top = direct("DerivativeOracle", lambda: phi(pts, self.d))
            if top["ok"]:
                want = reference.flattened_top_closed_form(beta, steps, pts)
                top["ok"] = bool(np.all(
                    np.abs(top["value"] - want) <= 1e-12 * np.abs(want)))
            ops.append(top)
            for k in range(self.d):
                ops.append(direct("DerivativeOracle",
                                  lambda: phi(pts, k),
                                  later=("flat", beta, steps, k,
                                         pts.tolist())))
        return ops

    def verify(self, ops: list[dict]) -> None:
        for op in ops:
            if not op.get("later"):
                continue
            _, beta, steps, k, pts = op["later"]
            ref = np.array([reference.flattened_derivative_mp(
                beta, steps, k, t, d=self.d) for t in pts])
            op["ok"] = op["ok"] and bool(np.all(
                np.abs(op["value"] - ref) <= MP_REL_TOL * np.abs(ref)))


class Shells:
    """sm-scaling over five dyadic K-shells at d = 3 and d = 4."""

    repeat_check = False
    samples = 2_000_000

    def make(self, rng: np.random.Generator, seed: int):
        return {"seed": seed, "checks": [
            {"operation": "sm-scaling", "d": d, "alpha": 2.0 / (d * (d + 1)),
             "m_max": 4, "mc_samples": self.samples} for d in (3, 4)]}, None

    def check(self, cfg: dict, inputs, report: dict | None) -> list[dict]:
        ops = registry_ops(cfg, report)
        for c, op in zip(cfg["checks"], ops):
            rep = op.pop("report", None)
            if rep is not None:
                op["later"] = ("shells", c["d"], c["alpha"],
                               [s["measure"] for s in rep["series"]])
        return ops

    def verify(self, ops: list[dict]) -> None:
        refs: dict = {}
        for op in ops:
            if op.get("later"):
                _, d, alpha, measures = op["later"]
                op["ok"] = op["ok"] and all(
                    shell_within(d, alpha, m, 10.0, self.samples, est, refs)
                    for m, est in enumerate(measures))


WORKLOADS = {"standard": Standard, "high-d": HighD, "flat": Flat,
             "shells": Shells}
