import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from restriction_lab.conditions import build_flattened
from restriction_lab.curves import (DerivativeOracle, HomogeneousCurve,
                                    SimpleCurve, affine_weight, poly_oracle)
from restriction_lab.geometry import Parallelepiped, cube
from restriction_lab.probe import (TEST, TestFunction, _trapezoid_weights,
                                   check_dilation_invariance,
                                   converse_scaling_check, empirical_ratio,
                                   extension, homogeneous_rescale_check,
                                   lq_norm, restrict)
from restriction_lab.quadrature import QuadratureError
from restriction_lab.registry import run_check
from restriction_lab.report import ConfigError, DomainError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


@pytest.fixture
def parabola():
    return SimpleCurve(d=2, phi=poly_oracle([0, 0, 0.5], domain=(0.0, 2.0)),
                       label="parabola")


def _lattice_fourier(g, xi, half, n=800):
    """Brute-force transform on a midpoint lattice, one xi at a time.

    Midpoint sampling keeps box-bump edges between samples so the
    indicator boundary error cancels.
    """
    h = 2.0 * half / n
    axes = [-half + h * (np.arange(n) + 0.5)] * g.dim
    step = h ** g.dim
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g.dim)
    return np.sum(g(X) * np.exp(-1j * (X @ np.asarray(xi)))) * step


def test_gaussian_fourier_matches_lattice():
    g = TestFunction.gaussian([0.3, -0.1], [0.7, 0.5], amp=1.3)
    for xi in ([0.0, 0.0], [1.5, -0.8]):
        num = _lattice_fourier(g, xi, half=6.0)
        assert g.fourier(np.asarray(xi)) == pytest.approx(num, rel=1e-6)


def test_box_bump_fourier_matches_lattice():
    # frozen against the lattice route; sinc zeros are the sharp part
    g = TestFunction.box_bump([0.2, 0.0], [1.0, 2.0])
    for xi in ([0.0, 0.0], [2.0, 1.0], [2 * np.pi, 0.5]):
        num = _lattice_fourier(g, xi, half=2.0, n=2000)
        assert abs(g.fourier(np.asarray(xi)) - num) <= 1e-4


def test_modulated_fourier_is_shifted_gaussian():
    base = TestFunction.gaussian([0.4], [0.9])
    mod = TestFunction.modulated([0.4], [0.9], [2.5])
    xi = np.linspace(-4, 4, 17)[:, None]
    assert np.allclose(mod.fourier(xi), base.fourier(xi - 2.5))


def test_lp_norm_closed_forms():
    g = TestFunction.gaussian([0.0, 0.0], [1.0, 2.0], amp=3.0)
    # L^2 of amp*exp(-|x|^2/2 sigma^2) is amp (pi sigma^2)^{1/4} per axis
    assert g.lp_norm(2.0) == pytest.approx(
        3.0 * (np.pi * 1.0) ** 0.25 * (np.pi * 4.0) ** 0.25)
    b = TestFunction.box_bump([0.0], [2.0], amp=0.5)
    assert b.lp_norm(4.0) == pytest.approx(0.5 * 2.0 ** 0.25)
    with pytest.raises(ConfigError):
        g.lp_norm(0.0)


def test_from_spec_round_trip_and_validation():
    g = TEST.build({"kind": "Gaussian", "center": [0, 0],
                                "sigma": 1.0, "amp": 2.0})
    assert g(np.zeros(2)) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        TEST.build({"kind": "Triangle", "center": [0]})


_G2 = {"kind": "Gaussian", "center": [0.0, 0.0], "sigma": 1.0}


@pytest.mark.parametrize("spec, message", [
    # sigma NaN or 0 once wrote a NaN estimate, "x" leaked a ValueError,
    # -1 PASSed, and a list of the wrong length leaked numpy's broadcast
    # ValueError
    ({**_G2, "sigma": math.nan}, "'sigma' must be a finite number"),
    ({**_G2, "sigma": 0}, "'sigma' must exceed 0"),
    ({**_G2, "sigma": "x"}, "'sigma' must be a finite number"),
    ({**_G2, "sigma": -1}, "'sigma' must exceed 0"),
    ({**_G2, "sigma": [1.0, 1.0, 1.0]},
     "'sigma' needs one entry per axis of the center, 2, got 3"),
    ({"kind": "BoxBump", "center": [0.0, 0.0], "sides": [1.0]},
     "'sides' needs one entry per axis of the center, 2, got 1"),
    ({**_G2, "kind": "ModulatedGaussian", "freq": [1.0, math.inf]},
     r"'freq\[1\]' must be a finite number"),
    ({**_G2, "center": [0.0, None]}, r"'center\[1\]' must be a finite"),
    ({**_G2, "amp": True}, "'amp' must be a finite number"),
    ({"kind": "Gaussian", "center": [0.0]},
     "test function 'Gaussian': missing required key 'sigma'"),
])
def test_test_function_numbers_are_parsed(spec, message):
    with pytest.raises(ConfigError, match=message):
        TEST.build(spec)


def test_restrict_evaluates_fourier_on_curve():
    cubic = SimpleCurve(d=2, phi=poly_oracle([0, 0, 0, 1.0],
                                             domain=(0.1, 1.0)),
                        label="cubic")
    g = TestFunction.gaussian([0.0, 0.0], [1.0, 1.0])
    ts = np.linspace(0.1, 1.0, 33)
    w, (vals,) = restrict([g], cubic, ts)
    pts = np.stack([ts, ts ** 3], axis=-1)
    assert np.allclose(vals, g.fourier(pts))
    assert np.array_equal(w, _trapezoid_weights(ts))
    # weighted measure carries w(t) = (6t)^{1/3}
    ww, _ = restrict([g], cubic, ts, weighted=True)
    mid = len(w) // 2
    assert ww[mid] == pytest.approx(w[mid] * (6 * ts[mid]) ** (1 / 3))


def test_lq_norm_is_the_weighted_power_sum():
    w = np.array([0.5, 0.25, 0.25])
    v = np.array([1.0, -2.0j, 2.0])
    assert lq_norm(w, v, 2.0) == pytest.approx(math.sqrt(2.5))
    assert lq_norm(w, v, 1.0) == pytest.approx(1.5)


def test_extension_constant_zero_frequency(parabola):
    val = extension(lambda t: np.ones_like(t), parabola, "off",
                    np.zeros(2), lam=1.0)
    assert val == pytest.approx(2.0)  # the domain length


def test_extension_linearity_and_bound(parabola):
    x = np.array([1.5, -2.0])
    f1 = lambda t: np.exp(-t)
    f2 = lambda t: t ** 2
    v1 = extension(f1, parabola, "on", x, lam=3.0)
    v2 = extension(f2, parabola, "on", x, lam=3.0)
    v12 = extension(lambda t: f1(t) + 2 * f2(t), parabola, "on", x, lam=3.0)
    assert v12 == pytest.approx(v1 + 2 * v2, rel=1e-12)
    # |T f| <= int |f| w dt, and w = 1 for the parabola
    bound = extension(f1, parabola, "on", np.zeros(2), lam=1.0).real
    assert abs(v1) <= bound + 1e-12


def test_extension_conjugate_symmetry(parabola):
    x = np.array([0.7, 1.1])
    plus = extension(lambda t: np.cos(t), parabola, "off", x, lam=2.0)
    minus = extension(lambda t: np.cos(t), parabola, "off", -x, lam=2.0)
    assert minus == pytest.approx(np.conj(plus), rel=1e-12)


def test_extension_matches_fine_trapezoid(parabola):
    x = np.array([3.0, 2.0])
    f = lambda t: np.exp(-t ** 2)
    val = extension(f, parabola, "off", x, lam=5.0)
    ts = np.linspace(0.0, 2.0, 200_001)
    phase = 5.0 * (x[0] * ts + x[1] * ts ** 2 / 2)
    ref = np.trapezoid(f(ts) * np.exp(-1j * phase), ts)
    assert val == pytest.approx(ref, rel=1e-5)


def test_extension_budget_and_validation(parabola):
    with pytest.raises(QuadratureError):
        extension(lambda t: np.ones_like(t), parabola, "off",
                  np.array([1e6, 1e6]), lam=100.0, max_panels=50)
    with pytest.raises(ConfigError):
        extension(lambda t: t, parabola, "maybe", np.zeros(2))
    with pytest.raises(ConfigError):
        extension(lambda t: t, parabola, "off", np.zeros(2), lam=0.5)


def test_empirical_ratio_is_finite_and_annotated(moment_curve_3,
                                                 quartic_curve):
    fam = [TestFunction.gaussian([0, 0, 0], s) for s in (0.5, 1.0, 2.0)]
    rep = empirical_ratio([moment_curve_3, quartic_curve], 9 / 8, 1.5,
                          True, fam, np.linspace(0.05, 0.95, 201))
    assert rep.passed
    assert math.isfinite(rep.estimate) and rep.estimate > 0
    assert rep.witnesses[0]["spread"] >= 1.0
    assert any("exploratory" in n for n in rep.notes)
    with pytest.raises(ConfigError, match="'curves' must be a nonempty list"):
        run_check({"operation": "empirical-ratio", "curves": [], "P": 9 / 8,
                   "tests": [{"kind": "Gaussian", "center": [0, 0, 0],
                              "sigma": 0.5}]}, 1)


def _flat_family(quartic_curve):
    """t^4 and its one- and two-step exp flattenings (d = 3)."""
    family = [quartic_curve]
    for _ in range(2):
        family.append(build_flattened(family[-1], "exp"))
    return family


# the test functions of configs/flat.json's empirical-ratio
SWEEP_TESTS = [
    TestFunction.gaussian([0.1, 0.0, -0.2], 1.0),
    TestFunction.gaussian([0.5, 0.0, 0.0], 0.7),
    TestFunction.modulated([0.0, 0.0, 0.0], 1.2, [2.0, 0.0, 0.0]),
]


def _restrict_alone(g, curve, ts, weighted):
    """One test function's weights and g_hat values, the curve swept for
    it alone."""
    pts = curve.jet(ts)
    vals = g.fourier(pts)
    w = _trapezoid_weights(ts)
    if weighted:
        w = w * affine_weight(curve, ts)
    keep = w > 0
    return w[keep], vals[keep]


def _counting(curve, calls):
    """The curve with an oracle that counts its calls by order in
    ``calls``."""
    phi = curve.phi

    def fn(t, k):
        calls[k] += 1
        return phi.fn(t, k)

    return SimpleCurve(d=curve.d, phi=DerivativeOracle(
        domain=phi.domain, fn=fn), label=curve.label)


@pytest.mark.parametrize("weighted", [True, False])
def test_empirical_ratio_equals_per_test_restriction(quartic_curve,
                                                     weighted):
    family = _flat_family(quartic_curve)
    ts = np.linspace(1e-4, 1.0, 301)
    P, Q = 9 / 8, 1.5
    rep = empirical_ratio(family, P, Q, weighted, SWEEP_TESTS, ts)
    ratios = [lq_norm(*_restrict_alone(g, curve, ts, weighted), Q)
              / g.lp_norm(P) for curve in family for g in SWEEP_TESTS]
    assert [row["ratio"] for row in rep.series] == ratios
    assert rep.witnesses[0]["per_curve_max"] == [
        max(ratios[i:i + 3]) for i in (0, 3, 6)]


@pytest.mark.parametrize("weighted", [True, False])
def test_empirical_ratio_sweeps_each_curve_once(quartic_curve, weighted):
    calls = [Counter() for _ in range(3)]
    family = [_counting(c, n)
              for c, n in zip(_flat_family(quartic_curve), calls)]
    empirical_ratio(family, 9 / 8, 1.5, weighted, SWEEP_TESTS,
                    np.linspace(1e-4, 1.0, 301))
    # one order-0 call for the points and, when weighted, one order-d
    # call for the affine weight, however many test functions there are
    want = {0: 1, 3: 1} if weighted else {0: 1}
    assert [dict(c) for c in calls] == [want] * 3


_HOMOGENEOUS = {"kind": "homogeneous", "exponents": [1.0, 2.0, 3.0]}


def _ratio_on_homogeneous(a, b):
    return {"operation": "empirical-ratio", "P": 9 / 8, "weighted": True,
            "curves": [_HOMOGENEOUS], "t_grid": {"a": a, "b": b, "n": 101},
            "tests": [{"kind": "Gaussian", "center": [0.1, 0.0, -0.2],
                       "sigma": 1.0}]}


def test_weighted_ratio_on_a_homogeneous_curve_keeps_t_0():
    # the column of t in gamma'' and those of t and t^2 in gamma''' are 0,
    # so the weight at t = 0 is finite and that point is kept
    rep = run_check(_ratio_on_homogeneous(0.0, 1.0), 1)
    ts = np.linspace(0.0, 1.0, 101)
    curve = HomogeneousCurve(exponents=(1.0, 2.0, 3.0))
    w, _ = restrict([], curve, ts, weighted=True)
    assert len(w) == 101 and w[0] == pytest.approx(
        ts[1] / 2 * 12.0 ** (1 / 6), rel=1e-12)
    assert rep.passed and math.isfinite(rep.estimate)


def test_ratio_on_a_homogeneous_curve_refuses_a_t_beyond_its_domain():
    # t = 3 lies outside the curve's default domain [0, 1]
    with pytest.raises(DomainError, match="outside domain"):
        run_check(_ratio_on_homogeneous(0.1, 3.0), 1)


def test_homogeneous_curve_on_negative_t_is_a_config_error():
    # t^0.5 has no real value at t < 0
    with pytest.raises(ConfigError, match=r"must lie in \[0, inf\)"):
        run_check({"operation": "estimate-alpha-B", "alpha": 1 / 6,
                   "center_t": 0.5, "count": 3,
                   "curve": {"kind": "homogeneous",
                             "exponents": [0.5, 1.0, 2.0],
                             "domain": [-1.0, 1.0]}}, 1)


def test_dilation_invariance_at_pairing_exponents():
    # d = 2 pairing: 1/Q = 3 (1 - 1/P); P = 6/5 gives Q = 2
    g = TestFunction.gaussian([0.0, 0.0], [1.0, 1.5])
    rep = check_dilation_invariance(2, 6 / 5, 2.0, g, octaves=3)
    assert rep.passed, rep.estimate
    # off the scaling line the ratio drifts by design
    off = check_dilation_invariance(2, 6 / 5, 3.0, g, octaves=3)
    assert off.estimate > rep.estimate


def test_homogeneous_rescale_identity():
    curve = HomogeneousCurve(exponents=(1.0, 2.0, 3.0))
    g = TestFunction.gaussian([0.0, 0.0, 0.0], [1.0, 0.8, 1.2])
    for k in (0, 1, 3):
        rep = homogeneous_rescale_check(curve, k, g, 7 / 6)
        assert rep.passed, rep.estimate
    with pytest.raises(ConfigError, match=r"'k_list\[0\]' must be at least 0"):
        run_check({"operation": "homogeneous-rescale",
                   "exponents": [1.0, 2.0, 3.0], "k_list": [-1],
                   "g": {"kind": "Gaussian", "center": [0.0, 0.0, 0.0],
                         "sigma": [1.0, 0.8, 1.2]}}, 1)


# on the curve (t^-2, t) with a Gaussian g, k = 100, 200 and 255 once
# PASSed with lhs = rhs = 0.0, k = 256 and 300 warned "overflow
# encountered in square" in TestFunction.fourier, and k = 600 and 1021
# "overflow encountered in power" in HomogeneousCurve.jet.  At k = 255,
# gamma_1^2 = t^-4 overflows at the left end of I_k
@pytest.mark.parametrize("k,why", [
    (100, "norms"), (200, "norms"), (255, "overflows"),
    (256, "overflows"), (300, "overflows"), (600, "overflows"),
    (1021, "overflows")])
def test_homogeneous_rescale_refuses_a_k_the_doubles_cannot_test(k, why):
    check = {"operation": "homogeneous-rescale", "exponents": [-2.0, 1.0],
             "g": {"kind": "Gaussian", "sigma": 1.0, "center": [0.0, 0.0]},
             "k_list": [k]}
    with pytest.raises(DomainError, match=rf"({why}).* k = {k}\b"):
        run_check(check, 1)
    # the k where both norms are still normal doubles are tested as before
    rep = run_check({**check, "k_list": [0, 1, 2]}, 1)
    assert rep.passed and rep.witnesses[0]["lhs"] > 1e-300


def test_converse_scaling_unit_cube():
    E = cube([0.5, 0.5], 1.0)
    f = TestFunction.gaussian([0.0, 0.0], [1.0, 1.0])
    rep = converse_scaling_check(E, f, 6 / 5, 2.0, 1 / 3)
    assert rep.passed, rep.estimate
    assert rep.witnesses[0]["m_d"] == pytest.approx(1.0)


def test_converse_scaling_skewed_box():
    E = Parallelepiped.of([0.2, -0.1], [[1.5, 0.3], [0.0, 0.7]])
    f = TestFunction.gaussian([0.0, 0.0], [0.8, 1.1])
    rep = converse_scaling_check(E, f, 6 / 5, 2.0, 1 / 3)
    assert rep.passed, rep.estimate


def test_converse_scaling_ill_conditioned_edges():
    # at this seed the default config draws an edge matrix of condition
    # number ~1.1e3; an axis-aligned y-lattice missed its thin preimage
    # strip (residual 45 against the 1e-6 tolerance)
    with open(CONFIGS / "default.json", encoding="utf-8") as fh:
        checks = json.load(fh)["checks"]
    (params,) = [c for c in checks if c["operation"] == "converse-scaling"]
    rep = run_check(params, 2678705976)
    assert rep.passed, rep.estimate
    assert rep.estimate <= 1e-12


def test_converse_scaling_witness_reproduces_residual():
    # the worst parallelepiped written to the report, fed back through
    # the check, gives the residual the report states
    with open(CONFIGS / "default.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    (params,) = [c for c in cfg["checks"]
                 if c["operation"] == "converse-scaling"]
    rep = run_check(params, cfg["seed"])
    (witness,) = json.loads(json.dumps(rep.witnesses))
    assert witness["residual"] == rep.estimate
    again = converse_scaling_check(
        Parallelepiped.of(witness["base"], witness["edges"]),
        TEST.build(params["f"]), rep.parameters["P"],
        params["Q"], params["alpha"])
    assert again.estimate == witness["residual"]


def test_converse_scaling_preconditions():
    E = cube([0.0, 0.0], 1.0)
    g = TestFunction.gaussian([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ConfigError):
        converse_scaling_check(E, g, 6 / 5, 2.0, 0.25)  # 1/P' != alpha/Q
    with pytest.raises(ConfigError):
        converse_scaling_check(E, TestFunction.box_bump([0, 0], [1, 1]),
                               6 / 5, 2.0, 1 / 3)
    with pytest.raises(ConfigError):
        converse_scaling_check(E, TestFunction.gaussian([0.0], [1.0]),
                               6 / 5, 2.0, 1 / 3)
