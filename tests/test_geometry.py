import json
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restriction_lab import geometry
from restriction_lab.conditions import build_flattened
from restriction_lab.curves import SimpleCurve, poly_oracle
from restriction_lab.geometry import (_COARSE, _SM_BLOCK, K_of,
                                      K_u_geometry, Parallelepiped,
                                      _K_cols, _shell_counts,
                                      check_J_geq_K, cube,
                                      estimate_alpha_B, lambda_measure,
                                      lemma1_chain, lemma1_conclusion,
                                      shrink_family, sm_measure, sm_shells,
                                      u_of)
from restriction_lab.quadrature import QuadratureError
from restriction_lab.registry import run_check
from restriction_lab.report import ConfigError, DomainError, worst_index
from test_jacobian import SWEEP_CURVES, _ref_jacobian_integral


@pytest.fixture
def parabola():
    return SimpleCurve(d=2, phi=poly_oracle([0, 0, 0.5], domain=(0.0, 2.0)),
                       label="parabola")


def test_parallelepiped_basics():
    E = Parallelepiped.of([1.0, 0.0], [[2.0, 0.0], [1.0, 1.0]])
    assert E.volume == pytest.approx(2.0)
    assert E.contains([2.0, 0.5])
    assert not E.contains([0.5, 0.5])
    with pytest.raises(ConfigError):
        Parallelepiped.of([0, 0], [[1, 0], [2, 0]])


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(-3, 3).filter(lambda c: abs(c) > 1e-3),
       jitter_seed=st.integers(0, 10 ** 6))
def test_volume_under_permutation_and_scaling(scale, jitter_seed):
    rng = np.random.default_rng(jitter_seed)
    edges = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    E = Parallelepiped.of(np.zeros(3), edges)
    perm = Parallelepiped.of(np.zeros(3), edges[[2, 0, 1]])
    assert perm.volume == pytest.approx(E.volume, rel=1e-12)
    scaled_edges = edges.copy()
    scaled_edges[1] *= scale
    scaled = Parallelepiped.of(np.zeros(3), scaled_edges)
    assert scaled.volume == pytest.approx(abs(scale) * E.volume, rel=1e-12)


def test_lambda_measure_examples(parabola):
    # analytic: t <= 1 and t^2/2 <= 1 intersect in t in [0, 1]
    assert lambda_measure(parabola, [
        Parallelepiped.of([0, 0], np.eye(2)), cube([1.0, 1.0], 10.0),
        cube([50.0, 50.0], 1.0)]) == [pytest.approx(1.0, abs=1e-7), 2.0, 0.0]


def test_lambda_measure_is_a_python_float(parabola):
    lam, = lambda_measure(parabola, [cube([1.0, 0.5], 0.5)])
    assert type(lam) is float and lam > 0


def test_lambda_measure_additive_and_monotone(parabola):
    left = Parallelepiped.of([0, -1], [[0.5, 0], [0, 4]])
    right = Parallelepiped.of([0.5, -1], [[0.5, 0], [0, 4]])
    both = Parallelepiped.of([0, -1], [[1.0, 0], [0, 4]])
    lam_l, lam_r, lam_b = lambda_measure(parabola, [left, right, both])
    assert lam_l + lam_r == pytest.approx(lam_b, abs=1e-6)
    assert lam_l <= lam_b + 1e-12


def _occupation_one_at_a_time(curve, E, tol, ts, pts):
    """The occupation measure with each crossing bisected on its own,
    one curve point per step."""
    inside = np.asarray(E.contains(pts))
    flips = np.nonzero(inside[:-1] != inside[1:])[0]
    width_target = tol / max(1, len(flips))

    def bisect(lo, hi, lo_in):
        while hi - lo > width_target:
            mid = 0.5 * (lo + hi)
            point = curve.jet(np.array([mid]))[0]
            if bool(E.contains(point)) == lo_in:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    crossings = [bisect(ts[i], ts[i + 1], inside[i]) for i in flips]
    edges = [ts[0]] + crossings + [ts[-1]]
    total = 0.0
    state = bool(inside[0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        if state:
            total += hi - lo
        state = not state
    return float(total)


def _chord_strip(t0, t1, half_width, d):
    """A box around the chord of (t, t^2/2) from t0 to t1, thin in the
    second coordinate and tall in the others: every simple curve dips
    through it between t0 and t1, so it crosses the box four times."""
    slope = (t1 + t0) / 2.0
    offset = t0 * t0 / 2.0 - slope * t0
    edges = 10.0 * np.eye(d)
    edges[0, :2] = [2.0 * t1, 2.0 * t1 * slope]
    edges[1, :2] = [0.0, 2.0 * half_width]
    base = np.full(d, -5.0)
    base[:2] = [0.0, offset - half_width]
    return Parallelepiped.of(base, edges)


@pytest.mark.parametrize("name", ["parabola", "quartic", "flat-quartic"])
def test_batched_bisection_equals_one_at_a_time(name, parabola,
                                                quartic_curve, monkeypatch):
    if name == "flat-quartic":
        curve = build_flattened(quartic_curve, "exp")
    else:
        curve = {"parabola": parabola, "quartic": quartic_curve}[name]
    a, b = curve.domain
    d = curve.d
    ts = np.linspace(a, b, _COARSE + 1)
    pts = curve.jet(ts)
    boxes = {0: [cube(np.full(d, 50.0), 1.0), cube(np.zeros(d), 100.0)],
             1: [cube(np.zeros(d), b)],
             4: [_chord_strip(0.25 * b, 0.75 * b, 0.01 * b * b, d)]}
    family = [E for fam in boxes.values() for E in fam]
    for crossings, fam in boxes.items():
        for E in fam:
            inside = np.asarray(E.contains(pts))
            assert np.count_nonzero(inside[:-1] != inside[1:]) == crossings
    for tol in (1e-8, 1e-13):
        monkeypatch.setattr(geometry, "_TOL", tol)
        ref = [_occupation_one_at_a_time(curve, E, tol, ts, pts)
               for E in family]
        assert [lambda_measure(curve, [E])[0] for E in family] == ref
        assert lambda_measure(curve, family) == ref


def _occupation_per_box(curve, E, tol, ts, pts):
    """The occupation measure of one box, its crossings bisected together
    with one curve evaluation and one ``contains`` a step: the per-box
    loop that the family-wide bisection replaced."""
    inside = np.asarray(E.contains(pts))
    flips = np.nonzero(inside[:-1] != inside[1:])[0]
    width_target = tol / max(1, len(flips))
    lo, hi, lo_in = ts[flips], ts[flips + 1], inside[flips]
    active = np.flatnonzero(hi - lo > width_target)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        to_lo = E.contains(curve.jet(mid)) == lo_in[active]
        lo[active[to_lo]] = mid[to_lo]
        hi[active[~to_lo]] = mid[~to_lo]
        active = active[hi[active] - lo[active] > width_target]
    crossings = list(0.5 * (lo + hi))
    edges = [ts[0]] + crossings + [ts[-1]]
    total = 0.0
    state = bool(inside[0])
    for start, end in zip(edges[:-1], edges[1:]):
        if state:
            total += end - start
        state = not state
    return float(total)


def _skew_boxes(curve, rng, count):
    """Boxes with random skew edges near points of the curve."""
    d = curve.d
    a, b = curve.domain
    out = []
    for _ in range(count):
        center = curve.jet(np.array([rng.uniform(a, b)]))[0]
        edges = rng.uniform(0.05, 0.8) * (np.eye(d)
                                          + 0.4 * rng.normal(size=(d, d)))
        out.append(Parallelepiped.of(
            center - 0.5 * edges.sum(axis=0) + 0.05 * rng.normal(size=d),
            edges))
    return out


@pytest.mark.parametrize("name", ["quartic", "poly-phi", "flat-quartic"])
def test_lambda_measures_equal_the_per_box_loop(name, quartic_curve):
    curve = {"quartic": quartic_curve,
             "poly-phi": SimpleCurve(d=4, phi=poly_oracle(
                 [0, 0, 0, 0, 0.5, 0.2, 0.1], domain=(-1.0, 1.5)),
                 label="poly-phi"),
             "flat-quartic": build_flattened(quartic_curve, "exp")}[name]
    a, b = curve.domain
    d = curve.d
    ts = np.linspace(a, b, _COARSE + 1)
    pts = curve.jet(ts)
    rng = np.random.default_rng(20)
    center = curve.jet(np.array([0.5 * (a + b)]))[0]
    family = (shrink_family(center, 1.0, 6) + _skew_boxes(curve, rng, 12)
              + [cube(np.full(d, 50.0), 1.0), cube(np.zeros(d), 100.0),
                 _chord_strip(0.25 * b, 0.75 * b, 0.01 * b * b, d)])
    counts = [int(np.count_nonzero(np.diff(np.asarray(E.contains(pts)))))
              for E in family]
    # boxes the curve misses, enters once, and crosses several times
    assert {0, 1} <= set(counts) and max(counts) >= 4
    ref = [_occupation_per_box(curve, E, geometry._TOL, ts, pts)
           for E in family]
    assert [repr(x) for x in lambda_measure(curve, family)] == [
        repr(x) for x in ref]


def test_estimate_alpha_B_makes_one_curve_call_a_bisection_step(
        monkeypatch):
    # the default config's family: one jet call for its centre, one for
    # the coarse scan and one per bisection step of all five boxes
    # together, where one call per box and step made 81
    desc = {"operation": "estimate-alpha-B", "alpha": 1 / 6,
            "center_t": 0.5, "side0": 1.0, "count": 5,
            "curve": {"kind": "monomial", "beta": 4.0, "d": 3,
                      "domain": [0.0, 1.0]}}
    calls = {"jet": 0, "contains": 0}
    jet, contains = SimpleCurve.jet, Parallelepiped.contains

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SimpleCurve, "jet", counted("jet", jet))
    monkeypatch.setattr(Parallelepiped, "contains",
                        counted("contains", contains))
    rep = run_check(desc, 1)
    assert rep.passed
    assert calls["jet"] <= 20
    assert calls["contains"] == 5


def test_estimate_alpha_B_trivial(parabola):
    big = cube([1.0, 1.0], 8.0)
    rep = estimate_alpha_B(parabola, [big], 0.25)
    assert rep.estimate == pytest.approx(2.0 / big.volume ** 0.25)
    with pytest.raises(ConfigError):
        estimate_alpha_B(parabola, [], 0.25)


def test_estimate_alpha_B_series_equals_lambda_measure(quartic_curve):
    fam = shrink_family(np.array([0.5, 0.125, 0.0625]), 1.0, 5)
    rep = estimate_alpha_B(quartic_curve, fam, 1 / 6)
    assert [s["lambda"] for s in rep.series] == [
        lambda_measure(quartic_curve, [E])[0] for E in fam]


def test_shrinking_cubes_measure_scales_as_the_volume_to_the_1_over_d(
        quartic_curve):
    # at t = 0.5 the curve is nondegenerate and crosses each cube along
    # one axis: lambda ~ m_d^(1/d)
    fam = shrink_family(quartic_curve.jet(np.array([0.5]))[0], 1.0, 8)
    rep = estimate_alpha_B(quartic_curve, fam, 1 / 6)
    lam = [s["lambda"] for s in rep.series]
    assert len(lam) == 8 and all(0 < b < a for a, b in zip(lam, lam[1:]))
    logs = np.log([[s["m_d"], s["lambda"]] for s in rep.series])
    slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
    assert abs(slope - 1 / 3) <= 0.02


def test_lemma1_chain_quartic(quartic_curve):
    chain, rep = lemma1_chain(quartic_curve, 0.2, 0.1, n_samples=500)
    assert rep.passed, rep.notes
    assert len(chain) == 2
    # exact recursion m_3 = h^3 m_2
    assert chain[1].volume == pytest.approx(0.1 ** 3 * chain[0].volume,
                                            rel=1e-12)


def test_lemma1_chain_degenerate_chord(parabola):
    # phi^(d-2) = phi(t) = t^2/2 has linear derivative... for d=2 the
    # relevant phi^(0) is quadratic; use a curve with zero top curvature
    flatline = SimpleCurve(d=3, phi=poly_oracle([0, 0, 0.5],
                                                domain=(0.0, 1.0)),
                           label="zero-torsion")
    chain, rep = lemma1_chain(flatline, 0.2, 0.1)
    assert rep.passed
    assert rep.witnesses[0]["rho"] == pytest.approx(0.0, abs=1e-15)
    assert any("degenerate" in n for n in rep.notes)


def test_lemma1_conclusion(quartic_curve):
    fam = shrink_family(
        np.array([0.5, 0.125, 0.0625]), 1.0, 5)
    B = estimate_alpha_B(quartic_curve, fam, 1 / 6).estimate
    rep = lemma1_conclusion(quartic_curve, [(0.1, 0.3), (0.3, 0.6)],
                            1 / 6, B)
    assert rep.passed, rep.notes


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_lemma1_conclusion_on_a_collapsed_chord_band_skips_the_cross_check(
        beta):
    # phi = t^beta with beta in {0, 1} has phi'' = 0 at d = 3: the chain
    # ends at its planar base box, which was once handed to lambda_measure
    # on the 3-D curve (a broadcast ValueError)
    rep = run_check({"operation": "lemma1-conclusion", "alpha": 1 / 6,
                     "curve": {"kind": "monomial", "beta": beta, "d": 3,
                               "domain": [0.0, 1.0]}}, 1)
    (note,) = rep.notes
    assert "occupation cross-check skipped" in note
    # the margin verdict stands: phi'' has no gap to bound
    assert not rep.passed and rep.estimate < 0
    assert len(rep.witnesses) == 1
    json.dumps(rep.to_dict(), allow_nan=False)


def test_K_u_values_and_homogeneity():
    u, K, rep = K_u_geometry([1.0, 2.0], 1 / 6)
    assert u == pytest.approx(2.0)
    assert K == pytest.approx(2.0)  # 1/alpha = d(d+1)/2 makes K = u
    assert rep.passed
    assert u_of([1.0, 1.0]) == 0.0 and K_of([1.0, 1.0], 1 / 6) == 0.0


@settings(max_examples=30, deadline=None)
@given(h=st.lists(st.floats(0.01, 5.0), min_size=2, max_size=2),
       lam=st.floats(0.1, 20.0))
def test_K_homogeneity_property(h, lam):
    alpha = 1 / 7
    deg = 1 / alpha - 3
    K1 = K_of(np.asarray(h), alpha)
    K2 = K_of(lam * np.asarray(h), alpha)
    assert K2 == pytest.approx(lam ** deg * K1, rel=1e-10, abs=1e-12)


def test_sm_measure_d2_analytic():
    # d=2: u(h) = h and spread = h, so K(h) = h^{1/alpha - 2}
    alpha = 0.2
    c = 1 / alpha - 2
    for m in (0, 1):
        rep = sm_measure(2, alpha, m, mc_samples=400_000, seed=11)
        hi = 2.0 ** (-m / c)
        lo = 2.0 ** (-(m + 1) / c)
        # shell in h is (lo, hi], so its length is hi - lo
        assert rep.estimate == pytest.approx(hi - lo, rel=0.05)


def test_sm_measure_validation():
    with pytest.raises(ConfigError):
        sm_measure(3, 0.5, 0)
    with pytest.raises(ConfigError):
        sm_shells(3, 1 / 6, -1)
    with pytest.raises(ConfigError, match="d >= 2"):
        sm_shells(1, 0.5, 0)
    with pytest.raises(ConfigError):
        run_check({"operation": "sm-scaling", "d": 3, "alpha": 1 / 3,
                   "mc_samples": 10}, 1)
    # one shell gives no consecutive ratio to compare
    with pytest.raises(ConfigError, match="'m_max' must be at least 1"):
        run_check({"operation": "sm-scaling", "d": 3, "alpha": 1 / 6,
                   "m_max": 0, "mc_samples": 1000}, 1)


def test_sm_shells_refuses_an_alpha_whose_K_overflows():
    # at alpha = 1e-3, d = 3, K = u * spread^994 overflowed on the box
    # [0, 10]^2 and sm-scaling once PASSed on shells of K = inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError, match=r"alpha = 0\.001, d = 3"):
            run_check({"operation": "sm-scaling", "d": 3, "alpha": 1e-3,
                       "mc_samples": 1000}, 1)
        with pytest.raises(ConfigError, match=r"alpha = 0\.001, d = 4"):
            sm_shells(4, 1e-3, 2, mc_samples=1000)
        # 10 ** (313 - 6) is finite, but u reaches about 250 on the box:
        # K at h = (9.96, 4.98) is about 1e308.9.  The bound is 10 ** 310
        with pytest.raises(ConfigError, match=r"d = 3: 10\.0 \*\* 310 "):
            sm_shells(3, 1 / 313, 2, mc_samples=1000)
        assert sum(sm_shells(3, 1 / 6, 2, mc_samples=1000)[1]) > 0


def test_u_of_is_the_product_of_gap_differences(rng):
    for d in range(2, 7):
        for h in rng.uniform(0.0, 3.0, size=(400, d - 1)):
            hh = np.append(h, 0.0)
            ref = 1.0
            for i in range(d):
                for j in range(i + 1, d):
                    ref *= abs(hh[i] - hh[j])
            assert u_of(h) == ref


def _K_many(hs, alpha):
    """K of the gap vectors that are the rows of ``hs``, through
    ``_K_cols``."""
    n = hs.shape[0]
    return _K_cols(np.ascontiguousarray(hs.T, dtype=float), alpha,
                   np.empty(n), np.empty(n))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_K_many_matches_K_of_row_by_row(rng, d):
    hs = rng.uniform(0.0, 10.0, size=(400, d - 1))
    hs[:10] = 0.0                        # zero spread
    hs[10:20] = hs[10:20, :1]            # every gap repeated
    hs[20:30, -1] = hs[20:30, 0]         # first and last gap repeated
    hs[30:40] *= -1.0                    # negative rows
    for alpha in (2.0 / (d * (d + 1)), 0.5 / d, 0.9 / d):
        K = _K_many(hs, alpha)
        ref = np.array([K_of(h, alpha) for h in hs])
        assert np.array_equal(K == 0.0, ref == 0.0)
        if 1 / alpha == d * (d + 1) / 2:
            # the spread's exponent is 0, so K = u and no power rounds
            assert np.array_equal(K, ref)
        else:
            # the array power and the scalar one may round apart by an ulp
            np.testing.assert_allclose(K, ref, rtol=4 * np.finfo(float).eps,
                                       atol=0.0)


def _mask_hits(d, alpha, m_max, mc_samples, seed, box_side=10.0):
    """Per-shell hit counts by the mask of each shell, on the seeded
    stream drawn by rng.uniform in chunks of 500,000 rows: neither the
    block size nor the buffers of sm_shells."""
    rng = np.random.default_rng(seed)
    hits = [0] * (m_max + 1)
    remaining = mc_samples
    while remaining > 0:
        n = min(500_000, remaining)
        K = _K_many(rng.uniform(0.0, box_side, size=(n, d - 1)), alpha)
        for m in range(m_max + 1):
            hits[m] += int(np.count_nonzero((K > 2.0 ** (-m - 1))
                                            & (K <= 2.0 ** -m)))
        remaining -= n
    return hits


@pytest.mark.parametrize("d,alpha", [(3, 1 / 6), (4, 0.08)])
def test_sm_scaling_series_equals_separate_shells(d, alpha):
    n, seed, m_max = 600_001, 5, 4
    rep = run_check({"operation": "sm-scaling", "d": d, "alpha": alpha,
                     "m_max": m_max, "mc_samples": n}, seed)
    series = [s["measure"] for s in rep.series]
    singles = [sm_measure(d, alpha, m, mc_samples=n, seed=seed)
               for m in range(m_max + 1)]
    assert series == [r.estimate for r in singles]
    hits = [r.witnesses[0]["hits"] for r in singles]
    assert sm_shells(d, alpha, m_max, mc_samples=n, seed=seed)[1] == hits
    assert hits == _mask_hits(d, alpha, m_max, n, seed)


# (d, alpha): the spread's exponent 1/alpha - d(d+1)/2 is 0 on the first
# two, 2.5 on the last
@pytest.mark.parametrize("d,alpha", [(3, 1 / 6), (4, 0.1), (4, 0.08)])
@pytest.mark.parametrize("n", [_SM_BLOCK - 1, _SM_BLOCK, _SM_BLOCK + 1,
                               600_001])
def test_sm_shells_blocks_count_the_whole_draw(d, alpha, n):
    assert sm_shells(d, alpha, 4, mc_samples=n, seed=3)[1] == _mask_hits(
        d, alpha, 4, n, 3)


def test_sm_shells_allocates_one_block_at_a_time():
    """The draw is never held whole: each part streams blocks of
    _SM_BLOCK // parts rows, so all parts' buffers together stay at one
    block's worth, however many cores count them."""
    tracemalloc.start()
    try:
        sm_shells(4, 0.1, 4, 2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one 2M-row draw at d = 4 is 48 MB; a block's buffers are about 2 MB
    assert peak < 4e6


# (first sample, end) of each part: one part, an even cut, a cut inside a
# block, and a last part shorter than a block
@pytest.mark.parametrize("cuts", [
    (0, 200_001), (0, 100_000, 200_001), (0, 5, 70_000, 200_001),
    (0, 2 * _SM_BLOCK, 200_000, 200_001)])
@pytest.mark.parametrize("d,alpha", [(3, 1 / 6), (4, 0.08), (5, 0.05)])
def test_shell_counts_of_the_parts_add_up_to_the_whole_draw(cuts, d, alpha):
    edges = [2.0 ** -m for m in range(6)]
    whole = _shell_counts(9, d, alpha, edges, 0, cuts[-1], _SM_BLOCK)
    parts = [_shell_counts(9, d, alpha, edges, a, b, _SM_BLOCK // 2)
             for a, b in zip(cuts, cuts[1:])]
    assert sum(parts).tolist() == whole.tolist()
    assert whole[0] > whole[-1] > 0


# (d, alpha): the spread's exponent 1/alpha - d(d+1)/2 is 0 on the first
# of each d, 2.5 on the second
@pytest.mark.parametrize("d,alpha", [(3, 1 / 6), (3, 1 / 8.5), (4, 0.1),
                                     (4, 0.08), (5, 1 / 15), (5, 0.8 / 14)])
def test_sm_shells_counts_do_not_depend_on_the_core_count(monkeypatch, d,
                                                          alpha):
    n = 3 * _SM_BLOCK + 17
    counts = []
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, k=cores: set(range(k)),
                            raising=False)
        counts.append(sm_shells(d, alpha, 4, mc_samples=n, seed=4))
    # where the affinity call is missing, os.cpu_count decides (None: one)
    monkeypatch.delattr(os, "sched_getaffinity")
    for cores in (2, None):
        monkeypatch.setattr(os, "cpu_count", lambda k=cores: k)
        counts.append(sm_shells(d, alpha, 4, mc_samples=n, seed=4))
    assert all(c == counts[0] for c in counts)
    assert counts[0][1] == _mask_hits(d, alpha, 4, n, 4)


def test_sm_shells_callers_on_many_threads_get_their_own_counts(
        monkeypatch):
    # more callers than cores, each with a worker of its own, switching
    # as often as the interpreter allows: no part may count into another
    # caller's draw
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    n = 3 * _SM_BLOCK + 17
    want = [sm_shells(3, 1 / 6, 4, mc_samples=n, seed=s) for s in range(4)]
    got = [None] * 4

    def call(s):
        got[s] = sm_shells(3, 1 / 6, 4, mc_samples=n, seed=s)

    callers = [threading.Thread(target=call, args=(s,)) for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert got == want


def _plant_in_K_cols(monkeypatch, on_worker):
    """Make _K_cols raise a DomainError on the worker threads (or on the
    calling one); return the list of the worker threads that called it."""
    workers, K_cols = [], geometry._K_cols

    def planted(*args):
        worker = threading.current_thread() is not threading.main_thread()
        if worker:
            workers.append(threading.current_thread())
        if worker == on_worker:
            raise DomainError("planted")
        return K_cols(*args)

    monkeypatch.setattr(geometry, "_K_cols", planted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    return workers


def test_sm_shells_raises_a_worker_error_as_its_own_type(monkeypatch):
    workers = _plant_in_K_cols(monkeypatch, on_worker=True)
    with pytest.raises(DomainError, match="planted"):
        sm_shells(4, 0.1, 4, mc_samples=40 * _SM_BLOCK)
    assert workers


def test_sm_shells_joins_its_worker_when_the_calling_part_raises(
        monkeypatch):
    workers = _plant_in_K_cols(monkeypatch, on_worker=False)
    with pytest.raises(DomainError, match="planted"):
        sm_shells(4, 0.1, 4, mc_samples=40 * _SM_BLOCK)
    # the calling part fails on its first block, long before the worker
    # has counted its 40 blocks
    assert workers and not any(w.is_alive() for w in workers)
    assert len(workers) == 40


def test_check_J_geq_K(rng, quartic_curve):
    samples = [(rng.uniform(0.1, 0.5), rng.uniform(0.01, 0.15, size=2))
               for _ in range(100)]
    samples.append((0.3, np.array([0.1, 0.1])))  # collided gaps
    rep = check_J_geq_K(quartic_curve, 1.0, 1 / 6, samples)
    assert rep.passed
    assert rep.estimate > 0
    assert any("collided" in n for n in rep.notes)


# ---------------------------------------------------------------------------
# the batched check_J_geq_K against the per-sample loop it replaced


def _ref_check_J_geq_K(curve, sigma_est, alpha, samples):
    """The per-sample check_J_geq_K loop: (estimate, witnesses, notes,
    passed)."""
    consts, kept, degenerate = [], [], 0
    for s, h in samples:
        h = np.asarray(h, dtype=float)
        K = K_of(h, alpha)
        if K == 0:
            degenerate += 1
            continue
        nodes = np.sort(np.concatenate([[s], s + h]))
        J = _ref_jacobian_integral(curve, float(nodes[0]), np.diff(nodes))
        c = J / (sigma_est ** (-1.0 / alpha) * K)
        consts.append(c)
        kept.append({"s": float(s), "h": h.tolist(), "J": J, "K": K, "c": c})
    i = worst_index([-c for c in consts])
    notes = [f"{degenerate} samples with collided gaps (both sides "
             "vanish)"] if degenerate else []
    if i is None:
        return None, [], notes, False
    return consts[i], [kept[i]], notes, bool(consts[i] > 0)


def _J_K_samples(curve, n, seed):
    """Pairs (s, h) drawn as the check-J-geq-K operation draws them, and
    one pair with every gap 0 (K = 0)."""
    rng = np.random.default_rng(seed)
    a, b = curve.domain
    samples = []
    for _ in range(n):
        h = rng.uniform(1e-3, (b - a) / curve.d, size=curve.d - 1)
        samples.append((float(rng.uniform(a, b - float(np.max(h)))), h))
    samples.insert(n // 2, (0.5 * (a + b), np.zeros(curve.d - 1)))
    return samples


def _alpha(d):
    return 2.0 / (d * (d + 1)) if d >= 3 else 0.2


def _outcome(fn):
    """(estimate, witnesses, notes, passed) of a check, or the type and
    message of what it raised."""
    try:
        rep = fn()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(rep, tuple):
        return rep
    return rep.estimate, rep.witnesses, rep.notes, rep.passed


@pytest.mark.parametrize("n", [1, 15, 16, 37, 200])
@pytest.mark.parametrize("curve", SWEEP_CURVES,
                         ids=[f"{c.label}-{c.d}" for c in SWEEP_CURVES])
def test_check_J_geq_K_sweep_equals_per_sample_loop(curve, n):
    # on the d = 5 exp-flat curve phi^(5) is subnormal over some rows'
    # panels: both routes give those rows their level-1 means (J ~ 0),
    # where both once raised a QuadratureError; were one to raise, the
    # other must raise the same at the same sample
    samples = _J_K_samples(curve, n, 400 + n)
    alpha = _alpha(curve.d)
    got = _outcome(lambda: check_J_geq_K(curve, 0.7, alpha, samples))
    assert got == _outcome(
        lambda: _ref_check_J_geq_K(curve, 0.7, alpha, samples))
    if got[0] is not QuadratureError:
        assert got[2] == ["1 samples with collided gaps (both sides "
                          "vanish)"]


def test_check_J_geq_K_collided_nodes_give_J_zero():
    # s + h_1 rounds to s, so the sorted nodes coincide and v = 0 while
    # K > 0: J is exactly 0.0, as jacobian_integral gives it
    curve = SWEEP_CURVES[2]  # poly, d = 4, on [0, 12]
    samples = _J_K_samples(curve, 15, 3) + [(8.0, np.array([1e-17, 0.5,
                                                            1.0]))]
    rep = check_J_geq_K(curve, 0.7, _alpha(4), samples)
    assert (rep.estimate, rep.witnesses, rep.notes, rep.passed) == (
        _ref_check_J_geq_K(curve, 0.7, _alpha(4), samples))
    (witness,) = rep.witnesses
    assert witness["s"] == 8.0 and witness["J"] == 0.0 and witness["K"] > 0
    assert rep.estimate == 0.0 and not rep.passed


def test_check_J_geq_K_all_collided_is_inconclusive():
    curve = SWEEP_CURVES[1]
    rep = check_J_geq_K(curve, 0.7, _alpha(3), [(1.0, [0.0, 0.0])] * 3)
    assert (rep.estimate, rep.witnesses, rep.passed) == (None, [], False)
    assert rep.notes == ["3 samples with collided gaps (both sides vanish)"]
