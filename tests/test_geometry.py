import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restriction_lab.curves import SimpleCurve, poly_oracle
from restriction_lab.geometry import (K_of, K_u_geometry, Parallelepiped,
                                      check_J_geq_K, cube, estimate_alpha_B,
                                      lambda_measure, lemma1_chain,
                                      lemma1_conclusion, shrink_family,
                                      sm_measure, u_of)
from restriction_lab.report import ConfigError


@pytest.fixture
def parabola():
    return SimpleCurve(d=2, phi=poly_oracle([0, 0, 0.5], domain=(0.0, 2.0)),
                       label="parabola")


def test_parallelepiped_basics():
    E = Parallelepiped.of([1.0, 0.0], [[2.0, 0.0], [1.0, 1.0]])
    assert E.volume == pytest.approx(2.0)
    assert E.contains([2.0, 0.5])
    assert not E.contains([0.5, 0.5])
    round_trip = Parallelepiped.from_dict(E.to_dict())
    assert np.allclose(round_trip.base, E.base)
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
    assert lambda_measure(parabola, Parallelepiped.of(
        [0, 0], np.eye(2))) == pytest.approx(1.0, abs=1e-7)
    assert lambda_measure(parabola, cube([1.0, 1.0], 10.0)) == 2.0
    assert lambda_measure(parabola, cube([50.0, 50.0], 1.0)) == 0.0


def test_lambda_measure_is_a_python_float(parabola):
    lam = lambda_measure(parabola, cube([1.0, 0.5], 0.5))
    assert type(lam) is float and lam > 0


def test_lambda_measure_additive_and_monotone(parabola):
    left = Parallelepiped.of([0, -1], [[0.5, 0], [0, 4]])
    right = Parallelepiped.of([0.5, -1], [[0.5, 0], [0, 4]])
    both = Parallelepiped.of([0, -1], [[1.0, 0], [0, 4]])
    lam_l = lambda_measure(parabola, left)
    lam_r = lambda_measure(parabola, right)
    lam_b = lambda_measure(parabola, both)
    assert lam_l + lam_r == pytest.approx(lam_b, abs=1e-6)
    assert lam_l <= lam_b + 1e-12


def test_estimate_alpha_B_trivial(parabola):
    big = cube([1.0, 1.0], 8.0)
    rep = estimate_alpha_B(parabola, [big], 0.25)
    assert rep.estimate == pytest.approx(2.0 / big.volume ** 0.25)
    with pytest.raises(ConfigError):
        estimate_alpha_B(parabola, [], 0.25)


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


def test_K_u_values_and_homogeneity():
    u, K, rep = K_u_geometry([1.0, 2.0], 1 / 6)
    assert u == pytest.approx(2.0)
    assert K == pytest.approx(2.0)  # 1/alpha = d(d+1)/2 makes K = u
    assert rep.passed
    u0, K0, _ = K_u_geometry([1.0, 1.0], 1 / 6)
    assert u0 == 0.0 and K0 == 0.0


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


def test_check_J_geq_K(rng, quartic_curve):
    samples = [(rng.uniform(0.1, 0.5), rng.uniform(0.01, 0.15, size=2))
               for _ in range(100)]
    samples.append((0.3, np.array([0.1, 0.1])))  # collided gaps
    rep = check_J_geq_K(quartic_curve, 1.0, 1 / 6, samples)
    assert rep.passed
    assert rep.estimate > 0
    assert any("collided" in n for n in rep.notes)
