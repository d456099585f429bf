import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from restriction_lab import registry
from restriction_lab import vandermonde as vandermonde_module
from restriction_lab.curves import SimpleCurve, poly_oracle
from restriction_lab.jacobian import jacobian_direct
from restriction_lab.report import ConfigError
from restriction_lab.vandermonde import (check_lin_lemma,
                                         check_psi_lower_bound,
                                         check_tail_inequalities,
                                         check_vandermonde_integration,
                                         gaps, kappa_of, psi,
                                         psi_mean_tail_ratio,
                                         psi_mean_tail_ratio_quad,
                                         vandermonde, vandermonde_arr)
from test_jacobian import _J

# tail-mass ratios frozen from the independent pointwise-psi quadrature
# route (they cross-check the determinant evaluation below)
FROZEN_TAIL_D3 = 0.23011363636363633  # t=0.2, h=(0.5, 1.1)
FROZEN_TAIL_D4 = 0.04203691045796307  # t=0.2, h=(0.5, 1.1, 0.3)

gap = st.floats(0.05, 2.0)


def test_vandermonde_known_value():
    assert vandermonde([0.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert vandermonde([0.0, 1.0]) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=5))
def test_vandermonde_array_route_agrees(xs):
    x = np.asarray(xs)
    assert vandermonde_arr(x[None, :])[0] == pytest.approx(
        vandermonde(xs), rel=1e-12, abs=1e-12)


def test_vandermonde_equals_the_pairwise_product():
    # the one-vector product is the array product's, factor by factor
    rng = np.random.default_rng(5)
    for d in range(2, 7):
        for x in rng.uniform(-2.0, 2.0, size=(400, d)):
            ref = 1.0
            for i in range(d):
                for j in range(i + 1, d):
                    ref *= x[j] - x[i]
            assert vandermonde(x) == ref


def test_gap_vector_prefix_sums():
    kappa = kappa_of(gaps((0.5, 1.1, 0.3)))
    assert np.allclose(kappa, [0.0, 0.5, 1.6, 1.9])
    assert np.array_equal(kappa_of(gaps([[0.5, 1.1], [0.2, 0.0]])),
                          [[0.0, 0.5, 1.6], [0.0, 0.2, 0.2]])


def test_gaps_are_float_arrays_checked_nonnegative():
    # one number is one gap; lists, tuples and arrays give the same array
    assert gaps(0.5).tolist() == [0.5]
    assert gaps((1, 0.0)).dtype == float
    assert np.array_equal(gaps(np.array([0.5, 1.1])), gaps([0.5, 1.1]))
    for h in (-0.1, (0.5, -1e-300), [[0.5, 0.2], [0.1, -0.3]]):
        with pytest.raises(ConfigError, match="must be nonnegative"):
            gaps(h)


def test_psi_d2_is_indicator():
    h = (0.7,)
    assert psi(2, 0.3, h) == 1.0
    assert psi(2, 0.8, h) == 0.0
    assert psi(2, -0.1, h) == 0.0


def test_psi3_integral_matches_vandermonde():
    # int Psi_3 = v(h) / 1!2! ... the d=3 normalization is v(h)/2
    for h in ((1.0, 1.0), (0.5, 1.3)):
        kappa = kappa_of(h)
        total, _ = quad(lambda u: psi(3, u, h), 0, kappa[-1])
        assert total == pytest.approx(vandermonde(kappa) / 2.0, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(3, 4), t=st.floats(-0.5, 3.0),
       h=st.lists(gap, min_size=3, max_size=3))
def test_psi_nonnegative_and_supported(d, t, h):
    h = h[: d - 1]
    val = psi(d, t, h)
    assert val >= 0.0
    if t < 0 or t > kappa_of(h)[-1]:
        assert val == 0.0


def _psi_divided_difference(d, u, h):
    """Psi_d(u; h) from the Curry-Schoenberg definition of the unit-mass
    B-spline, M(u) = (d-1) [kappa_1, ..., kappa_d] (. - u)_+^(d-2),
    with the divided difference expanded over distinct knots in mpmath."""
    with mpmath.workdps(50):
        kappa = [mpmath.mpf(0)]
        for hj in h:
            kappa.append(kappa[-1] + mpmath.mpf(hj))
        u = mpmath.mpf(u)
        M = (d - 1) * mpmath.fsum(
            max(kj - u, 0) ** (d - 2)
            / mpmath.fprod(kj - ki for ki in kappa if ki != kj)
            for kj in kappa)
        v = mpmath.fprod(kappa[j] - kappa[i]
                         for j in range(d) for i in range(j))
        return float(v * M / math.prod(math.factorial(i)
                                       for i in range(1, d)))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_psi_matches_divided_difference_definition(d):
    h = (0.5, 1.1, 0.3, 0.7, 0.9)[: d - 1]
    for frac in (0.03, 0.2, 0.37, 0.5, 0.64, 0.81, 0.97):
        u = frac * sum(h)
        assert psi(d, u, h) == pytest.approx(
            _psi_divided_difference(d, u, h), rel=1e-12)


def test_psi_d6_mass_and_jacobian_routes():
    d = 6
    h = (0.4, 0.25, 0.6, 0.35, 0.5)
    kappa = kappa_of(h)
    total, _ = quad(lambda u: psi(d, u, h), 0.0, kappa[-1],
                    points=kappa[1:-1], epsabs=0.0, epsrel=1e-13)
    assert total == pytest.approx(vandermonde(kappa) / math.prod(
        math.factorial(i) for i in range(1, d)), rel=1e-10)
    coeffs = [0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.7, -0.3, 0.05]
    curve = SimpleCurve(d=d, phi=poly_oracle(coeffs, domain=(-3.0, 3.0)),
                        label="p6")
    J1 = jacobian_direct(curve, -0.8, h)
    J2 = _J(curve, -0.8, h)
    assert J2 == pytest.approx(J1, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(h1=gap)
def test_tail_ratio_d2_is_half(h1):
    assert psi_mean_tail_ratio(2, [[h1]]).tolist() == [
        pytest.approx(0.5, abs=1e-12)]


def test_tail_ratio_frozen_values():
    assert psi_mean_tail_ratio(3, [(0.5, 1.1)])[0] == pytest.approx(
        FROZEN_TAIL_D3, rel=1e-10)
    assert psi_mean_tail_ratio(4, [(0.5, 1.1, 0.3)])[0] == pytest.approx(
        FROZEN_TAIL_D4, rel=1e-10)


def test_tail_ratio_rejects_a_degenerate_row():
    with pytest.raises(ZeroDivisionError, match="v\\(h\\) = 0"):
        psi_mean_tail_ratio(3, [(0.5, 1.1), (0.0, 0.3)])


@settings(max_examples=25, deadline=None)
@given(d=st.integers(3, 4), h=st.lists(gap, min_size=3, max_size=3))
def test_tail_ratio_routes_agree(d, h):
    h = tuple(h[: d - 1])
    det_route = psi_mean_tail_ratio(d, [h])[0]
    quad_route = psi_mean_tail_ratio_quad(d, 0.3, h)
    assert det_route == pytest.approx(quad_route, rel=1e-8, abs=1e-10)


def test_psi_lower_bound_check(rng):
    rep = check_psi_lower_bound(3, 0.3, rng.uniform(0.05, 1.0, size=(100, 2)))
    assert rep.passed
    assert rep.estimate > 0
    # degenerate samples are excluded, not crashed on
    rep2 = check_psi_lower_bound(3, [0.1, 0.0], [(0.5, 0.5), (0.0, 0.3)])
    assert rep2.passed
    assert rep2.witnesses[0]["t"] == 0.1
    assert rep2.notes == ["skipped 1 degenerate samples with v(h)=0"]


def _tail_ratio_per_sample(d, h):
    """The mean-tail ratio of one gap vector, matrix entries by numpy
    scalar power: the reference the array route must match bit for bit."""
    kappa = kappa_of(h)
    s = kappa - float(np.mean(kappa))
    cols = []
    for sj in s:
        col = [sj ** i / math.factorial(i) for i in range(d - 1)]
        col.append(max(sj, 0.0) ** (d - 1) / math.factorial(d - 1))
        cols.append(col)
    mat = np.array(cols).T
    if d == 2:
        det = float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
    else:
        det = float(np.linalg.det(mat))
    return det / vandermonde(kappa)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_psi_lower_bound_array_route_equals_per_sample_formula(
        rng, d, monkeypatch):
    h = rng.uniform(0.05, 1.0, size=(300, d - 1))
    h[:20] *= 10.0 ** rng.uniform(-2.0, 0.0, size=(20, 1))  # small gaps
    ref = [_tail_ratio_per_sample(d, row) for row in h]
    assert [psi_mean_tail_ratio(d, [row])[0] for row in h] == ref
    assert psi_mean_tail_ratio(d, h).tolist() == ref
    with monkeypatch.context() as m:
        m.setattr(vandermonde_module, "_TAIL_BLOCK", 7)
        assert psi_mean_tail_ratio(d, h).tolist() == ref
    rep = check_psi_lower_bound(d, 0.3, h)
    k = int(np.argmin(ref))
    assert rep.estimate == ref[k]
    assert rep.witnesses == [{"t": 0.3, "h": h[k].tolist(), "ratio": ref[k]}]
    if d == 2:
        assert set(ref) == {0.5}


def test_psi_lower_bound_memory_does_not_grow_with_its_entries():
    # the determinants' Python-float entries are built one block of rows
    # at a time: at 30,000 samples and d = 5 the traced peak was 37.7 MB
    # when every row's entries were held at once, and is 8.5 MB in blocks
    h = np.random.default_rng(3).uniform(0.05, 1.0, size=(30_000, 4))
    tracemalloc.start()
    try:
        rep = check_psi_lower_bound(5, 0.3, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 16 * 2 ** 20


def test_vandermonde_integration_identity(rng):
    for n in (3, 4):
        s = np.sort(rng.uniform(0.0, 1.0, size=n))
        rep = check_vandermonde_integration(n, s)
        assert rep.passed, rep.notes


def test_vandermonde_integration_bounds_n_before_its_tensor_rule(
        monkeypatch):
    # n = 12 once raised MemoryError asking for 5.41 TiB, and n = 9 asks
    # for 9^8 nodes, about 3 GB; n = 8 takes 8^7 nodes
    def no_rule(*args):
        raise AssertionError("box_rule called")

    with monkeypatch.context() as m:
        m.setattr(vandermonde_module, "box_rule", no_rule)
        for n in (9, 12):
            tracemalloc.start()
            try:
                with pytest.raises(ConfigError, match=f"n = {n} needs a "
                                   f"tensor rule of {n ** (n - 1):,} nodes"):
                    registry.run_check({"operation":
                                        "vandermonde-integration",
                                        "n": n}, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
    rep = registry.run_check({"operation": "vandermonde-integration",
                              "n": 8}, 1)
    assert rep.passed, rep.estimate


def test_tail_inequalities(rng):
    t = np.sort(rng.uniform(0.0, 2.0, size=3))
    rep = check_tail_inequalities(3, t, delta=0.5)
    assert rep.passed
    for w in rep.witnesses:
        for key, val in w.items():
            if key.startswith("ratio"):
                assert val > 0


def test_lin_lemma_ratio_positive():
    instance = {
        "intervals": [[0.0, 1.0], [2.0, 3.0]],
        "lambdas": [0.5, 0.25],
        "factors": [{"type": "diff", "j": 0, "k": 1},
                    {"type": "upper", "j": 0, "d": 4.0},
                    {"type": "lower", "j": 1, "c": 1.0}],
    }
    rep = check_lin_lemma(**instance)
    assert rep.passed
    assert 0 < rep.estimate <= 1.0


def test_lin_lemma_empty_factor_list_is_the_constant_integrand():
    # "factors": [] is an instance with no factors, integrand 1: the
    # ratio is the product of the lambdas
    instance = {"intervals": [[0.0, 1.0], [1.0, 2.0]],
                "lambdas": [0.5, 0.5]}
    reps = [registry.run_check({"operation": "lin-lemma",
                                "instance": inst}, 0)
            for inst in (instance, {**instance, "factors": []})]
    assert reps[0].to_dict() == reps[1].to_dict()
    assert reps[1].passed and reps[1].estimate == pytest.approx(0.25)
