import tracemalloc

import numpy as np
import pytest

from restriction_lab.quadrature import (NODES_PER_CALL, QuadratureError,
                                        box_rule, integrate_refine)


def _cauchy_integrand(u, t):
    # the shape of the flattening integrands: (t - u)^2 times a function
    # flat to all orders at 0
    return (t - u) ** 2 * np.exp(-1.0 / u)


def test_array_limits_equal_scalar_calls():
    limits = np.linspace(-0.2, 3.0, 301).reshape(7, 43)
    got = integrate_refine(_cauchy_integrand, 0.0, limits, rel_tol=1e-10)
    assert got.shape == limits.shape
    want = np.array([integrate_refine(_cauchy_integrand, 0.0, float(t),
                                      rel_tol=1e-10)
                     for t in limits.ravel()]).reshape(limits.shape)
    assert np.array_equal(got, want)
    assert np.all(got[limits <= 0.0] == 0.0)
    assert isinstance(integrate_refine(_cauchy_integrand, 0.0, 1.5), float)


def test_one_unconverged_limit_raises_and_nodes_stay_bounded():
    sizes = []

    def step(u, t):
        sizes.append(u.size)
        return np.where(u < 0.6, 0.0, 1.0)

    # below the jump every rule is exact, so those limits converge at once
    below = np.linspace(0.1, 0.5, 2000)
    assert np.all(integrate_refine(step, 0.0, below, rel_tol=1e-12) == 0.0)
    # the panel rules never resolve the jump to 1e-12 for the limit 1.0
    with pytest.raises(QuadratureError, match=r"\[0\.0, 1\.0\]"):
        integrate_refine(step, 0.0, np.append(below, 1.0), rel_tol=1e-12)
    assert max(sizes) <= NODES_PER_CALL


def test_box_rule_integrates_a_tensor_polynomial():
    pts, wts = box_rule([0.0, -1.0, 0.5], [1.0, 2.0, 0.75], 3)
    assert pts.shape == (27, 3) and wts.shape == (27,)
    # the last axis runs fastest
    assert np.array_equal(pts[:3, :2], np.repeat(pts[:1, :2], 3, axis=0))
    # int x dx * int y^2 dy * int z dz over [0, 1] x [-1, 2] x [0.5, 0.75]
    integral = np.sum(wts * pts[:, 0] * pts[:, 1] ** 2 * pts[:, 2])
    assert integral == pytest.approx(0.5 * 3.0 * 0.15625, rel=1e-13)


def test_box_rule_memory_of_the_largest_integration_rule():
    # the 7-axis order-8 rule of vandermonde-integration at n = 8: its
    # points and weights take 134 MB, and two meshgrids with their
    # stacked copies once peaked at 487 MB
    tracemalloc.start()
    try:
        pts, wts = box_rule(np.zeros(7), np.ones(7), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pts.shape == (8 ** 7, 7) and wts.shape == (8 ** 7,)
    assert peak < 200e6
