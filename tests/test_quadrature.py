import numpy as np
import pytest

from restriction_lab.quadrature import (NODES_PER_CALL, QuadratureError,
                                        integrate_refine)


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
