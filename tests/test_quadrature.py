import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from restriction_lab import quadrature
from restriction_lab.conditions import build_flattened
from restriction_lab.curves import SimpleCurve, monomial_oracle
from restriction_lab.quadrature import (NODES_PER_CALL, QuadratureError,
                                        _panel_sums, box_rule, gl_nodes,
                                        integrate_refine)


def _cauchy_integrand(u, t):
    # the shape of the flattening integrands: (t - u)^2 times a function
    # flat to all orders at 0, which is 0 at the zero and subnormal nodes
    # of a subnormal limit
    with np.errstate(divide="ignore", over="ignore"):
        return (t - u) ** 2 * np.exp(-1.0 / u)


def test_array_limits_equal_scalar_calls(monkeypatch):
    limits = np.linspace(-0.2, 3.0, 301).reshape(7, 43)
    # 5e-324 is the smallest subnormal: its 2-panel step (t - 0) / 2
    # underflows to 0, where np.linspace forms its edges as
    # j / P * (t - a) for the whole chunk
    limits[0, :2] = 0.0, 5e-324
    assert 5e-324 / 2 == 0.0
    want = np.array([integrate_refine(_cauchy_integrand, 0.0, float(t),
                                      rel_tol=1e-10)
                     for t in limits.ravel()]).reshape(limits.shape)
    # nor does the chunk size change any value
    for nodes in (16, 4096, 16384):
        monkeypatch.setattr(quadrature, "NODES_PER_CALL", nodes)
        got = integrate_refine(_cauchy_integrand, 0.0, limits, rel_tol=1e-10)
        assert got.shape == limits.shape
        assert np.array_equal(got, want)
    assert np.all(got[limits <= 0.0] == 0.0)
    assert isinstance(integrate_refine(_cauchy_integrand, 0.0, 1.5), float)


def test_panel_rule_is_gl_nodes_on_linspace_edges():
    # the nodes f sees and the sums are those of gl_nodes on the edges of
    # np.linspace(a, t, P + 1), bit for bit; at P = 4 the subnormal limits'
    # steps underflow to 0, where linspace forms j / P * (t - a) instead
    # of j * ((t - a) / P): edge j = 3 of [0, 5e-324] is 5e-324, not 0
    upper = np.array([5e-324, 1e-323, 0.3, 0.7, 1.0])
    for a, panels in ((0.0, 1), (0.0, 2), (0.0, 4), (0.0, 8), (-0.25, 4)):
        seen = []

        def f(u, t):
            seen.append(u.copy())
            return (t - u) ** 2 * np.cos(u)

        sums = _panel_sums(f, a, upper, panels, 16)
        # one chunk, so one call of f and its nodes in order
        assert len(seen) == 1
        edges = np.linspace(a, upper, panels + 1, axis=-1)
        x, w = gl_nodes(edges[:, :-1], edges[:, 1:], 16)
        x, w = x.reshape(upper.size, -1), w.reshape(upper.size, -1)
        assert np.array_equal(np.concatenate(seen), x)
        assert np.array_equal(sums, np.sum(w * f(x, upper[:, None]), axis=-1))


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


def _cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


def _in_place_integrand(threads):
    """(t - u)^2 exp(-1/u), written over its nodes as the flattening
    integrands are; records the thread of each call."""
    def f(u, t):
        threads.add(threading.current_thread())
        with np.errstate(divide="ignore"):
            vals = np.exp(-1.0 / u)
        np.subtract(t, u, out=u)
        u **= 2
        vals *= u
        return vals
    return f


def test_values_do_not_depend_on_the_core_count(monkeypatch):
    # 300 limits at 256 nodes a call make many chunks on every level
    monkeypatch.setattr(quadrature, "NODES_PER_CALL", 256)
    limits = np.linspace(-0.2, 3.0, 300)
    got = {}
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        threads = set()
        got[cores] = integrate_refine(_in_place_integrand(threads), 0.0,
                                      limits, rel_tol=1e-10)
        # one part runs on this thread alone
        assert (threads == {threading.main_thread()}) == (cores == 1)
    assert np.array_equal(got[1], got[2])
    # the one-limit calls of the one-part path give the same bits
    want = [integrate_refine(_cauchy_integrand, 0.0, t, rel_tol=1e-10)
            for t in limits[::37]]
    assert got[2][::37].tolist() == want
    # and so do the flattened oracles, whose integrands work in place
    flat = SimpleCurve(d=3, phi=monomial_oracle(4.05, domain=(0.0, 1.0)))
    flat = build_flattened(build_flattened(flat))
    grid = np.linspace(0.0, 1.0, 97)
    vals = {}
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        vals[cores] = [flat.phi(grid, k) for k in range(4)]
    assert all(np.array_equal(a, b) for a, b in zip(vals[1], vals[2]))


def test_callers_on_many_threads_get_their_own_sums(monkeypatch):
    # more callers than cores, each with a second part of its own,
    # switching as often as the interpreter allows: no part may write into
    # another call's sums or nodes
    monkeypatch.setattr(quadrature, "NODES_PER_CALL", 256)
    _cores(monkeypatch, 2)
    limits = [np.linspace(0.1, 1.0 + s, 60) for s in range(4)]
    want = [integrate_refine(_cauchy_integrand, 0.0, b, rel_tol=1e-10)
            for b in limits]
    got = [None] * 4

    def call(s):
        got[s] = integrate_refine(_in_place_integrand(set()), 0.0,
                                  limits[s], rel_tol=1e-10)

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
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_an_error_in_the_second_part_raises_from_integrate_refine(
        monkeypatch):
    monkeypatch.setattr(quadrature, "NODES_PER_CALL", 256)
    _cores(monkeypatch, 2)
    workers = []

    def f(u, t):
        if threading.current_thread() is not threading.main_thread():
            workers.append(threading.current_thread())
            raise ZeroDivisionError("planted in the second part")
        return u * 0.0

    with pytest.raises(ZeroDivisionError, match="second part"):
        integrate_refine(f, 0.0, np.linspace(0.1, 1.0, 100))
    assert workers and not any(w.is_alive() for w in workers)


def test_the_callers_errstate_holds_in_the_second_part(monkeypatch):
    monkeypatch.setattr(quadrature, "NODES_PER_CALL", 256)
    _cores(monkeypatch, 2)
    seen = {}

    def f(u, t):
        seen[threading.current_thread()] = np.geterr()
        return 1.0 / (u - u)

    with np.errstate(divide="raise", under="warn"):
        want = np.geterr()
        with pytest.raises(FloatingPointError, match="divide by zero"):
            integrate_refine(f, 0.0, np.linspace(0.1, 1.0, 100))
    assert len(seen) == 2 and all(e == want for e in seen.values())


def test_the_error_names_the_first_unconverged_limit_on_two_cores(
        monkeypatch):
    monkeypatch.setattr(quadrature, "NODES_PER_CALL", 256)
    _cores(monkeypatch, 2)

    def step(u, t):
        return np.where(u < 0.6, 0.0, 1.0)

    below = np.linspace(0.1, 0.5, 200)
    # below the jump every rule is exact; 0.7, 0.9 and 1.0 never converge
    # to 1e-12, in the first chunk or the last one
    for limits, first in ((np.append(below, [0.9, 1.0]), "0.9"),
                          (np.append([0.7], below), "0.7"),
                          (np.concatenate(([1.0], below, [0.7])), "1.0")):
        with pytest.raises(QuadratureError, match=rf"\[0\.0, {first}\]"):
            integrate_refine(step, 0.0, limits, rel_tol=1e-12)


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
