"""Gauss-Legendre quadrature helpers used throughout the lab.

All integrands in the identity checks are smooth or piecewise polynomial,
so fixed-order Gauss-Legendre panels with order/panel refinement converge
quickly.  Nothing here is adaptive in the scipy.quad sense; refinement is
a comparison between two successive rules.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# integrand nodes per call of f in integrate_refine; bounds its memory
NODES_PER_CALL = 4096


class QuadratureError(RuntimeError):
    """Raised when successive refinements fail to agree."""


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def gl_nodes(a, b, order: int):
    """Nodes and weights of the Gauss-Legendre rule on [a, b].

    ``a`` and ``b`` may be arrays (broadcast against each other); the
    returned nodes/weights then carry one extra trailing axis of length
    ``order``.
    """
    x, w = _leggauss(order)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[..., None] + half[..., None] * x
    weights = half[..., None] * w
    return nodes, weights


def _panel_sums(f, a: float, upper: np.ndarray, panels: int,
                order: int) -> np.ndarray:
    """The ``panels``-panel Gauss-Legendre rule on [a, t] for every t in
    ``upper``, evaluating f at no more than NODES_PER_CALL nodes a call."""
    n = panels * order
    rows = max(1, NODES_PER_CALL // n)
    cols = min(n, NODES_PER_CALL)
    sums = np.empty(upper.size)
    for i in range(0, upper.size, rows):
        t = upper[i:i + rows]
        edges = np.linspace(a, t, panels + 1, axis=-1)
        x, w = gl_nodes(edges[:, :-1], edges[:, 1:], order)
        x = x.reshape(t.size, n)
        vals = np.empty_like(x)
        for j in range(0, n, cols):
            vals[:, j:j + cols] = f(x[:, j:j + cols], t[:, None])
        sums[i:i + rows] = np.sum(w.reshape(t.size, n) * vals, axis=-1)
    return sums


def integrate_refine(f, a: float, b, rel_tol: float = 1e-9,
                     order: int = 16, max_panels: int = 512):
    """int_a^t f(u, t) du for each upper limit t in ``b``, a float or an
    array; limits t <= a give 0.

    f is called with a 2-D array of nodes u, one row per limit, and the
    column of the matching limits t.  Each limit bisects its panels until
    its own two successive rules agree to ``rel_tol`` (relative to the
    running scale).
    """
    shape = np.shape(b)
    upper = np.ravel(np.asarray(b, dtype=float))
    out = np.zeros(upper.size)
    todo = np.flatnonzero(upper > a)
    prev = None
    panels = 1
    while todo.size:
        if panels > max_panels:
            raise QuadratureError(
                f"integral on [{a}, {upper[todo[0]]}] did not converge "
                f"to rel tol {rel_tol} within {max_panels} panels")
        total = _panel_sums(f, a, upper[todo], panels, order)
        if prev is not None:
            scale = np.maximum(np.maximum(np.abs(total), np.abs(prev)),
                               1e-300)
            done = np.abs(total - prev) <= rel_tol * scale + 1e-15
            out[todo[done]] = total[done]
            todo, total = todo[~done], total[~done]
        prev = total
        panels *= 2
    return float(out[0]) if shape == () else out.reshape(shape)


def box_rule(lo, hi, order: int):
    """Tensor Gauss-Legendre rule on the box prod_i [lo_i, hi_i].

    Returns (points, weights) with points of shape (order**k, k).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    k = lo.shape[-1]
    axes = []
    waxes = []
    for i in range(k):
        n, w = gl_nodes(lo[..., i], hi[..., i], order)
        axes.append(n)
        waxes.append(w)
    grids = np.meshgrid(*axes, indexing="ij")
    wgrids = np.meshgrid(*waxes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wts = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=-1), axis=-1)
    return pts, wts


def box_integrate(f, lo, hi, rel_tol: float = 1e-7, order: int = 8,
                  max_order: int = 48) -> float:
    """Integrate a vectorized f(points) over an axis-aligned box, doubling
    the per-axis order until two successive rules agree to ``rel_tol``."""
    prev = None
    cur_order = order
    while cur_order <= max_order:
        pts, wts = box_rule(lo, hi, cur_order)
        total = float(np.sum(wts * f(pts)))
        if prev is not None:
            scale = max(abs(total), abs(prev), 1e-300)
            if abs(total - prev) <= rel_tol * scale + 1e-15:
                return total
        prev = total
        cur_order = 2 * cur_order
    raise QuadratureError(
        f"box integral did not converge to rel tol {rel_tol} "
        f"at order {max_order}")
