"""Gauss-Legendre quadrature helpers used throughout the lab.

All integrands in the identity checks are smooth or piecewise polynomial,
so fixed-order Gauss-Legendre panels with order/panel refinement converge
quickly.  Nothing here is adaptive in the scipy.quad sense; refinement is
a comparison between two successive rules.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .parts import part_count, run_parts

# integrand nodes per call of f in integrate_refine; bounds its memory, and
# changes no value.  configs/flat.json ran in a median 183, 186 and 203 ms
# in one part at 16,384, 32,768 and 65,536 nodes, and in 215, 157 and
# 157 ms in two (21 alternating runs each, 2-core box); the larger chunk
# costs each part more memory
NODES_PER_CALL = 32768
# integrate_refine's Gauss-Legendre order per panel, and the panel count
# past which it gives up
_ORDER = 16
_MAX_PANELS = 512


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
    ``upper``, evaluating f at no more than NODES_PER_CALL nodes a call.

    The panel edges, nodes and weights are those of
    ``np.linspace(a, t, panels + 1, axis=-1)`` and ``gl_nodes`` bit for
    bit, from the same float operations without their per-call cost.
    ``panels`` is a power of two, so j / panels is exact, and so is the
    step (t - a) / panels unless it is subnormal.  (t - a) * (j / panels)
    is then j * step rounded once, linspace's usual branch, and also its
    j / panels * (t - a) branch, taken when a step underflows to 0.  Only
    a nonzero subnormal step rounds differently, at limits within about
    1e-305 of a.

    The limits go in chunks of whole rows, and the chunks in turn to the
    parts of ``parts.run_parts``.  Each part forms its chunks' nodes and
    weights in two buffers of its own, allocated once: the chunk's panel
    half-widths repeated over their nodes, times the tiled weights, then
    times the tiled abscissae plus the midpoints.  f may overwrite the
    nodes it is handed, and a new array of its values multiplies the
    weights in place.  A row's sum depends on that row alone, so the sums
    are the same for any chunk size and any number of parts."""
    n = panels * order
    rows = max(1, NODES_PER_CALL // n)
    cols = min(n, NODES_PER_CALL)
    x, w = _leggauss(order)
    xs, ws = np.tile(x, panels), np.tile(w, panels)
    frac = np.arange(panels + 1.0) / panels
    sums = np.empty(upper.size)
    starts = range(0, upper.size, rows)
    parts = part_count(len(starts))

    def part(p):
        nodes = np.empty((min(rows, upper.size), panels, order))
        weights = np.empty((len(nodes), n))
        for i in starts[p::parts]:
            t = upper[i:i + rows]
            edges = np.multiply.outer(t - a, frac)
            edges += a
            edges[:, -1] = t
            lo, hi = edges[:, :-1], edges[:, 1:]
            half = 0.5 * (hi - lo)
            mid = 0.5 * (lo + hi)
            panel_nodes = nodes[:t.size]
            panel_nodes[...] = half[..., None]
            u = panel_nodes.reshape(t.size, n)
            wts = np.multiply(u, ws, out=weights[:t.size])
            u *= xs
            panel_nodes += mid[..., None]
            for k in range(0, n, cols):
                block = wts[:, k:k + cols]
                np.multiply(block, f(u[:, k:k + cols], t[:, None]),
                            out=block)
            np.add.reduce(wts, axis=-1, out=sums[i:i + rows])

    run_parts(part, parts)
    return sums


def integrate_refine(f, a: float, b, rel_tol: float = 1e-9):
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
        if panels > _MAX_PANELS:
            raise QuadratureError(
                f"integral on [{a}, {upper[todo[0]]}] did not converge "
                f"to rel tol {rel_tol} within {_MAX_PANELS} panels")
        total = _panel_sums(f, a, upper[todo], panels, _ORDER)
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

    Returns (points, weights) with points of shape (order**k, k).  The
    points are one stack of broadcast meshgrid views, and the weights the
    outer product of the axis weights, multiplied axis by axis in order.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes, waxes = zip(*(gl_nodes(lo[..., i], hi[..., i], order)
                        for i in range(lo.shape[-1])))
    pts = np.stack(np.meshgrid(*axes, indexing="ij", copy=False),
                   axis=-1).reshape(-1, len(axes))
    wts = reduce(np.multiply.outer, waxes).reshape(-1)
    return pts, wts
