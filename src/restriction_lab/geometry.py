"""Parallelepipeds, the curve occupation measure, the trapping-chain
construction, and the K/u shell geometry.

The chain construction traps a curve segment in a nested family of
parallelepipeds whose measures obey an exact recursion
m_k = h^k * m_{k-1}; the final set certifies the measure-condition
exponent for the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .conditions import _normal_doubles, _validate_alpha
from .curves import SimpleCurve, validate_monotone
from .jacobian import jacobian_integral
from .parts import part_count, run_parts
from .report import (CheckReport, ConfigError, DomainError, at_most,
                     worst_index)
from .vandermonde import vandermonde


@dataclass(frozen=True)
class Parallelepiped:
    """base + sum_j a_j edges[j], a in [0,1]^d.  Edges are rows of the
    ``edges`` matrix (one vector per row, matching the JSON layout)."""

    base: np.ndarray
    edges: np.ndarray

    @classmethod
    def of(cls, base, edges) -> "Parallelepiped":
        base = np.asarray(base, dtype=float)
        edges = np.asarray(edges, dtype=float)
        if edges.shape != (base.size, base.size):
            raise ConfigError("edges must be d vectors of length d")
        if (E := cls(base=base, edges=edges)).volume == 0:
            raise ConfigError("edges must be linearly independent")
        return E

    @property
    def dim(self) -> int:
        return self.base.size

    @property
    def volume(self) -> float:
        with np.errstate(over="ignore"):  # inf beyond the largest double
            return abs(float(np.linalg.det(self.edges)))

    def coords(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.linalg.solve(self.edges.T, (x - self.base).T).T

    def contains(self, x, tol: float = 1e-12):
        return _in_unit_box(self.coords(x), tol)

    @property
    def barycenter(self) -> np.ndarray:
        return self.base + 0.5 * self.edges.sum(axis=0)

    def to_dict(self) -> dict:
        return {"base": self.base.tolist(), "edges": self.edges.tolist()}


def _in_unit_box(c: np.ndarray, tol: float = 1e-12):
    """Whether edge coordinates ``c`` (on the last axis) lie in [0, 1]^d,
    up to ``tol``."""
    return np.all((c >= -tol) & (c <= 1 + tol), axis=-1)


def cube(center, side: float) -> Parallelepiped:
    center = np.asarray(center, dtype=float)
    d = center.size
    return Parallelepiped.of(center - side / 2.0, side * np.eye(d))


def shrink_family(center, side0: float, count: int) -> list[Parallelepiped]:
    """Dyadic family of cubes shrinking onto ``center``."""
    return [cube(center, side0 * 0.5 ** i) for i in range(count)]


# points of the coarse membership scan in lambda_measure, and the total
# width to which its crossings are bisected
_COARSE = 4096
_TOL = 1e-8


def lambda_measure(curve, family) -> list[float]:
    """The Lebesgue measure of {t in (a,b): gamma(t) in E} of each box E
    of ``family``.

    Membership is scanned on a coarse grid; each transition is then
    bracketed by bisection to width _TOL / (number of crossings of its
    box).  The curve is evaluated on the coarse grid once for all boxes,
    and the crossings of all boxes are bisected together: each step
    evaluates the curve once at every active midpoint and solves each
    midpoint against its own box's edges.  Each crossing stops at its own
    box's width target, so it takes the same steps as a bisection of that
    crossing alone."""
    a, b = curve.domain
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ConfigError("lambda_measure needs a bounded domain")
    ts = np.linspace(a, b, _COARSE + 1)
    pts = curve.jet(ts)
    inside = [np.asarray(E.contains(pts)) for E in family]
    flips = [np.nonzero(ins[:-1] != ins[1:])[0] for ins in inside]
    counts = [f.size for f in flips]
    # one entry per crossing: its box, its bracket, the side its lower end
    # lies on and its box's width target
    box = np.repeat(np.arange(len(family)), counts)
    at = np.concatenate(flips)
    lo, hi = ts[at], ts[at + 1]
    lo_in = np.concatenate([ins[f] for ins, f in zip(inside, flips)])
    target = np.repeat([_TOL / max(1, n) for n in counts], counts)
    edges_t = np.stack([E.edges.T for E in family])
    bases = np.stack([E.base for E in family])
    active = np.flatnonzero(hi - lo > target)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        k = box[active]
        coords = np.linalg.solve(edges_t[k], (curve.jet(mid) - bases[k])[
            ..., None])[..., 0]
        to_lo = _in_unit_box(coords) == lo_in[active]
        lo[active[to_lo]] = mid[to_lo]
        hi[active[~to_lo]] = mid[~to_lo]
        active = active[hi[active] - lo[active] > target[active]]
    crossings = (0.5 * (lo + hi)).tolist()
    out, first = [], 0
    for ins, n in zip(inside, counts):
        edges = [ts[0]] + crossings[first:first + n] + [ts[-1]]
        first += n
        total = 0.0
        state = bool(ins[0])
        for start, end in zip(edges[:-1], edges[1:]):
            if state:
                total += end - start
            state = not state
        out.append(float(total))
    return out


def estimate_alpha_B(curve, family, alpha: float) -> CheckReport:
    """B_est = sup over the family of lambda(E) / m_d(E)^alpha."""
    family = list(family)
    if not family:
        raise ConfigError("parallelepiped family is empty")
    _validate_alpha(curve.d, alpha)
    volumes = [E.volume for E in family]
    for md in volumes:
        if not 0 < md < math.inf:
            # lambda / volume^alpha would read 0 or inf for any lambda
            raise ConfigError(f"a box of the family has volume {md!r}; the "
                              f"ratio needs a positive finite volume")
    lams = lambda_measure(curve, family)
    if not any(lams):  # a sup of zeros bounds nothing
        side = min(np.linalg.norm(E.edges, axis=1).min() for E in family)
        raise ConfigError(
            f"no box of the family meets the curve on lambda_measure's "
            f"coarse scan: the smallest side is {float(side)!r}, the scan "
            f"spacing {(curve.domain[1] - curve.domain[0]) / _COARSE!r}")
    series = [{"m_d": md, "lambda": lam, "ratio": lam / md ** alpha}
              for md, lam in zip(volumes, lams)]
    i = worst_index([row["ratio"] for row in series])
    best = series[i]["ratio"]
    return CheckReport(
        check_id="estimate_alpha_B",
        parameters={"d": curve.d, "alpha": alpha, "family_size": len(family)},
        estimate=best,
        passed=math.isfinite(best),
        witnesses=[family[i].to_dict()],
        series=series,
    )


# ---------------------------------------------------------------------------
# the trapping chain


def _chain_base(curve: SimpleCurve, t: float, h: float):
    d = curve.d
    phi = curve.phi
    rho = (h * phi(t + h, d - 1) + phi(t, d - 2) - phi(t + h, d - 2))
    delta = phi(t + h, d - 2) - phi(t, d - 2)
    base = np.array([t, phi(t, d - 2) - rho])
    edges = np.array([[0.0, rho], [h, delta + rho]])
    return rho, Parallelepiped(base=base, edges=edges)


def _chain_step(prev: Parallelepiped, anchor: np.ndarray,
                h: float) -> Parallelepiped:
    """Lift E_{k-1} in R^{k-1} to E_k = anchor + h * E~ where
    E~ = {(1, x) - v (1, x0)}, x0 the barycenter of E_{k-1}."""
    k = prev.dim + 1
    x0 = prev.barycenter
    base = np.concatenate([[1.0], prev.base])
    edges = np.zeros((k, k))
    edges[:-1, 1:] = prev.edges
    edges[-1, 0] = -1.0
    edges[-1, 1:] = -x0
    return Parallelepiped(base=anchor + h * base, edges=h * edges)


def lemma1_chain(curve: SimpleCurve, t: float, h: float,
                 n_samples: int = 1000) -> tuple[list, CheckReport]:
    """Build the nested trapping parallelepipeds E_{d-2}, ..., E_0 for the
    segment [t, t+h] and verify, in order: rho >= 0, sampled containment
    at every level, the exact measure recursion m_k = h^k * m_{k-1}, and
    the measure bound m_k <= h^{(k^2+k-2)/2} (phi^(d-1)(t+h)-phi^(d-1)(t)).
    """
    d = curve.d
    a, b = curve.domain
    containment_tol = 1e-9
    if t < a or t + h > b:
        raise DomainError("[t, t+h] must sit inside the curve domain")
    mono = validate_monotone(curve)
    if not mono.passed:
        raise ConfigError("chain construction needs monotone derivatives")

    rho, E = _chain_base(curve, t, h)
    gap = curve.phi(t + h, d - 1) - curve.phi(t, d - 1)
    chain = [E]
    witnesses = []
    notes = []
    passed = rho >= -1e-15
    if not passed:
        notes.append(f"rho = {rho} negative")
    if E.volume == 0.0:
        # zero curvature: the parallelogram collapses to the chord band
        report = CheckReport(
            check_id="lemma1_chain",
            parameters={"d": d, "t": t, "h": h},
            estimate=0.0, bound=0.0, passed=passed,
            witnesses=[{"rho": float(rho)}],
            notes=notes + ["degenerate chord band (rho = 0); "
                           "chain recursion skipped"])
        return chain, report

    s_grid = np.linspace(t, t + h, n_samples)
    recursion_err = 0.0
    for k in range(2, d + 1):
        if k > 2:
            # the last k coordinates of gamma^(d-k)(t)
            E = _chain_step(chain[-1], curve.jet(t, d - k)[d - k:], h)
            chain.append(E)
            rec = abs(E.volume - h ** k * chain[-2].volume)
            recursion_err = max(
                recursion_err, rec / max(E.volume, 1e-300))
        pts = curve.jet(s_grid, d - k)[..., d - k:]
        ok = np.asarray(E.contains(pts, tol=containment_tol))
        if not np.all(ok):
            passed = False
            bad = int(np.argmin(ok))
            witnesses.append({"level_k": k, "s": float(s_grid[bad]),
                              "coords": E.coords(pts[bad]).tolist()})
            notes.append(f"containment fails at level k={k}")
        bound = h ** ((k * k + k - 2) / 2.0) * gap
        if E.volume > bound * (1 + 1e-12):
            passed = False
            notes.append(f"measure bound fails at level k={k}: "
                         f"{E.volume} > {bound}")
    if recursion_err > 1e-12:
        passed = False
        notes.append(f"measure recursion off by rel {recursion_err}")

    report = CheckReport(
        check_id="lemma1_chain",
        parameters={"d": d, "t": t, "h": h, "n_samples": n_samples},
        estimate=chain[-1].volume,
        bound=h ** ((d * d + d - 2) / 2.0) * gap,
        tolerance=containment_tol,
        passed=passed,
        witnesses=witnesses,
        notes=notes,
    )
    report.witnesses.append({"rho": float(rho),
                             "recursion_rel_err": recursion_err})
    return chain, report


def lemma1_conclusion(curve: SimpleCurve, samples, alpha: float,
                      B_est: float) -> CheckReport:
    """B^{-1/alpha} (s-t)^{1/alpha + 1 - d(d+1)/2} <=
    phi^(d-1)(s) - phi^(d-1)(t) at every sampled pair, plus the
    occupation cross-check lambda(E_0) >= h on the chain of the closest
    pair.  Where that chain's chord band collapses, the chain stops at its
    planar base box, and a note says the cross-check was skipped."""
    d = curve.d
    _validate_alpha(d, alpha)
    if not B_est > 0:  # B^(-1/alpha) would divide by zero
        raise ConfigError(f"B_est must be positive, got {B_est!r}")
    tolerance = 1e-9
    expo = 1.0 / alpha + 1 - d * (d + 1) / 2.0
    margins, pairs = [], []
    for t, s in samples:
        if not t < s:
            raise ConfigError("samples must satisfy t < s")
        lhs = B_est ** (-1.0 / alpha) * (s - t) ** expo
        rhs = curve.phi(s, d - 1) - curve.phi(t, d - 1)
        margins.append(rhs - lhs)
        pairs.append({"t": t, "s": s, "lhs": lhs, "rhs": rhs})
    i = worst_index([-m for m in margins])
    worst = margins[i]
    witnesses = [pairs[i]]
    passed = bool(worst >= -tolerance)
    # occupation cross-check on the closest pair's chain
    t0, s0 = min(samples, key=lambda p: p[1] - p[0])
    h = s0 - t0
    chain, chain_rep = lemma1_chain(curve, t0, h, n_samples=200)
    if chain[-1].dim < d:
        note = (f"degenerate chord band at t = {t0!r}, h = {h!r}: the chain "
                f"ends at its planar base box; occupation cross-check "
                f"skipped")
    else:
        lam = lambda_measure(curve, [chain[-1]])[0]
        # lambda_measure brackets its crossings to a total width of _TOL
        if lam < h * (1 - 1e-6) - _TOL:
            passed = False
            witnesses.append({"lambda_E0": lam, "h": h})
        if lam >= h:
            note = f"lambda(E_0) = {lam!r} >= h = {h!r}"
        else:
            note = (f"lambda(E_0) = {lam!r} < h = {h!r}; the check allows "
                    f"a shortfall of up to 1e-6 h + _TOL = "
                    f"{h * 1e-6 + _TOL!r}")
    rep = CheckReport(
        check_id="lemma1_conclusion",
        parameters={"d": d, "alpha": alpha, "B_est": B_est,
                    "n_samples": len(list(samples))},
        estimate=worst,
        bound=0.0,
        tolerance=tolerance,
        passed=passed and chain_rep.passed,
        witnesses=witnesses,
        notes=[note],
    )
    return rep


# ---------------------------------------------------------------------------
# K/u shells


def u_of(h) -> float:
    """prod over pairs of |h_i - h_j| with the h_d = 0 convention."""
    return abs(vandermonde(np.concatenate([np.asarray(h, dtype=float),
                                           [0.0]])))


def K_of(h, alpha: float) -> float:
    hh = np.concatenate([np.asarray(h, dtype=float), [0.0]])
    d = hh.size
    spread = float(np.max(hh) - np.min(hh))
    if spread == 0:
        return 0.0
    return u_of(h) * spread ** (1.0 / alpha - d * (d + 1) / 2.0)


def _K_cols(cols: np.ndarray, alpha: float, u: np.ndarray,
            tmp: np.ndarray) -> np.ndarray:
    """K of the gap vectors whose coordinates are the rows of ``cols``
    (shape (d-1, n), d >= 2, h_d = 0 implied), written into ``u`` and
    returned; ``tmp`` is scratch of length n.

    Works column by column and in place: numpy reduces slowly along rows
    of d <= 5 entries, and products, maxima and minima over the columns
    give the same values."""
    d = len(cols) + 1
    for k, (i, j) in enumerate(combinations(range(d), 2)):
        f = u if k == 0 else tmp    # u starts as the first factor
        if j < d - 1:
            np.subtract(cols[i], cols[j], out=f)
            np.abs(f, out=f)
        else:                       # the implied h_d = 0
            np.abs(cols[i], out=f)
        if k:
            u *= f
    expo = 1.0 / alpha - d * (d + 1) / 2.0
    if expo == 0.0:
        # K = u * spread ** 0 where the spread is positive; a zero
        # spread makes every gap 0 and so u = 0 = K
        return u
    spread = (np.maximum.reduce(cols, axis=0, initial=0.0)
              - np.minimum.reduce(cols, axis=0, initial=0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # rows of zero spread keep u = 0 = K
        np.multiply(u, spread ** expo, out=u, where=spread > 0)
    return u


def K_u_geometry(h, alpha: float,
                 scales=(2.0, 10.0)) -> tuple[float, float, CheckReport]:
    """(u(h), K(h)) plus a numerical check that K is homogeneous of
    degree 1/alpha - d."""
    h = np.asarray(h, dtype=float)
    d = h.size + 1
    _validate_alpha(d, alpha)
    u = u_of(h)
    if u == 0:
        # K = u * spread^(...) = 0 at every scale, whatever K's degree
        raise ConfigError(f"u(h) = 0 at h = {h.tolist()} (two equal gaps or "
                          f"a zero gap), so K's homogeneity cannot be tested")
    deg = 1.0 / alpha - d

    def values():
        K = K_of(h, alpha)
        # K(h), then K(lam h) and lam^deg K(h) for each scale
        return [K, *(x for lam in scales
                     for x in (K_of(lam * h, alpha), lam ** deg * K))]

    vals = _normal_doubles(values)
    if vals is None:
        # a ratio of an underflowed or overflowed K measures nothing
        raise ConfigError(f"K at h = {h.tolist()} or at its rescalings by "
                          f"{list(scales)} is 0, subnormal or not finite in "
                          f"doubles at alpha = {alpha} (degree {deg:g}), so "
                          f"K's homogeneity cannot be tested")
    K = vals[0]
    errs = [abs(K_lam - target) / target
            for K_lam, target in zip(vals[1::2], vals[2::2])]
    rep = at_most("K_u_geometry", {"d": d, "alpha": alpha, "h": h.tolist(),
                                   "scales": list(scales)},
                  errs, 1e-12, witnesses=[{"u": u, "K": K, "degree": deg}])
    return u, K, rep


# side of the box [0, BOX_SIDE]^{d-1} that the K-shell sampler draws from
BOX_SIDE = 10.0
# rows per block of the K-shell sampler: a block's columns and kernel
# scratch (1.3 MB at d = 4) fit in a 2 MB L2 cache.  The block size
# changes no estimate: PCG64 spends one 64-bit word per double, so
# consecutive blocks draw the same numbers in the same order as one draw
# of all rows.  A draw split into parts streams each part through blocks
# of _SM_BLOCK // parts rows, so all parts' buffers together stay at one
# block's worth
_SM_BLOCK = 32_768


def _shell_counts(seed: int, d: int, alpha: float, edges: list[float],
                  start: int, stop: int, block: int) -> np.ndarray:
    """For each shell edge e (``edges`` descending, the first the largest),
    the number of samples start..stop-1 of the seeded draw of
    ``sm_shells`` with K <= e.

    The stream of ``default_rng(seed)`` is jumped ahead to sample
    ``start``, (d - 1) words a sample, and the part is streamed through
    blocks of ``block`` rows: each block is drawn into a reused buffer,
    transposed into contiguous columns, reduced to K in place, compared
    once with the largest edge, and the few rows at or below it with the
    smaller edges.  Every comparison is exact, so counts of adjacent parts
    add up to the count of their union."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start * (d - 1))
    n_le = np.zeros(len(edges), dtype=np.int64)
    block = min(block, stop - start)
    rows, cols = np.empty((block, d - 1)), np.empty((d - 1, block))
    K, tmp = np.empty(block), np.empty(block)
    below = np.empty(block, dtype=bool)
    for first in range(start, stop, block):
        n = min(block, stop - first)
        # rng.uniform(0, BOX_SIDE) is BOX_SIDE * rng.random(), draw by draw
        rng.random(out=rows[:n])
        np.multiply(rows[:n].T, BOX_SIDE, out=cols[:, :n])
        Kn = _K_cols(cols[:, :n], alpha, K[:n], tmp[:n])
        kept = Kn[np.less_equal(Kn, edges[0], out=below[:n])]
        n_le[0] += kept.size
        for i in range(1, len(edges)):
            n_le[i] += np.count_nonzero(kept <= edges[i])
    return n_le


def sm_shells(d: int, alpha: float, m_max: int, mc_samples: int = 4_000_000,
              seed: int = 7) -> tuple[list[float], list[int]]:
    """Monte Carlo measures and hit counts of the shells
    {h >= 0: 2^{-m-1} < K(h) <= 2^{-m}}, m = 0..m_max, inside
    [0, BOX_SIDE]^{d-1}, all from one seeded draw of ``mc_samples`` gap
    vectors.

    The draw is cut at ``_SM_BLOCK`` boundaries into contiguous parts,
    ``parts.part_count(blocks)`` of them, each counted by
    ``_shell_counts`` through ``parts.run_parts``.  Each part jumps a copy
    of the seeded PCG64 stream ahead to its own first sample, so the parts
    draw the very numbers of one draw of all rows.  The counts are exact
    integers, so their sums, and so every estimate, are the same for any
    number of parts."""
    if d < 2:
        raise ConfigError(f"gap vectors need d >= 2, got d={d}")
    if not 0 < alpha < 1.0 / d:
        raise ConfigError(f"alpha must lie in (0, 1/d), got {alpha}")
    if m_max < 0 or mc_samples < 1:
        raise ConfigError("m >= 0 and mc_samples >= 1 required")
    # K = u * spread ** (1/alpha - d(d+1)/2), and each of u's d(d-1)/2
    # factors is at most the spread, so K <= spread ** deg <= BOX_SIDE ** deg
    deg = 1.0 / alpha - d
    if _normal_doubles(lambda: [BOX_SIDE ** deg]) is None:
        raise ConfigError(f"K on [0, {BOX_SIDE}]^{d - 1} leaves the doubles "
                          f"at alpha = {alpha}, d = {d}: {BOX_SIDE} ** "
                          f"{deg:g} is not finite")
    edges = [2.0 ** -m for m in range(m_max + 2)]
    blocks = -(-mc_samples // _SM_BLOCK)
    parts = part_count(blocks)
    cuts = [min(mc_samples, blocks * p // parts * _SM_BLOCK)
            for p in range(parts + 1)]
    n_le = sum(run_parts(
        lambda p: _shell_counts(seed, d, alpha, edges, cuts[p], cuts[p + 1],
                                _SM_BLOCK // parts), parts))
    hits = (n_le[:-1] - n_le[1:]).tolist()
    vol = BOX_SIDE ** (d - 1)
    return [vol * h / mc_samples for h in hits], hits


def sm_measure(d: int, alpha: float, m: int, mc_samples: int = 4_000_000,
               seed: int = 7) -> CheckReport:
    """Monte Carlo measure of the shell {h >= 0: 2^{-m-1} < K(h) <= 2^{-m}}
    inside [0, BOX_SIDE]^{d-1}."""
    measures, shell_hits = sm_shells(d, alpha, m, mc_samples=mc_samples,
                                     seed=seed)
    est, hits = measures[m], shell_hits[m]
    rep = CheckReport(
        check_id="sm_measure",
        parameters={"d": d, "alpha": alpha, "m": m, "mc_samples": mc_samples,
                    "seed": seed, "box_side": BOX_SIDE},
        estimate=est,
        passed=hits > 0,
        witnesses=[{"hits": hits}],
    )
    if hits < 100:
        rep.notes.append("fewer than 100 hits; wide confidence interval")
    return rep


def check_J_geq_K(curve: SimpleCurve, sigma_est: float, alpha: float,
                  samples) -> CheckReport:
    """Empirical constant in J(s, h) >= c * sigma^{-1/alpha} * K(h), with
    J evaluated at the nondecreasing rearrangement of {s} union {s+h_j}.

    K is taken per sample pair (s, h); the pairs with K != 0 are swept as
    arrays, with every J from one :func:`jacobian_integral` call."""
    d = curve.d
    _validate_alpha(d, alpha)
    if sigma_est <= 0:
        raise ConfigError("sigma_est must be positive")
    samples = list(samples)
    n = len(samples)
    s = np.array([float(si) for si, _ in samples])
    h = np.array([hi for _, hi in samples], dtype=float).reshape(n, d - 1)
    K = np.array([K_of(hi, alpha) for hi in h])
    kept = np.flatnonzero(K != 0)
    nodes = np.sort(np.concatenate((s[kept, None], s[kept, None] + h[kept]),
                                   axis=1), axis=1)
    J = jacobian_integral(curve.top, nodes[:, 0], np.diff(nodes, axis=1))
    consts = J / (sigma_est ** (-1.0 / alpha) * K[kept])
    i = worst_index((-consts).tolist())
    witness = c_est = None
    if i is not None:
        k = kept[i]
        c_est = float(consts[i])
        witness = {"s": float(s[k]), "h": h[k].tolist(), "J": float(J[i]),
                   "K": float(K[k]), "c": c_est}
    degenerate = n - kept.size
    rep = CheckReport(
        check_id="check_J_geq_K",
        parameters={"d": d, "alpha": alpha, "sigma_est": sigma_est,
                    "n_samples": n},
        estimate=c_est,
        bound=0.0,
        passed=bool(witness is not None and c_est > 0),
        witnesses=[witness] if witness else [],
    )
    if degenerate:
        rep.notes.append(f"{degenerate} samples with collided gaps "
                         "(both sides vanish)")
    return rep
