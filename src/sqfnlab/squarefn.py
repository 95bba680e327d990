"""Square functions, Carleson sums, the L2 alpha bound, and CZ splitting.

The dyadic square function accumulates squared alpha-numbers along each
point's chain of dyadic intervals; the continuous variant integrates
squared smooth alpha-numbers of balls over scales.  Linear growth in depth
flags singular parts; converging partial sums flag absolute continuity.

Every dyadic walk here is a level sweep over dyadic_cell_masses and
AlphaTable.alphas, the one fallback to per-entry alphas on unfilled levels.
delta_level_sums and _pruned_terms make each cell's Delta^2 mu and alpha^2
mu once per pair and depth, kept read-only in the pair's AlphaTable, for
the Buckley, L2 and tree.carleson_comparison sums.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .measure import (
    BoundaryAtomWarning,
    Measure,
    dyadic_cell_masses,
    mass,
    restrict,
    scale,
    combine,
)
from .dyadic import (
    STANDARD,
    _check_depth,
    _require_charged,
    containing_interval,
)
from .alpha import Ball, _nu_tent_mass, alpha_smooth, alpha_table

__all__ = [
    "SquareFunctionProfile",
    "CZDecomposition",
    "mu_sampled_points",
    "dyadic_square_profile",
    "continuous_square_profile",
    "buckley_ratio",
    "delta_level_sums",
    "tolsa_l2",
    "cz_decompose",
    "domination_check",
]


@dataclass(frozen=True)
class SquareFunctionProfile:
    """Per-point partial sums of squared alphas over depths or scales."""

    points: np.ndarray
    grid: np.ndarray  # depths (dyadic) or radii (continuous, decreasing)
    partial_sums: np.ndarray  # shape (len(points), len(grid))
    mode: str

    def slopes(self):
        """Average increment per grid step for each point (tail half)."""
        n = self.partial_sums.shape[1]
        half = n // 2
        span = self.grid[-1] - self.grid[half] if self.mode == "dyadic" else \
            math.log(self.grid[half] / self.grid[-1])
        if span == 0:
            return np.zeros(len(self.points))
        return (self.partial_sums[:, -1] - self.partial_sums[:, half]) / span

    def final_increments(self, start_index):
        """Total growth of each partial sum past the given grid index."""
        return self.partial_sums[:, -1] - self.partial_sums[:, start_index]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            key = "depth" if self.mode == "dyadic" else "radius"
            w.writerow(["point", key, "partial_sum"])
            for i, x in enumerate(self.points):
                for g, s in zip(self.grid, self.partial_sums[i]):
                    w.writerow([repr(float(x)), repr(float(g)),
                                repr(float(s))])


def mu_sampled_points(mu: Measure, n, depth, seed=0):
    """Cell centers at the working depth, drawn with probability ~ mass."""
    _check_depth(depth)
    rng = np.random.default_rng(seed)
    cells = dyadic_cell_masses(mu, depth)
    total = cells.sum()
    if total <= 0:
        raise ValueError("measure has no mass")
    idx = rng.choice(cells.size, size=n, p=cells / total)
    return (idx + 0.5) / cells.size


def dyadic_square_profile(mu: Measure, nu: Measure, points=(), depth=12):
    """Partial sums of alpha^2 along each point's standard dyadic chain."""
    _check_depth(depth)
    pts = np.asarray(points, dtype=float)
    if not np.all((pts >= 0.0) & (pts < 1.0)):
        raise ValueError("sample points must be finite and lie in [0, 1)")
    table = alpha_table(mu, nu)
    scaled = pts * (1 << depth)
    if np.any(scaled == np.floor(scaled)):
        warnings.warn("sample point on a dyadic boundary",
                      BoundaryAtomWarning)
    a = np.stack([table.alphas(j, np.floor(pts * (1 << j)).astype(np.int64))
                  for j in range(depth + 1)], axis=1)
    # np.cumsum adds along each row in sequence, as a running sum does
    return SquareFunctionProfile(pts, np.arange(depth + 1),
                                 np.cumsum(a * a, axis=1), "dyadic")


def continuous_square_profile(mu: Measure, nu: Measure, points, r_min):
    """Trapezoid quadrature of alpha_s^2(B(x, r)) dr/r from r_min to 1.

    The grid starts at 4 nodes per octave and is refined (nodes per octave
    doubled) until the total changes by less than 1%.  Partial sums run
    from r = 1 downward, so they grow as the radius shrinks.
    """
    if r_min <= 0 or r_min >= 1:
        raise ValueError("need 0 < r_min < 1")
    pts = np.asarray(points, dtype=float)

    def quad(ppo):
        n_oct = math.log2(1.0 / r_min)
        n = max(2, int(round(n_oct * ppo)) + 1)
        t = np.linspace(math.log(r_min), 0.0, n)
        radii = np.exp(t)
        vals = np.empty((pts.size, n))
        for i, x in enumerate(pts):
            for j, r in enumerate(radii):
                ball = Ball(float(x), float(r))
                vals[i, j] = alpha_smooth(mu, nu, ball) ** 2
        dt = t[1] - t[0]
        # cumulative trapezoid from the top scale (r = 1) downward
        seg = (vals[:, 1:] + vals[:, :-1]) / 2.0 * dt
        csum = np.concatenate(
            [np.zeros((pts.size, 1)), np.cumsum(seg[:, ::-1], axis=1)], axis=1)
        return radii[::-1], csum  # radii decreasing, sums increasing

    ppo = 4
    radii, sums = quad(ppo)
    for _ in range(3):
        radii2, sums2 = quad(2 * ppo)
        tot1, tot2 = sums[:, -1], sums2[:, -1]
        denom = np.maximum(np.abs(tot2), 1e-30)
        if np.all(np.abs(tot2 - tot1) / denom < 0.01):
            radii, sums = radii2, sums2
            break
        ppo *= 2
        radii, sums = radii2, sums2
    return SquareFunctionProfile(pts, radii, sums, "continuous")


# ---------------------------------------------------------------------------
# Carleson sums and the Buckley ratio


def _level_memo(mu, nu, key, make):
    """The per-level arrays that make() returns, made once per pair and key
    and kept read-only in the pair's AlphaTable.sums."""
    sums = alpha_table(mu, nu).sums
    if key not in sums:
        levels = make()
        for a in levels:
            a.setflags(write=False)
        sums[key] = levels
    return sums[key]


def _pruned_terms(mu, nu, depth):
    """Per-level alpha(I)^2 mu(I) over the standard cells to the depth.

    Entry j lists the 2^j cells of level j.  Alphas are read only where mu
    charges the cell, and nu must charge those cells too.  Cells where both
    measures are uniform read exactly 0.0, as do all cells below them.
    """
    def terms():
        table = alpha_table(mu, nu)
        out = []
        for j in range(depth + 1):
            mI = dyadic_cell_masses(mu, j)
            k = np.flatnonzero(mI)
            _require_charged(nu, j, k)
            a = table.alphas(j, k)
            t = np.zeros(1 << j)
            t[k] = a * a * mI[k]
            out.append(t)
        return out

    return _level_memo(mu, nu, ("alpha", depth), terms)


def _subtree_sums(terms):
    """Bottom-up sums: each cell's term plus the sums of its two children."""
    sums = [terms[-1]]
    for t in terms[-2::-1]:
        kids = sums[-1]
        sums.append(t + kids[0::2] + kids[1::2])
    return sums[::-1]


def delta_level_sums(mu: Measure, nu: Measure, depth):
    """Per-level arrays of Delta^2(I) mu(I) and subtree sums, vectorized.

    Returns (contrib, subtree): contrib[j][k] is the term of the
    level-j cell, subtree[j][k] the full truncated Carleson sum below it.
    """
    _check_depth(depth)

    def terms():
        contrib = []
        for j in range(depth + 1):
            mI, nI = dyadic_cell_masses(mu, j), dyadic_cell_masses(nu, j)
            mL, nL = (dyadic_cell_masses(m, j + 1)[0::2] for m in (mu, nu))
            ok = (mI > 0) & (nI > 0)
            d = np.zeros_like(mI)
            d[ok] = np.abs(mL[ok] / mI[ok] - nL[ok] / nI[ok])
            contrib.append(d * d * mI)
        return contrib + _subtree_sums(contrib)

    levels = _level_memo(mu, nu, ("delta", depth), terms)
    return levels[:depth + 1], levels[depth + 1:]


def buckley_ratio(mu: Measure, nu: Measure, depth, which="delta"):
    """sup over J (level <= depth/2) of sum_{I in J} coef(I)^2 mu(I) / mu(J).

    I runs down to the depth; which picks Delta- or alpha-numbers as coef.
    """
    _check_depth(depth)
    if which == "delta":
        _, subtree = delta_level_sums(mu, nu, depth)
    elif which == "alpha":
        subtree = _subtree_sums(_pruned_terms(mu, nu, depth))
    else:
        raise ValueError(f"which must be 'delta' or 'alpha', not {which!r}")
    cells = (dyadic_cell_masses(mu, j) for j in range(depth // 2 + 1))
    return max(float(np.max(s[m > 0] / m[m > 0], initial=0.0))
               for s, m in zip(subtree, cells))


# ---------------------------------------------------------------------------
# Tolsa-style L2 bound


def tolsa_l2(gdensity: Measure, nu: Measure, depth=8):
    """(lhs, l2norm, ratio) for the squared-alpha L2 bound.

    gdensity is mu = g dnu with g piecewise constant on the dyadic cells of
    level ceil(log2(pieces)), read from its piece count.  lhs sums
    alpha^2(I) mu(I)^2 / nu(I) over levels <= depth; l2norm is int g^2 dnu.
    lhs adds the terms of _pruned_terms (nu must charge where mu does) in
    depth-first preorder, as level order rounds differently.
    """
    _check_depth(depth)
    mu = gdensity
    if mu.atom_x.size:
        raise ValueError("density measure cannot carry atoms")
    level = math.ceil(math.log2(max(mu.piece_l.size, 1)))
    mu_cells, nu_cells = (dyadic_cell_masses(m, level) for m in (mu, nu))
    if np.any((mu_cells > 0) & (nu_cells == 0)):
        raise ValueError("mu is not absolutely continuous at g-resolution")
    ok = nu_cells > 0
    l2 = float(np.sum(mu_cells[ok] ** 2 / nu_cells[ok]))
    terms, keys = [], []
    for j, t in enumerate(_pruned_terms(mu, nu, depth)):
        mI, nI = dyadic_cell_masses(mu, j), dyadic_cell_masses(nu, j)
        k = np.flatnonzero(mI)
        terms.append(t[k] * mI[k] / nI[k])
        keys.append(k << (depth - j) << 5 | j)  # left end, then level
    terms = np.concatenate(terms)[np.argsort(np.concatenate(keys))]
    lhs = float(np.cumsum(np.append(0.0, terms))[-1])
    ratio = lhs / l2 if l2 > 0 else 0.0
    return lhs, l2, ratio


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition


@dataclass(frozen=True)
class CZDecomposition:
    lam: float
    bad: tuple  # maximal intervals with mu(I) > lam nu(I)
    good: Measure
    bad_ratios: tuple  # mu(I)/nu(I) per bad interval
    depth: int

    def bad_union_nu(self, nu: Measure):
        return sum(float(dyadic_cell_masses(nu, I.j)[I.k]) for I in self.bad)


def cz_decompose(mu: Measure, nu: Measure, lam, depth=10) -> CZDecomposition:
    """Split mu at level lam relative to nu on the standard grid.

    Maximal dyadic intervals with mu(I) > lam nu(I) become the bad set;
    the good part is mu off their union plus (mu(I)/nu(I)) nu on each bad
    interval.  Bad parts b_I = mu|_I - (mu(I)/nu(I)) nu|_I have zero mass
    by construction.  Bad intervals are listed by left end.
    """
    _check_depth(depth)
    if not 1 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and at least 1, not {lam!r}")
    found = []  # (levels, indices, ratios) of each level's bad cells
    k = np.zeros(1, dtype=np.int64)  # the level's cells still scanned
    for j in range(depth + 1):
        mI, nI = dyadic_cell_masses(mu, j)[k], dyadic_cell_masses(nu, j)[k]
        over = (nI > 0) & (mI > lam * nI)
        found.append((np.full(over.sum(), j), k[over], mI[over] / nI[over]))
        k = (2 * k[~over & (mI > 0)][:, None] + [0, 1]).ravel()  # children
    js, ks, ratios = (np.concatenate(v) for v in zip(*found))
    order = np.argsort(ks << (depth - js))  # by left end
    bad = list(map(STANDARD.interval, js[order].tolist(), ks[order].tolist()))
    ratios = ratios[order].tolist()
    parts = []
    cursor = 0.0
    for I, r in zip(bad, ratios):
        if I.a > cursor:
            parts.append(restrict(mu, cursor, I.a))
        # the cell masses fold an atom at 1 into the last cell, so a part
        # ending at 1 keeps it
        parts.append(scale(restrict(nu, I.a, I.b, closed_right=I.b == 1.0),
                           r))
        cursor = I.b
    if cursor < 1.0:
        parts.append(restrict(mu, cursor, 1.0, closed_right=True))
    good = combine(parts)
    return CZDecomposition(float(lam), tuple(bad), good, tuple(ratios), depth)


# ---------------------------------------------------------------------------
# continuous-vs-dyadic domination


@dataclass(frozen=True)
class DominationReport:
    x: float
    r: float
    alpha_s_sq: float
    bound: float
    covering: tuple
    ok: bool


def domination_check(mu: Measure, nu: Measure, x, r,
                     systems) -> DominationReport:
    """alpha_s^2(B(x, r)) against the best shifted-system interval bound.

    For each system whose level-j interval J contains B (with
    2^-j in [8r, 16r)), the stability and smoothness bounds give
    alpha_s(B) <= (2/theta)(nu(phi_J)/nu(phi_B)) * (2/nu_J(phi)) alpha(J)
    with theta = 2r/|J|; the check asserts the square of the smallest such
    bound dominates alpha_s^2(B).
    """
    ball = Ball(float(x), float(r))
    table = alpha_table(mu, nu)
    a_s2 = alpha_smooth(mu, nu, ball) ** 2
    nu_phi_B = _nu_tent_mass(mu, nu, ball)
    j = math.floor(math.log2(1.0 / (8.0 * r)))
    while 2.0 ** (-j) < 8.0 * r:
        j -= 1
    while 2.0 ** (-j) >= 16.0 * r:
        j += 1
    j = max(j, 0)
    best = math.inf
    used = []
    for system in systems:
        J = containing_interval(system, x - r, j)
        if x + r > J.b:
            continue
        a_J = table.alpha(J)
        nJ = mass(nu, J.a, J.b)
        nu_phi_J = _nu_tent_mass(mu, nu, J)
        if nu_phi_J <= 0 or nu_phi_B <= 0 or nJ <= 0:
            continue
        theta = 2.0 * r / J.length
        K = ((2.0 / theta) * (nu_phi_J / nu_phi_B)
             * (2.0 * nJ / nu_phi_J)) ** 2
        bound = K * a_J ** 2
        if bound < best:
            best = bound
        used.append(J)
    ok = a_s2 <= best + 1e-9
    return DominationReport(float(x), float(r), a_s2, best, tuple(used), ok)
