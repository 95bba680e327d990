"""Transport alpha-numbers of interval and ball blow-ups.

alpha(I) is the supported Wasserstein distance between the probability
blow-ups of two measures onto I.  alpha_smooth(I) normalizes the blow-ups
by the tent-weighted masses mu(phi_I), nu(phi_I) instead; this variant is
stable under moving to comparable enclosing intervals, which the plain
version is not.  alpha_table(mu, nu) memoizes the plain alpha and the tent
masses once per pair on mu; the smooth variant is computed when asked.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .measure import (
    Measure,
    ZERO,
    _overlap,
    blowup,
    integrate,
    is_uniform_on,
    mass,
    phi_tent,
    scale,
)
from .dyadic import DyadicInterval
from .transport import w1_supported

__all__ = [
    "Ball",
    "AlphaEntry",
    "AlphaTable",
    "alpha_table",
    "alpha",
    "alpha_smooth",
    "smooth_bounds_check",
    "stability_check",
    "epsilon_for_doubling",
    "select_ball",
]

_PHI = phi_tent()


@dataclass(frozen=True)
class Ball:
    """Closed ball B(x, r) on the line."""

    x: float
    r: float

    def bounds(self):
        return self.x - self.r, self.x + self.r


def _interval_bounds(I):
    """(a, b, closed_right) for DyadicInterval, Ball, or plain tuple."""
    if isinstance(I, DyadicInterval):
        return I.a, I.b, False
    if isinstance(I, Ball):
        a, b = I.bounds()
        return a, b, True
    if len(I) == 3:
        a, b, closed = I
        return float(a), float(b), bool(closed)
    a, b = I
    return float(a), float(b), False


@dataclass(frozen=True)
class AlphaEntry:
    alpha: float
    mu_phi: float
    nu_phi: float
    one_sided_zero: bool


class AlphaTable:
    """Memoized alpha entries for a fixed measure pair, keyed on bounds."""

    def __init__(self, mu: Measure, nu: Measure):
        # weak: mu keeps this table, so a strong reference would be a cycle
        self._mu = weakref.ref(mu)
        self.nu = nu
        self._entries = {}

    def entry(self, I) -> AlphaEntry:
        key = _interval_bounds(I)
        e = self._entries.get(key)
        if e is None:
            e = self._entries[key] = _compute_entry(self._mu(), self.nu, *key)
        return e

    def alpha(self, I):
        return self.entry(I).alpha

    def flagged(self):
        """(a, b, closed) of entries with exactly one tent mass zero."""
        return [k for k, e in self._entries.items() if e.one_sided_zero]

    def __len__(self):
        return len(self._entries)


def alpha_table(mu: Measure, nu: Measure) -> AlphaTable:
    """The pair's one AlphaTable, kept on mu and created on first use."""
    tables = mu._memo("_alpha_tables")  # id(nu) -> AlphaTable
    table = tables.get(id(nu))
    if table is None or table.nu is not nu:
        table = tables[id(nu)] = AlphaTable(mu, nu)
    return table


def _uniform_densities(mu, nu, a, b, closed):
    """(cu, cv) when both measures charge [a, b) uniformly, else None."""
    if 0.0 <= a and b <= 1.0 and not closed:
        cu = is_uniform_on(mu, a, b)
        cv = is_uniform_on(nu, a, b)
        if cu is not None and cv is not None and cu > 0.0 and cv > 0.0:
            return cu, cv
    return None


def _w1_normalized(bu, cu, bv, cv):
    """Supported W1 of bu / cu and bv / cv, a zero divisor giving ZERO."""
    return w1_supported(scale(bu, 1.0 / cu) if cu > 0 else ZERO,
                        scale(bv, 1.0 / cv) if cv > 0 else ZERO).value


def _compute_entry(mu, nu, a, b, closed):
    uniform = _uniform_densities(mu, nu, a, b, closed)
    if uniform is not None:
        L = b - a
        return AlphaEntry(0.0, uniform[0] * L / 4.0, uniform[1] * L / 4.0,
                          False)
    bu = blowup(mu, a, b, closed_right=closed)
    bv = blowup(nu, a, b, closed_right=closed)
    a_plain = _w1_normalized(bu, bu.total, bv, bv.total)
    mu_phi = integrate(bu, _PHI)
    nu_phi = integrate(bv, _PHI)
    flag = (mu_phi == 0.0) != (nu_phi == 0.0) and (bu.total > 0 and bv.total > 0)
    return AlphaEntry(a_plain, mu_phi, nu_phi, flag)


def alpha(mu: Measure, nu: Measure, I):
    """W1 of the probability blow-ups onto I (0 vs anything gives W1 = 0)."""
    return alpha_table(mu, nu).alpha(I)


def alpha_smooth(mu: Measure, nu: Measure, I):
    """W1 of the tent-normalized blow-ups onto I, computed on every call."""
    a, b, closed = _interval_bounds(I)
    e = alpha_table(mu, nu).entry(I)
    if _uniform_densities(mu, nu, a, b, closed) is not None:
        return 0.0
    return _w1_normalized(blowup(mu, a, b, closed_right=closed), e.mu_phi,
                          blowup(nu, a, b, closed_right=closed), e.nu_phi)


@dataclass(frozen=True)
class SmoothBoundsReport:
    alpha_smooth: float
    bound_const: float
    bound_alpha: float
    ok: bool


def smooth_bounds_check(mu: Measure, nu: Measure, I) -> SmoothBoundsReport:
    """Check alpha_s <= 2 and alpha_s <= 2 alpha / nu_I(phi)."""
    a, b, closed = _interval_bounds(I)
    e = alpha_table(mu, nu).entry(I)
    nI = mass(nu, a, b, closed_right=closed)
    if e.nu_phi <= 0.0 or nI <= 0.0:
        raise ValueError("smooth bounds need nu(phi_I) > 0")
    nu_frac = e.nu_phi / nI
    bound_alpha = 2.0 * e.alpha / nu_frac
    a_s = alpha_smooth(mu, nu, I)
    ok = a_s <= min(2.0, bound_alpha) + 1e-9
    return SmoothBoundsReport(a_s, 2.0, bound_alpha, ok)


@dataclass(frozen=True)
class StabilityReport:
    alpha_s_inner: float
    alpha_s_outer: float
    theta: float
    bound: float
    observed_ratio: float
    ok: bool


def stability_check(mu: Measure, nu: Measure, inner, outer,
                    theta=None) -> StabilityReport:
    """Check alpha_s(I) <= (2/theta) (nu(phi_J)/nu(phi_I)) alpha_s(J).

    inner = I must sit inside outer = J with |I| >= theta |J|.  The
    constant is the explicit one from the comparability proof: a test
    function for I, transplanted to J's coordinates, is (1/theta)-Lipschitz
    and dominated by phi_J / theta, and renormalizing multiplies by the
    ratio of the tent masses.
    """
    a1, b1, c1 = _interval_bounds(inner)
    a2, b2, c2 = _interval_bounds(outer)
    if not (a2 <= a1 and b1 <= b2):
        raise ValueError("inner interval must sit inside outer")
    if theta is None:
        theta = (b1 - a1) / (b2 - a2)
    if theta <= 0:
        raise ValueError("theta must be positive")
    if (b1 - a1) < theta * (b2 - a2) - 1e-12:
        raise ValueError("|inner| < theta |outer|")
    table = alpha_table(mu, nu)
    nu_phi_I, nu_phi_J = table.entry(inner).nu_phi, table.entry(outer).nu_phi
    if nu_phi_I <= 0.0:
        raise ValueError("stability needs nu(phi_I) > 0")
    s_I, s_J = alpha_smooth(mu, nu, inner), alpha_smooth(mu, nu, outer)
    bound = (2.0 / theta) * (nu_phi_J / nu_phi_I) * s_J
    ratio = s_I / s_J if s_J > 0 else math.inf
    ok = s_I <= bound + 1e-9
    return StabilityReport(s_I, s_J, theta, bound, ratio, ok)


def epsilon_for_doubling(D):
    """(eps, C) such that alpha(I) < eps forces mu(I) <= C min(children).

    The test-function argument ramps from 0 to 1 over |I|/8 (Lipschitz
    constant 8 at unit scale), and the second grandchild has nu-fraction at
    least 1/D^3, giving eps = 1/(16 D^3) and C = 2 D^3.
    """
    if D < 1:
        raise ValueError("doubling constant must be >= 1")
    return 1.0 / (16.0 * D ** 3), 2.0 * D ** 3


def select_ball(mu: Measure, nu: Measure, I: DyadicInterval, samples=8,
                seed=0) -> Ball:
    """A near-optimal ball B(x, r) around I at the 2^10-separated scale.

    Centers range over the mu-charged points of I (atoms, midpoints of
    overlapping density pieces, interval midpoint as fallback); radii are
    log-spaced in the band [1.1 * 2^(-k+9), 0.9 * 2^(-k+10)] for level k.
    The returned ball minimizes alpha_smooth over the sampled grid, hence
    sits within any fixed slack factor of the sampled infimum.  The band
    gap between consecutive levels (0.2 * 2^(-k+10) > |parent|) makes the
    selection monotone: nested intervals get nested balls.
    """
    k = I.j
    a, b = I.a, I.b
    at, pc = _overlap(mu, a, b)
    lo = np.maximum(mu.piece_l[pc], a)
    hi = np.minimum(mu.piece_r[pc], b)
    centers = mu.atom_x[at].tolist() + ((lo + hi) / 2.0).tolist()
    if not centers:
        raise ValueError("interval does not meet the support of mu")
    centers = sorted(set(centers))[: max(samples, 4)]
    r_lo = 1.1 * 2.0 ** (-k + 9)
    r_hi = 0.9 * 2.0 ** (-k + 10)
    radii = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), samples))
    best = None
    for x in centers:
        for r in radii:
            val = alpha_smooth(mu, nu, Ball(float(x), float(r)))
            if best is None or val < best[0]:
                best = (val, float(x), float(r))
    _, x, r = best
    ball = Ball(x, r)
    assert ball.x - ball.r <= a and b <= ball.x + ball.r
    return ball
