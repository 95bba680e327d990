"""Transport alpha-numbers of interval and ball blow-ups.

alpha(I) is the supported Wasserstein distance between the probability
blow-ups of two measures onto I.  alpha_smooth(I) normalizes the blow-ups
by the tent-weighted masses mu(phi_I), nu(phi_I) instead; this variant is
stable under moving to comparable enclosing intervals, which the plain
version is not.  alpha_table(mu, nu) memoizes the plain alpha and the
one-sided-zero flag once per pair on mu; the smooth variant and the tent
masses are computed when asked.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .measure import (
    Measure,
    ZERO,
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
    "epsilon_for_doubling",
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
    one_sided_zero: bool  # exactly one blow-up has zero tent mass


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


def _tent_null(bm):
    """Whether bm(phi) == 0 for a blow-up bm: phi vanishes only at 0 and 1."""
    return bm.piece_l.size == 0 and bool(
        np.all((bm.atom_x == 0.0) | (bm.atom_x == 1.0)))


def _compute_entry(mu, nu, a, b, closed):
    if _uniform_densities(mu, nu, a, b, closed) is not None:
        return AlphaEntry(0.0, False)
    bu = blowup(mu, a, b, closed_right=closed)
    bv = blowup(nu, a, b, closed_right=closed)
    flag = bu.total > 0 and bv.total > 0 and _tent_null(bu) != _tent_null(bv)
    return AlphaEntry(_w1_normalized(bu, bu.total, bv, bv.total), flag)


def _nu_tent_mass(mu, nu, I):
    """nu(phi_I) of nu's blow-up onto I; c L / 4 when both are uniform on I."""
    a, b, closed = _interval_bounds(I)
    uniform = _uniform_densities(mu, nu, a, b, closed)
    if uniform is not None:
        return uniform[1] * (b - a) / 4.0
    return integrate(blowup(nu, a, b, closed_right=closed), _PHI)


def alpha(mu: Measure, nu: Measure, I):
    """W1 of the probability blow-ups onto I (0 vs anything gives W1 = 0)."""
    return alpha_table(mu, nu).alpha(I)


def alpha_smooth(mu: Measure, nu: Measure, I):
    """W1 of the tent-normalized blow-ups onto I, computed on every call."""
    a, b, closed = _interval_bounds(I)
    alpha_table(mu, nu).entry(I)  # memoized and flagged as a plain read
    if _uniform_densities(mu, nu, a, b, closed) is not None:
        return 0.0
    bu = blowup(mu, a, b, closed_right=closed)
    bv = blowup(nu, a, b, closed_right=closed)
    return _w1_normalized(bu, integrate(bu, _PHI), bv, integrate(bv, _PHI))


@dataclass(frozen=True)
class SmoothBoundsReport:
    alpha_smooth: float
    bound_const: float
    bound_alpha: float
    ok: bool


def smooth_bounds_check(mu: Measure, nu: Measure, I) -> SmoothBoundsReport:
    """Check alpha_s <= 2 and alpha_s <= 2 alpha / nu_I(phi)."""
    a, b, closed = _interval_bounds(I)
    a_plain = alpha_table(mu, nu).alpha(I)
    nu_phi = _nu_tent_mass(mu, nu, I)
    nI = mass(nu, a, b, closed_right=closed)
    if nu_phi <= 0.0 or nI <= 0.0:
        raise ValueError("smooth bounds need nu(phi_I) > 0")
    nu_frac = nu_phi / nI
    bound_alpha = 2.0 * a_plain / nu_frac
    a_s = alpha_smooth(mu, nu, I)
    ok = a_s <= min(2.0, bound_alpha) + 1e-9
    return SmoothBoundsReport(a_s, 2.0, bound_alpha, ok)


def epsilon_for_doubling(D):
    """(eps, C) such that alpha(I) < eps forces mu(I) <= C min(children).

    The test-function argument ramps from 0 to 1 over |I|/8 (Lipschitz
    constant 8 at unit scale), and the second grandchild has nu-fraction at
    least 1/D^3, giving eps = 1/(16 D^3) and C = 2 D^3.
    """
    if D < 1:
        raise ValueError("doubling constant must be >= 1")
    return 1.0 / (16.0 * D ** 3), 2.0 * D ** 3
