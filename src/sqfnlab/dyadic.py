"""Dyadic interval systems on [0, 1): navigation, Delta-numbers, doubling.

A system is a translated dyadic grid: level-j intervals are
[k 2^-j + s_j, (k+1) 2^-j + s_j).  Constant shifts keep the parent/child
structure intact; per-level shift tables are allowed for generalized grids
and are validated constructively.  The window [0, 1) is extended over the
reals for shifted systems (measures vanish outside [0, 1], so wrapped cells
simply carry the mass of their visible part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import Measure, dyadic_cell_masses, mass

__all__ = [
    "DyadicSystem",
    "DyadicInterval",
    "DoublingReport",
    "TailTip",
    "STANDARD",
    "navigate",
    "containing_interval",
    "covering_interval",
    "cell_mass",
    "delta",
    "doubling_constant",
    "tail_tip",
    "shifted_systems",
    "parse_interval",
    "check_partition_properties",
]


@dataclass(frozen=True)
class DyadicSystem:
    """A dyadic grid, optionally shifted (constant or per-level table)."""

    name: str
    shift: float = 0.0
    level_shifts: tuple | None = None
    max_level: int = 30

    def shift_at(self, j):
        if self.level_shifts is not None:
            return self.level_shifts[j]
        return self.shift

    def interval(self, j, k):
        return DyadicInterval(self, int(j), int(k))

    def root(self):
        return DyadicInterval(self, 0, 0)


STANDARD = DyadicSystem("std")


@dataclass(frozen=True)
class DyadicInterval:
    """Level-j interval [k 2^-j + shift, (k+1) 2^-j + shift)."""

    system: DyadicSystem
    j: int
    k: int

    def __post_init__(self):
        if self.j < 0 or self.j > self.system.max_level:
            raise ValueError(f"level {self.j} outside 0..{self.system.max_level}")

    @property
    def length(self):
        return 2.0 ** (-self.j)

    @property
    def a(self):
        return self.k * 2.0 ** (-self.j) + self.system.shift_at(self.j)

    @property
    def b(self):
        return (self.k + 1) * 2.0 ** (-self.j) + self.system.shift_at(self.j)

    def bounds(self):
        return self.a, self.b

    def contains_point(self, x):
        return self.a <= x < self.b

    def contains(self, other):
        return self.a <= other.a and other.b <= self.b

    def text(self):
        return f"{self.j}:{self.k}@{self.system.name}"

    def __repr__(self):
        return f"[{self.a:g}, {self.b:g})@{self.system.name}"


def parse_interval(s, systems=None):
    """Inverse of DyadicInterval.text; systems maps name -> DyadicSystem."""
    head, name = s.split("@")
    j, k = head.split(":")
    if systems is None:
        systems = {"std": STANDARD}
    return DyadicInterval(systems[name], int(j), int(k))


def navigate(I: DyadicInterval, step, count=1):
    """parent | left | right | minus_chain(count) | plus_chain(count)."""
    if step == "parent":
        if I.j == 0:
            raise ValueError("root interval has no parent")
        return DyadicInterval(I.system, I.j - 1, I.k >> 1)
    if step == "left":
        return DyadicInterval(I.system, I.j + 1, 2 * I.k)
    if step == "right":
        return DyadicInterval(I.system, I.j + 1, 2 * I.k + 1)
    if step == "minus_chain":
        out = I
        for _ in range(count):
            out = navigate(out, "left")
        return out
    if step == "plus_chain":
        out = I
        for _ in range(count):
            out = navigate(out, "right")
        return out
    raise ValueError(f"unknown step {step!r}")


def check_partition_properties(system: DyadicSystem, depth=8):
    """Constructive check of the grid axioms up to the given depth.

    Each level must partition the (extended) window with cells of length
    2^-j, and every cell must split into exactly two cells of the next
    level.  For per-level shift tables this requires the shifts to agree
    modulo the finer grid.
    """
    for j in range(depth):
        s0 = system.shift_at(j)
        s1 = system.shift_at(j + 1)
        q = (s0 - s1) * 2.0 ** (j + 1)
        if abs(q - round(q)) > 1e-12:
            raise ValueError(
                f"{system.name}: level {j} cells do not split into level "
                f"{j + 1} cells (shift mismatch)")
    return True


def containing_interval(system: DyadicSystem, x, level):
    """The unique level-`level` interval of the system containing x."""
    if level > system.max_level:
        raise ValueError("level overflow")
    k = math.floor((x - system.shift_at(level)) * (1 << level))
    return DyadicInterval(system, level, k)


def covering_interval(systems, x, r):
    """An interval J from one of the systems with [x-r, x+r] inside J.

    Uses the level with 2^-j in [8r, 16r), so |J| <= 8 * (2r); the grids
    must include two (or three) mutually shifted copies for the cover to
    exist for every position (boundaries of distinct grids at the same
    level stay at least 2^-j / 3 apart).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if r > 2.0 ** -3:
        raise ValueError("radius above the covering threshold 2^-3")
    j = math.floor(math.log2(1.0 / (8.0 * r)))
    # guard against roundoff on the band edge
    while 2.0 ** (-j) < 8.0 * r:
        j -= 1
    while 2.0 ** (-j) >= 16.0 * r:
        j += 1
    for system in systems:
        J = containing_interval(system, x - r, j)
        if x + r <= J.b:
            return J
    raise AssertionError("no covering interval; incompatible system shifts")


def shifted_systems(count):
    """Mutually shifted dyadic grids (the classic 1/3-shift family)."""
    if count not in (2, 3):
        raise ValueError("count must be 2 or 3")
    shifts = [0.0, 1.0 / 3.0, 2.0 / 3.0][:count]
    names = ["std", "third", "twothird"][:count]
    return [DyadicSystem(n, s) for n, s in zip(names, shifts)]


# ---------------------------------------------------------------------------
# Delta-numbers


def cell_mass(m: Measure, I: DyadicInterval):
    """m(I) for a cell of the standard grid, from the per-level cache."""
    if I.system.shift_at(I.j) != 0.0 or not 0 <= I.k < 1 << I.j:
        raise ValueError(f"{I} is not a standard dyadic cell")
    return float(dyadic_cell_masses(m, I.j)[I.k])


def delta(mu: Measure, nu: Measure, I):
    """|mu(I_-)/mu(I) - nu(I_-)/nu(I)|; 0 when either denominator is 0.

    I is a standard DyadicInterval, read from the cell masses of its level
    and the next, or an (a, b) pair, measured directly.
    """
    if isinstance(I, DyadicInterval):
        L = navigate(I, "left")
        mI, nI = cell_mass(mu, I), cell_mass(nu, I)
        mL, nL = cell_mass(mu, L), cell_mass(nu, L)
    else:
        a, b = float(I[0]), float(I[1])
        mid = 0.5 * (a + b)
        mI, nI = mass(mu, a, b), mass(nu, a, b)
        mL, nL = mass(mu, a, mid), mass(nu, a, mid)
    if mI == 0.0 or nI == 0.0:
        return 0.0
    return abs(mL / mI - nL / nI)


# ---------------------------------------------------------------------------
# doubling


@dataclass(frozen=True)
class DoublingReport:
    constant: float
    worst_interval: DyadicInterval | None
    depth_checked: int


def doubling_constant(nu: Measure, depth=10) -> DoublingReport:
    """Exact max of nu(parent)/nu(child) over standard levels 1..depth.

    A zero-mass child below a positive-mass parent (or any zero-mass cell,
    which violates the precondition) yields an infinite constant with the
    offending interval as witness.
    """
    worst = 1.0
    witness = None
    prev = dyadic_cell_masses(nu, 0)
    for lev in range(1, depth + 1):
        cells = dyadic_cell_masses(nu, lev)
        parents = np.repeat(prev, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(cells > 0.0,
                             parents / np.where(cells > 0, cells, 1.0), np.inf)
        i = int(np.argmax(ratio))
        if ratio[i] > worst:
            worst = float(ratio[i])
            witness = DyadicInterval(STANDARD, lev, i)
        if not np.isfinite(worst):
            break
        prev = cells
    return DoublingReport(worst, witness, depth)


# ---------------------------------------------------------------------------
# Tail / Tip index sets


@dataclass(frozen=True)
class TailTip:
    """The two nested branches below I used by the Delta-vs-alpha estimate.

    tail_minus: I, I_-, I_--, ... (N1 + 1 intervals)
    tail_plus:  right descendants of I_-: (I_-)_+, ((I_-)_+)_+, ...
                (N2 + 1 intervals; empty in the degenerate N2 = -1 case)
    tip: the next interval of each branch (empty when both chains are
         infinite: the nested intersection is a single point)
    """

    tail_minus: tuple
    tail_plus: tuple
    tip: tuple
    n1: object
    n2: object
    truncated: bool = False

    @property
    def tail(self):
        return self.tail_minus + self.tail_plus


def tail_tip(I: DyadicInterval, n1, n2) -> TailTip:
    """Index sets Tail_I(N1, N2) and Tip_I.

    N1 >= 0 and N2 >= -1 (N2 = -1 only with N1 = 0, giving Tail = {I} and
    Tip = I_-).  Infinite values truncate the chains at the system's max
    level and flag the result; the tip is then empty.
    """
    inf1 = n1 == math.inf
    inf2 = n2 == math.inf
    if not inf1 and n1 < 0:
        raise ValueError("N1 must be >= 0")
    if not inf2 and n2 < -1:
        raise ValueError("N2 must be >= -1")
    if not inf2 and n2 == -1 and n1 != 0:
        raise ValueError("N2 = -1 requires N1 = 0")
    cap = I.system.max_level - I.j - 2
    truncated = False
    if inf1 or n1 > cap:
        n1_eff, truncated = cap, True
    else:
        n1_eff = int(n1)
    if inf2 or n2 > cap:
        n2_eff, truncated = cap, True
    else:
        n2_eff = int(n2)
    if n1_eff < 0 or n2_eff < -1:
        raise ValueError("level overflow")

    minus = [I]
    for _ in range(n1_eff):
        minus.append(navigate(minus[-1], "left"))
    I_minus = navigate(I, "left")
    plus = []
    cur = I_minus
    for _ in range(n2_eff + 1):
        cur = navigate(cur, "right")
        plus.append(cur)
    tip = []
    if not inf1 and n1 <= cap:
        tip.append(navigate(minus[-1], "left"))
    if not inf2 and n2 <= cap:
        base = plus[-1] if plus else I_minus
        tip.append(navigate(base, "right"))
    # report the union: drop tip pieces nested inside another piece (the
    # degenerate N2 = -1 case yields right(I_-) inside left(I))
    tip = [T for T in tip
           if not any(U is not T and U.contains(T) for U in tip)]
    return TailTip(tuple(minus), tuple(plus), tuple(tip), n1, n2, truncated)
