"""Dyadic interval systems on [0, 1): navigation, Delta-numbers, doubling.

A system is a translated dyadic grid: level-j intervals are
[k 2^-j + s, (k+1) 2^-j + s) for a constant shift s, which keeps the
parent/child structure intact.  The window [0, 1) is extended over the
reals for shifted systems (measures vanish outside [0, 1], so wrapped cells
simply carry the mass of their visible part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import MAX_LEVEL, Measure, _is_int, dyadic_cell_masses, mass

__all__ = [
    "DyadicSystem",
    "DyadicInterval",
    "DoublingReport",
    "DEPTH_CAP",
    "MAX_LEVEL",
    "STANDARD",
    "navigate",
    "containing_interval",
    "cell_mass",
    "delta",
    "doubling_constant",
    "shifted_systems",
]


# the deepest level a sweep may reach: level j's cell arrays hold 2^j floats,
# and delta_level_sums reads one level below its depth
DEPTH_CAP = 24


def _check_depth(depth, name="depth"):
    if not (_is_int(depth) and 0 <= depth <= DEPTH_CAP):
        raise ValueError(f"{name} must be an integer in 0..{DEPTH_CAP}, "
                         f"not {depth!r}")


@dataclass(frozen=True)
class DyadicSystem:
    """A dyadic grid, optionally shifted by a constant."""

    name: str
    shift: float = 0.0

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
        if self.j < 0 or self.j > MAX_LEVEL:
            raise ValueError(f"level {self.j} outside 0..{MAX_LEVEL}")

    @property
    def length(self):
        return 2.0 ** (-self.j)

    @property
    def a(self):
        return self.k * 2.0 ** (-self.j) + self.system.shift

    @property
    def b(self):
        return (self.k + 1) * 2.0 ** (-self.j) + self.system.shift

    def bounds(self):
        return self.a, self.b

    def __repr__(self):
        return f"[{self.a:g}, {self.b:g})@{self.system.name}"


def navigate(I: DyadicInterval, step):
    """The parent, left child or right child of I (step names which)."""
    if step == "parent":
        if I.j == 0:
            raise ValueError("root interval has no parent")
        return DyadicInterval(I.system, I.j - 1, I.k >> 1)
    if step == "left":
        return DyadicInterval(I.system, I.j + 1, 2 * I.k)
    if step == "right":
        return DyadicInterval(I.system, I.j + 1, 2 * I.k + 1)
    raise ValueError(f"unknown step {step!r}")


def containing_interval(system: DyadicSystem, x, level):
    """The unique level-`level` interval of the system containing x."""
    k = math.floor((x - system.shift) * (1 << level))
    return DyadicInterval(system, level, k)


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
    if I.system.shift != 0.0 or not 0 <= I.k < 1 << I.j:
        raise ValueError(f"{I} is not a standard dyadic cell")
    return float(dyadic_cell_masses(m, I.j)[I.k])


def _require_charged(nu: Measure, j, k):
    """Raise on the first standard level-j cell of k that nu leaves bare."""
    bare = k[dyadic_cell_masses(nu, j)[k] == 0.0]
    if bare.size:
        I = STANDARD.interval(j, bare[0])
        raise ValueError(f"nu vanishes on {I}: doubling violation")


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
    _check_depth(depth)
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
