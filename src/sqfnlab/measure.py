"""Finite measures on [0, 1] as atoms plus uniform-density pieces.

All generators produce data at dyadic-rational coordinates, so masses of
dyadic cells and integrals of piecewise-linear test functions are exact in
double precision (up to ~1e-15 accumulation).  Measures are immutable after
construction; every operation returns a new value.  The internals are plain
numpy arrays, and interval queries binary-search the sorted atoms and pieces,
so that measures with hundreds of thousands of pieces (deep multiplicative
cascades) stay cheap to restrict, blow up and integrate.

A dyadic level's parts have one reader, _level_parts: it scans every cell
first (its counts, whether its parts tile it, whether it is uniform), then
takes the parts of only the cells a level fill computes, a piece across a
cell edge clipped there as restrict clips it.
"""

from __future__ import annotations

import math
import reprlib
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "Measure",
    "PiecewiseLinearFn",
    "BoundaryAtomWarning",
    "generate",
    "validate_spec",
    "mass",
    "cdf_left_values",
    "cdf_difference",
    "blowup",
    "restrict",
    "normalized_blowup",
    "integrate",
    "combine",
    "scale",
    "dyadic_cell_masses",
    "is_uniform_on",
    "phi_tent",
]

_REL_TOL = 1e-12


class BoundaryAtomWarning(UserWarning):
    """An atom sits on a dyadic boundary used by the experiments."""


def _ro(a):
    arr = np.ascontiguousarray(a, dtype=float)
    arr.setflags(write=False)
    return arr


_EMPTY = _ro(np.empty(0))
_ENDS = _ro([0.0, 1.0])


@dataclass(frozen=True)
class Measure:
    """Nonnegative measure on [0, 1]: point masses plus uniform pieces.

    atom_x, atom_w : sorted atom positions in [0, 1] and their weights.
    piece_l, piece_r, piece_m : disjoint half-open pieces [l, r) carrying
        total mass m with constant density m / (r - l).
    """

    atom_x: np.ndarray
    atom_w: np.ndarray
    piece_l: np.ndarray
    piece_r: np.ndarray
    piece_m: np.ndarray
    total: float = field(default=0.0)

    @staticmethod
    def from_arrays(atom_x, atom_w, piece_l, piece_r, piece_m):
        """A checked Measure from arrays in any order; zero weights dropped."""
        ax, aw, pl, pr, pm = (np.asarray(v, dtype=float).ravel() for v in (
            atom_x, atom_w, piece_l, piece_r, piece_m))
        # an empty part has nothing to drop or sort
        if ax.size or aw.size:
            keep = aw != 0.0
            ax, aw = ax[keep], aw[keep]
            order = np.argsort(ax, kind="stable")
            ax, aw = ax[order], aw[order]
        if pl.size or pr.size or pm.size:
            keep = pm != 0.0
            pl, pr, pm = pl[keep], pr[keep], pm[keep]
            order = np.argsort(pl, kind="stable")
            pl, pr, pm = pl[order], pr[order], pm[order]
        m = _derived(ax, aw, pl, pr, pm)
        m._check()
        return m

    @staticmethod
    def make(atoms=(), pieces=()):
        atoms, pieces = list(atoms), list(pieces)
        return Measure.from_arrays(*([a[i] for a in atoms] for i in range(2)),
                                   *([p[i] for p in pieces] for i in range(3)))

    def _check(self):
        # the total is NaN or infinite when a weight or a mass is; the range
        # checks are written so that a NaN position or piece end fails them
        if not math.isfinite(self.total):
            raise ValueError("atom weights and piece masses must be finite")
        if self.atom_x.size:
            if not (self.atom_x.min() >= 0.0 and self.atom_x.max() <= 1.0):
                raise ValueError("atom positions must lie in [0, 1]")
            if self.atom_w.min() < 0.0:
                raise ValueError("atom weights must be nonnegative")
        if self.piece_l.size:
            if np.any(self.piece_r <= self.piece_l):
                raise ValueError("pieces need left < right")
            if not (self.piece_l.min() >= 0.0
                    and self.piece_r.max() <= 1.0 + 1e-15):
                raise ValueError("pieces must lie in [0, 1]")
            if self.piece_m.min() < 0.0:
                raise ValueError("piece masses must be nonnegative")
            if np.any(self.piece_l[1:] < self.piece_r[:-1] - 1e-15):
                raise ValueError("pieces must be pairwise disjoint")
            if np.any(self.piece_r[1:] < self.piece_r[:-1]):
                raise ValueError("piece right ends must be nondecreasing")
        s = float(self.atom_w.sum() + self.piece_m.sum())
        if abs(s - self.total) > _REL_TOL * max(1.0, abs(s)):
            raise ValueError("cached total inconsistent with parts")

    # -- cached query tables (built lazily, idempotent) -------------------
    @property
    def _tables(self):
        t = getattr(self, "_tables_cache", None)
        if t is None:
            t = _cdf_tables(self.atom_w, self.piece_l, self.piece_r,
                            self.piece_m)
            object.__setattr__(self, "_tables_cache", t)
        return t

    def _memo(self, name):
        """A dict kept on the measure under name, created on first use."""
        d = getattr(self, name, None)
        if d is None:
            d = {}
            object.__setattr__(self, name, d)
        return d

    @property
    def _cells(self):
        """Level -> read-only masses of the standard dyadic cells."""
        return self._memo("_cells_cache")

    def __repr__(self):
        return (f"Measure(total={self.total:.6g}, atoms={self.atom_x.size}, "
                f"pieces={self.piece_l.size})")


def _derived(ax, aw, pl, pr, pm):
    """A Measure from slices or monotone maps of a checked measure's arrays,
    which are already sorted, nonzero and valid.
    """
    ax, aw, pl, pr, pm = map(_ro, (ax, aw, pl, pr, pm))
    # an empty part sums to 0.0: added to a sum of nonzero values, which is
    # never -0.0, it changes no bit
    total = (aw.sum() + pm.sum() if aw.size and pm.size
             else (pm if pm.size else aw).sum())
    return Measure(ax, aw, pl, pr, pm, float(total))


def _cdf_tables(aw, pl, pr, pm):
    """(acum, bx, bv) of a measure's arrays: cumulative atom weights from 0,
    and the piece part of the CDF as np.interp reads it."""
    acum = np.zeros(aw.size + 1)
    aw.cumsum(out=acum[1:])
    if pl.size:
        cum = np.zeros(pm.size + 1)
        pm.cumsum(out=cum[1:])
        # breakpoints: piece lefts and rights interleaved; flat gaps
        # between non-adjacent pieces come out automatically
        bx = np.empty(2 * pl.size, dtype=float)
        bv = np.empty(2 * pl.size, dtype=float)
        bx[0::2] = pl
        bx[1::2] = pr
        bv[0::2] = cum[:-1]
        bv[1::2] = cum[1:]
        if bx[0] > 0.0:
            bx = np.concatenate([[0.0], bx])
            bv = np.concatenate([[0.0], bv])
        if bx[-1] < 1.0:
            bx = np.concatenate([bx, [1.0]])
            bv = np.concatenate([bv, [bv[-1]]])
    else:
        bx = np.array([0.0, 1.0])
        bv = np.array([0.0, 0.0])
    return acum, bx, bv


ZERO = Measure.make()


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Continuous piecewise-linear function on [x0, xn], zero outside."""

    breakpoints: np.ndarray
    values: np.ndarray

    @staticmethod
    def make(breakpoints, values):
        bx = _ro(np.atleast_1d(np.asarray(breakpoints, dtype=float)))
        vy = _ro(np.atleast_1d(np.asarray(values, dtype=float)))
        if bx.size != vy.size or bx.size < 2:
            raise ValueError("need matching breakpoints/values, at least two")
        if not (np.isfinite(bx).all() and np.isfinite(vy).all()):
            raise ValueError("breakpoints and values must be finite")
        if np.any(np.diff(bx) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        return PiecewiseLinearFn(bx, vy)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        y = np.interp(x, self.breakpoints, self.values)
        inside = (x >= self.breakpoints[0]) & (x <= self.breakpoints[-1])
        return np.where(inside, y, 0.0)

    def antiderivative_values(self, x):
        """F(x) = integral of the function from -inf to x (exact)."""
        bx, vy = self.breakpoints, self.values
        seg = (vy[:-1] + vy[1:]) / 2.0 * np.diff(bx)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, bx[0], bx[-1])
        i = np.clip(np.searchsorted(bx, xc, side="right") - 1, 0, bx.size - 2)
        dx = xc - bx[i]
        slope = (vy[i + 1] - vy[i]) / (bx[i + 1] - bx[i])
        return cum[i] + vy[i] * dx + 0.5 * slope * dx * dx

    def lipschitz_constant(self):
        return float(np.max(np.abs(np.diff(self.values) / np.diff(self.breakpoints))))

    def scaled(self, c):
        return PiecewiseLinearFn(self.breakpoints, _ro(self.values * c))


def phi_tent():
    """The weight phi = dist(., R \\ (0, 1)) on the unit interval."""
    return PiecewiseLinearFn.make([0.0, 0.5, 1.0], [0.0, 0.5, 0.0])


# ---------------------------------------------------------------------------
# generators


class Checked:
    """A dict read key by key: get(name, (test, what it must be), default)
    returns d[name], or the default when the key is absent, and raises
    ValueError unless the test accepts it (None never passes, so a key with
    no default is required).  done() rejects the keys that no get read.
    """

    def __init__(self, d, where):
        if not isinstance(d, dict):
            raise ValueError(f"{where} is not an object: {reprlib.repr(d)}")
        self.d, self.where, self.unread = d, where, set(d)

    def get(self, name, rule, default=None):
        self.unread.discard(name)
        value = self.d.get(name, default)
        if value is None or not rule[0](value):
            raise ValueError(f"{self.where}: {name} must be {rule[1]}, "
                             f"not {reprlib.repr(value)}")
        return value

    def done(self, also=()):
        unknown = sorted(map(repr, self.unread.difference(also)))
        if unknown:
            raise ValueError(f"{self.where}: unknown key {', '.join(unknown)}")


def ints(lo, hi=None):
    """The rule for an integer (a bool is not one) in lo..hi, or >= lo."""
    return (lambda v: _is_int(v) and lo <= v and (hi is None or v <= hi),
            f"an integer >= {lo}" if hi is None else f"an integer in {lo}..{hi}")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):
    return _is_int(v) or isinstance(v, float)


def _pow2(n):
    return n > 0 and not n & (n - 1)


def _finite(v):
    """Whether v is a number whose float is finite: an int too large for a
    float is not, though it compares below math.inf."""
    try:
        return _is_real(v) and math.isfinite(v)
    except OverflowError:
        return False


def _nonneg(v):
    """Whether v is a finite number >= 0."""
    return _finite(v) and 0.0 <= v


def _masses(v):
    """Whether v is a list or tuple of 2^L finite numbers >= 0, checked as
    one array once every entry is an int (not a bool) or a float."""
    if not (isinstance(v, (list, tuple)) and _pow2(len(v)) and all(
            issubclass(t, (int, float)) and not issubclass(t, bool)
            for t in set(map(type, v)))):
        return False
    try:
        a = np.asarray(v, dtype=float)
    except OverflowError:  # an int too large for a float
        return False
    return bool(np.isfinite(a).all() and (a >= 0.0).all())


def _is_pair(v):
    """Whether v is a list or tuple of two numbers."""
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(
        map(_is_real, v))


MAX_LEVEL = 30  # the finest level of every grid; dyadic re-exports it


def _plan(spec):
    """(warnings, builder) of a generator description; the builder makes
    the Measure.  This is the one place that knows the generator types and
    reads their parameters, so it raises ValueError on any other key.
    """
    read = Checked(spec, "spec")
    t = read.get("type", (lambda v: isinstance(v, str), "a type name"))
    read.where = f"{t} spec"
    notes = []
    if t == "lebesgue":
        build = lambda: Measure.make(pieces=[(0.0, 1.0, 1.0)])
    elif t == "atomic":
        atoms = read.get("atoms", (
            lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(
                _is_pair(a) and 0.0 <= a[0] <= 1.0 and _nonneg(a[1])
                for a in v), "a nonempty list of [x in [0, 1], weight]"))
        notes = [f"atom at x={x} sits on a dyadic boundary; blow-up "
                 "experiments assume boundaries carry no mass"
                 for x, _ in atoms
                 if float(x * (1 << MAX_LEVEL)).is_integer()]
        build = lambda: Measure.make(atoms=atoms)
    elif t == "histogram":
        cells = read.get("cells", (_masses, "2^L finite masses >= 0"))
        build = lambda: _histogram(np.asarray(cells, dtype=float))
    elif t == "cascade":
        p = read.get("p", (lambda v: _is_real(v) and 0.0 < v < 1.0,
                           "a number in (0, 1)"))
        depth = read.get("depth", ints(1, 30))

        def build():
            masses = np.array([1.0])
            for _ in range(depth):
                masses = np.stack([masses * p, masses * (1.0 - p)],
                                  axis=-1).reshape(-1)
            return _histogram(masses)
    elif t == "cantor":
        rl, rr = read.get("ratios", (lambda v: _is_pair(v) and all(
            0 < r < 1 for r in v) and abs(sum(v) - 1.0) < 1e-12,
            "two numbers in (0, 1) summing to 1"), (0.5, 0.5))
        depth = read.get("depth", ints(1, 14))

        def build():
            # middle-half construction: keep the outer quarters of each piece
            lefts, rights, masses = np.zeros(1), np.ones(1), np.ones(1)
            for _ in range(depth):
                q = (rights - lefts) / 4.0
                lefts = np.stack([lefts, rights - q], axis=-1).reshape(-1)
                rights = np.stack([lefts[0::2] + q, rights],
                                  axis=-1).reshape(-1)
                masses = np.stack([masses * rl, masses * rr],
                                  axis=-1).reshape(-1)
            return Measure.from_arrays([], [], lefts, rights, masses)
    elif t in ("example22", "example52"):
        h = 2.0 ** (-read.get("n", ints(2, 30)))
        a, b = 0.5 - h, 0.5 + h
        build = lambda: Measure.make(pieces=[
            (0.0, a, a),            # density 1
            (a, 0.5, 0.5 * h),      # density 1/2
            (0.5, b, 1.5 * h),      # density 3/2
            (b, 1.0, 1.0 - b),      # density 1
        ])
    elif t == "finite-haar":  # Lebesgue times dyadic multipliers: A-infinity
        seed = read.get("seed", ints(0), 0)
        levels = read.get("levels", ints(1, 30), 5)

        def build():
            rng = np.random.default_rng(seed)
            cells = np.ones(1)
            for _ in range(levels):
                eps = rng.uniform(-0.3, 0.3, cells.size)
                cells = np.stack([cells * (1 + eps), cells * (1 - eps)],
                                 axis=-1).reshape(-1)
            return _histogram(cells / cells.sum())
    elif t == "ac-density":  # a density in [1/2, 2] up to normalization
        seed = read.get("seed", ints(0), 5)
        n = read.get("cells", (lambda v: _is_int(v) and _pow2(v)
                               and v <= 1 << 30, "a power of two up to 2^30"),
                     64)

        def build():
            dens = np.random.default_rng(seed).uniform(0.5, 2.0, n)
            return _histogram(dens / dens.sum())
    elif t == "example53":
        eps = read.get("eps", (lambda v: _is_real(v) and 0.0 < v < 0.25,
                               "a number in (0, 0.25)"))
        mu = read.get("role", (lambda v: v in ("mu", "nu"), "mu or nu"),
                      "mu") == "mu"
        notes = ["atoms of this example sit on dyadic boundaries by "
                 "construction; use it only for interval/ball alpha checks"]
        build = lambda: Measure.make(atoms=[(0.5, 1.0)] if mu else [
            (0.25, eps), (0.5 + eps, 1.0 - eps)])
    else:
        raise ValueError(f"unknown generator type {t!r}")
    read.done()
    return notes, build


def validate_spec(spec):
    """Check a generator description; returns a list of warning strings."""
    return _plan(spec)[0]


def generate(spec):
    """Build a Measure from a generator description (JSON-style dict)."""
    return _plan(spec)[1]()


def _histogram(cells):
    """Mass cells[i] on the i-th of len(cells) equal cells.  The cells are
    finite and >= 0 (_plan's rules, or built so) and the edges sorted, so
    only the zero cells go, as from_arrays drops them, and a total that
    overflows is rejected: Measure._check would find nothing else."""
    n = cells.size
    edges = np.arange(n + 1) / n
    keep = cells != 0.0
    m = _derived(_EMPTY, _EMPTY, edges[:-1][keep], edges[1:][keep],
                 cells[keep])
    if not math.isfinite(m.total):
        raise ValueError("histogram masses must have a finite total")
    return m


# ---------------------------------------------------------------------------
# mass / cdf queries


def cdf_left_values(m: Measure, xs):
    """Vectorized F(x-) = m([0, x)) at the given points."""
    return _cdf_left(m.atom_x, m._tables, np.asarray(xs, dtype=float))


def _cdf_left(ax, tables, xs):
    """F(x-) at xs of the measure with atoms at ax and _cdf_tables tables."""
    acum, bx, bv = tables
    # no clamp: bx starts at 0 with bv 0, and np.interp already returns
    # bv[0] left of bx[0] and bv[-1] at or right of bx[-1]
    cont = np.interp(xs, bx, bv)
    if ax.size:
        cont += acum[np.searchsorted(ax, xs, side="left")]
    return cont


def _atoms_at(m: Measure, x):
    lo = np.searchsorted(m.atom_x, x, side="left")
    hi = np.searchsorted(m.atom_x, x, side="right")
    return float(m.atom_w[lo:hi].sum())


def mass(m: Measure, a, b, closed_right=False):
    """Mass of [a, b) (default) or [a, b]."""
    if not a <= b:  # reversed or NaN
        raise ValueError("need a <= b")
    lo = max(a, 0.0)
    hi = min(b, 1.0)
    out = np.subtract(*cdf_left_values(m, [hi, lo])) if hi > lo else 0.0
    if b >= 1.0:
        out += _atoms_at(m, 1.0)
        if not closed_right and b == 1.0:
            out -= _atoms_at(m, 1.0)
    if closed_right and 0.0 <= b < 1.0:
        out += _atoms_at(m, b)
    return float(out)


def dyadic_cell_masses(m: Measure, depth):
    """Masses of the 2^depth standard dyadic cells; exact for aligned data.

    Memoized per level on the measure; the returned array is read-only.  An
    atom exactly at 1 belongs to no half-open cell; it is folded into the
    last cell so that the cells always sum to the total mass.
    """
    cells = m._cells.get(depth)
    if cells is None:
        n = 1 << depth
        if m.atom_x.size:
            scaled = m.atom_x * n
            if np.any((scaled == np.floor(scaled)) & (m.atom_x > 0)
                      & (m.atom_x < 1)):
                warnings.warn("atom on a level-%d dyadic boundary" % depth,
                              BoundaryAtomWarning)
        cells = np.diff(cdf_left_values(m, np.arange(n + 1) / n))
        cells[-1] += _atoms_at(m, 1.0)
        cells = m._cells[depth] = _ro(cells)
    return cells


# ---------------------------------------------------------------------------
# cdf difference


def cdf_difference(m1: Measure, m2: Measure):
    """G(x) = F1(x) - F2(x) on [0, 1] as linear segments with jumps.

    Returns (x0, x1, g0, g1): G is linear on [x0[i], x1[i]) from g0[i] (the
    value just right of x0[i]) to g1[i] (just left of x1[i]); atoms show up
    as jumps g0[i] != g1[i-1].  The breakpoints include 0 and 1, so there
    is at least one segment, each of positive length.
    """
    return _difference(_side(m1), _side(m2))


def _side(m: Measure):
    """The arrays of m that _difference reads."""
    return m.atom_x, m.atom_w, m.piece_l, m.piece_r, m._tables


def _difference(s1, s2):
    """cdf_difference of two sides (atom_x, atom_w, piece_l, piece_r,
    _cdf_tables) given as arrays, which need no Measure; atoms lie in
    [0, 1], so each is a breakpoint.  Without atoms g0 and g1 share G."""
    bx = np.concatenate([_ENDS, s1[2], s1[3], s1[0], s2[2], s2[3], s2[0]])
    # np.unique's steps (an in-place sort, the first of each run: the same
    # bits, signed zeros included) on the sorted values in [0, 1]
    bx.sort()
    bx = bx[bx.searchsorted(0.0):bx.searchsorted(1.0, "right")]
    keep = np.empty(bx.size, dtype=bool)
    keep[0] = True
    np.not_equal(bx[1:], bx[:-1], out=keep[1:])
    bx = bx[keep]
    F = [_cdf_left(s[0], s[4], bx) for s in (s1, s2)]
    G_left = F[0] - F[1]
    if not (s1[0].size or s2[0].size):
        return bx[:-1], bx[1:], G_left[:-1], G_left[1:]
    # right-limit values: add the atoms at each breakpoint, in order
    for j, (ax, aw, _, _, _) in enumerate((s1, s2)):
        if ax.size:
            F[j] = F[j].copy()
            np.add.at(F[j], bx.searchsorted(ax), aw)
    G_right = F[0] - F[1]
    return bx[:-1], bx[1:], G_right[:-1], G_left[1:]


# ---------------------------------------------------------------------------
# restriction / blow-up / arithmetic


def _overlap(m: Measure, a, b, closed_right=False):
    """Slices of m's atoms in [a, b) (or [a, b]) and of its pieces meeting it.

    A binary search: from_arrays sorts atoms and pieces, measures derived
    from them keep that order, and pieces are disjoint, so their right ends
    are sorted too (Measure._check rejects input where they are not).  The
    piece slice is exact only when a < b.
    """
    return (slice(m.atom_x.searchsorted(a),
                  m.atom_x.searchsorted(b, "right" if closed_right else "left")),
            slice(m.piece_r.searchsorted(a, "right"), m.piece_l.searchsorted(b)))


def restrict(m: Measure, a, b, closed_right=False):
    """Restriction of m to [a, b) (or [a, b]); keeps coordinates."""
    return _derived(*_restrict_parts(m, a, b, closed_right))


def _restrict_parts(m: Measure, a, b, closed_right):
    """restrict(m, a, b) as (atom_x, atom_w, piece_l, piece_r, piece_m)."""
    if not a < b:
        raise ValueError("need a < b")
    at, pc = _overlap(m, a, b, closed_right)
    # every piece in the slice has r > a and l < b, so lo < hi
    l, r = m.piece_l[pc], m.piece_r[pc]
    lo, hi = np.maximum(l, a), np.minimum(r, b)
    return (m.atom_x[at], m.atom_w[at], lo, hi,
            m.piece_m[pc] / (r - l) * (hi - lo))


def blowup(m: Measure, a, b, closed_right=False):
    """Pushforward of m|[a,b) under x -> (x - a)/(b - a); unnormalized."""
    return _derived(*_blowup_parts(m, a, b, closed_right))


def _blowup_parts(m: Measure, a, b, closed_right):
    """blowup(m, a, b) as arrays: restrict's, mapped to [0, 1]."""
    ax, aw, lo, hi, pm = _restrict_parts(m, a, b, closed_right)
    s = b - a
    if ax.size:  # a clip costs more than the rest on an empty slice
        ax = ((ax - a) / s).clip(0.0, 1.0)
    return (ax, aw,
            np.maximum((lo - a) / s, 0.0), np.minimum((hi - a) / s, 1.0), pm)


def _level_cells(cells):
    """(a, b, s, level) of the standard cells k of level j of each (j, k) of
    cells, one after another: their ends as DyadicInterval gives them,
    their widths and the place of their (j, k) in cells."""
    n = [k.size for _, k in cells]
    s = np.repeat([2.0 ** (-j) for j, _ in cells], n)
    a = np.concatenate([k for _, k in cells]) * s + 0.0  # a, a + s: exact
    return a, a + s, s, np.repeat(np.arange(len(cells)), n)


class _Scan(NamedTuple):
    """Per cell, before a part is taken: its count of parts, whether they
    tile it (no atom, pieces from a to b without a gap, the first of mass
    at least the smallest normal float: the blow-up has mass) and whether
    is_uniform_on gives it a positive density; per level, an edge atom."""

    parts: np.ndarray
    tiles: np.ndarray
    uniform: np.ndarray
    edge: np.ndarray


def _level_parts(m: Measure, cells):
    """(scan, take) of m's parts in the given cells (_level_cells), or None
    where two atoms share a point or two pieces overlap.

    A cell's parts are restrict's: its atoms, and the pieces that meet it,
    one across an edge clipped there (lo = max(l, a), hi = min(r, b), mass
    pm / (r - l) * (hi - lo)).  scan is the _Scan of every cell, from their
    slices and densities (a run is uniform when its extremes lie within
    is_uniform_on's tolerance of its first).  take(a, b) gives the parts of
    the cells [a[i], b[i]), each level's in order, as ((fa, ax, aw), (fp,
    lo, hi, pm, touch)): cell i holds the atoms fa[i]..fa[i + 1] - 1 and
    the pieces fp[i]..fp[i + 1] - 1; touch is whether two pieces share an
    end.  Coordinates stay as they are: the blow-up onto a cell maps them
    exactly (x - a is exact by Sterbenz, as a <= x <= b <= 2a or a = 0, and
    the width is a power of two), so their order and ties are the blow-ups'.
    """
    ax, pl, pr, pm = m.atom_x, m.piece_l, m.piece_r, m.piece_m
    memo = m._memo("_part_memo")  # the pieces followed by a gap
    if "gaps" not in memo:
        memo["gaps"] = None if ((ax[1:] == ax[:-1]).any()
                                or (pl[1:] < pr[:-1]).any()) else (
            np.flatnonzero(pl[1:] > pr[:-1]))
    gaps = memo["gaps"]
    if gaps is None:
        return None

    def slices(a, b):  # each cell's first atom, atoms, first piece, pieces
        fa = na = np.zeros(a.size, dtype=np.int64)
        if ax.size:
            fa = ax.searchsorted(a)
            na = ax.searchsorted(b) - fa
        fp = pr.searchsorted(a, "right")  # as _overlap slices them
        return fa, na, fp, pl.searchsorted(b) - fp

    def take(a, b):
        fa, na, fp, count = slices(a, b)
        (oa, ia), (op, ip) = _runs(fa, na) if ax.size else (
            np.zeros(a.size + 1, dtype=np.int64), slice(0)), _runs(fp, count)
        l, r = pl[ip], pr[ip]
        w = r - l
        mass = pm[ip] / w
        i0, i1 = op[:-1], op[1:] - 1
        if not count.all():  # the cells with pieces
            k = count > 0
            i0, i1, a, b = i0[k], i1[k], a[k], b[k]
        cut0, cut1 = l[i0] < a, r[i1] > b
        if cut0.any() or cut1.any():  # a piece across an edge: clip it
            l, r = l.copy(), r.copy()
            i0, i1 = i0[cut0], i1[cut1]
            l[i0], r[i1] = a[cut0], b[cut1]
            w[i0], w[i1] = r[i0] - l[i0], r[i1] - l[i1]
        mass *= w
        return (oa, ax[ia], m.atom_w[ia]), (op, l, r, mass,
                                            gaps.size < pl.size - 1)

    a, b, _, level = cells
    fa, na, fp, count = slices(a, b)
    edge = np.zeros(level[-1] + 1, dtype=bool)
    if ax.size:  # an atom at a cell's a, or at 1, is on an edge
        edge[level[(ax[np.minimum(fa, ax.size - 1)] == a)
                   | (ax[-1] == 1.0)]] = True
    tiles = uniform = np.zeros(a.size, dtype=bool)
    if pl.size:
        f = np.minimum(fp, pl.size - 1)
        last = np.maximum(fp + count - 1, 0)
        lf, rf = pl[f], pr[f]
        ok = (count > 0) & (na == 0) & (lf <= a) & (pr[last] >= b)
        if gaps.size:
            ok &= gaps.searchsorted(f) == gaps.searchsorted(last)
        d0 = pm[f] / (rf - lf)  # densities, as is_uniform_on reads them
        tiles = ok & (d0 * (np.minimum(rf, b) - np.maximum(lf, a))
                      >= np.finfo(float).tiny)
        uniform = ok & (d0 > 0.0)
        c = np.flatnonzero(uniform & (count > 1))  # runs of several pieces
        if c.size:  # the second piece settles runs of two, and most others
            f, last, d0, g = f[c], last[c], d0[c], f[c] + 1
            tol = 1e-15 * np.maximum(1.0, np.abs(d0))
            off = np.abs(pm[g] / (pr[g] - pl[g]) - d0) > tol
            i = np.flatnonzero(~off & (last > g))
            if i.size:  # reduceat's even slots reduce f..last - 1, and in
                # floats too, max |d - d0| is max(hi - d0, d0 - lo)
                dens = pm / (pr - pl)
                runs = np.stack([f[i], last[i]], axis=1).ravel()
                hi = np.maximum(np.maximum.reduceat(dens, runs)[::2],
                                dens[last[i]])
                lo = np.minimum(np.minimum.reduceat(dens, runs)[::2],
                                dens[last[i]])
                off[i] = np.maximum(hi - d0[i], d0[i] - lo) > tol[i]
            uniform[c] = ~off
    return _Scan(na + count if ax.size else count, tiles, uniform,
                 edge), take


def _runs(first, count):
    """(offsets, index) of the runs first[i]..first[i] + count[i] - 1, laid
    end to end: where each starts (and the last ends), and the indices of
    their items, a slice when each run starts where the one before ends."""
    off = np.zeros(count.size + 1, dtype=np.int64)
    np.cumsum(count, out=off[1:])
    if (first[1:] == first[:-1] + count[:-1]).all():  # first: not empty
        return off, slice(first[0], first[0] + off[-1])
    return off, np.repeat(first - off[:-1], count) + np.arange(off[-1])


def normalized_blowup(m: Measure, a, b, closed_right=False):
    """Probability blow-up m_I; the zero measure when m gives I no mass."""
    bm = blowup(m, a, b, closed_right=closed_right)
    if bm.total == 0.0:
        return ZERO
    return scale(bm, 1.0 / bm.total)


def scale(m: Measure, c):
    if not c >= 0:  # negative or NaN
        raise ValueError("scale factor must be nonnegative")
    if c == 0:
        return ZERO
    return _derived(m.atom_x, m.atom_w * c, m.piece_l, m.piece_r,
                    m.piece_m * c)


def combine(measures):
    """Sum of measures with pairwise disjoint pieces."""
    ax, aw, pl, pr, pm = (np.concatenate([getattr(m, f) for m in measures]
                                         or [_EMPTY]) for f in (
        "atom_x", "atom_w", "piece_l", "piece_r", "piece_m"))
    if ax.size:
        # merge coincident atoms
        order = np.argsort(ax, kind="stable")
        ax, aw = ax[order], aw[order]
        uniq, inv = np.unique(ax, return_inverse=True)
        merged = np.zeros(uniq.size)
        np.add.at(merged, inv, aw)
        ax, aw = uniq, merged
    return Measure.from_arrays(ax, aw, pl, pr, pm)


def is_uniform_on(m: Measure, a, b):
    """Density c if m|[a,b) = c * Lebesgue|[a,b) exactly, else None."""
    if not a < b:  # empty, reversed or NaN; the piece slice needs a < b
        if math.isnan(a) or math.isnan(b):
            raise ValueError("interval bounds must not be NaN")
        return 0.0
    at, pc = _overlap(m, a, b)
    if at.stop > at.start:
        return None
    if pc.stop == pc.start:
        return 0.0
    l, r = m.piece_l[pc], m.piece_r[pc]
    # the overlapping pieces must tile [a, b) without gaps
    if l[0] > a or r[-1] < b or (l[1:] > r[:-1]).any():
        return None
    dens = m.piece_m[pc] / (r - l)
    d0 = dens[0]
    if (np.abs(dens - d0) > 1e-15 * max(1.0, abs(d0))).any():
        return None
    return float(d0)


# ---------------------------------------------------------------------------
# integration


def integrate(m: Measure, f: PiecewiseLinearFn):
    """Exact integral of a piecewise-linear f against m.

    The continuous part integrates f's antiderivative differences scaled by
    the constant density of each piece; f's antiderivative is quadratic per
    segment, so the computation is closed-form.
    """
    return _integrate_parts(m.atom_x, m.atom_w, m.piece_l, m.piece_r,
                            m.piece_m, f)


def _integrate_parts(ax, aw, pl, pr, pm, f):
    """integrate of the measure with these arrays, which needs no Measure."""
    out = 0.0
    if ax.size:
        out += float(np.dot(aw, f(ax)))
    if pl.size:
        dens = pm / (pr - pl)
        F = f.antiderivative_values(np.concatenate([pr, pl]))
        out += float(np.dot(dens, F[:dens.size] - F[dens.size:]))
    return out
