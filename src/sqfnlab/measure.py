"""Finite measures on [0, 1] as atoms plus uniform-density pieces.

All generators produce data at dyadic-rational coordinates, so masses of
dyadic cells and integrals of piecewise-linear test functions are exact in
double precision (up to ~1e-15 accumulation).  Measures are immutable after
construction; every operation returns a new value.  The internals are plain
numpy arrays, and interval queries binary-search the sorted atoms and pieces,
so that measures with hundreds of thousands of pieces (deep multiplicative
cascades) stay cheap to restrict, blow up and integrate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Measure",
    "PiecewiseLinearFn",
    "BoundaryAtomWarning",
    "generate",
    "validate_spec",
    "mass",
    "cdf_left",
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
        ax = np.asarray(atom_x, dtype=float).ravel()
        aw = np.asarray(atom_w, dtype=float).ravel()
        pl = np.asarray(piece_l, dtype=float).ravel()
        pr = np.asarray(piece_r, dtype=float).ravel()
        pm = np.asarray(piece_m, dtype=float).ravel()
        keep = aw != 0.0
        ax, aw = ax[keep], aw[keep]
        order = np.argsort(ax, kind="stable")
        ax, aw = ax[order], aw[order]
        keep = pm != 0.0
        pl, pr, pm = pl[keep], pr[keep], pm[keep]
        order = np.argsort(pl, kind="stable")
        pl, pr, pm = pl[order], pr[order], pm[order]
        m = _derived(ax, aw, pl, pr, pm)
        m._check()
        return m

    @staticmethod
    def make(atoms=(), pieces=()):
        atoms = list(atoms)
        pieces = list(pieces)
        ax = [a[0] for a in atoms]
        aw = [a[1] for a in atoms]
        pl = [p[0] for p in pieces]
        pr = [p[1] for p in pieces]
        pm = [p[2] for p in pieces]
        return Measure.from_arrays(ax, aw, pl, pr, pm)

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
            acum = np.concatenate([[0.0], np.cumsum(self.atom_w)])
            pl, pr, pm = self.piece_l, self.piece_r, self.piece_m
            if pl.size:
                cum = np.concatenate([[0.0], np.cumsum(pm)])
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
            t = (acum, bx, bv)
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
    ax, aw, pl, pr, pm = (_ro(v) for v in (ax, aw, pl, pr, pm))
    return Measure(ax, aw, pl, pr, pm, float(aw.sum() + pm.sum()))


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


def validate_spec(spec):
    """Check a generator description; returns a list of warning strings."""
    notes = []
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("spec must be a dict with a 'type' key")
    t = spec["type"]
    if t == "lebesgue":
        pass
    elif t == "atomic":
        atoms = spec.get("atoms")
        if not atoms:
            raise ValueError("atomic spec needs a nonempty 'atoms' list")
        for x, w in atoms:
            if not (0.0 <= x <= 1.0) or not (0.0 <= w < math.inf):
                raise ValueError("atom out of range")
            if _on_dyadic_boundary(x):
                notes.append(
                    f"atom at x={x} sits on a dyadic boundary; blow-up "
                    "experiments assume boundaries carry no mass")
    elif t == "histogram":
        cells = spec.get("cells")
        if cells is None or len(cells) == 0 or len(cells) & (len(cells) - 1):
            raise ValueError("histogram needs 2^L cell masses")
        if not all(0.0 <= c < math.inf for c in cells):
            raise ValueError("histogram masses must be finite and "
                             "nonnegative")
    elif t == "cascade":
        p = spec.get("p")
        L = spec.get("depth")
        if p is None or not (0.0 < p < 1.0):
            raise ValueError("cascade needs left fraction p in (0, 1)")
        if L is None or not (1 <= L <= 30):
            raise ValueError("cascade depth must be in 1..30")
    elif t == "cantor":
        L = spec.get("depth")
        rl, rr = spec.get("ratios", (0.5, 0.5))
        if not (0 < rl < 1 and 0 < rr < 1 and abs(rl + rr - 1.0) < 1e-12):
            raise ValueError("cantor ratios must be positive and sum to 1")
        if L is None or not (1 <= L <= 14):
            raise ValueError("cantor depth must be in 1..14")
    elif t in ("example22", "example52"):
        n = spec.get("n")
        if n is None or not (2 <= n <= 30):
            raise ValueError("perturbed-density parameter n must be in 2..30")
    elif t in ("finite-haar", "ac-density"):
        seed = spec.get("seed", 0)
        if not _is_int(seed) or seed < 0:
            raise ValueError(f"{t} seed must be a nonnegative integer")
        if t == "finite-haar":
            L = spec.get("levels", 5)
            if not _is_int(L) or not (1 <= L <= 30):
                raise ValueError("finite-haar levels must be in 1..30")
        else:
            n = spec.get("cells", 64)
            if not _is_int(n) or n < 1 or n & (n - 1) or n > 1 << 30:
                raise ValueError("ac-density cells must be a power of two "
                                 "up to 2^30")
    elif t == "example53":
        eps = spec.get("eps")
        if eps is None or not (0.0 < eps < 0.25):
            raise ValueError("two-atom example needs eps in (0, 0.25)")
        notes.append("atoms of this example sit on dyadic boundaries by "
                     "construction; use it only for interval/ball alpha checks")
    else:
        raise ValueError(f"unknown generator type {t!r}")
    if spec.get("depth", 0) and spec["depth"] > 30:
        raise ValueError("depth capped at 30")
    return notes


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# dyadic.MAX_LEVEL, the finest level of every grid; dyadic imports this
# module, so the value is repeated here
_FINEST_LEVEL = 30


def _on_dyadic_boundary(x):
    v = x * (1 << _FINEST_LEVEL)
    return v == np.floor(v)


def generate(spec):
    """Build a Measure from a generator description (JSON-style dict)."""
    validate_spec(spec)
    t = spec["type"]
    if t == "lebesgue":
        return Measure.make(pieces=[(0.0, 1.0, 1.0)])
    if t == "atomic":
        return Measure.make(atoms=spec["atoms"])
    if t == "histogram":
        return _histogram(np.asarray(spec["cells"], dtype=float))
    if t == "finite-haar":
        # Lebesgue perturbed by a few dyadic multipliers: an A-infinity weight
        rng = np.random.default_rng(spec.get("seed", 0))
        cells = np.ones(1)
        for _ in range(spec.get("levels", 5)):
            eps = rng.uniform(-0.3, 0.3, cells.size)
            cells = np.stack([cells * (1 + eps), cells * (1 - eps)],
                             axis=-1).reshape(-1)
        return _histogram(cells / cells.sum())
    if t == "ac-density":
        # bounded density in [1/2, 2] up to normalization
        rng = np.random.default_rng(spec.get("seed", 5))
        dens = rng.uniform(0.5, 2.0, spec.get("cells", 64))
        return _histogram(dens / dens.sum())
    if t == "cascade":
        p, L = float(spec["p"]), int(spec["depth"])
        masses = np.array([1.0])
        for _ in range(L):
            masses = np.stack([masses * p, masses * (1.0 - p)], axis=-1).reshape(-1)
        n = masses.size
        edges = np.arange(n + 1) / n
        return Measure.from_arrays([], [], edges[:-1], edges[1:], masses)
    if t == "cantor":
        rl, rr = spec.get("ratios", (0.5, 0.5))
        L = int(spec["depth"])
        # middle-half construction: keep the outer quarters of each piece
        lefts = np.array([0.0])
        rights = np.array([1.0])
        masses = np.array([1.0])
        for _ in range(L):
            q = (rights - lefts) / 4.0
            lefts = np.stack([lefts, rights - q], axis=-1).reshape(-1)
            rights = np.stack([lefts[0::2] + q, rights], axis=-1).reshape(-1)
            masses = np.stack([masses * rl, masses * rr], axis=-1).reshape(-1)
        return Measure.from_arrays([], [], lefts, rights, masses)
    if t in ("example22", "example52"):
        n = int(spec["n"])
        h = 2.0 ** (-n)
        a, b = 0.5 - h, 0.5 + h
        pieces = [
            (0.0, a, a),            # density 1
            (a, 0.5, 0.5 * h),      # density 1/2
            (0.5, b, 1.5 * h),      # density 3/2
            (b, 1.0, 1.0 - b),      # density 1
        ]
        return Measure.make(pieces=pieces)
    if t == "example53":
        eps = float(spec["eps"])
        if spec.get("role", "mu") == "mu":
            return Measure.make(atoms=[(0.5, 1.0)])
        return Measure.make(atoms=[(0.25, eps), (0.5 + eps, 1.0 - eps)])
    raise ValueError(f"unknown generator type {t!r}")


def _histogram(cells):
    n = cells.size
    edges = np.arange(n + 1) / n
    return Measure.from_arrays([], [], edges[:-1], edges[1:], cells)


# ---------------------------------------------------------------------------
# mass / cdf queries


def cdf_left_values(m: Measure, xs):
    """Vectorized F(x-) = m([0, x)) at the given points."""
    xs = np.asarray(xs, dtype=float)
    acum, bx, bv = m._tables
    cont = np.interp(xs, bx, bv)
    cont = np.where(xs <= bx[0], 0.0, np.where(xs >= bx[-1], bv[-1], cont))
    if m.atom_x.size:
        idx = np.searchsorted(m.atom_x, xs, side="left")
        cont = cont + acum[idx]
    return cont


def cdf_left(m: Measure, x):
    return float(cdf_left_values(m, np.asarray([x]))[0])


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
    out = cdf_left(m, hi) - cdf_left(m, lo) if hi > lo else 0.0
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
    bx = np.unique(np.concatenate([
        np.array([0.0, 1.0]),
        m1.piece_l, m1.piece_r, m1.atom_x,
        m2.piece_l, m2.piece_r, m2.atom_x,
    ]))
    bx = bx[(bx >= 0.0) & (bx <= 1.0)]
    Fl1 = cdf_left_values(m1, bx)
    Fl2 = cdf_left_values(m2, bx)
    # right-limit values: add atoms located exactly at each breakpoint
    Fr1 = Fl1.copy()
    Fr2 = Fl2.copy()
    for m, Fr in ((m1, Fr1), (m2, Fr2)):
        if m.atom_x.size:
            idx = np.searchsorted(bx, m.atom_x)
            idx = np.clip(idx, 0, bx.size - 1)
            hit = bx[idx] == m.atom_x
            np.add.at(Fr, idx[hit], m.atom_w[hit])
    G_left = Fl1 - Fl2
    G_right = Fr1 - Fr2
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
    if not a < b:
        raise ValueError("need a < b")
    at, pc = _overlap(m, a, b, closed_right)
    # every piece in the slice has r > a and l < b, so lo < hi
    l, r = m.piece_l[pc], m.piece_r[pc]
    lo, hi = np.maximum(l, a), np.minimum(r, b)
    return _derived(m.atom_x[at], m.atom_w[at], lo, hi,
                    m.piece_m[pc] / (r - l) * (hi - lo))


def blowup(m: Measure, a, b, closed_right=False):
    """Pushforward of m|[a,b) under x -> (x - a)/(b - a); unnormalized."""
    r = restrict(m, a, b, closed_right=closed_right)
    s = b - a
    return _derived(np.clip((r.atom_x - a) / s, 0.0, 1.0), r.atom_w,
                    np.maximum((r.piece_l - a) / s, 0.0),
                    np.minimum((r.piece_r - a) / s, 1.0), r.piece_m)


def _cell_width(m: Measure, j):
    """P when every level-j cell is a run of P whole pieces, 0 when every
    cell lies inside one piece, None otherwise or when m has atoms or its
    pieces do not tile [0, 1).
    """
    pl, pr = m.piece_l, m.piece_r
    if (m.atom_x.size or not pl.size or pl[0] != 0.0 or pr[-1] != 1.0
            or np.any(pl[1:] != pr[:-1])):
        return None
    edges = np.arange((1 << j) + 1) * 2.0 ** (-j) + 0.0  # DyadicInterval.a
    P = pl.size >> j
    if P:
        ok = pl.size == P << j and np.array_equal(pl[::P], edges[:-1])
    else:
        ok = np.all(pr[pr.searchsorted(edges[:-1], "right")] >= edges[1:])
    return P if ok else None


def _level_pieces(m: Measure, j, start, stop):
    """Blow-ups of m onto the level-j cells start..stop-1, one row per cell.

    Returns (x, pm, uniform) when the level is aligned (_cell_width), else
    None: row i is the blow-up onto cell start + i, with its grid x[i] from
    0 to 1, its piece masses pm[i], both computed elementwise as restrict
    and blowup compute them, and uniform[i], whether is_uniform_on gives
    the cell a positive density.
    """
    widths = m._memo("_cell_widths")  # level -> _cell_width
    if j not in widths:
        widths[j] = _cell_width(m, j)
    P = widths[j]
    if P is None:
        return None
    edges = np.arange(start, stop + 1) * 2.0 ** (-j) + 0.0
    a, b = edges[:-1, None], edges[1:, None]
    if P:
        take = slice(start * P, stop * P)
        l, r, mm = (v[take].reshape(-1, P)
                    for v in (m.piece_l, m.piece_r, m.piece_m))
    else:
        i = m.piece_r.searchsorted(a[:, 0], "right")[:, None]
        l, r, mm = m.piece_l[i], m.piece_r[i], m.piece_m[i]
    dens = mm / (r - l)
    d0 = dens[:, :1]
    uniform = (d0[:, 0] > 0.0) & ~np.any(
        np.abs(dens - d0) > 1e-15 * np.maximum(1.0, np.abs(d0)), axis=1)
    lo, hi = np.maximum(l, a), np.minimum(r, b)
    s = b - a
    # exact: lo - a and hi - a lose nothing (Sterbenz, as a <= lo < hi <=
    # b <= 2a or a = 0) and s is a power of two, so the rows' breakpoints
    # keep the pieces' order and adjacent pieces share them
    x0 = np.maximum((lo - a) / s, 0.0)
    x1 = np.minimum((hi - a) / s, 1.0)
    return np.concatenate([x0, x1[:, -1:]], axis=1), dens * (hi - lo), uniform


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
    ax = np.concatenate([m.atom_x for m in measures]) if measures else _EMPTY
    aw = np.concatenate([m.atom_w for m in measures]) if measures else _EMPTY
    pl = np.concatenate([m.piece_l for m in measures]) if measures else _EMPTY
    pr = np.concatenate([m.piece_r for m in measures]) if measures else _EMPTY
    pm = np.concatenate([m.piece_m for m in measures]) if measures else _EMPTY
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
    dens = m.piece_m[pc] / (r - l)
    d0 = dens[0]
    if np.any(np.abs(dens - d0) > 1e-15 * max(1.0, abs(d0))):
        return None
    # the overlapping pieces must tile [a, b) without gaps
    if l[0] > a or r[-1] < b or np.any(l[1:] > r[:-1]):
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
    out = 0.0
    if m.atom_x.size:
        out += float(np.dot(m.atom_w, f(m.atom_x)))
    if m.piece_l.size:
        dens = m.piece_m / (m.piece_r - m.piece_l)
        F = f.antiderivative_values(np.concatenate([m.piece_r, m.piece_l]))
        out += float(np.dot(dens, F[:dens.size] - F[dens.size:]))
    return out
