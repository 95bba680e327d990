"""Transport alpha-numbers of interval and ball blow-ups.

alpha(I) is the supported Wasserstein distance between the probability
blow-ups of two measures onto I.  alpha_smooth(I) normalizes the blow-ups
by the tent-weighted masses mu(phi_I), nu(phi_I) instead; this variant is
stable under moving to comparable enclosing intervals, which the plain
version is not.  alpha_table(mu, nu) memoizes the plain alpha and the
one-sided-zero flag once per pair on mu; the smooth variant and the tent
masses are computed when asked.

The first read of a standard dyadic cell fills its whole level, in numpy
passes over many cells at once, when both measures are aligned there
(measure._cell_width: no atoms, and every cell holds the same run of whole
pieces or lies inside one piece), at most one of them holds several pieces
per cell or both share a grid, both charge every cell, and the level has at
most 2^14 cells.  Each distinct row of a level, keyed on the exact bytes of
its kernel input, is computed once.  Such a level, as on histogram, cascade and
Lebesgue pairs, keeps one array of alphas, each == the per-entry value.
Every other level keeps entries: AlphaTable.alphas sends the distinct
graphs of the cells it reads there through one w1_values call, and a
single read of a cell, ball or tuple is a one-graph w1_values call, with
== results.  An entry's graph builds no Measure: each side goes from the
measure's arrays to its scaled blow-up and CDF tables in one step, and
measure._difference, the core of cdf_difference, takes the two.  An
interval where both measures are uniform reads 0.0 without a kernel call.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass

import numpy as np

from .measure import (
    Measure,
    ZERO,
    _blowup_parts,
    _cdf_tables,
    _difference,
    _integrate_parts,
    _level_pieces,
    _side,
    blowup,
    integrate,
    is_uniform_on,
    mass,
    phi_tent,
)
from .dyadic import STANDARD, DyadicInterval
from .transport import w1_rows, w1_values

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
# segments per numpy pass of a level fill (a wider row is a pass of its
# own), and cells of the finest level filled whole
_CHUNK = 1 << 14


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
        self._levels = {}  # level -> read-only alphas of its cells, or None
        # (kind, depth) -> read-only per-level sums of the pair (squarefn)
        self.sums = {}

    def entry(self, I) -> AlphaEntry:
        key = _interval_bounds(I)
        if key not in self._entries:
            if (isinstance(I, DyadicInterval) and I.system.shift == 0.0
                    and 0 <= I.k < 1 << I.j):
                alphas = self.level(I.j)
                if alphas is not None:  # filled cells are never flagged
                    return AlphaEntry(float(alphas[I.k]), False)
            self._add([key])
        return self._entries[key]

    def level(self, j):
        """The filled alphas of standard level j, or None: read per entry."""
        if j not in self._levels:
            self._levels[j] = _alpha_level(self._mu(), self.nu, j)
        return self._levels[j]

    def alphas(self, j, k):
        """Alphas of the standard level-j cells k: filled, else entries made
        in one w1_values call, in the order of k, as one read at a time."""
        a = self.level(j)
        if a is not None:
            return a[k]
        keys = [_interval_bounds(STANDARD.interval(j, c)) for c in k.tolist()]
        self._add(keys)
        return np.array([self._entries[key].alpha for key in keys])

    def _add(self, keys):
        """Make the entries of the keys not held yet, in their order, from
        one w1_values call on their distinct graphs (the kernel works along
        each graph alone, so equal graphs give equal alphas); a key where
        both measures are uniform reads 0.0 without a kernel row, as in
        _alpha_level."""
        todo = {key: _graph(self._mu(), self.nu, *key)
                for key in dict.fromkeys(keys) if key not in self._entries}
        first, graphs, at = {}, [], {}  # graph key -> place of its first
        for key, (g, _) in todo.items():
            if g is not None:
                i = first.setdefault(_graph_key(g), len(graphs))
                if i == len(graphs) or not all(
                        map(np.array_equal, g, graphs[i])):
                    i = len(graphs)  # new, or a key collision
                    graphs.append(g)
                at[key] = i
        values = w1_values(graphs).tolist()
        for key, (_, flag) in todo.items():
            self._entries[key] = AlphaEntry(
                values[at[key]] if key in at else 0.0, flag)

    def alpha(self, I):
        return self.entry(I).alpha

    def flagged(self):
        """(a, b, closed) of entries with exactly one tent mass zero."""
        return [k for k, e in self._entries.items() if e.one_sided_zero]

    def __len__(self):
        return len(self._entries) + sum(
            a.size for a in self._levels.values() if a is not None)


def _graph_key(graph):
    """A graph's segment count and the CRC-32 of its values g0: a key that
    holds no copy of the graph and reads a quarter of it; _add confirms
    equality on all four arrays."""
    return graph[2].size, zlib.crc32(graph[2])


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
        if cu is not None and cu > 0.0:
            cv = is_uniform_on(nu, a, b)
            if cv is not None and cv > 0.0:
                return cu, cv
    return None


def _graph(mu, nu, a, b, closed, tent=False):
    """(graph, one-sided flag) of the blow-ups onto [a, b) or [a, b]: the
    cdf_difference of each over its total, or its tent mass when tent (a
    zero one giving ZERO), built from arrays with no Measure between, or
    None where both measures are uniform, without a blow-up: alpha is 0.0.
    """
    if _uniform_densities(mu, nu, a, b, closed) is not None:
        return None, False
    (tu, nu_null, su), (tv, nv_null, sv) = (
        _scaled_side(m, a, b, closed, tent) for m in (mu, nu))
    flag = tu > 0 and tv > 0 and nu_null != nv_null
    return _difference(su, sv), flag


def _scaled_side(m, a, b, closed, tent):
    """(total, tent null, side) of m's blow-up onto [a, b): its mass, whether
    its tent mass is 0 (phi vanishes only at 0 and 1), and the _difference
    side of scale(blowup(m, a, b), 1 / norm)."""
    ax, aw, pl, pr, pm = _blowup_parts(m, a, b, closed)
    total = float(aw.sum() + pm.sum())
    null = pl.size == 0 and bool(((ax == 0.0) | (ax == 1.0)).all())
    norm = _integrate_parts(ax, aw, pl, pr, pm, _PHI) if tent else total
    if not norm > 0:
        return total, null, _side(ZERO)
    c = 1.0 / norm
    aw, pm = aw * c, pm * c
    return total, null, (ax, aw, pl, pr, _cdf_tables(aw, pl, pr, pm))


def _alpha_level(mu, nu, j):
    """Plain alphas of the 2^j standard level-j cells, or None.

    The rows follow _graph step by step: the uniform shortcut, the
    blow-up totals, the scaled masses and their CDFs on the finer (or the
    shared) grid, where a one-piece side is np.interp's line through (0, 0)
    and (1, F(1)).  Each distinct row, keyed on the exact bytes of its grid and
    CDF difference, goes through w1_rows once: the kernel works along each
    row alone, and a level's rows share one length, so equal rows give
    equal alphas.  A row wider than a chunk is a chunk of its own.  None
    where that needs more: a zero-mass cell (ZERO), two sides of several
    pieces per cell on different grids (their union) or a level of more
    cells than a chunk.
    """
    n = 1 << j
    sizes = mu.piece_l.size, nu.piece_l.size
    if n > _CHUNK or min(sizes) > n and sizes[0] != sizes[1]:
        return None
    width = max(max(sizes) >> j, 1)  # segments per row, if aligned
    rows = max(_CHUNK // width, 1)
    out = np.zeros(n)
    known = {}  # kernel input bytes -> alpha, for the whole level
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        pu = _level_pieces(mu, j, start, stop)
        pv = _level_pieces(nu, j, start, stop)
        if pu is None or pv is None:
            return None
        if min(sizes) > n and not np.array_equal(pu[0], pv[0]):
            return None  # two grids per cell
        todo = ~(pu[2] & pv[2])  # cells where both are uniform keep 0.0
        if not todo.any():
            continue
        grid = pu[0] if pu[0].shape[1] > 2 else pv[0]
        mu_m, nu_m = pu[1], pv[1]
        del pu, pv  # before the kernel, whose arrays set a wide row's peak
        if not todo.all():  # copies of the cells to do
            grid, mu_m, nu_m = grid[todo], mu_m[todo], nu_m[todo]
        G = _cdf_rows(mu_m, grid)
        Fv = _cdf_rows(nu_m, grid)
        del mu_m, nu_m
        if G is None or Fv is None:
            return None
        G -= Fv
        del Fv
        # join reads the rows' buffers: x.tobytes() + g.tobytes() uncopied
        keys = [b"".join((x, g)) for x, g in zip(grid, G)]
        fresh = {key: i for i, key in enumerate(keys) if key not in known}
        if fresh:
            if len(fresh) < len(keys):  # one copy of the fresh rows
                i = list(fresh.values())
                grid, G = grid[i], G[i]
            known.update(zip(fresh, w1_rows(grid[:, :-1], grid[:, 1:],
                                            G[:, :-1], G[:, 1:])[1]))
        out[start:stop][todo] = [known[key] for key in keys]
    out.setflags(write=False)
    return out


def _cdf_rows(pm, grid):
    """CDFs of the rows' blow-ups scaled to mass 1, read on grid.

    As cdf_left_values reads a scaled blow-up: a cumsum of its own pieces,
    made in place in the result, or for one piece np.interp's line
    slope * x, exact at 0 and 1.  None when a row has no mass.
    """
    with np.errstate(divide="ignore"):
        inv = 1.0 / pm.sum(axis=1)
    if not np.isfinite(inv).all():
        return None
    if pm.shape[1] == 1:
        return pm * inv[:, None] * grid
    F = np.empty((pm.shape[0], pm.shape[1] + 1))
    F[:, 0] = 0.0
    cum = F[:, 1:]
    np.multiply(pm, inv[:, None], out=cum)
    np.cumsum(cum, axis=1, out=cum)
    return F


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
    alpha_table(mu, nu).entry(I)  # memoized and flagged as a plain read
    graph, _ = _graph(mu, nu, *_interval_bounds(I), tent=True)
    return 0.0 if graph is None else float(w1_values([graph])[0])


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
