"""Transport alpha-numbers of interval and ball blow-ups.

alpha(I) is the supported Wasserstein distance between the probability
blow-ups of two measures onto I.  alpha_smooth(I) normalizes the blow-ups
by the tent-weighted masses mu(phi_I), nu(phi_I) instead; this variant is
stable under moving to comparable enclosing intervals, which the plain
version is not.  alpha_table(mu, nu) memoizes the plain alpha and the
one-sided-zero flag once per pair on mu; the smooth variant and the tent
masses are computed when asked.

The first read of a standard dyadic cell fills its whole level, and
fill_levels fills every level a caller will read, of one pair
(AlphaTable.levels, as stopping_forest calls it) or of several, whose
rows share the kernel's stacks, in numpy passes over many cells.  One
reader, measure._level_parts, scans a level's cells, then takes the parts
of the cells to compute: atoms, and the pieces that meet the cell, one
across an edge clipped there as restrict clips it.  Where both measures'
parts tile every such cell alike the rows come from their grids;
otherwise each row merges both sides' breakpoints, and a pair's cell
levels make their rows together.  Each distinct row is computed once, and
a filled level keeps one array of alphas, each == the per-entry value.
Only a level with an atom on a cell edge, which can set the one-sided
flag, keeps entries: AlphaTable.alphas sends the graphs of the cells it
reads there through one w1_values call, and a single read of a cell, ball
or tuple is a one-graph w1_values call, with == results.  An entry's
graph builds no Measure: each side goes from the measure's arrays to its
scaled blow-up and CDF tables in one step, and measure._difference, the
core of cdf_difference, takes the two.  An interval where both measures
are uniform reads 0.0 without a kernel call.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measure import (
    Measure,
    ZERO,
    _blowup_parts,
    _cdf_tables,
    _difference,
    _integrate_parts,
    _level_cells,
    _level_parts,
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
    "fill_levels",
    "alpha",
    "alpha_smooth",
    "smooth_bounds_check",
    "epsilon_for_doubling",
]

_PHI = phi_tent()
# segments per numpy pass of a level fill (a wider row is a pass of its
# own), cells of the finest level filled whole, and parts of the levels
# whose rows are made together
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
            self.levels([j])
        return self._levels[j]

    def levels(self, js):
        """level(j) for each j of js: fill_levels of this table alone."""
        fill_levels([self], js)
        return [self._levels[j] for j in js]

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
        one w1_values call on their graphs; a key where both measures are
        uniform reads 0.0 without a kernel row, as in _alpha_levels."""
        todo = {key: _graph(self._mu(), self.nu, *key)
                for key in dict.fromkeys(keys) if key not in self._entries}
        values = iter(w1_values([g for g, _ in todo.values()
                                 if g is not None]).tolist())
        for key, (g, flag) in todo.items():
            self._entries[key] = AlphaEntry(
                0.0 if g is None else next(values), flag)

    def alpha(self, I):
        return self.entry(I).alpha

    def flagged(self):
        """(a, b, closed) of entries with exactly one tent mass zero."""
        return [k for k, e in self._entries.items() if e.one_sided_zero]

    def __len__(self):
        return len(self._entries) + sum(
            a.size for a in self._levels.values() if a is not None)


def fill_levels(tables, js):
    """Fill the standard levels js that each AlphaTable of tables does not
    hold yet, in one _alpha_levels pass: rows of every table share the
    kernel's stacks."""
    todo = [(t, [j for j in dict.fromkeys(js) if j not in t._levels])
            for t in dict.fromkeys(tables)]
    for (t, _), filled in zip(todo, _alpha_levels(
            [(t._mu(), t.nu) for t, _ in todo], [new for _, new in todo])):
        t._levels.update(filled)


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


def _alpha_levels(pairs, levels):
    """{j: plain alphas of the 2^j standard level-j cells, or None} for
    the levels levels[p] of each pair p = (mu, nu) of pairs.

    The rows follow _graph step by step: the uniform shortcut, the blow-up
    totals, the scaled masses and their CDFs on the union of both sides'
    breakpoints.  measure._level_parts scans the pair's levels at once.
    Once no array of the scans is left, a level where both measures' parts
    tile every cell to compute makes its rows on its own (_tiled_rows), a
    chunk of segments at a time; the pair's other levels make theirs
    together (_cell_rows), in batches of about a chunk of parts (or one
    level).  Each distinct row of all pairs, keyed on the exact bytes of
    its grid and CDF differences, joins the pool of its length (and of
    whether it jumps); the pools go through w1_rows, a stack each, whenever
    they hold a chunk of segments (so a row that wide goes at once) and at
    the end: the kernel works along each row alone, so equal rows give
    equal alphas, whatever their stack.  None for a level of more cells
    than a chunk or with an atom on a cell edge (which can set a one-sided
    flag), and for every level of a measure with two atoms at one point or
    overlapping pieces.
    """
    known = {}, {}  # kernel input bytes -> slot of its alpha: rows without,
    # with jumps; slot 0 holds the 0.0 of cells where both are uniform
    pools, done, pending = {}, [], 0  # (jump, length) -> its rows' keys

    def flush():
        nonlocal pending
        while pools:
            (jump, width), keys = pools.popitem()
            # the rows as views of their keys' (x, g0[, g1]) bytes, which the
            # dedup holds anyway: a waiting row holds no array of its own
            x, *g = np.frombuffer(b"".join(keys)).reshape(
                len(keys), 2 + jump, width).transpose(1, 0, 2)
            done.append(([known[jump][key] for key in keys], w1_rows(
                x[:, :-1], x[:, 1:], g[0][:, :-1], g[-1][:, 1:])[1]))
        pending = 0

    def fill(n, stacks):
        """The alpha slots of n cells, from the stacks of their rows."""
        nonlocal pending
        slots = np.zeros(n, dtype=np.int64)
        for cells, x, g0, g1 in stacks:
            # join reads the rows' buffers: x.tobytes() + g.tobytes()
            # uncopied; g0 is g1 where no row jumps
            jump = g0 is not g1
            seen = known[jump]
            keys = [b"".join(row) for row in (zip(x, g0, g1) if jump
                                               else zip(x, g0))]
            fresh = [key for key in dict.fromkeys(keys) if key not in seen]
            if fresh:
                start = 1 + sum(map(len, known))
                seen.update(zip(fresh, range(start, start + len(fresh))))
                pools.setdefault((jump, x.shape[1]), []).extend(fresh)
                pending += len(fresh) * (x.shape[1] - 1)
                if pending >= _CHUNK:
                    flush()
            slots[cells] = [seen[key] for key in keys]
        return slots

    out = [dict.fromkeys(js) for js in levels]  # alpha slots, then alphas
    for (mu, nu), js, filled in zip(pairs, levels, out):
        js = [j for j in js if 1 << j <= _CHUNK]
        if not js:
            continue
        cells = _level_cells([(j, np.arange(1 << j)) for j in js])
        scans = _level_parts(mu, cells), _level_parts(nu, cells)
        if None in scans:
            continue
        (su, tu), (sv, tv) = scans
        todo = ~(su.uniform & sv.uniform)  # the others keep slot 0: 0.0
        tiled, batches, size, k, c = [], [], _CHUNK, None, None
        starts = np.cumsum([0] + [1 << j for j in js]).tolist()
        for i, (j, start) in enumerate(zip(js, starts)):
            if su.edge[i] or sv.edge[i]:
                continue  # an atom on a cell edge: per entry
            k = np.flatnonzero(todo[start:start + (1 << j)])  # cells to do
            c = k + start
            widths = [int(p[c[0]]) if t[c].all() and (p[c] == p[c[0]]).all()
                      else None for p, t in ((su.parts, su.tiles),
                                             (sv.parts, sv.tiles))
                      ] if k.size else [1, 1]  # no cell to do: no row
            if None not in widths and (min(widths) < 2 or np.array_equal(
                    mu.piece_l, nu.piece_l)):
                # where all cells are to do, k is made when they are filled
                tiled.append((j, None if k.size == 1 << j else k, widths))
                continue
            # batches of levels with about a chunk of parts at most, or one
            n = k.size + int(su.parts[c].sum() + sv.parts[c].sum())
            if size + n > _CHUNK:
                batches.append([])
                size = 0
            batches[-1].append((j, k))
            size += n
        # no array of the scans outlives them: wide rows set the peak
        del cells, scans, su, sv, todo, k, c
        for j, k, widths in tiled:
            filled[j] = fill(1 << j, _tiled_rows(
                j, np.arange(1 << j) if k is None else k, widths, (tu, tv)))
        for batch in batches:
            cells = _level_cells(batch)
            stacks, rep = _cell_rows(cells, tu(*cells[:2]), tv(*cells[:2]))
            slots = fill(rep.size, stacks)[rep]
            del stacks
            for j, k in batch:  # the slots, level after level
                filled[j] = np.zeros(1 << j, dtype=np.int64)
                filled[j][k], slots = slots[:k.size], slots[k.size:]
    flush()
    values = np.zeros(1 + sum(map(len, known)))
    for slots, alphas in done:
        values[slots] = alphas
    for filled in out:
        for j, slots in filled.items():
            if slots is not None:
                filled[j] = values[slots]
                filled[j].setflags(write=False)
    return out


def _tiled_rows(j, k, widths, takes):
    """Stacks (cells, grid, G, G) of the level-j cells k, where the parts of
    both measures (takes: their level takes) tile every cell (_Scan.tiles)
    in widths[0] and widths[1] parts, at most one of them several or both
    on one grid: each row on the finer (or the shared) grid, where a
    one-part side is np.interp's line through (0, 0) and (1, F(1)).  Rows
    of max(widths) segments, a chunk of them at a time."""
    P, s = max(widths), 2.0 ** (-j)
    step = max(_CHUNK // P, 1)
    for start in range(0, k.size, step):
        c = k[start:start + step]
        a = c * s + 0.0  # the cells' ends, as _level_cells makes them
        parts = [take(a, a + s)[1] for take in takes]
        (_, lo, hi, _, _), mu_m, nu_m = (parts[widths[0] < P], parts[0][3],
                                         parts[1][3])
        del parts
        grid = np.empty((c.size, P + 1))
        grid[:, :-1] = lo.reshape(c.size, P)
        grid[:, -1] = hi[P - 1::P]
        del lo, hi  # before the kernel, whose arrays set a wide row's peak
        grid -= a[:, None]  # exact: the cells' blow-ups
        grid /= s
        G = _cdf_rows(mu_m.reshape(c.size, -1), grid)
        G -= _cdf_rows(nu_m.reshape(c.size, -1), grid)
        del mu_m, nu_m
        yield c, grid, G, G


def _cdf_rows(pm, grid):
    """CDFs of the rows' blow-ups scaled to mass 1, read on grid.

    As cdf_left_values reads a scaled blow-up: a cumsum of its own pieces,
    made in place in the result, or for one piece np.interp's line
    slope * x, exact at 0 and 1.  Every row has mass (measure._Scan.tiles).
    """
    inv = 1.0 / pm.sum(axis=1)
    if pm.shape[1] == 1:
        return pm * inv[:, None] * grid
    F = np.empty((pm.shape[0], pm.shape[1] + 1))
    F[:, 0] = 0.0
    cum = F[:, 1:]
    np.multiply(pm, inv[:, None], out=cum)
    np.cumsum(cum, axis=1, out=cum)
    return F


def _cell_rows(cells, pu, pv):
    """(stacks, rep) of the given measure._level_cells, with the parts of
    each measure that measure._level_parts takes there (pu, pv): stacks
    (cells, x, g0, g1) of the rows to compute, and rep[c], the cell whose
    alpha cell c takes.

    A row's grid is 0, 1 and both sides' atoms and piece ends inside the
    cell, merged in the measures' own coordinates, where the blow-up's
    order and ties hold, then mapped as blowup maps them.  Its CDFs are
    _difference's: g0 from the right limits, g1 from the left ones, and a
    side with no mass in the cell is ZERO's, 0.0 everywhere and no
    breakpoint.  Each side's own breakpoints carry its table values, and
    _cell_cdf reads it at the other side's.  A cell whose blow-ups equal an
    earlier cell's, bit for bit, takes its row (_cell_reps).  Rows of one
    length, a chunk of segments at a time.
    """
    a, b, s, level = cells
    bounds = level.searchsorted(np.arange(level[-1] + 2))  # level starts
    n = a.size
    u, v = (_cell_side(*p) for p in (pu, pv))
    rep = _cell_reps(u, v, a, s)
    todo = rep == np.arange(n)
    u, v = (_cell_tables(side, todo & side.live) for side in (u, v))
    # each side's breakpoints, with (Fu-, Fu+, Fv-, Fv+) there
    (xu, au, bu, *fu), (xv, av, bv, *fv) = (
        _cell_points(side, todo, a, b, s, bounds) for side in (u, v))
    if not xv.size:
        at, xb, (lu, ru) = au, bu, fu
        lv, rv = _cell_cdf(v, xu, au, bu, a, b, s, bounds)
    elif not xu.size:
        at, xb, (lv, rv) = av, bv, fv
        lu, ru = _cell_cdf(u, xv, av, bv, a, b, s, bounds)
    else:  # merge the two sorted runs; a point of both is read once
        x, at, xb, lu, ru, lv, rv = (np.concatenate(c) for c in zip(
            (xu, au, bu, *fu, *_cell_cdf(v, xu, au, bu, a, b, s, bounds)),
            (xv, av, bv, *_cell_cdf(u, xv, av, bv, a, b, s, bounds), *fv)))
        order = np.lexsort((x, at))
        x, at = x[order], at[order]
        keep = np.ones(x.size, dtype=bool)
        keep[1:] = (x[1:] != x[:-1]) | (at[1:] != at[:-1])
        order = order[keep]
        at = at[keep]
        xb, lu, ru, lv, rv = (c[order] for c in (xb, lu, ru, lv, rv))
    g0 = ru - rv if u.ax.size or v.ax.size else None  # atoms make jumps
    g1 = np.subtract(lu, lv, out=lu)  # lu is the side's own, read once
    end = u.end - v.end
    inner = np.bincount(at, minlength=n)
    start = np.cumsum(inner) - inner  # each cell's first point
    cells = np.flatnonzero(todo)
    stacks = []
    for k in np.flatnonzero(np.bincount(inner[cells])).tolist():
        c = cells[inner[cells] == k]
        idx = start[c][:, None] + np.arange(k)
        x, G1 = np.empty((2, c.size, k + 2))
        x[:, 0], x[:, -1] = 0.0, 1.0
        xb.take(idx, out=x[:, 1:-1], mode="clip")  # idx is valid
        # both CDFs start at 0.0, and only g1 reads F(1-) at the end
        G1[:, 0], G1[:, -1] = 0.0, end[c]
        g1.take(idx, out=G1[:, 1:-1], mode="clip")
        G0 = G1
        if g0 is not None:
            G0 = G1.copy()
            g0.take(idx, out=G0[:, 1:-1], mode="clip")
        step = max(_CHUNK // (k + 1), 1)
        for i in range(0, c.size, step):
            r = slice(i, i + step)
            stacks.append((c[r], x[r], G0[r], G1[r]))
    return stacks, rep


class _Side(NamedTuple):
    """One side of _cell_rows on a level: its parts as measure._level_parts
    gives them, with each cell's 1 / total (aw.sum() + pm.sum(), as
    _scaled_side takes it; 0.0 where the total is 0.0, so ZERO's cells read
    0.0), the atom weights so scaled, each cell's running sums from 0.0 of
    both scaled kinds (A, T: cell c's from slot first[c] + c, first its
    first part), F(1-) of each cell, the cells with mass, and the parts'
    (counts, groups) of _cell_runs."""

    fa: np.ndarray
    ax: np.ndarray
    aw: np.ndarray
    A: np.ndarray
    fp: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    pm: np.ndarray
    touch: bool
    T: np.ndarray
    inv: np.ndarray
    end: np.ndarray
    live: np.ndarray
    runs: tuple


def _cell_side(atoms, pieces):
    """The _Side of one measure's level parts, before _cell_tables."""
    (fa, ax, aw), (fp, lo, hi, pm, touch) = atoms, pieces
    n = fa.size - 1
    runs = _cell_runs(fa), _cell_runs(fp)
    total = np.zeros(n)
    for (_, groups), w in zip(runs, (aw, pm)):
        t = np.zeros(n)
        for rows, idx in groups:
            t[rows] = w[idx].sum(axis=1)
        total += t  # aw.sum() + pm.sum(), each 0.0 when empty
    live = total > 0.0  # elsewhere the blow-up is ZERO
    with np.errstate(over="ignore"):  # as 1.0 / total does on a float
        inv = np.divide(1.0, total, out=np.zeros(n), where=live)
    return _Side(fa, ax, aw * np.repeat(inv, runs[0][0]), None, fp, lo, hi,
                 pm, touch, None, inv, None, live, runs)


def _cell_tables(side, todo):
    """side with the running sums (A, T) and F(1-) of the cells to do."""
    n = todo.size
    A = _cell_cumsums(side.aw, side.runs[0][1], None, todo)
    T = _cell_cumsums(side.pm, side.runs[1][1], side.inv, todo)
    c = np.arange(n)
    return side._replace(A=A, T=T, end=A[side.fa[1:] + c] + T[side.fp[1:] + c])


def _cell_runs(first):
    """(counts, groups) of the parts from first[c] to first[c + 1] - 1 of
    each cell: their counts, and for each count k > 0 the cells with k
    parts and the (cells, k) indices of their parts, so that a row sum
    adds as the cell's own 1-D sum does (ndarray.sum is pairwise, with a
    blocking set by the length)."""
    counts = np.diff(first)
    k = np.flatnonzero(np.bincount(counts))
    return counts, [(rows, first[rows, None] + np.arange(k))
                    for k in k[k > 0].tolist()
                    for rows in (np.flatnonzero(counts == k),)]


def _cell_cumsums(values, groups, inv, todo):
    """The running sums from 0.0 of the cells to do, of values times the
    cell's inv (values already so scaled where inv is None), as
    _cdf_tables makes them, in a table where cell c's start at slot
    first[c] + c."""
    out = np.zeros(values.size + todo.size)
    for rows, idx in groups:
        k = todo[rows]
        rows, idx = rows[k], idx[k]
        out[idx + rows[:, None] + 1] = np.cumsum(
            values[idx] if inv is None else values[idx] * inv[rows, None],
            axis=1)
    return out


# parts per cell from which _cell_reps compares the cells of one count
_SAME = 16


def _cell_reps(u, v, a, s):
    """rep[c]: the first cell whose blow-ups of both measures equal
    cell c's bit for bit (blown-up positions and scaled masses), or c.

    Such cells have equal rows, so only the first is computed: translated
    copies, as a Cantor measure's cells are.  Cells are keyed on the bytes
    of their parts, kind by kind; cells with no parts of a kind agree on
    it.  Only a level with two cells of at least _SAME parts of a kind is
    compared: below that a row costs less than its key.
    """
    n = a.size
    cell = np.arange(n)
    # (ends, masses, their scale or None if scaled, runs) of each kind
    kinds = [k for side in (u, v) for k in (
        ((side.ax,), side.aw, None, side.runs[0]),
        ((side.lo, side.hi), side.pm, side.inv, side.runs[1]))]
    if not any(rows.size > 1 and idx.shape[1] >= _SAME
               for *_, (_, g) in kinds for rows, idx in g):
        return cell
    key = np.zeros(n, dtype=np.int64)
    for ends, w, inv, (counts, groups) in kinds:
        rep = np.where(counts > 0, cell, -1)
        for rows, idx in groups:
            same = np.ones(rows.size, dtype=bool)
            for p in _cell_blowups(ends, w, inv, rows, idx, a, s):
                p = p.view(np.int64)  # bit for bit: -0.0 is not +0.0
                same &= (p == p[0]).all(axis=1)
            rep[rows[same]] = rows[0]
            if not same.all():
                rows, idx = rows[~same], idx[~same]
                seen = {}  # the parts' bytes -> the first other cell with them
                rep[rows] = [seen.setdefault(p.tobytes(), c) for p, c in zip(
                    np.concatenate(list(_cell_blowups(ends, w, inv, rows, idx,
                                                      a, s)), axis=1),
                    rows.tolist())]
        key = key * (n + 1) + rep + 1  # n + 1 values each, 4 kinds: < 2^63
    order = key.argsort(kind="stable")
    first = np.ones(n, dtype=bool)
    np.not_equal(key[order[1:]], key[order[:-1]], out=first[1:])
    rep = np.empty(n, dtype=np.int64)
    rep[order] = order[first][np.cumsum(first) - 1]
    return rep


def _cell_blowups(ends, w, inv, rows, idx, a, s):
    """The blown-up ends, then the scaled masses, of the parts idx of the
    cells rows, as _cell_reps compares them, one array at a time."""
    c = rows[:, None]
    for e in ends:
        p = e[idx]
        p -= a[c]
        p /= s[c]
        yield p
    p = w[idx]
    if inv is not None:
        p *= inv[c]
    yield p


def _cell_parts(first, cells):
    """(parts, cell of each) of the given cells, in order."""
    counts = first[cells + 1] - first[cells]
    return np.arange(counts.sum()) + np.repeat(
        first[cells] - np.cumsum(counts) + counts, counts), np.repeat(
        cells, counts)


def _cell_points(side, todo, a, b, s, bounds):
    """(x, cell, blown-up x, F-, F+) of one side's breakpoints inside the
    cells to do with mass, in order, each once: atoms, and piece ends off
    the cell edges (a shared end once), with their running sums."""
    cells = np.flatnonzero(todo & side.live)
    i, at = _cell_parts(side.fa, cells)  # A's slots: i + at
    x, fl, fr = side.ax[i], side.A[i + at], side.A[i + at + 1]
    if side.lo.size:  # piece ends
        i, c = _cell_parts(side.fp, cells)
        y = np.empty((i.size, 2))
        side.lo.take(i, out=y[:, 0], mode="clip")  # i is valid: no buffer
        side.hi.take(i, out=y[:, 1], mode="clip")
        keep = np.ones((i.size, 2), dtype=bool)
        # only a cell's first part starts at its a, and only its last ends
        # at its b; a part may start where the one before ends
        k = side.runs[1][0][cells]
        last = np.cumsum(k)[k > 0] - 1
        first = last + 1 - k[k > 0]
        cells = cells[k > 0]
        keep[first, 0] = y[first, 0] != a[cells]
        keep[last, 1] = y[last, 1] != b[cells]
        if side.touch:
            keep[1:, 0] &= (y[1:, 0] != y[:-1, 1]) | (c[1:] != c[:-1])
        if x.size:  # both: the merged breakpoints, each once, read by
            # _cell_cdf
            y = y[keep]
            c = np.broadcast_to(c[:, None], keep.shape)[keep]
            order = np.lexsort((np.concatenate([x, y]),
                                np.concatenate([at, c])))
            x, at = (np.concatenate(v)[order] for v in ((x, y), (at, c)))
            keep = np.ones(x.size, dtype=bool)
            keep[1:] = (x[1:] != x[:-1]) | (at[1:] != at[:-1])
            x, at = x[keep], at[keep]
        else:  # their running sums before and after each part
            i += c
            fl = side.T[np.stack([i, i + 1], axis=1)[keep]]
            del i
            x, at = y[keep], np.broadcast_to(c[:, None], keep.shape)[keep]
            del y, c, keep
            fr = fl
    xb = x - a[at]  # exact, inside (0, 1)
    xb /= s[at]
    if side.ax.size and side.lo.size:
        fl, fr = _cell_cdf(side, x, at, xb, a, b, s, bounds)
    return x, at, xb, fl, fr


def _ranks(v, x, right):
    """v.searchsorted(x, "right" if right else "left") for sorted x, the
    shorter array searched in the longer."""
    if v.size >= x.size:
        return v.searchsorted(x, "right" if right else "left")
    # v[e] <= x[p] (right) or < x[p] (left) iff fewer than p + 1 of x lie
    # below (or at) v[e]
    k = x.searchsorted(v, "left" if right else "right")
    return np.bincount(k, minlength=x.size + 1)[:x.size].cumsum()


def _level_ranks(v, first, x, at, bounds, right):
    """_ranks of each level's points x (cells at, sorted by cell, then x)
    in that level's run of v (the parts first[c].. of its cells), as
    indices into v."""
    out = np.empty(x.size, dtype=np.int64)
    cut = at.searchsorted(bounds)
    for p0, p1, c0, c1 in zip(cut[:-1].tolist(), cut[1:].tolist(),
                              bounds[:-1].tolist(), bounds[1:].tolist()):
        if p1 > p0:
            e0 = first[c0]
            out[p0:p1] = _ranks(v[e0:first[c1]], x[p0:p1], right) + e0
    return out


def _cell_cdf(side, x, at, xb, a, b, s, bounds):
    """(F(x-), F(x+)) of one _Side's blow-ups at points x of the cells at,
    sorted by cell, then x, as _cdf_left and _difference read them:
    np.interp's value at a table point, in a gap or past the pieces, and
    slope * (x - l) + F(l) strictly inside a piece, on the blown-up scale
    (xb and the exact maps of the ends); then the atoms left of x, and the
    atom at x for the right limit.  A piece over its whole cell is the line
    F(1) * x there."""
    ax, aw, A, lo, hi, T = side.ax, side.aw, side.A, side.lo, side.hi, side.T
    if not ax.size:
        c = np.flatnonzero(side.runs[1][0])
        if lo.size == c.size and (lo == a[c]).all() and (hi == b[c]).all():
            F = side.end[at] * xb  # (F(1) - 0.0) / 1.0 * (x - 0.0) + 0.0
            return F, F
    i = _level_ranks(hi, side.fp, x, at, bounds, True)  # parts ending <= x
    F = T[i + at]
    if hi.size:
        # the part ending first right of x, if in x's cell, holds x there
        inside = (i < side.fp[at + 1]) & (lo[np.minimum(i, hi.size - 1)] < x)
        k, c, y, f = i[inside], at[inside], xb[inside], F[inside]
        l = (lo[k] - a[c]) / s[c]
        F[inside] = (T[k + c + 1] - f) / ((hi[k] - a[c]) / s[c] - l) * (
            y - l) + f
    if not ax.size:
        return F, F
    i = _level_ranks(ax, side.fa, x, at, bounds, False)
    F += A[i + at]  # a cell without atoms adds 0.0: F is never -0.0
    hit = (i < side.fa[at + 1]) & (ax[np.minimum(i, ax.size - 1)] == x)
    Fr = F.copy()
    Fr[hit] += aw[i[hit]]
    return F, Fr


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
