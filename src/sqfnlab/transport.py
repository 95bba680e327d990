"""Wasserstein-1 style distances between finite measures on [0, 1].

Two variants are computed from G = F1 - F2, the difference of cumulative
distribution functions:

* supported variant: supremum over 1-Lipschitz test functions vanishing at
  both endpoints of [0, 1].  By duality this equals min_c int_0^1 |G - c| dx,
  attained at a weighted median c* of the value distribution of G.  It is
  finite and meaningful even when the two measures have different total
  masses.
* unrestricted variant: supremum over all 1-Lipschitz test functions, which
  requires equal total masses and equals int_0^1 |G| dx.

All integrals are evaluated segment by segment in closed form, so results
are exact up to floating-point accumulation.  One kernel computes the
supported variant: w1_rows takes a stack of segment graphs of one length
and works along each row alone.  w1_supported is a one-row call of it, and
w1_values sends graphs through it in stacks of one segment count, so a
graph gets the same c* and value whichever way it is read.  A stack of
continuous S-segment rows, as every level fill and atomless graph is,
ranks S + 1 node values per row, else 2S, with the same bits either way.
A level fill's peak memory is the kernel's on its widest row, so the
kernel drops each row-sized array once read and integrates |G - c| in
place: a continuous row holds about six row-sized arrays beyond its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import Measure, PiecewiseLinearFn, cdf_difference

__all__ = ["W1Result", "w1_supported", "w1_rows", "w1_values",
           "w1_unrestricted", "w1_oracle"]


@dataclass(frozen=True)
class W1Result:
    """Distance value, the minimizing shift c*, and an optional witness.

    The witness is a 1-Lipschitz piecewise-linear function psi with
    psi(0) = psi(1) = 0 whose pairing with m1 - m2 equals `value` (supported
    variant) up to roundoff; `witness` is None unless requested.
    """

    value: float
    optimal_shift: float
    witness: PiecewiseLinearFn | None = None


# segments per w1_rows call of w1_values.  A call holds about six arrays of
# its stack's size at once beyond its inputs (more when a row jumps: 2S
# nodes), 32 KB each here, so it reuses a few hundred KB of heap; with whole
# levels of the cantor scenario in one call, a small-suite pass faulted in
# 25,000 fresh pages instead of 10,000
_STACK = 1 << 12


# float64 rounding unit, for G's rounding level
_EPS = np.finfo(float).eps


def _bisect(arr, n, key, right=False):
    """np.searchsorted(arr[r, :n[r]], key[r]) for each row r.

    A search per row: the weight rows can dip by one rounding step, where
    a vectorised count of the entries below the key would land elsewhere,
    and a call holds few rows.
    """
    side = "right" if right else "left"
    return np.fromiter((a[:m].searchsorted(x, side)
                        for a, m, x in zip(arr, n.tolist(), key.tolist())),
                       np.intp, len(n))


def _row_values(g0, g1, joined):
    """Each row's distinct node values, in the order np.unique gives.

    The nodes are g0 and the last g1 when joined, else g0 and g1.  Returns
    (vals, nv, at): row r's nv[r] values sorted at the front of vals[r],
    padded with its largest, and for each node the flat index of its value
    in vals, which is where searchsorted puts it: the first position of its
    run in a stable row sort.  A run of equal values keeps the bits of its
    last node, which only a signed zero can tell apart.  The nodes go once
    the sorted copy exists, and the sorted copy before the index array.
    """
    nodes = np.concatenate([g0, g1[:, -1:] if joined else g1], axis=1)
    k, W = nodes.shape
    base = np.arange(0, k * W, W)[:, None]  # flat index of each row's start
    order = nodes.argsort(axis=1, kind="stable")
    order += base
    srt = nodes.ravel()[order]
    del nodes
    run = np.zeros((k, W), np.intp)
    (srt[:, 1:] != srt[:, :-1]).cumsum(axis=1, out=run[:, 1:])
    nv = run[:, -1] + 1
    run += base
    vals = np.empty((k, W))
    vals[:] = srt[:, -1:]
    vals.ravel()[run] = srt
    del srt
    at = np.empty_like(run)
    at.ravel()[order] = run
    return vals, nv, at


def _row_medians(L, g0, g1, total):
    """Weighted median c* of the value distribution of each row's graph.

    Each segment weighs its length L, spread uniformly between its end
    values g0 and g1 (a point mass when flat).  Any c with weight{G <= c}
    >= total/2 and weight{G >= c} >= total/2 minimizes int |G - c|; ties
    are broken at the midpoint of the median interval.  A short stack's
    time is the fixed cost of its numpy calls, not its size, so both ends
    of that interval come from one pass over (2, rows) arrays, under one
    errstate.  The nodes ranked are g0 and the last g1 when g1[:, :-1] is
    g0[:, 1:] bit for bit (a -0.0 meeting +0.0 is a jump: its run of zeros
    would keep another sign), else g0 and g1; a segment's ends take the
    lower and the higher rank of its two nodes, so both layouts give the
    same bits.
    """
    k, S = L.shape
    joined = np.array_equal(g1[:, :-1].view(np.int64),
                            g0[:, 1:].view(np.int64))
    vals, nv, at = _row_values(g0, g1, joined)
    W = vals.shape[1]
    ends = (at[:, :-1], at[:, 1:]) if joined else (at[:, :S], at[:, S:])
    # |g1 - g0| is max - min bit for bit.  A span within G's rounding level
    # is a point mass, as a ramp would swamp dens with L / span: a CDF value
    # sums at most 2S + 1 masses (a piece per segment, an atom per
    # breakpoint) of mass about max(1, |G|)
    span = g1 - g0
    np.abs(span, out=span)
    flat = span <= 2 * (S + 1) * _EPS * np.maximum(
        np.abs(g0).max(axis=1, keepdims=True, initial=1.0),
        np.abs(g1).max(axis=1, keepdims=True, initial=1.0))
    ilo = np.minimum(*ends)
    pidx, pw = ilo[flat], L[flat]
    with np.errstate(divide="ignore", invalid="ignore"):
        # dens adds each segment's density at its lower end, then its
        # negation at its upper end, in segment order as one bincount over
        # both did; a flat segment adds +0.0, a no-op on a sum never -0.0
        d = np.divide(L, span, out=span)
        d[flat] = 0.0
        del span, flat
        dens = np.bincount(ilo.ravel(), d.ravel(), minlength=k * W)
        del ilo
        ihi = np.maximum(*ends)
        del at, ends
        np.negative(d, out=d)
        np.add.at(dens, ihi.ravel(), d.ravel())
        del ihi, d
        dens = dens.reshape(k, W)
        steps = vals[:, 1:] - vals[:, :-1]
        steps *= np.cumsum(dens, axis=1, out=dens)[:, :-1]
        del dens
        wle = np.zeros((k, W))
        steps.cumsum(axis=1, out=wle[:, 1:])
        del steps
        point = np.bincount(pidx, pw, minlength=k * W).reshape(k, W)
        wle += point.cumsum(axis=1)
        wlt = wle - point
        del point

        half = total / 2.0
        tol = 1e-12 * np.maximum(total, 1.0)
        lo_key, hi_key = half - tol, half + tol
        i = np.minimum(_bisect(wle, nv, lo_key), nv - 1)
        j1 = np.maximum(_bisect(wlt, nv, hi_key, right=True) - 1, 0) + 1
        # each end lies between a value p and the next one q: (i - 1, i)
        # for the lower end, (j, j + 1) for the upper; a gather at -1 or
        # past nv is only read where a mask throws it away
        p = np.concatenate([i - 1, j1 - 1]).reshape(2, k)
        q = np.concatenate([i, np.minimum(j1, W - 1)]).reshape(2, k)
        r = np.arange(k)
        v_p, v_q, wle_p, wlt_q = vals[r, p], vals[r, q], wle[r, p], wlt[r, q]
        rise = wlt_q - wle_p
        c_in = v_p + (half - wle_p) / rise * (v_q - v_p)
    # lower end: smallest c with weight{G <= c} >= half; upper end: largest
    # c with weight{G < c} <= half; each may interpolate inside its step
    nxt = j1 < nv
    inner = np.concatenate([(i > 0) & (wlt_q[0] >= lo_key), nxt]).reshape(
        2, k) & (wle_p < lo_key) & (rise > tol)
    # min(c_in, v_q) as Python's min takes it: c_in unless v_q < c_in
    c = np.where(inner & ~(v_q < c_in), c_in, v_q)
    # else the lower end is v_i, the upper v_j, or v_{j+1} on a flat step
    top = nxt & (rise[1] <= tol) & (wle_p[1] <= hi_key) & (wlt_q[1] <= hi_key)
    c_lo, c_hi = c[0], np.where(inner[1] | top, c[1], v_p[1])
    c_hi = np.where(c_lo > c_hi, c_lo, c_hi)  # max(c_hi, c_lo)
    return np.where(nv == 1, vals[:, 0], 0.5 * (c_lo + c_hi))


def w1_rows(x0, x1, g0, g1):
    """(c*, value) of the supported distance for each row of 2-D arrays.

    Row r holds a segment graph as cdf_difference returns it, all rows of
    one length.  Every operation runs along its own row, so a row's result
    does not depend on the rows stacked with it.
    """
    L = x1 - x0
    c = _row_medians(L, g0, g1, L.sum(axis=1))
    return c, _abs_integral(L, g0, g1, c[:, None])


def w1_values(graphs):
    """Supported distance of each cdf_difference graph, in input order.

    The graphs of one segment count go through w1_rows in stacks of at
    most _STACK segments (a wider graph is a stack of its own); each value
    is == what w1_supported computes for that graph alone.
    """
    groups = {}
    for i, graph in enumerate(graphs):
        groups.setdefault(graph[0].size, []).append(i)
    out = np.empty(len(graphs))
    for size, rows in groups.items():
        step = max(_STACK // size, 1)
        for start in range(0, len(rows), step):
            part = rows[start:start + step]
            _, out[part] = w1_rows(*(np.concatenate(v).reshape(len(part), -1)
                                     for v in zip(*(graphs[i]
                                                    for i in part))))
    return out


def _abs_integral(L, g0, g1, c):
    """int |G - c| dx summed over the last axis's linear segments.

    Exact per segment, of lengths L; rows of 2-D arrays take a column of
    shifts c.  Works in place: with a = g0 - c and b = g1 - c, every
    segment takes L (|a| + |b|) / 2, and one where a * b >= 0 fails (a sign
    change, or NaN) is then overwritten with the crossing formula,
    evaluated on those segments alone.
    """
    a = g0 - c
    b = g1 - c
    cross = ~(a * b >= 0.0)
    ac, bc = a[cross], b[cross]
    span = np.abs(bc - ac)
    crossing = L[cross] * (ac * ac + bc * bc) / (
        2.0 * np.where(span > 0, span, 1.0))
    np.abs(a, out=a)
    a += np.abs(b, out=b)
    a *= L
    a /= 2.0
    a[cross] = crossing
    return a.sum(axis=-1)


def _witness(x0, x1, g0, g1, c):
    """1-Lipschitz psi with psi(0)=psi(1)=0 pairing to int |G - c|.

    psi' = -s where s = sign(G - c) off the zero set; on {G = c} the slope
    is the constant (M - P)/Z that makes psi close up at 1 (P, M, Z are the
    lengths of {G > c}, {G < c}, {G = c}).  G within its rounding level
    (_row_medians) of c counts as c: a rounded sign breaks |M - P| <= Z.
    Array passes over consecutive segments, with a = g0 - c and b = g1 - c:
    a segment whose ends differ in sign splits at t = a/(a - b).  P, M and
    Z are running sums in segment order, as a loop adds them.  A piece
    ending within 1e-15 of the end before it (kept or not) is dropped, so
    its length goes to the next.
    """
    tol = 2 * (x0.size + 1) * _EPS * max(
        1.0, np.abs(g0).max(), np.abs(g1).max())
    a, b = (np.where(np.abs(v - c) <= tol, 0.0, v - c) for v in (g0, g1))
    L = x1 - x0
    zero = (a == 0.0) & (b == 0.0)
    pos = ~zero & (a >= 0.0) & (b >= 0.0)
    neg = ~zero & (a <= 0.0) & (b <= 0.0)
    cross = ~(zero | pos | neg)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = a / (a - b)
    head, tail = L * t, L * (1 - t)  # a crossing segment's two parts
    P, M, Z = np.cumsum([np.where(cross, np.where(a > 0, head, tail), pos * L),
                         np.where(cross, np.where(a > 0, tail, head), neg * L),
                         zero * L], axis=1)[:, -1].tolist()
    # pieces end at x1 and, on a crossing segment, first at x0 + head; else
    # x0, the end before, drops out
    ends = np.stack([np.where(cross, x0 + head, x0), x1], axis=1).ravel()
    slopes = np.where(np.stack([a > 0, (b > 0) | (a > 0) & ~cross], axis=1),
                      -1.0, 1.0)
    slopes[zero, 1] = -((M - P) / Z if Z > 0 else 0.0)
    keep = ends > np.append(x0[0], ends[:-1]) + 1e-15
    bx = np.append(x0[0], ends[keep])
    vals = np.append(0.0, np.cumsum(slopes.ravel()[keep] * np.diff(bx)))
    vals[-1] = 0.0  # close exactly; drift is pure roundoff
    return PiecewiseLinearFn.make(bx, vals)


def w1_supported(m1: Measure, m2: Measure, want_witness=False) -> W1Result:
    """Distance with test functions vanishing at 0 and 1.

    Works for arbitrary nonnegative finite measures on [0, 1]; the masses
    need not agree.
    """
    x0, x1, g0, g1 = cdf_difference(m1, m2)
    c, val = (float(v[0]) for v in w1_rows(x0[None], x1[None], g0[None],
                                            g1[None]))
    wit = _witness(x0, x1, g0, g1, c) if want_witness else None
    return W1Result(val, c, wit)


def w1_unrestricted(m1: Measure, m2: Measure) -> W1Result:
    """Distance with arbitrary 1-Lipschitz test functions; equal masses only."""
    if abs(m1.total - m2.total) > 1e-9 * max(1.0, m1.total, m2.total):
        raise ValueError("unrestricted distance needs equal total masses")
    x0, x1, g0, g1 = cdf_difference(m1, m2)
    return W1Result(float(_abs_integral(x1 - x0, g0, g1, 0.0)), 0.0, None)


# the oracle's uniform grid: 2^14 cells, sampled at their midpoints
_GRID_N = 1 << 14
_GRID_H = 1.0 / _GRID_N
# scaled in place: freeing a 128 KB temporary at import raises glibc's
# dynamic mmap threshold, which raised the peak RSS of later runs
_MIDS = np.arange(0.5, _GRID_N)
_MIDS *= _GRID_H
_MIDS.setflags(write=False)


def _grid_cdf(m: Measure):
    """F(x-) = m([0, x)) at the sorted grid midpoints, == cdf_left_values.

    The piece part is np.interp's formula slope * (x - bx[j]) + bv[j] on
    each breakpoint interval holding a midpoint, with bx[j], its slope and
    bv[j] repeated over the midpoints it holds.  It ends with a step of
    bv >= 0, so it is never -0.0 and a measure without atoms returns it as
    is.  Only a measure with atoms builds the atom part, a step function:
    each atom's cumulative weight is repeated up to the first midpoint right
    of it; "right" leaves out an atom sitting exactly on a midpoint, as F(x-)
    must.
    """
    acum, bx, bv = m._tables
    F = None
    if m.atom_x.size:
        cuts = np.empty(acum.size + 1, dtype=np.intp)
        cuts[0], cuts[-1] = 0, _GRID_N
        cuts[1:-1] = _MIDS.searchsorted(m.atom_x, "right")
        F = np.repeat(acum, cuts[1:] - cuts[:-1])
    if not m.piece_l.size:
        return np.zeros(_GRID_N) if F is None else F
    steps = bx[1:] - bx[:-1]
    if steps.min() < 0.0:
        # pieces may overlap by 1e-15 (Measure._check); a midpoint inside
        # the overlap would get a negative count
        P = np.interp(_MIDS, bx, bv)
    else:
        first = np.searchsorted(_MIDS, bx)  # first midpoint >= each bx
        counts = first[1:] - first[:-1]
        # bx runs from 0 to at least 1, so the counts cover every midpoint;
        # an interval holding none, as one of zero width, gets no slope
        slope = np.divide(bv[1:] - bv[:-1], steps, where=counts > 0, out=None)
        P = _MIDS - np.repeat(bx[:-1], counts)
        P *= np.repeat(slope, counts)
        P += np.repeat(bv[:-1], counts)
    return P if F is None else np.add(F, P, out=F)


def _middle_pair(G):
    """np.partition(G, h - 1)'s value at h - 1 and least value after it,
    h = G.size // 2, from w1_oracle's bracket; a zero may come out with the
    other sign, which |G - c| does not see."""
    h = G.size // 2
    s = np.sort(G[::64])
    inside = G >= s[s.size // 2 - 8]
    k = h - 1 - (G.size - np.count_nonzero(inside))  # rank h - 1 in W
    inside &= G <= s[s.size // 2 + 7]
    W = G[inside]
    if not 0 <= k < W.size - 1:  # a miss: h - 1 or h lies outside
        W, k = G, h - 1
    W = np.partition(W, k)
    return W[k], W[k + 1:].min()


def w1_oracle(m1: Measure, m2: Measure):
    """Independent check of the supported distance on a midpoint grid.

    Samples G at the midpoints of a uniform grid of 2^14 cells straight
    from the two CDFs, takes the sample median as the shift, and sums
    |G - c| * h.  Each CDF is read in one pass over the sorted midpoints
    (_grid_cdf), == cdf_left_values at the midpoints.  The two middle order
    statistics come from a bracket, as Floyd and Rivest select: [lo, hi]
    spans the middle 16 of every 64th value of G; the values below lo are
    counted and only those inside are partitioned (_middle_pair).  Order
    statistics are values, not places, so when both middle ranks fall
    inside, c is == np.median; when either falls outside, all of G is
    partitioned.  The quadrature error is at most h times the total
    variation of G, so for probability measures it is below 2 * h.
    """
    G = _grid_cdf(m1)
    G -= _grid_cdf(m2)
    lo, hi = _middle_pair(G)
    G -= float((lo + hi) / 2)
    return float(np.abs(G, out=G).sum() * _GRID_H)
