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
are exact up to floating-point accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import (
    Measure,
    PiecewiseLinearFn,
    cdf_difference,
    cdf_left_values,
)

__all__ = ["W1Result", "w1_supported", "w1_rows", "w1_unrestricted",
           "w1_oracle"]


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


def _value_median(x0, x1, g0, g1):
    """Weighted median of the value distribution of the segment graph.

    Each segment contributes its length as weight, spread uniformly between
    its endpoint values (a point mass when flat).  Any c with
    weight{G <= c} >= total/2 and weight{G >= c} >= total/2 minimizes
    int |G - c|; ties are broken by the midpoint of the median interval.
    """
    L = x1 - x0
    total = L.sum()
    half = total / 2.0
    lo = np.minimum(g0, g1)
    hi = np.maximum(g0, g1)
    span = hi - lo
    flat = span == 0.0
    vals = np.unique(np.concatenate([lo, hi]))
    if vals.size == 1:
        return float(vals[0])
    tol = 1e-12 * max(total, 1.0)

    # event sweep: point masses at flat-segment values, plus a piecewise
    # constant density from sloped segments, accumulated over the sorted
    # candidate values in one pass
    point = np.zeros(vals.size)
    if np.any(flat):
        np.add.at(point, np.searchsorted(vals, lo[flat]), L[flat])
    dens = np.zeros(vals.size)
    if np.any(~flat):
        d = L[~flat] / span[~flat]
        np.add.at(dens, np.searchsorted(vals, lo[~flat]), d)
        np.add.at(dens, np.searchsorted(vals, hi[~flat]), -d)
    dens_cum = np.cumsum(dens)
    slope_mass = np.concatenate(
        [[0.0], np.cumsum(dens_cum[:-1] * np.diff(vals))])
    wle = slope_mass + np.cumsum(point)
    wlt = wle - point

    # lower end: smallest c with weight{G <= c} >= half
    i = int(np.searchsorted(wle, half - tol))
    i = min(i, vals.size - 1)
    c_lo = vals[i]
    if i > 0 and wle[i - 1] < half - tol:
        # between vals[i-1] and vals[i] the weight grows linearly from
        # wle[i-1] to wlt[i]; the quantile may sit strictly inside
        rise = wlt[i] - wle[i - 1]
        if rise > tol and wlt[i] >= half - tol:
            c_lo = vals[i - 1] + (half - wle[i - 1]) / rise * (vals[i] - vals[i - 1])
            c_lo = min(c_lo, vals[i])

    # upper end: largest c with weight{G < c} <= half
    j = int(np.searchsorted(wlt, half + tol, side="right")) - 1
    j = max(j, 0)
    c_hi = vals[j]
    if j + 1 < vals.size:
        rise = wlt[j + 1] - wle[j]
        if rise > tol and wle[j] < half - tol:
            c_hi = vals[j] + (half - wle[j]) / rise * (vals[j + 1] - vals[j])
            c_hi = min(c_hi, vals[j + 1])
        elif rise <= tol and wle[j] <= half + tol and wlt[j + 1] <= half + tol:
            c_hi = vals[j + 1]
    c_hi = max(c_hi, c_lo)
    return float(0.5 * (c_lo + c_hi))


def _bisect(arr, n, key, right=False):
    """np.searchsorted(arr[r, :n[r]], key[r]) for each row r.

    It repeats numpy's bisection step for step: the weight arrays it
    searches can dip by one rounding step, and there a count of the
    entries below the key would land elsewhere.
    """
    rows = np.arange(arr.shape[0])
    lo = np.zeros_like(n)
    hi = n.copy()
    while True:
        live = lo < hi
        if not live.any():
            return lo
        mid = lo + ((hi - lo) >> 1)
        v = arr[rows, np.minimum(mid, arr.shape[1] - 1)]
        up = live & ((v <= key) if right else (v < key))
        lo = np.where(up, mid + 1, lo)
        hi = np.where(live & ~up, mid, hi)


def _row_values(lo, hi):
    """Each row's distinct values of lo and hi, in the order np.unique gives.

    Returns (vals, nv, idx): row r's nv[r] values sorted at the front of
    vals[r], padded with its largest, and for each entry of [lo, hi] the
    flat index of its value in vals, which is where searchsorted puts it:
    the first position of its run in a stable row sort.
    """
    both = np.concatenate([lo, hi], axis=1)
    k, W = both.shape
    order = np.argsort(both, axis=1, kind="stable")
    srt = np.take_along_axis(both, order, axis=1)
    run = np.zeros((k, W), np.intp)
    np.cumsum(srt[:, 1:] != srt[:, :-1], axis=1, out=run[:, 1:])
    vals = np.repeat(srt[:, -1:], W, axis=1)
    rows = np.arange(k)[:, None]
    vals[rows, run] = srt
    run += rows * W
    idx = np.empty_like(run)
    np.put_along_axis(idx, order, run, axis=1)
    return vals, run[:, -1] % W + 1, idx


def _row_medians(L, g0, g1, total):
    """_value_median of each row, with the same operations in the same order.

    The bincounts add in segment order, as np.add.at does.
    """
    k, S = L.shape
    lo = np.minimum(g0, g1)
    hi = np.maximum(g0, g1)
    span = hi - lo
    flat = span == 0.0
    vals, nv, idx = _row_values(lo, hi)
    W = 2 * S
    point = np.bincount(idx[:, :S][flat], L[flat],
                        minlength=k * W).reshape(k, W)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = L / span
    slope = np.concatenate([~flat, ~flat], axis=1)
    dens = np.bincount(idx[slope], np.concatenate([d, -d], axis=1)[slope],
                       minlength=k * W).reshape(k, W)
    # a level fill's peak memory is one chunk's live arrays: drop them early
    del lo, hi, span, flat, idx, d, slope
    steps = np.diff(vals, axis=1)
    steps *= np.cumsum(dens, axis=1)[:, :-1]
    wle = np.zeros((k, W))
    np.cumsum(steps, axis=1, out=wle[:, 1:])
    del dens, steps
    wle += np.cumsum(point, axis=1)
    wlt = wle - point
    del point

    half = total / 2.0
    tol = 1e-12 * np.where(1.0 > total, 1.0, total)
    r = np.arange(k)

    def at(a, i):
        return a[r, np.clip(i, 0, W - 1)]

    def py_min(x, y):  # Python's min(x, y): x unless y < x
        return np.where(y < x, y, x)

    with np.errstate(divide="ignore", invalid="ignore"):
        # lower end: smallest c with weight{G <= c} >= half
        i = np.minimum(_bisect(wle, nv, half - tol), nv - 1)
        c_lo = at(vals, i)
        rise = at(wlt, i) - at(wle, i - 1)
        inner = ((i > 0) & (at(wle, i - 1) < half - tol) & (rise > tol)
                 & (at(wlt, i) >= half - tol))
        c_in = at(vals, i - 1) + (half - at(wle, i - 1)) / rise * (
            c_lo - at(vals, i - 1))
        c_lo = np.where(inner, py_min(c_in, c_lo), c_lo)

        # upper end: largest c with weight{G < c} <= half
        j = np.maximum(_bisect(wlt, nv, half + tol, right=True) - 1, 0)
        c_hi = at(vals, j)
        nxt = j + 1 < nv
        rise = at(wlt, j + 1) - at(wle, j)
        inner = nxt & (rise > tol) & (at(wle, j) < half - tol)
        c_in = c_hi + (half - at(wle, j)) / rise * (at(vals, j + 1) - c_hi)
        top = (nxt & ~inner & (rise <= tol) & (at(wle, j) <= half + tol)
               & (at(wlt, j + 1) <= half + tol))
        c_hi = np.where(inner, py_min(c_in, at(vals, j + 1)),
                        np.where(top, at(vals, j + 1), c_hi))
    c_hi = np.where(c_lo > c_hi, c_lo, c_hi)  # max(c_hi, c_lo)
    return np.where(nv == 1, vals[:, 0], 0.5 * (c_lo + c_hi))


def w1_rows(x0, x1, g0, g1):
    """(c*, value) of the supported distance for each row of 2-D arrays.

    Row r holds a segment graph as cdf_difference returns it, all rows of
    one length; each result is == what w1_supported computes for that row.
    """
    L = x1 - x0
    c = _row_medians(L, g0, g1, L.sum(axis=1))
    return c, _abs_integral(x0, x1, g0, g1, c[:, None])


def _abs_integral(x0, x1, g0, g1, c):
    """int |G - c| dx summed over the last axis's linear segments.

    Exact per segment; rows of 2-D arrays take a column of shifts c.
    """
    L = x1 - x0
    a = g0 - c
    b = g1 - c
    same = a * b >= 0.0
    flat_or_same = L * (np.abs(a) + np.abs(b)) / 2.0
    span = np.abs(b - a)
    crossing = L * (a * a + b * b) / (2.0 * np.where(span > 0, span, 1.0))
    return np.where(same, flat_or_same, crossing).sum(axis=-1)


def _witness(x0, x1, g0, g1, c):
    """1-Lipschitz psi with psi(0)=psi(1)=0 pairing to int |G - c|.

    psi' = -s where s = sign(G - c) off the zero set; on {G = c} the slope
    is the constant (M - P)/Z that makes psi close up at 1 (P, M, Z are the
    lengths of {G > c}, {G < c}, {G = c}).
    """
    xs = [x0[0]]
    slopes = []

    def push(x_end, slope):
        if x_end > xs[-1] + 1e-15:
            xs.append(x_end)
            slopes.append(slope)

    P = M = Z = 0.0
    for i in range(x0.size):
        a, b, L = g0[i] - c, g1[i] - c, x1[i] - x0[i]
        if a == 0.0 and b == 0.0:
            Z += L
        elif a >= 0.0 and b >= 0.0:
            P += L
        elif a <= 0.0 and b <= 0.0:
            M += L
        else:
            t = a / (a - b)
            if a > 0:
                P += L * t
                M += L * (1 - t)
            else:
                M += L * t
                P += L * (1 - t)
    s_zero = (M - P) / Z if Z > 0 else 0.0
    for i in range(x0.size):
        a, b = g0[i] - c, g1[i] - c
        xl, xr = x0[i], x1[i]
        if a == 0.0 and b == 0.0:
            push(xr, -s_zero)
        elif a * b >= 0.0:
            sgn = 1.0 if (a > 0 or b > 0) else -1.0
            push(xr, -sgn)
        else:
            t = a / (a - b)
            xm = xl + (xr - xl) * t
            push(xm, -np.sign(a))
            push(xr, -np.sign(b))
    bx = np.asarray(xs)
    vals = np.concatenate([[0.0], np.cumsum(np.asarray(slopes) * np.diff(bx))])
    vals[-1] = 0.0  # close exactly; drift is pure roundoff
    return PiecewiseLinearFn.make(bx, vals)


def w1_supported(m1: Measure, m2: Measure, want_witness=False) -> W1Result:
    """Distance with test functions vanishing at 0 and 1.

    Works for arbitrary nonnegative finite measures on [0, 1]; the masses
    need not agree.
    """
    x0, x1, g0, g1 = cdf_difference(m1, m2)
    c = _value_median(x0, x1, g0, g1)
    val = float(_abs_integral(x0, x1, g0, g1, c))
    wit = _witness(x0, x1, g0, g1, c) if want_witness else None
    return W1Result(val, c, wit)


def w1_unrestricted(m1: Measure, m2: Measure) -> W1Result:
    """Distance with arbitrary 1-Lipschitz test functions; equal masses only."""
    if abs(m1.total - m2.total) > 1e-9 * max(1.0, m1.total, m2.total):
        raise ValueError("unrestricted distance needs equal total masses")
    x0, x1, g0, g1 = cdf_difference(m1, m2)
    return W1Result(float(_abs_integral(x0, x1, g0, g1, 0.0)), 0.0, None)


def w1_oracle(m1: Measure, m2: Measure, grid_n=1 << 14):
    """Independent check of the supported distance on a midpoint grid.

    Samples G at the midpoints of a uniform grid straight from the two
    CDFs, takes the sample median as the shift, and sums |G - c| * h.  The
    quadrature error is at most h times the total variation of G, so for
    probability measures it is below 2 * h.
    """
    h = 1.0 / grid_n
    mids = (np.arange(grid_n) + 0.5) * h
    G = cdf_left_values(m1, mids) - cdf_left_values(m2, mids)
    c = float(np.median(G))
    return float(np.sum(np.abs(G - c)) * h)
