"""Stopping-time trees, adapted Haar analysis, and Whitney/Tail-Tip checks.

Trees are coherent families of standard dyadic intervals below a top: every
member's parent (up to the top) is a member, and members have either two
children in the tree or none (leaves; intervals at the depth cap may be cut
off, which is recorded).  The stopping forest splits [0, 1) into trees by
accumulating squared alpha-numbers along chains; leaves are the first
intervals where the inclusive sum reaches the threshold, and their children
start new trees.

A Forest holds its trees as arrays, filled by stopping_forest's sweep or
encoded from Tree objects; forest.tree(i) and forest.trees build Trees on
demand.  Every walk over trees is a level sweep on arrays of cells, reading
the per-level cell masses and AlphaTable.alphas; carleson_comparison reads
squarefn's level terms instead.  It and Forest.check_structure read the
arrays of all trees at once.  Sums and dicts fill in (level, index) order,
so they equal a member-by-member loop's.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from .measure import (
    Measure,
    PiecewiseLinearFn,
    _Record,
    dyadic_cell_masses,
    integrate,
    mass,
    normalized_blowup,
)
from .dyadic import (
    MAX_LEVEL,
    STANDARD,
    DyadicInterval,
    _check_depth,
    _require_charged,
    cell_mass,
    delta,
    navigate,
)
from .alpha import _interval_bounds, alpha_table
from .alpha import alpha as _interval_alpha
from .squarefn import _pruned_terms, delta_level_sums

__all__ = [
    "Tree",
    "Forest",
    "HaarSystem",
    "stopping_forest",
    "haar",
    "product_check",
    "partial_sum_g",
    "g_cell_values",
    "g_l2_norm",
    "whitney_partition",
    "representation_check",
    "tailtip_check",
    "carleson_comparison",
]


# ---------------------------------------------------------------------------
# trees and forests


class Tree(_Record):
    """A coherent dyadic family with a single top.

    members and leaves hold (level, index) pairs, members including the
    top; lazy_full trees (tops carrying no mu-mass) represent the complete
    non-stopping subtree down to max_depth without materializing it.
    """

    top: DyadicInterval
    members: frozenset | None
    leaves: tuple
    max_depth: int
    lazy_full: bool

    def __init__(self, top, members, leaves, max_depth, lazy_full=False):
        self.__dict__.update(top=top, members=members, leaves=leaves,
                             max_depth=max_depth, lazy_full=lazy_full)

    def contains(self, I: DyadicInterval):
        if self.lazy_full:
            return (self.top.j <= I.j <= self.max_depth
                    and (I.k >> (I.j - self.top.j)) == self.top.k)
        return (I.j, I.k) in self.members

    def internal_members(self):
        """Members whose both children are members (Haar carriers)."""
        return [DyadicInterval(self.top.system, j, k)
                for j, k in zip(*(v.tolist() for v in self._internal_cells()))]

    def _internal_cells(self):
        """(levels, indices) of the internal members, in (j, k) order."""
        if self.lazy_full:  # every cell of the subtree above max_depth
            d = np.arange(self.max_depth - self.top.j)
            d = np.repeat(d, 1 << d)  # depth below the top, per cell
            return (self.top.j + d,
                    (self.top.k << d) + np.arange(d.size) - (1 << d) + 1)
        _, js, ks, code = _coded([(0, self.members)])
        leaf = _coded([(0, self.leaves)])[3]
        inner = ~_among(leaf, code) & _among(code, 2 * code)
        return js[inner], ks[inner]


class Forest:
    """Stopping trees as arrays: the members and the leaves of all trees as
    (owner, j, k, code) arrays sorted by code (_by_code; lazy trees have
    none), and tops, the (j, k, lazy, max_depth) of each tree as rows.
    Tree objects are built on demand: tree(i) one, trees all of them on
    first access; len() counts the trees."""

    def __init__(self, trees):
        """Encode Tree objects, which trees then returns as they are."""
        trees = tuple(trees)
        full = [(i, t) for i, t in enumerate(trees) if not t.lazy_full]
        self._fill(*(_coded((i, getattr(t, f) or ()) for i, t in full)
                     for f in ("members", "leaves")),
                   np.reshape([(t.top.j, t.top.k, t.lazy_full, t.max_depth)
                               for t in trees], (-1, 4)).T.astype(np.int64),
                   trees)

    def _fill(self, members, leaves, tops, trees=None):
        self.members, self.leaves, self.tops = members, leaves, tops
        self._trees = trees

    def __len__(self):
        return self.tops.shape[1]

    def cells(self, i, leaves=False):
        """(levels, indices) of tree i's members (or leaves), (j, k) order."""
        owner, js, ks, _ = self.leaves if leaves else self.members
        lo, hi = np.searchsorted(owner, [i, i + 1])
        return js[lo:hi], ks[lo:hi]

    def tree(self, i):
        j, k, lazy, cap = self.tops[:, i].tolist()
        members, leaves = (zip(*(v.tolist() for v in self.cells(i, f)))
                           for f in (False, True))
        return Tree(DyadicInterval(STANDARD, j, k),
                    None if lazy else frozenset(members), tuple(leaves), cap,
                    lazy_full=bool(lazy))

    @property
    def trees(self):
        if self._trees is None:
            self._trees = tuple(map(self.tree, range(len(self))))
        return self._trees

    def top_masses(self, m):
        return _cell_masses(m, self.tops[0], self.tops[1])

    def check_structure(self):
        """Coherence and child-count invariants of every tree, in one pass
        over the member codes of all trees (lazy trees have no members)."""
        owner, js, _, code = self.members
        lowner, ljs, lks, lcode = self.leaves
        top_j, cap = self.tops[[0, 3]][:, owner]
        base, heap = owner << 32, code & 0xFFFFFFFF
        has_l, leaf = _among(code, base | 2 * heap), _among(lcode, code)
        # each tree's leaves, by left end, must be pairwise disjoint
        a, b = lks << (MAX_LEVEL - ljs), (lks + 1) << (MAX_LEVEL - ljs)
        order = np.lexsort((a, lowner))
        lowner, a, b = lowner[order], a[order], b[order]
        for message, bad in (
                ("orphan member",
                 (js > top_j) & ~_among(code, base | heap >> 1)),
                ("single-child member",
                 has_l != _among(code, base | 2 * heap + 1)),
                ("leaf with children", leaf & has_l),
                ("childless non-leaf above depth cap",
                 ~has_l & ~leaf & (js < cap)),
                ("overlapping leaves",
                 (lowner[1:] == lowner[:-1]) & (a[1:] < b[:-1]))):
            if bad.any():
                raise AssertionError(message)


def stopping_forest(mu: Measure, nu: Measure, epsilon, max_depth=10) -> Forest:
    """Split [0, 1) into stopping trees by accumulated squared alphas.

    An interval becomes a leaf of its tree as soon as the inclusive sum of
    alpha^2 over the chain from the tree top reaches epsilon^2; its children
    become tops of new trees.  Tops without mu-mass carry full non-stopping
    (lazy) subtrees.  Trees come out sorted by their tops' (level, index).
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(
            f"epsilon must be finite and positive, not {epsilon!r}")
    _check_depth(max_depth, "max_depth")
    table = alpha_table(mu, nu)
    table.levels(range(max_depth + 1))  # one fill of the levels it reads
    eps2 = epsilon * epsilon
    # (j, k, lazy) of each level's new tops: tree ids follow their order
    tops, ntops = [], 0
    # (j, k, tree id, leaf) of each level's members, after an empty entry
    # for a forest that is one lazy tree
    levels = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0, dtype=bool),)]
    # the level's cells of non-lazy trees: index, chain sum above, tree id,
    # and whether the cell tops a new tree
    k = np.zeros(1, dtype=np.int64)
    s = np.zeros(1)
    tid = np.zeros(1, dtype=np.int64)
    new = np.ones(1, dtype=bool)
    for j in range(max_depth + 1):
        if new.any():
            kt = k[new]
            lazy = dyadic_cell_masses(mu, j)[kt] == 0.0
            tid[new] = ntops + np.arange(kt.size)
            ntops += kt.size
            tops.append((np.full(kt.size, j), kt, lazy))
            keep = np.ones(k.size, dtype=bool)
            keep[new] = ~lazy
            k, s, tid = k[keep], s[keep], tid[keep]
            if k.size == 0:
                break
        _require_charged(nu, j, k)
        a = table.alphas(j, k)
        s2 = s + a * a
        leaf = s2 >= eps2
        levels.append((np.full(k.size, j), k, tid, leaf))
        if j == max_depth:
            break
        k = np.stack([2 * k, 2 * k + 1], axis=1).ravel()
        s = np.repeat(np.where(leaf, 0.0, s2), 2)
        tid = np.repeat(tid, 2)
        new = np.repeat(leaf, 2)

    js, ks, tids, leafs = (np.concatenate(v) for v in zip(*levels))
    tops = [np.concatenate(v) for v in zip(*tops)]
    forest = Forest.__new__(Forest)
    forest._fill(_by_code(tids, js, ks),
                 _by_code(tids[leafs], js[leafs], ks[leafs]),
                 np.array(tops + [np.full(ntops, max_depth)], dtype=np.int64))
    return forest


# ---------------------------------------------------------------------------
# mu-adapted Haar analysis


class HaarSystem(NamedTuple):
    """Haar functions h_I = c_I^+ on I_+, -c_I^- on I_-, adapted to mu.

    Coefficients a_I expand the tree-adapted density of nu against the
    h_I; the masses are normalized so the tree top carries unit mass for
    both measures.
    """

    tree: Tree
    mu: Measure
    nu: Measure
    coeff: dict
    cplus: dict
    cminus: dict
    mu_top: float
    nu_top: float

    def __repr__(self):  # the measures and the dicts are left out
        return (f"HaarSystem(tree={self.tree!r}, mu_top={self.mu_top!r}, "
                f"nu_top={self.nu_top!r})")

    def mu_mass(self, I):
        return cell_mass(self.mu, I) / self.mu_top

    def nu_mass(self, I):
        return cell_mass(self.nu, I) / self.nu_top

    def h_value(self, I, x):
        """h_I at a point x (0 outside I)."""
        if not (I.a <= x < I.b):
            return 0.0
        mid = 0.5 * (I.a + I.b)
        key = (I.j, I.k)
        return self.cplus[key] if x >= mid else -self.cminus[key]

    def h_norm_sq(self, I):
        """int h_I^2 dmu = mu(I)(c_I^+ + c_I^-) in top-normalized mass."""
        key = (I.j, I.k)
        return self.mu_mass(I) * (self.cplus[key] + self.cminus[key])


def haar(mu: Measure, nu: Measure, tree: Tree) -> HaarSystem:
    """The Haar system of the tree's internal members, read a level at a
    time; its dicts are filled, and a bad member named, in (j, k) order."""
    mu_top, nu_top = cell_mass(mu, tree.top), cell_mass(nu, tree.top)
    if mu_top == 0.0 or nu_top == 0.0:
        raise ValueError("tree top must carry mass for both measures")
    js, ks = tree._internal_cells()
    mI, nI = (_cell_masses(m, js, ks) for m in (mu, nu))
    mL, nL = (_cell_masses(m, js + 1, 2 * ks) for m in (mu, nu))
    zero = (mI == 0.0) | (nI == 0.0)
    bad = np.flatnonzero(zero | (mL == 0.0) | (mL == mI))
    if bad.size:
        I = tree.top.system.interval(js[bad[0]], ks[bad[0]])
        if zero[bad[0]]:
            raise ValueError(f"zero mass on tree member {I}")
        raise ValueError(f"mu vanishes on a child of {I}")
    keys = list(zip(js.tolist(), ks.tolist()))
    coeff = dict(zip(keys, (mL / mI - nL / nI).tolist()))
    cplus = dict(zip(keys, (mI / (mI - mL)).tolist()))
    cminus = dict(zip(keys, (mI / mL).tolist()))
    return HaarSystem(tree, mu, nu, coeff, cplus, cminus, mu_top, nu_top)


def coefficient_identity_gap(hs: HaarSystem, I: DyadicInterval):
    """|form4 - form5|: the two expressions for a_I must agree."""
    L, R = navigate(I, "left"), navigate(I, "right")
    mI = cell_mass(hs.mu, I)
    nI = cell_mass(hs.nu, I)
    a4 = cell_mass(hs.mu, L) / mI - cell_mass(hs.nu, L) / nI
    a5 = cell_mass(hs.nu, R) / nI - cell_mass(hs.mu, R) / mI
    return abs(a4 - a5)


def product_check(hs: HaarSystem, I: DyadicInterval):
    """(lhs, rhs) of the ancestor product identity at a tree member I.

    lhs multiplies (1 + a_J h_J) over tree ancestors J of I; rhs is
    nu(I)/mu(I) in top-normalized masses.
    """
    if not hs.tree.contains(I):
        raise ValueError("interval not in tree")
    lhs = 1.0
    J = I
    while J.j > hs.tree.top.j:
        P = navigate(J, "parent")
        key = (P.j, P.k)
        if key in hs.coeff:
            h = hs.cplus[key] if J.k & 1 else -hs.cminus[key]
            lhs *= 1.0 + hs.coeff[key] * h
        J = P
    rhs = hs.nu_mass(I) / hs.mu_mass(I)
    return lhs, rhs


def partial_sum_g(hs: HaarSystem, x, N):
    """g_N(x) = sum of a_I h_I(x) over tree members with |I| > 2^-N."""
    total = 0.0
    I = hs.tree.top
    while I.j < N and (I.j, I.k) in hs.coeff:
        mid = 0.5 * (I.a + I.b)
        key = (I.j, I.k)
        total += hs.coeff[key] * (hs.cplus[key] if x >= mid else -hs.cminus[key])
        I = navigate(I, "right" if x >= mid else "left")
        if not hs.tree.contains(I):
            break
    return total


def g_cell_values(hs: HaarSystem, N):
    """(intervals, values, mu masses) of g_N on the level-N cells of the top,
    by left end: a level sweep, where a cell's chain stops at level N or
    where it carries no Haar function."""
    top = hs.tree.top
    done = []  # (levels, indices, values) of each level's finished cells
    j, k, acc = top.j, np.array([top.k]), np.zeros(1)
    while k.size:
        keys = list(zip([j] * k.size, k.tolist()))
        go = np.array([j != N and key in hs.coeff for key in keys], dtype=bool)
        done.append((np.full(k.size - go.sum(), j), k[~go], acc[~go]))
        a, cm, cp = (np.array([d[key] for key, g in zip(keys, go) if g])
                     for d in (hs.coeff, hs.cminus, hs.cplus))
        acc = np.stack([acc[go] + a * -cm, acc[go] + a * cp], axis=1).ravel()
        j, k = j + 1, np.stack([2 * k[go], 2 * k[go] + 1], axis=1).ravel()
    js, ks, values = (np.concatenate(v) for v in zip(*done))
    order = np.argsort(ks << (js.max() - js))  # left ends, all distinct
    js, ks, values = js[order], ks[order], values[order]
    weights = _cell_masses(hs.mu, js, ks) / hs.mu_top
    return ([DyadicInterval(top.system, j, k)
             for j, k in zip(js.tolist(), ks.tolist())], values, weights)


def g_l2_norm(hs: HaarSystem, N):
    """||g_N||_{L^2(mu)} via orthogonality of the Haar system."""
    total = 0.0
    sys = hs.tree.top.system
    for (j, k), a in hs.coeff.items():
        if j < N:
            total += a * a * hs.h_norm_sq(DyadicInterval(sys, j, k))
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# Whitney partition of (0, 1/2) and the representation inequality


def whitney_partition(tau, kmax=12):
    """Bumps psi_k, |k| <= kmax, summing to 1 on the interior of (0, 1/2).

    psi_0 is a trapezoid over [tau/2, 1/2 - tau/2]; psi_{-k} are triangles
    rising over [(tau/2) 2^-k, tau 2^-k] and falling over the next dyadic
    ramp, and psi_k mirrors psi_{-k} about 1/4.  Lipschitz constants are
    at most 4 * 2^|k| / tau.
    """
    if not (0.0 < tau < 0.125):
        raise ValueError("tau must lie in (0, 1/8)")
    out = {0: PiecewiseLinearFn.make(
        [tau / 2, tau, 0.5 - tau, 0.5 - tau / 2], [0.0, 1.0, 1.0, 0.0])}
    for k in range(1, kmax + 1):
        lo = (tau / 2) * 2.0 ** -k
        mid = tau * 2.0 ** -k
        hi = 2 * tau * 2.0 ** -k
        out[-k] = PiecewiseLinearFn.make([lo, mid, hi], [0.0, 1.0, 0.0])
        out[k] = PiecewiseLinearFn.make(
            [0.5 - hi, 0.5 - mid, 0.5 - lo], [0.0, 1.0, 0.0])
    return out


def _chain(side, tau, kmax):
    """The nested supports and bump series for one half of the partition.

    Returns (functions, intervals): functions[j] is the j-th bump of the
    series (psi_0 / 2 first), supported on intervals[j]; consecutive
    intervals are parent and child.
    """
    psis = whitney_partition(tau, kmax)
    ks = range(1, kmax + 1)
    if side == "minus":  # psi_-k on [0, 2^-k)
        return ([psis[0].scaled(0.5)] + [psis[-k] for k in ks],
                [(0.0, 1.0)] + [(0.0, 2.0 ** -k) for k in ks])
    if side == "plus":  # psi_k on [1/2 - 2^-k, 1/2)
        return ([psis[0].scaled(0.5)] + [psis[k] for k in ks],
                [(0.0, 1.0)] + [(0.5 - 2.0 ** -k, 0.5) for k in ks])
    raise ValueError("side must be minus or plus")


class RepresentationReport(NamedTuple):
    lhs: float
    alpha_term: float
    delta_term: float
    tip_term: float
    nu_factors: tuple
    sup_norm: float
    slack: float
    ok: bool

    @property
    def rhs(self):
        return self.alpha_term + self.delta_term + self.tip_term


def representation_check(mu: Measure, nu: Measure, side="minus", tau=1 / 16,
                         N=6) -> RepresentationReport:
    """Evaluate both sides of the telescoping transport inequality.

    For the bump series Psi = sum psi_j on the nested chain I_0 > I_1 > ...
    the difference |int Psi dmu - int Psi dnu| is bounded by alpha terms
    (Lipschitz constant times length times alpha times mass), delta terms
    weighted by exact nu-tail factors, and 2 ||Psi||_inf mu(I_{N+1}).
    The series runs to N + 16 bumps.  Measures must be probabilities on
    [0, 1).
    """
    if abs(mu.total - 1.0) > 1e-9 or abs(nu.total - 1.0) > 1e-9:
        raise ValueError("representation check expects probability measures")
    funcs, ints = _chain(side, tau, N + 16)
    mu_ints = np.array([integrate(mu, f) for f in funcs])
    nu_ints = np.array([integrate(nu, f) for f in funcs])
    lhs = abs(float(mu_ints.sum() - nu_ints.sum()))
    alpha_term = 0.0
    delta_term = 0.0
    nu_factors = []
    for k in range(N + 1):
        a, b = ints[k]
        mI = mass(mu, a, b)
        if mI == 0.0:
            nu_factors.append(0.0)
            continue
        lip = funcs[k].lipschitz_constant()
        alpha_term += lip * (b - a) * _interval_alpha(mu, nu, (a, b)) * mI
        a2, b2 = ints[k + 1]
        nI2 = mass(nu, a2, b2)
        tail_nu = float(nu_ints[k + 1:].sum())
        f_k = tail_nu / nI2 if nI2 > 0 else 0.0
        nu_factors.append(f_k)
        delta_term += f_k * delta(mu, nu, ints[k]) * mI
    a2, b2 = ints[N + 1]
    # exact sup of the bump series: its max over the breakpoints, where a
    # repeated one changes nothing (np.unique would import numpy.ma)
    bps = np.concatenate([f.breakpoints for f in funcs])
    sup = float(sum(f(bps) for f in funcs).max())
    tip_term = 2.0 * sup * mass(mu, a2, b2)
    slack = alpha_term + delta_term + tip_term - lhs
    return RepresentationReport(lhs, alpha_term, delta_term, tip_term,
                                tuple(nu_factors), sup, slack, slack >= -1e-9)


class TailTipReport(NamedTuple):
    lhs: float
    rhs: float
    alpha_sum: float
    delta_sum: float
    tip_sum: float
    kappa: float
    slack: float
    ok: bool


def tailtip_check(mu: Measure, nu: Measure, I, tau=1 / 16, N1=0,
                  N2=-1) -> TailTipReport:
    """Delta(I) mu(I) against the Tail-Tip right-hand side.

    Works on the blow-ups of both measures onto I (alpha and Delta are
    blow-up invariant) and rescales by mu(I).  The degenerate choice
    (N1, N2) = (0, -1) gives Tail = {I}, Tip = I_- with tip constant 4.
    """
    a, b, _ = _interval_bounds(I)
    mI = mass(mu, a, b)
    if mI == 0.0:
        return TailTipReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, True)
    mU = normalized_blowup(mu, a, b)
    nU = normalized_blowup(nu, a, b)
    plus_N = 0 if N2 == -1 else N2 + 2
    rm = representation_check(mU, nU, "minus", tau, N1)
    rp = representation_check(mU, nU, "plus", tau, plus_N)
    lhs = delta(mu, nu, (a, b)) * mI
    alpha_sum = (rm.alpha_term + rp.alpha_term) * mI
    delta_sum = (rm.delta_term + rp.delta_term) * mI
    tip_sum = (rm.tip_term + rp.tip_term) * mI
    rhs = alpha_sum + delta_sum + tip_sum
    kappa = max(rm.nu_factors + rp.nu_factors, default=0.0)
    slack = rhs - lhs
    return TailTipReport(lhs, rhs, alpha_sum, delta_sum, tip_sum, kappa,
                         slack, slack >= -1e-9)


# ---------------------------------------------------------------------------
# Carleson comparison (Delta sums against alpha sums over a tree)


class CarlesonComparison(NamedTuple):
    """Per-tree arrays, in the forest's tree order."""

    sum_delta: np.ndarray
    sum_alpha: np.ndarray
    top_mass: np.ndarray
    ratio: np.ndarray


def carleson_comparison(mu: Measure, nu: Measure,
                        forest: Forest) -> CarlesonComparison:
    """Per tree, Delta^2 mu summed over it against alpha^2 mu plus top mass.

    Returns one CarlesonComparison whose fields hold a value per tree of
    the forest (Forest([tree]) for one tree).  alpha^2 mu runs over the
    non-leaf members.  Each member's terms are read from the level arrays
    of delta_level_sums and _pruned_terms down to the deepest member
    level, so nu must charge every cell mu charges there.  np.bincount adds
    each tree's terms in (j, k) order, as a member-by-member loop would.
    """
    owner, js, ks, code = forest.members
    depth = int(js.max(initial=0))
    at = (1 << js) - 1 + ks  # a cell's place in its levels joined in order
    d2m = np.concatenate(delta_level_sums(mu, nu, depth)[0])[at]
    a2m = np.concatenate(_pruned_terms(mu, nu, depth))[at]
    a2m[_among(forest.leaves[3], code)] = 0.0
    # float64 also where no tree has members: bincount of no weights is int64
    sum_delta, sum_alpha = (
        np.bincount(owner, t, len(forest)).astype(float, copy=False)
        for t in (d2m, a2m))

    top_mass = forest.top_masses(mu)
    denom = sum_alpha + top_mass
    ratio = np.divide(sum_delta, denom, out=np.zeros_like(denom),
                      where=denom > 0)
    return CarlesonComparison(sum_delta, sum_alpha, top_mass, ratio)


def _cell_masses(m, js, ks):
    """m's masses of the standard cells (js, ks), read a level at a time."""
    out = np.empty(js.size)
    for j in np.flatnonzero(np.bincount(js)).tolist():
        at = js == j
        out[at] = dyadic_cell_masses(m, j)[ks[at]]
    return out


def _coded(owned):
    """_by_code of the cells of (owner, (j, k) pairs) items."""
    owned = list(owned)
    owner = np.repeat([i for i, _ in owned],
                      [len(c) for _, c in owned]).astype(np.int64)
    jk = np.fromiter(chain.from_iterable(chain.from_iterable(
        c for _, c in owned)), dtype=np.int64, count=2 * owner.size)
    return _by_code(owner, jk[0::2], jk[1::2])


def _by_code(owner, js, ks):
    """(owner, j, k, code) arrays of the cells, sorted by code.

    code = owner << 32 | 2^j + k sorts by owner, then (j, k): the heap index
    2^j + k of a cell sorts by level, then by index.
    """
    code = owner << 32 | (np.int64(1) << js) + ks
    order = np.argsort(code)
    return owner[order], js[order], ks[order], code[order]


def _among(codes, q):
    """Whether each value of q is in the sorted array codes."""
    return np.append(codes, -1)[np.searchsorted(codes, q)] == q
