"""Stopping-time trees, adapted Haar analysis, and Whitney/Tail-Tip checks.

Trees are coherent families of standard dyadic intervals below a top: every
member's parent (up to the top) is a member, and members have either two
children in the tree or none (leaves; intervals at the depth cap may be cut
off, which is recorded).  The stopping forest splits [0, 1) into trees by
accumulating squared alpha-numbers along chains; leaves are the first
intervals where the inclusive sum reaches the threshold, and their children
start new trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measure import (
    Measure,
    PiecewiseLinearFn,
    integrate,
    mass,
    normalized_blowup,
)
from .dyadic import STANDARD, DyadicInterval, cell_mass, delta, navigate
from .alpha import _interval_bounds, alpha_table
from .alpha import alpha as _interval_alpha

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


@dataclass(frozen=True)
class Tree:
    """A coherent dyadic family with a single top.

    members holds (level, index) pairs including the top; lazy_full trees
    (tops carrying no mu-mass) represent the complete non-stopping subtree
    down to max_depth without materializing it.
    """

    top: DyadicInterval
    members: frozenset | None
    leaves: tuple
    max_depth: int
    lazy_full: bool = False

    def contains(self, I: DyadicInterval):
        if self.lazy_full:
            return (self.top.j <= I.j <= self.max_depth
                    and (I.k >> (I.j - self.top.j)) == self.top.k)
        return (I.j, I.k) in self.members

    def member_intervals(self):
        sys = self.top.system
        if self.lazy_full:
            for j in range(self.top.j, self.max_depth + 1):
                base = self.top.k << (j - self.top.j)
                for k in range(base, base + (1 << (j - self.top.j))):
                    yield DyadicInterval(sys, j, k)
            return
        for j, k in sorted(self.members):
            yield DyadicInterval(sys, j, k)

    def internal_members(self):
        """Members whose both children are members (Haar carriers)."""
        sys = self.top.system
        if self.lazy_full:
            for j in range(self.top.j, self.max_depth):
                base = self.top.k << (j - self.top.j)
                for k in range(base, base + (1 << (j - self.top.j))):
                    yield DyadicInterval(sys, j, k)
            return
        leafset = {(L.j, L.k) for L in self.leaves}
        for j, k in sorted(self.members):
            if (j, k) in leafset:
                continue
            if (j + 1, 2 * k) in self.members:
                yield DyadicInterval(sys, j, k)

    def check_structure(self):
        """Coherence and child-count invariants, exhaustively."""
        if self.lazy_full:
            return True
        leafset = {(L.j, L.k) for L in self.leaves}
        for j, k in self.members:
            if j > self.top.j and (j - 1, k >> 1) not in self.members:
                raise AssertionError("orphan member")
            has_l = (j + 1, 2 * k) in self.members
            has_r = (j + 1, 2 * k + 1) in self.members
            if has_l != has_r:
                raise AssertionError("single-child member")
            if (j, k) in leafset and has_l:
                raise AssertionError("leaf with children")
            if not has_l and (j, k) not in leafset and j < self.max_depth:
                raise AssertionError("childless non-leaf above depth cap")
        # leaves pairwise disjoint
        spans = sorted((L.a, L.b) for L in self.leaves)
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            if a2 < b1:
                raise AssertionError("overlapping leaves")
        return True


@dataclass(frozen=True)
class Forest:
    trees: tuple
    epsilon: float
    max_depth: int


def stopping_forest(mu: Measure, nu: Measure, epsilon, max_depth=10) -> Forest:
    """Split [0, 1) into stopping trees by accumulated squared alphas.

    An interval becomes a leaf of its tree as soon as the inclusive sum of
    alpha^2 over the chain from the tree top reaches epsilon^2; its children
    become tops of new trees.  Tops without mu-mass carry full non-stopping
    (lazy) subtrees.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    table = alpha_table(mu, nu)
    eps2 = epsilon * epsilon
    trees = []
    queue = [STANDARD.root()]
    while queue:
        top = queue.pop()
        if cell_mass(mu, top) == 0.0:
            trees.append(Tree(top, None, (), max_depth, lazy_full=True))
            continue
        members = set()
        leaves = []
        stack = [(top, 0.0)]
        while stack:
            I, s = stack.pop()
            if cell_mass(nu, I) == 0.0:
                raise ValueError(f"nu vanishes on {I}: doubling violation")
            a_val = table.alpha(I)
            s2 = s + a_val * a_val
            members.add((I.j, I.k))
            if s2 >= eps2:
                leaves.append(I)
                if I.j < max_depth:
                    queue.append(navigate(I, "left"))
                    queue.append(navigate(I, "right"))
            elif I.j < max_depth:
                stack.append((navigate(I, "left"), s2))
                stack.append((navigate(I, "right"), s2))
        trees.append(Tree(top, frozenset(members), tuple(leaves), max_depth))
    trees.sort(key=lambda t: (t.top.j, t.top.k))
    return Forest(tuple(trees), epsilon, max_depth)


# ---------------------------------------------------------------------------
# mu-adapted Haar analysis


@dataclass(frozen=True)
class HaarSystem:
    """Haar functions h_I = c_I^+ on I_+, -c_I^- on I_-, adapted to mu.

    Coefficients a_I expand the tree-adapted density of nu against the
    h_I; the masses are normalized so the tree top carries unit mass for
    both measures.
    """

    tree: Tree
    mu: Measure = field(repr=False)
    nu: Measure = field(repr=False)
    coeff: dict = field(repr=False)
    cplus: dict = field(repr=False)
    cminus: dict = field(repr=False)
    mu_top: float
    nu_top: float

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
    mu_top = cell_mass(mu, tree.top)
    nu_top = cell_mass(nu, tree.top)
    if mu_top == 0.0 or nu_top == 0.0:
        raise ValueError("tree top must carry mass for both measures")
    coeff, cplus, cminus = {}, {}, {}
    for I in tree.internal_members():
        mI = cell_mass(mu, I)
        nI = cell_mass(nu, I)
        if mI == 0.0 or nI == 0.0:
            raise ValueError(f"zero mass on tree member {I}")
        L = navigate(I, "left")
        mL = cell_mass(mu, L)
        nL = cell_mass(nu, L)
        if mL == 0.0 or mL == mI:
            raise ValueError(f"mu vanishes on a child of {I}")
        key = (I.j, I.k)
        coeff[key] = mL / mI - nL / nI
        cplus[key] = mI / (mI - mL)
        cminus[key] = mI / mL
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
    """(intervals, values, mu masses) of g_N on the level-N cells of the top."""
    cells, values, weights = [], [], []

    def walk(I, acc):
        key = (I.j, I.k)
        if I.j == N or key not in hs.coeff:
            cells.append(I)
            values.append(acc)
            weights.append(hs.mu_mass(I))
            return
        walk(navigate(I, "left"), acc + hs.coeff[key] * -hs.cminus[key])
        walk(navigate(I, "right"), acc + hs.coeff[key] * hs.cplus[key])

    walk(hs.tree.top, 0.0)
    return cells, np.asarray(values), np.asarray(weights)


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
    funcs = [psis[0].scaled(0.5)]
    ints = [(0.0, 1.0)]
    if side == "minus":
        for k in range(1, kmax + 1):
            funcs.append(psis[-k])
            ints.append((0.0, 2.0 ** -k))
    elif side == "plus":
        ints.append((0.0, 0.5))
        funcs.append(psis[1])
        cur = (0.0, 0.5)
        for k in range(2, kmax + 1):
            cur = (0.5 * (cur[0] + cur[1]), cur[1])
            ints.append(cur)
            funcs.append(psis[k])
    else:
        raise ValueError("side must be minus or plus")
    return funcs, ints


@dataclass(frozen=True)
class RepresentationReport:
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
    # exact sup of the bump series over its breakpoints
    bps = np.unique(np.concatenate([f.breakpoints for f in funcs]))
    sup = float(max(sum(float(f(x)) for f in funcs) for x in bps))
    tip_term = 2.0 * sup * mass(mu, a2, b2)
    slack = alpha_term + delta_term + tip_term - lhs
    return RepresentationReport(lhs, alpha_term, delta_term, tip_term,
                                tuple(nu_factors), sup, slack, slack >= -1e-9)


@dataclass(frozen=True)
class TailTipReport:
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


@dataclass(frozen=True)
class CarlesonComparison:
    sum_delta: float
    sum_alpha: float
    top_mass: float
    ratio: float


def carleson_comparison(mu: Measure, nu: Measure,
                        tree: Tree) -> CarlesonComparison:
    """Sum of Delta^2 mu over the tree against alpha^2 mu plus top mass."""
    top_mass = cell_mass(mu, tree.top)
    if tree.lazy_full:
        return CarlesonComparison(0.0, 0.0, top_mass, 0.0)
    sum_delta = 0.0
    sum_alpha = 0.0
    leafset = {(L.j, L.k) for L in tree.leaves}
    for I in tree.member_intervals():
        mI = cell_mass(mu, I)
        if mI == 0.0:
            continue
        d = delta(mu, nu, I)
        sum_delta += d * d * mI
        if (I.j, I.k) not in leafset:
            a_val = _interval_alpha(mu, nu, I)
            sum_alpha += a_val * a_val * mI
    denom = sum_alpha + top_mass
    ratio = sum_delta / denom if denom > 0 else 0.0
    return CarlesonComparison(sum_delta, sum_alpha, top_mass, ratio)
