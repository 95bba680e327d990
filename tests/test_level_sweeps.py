"""The level sweeps against the per-cell walks they replaced.

The reference functions below are the recursive and per-point versions of
tolsa_l2, cz_decompose, _pruned_terms, haar, g_cell_values and
dyadic_square_profile, kept as written before every dyadic walk became a
level sweep.  The sweeps
must give == results, not approximately equal ones, on a pair whose alpha
levels are filled and on pairs whose levels stay per entry.
"""

import numpy as np
import pytest

from sqfnlab.alpha import alpha_table
from sqfnlab.dyadic import (
    STANDARD,
    DyadicInterval,
    cell_mass,
    containing_interval,
    navigate,
)
from sqfnlab.measure import generate, is_uniform_on
from sqfnlab.squarefn import (
    _pruned_terms,
    cz_decompose,
    dyadic_square_profile,
    mu_sampled_points,
    tolsa_l2,
)
from sqfnlab.tree import g_cell_values, haar, stopping_forest

LEB = generate({"type": "lebesgue"})
CASC = generate({"type": "cascade", "p": 0.7, "depth": 16})


def _both_uniform(mu, nu, a, b):
    cu = is_uniform_on(mu, a, b)
    if cu is None:
        return False
    return is_uniform_on(nu, a, b) is not None


def _ref_profile(mu, nu, points, depth):
    table = alpha_table(mu, nu)
    pts = np.asarray(points, dtype=float)
    sums = np.zeros((pts.size, depth + 1))
    for i, x in enumerate(pts):
        acc = 0.0
        for j in range(depth + 1):
            a = table.alpha(containing_interval(STANDARD, float(x), j))
            acc += a * a
            sums[i, j] = acc
    return sums


def _ref_pruned_terms(mu, nu, depth):
    table = alpha_table(mu, nu)
    terms = []
    live = [0]
    for j in range(depth + 1):
        mI = [cell_mass(mu, STANDARD.interval(j, k)) for k in range(1 << j)]
        t = np.zeros(1 << j)
        below = []
        for k in live:
            I = STANDARD.interval(j, k)
            if mI[k] == 0.0 or _both_uniform(mu, nu, I.a, I.b):
                continue
            a = table.alpha(I)
            t[k] = a * a * mI[k]
            below += (2 * k, 2 * k + 1)
        terms.append(t)
        live = below
    return terms


def _ref_tolsa_lhs(mu, nu, depth):
    table = alpha_table(mu, nu)
    lhs = 0.0

    def rec(I):
        nonlocal lhs
        nI = cell_mass(nu, I)
        if nI == 0.0:
            return
        if _both_uniform(mu, nu, I.a, I.b):
            return
        mI = cell_mass(mu, I)
        a = table.alpha(I)
        lhs += a * a * mI * mI / nI
        if I.j < depth:
            rec(navigate(I, "left"))
            rec(navigate(I, "right"))

    rec(STANDARD.root())
    return lhs


def _ref_cz(mu, nu, lam, depth):
    bad = []
    ratios = []

    def scan(I):
        mI = cell_mass(mu, I)
        nI = cell_mass(nu, I)
        if nI > 0 and mI > lam * nI:
            bad.append(I)
            ratios.append(mI / nI)
            return
        if I.j < depth and mI > 0:
            scan(navigate(I, "left"))
            scan(navigate(I, "right"))

    scan(STANDARD.root())
    return bad, ratios, sum(cell_mass(nu, I) for I in bad)


def _ref_internal_members(tree):
    sys = tree.top.system
    if tree.lazy_full:
        for j in range(tree.top.j, tree.max_depth):
            base = tree.top.k << (j - tree.top.j)
            for k in range(base, base + (1 << (j - tree.top.j))):
                yield DyadicInterval(sys, j, k)
        return
    leafset = set(tree.leaves)
    for j, k in sorted(tree.members):
        if (j, k) in leafset:
            continue
        if (j + 1, 2 * k) in tree.members:
            yield DyadicInterval(sys, j, k)


def _ref_haar(mu, nu, tree):
    """(coeff, cplus, cminus) as item lists, or the error message."""
    coeff, cplus, cminus = {}, {}, {}
    for I in _ref_internal_members(tree):
        mI = cell_mass(mu, I)
        nI = cell_mass(nu, I)
        if mI == 0.0 or nI == 0.0:
            return f"zero mass on tree member {I}"
        L = navigate(I, "left")
        mL = cell_mass(mu, L)
        nL = cell_mass(nu, L)
        if mL == 0.0 or mL == mI:
            return f"mu vanishes on a child of {I}"
        key = (I.j, I.k)
        coeff[key] = mL / mI - nL / nI
        cplus[key] = mI / (mI - mL)
        cminus[key] = mI / mL
    return [list(d.items()) for d in (coeff, cplus, cminus)]


def _haar_items(mu, nu, tree):
    try:
        hs = haar(mu, nu, tree)
    except ValueError as exc:
        return str(exc)
    return [list(d.items()) for d in (hs.coeff, hs.cplus, hs.cminus)]


def _ref_g_cell_values(hs, N):
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


def _atomic(seed, n=24):
    rng = np.random.default_rng(seed)
    xs, ws = rng.uniform(0.0, 1.0, n), rng.uniform(0.1, 1.0, n)
    return generate({"type": "atomic", "atoms": [
        (float(x), float(w)) for x, w in zip(xs, ws / ws.sum())]})


@pytest.fixture(scope="module")
def pairs():
    """(name, mu, nu): filled alpha levels first, then per-entry ones."""
    return [("cascade", CASC, LEB),
            ("example22", generate({"type": "example22", "n": 8}), LEB),
            ("cantor", generate({"type": "cantor", "depth": 14}), LEB),
            ("atomic", _atomic(4), LEB)]


def _filled(mu, nu, depth):
    table = alpha_table(mu, nu)
    return [table.level(j) is not None for j in range(depth + 1)]


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_the_pairs_cover_filled_and_per_entry_levels(pairs):
    assert all(_filled(CASC, LEB, 10)[2:])
    for name, mu, nu in pairs[1:]:
        assert not all(_filled(mu, nu, 10)), name
    assert not any(_filled(pairs[-1][1], LEB, 10))


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_profile_and_alpha_terms_equal_the_per_cell_walks(pairs):
    for name, mu, nu in pairs:
        pts = mu_sampled_points(mu, 12, 14, seed=1)
        prof = dyadic_square_profile(mu, nu, pts, depth=10)
        assert np.array_equal(prof.partial_sums,
                              _ref_profile(mu, nu, pts, 10)), name
        got, want = _pruned_terms(mu, nu, 10), _ref_pruned_terms(mu, nu, 10)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), name


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_cz_decompose_equals_the_recursive_scan(pairs):
    for name, mu, nu in pairs:
        for lam in (1.0, 1.5, 3.0):
            cz = cz_decompose(mu, nu, lam, depth=9)
            bad, ratios, union = _ref_cz(mu, nu, lam, 9)
            assert list(cz.bad) == bad, (name, lam)
            assert list(cz.bad_ratios) == ratios, (name, lam)
            assert cz.bad_union_nu(nu) == union, (name, lam)


def _level_tolsa_terms(mu, nu, depth):
    table = alpha_table(mu, nu)
    for j in range(depth + 1):
        for k in range(1 << j):
            I = STANDARD.interval(j, k)
            a, mI = table.alpha(I), cell_mass(mu, I)
            yield a * a * mI * mI / cell_mass(nu, I)


def test_tolsa_l2_equals_the_preorder_recursion(pairs):
    rng = np.random.default_rng(0)
    cells = rng.uniform(0.5, 2.0, 64)
    dens = generate({"type": "histogram", "cells": (cells / cells.sum())
                     .tolist()})
    # adding the same terms level by level rounds differently here
    level_order = 0.0
    for t in _level_tolsa_terms(dens, LEB, 8):
        level_order += t
    lhs = tolsa_l2(dens, LEB, depth=8)[0]
    assert lhs == _ref_tolsa_lhs(dens, LEB, 8) != level_order
    for name, mu, nu in pairs[:3]:  # the densities
        for depth in (0, 5, 10):
            assert tolsa_l2(mu, nu, depth)[0] == _ref_tolsa_lhs(mu, nu, depth)


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_haar_equals_the_member_loop(pairs):
    # a full tree, and lazy trees whose tops other pairs charge
    full = stopping_forest(LEB, LEB, 10.0, max_depth=8).trees
    lazy = [t for t in stopping_forest(pairs[2][1], LEB, 1.0 / 16.0,
                                       max_depth=6).trees if t.lazy_full]
    outcomes = []
    for name, mu, nu in pairs:
        trees = stopping_forest(mu, nu, 1.0 / 64.0, max_depth=8).trees
        for tree in [t for t in trees if t.members] + list(full) + lazy[:3]:
            if cell_mass(mu, tree.top) == 0.0 or \
                    cell_mass(nu, tree.top) == 0.0:
                continue
            got = _haar_items(mu, nu, tree)
            assert got == _ref_haar(mu, nu, tree), (name, tree.top)
            outcomes.append((tree.lazy_full, isinstance(got, str)))
    # systems of full and lazy trees, and errors, were all compared
    assert {(False, False), (True, False), (False, True)} <= set(outcomes)


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_g_cell_values_equal_the_recursion(pairs):
    # cells in left-end order, as the CLI's Parseval sum reads them
    full = stopping_forest(LEB, LEB, 10.0, max_depth=8).trees[0]
    compared = 0
    for name, mu, nu in pairs:
        trees = stopping_forest(mu, nu, 1.0 / 64.0, max_depth=8).trees
        for tree in [t for t in trees if t.members] + [full]:
            try:
                hs = haar(mu, nu, tree)
            except ValueError:
                continue
            for N in (tree.top.j, tree.top.j + 3, tree.top.j + 8, 12):
                got, want = g_cell_values(hs, N), _ref_g_cell_values(hs, N)
                assert got[0] == want[0], (name, tree.top, N)
                assert np.array_equal(got[1], want[1]), (name, tree.top, N)
                assert np.array_equal(got[2], want[2]), (name, tree.top, N)
                compared += len(got[0]) > 1
    assert compared > 10
