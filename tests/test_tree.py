import math

import numpy as np
import pytest

from sqfnlab.dyadic import STANDARD
from sqfnlab.measure import generate, mass
from sqfnlab.tree import (
    carleson_comparison,
    coefficient_identity_gap,
    g_cell_values,
    g_l2_norm,
    haar,
    partial_sum_g,
    product_check,
    representation_check,
    stopping_forest,
    tailtip_check,
    whitney_partition,
)

LEB = generate({"type": "lebesgue"})
CASC = generate({"type": "cascade", "p": 0.7, "depth": 16})


def _full_tree(depth):
    """The identity forest yields one full non-branching-stopped tree."""
    forest = stopping_forest(LEB, LEB, 0.25, max_depth=depth)
    assert len(forest.trees) == 1
    return forest.trees[0]


def test_identity_forest_is_one_full_tree():
    tree = _full_tree(6)
    assert tree.top.bounds() == (0.0, 1.0)
    assert len(tree.members) == 2 ** 7 - 1
    assert tree.leaves == ()
    assert tree.check_structure()


def test_cascade_forest_stops_immediately_at_small_epsilon():
    forest = stopping_forest(CASC, LEB, 1.0 / 128.0, max_depth=6)
    # alpha^2 of every cell exceeds epsilon^2, so every top is a leaf
    # and its children become new tops: singleton trees at every cell
    assert len(forest.trees) == 2 ** 7 - 1
    assert all(len(t.members) == 1 for t in forest.trees)


def test_forest_requires_positive_reference_measure():
    holes = generate({"type": "histogram", "cells": [0.5, 0.0, 0.0, 0.5]})
    with pytest.raises(ValueError):
        stopping_forest(LEB, holes, 0.25, max_depth=4)


def test_zero_mass_top_becomes_lazy_full_tree():
    cantor = generate({"type": "cantor", "depth": 10})
    forest = stopping_forest(cantor, LEB, 1.0 / 16.0, max_depth=6)
    lazies = [t for t in forest.trees if t.lazy_full]
    assert lazies
    for t in lazies:
        assert mass(cantor, t.top.a, t.top.b) == 0.0


def test_haar_coefficient_forms_agree():
    tree = _full_tree(6)
    hs = haar(LEB, CASC, tree)
    # cascade masses come from a 2^16-term cumulative sum; accumulation class
    assert hs.coeff[(0, 0)] == pytest.approx(0.5 - 0.7, abs=1e-12)
    for key in [(0, 0), (3, 4), (5, 30)]:
        I = STANDARD.interval(*key)
        assert coefficient_identity_gap(hs, I) <= 1e-15


def test_haar_mean_zero_and_orthogonality():
    tree = _full_tree(6)
    hs = haar(CASC, LEB, tree)
    for key in [(0, 0), (2, 1), (4, 9)]:
        I = STANDARD.interval(*key)
        mid = 0.5 * (I.a + I.b)
        cp, cm = hs.cplus[key], hs.cminus[key]
        mean = cp * hs.mu_mass(STANDARD.interval(I.j + 1, 2 * I.k + 1)) \
            - cm * hs.mu_mass(STANDARD.interval(I.j + 1, 2 * I.k))
        assert abs(mean) <= 1e-14
        # h_I is constant on each child, so <h_I, h_J> = const * mean(h_J)
        # for strictly deeper J: orthogonality reduces to mean zero
    # distinct same-level intervals have disjoint supports: trivially 0


def test_product_of_haar_factors_gives_density_ratio():
    tree = _full_tree(6)
    hs = haar(LEB, CASC, tree)
    I = STANDARD.interval(3, 0)  # leftmost: density (0.7)^3 / (1/8)
    lhs, rhs = product_check(hs, I)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert rhs == pytest.approx(0.7 ** 3 * 8, rel=1e-12)


def test_partial_sum_matches_cell_values_and_parseval():
    tree = _full_tree(7)
    hs = haar(LEB, CASC, tree)
    cells, vals, wts = g_cell_values(hs, 5)
    for I, v in zip(cells[:8], vals[:8]):
        x = 0.5 * (I.a + I.b)
        assert partial_sum_g(hs, x, 5) == pytest.approx(v, abs=1e-12)
    quad = math.sqrt(sum(v * v * w for v, w in zip(vals, wts)))
    assert g_l2_norm(hs, 5) == pytest.approx(quad, abs=1e-12)


def test_whitney_partition_sums_to_one_on_left_half():
    parts = whitney_partition(1.0 / 16.0, kmax=10)
    xs = np.linspace(0.001, 0.499, 211)
    total = sum(psi(xs) for psi in parts.values())
    inside = (xs >= (1.0 / 32.0) * 2.0 ** -10) & (xs <= 0.5 - 2.0 ** -14)
    np.testing.assert_allclose(total[inside], 1.0, atol=1e-12)
    # Lipschitz constants grow like 2^k / tau with constant at most 4
    for k, psi in parts.items():
        assert psi.lipschitz_constant() <= 4.0 * 2.0 ** abs(k) / (1.0 / 16.0)


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_representation_inequality_has_nonnegative_slack(side):
    mu = generate({"type": "example22", "n": 6})
    rep = representation_check(mu, LEB, side=side, N=8)
    assert rep.ok and rep.slack >= 0.0


def test_representation_slack_for_cascade():
    for side in ("minus", "plus"):
        rep = representation_check(CASC, LEB, side=side, N=6)
        assert rep.ok and rep.slack >= 0.0


def test_tailtip_bounds_delta_general_and_degenerate():
    mu = generate({"type": "example22", "n": 8})
    rep = tailtip_check(mu, LEB, STANDARD.root(), N1=2, N2=1)
    assert rep.ok and rep.lhs <= rep.rhs
    deg = tailtip_check(CASC, LEB, STANDARD.root(), N1=0, N2=-1)
    assert deg.ok and deg.lhs <= deg.rhs


def test_carleson_comparison_cascade_ratio():
    forest = stopping_forest(CASC, LEB, 1.0 / 128.0, max_depth=6)
    t0 = next(t for t in forest.trees if t.top.bounds() == (0.0, 1.0))
    cc = carleson_comparison(CASC, LEB, t0)
    # singleton tree: one Delta^2 mu term over mu(top) alone
    assert cc.sum_alpha == 0.0
    assert cc.ratio == pytest.approx(0.04, abs=1e-12)


def test_carleson_sum_grows_linearly_on_full_cascade_tree():
    tree = _full_tree(8)
    cc = carleson_comparison(CASC, LEB, tree)
    # Delta = 0.2 at every cell and masses telescope: 0.04 per level
    assert cc.sum_delta == pytest.approx(0.04 * 9, rel=1e-10)
