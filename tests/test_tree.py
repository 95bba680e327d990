import dataclasses
import math

import numpy as np
import pytest

from sqfnlab.alpha import alpha, alpha_table, epsilon_for_doubling
from sqfnlab.cli import SCENARIOS, _random_measure
from sqfnlab.dyadic import (
    DEPTH_CAP,
    MAX_LEVEL,
    STANDARD,
    cell_mass,
    delta,
    doubling_constant,
    navigate,
)
from sqfnlab.measure import generate, mass
from sqfnlab.tree import (
    CarlesonComparison,
    Forest,
    Tree,
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
    Forest((tree,)).check_structure()


def test_check_structure_names_each_defect():
    # a healthy forest of many trees passes: leaves of different trees nest
    stopping_forest(CASC, LEB, 1.0 / 128.0, max_depth=6).check_structure()
    stopping_forest(generate({"type": "cantor", "depth": 10}), LEB,
                    1.0 / 16.0, max_depth=6).check_structure()
    tree = _full_tree(2)
    cells = tree.members
    broken = {
        "orphan member": dict(members=cells | {(4, 0)}),
        "single-child member": dict(members=cells | {(3, 0)}),
        "leaf with children": dict(leaves=((1, 0),)),
        "childless non-leaf above depth cap": dict(max_depth=3),
        "overlapping leaves": dict(leaves=((2, 0), (3, 1))),
    }
    lazy = Tree(STANDARD.interval(1, 1), None, (), 2, lazy_full=True)
    for message, change in broken.items():
        bad = dataclasses.replace(tree, **change)
        forest = Forest((_full_tree(1), bad, lazy))
        with pytest.raises(AssertionError, match=f"^{message}$"):
            forest.check_structure()


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


def test_forest_rejects_bad_epsilon_and_depth():
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            stopping_forest(LEB, LEB, eps, max_depth=4)
    for depth in (-3, DEPTH_CAP + 1, MAX_LEVEL + 1, 4.0, True, "4"):
        with pytest.raises(ValueError, match="max_depth"):
            stopping_forest(LEB, LEB, 0.25, max_depth=depth)


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
    cc = carleson_comparison(CASC, LEB, Forest([t0]))
    # singleton tree: one Delta^2 mu term over mu(top) alone
    assert cc.sum_alpha.tolist() == [0.0]
    assert cc.ratio[0] == pytest.approx(0.04, abs=1e-12)


def test_carleson_sum_grows_linearly_on_full_cascade_tree():
    tree = _full_tree(8)
    cc = carleson_comparison(CASC, LEB, Forest([tree]))
    # Delta = 0.2 at every cell and masses telescope: 0.04 per level
    assert cc.sum_delta.tolist() == pytest.approx([0.04 * 9], rel=1e-10)


# ---------------------------------------------------------------------------
# the level sweeps against the depth-first walk and the per-tree loop


def _dfs_forest(mu, nu, epsilon, max_depth):
    """The trees of the depth-first stopping walk, sorted by top."""
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
                leaves.append((I.j, I.k))
                if I.j < max_depth:
                    queue.append(navigate(I, "left"))
                    queue.append(navigate(I, "right"))
            elif I.j < max_depth:
                stack.append((navigate(I, "left"), s2))
                stack.append((navigate(I, "right"), s2))
        trees.append(Tree(top, frozenset(members), tuple(leaves), max_depth))
    trees.sort(key=lambda t: (t.top.j, t.top.k))
    return trees


def _per_tree(cc):
    """A CarlesonComparison's fields as one (sum_delta, sum_alpha,
    top_mass, ratio) tuple per tree."""
    assert isinstance(cc, CarlesonComparison)
    return list(zip(*(f.tolist() for f in (
        cc.sum_delta, cc.sum_alpha, cc.top_mass, cc.ratio))))


def _tree_carleson(mu, nu, tree):
    """One tree's (sum_delta, sum_alpha, top_mass, ratio), member by
    member."""
    top_mass = cell_mass(mu, tree.top)
    if tree.lazy_full:
        return 0.0, 0.0, top_mass, 0.0
    sum_delta = 0.0
    sum_alpha = 0.0
    leafset = set(tree.leaves)
    for j, k in sorted(tree.members):
        I = STANDARD.interval(j, k)
        mI = cell_mass(mu, I)
        if mI == 0.0:
            continue
        d = delta(mu, nu, I)
        sum_delta += d * d * mI
        if (j, k) not in leafset:
            a_val = alpha(mu, nu, I)
            sum_alpha += a_val * a_val * mI
    denom = sum_alpha + top_mass
    ratio = sum_delta / denom if denom > 0 else 0.0
    return sum_delta, sum_alpha, top_mass, ratio


@pytest.fixture(scope="module")
def forest_cases():
    """(name, mu, nu, epsilon, depth): the suite's forests and a fleet."""
    cascade16 = generate({"type": "cascade", "p": 0.7, "depth": 16})
    cases = [("cascade-16", cascade16, LEB, 1.0 / 128.0, 12)]
    for name in ("cantor", "example22", "example52", "example53",
                 "finite-haar-ainfty", "ac-density", "identity"):
        cfg = SCENARIOS[name]
        mu, nu = generate(cfg["mu_spec"]), generate(cfg["nu_spec"])
        D = doubling_constant(nu, depth=min(cfg["depth"], 10)).constant
        eps = epsilon_for_doubling(max(D, 1.0))[0] if math.isfinite(D) \
            else 1.0 / 128.0
        cases.append((name, mu, nu, eps, min(cfg["depth"], 12)))
    rng = np.random.default_rng(10)
    for i in range(20):
        mu = _random_measure(rng)
        cells = rng.uniform(0.05, 1.0, 16)
        nu = generate({"type": "histogram",
                       "cells": (cells / cells.sum()).tolist()})
        cases.append((f"random-{i}", mu, nu, 1.0 / 64.0, 6))
    return cases


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_level_forest_equals_the_dfs(forest_cases):
    lazies = 0
    for name, mu, nu, eps, depth in forest_cases:
        forest = stopping_forest(mu, nu, eps, max_depth=depth)
        want = _dfs_forest(mu, nu, eps, depth)
        assert len(forest.trees) == len(want), name
        lazies += sum(t.lazy_full for t in forest.trees)
        for got, ref in zip(forest.trees, want):
            assert got.top == ref.top, name
            assert got.lazy_full == ref.lazy_full, (name, ref.top)
            assert got.members == ref.members, (name, ref.top)
            assert got.leaves == tuple(sorted(ref.leaves)), (name, ref.top)
            assert got.max_depth == ref.max_depth, (name, ref.top)
    assert lazies > 0


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_carleson_comparison_equals_the_per_tree_sums(forest_cases):
    # a full tree and a lazy tree from other pairs' forests, whose tops carry
    # mu-mass under the pair they are compared on
    full = _full_tree(8)
    cantor = generate({"type": "cantor", "depth": 10})
    lazy = next(t for t in stopping_forest(cantor, LEB, 1.0 / 16.0,
                                           max_depth=6).trees if t.lazy_full)
    for name, mu, nu, eps, depth in forest_cases:
        trees = stopping_forest(mu, nu, eps, max_depth=depth).trees
        got = _per_tree(carleson_comparison(mu, nu, Forest(trees)))
        assert got == [_tree_carleson(mu, nu, t) for t in trees], name
    for mu in (CASC, LEB):
        trees = [full, lazy, full]
        got = _per_tree(carleson_comparison(mu, LEB, Forest(trees)))
        assert got == [_tree_carleson(mu, LEB, t) for t in trees]
    assert got[1][2] > 0.0 and got[1][3] == 0.0
    assert _per_tree(carleson_comparison(CASC, LEB, Forest([]))) == []


def test_carleson_fields_are_float_on_any_forest():
    # an empty forest and a forest of one lazy tree have no members, where
    # np.bincount of empty weights returns int64
    cantor = generate({"type": "cantor", "depth": 10})
    lazy = next(t for t in stopping_forest(cantor, LEB, 1.0 / 16.0,
                                           max_depth=6).trees if t.lazy_full)
    for trees, size in (([], 0), ([lazy], 1), ([_full_tree(4)], 1)):
        cc = carleson_comparison(CASC, LEB, Forest(trees))
        for field in dataclasses.fields(cc):
            value = getattr(cc, field.name)
            assert (value.dtype, value.shape) == (np.float64, (size,)), (
                field.name, len(trees))
    assert cc.sum_delta[0] > 0.0 and cc.sum_alpha[0] > 0.0


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_array_forest_equals_its_tree_objects(forest_cases):
    # the sweep's arrays against the same trees encoded from Tree objects
    lazies = 0
    for name, mu, nu, eps, depth in forest_cases:
        if not (name in ("cascade-16", "cantor") or name.startswith("random")):
            continue
        forest = stopping_forest(mu, nu, eps, max_depth=depth)
        trees = forest.trees
        encoded = Forest(trees)
        for got, want in zip(encoded.members + encoded.leaves,
                             forest.members + forest.leaves):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert np.array_equal(encoded.tops, forest.tops), name
        assert len(forest) == len(encoded) == len(trees), name
        for i, tree in enumerate(trees):
            assert forest.tree(i) == tree, (name, i)
            # the member arrays are in (j, k) order, as the CLI reads them
            assert list(zip(*(v.tolist() for v in forest.cells(i)))) == \
                sorted(tree.members or ()), (name, i)
        lazies += sum(t.lazy_full for t in trees)
        assert _per_tree(carleson_comparison(mu, nu, forest)) == _per_tree(
            carleson_comparison(mu, nu, Forest(list(trees)))), name
    assert lazies > 0
