import math

import numpy as np
import pytest

import sqfnlab.dyadic as dyadic_module
import sqfnlab.squarefn as squarefn_module
from sqfnlab.alpha import alpha
from sqfnlab.dyadic import STANDARD, doubling_constant, shifted_systems
from sqfnlab.measure import (
    Measure,
    dyadic_cell_masses,
    generate,
    mass,
    restrict,
)
from sqfnlab.squarefn import (
    buckley_ratio,
    continuous_square_profile,
    cz_decompose,
    delta_level_sums,
    domination_check,
    dyadic_square_profile,
    mu_sampled_points,
    tolsa_l2,
)
from sqfnlab.tree import Forest, Tree, carleson_comparison

LEB = generate({"type": "lebesgue"})
CASC = generate({"type": "cascade", "p": 0.7, "depth": 16})


def test_mu_sampled_points_land_in_support():
    cantor = generate({"type": "cantor", "depth": 10})
    pts = mu_sampled_points(cantor, 32, 8, seed=1)
    for x in pts:
        cell = math.floor(x * 256) / 256
        assert mass(cantor, cell, cell + 1.0 / 256) > 0


def test_dyadic_profile_slope_matches_cell_alpha():
    pts = mu_sampled_points(CASC, 16, 14, seed=2)
    prof = dyadic_square_profile(CASC, LEB, pts, depth=10)
    a2 = alpha(CASC, LEB, STANDARD.root()) ** 2
    np.testing.assert_allclose(prof.slopes(), a2, rtol=0.05)


def test_dyadic_profile_converges_for_bounded_density():
    rng = np.random.default_rng(6)
    cells = rng.uniform(0.5, 2.0, 64)
    cells /= cells.sum()
    hist = generate({"type": "histogram", "cells": cells.tolist()})
    pts = mu_sampled_points(hist, 16, 16, seed=3)
    prof = dyadic_square_profile(hist, LEB, pts, depth=12)
    assert np.max(prof.final_increments(8)) == 0.0


def test_profile_partial_sums_nondecreasing_and_csv(tmp_path):
    pts = mu_sampled_points(CASC, 4, 12, seed=4)
    prof = dyadic_square_profile(CASC, LEB, pts, depth=8)
    assert np.all(np.diff(prof.partial_sums, axis=1) >= 0)
    out = tmp_path / "prof.csv"
    prof.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "point,depth,partial_sum"
    assert len(lines) == 1 + 4 * 9


def test_continuous_profile_identity_is_zero():
    prof = continuous_square_profile(LEB, LEB, [0.3, 0.7], r_min=2.0 ** -6)
    assert np.all(prof.partial_sums == 0.0)


def test_continuous_profile_grows_for_cascade():
    prof = continuous_square_profile(CASC, LEB, [0.3], r_min=2.0 ** -6)
    sums = prof.partial_sums[0]
    assert sums[-1] > sums[len(sums) // 2] > 0


def test_carleson_sum_cascade_delta_flavor():
    # the root's subtree sum: every cascade cell has Delta = 0.2
    assert delta_level_sums(CASC, LEB, 10)[1][0][0] == pytest.approx(
        0.04 * 11, rel=1e-10)


def test_carleson_sum_identity_is_zero():
    assert buckley_ratio(LEB, LEB, 12, which="alpha") == 0.0


def test_buckley_ratio_flavors_on_finite_perturbation():
    w = generate({"type": "finite-haar", "seed": 0, "levels": 5})
    # perturbations stop at level 5: deeper levels add nothing
    for which in ("delta", "alpha"):
        b10 = buckley_ratio(w, LEB, 10, which=which)
        b14 = buckley_ratio(w, LEB, 14, which=which)
        assert b10 > 0
        assert b14 == pytest.approx(b10, rel=1e-12)


def test_tolsa_l2_bound_random_densities():
    rng = np.random.default_rng(9)
    for _ in range(10):
        dens = rng.uniform(0.5, 2.0, 32)
        cells = dens / dens.sum()
        g = generate({"type": "histogram", "cells": cells.tolist()})
        lhs, l2, ratio = tolsa_l2(g, LEB, depth=8)
        assert math.isfinite(ratio) and lhs >= 0
        assert l2 == pytest.approx(np.sum((cells * 32) ** 2) / 32, rel=1e-12)
        # alphas vanish below the histogram resolution: deeper sums agree
        lhs2, _, _ = tolsa_l2(g, LEB, depth=10)
        assert lhs2 == pytest.approx(lhs, rel=1e-12)


def test_tolsa_l2_reads_g_between_the_piece_ends():
    # a histogram drops its empty cells, so its piece count understates the
    # resolution of g; int g^2 dnu sums mu(I)^2 / nu(I) over the cells
    # between the piece ends
    for cells, want in (([0.75, 0.0, 0.0, 0.25], 2.5),
                        ([0.5] + [0.0] * 6 + [0.5], 4.0)):
        g = generate({"type": "histogram", "cells": cells})
        lhs, l2, ratio = tolsa_l2(g, LEB, depth=6)
        assert l2 == want and ratio == lhs / want


def test_cz_decomposition_invariants():
    rng = np.random.default_rng(13)
    for _ in range(10):
        cells = rng.uniform(0.05, 1.0, 64)
        cells[rng.integers(0, 64)] *= 8
        cells /= cells.sum()
        mu = generate({"type": "histogram", "cells": cells.tolist()})
        lam = float(rng.uniform(1.2, 3.0))
        cz = cz_decompose(mu, LEB, lam, depth=8)
        # maximal bad intervals: parent not bad
        for I, r in zip(cz.bad, cz.bad_ratios):
            assert r > lam
        assert cz.bad_union_nu(LEB) < 1.0 / lam
        # reconstruction at depth-8 cells
        mg = dyadic_cell_masses(cz.good, 8)
        mm = dyadic_cell_masses(mu, 8)
        bsum = np.zeros_like(mm)
        for I, r in zip(cz.bad, cz.bad_ratios):
            bm = dyadic_cell_masses(restrict(mu, I.a, I.b), 8)
            bn = dyadic_cell_masses(restrict(LEB, I.a, I.b), 8)
            assert abs((bm - r * bn).sum()) <= 1e-12  # b_I has zero mass
            bsum += bm - r * bn
        assert np.max(np.abs(mg + bsum - mm)) <= 1e-12
        # good part density bounded by D_nu * lambda
        D = doubling_constant(LEB, depth=8).constant
        nub = dyadic_cell_masses(LEB, 8)
        assert np.max(mg / nub) <= D * lam + 1e-12


def test_cz_keeps_an_atom_at_one():
    # the cell masses fold the atom at 1 into the last cell; the good part
    # must keep it too
    mu = Measure.make(atoms=[(1.0, 0.2)],
                      pieces=[(0.0, 0.5, 0.6), (0.5, 1.0, 0.2)])
    assert cz_decompose(mu, LEB, 3.0, depth=1).good.total == 1.0
    # and so must the nu part of a bad last cell
    mu = Measure.make(atoms=[(1.0, 0.2)],
                      pieces=[(0.0, 0.5, 0.2), (0.5, 1.0, 0.6)])
    nu = Measure.make(atoms=[(1.0, 0.25)], pieces=[(0.0, 1.0, 0.75)])
    cz = cz_decompose(mu, nu, 1.0, depth=1)
    assert [(I.a, I.b) for I in cz.bad] == [(0.5, 1.0)]
    assert cz.good.total == pytest.approx(1.0, abs=1e-15)


def test_cz_rejects_lambda_below_one():
    with pytest.raises(ValueError):
        cz_decompose(LEB, LEB, 0.5)


def test_domination_by_covering_intervals():
    systems = shifted_systems(2)
    rng = np.random.default_rng(21)
    for _ in range(8):
        x = float(rng.uniform(0.1, 0.9))
        r = float(2.0 ** rng.uniform(-8, -4))
        rep = domination_check(CASC, LEB, x, r, systems)
        assert rep.ok and math.isfinite(rep.bound)
        assert rep.covering  # at least one system supplied an interval


def test_alpha_terms_reject_nu_vanishing_under_mu():
    # nu leaves [1/2, 1) bare where Lebesgue charges it, and alpha there is
    # 1/4: the cell must not be skipped as if both were uniform
    holes = generate({"type": "histogram", "cells": [0.3, 0.7, 0.0, 0.0]})
    # the Carleson comparison and the L2 bound read the same level terms: a
    # hand-built two-level tree, and the L2 sum to level 3
    tree = Tree(STANDARD.root(), frozenset({(0, 0), (1, 0), (1, 1)}),
                ((1, 0), (1, 1)), 1)
    for call in (lambda: buckley_ratio(LEB, holes, 3, which="alpha"),
                 lambda: carleson_comparison(LEB, holes, Forest([tree])),
                 lambda: tolsa_l2(LEB, holes, depth=3)):
        with pytest.raises(ValueError, match=r"nu vanishes on "
                           r"\[0\.5, 1\)@std: doubling"):
            call()


def test_buckley_ratio_rejects_an_unknown_flavor():
    with pytest.raises(ValueError, match="which"):
        buckley_ratio(CASC, LEB, 4, which="bogus")


@pytest.mark.parametrize("depth", [-1, 25, 31, 4.0, True, "4", None])
def test_dyadic_entry_points_reject_a_bad_depth(depth):
    calls = [
        lambda: buckley_ratio(CASC, LEB, depth),
        lambda: buckley_ratio(CASC, LEB, depth, which="alpha"),
        lambda: delta_level_sums(CASC, LEB, depth),
        lambda: tolsa_l2(CASC, LEB, depth=depth),
        lambda: cz_decompose(CASC, LEB, 2.0, depth=depth),
        lambda: dyadic_square_profile(CASC, LEB, [0.3], depth=depth),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="depth must be an integer"):
            call()


@pytest.mark.parametrize("depth", [25, True, -1])
def test_sampling_and_doubling_check_depth_before_reading_a_level(
        depth, monkeypatch):
    # level 25 alone would be an array of 2^25 floats
    def read(m, j):
        raise AssertionError(f"level {j} read")

    monkeypatch.setattr(squarefn_module, "dyadic_cell_masses", read)
    monkeypatch.setattr(dyadic_module, "dyadic_cell_masses", read)
    for call in (lambda: mu_sampled_points(CASC, 16, depth),
                 lambda: doubling_constant(LEB, depth)):
        with pytest.raises(ValueError, match="depth must be an integer"):
            call()


def test_cz_rejects_a_non_finite_lambda():
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda"):
            cz_decompose(CASC, LEB, lam, depth=4)


def test_dyadic_profile_rejects_points_outside_the_unit_interval():
    for x in (math.inf, -math.inf, math.nan, -0.25, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            dyadic_square_profile(CASC, LEB, [0.3, x], depth=4)
