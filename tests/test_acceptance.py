"""End-to-end acceptance gates.

Each test prints a single PASS/FAIL line (on the original stdout so the
lines survive capture) and asserts the corresponding quantitative gate.
A timed gate prints its wall time on a line of its own, so the ACCEPTANCE
lines of two runs compare byte for byte.
"""

import math
import time

import numpy as np
import pytest

from sqfnlab.alpha import alpha, epsilon_for_doubling
from sqfnlab.cli import _random_measure
from sqfnlab.dyadic import STANDARD, delta, doubling_constant, shifted_systems
from sqfnlab.measure import (
    Measure,
    dyadic_cell_masses,
    generate,
    mass,
    restrict,
)
from sqfnlab.squarefn import (
    buckley_ratio,
    cz_decompose,
    delta_level_sums,
    domination_check,
    dyadic_square_profile,
    mu_sampled_points,
    tolsa_l2,
)
from sqfnlab.transport import w1_oracle, w1_supported, w1_unrestricted
from sqfnlab.tree import (
    carleson_comparison,
    coefficient_identity_gap,
    haar,
    product_check,
    representation_check,
    stopping_forest,
    tailtip_check,
)

LEB = generate({"type": "lebesgue"})
CASC = generate({"type": "cascade", "p": 0.7, "depth": 16})


@pytest.fixture
def line(capsys):
    """One PASS/FAIL line per criterion, emitted past pytest's capture."""
    def emit(num, ok, text, seconds=None):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {num:2d} {status}: {text}")
            if seconds is not None:
                print(f"wall time {num:2d}: {seconds:.1f}s")
        assert ok, f"criterion {num}: {text}"
    return emit


def _positive_histogram(rng, n):
    cells = rng.uniform(0.05, 1.0, n)
    cells /= cells.sum()
    return generate({"type": "histogram", "cells": cells.tolist()}), cells


@pytest.fixture(scope="module")
def fleet():
    """Named (mu, nu) pairs reused by the tree-level criteria."""
    rng = np.random.default_rng(100)
    pairs = {
        "identity": (LEB, LEB),
        "cascade": (CASC, LEB),
        "example22": (generate({"type": "example22", "n": 8}), LEB),
        "ac-density": (_positive_histogram(rng, 64)[0], LEB),
        "finite-haar": (generate({"type": "finite-haar"}), LEB),
        "random-1": (_positive_histogram(rng, 32)[0],
                     _positive_histogram(rng, 32)[0]),
        "random-2": (_positive_histogram(rng, 16)[0],
                     _positive_histogram(rng, 16)[0]),
    }
    return pairs


@pytest.fixture(scope="module")
def fleet_forests(fleet):
    """Stopping forests of every fleet pair at depths 10 and 14."""
    out = {}
    for name, (mu, nu) in fleet.items():
        f10 = stopping_forest(mu, nu, 1.0 / 128.0, max_depth=10)
        f14 = stopping_forest(mu, nu, 1.0 / 128.0, max_depth=14)
        out[name] = (mu, nu, f10, f14)
    return out


def test_criterion_01_transport_oracle_gate(line):
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        m1, m2 = _random_measure(rng), _random_measure(rng)
        worst = max(worst, abs(w1_supported(m1, m2).value
                               - w1_oracle(m1, m2)))
    elapsed = time.monotonic() - t0
    ok = worst <= 2.0 ** -12 and elapsed <= 60.0
    line(1, ok, f"transport oracle gate: worst gap {worst:.3e} <= 2^-12, "
                 f"within 60s (1000 pairs)", elapsed)


def test_criterion_02_bump_example_exactness(line):
    worst_d = worst_a = 0.0
    for n in range(3, 13):
        mu = generate({"type": "example22", "n": n})
        worst_d = max(worst_d, abs(delta(mu, LEB, STANDARD.root())
                                   - 2.0 ** (-n - 1)))
        worst_a = max(worst_a, abs(alpha(mu, LEB, STANDARD.root())
                                   - 2.0 ** (-2 * n - 1)))
    ok = worst_d <= 1e-12 and worst_a <= 1e-12
    line(2, ok, f"bump example exact values: Delta err {worst_d:.2e}, "
                 f"alpha err {worst_a:.2e} <= 1e-12 (n = 3..12)")


def test_criterion_03_supported_vs_unrestricted_split(line):
    d0 = Measure.make(atoms=[(0.0, 1.0)])
    d1 = Measure.make(atoms=[(1.0, 1.0)])
    vs = w1_supported(d0, d1).value
    vu = w1_unrestricted(d0, d1).value
    ok = vs == 0.0 and vu == 1.0
    line(3, ok, f"endpoint deltas: supported {vs} = 0, unrestricted "
                 f"{vu} = 1 exactly")


def test_criterion_04_product_representation(fleet_forests, line):
    rng = np.random.default_rng(2)
    worst_prod = worst_coef = 0.0
    for name, (mu, nu, f10, f14) in fleet_forests.items():
        for tree in f14.trees:
            if not tree.members or len(tree.members) < 3 or tree.lazy_full:
                continue
            if mass(mu, tree.top.a, tree.top.b) == 0 or \
                    mass(nu, tree.top.a, tree.top.b) == 0:
                continue
            hs = haar(mu, nu, tree)
            members = sorted(tree.members)
            idx = rng.choice(len(members), size=min(100, len(members)),
                             replace=False)
            internal = {(I.j, I.k) for I in tree.internal_members()}
            for i in idx:
                I = tree.top.system.interval(*members[i])
                if mass(mu, I.a, I.b) == 0:
                    continue
                lhs, rhs = product_check(hs, I)
                worst_prod = max(worst_prod, abs(lhs - rhs))
                if (I.j, I.k) in internal:
                    worst_coef = max(worst_coef,
                                     coefficient_identity_gap(hs, I))
    ok = worst_prod <= 1e-10 and worst_coef <= 1e-12
    line(4, ok, f"product representation: worst gap {worst_prod:.2e} <= "
                 f"1e-10, coefficient forms {worst_coef:.2e} <= 1e-12")


def test_criterion_05_haar_analysis(fleet_forests, line):
    from sqfnlab.tree import g_cell_values, g_l2_norm
    rng = np.random.default_rng(3)
    worst_mean = worst_orth = worst_pars = 0.0
    for name in ("identity", "cascade", "ac-density", "random-1"):
        mu, nu, f10, _ = fleet_forests[name]
        if name == "cascade":
            # singleton stopping trees carry no Haar functions; use the
            # full tree of the pair with the roles swapped instead
            mu, nu = LEB, CASC
            tree = stopping_forest(mu, nu, 10.0, max_depth=8).trees[0]
        else:
            tree = max((t for t in f10.trees if t.members and
                        not t.lazy_full), key=lambda t: len(t.members),
                       default=None)
        if tree is None or len(tree.members) < 3:
            continue
        hs = haar(mu, nu, tree)
        internal = list(tree.internal_members())
        picks = [internal[i] for i in
                 rng.choice(len(internal), size=min(30, len(internal)),
                            replace=False)]
        for I in picks:
            key = (I.j, I.k)
            Ip = I.system.interval(I.j + 1, 2 * I.k + 1)
            Im = I.system.interval(I.j + 1, 2 * I.k)
            mean = hs.cplus[key] * hs.mu_mass(Ip) \
                - hs.cminus[key] * hs.mu_mass(Im)
            worst_mean = max(worst_mean, abs(mean))
            # orthogonality against a descendant J: h_I is constant on J,
            # so the inner product is that constant times mean(h_J)
            for J in (Ip, Im):
                if (J.j, J.k) in {(K.j, K.k) for K in internal}:
                    kj = (J.j, J.k)
                    Jp = J.system.interval(J.j + 1, 2 * J.k + 1)
                    Jm = J.system.interval(J.j + 1, 2 * J.k)
                    hI_on_J = hs.h_value(I, 0.5 * (J.a + J.b))
                    inner = hI_on_J * (hs.cplus[kj] * hs.mu_mass(Jp)
                                       - hs.cminus[kj] * hs.mu_mass(Jm))
                    worst_orth = max(worst_orth, abs(inner))
        N = tree.top.j + min(tree.max_depth, 8)
        _, vals, wts = g_cell_values(hs, N)
        quad = math.sqrt(float(np.sum(np.asarray(vals) ** 2
                                      * np.asarray(wts))))
        worst_pars = max(worst_pars, abs(g_l2_norm(hs, N) - quad))
    ok = worst_mean <= 1e-12 and worst_orth <= 1e-12 and worst_pars <= 1e-9
    line(5, ok, f"Haar analysis: mean-zero {worst_mean:.2e}, orthogonality "
                 f"{worst_orth:.2e} <= 1e-12, Parseval gap {worst_pars:.2e} "
                 f"<= 1e-9")


def test_criterion_06_representation_and_carleson(fleet_forests, line):
    # nonnegative slack at every evaluated telescoping instance
    slacks = []
    for mu, label in [(generate({"type": "example22", "n": 8}), "ex22"),
                      (CASC, "cascade")]:
        for side in ("minus", "plus"):
            rep = representation_check(mu, LEB, side=side, N=8)
            slacks.append(rep.slack)
    tt1 = tailtip_check(generate({"type": "example22", "n": 8}), LEB,
                        STANDARD.root(), N1=2, N2=1)
    tt2 = tailtip_check(CASC, LEB, STANDARD.root(), N1=0, N2=-1)
    slacks += [tt1.rhs - tt1.lhs, tt2.rhs - tt2.lhs]
    slack_ok = min(slacks) >= 0.0

    # fleet Carleson ratio: one constant, stable under depth 10 -> 14
    def fleet_max(depth_key):
        best = 0.0
        for name, (mu, nu, f10, f14) in fleet_forests.items():
            forest = f10 if depth_key == 10 else f14
            cc = carleson_comparison(mu, nu, forest)
            best = float(cc.ratio[cc.sum_alpha + cc.top_mass > 0].max(
                initial=best))
        return best

    r10 = fleet_max(10)
    r14 = fleet_max(14)
    stable = abs(r14 - r10) <= 0.10 * max(r10, 1e-12)
    ok = slack_ok and stable
    line(6, ok, f"telescoping slack >= 0 (min {min(slacks):.3e}); fleet "
                 f"Carleson constant {r10:.4f} -> {r14:.4f} within 10%")


def test_criterion_07_discrimination(line):
    t0 = time.monotonic()
    pts = mu_sampled_points(CASC, 64, 18, seed=3)
    prof = dyadic_square_profile(CASC, LEB, pts, depth=14)
    a2 = alpha(CASC, LEB, STANDARD.root()) ** 2
    slope_err = float(np.max(np.abs(prof.slopes() / a2 - 1.0)))

    rng = np.random.default_rng(4)
    dens = rng.uniform(0.5, 2.0, 64)
    cells = dens / dens.sum()
    hist = generate({"type": "histogram", "cells": cells.tolist()})
    pts2 = mu_sampled_points(hist, 64, 18, seed=5)
    prof2 = dyadic_square_profile(hist, LEB, pts2, depth=14)
    tail = float(np.max(prof2.final_increments(12)))
    elapsed = time.monotonic() - t0
    ok = slope_err <= 0.05 and tail < 1e-6 and elapsed <= 300.0
    line(7, ok, f"discrimination: cascade slope within {slope_err:.3%} of "
                 f"alpha_cell^2, a.c. tail {tail:.1e} < 1e-6, within 300s",
         elapsed)


def test_criterion_08_small_alpha_doubling(line):
    rng = np.random.default_rng(6)
    draws = hits = violations = 0
    while draws < 10 ** 4:
        nu, nu_cells = _positive_histogram(rng, 16)
        D = doubling_constant(nu, depth=6).constant
        eps, C = epsilon_for_doubling(D)
        for _ in range(100):
            draws += 1
            if rng.random() < 0.5:
                pert = nu_cells * rng.uniform(1 - 1e-3, 1 + 1e-3, 16)
            else:
                pert = nu_cells * rng.uniform(0.2, 5.0, 16)
            pert /= pert.sum()
            mu = generate({"type": "histogram", "cells": pert.tolist()})
            j = int(rng.integers(0, 4))
            k = int(rng.integers(0, 1 << j))
            I = STANDARD.interval(j, k)
            if alpha(mu, nu, I) < eps:
                hits += 1
                mid = 0.5 * (I.a + I.b)
                small = min(mass(mu, I.a, mid), mass(mu, mid, I.b))
                if mass(mu, I.a, I.b) > C * small + 1e-12:
                    violations += 1
    ok = violations == 0 and hits > 1000
    line(8, ok, f"small alpha forces comparable children: 0 violations "
                 f"({violations}) over {draws} draws, {hits} triggers")


def test_criterion_09_buckley_surrogates(line):
    w = generate({"type": "finite-haar"})
    bd10 = buckley_ratio(w, LEB, 10, which="delta")
    bd14 = buckley_ratio(w, LEB, 14, which="delta")
    ba10 = buckley_ratio(w, LEB, 10, which="alpha")
    ba12 = buckley_ratio(w, LEB, 12, which="alpha")
    stable = (abs(bd14 - bd10) <= 1e-9 * max(bd10, 1.0)
              and abs(ba12 - ba10) <= 1e-9 * max(ba10, 1.0))
    growth_ok = True
    for depth in (10, 14):
        _, subtree = delta_level_sums(CASC, LEB, depth)
        growth_ok &= subtree[0][0] >= 0.03 * depth
    ok = stable and growth_ok
    line(9, ok, f"Buckley ratios stable after depth 10 (delta {bd10:.4f}, "
                 f"alpha {ba10:.4f}); cascade Delta-sum >= 0.03 * depth")


def test_criterion_10_cz_and_l2_bound(line):
    rng = np.random.default_rng(8)
    cz_ok = True
    for _ in range(100):
        cells = rng.uniform(0.05, 1.0, 64)
        cells[rng.integers(0, 64)] *= float(rng.uniform(2.0, 10.0))
        cells /= cells.sum()
        mu = generate({"type": "histogram", "cells": cells.tolist()})
        lam = float(rng.uniform(1.1, 4.0))
        cz = cz_decompose(mu, LEB, lam, depth=8)
        mg = dyadic_cell_masses(cz.good, 8)
        mm = dyadic_cell_masses(mu, 8)
        bsum = np.zeros_like(mm)
        for I, r in zip(cz.bad, cz.bad_ratios):
            bm = dyadic_cell_masses(restrict(mu, I.a, I.b), 8)
            bn = dyadic_cell_masses(restrict(LEB, I.a, I.b), 8)
            cz_ok &= abs(float((bm - r * bn).sum())) <= 1e-12
            bsum += bm - r * bn
        cz_ok &= float(np.max(np.abs(mg + bsum - mm))) <= 1e-12
        cz_ok &= cz.bad_union_nu(LEB) < 1.0 / lam
        D = doubling_constant(LEB, depth=8).constant
        nub = dyadic_cell_masses(LEB, 8)
        cz_ok &= float(np.max(mg / nub)) <= D * lam + 1e-12

    tolsa_ok = True
    worst_ratio = 0.0
    for _ in range(200):
        dens = rng.uniform(0.5, 2.0, 32)
        cells = dens / dens.sum()
        g = generate({"type": "histogram", "cells": cells.tolist()})
        l1, _, r1 = tolsa_l2(g, LEB, depth=8)
        l2_ = tolsa_l2(g, LEB, depth=10)[0]
        tolsa_ok &= math.isfinite(r1) and abs(l2_ - l1) <= 1e-12 * max(l1, 1.0)
        worst_ratio = max(worst_ratio, r1)
    ok = cz_ok and tolsa_ok
    line(10, ok, f"CZ invariants on 100 draws; L2 alpha bound finite and "
                  f"depth-stable on 200 densities (max ratio "
                  f"{worst_ratio:.3f})")


def test_criterion_11_continuous_vs_dyadic_domination(line):
    systems = shifted_systems(2)
    rng = np.random.default_rng(9)
    xs = mu_sampled_points(CASC, 32, 18, seed=10)
    violations = 0
    for x in xs:
        r = float(2.0 ** rng.uniform(-8.0, -4.0))
        x = float(min(max(x, r), 1.0 - r))
        rep = domination_check(CASC, LEB, x, r, systems)
        if not rep.ok:
            violations += 1
    ok = violations == 0
    line(11, ok, f"smooth alpha of balls dominated by covering-interval "
                  f"alphas: {violations} violations over 32 samples")
