"""Batch experiment runner.

Loads a measure-pair scenario from a JSON config, runs its verification
suite (doubling, stopping forest, Haar checks, Carleson comparison, square
function profiles, Buckley / CZ / Tolsa checks), and writes a versioned
JSON report plus CSV profile tables.

Exit codes: 0 all hard assertions pass, 1 assertion failures, 2 usage or
config errors.  Reports are byte-identical for identical config + seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .measure import (
    Checked,
    _EMPTY,
    _derived,
    _histogram,
    _is_real,
    _nonneg,
    cdf_difference,
    dyadic_cell_masses,
    generate,
    ints,
    validate_spec,
)
from .dyadic import DEPTH_CAP, STANDARD, cell_mass, delta, doubling_constant
from .alpha import (
    alpha,
    alpha_smooth,
    epsilon_for_doubling,
    smooth_bounds_check,
)
from .transport import w1_oracle, w1_values
from .tree import (
    carleson_comparison,
    coefficient_identity_gap,
    g_l2_norm,
    g_cell_values,
    haar,
    product_check,
    representation_check,
    stopping_forest,
    tailtip_check,
)
from .squarefn import (
    buckley_ratio,
    cz_decompose,
    delta_level_sums,
    dyadic_square_profile,
    mu_sampled_points,
    tolsa_l2,
)

# tolerance classes (documented defaults; override via config "tolerances")
TOL_EXACT = 1e-12       # identities that hold in exact arithmetic
TOL_ACCUM = 1e-9        # identities subject to floating accumulation
TOL_STAT = 0.05         # statistical / asymptotic comparisons

# oracle-crossval runs each step over a block of this many pairs before
# the next step.  One pair at a time, with an oracle's 2^14-point grids
# between any two generator or cdf_difference calls, those calls ran
# 25-40% slower and the scenario 17% slower (BENCH_13.json, "ablation").
# A block bounds the measures held at once
ORACLE_BLOCK = 256


def _random_measure(rng, max_cells=32):
    """A random histogram or atomic measure, normalized to mass ~1."""
    if rng.random() < 0.5:
        n = int(2 ** rng.integers(1, int(math.log2(max_cells)) + 1))
        cells = rng.uniform(0.05, 1.0, n)
        cells /= cells.sum()
        return _histogram(cells)
    n = int(rng.integers(1, max_cells + 1))
    xs = rng.uniform(0.0, 1.0, n)
    ws = rng.uniform(0.1, 1.0, n)
    ws /= ws.sum()
    # valid as drawn, with no zero weight: sorted as from_arrays sorts
    order = xs.argsort(kind="stable")
    return _derived(xs[order], ws[order], _EMPTY, _EMPTY, _EMPTY)


SCENARIOS = {
    "identity": {
        "summary": "mu = nu = Lebesgue; every discrepancy is exactly zero",
        "mu_spec": {"type": "lebesgue"}, "nu_spec": {"type": "lebesgue"},
        "depth": 10,
    },
    "singular-cascade": {
        "summary": "binomial cascade p=0.7 vs Lebesgue; linear S^2 growth",
        "mu_spec": {"type": "cascade", "p": 0.7, "depth": 20},
        "nu_spec": {"type": "lebesgue"},
        "depth": 12,
    },
    "cantor": {
        "summary": "middle-half Cantor measure vs Lebesgue; singular",
        "mu_spec": {"type": "cantor", "depth": 14},
        "nu_spec": {"type": "lebesgue"},
        "depth": 10,
    },
    "example22": {
        "summary": "density bump at 1/2 with exact Delta and alpha values",
        "mu_spec": {"type": "example22", "n": 8},
        "nu_spec": {"type": "lebesgue"},
        "depth": 10,
    },
    "example52": {
        "summary": "plain alpha unstable under enlargement, smooth variant not",
        "mu_spec": {"type": "example52", "n": 6},
        "nu_spec": {"type": "lebesgue"},
        "depth": 8,
    },
    "example53": {
        "summary": "atom pair showing the smooth alpha scale sensitivity",
        "mu_spec": {"type": "example53", "eps": 0.01, "role": "mu"},
        "nu_spec": {"type": "example53", "eps": 0.01, "role": "nu"},
        "depth": 6,
    },
    "finite-haar-ainfty": {
        "summary": "finitely many Haar perturbations of Lebesgue; A-infinity",
        "mu_spec": {"type": "finite-haar", "seed": 0, "levels": 5},
        "nu_spec": {"type": "lebesgue"},
        "depth": 14,
    },
    "random-histogram-fleet": {
        "summary": "seeded fleet of random pairs; structural identities",
        "mu_spec": None, "nu_spec": None,
        "depth": 10, "pairs": 10,
    },
    "oracle-crossval": {
        "summary": "closed-form transport distance vs midpoint-grid oracle",
        "mu_spec": None, "nu_spec": None,
        "depth": 0, "pairs": 200,
    },
    "ac-density": {
        "summary": "bounded density in [1/2, 2] vs Lebesgue; converging S^2",
        "mu_spec": {"type": "ac-density", "seed": 5, "cells": 64},
        "nu_spec": {"type": "lebesgue"},
        "depth": 14,
    },
}


CONFIG = {
    "depth": ints(0, DEPTH_CAP),
    "seed": ints(0),
    "epsilon": (lambda v: v == "auto" or _is_real(v) and 0 < v < math.inf,
                "'auto' or a finite number > 0"),
    "outputs": (lambda v: isinstance(v, dict) and all(
        k in ("json", "csv") and isinstance(p, str)
        and os.path.isdir(os.path.dirname(p) or ".") for k, p in v.items()),
        "an object of json and csv file paths in existing directories"),
    "tolerances": (lambda v: isinstance(v, dict) and all(
        k in ("exact", "accumulation", "statistical") and _nonneg(t)
        for k, t in v.items()), "an object of exact, accumulation and "
        "statistical tolerances, each a finite number >= 0"),
}
# pairs is checked when a scenario reads it, not in load_config, so a batch
# that loads all its configs first counts a bad count as one failed run
PAIRS = ints(1)


def _load(path):
    """The merged config of a config file and its specs' warnings."""
    with open(path) as fh:
        cfg = json.load(fh)
    read = Checked(cfg, "config")
    name = read.get("scenario", (lambda v: isinstance(v, str)
                                 and v in SCENARIOS, "a scenario name"))
    merged = {k: v for k, v in SCENARIOS[name].items() if k != "summary"}
    merged.update(seed=0, epsilon="auto", systems="standard", outputs={},
                  tolerances={})
    for key, rule in CONFIG.items():
        read.get(key, rule, merged[key])
    read.done(also=merged)  # mu_spec, nu_spec, systems and a scenario's pairs
    merged.update(cfg)
    notes = []
    for key in ("mu_spec", "nu_spec"):
        if merged[key] is not None:
            notes += (f"{key}: {n}" for n in validate_spec(merged[key]))
        elif SCENARIOS[name][key] is not None:
            raise ValueError(f"scenario {name} needs a {key}")
    if name == "example22" and "n" not in merged["mu_spec"]:
        # its checks read the bump's n, which only these two specs carry
        raise ValueError("scenario example22 needs an example22 or "
                         "example52 mu_spec")
    return merged, notes


def load_config(path):
    return _load(path)[0]


def _check(name, lhs, rhs, tol=0.0, note=""):
    """A recorded inequality lhs <= rhs + tol."""
    slack = rhs + tol - lhs
    return {"name": name, "lhs": float(lhs), "rhs": float(rhs),
            "tol": float(tol), "slack": float(slack),
            "passed": bool(lhs <= rhs + tol), "note": note}


def _checks(cfg, mu, nu):
    """(checks, profile, stats) of a scenario: the common suite where it
    has both measures, then the scenario's own checks."""
    name, depth, seed = cfg["scenario"], int(cfg["depth"]), int(cfg["seed"])
    tols = cfg.get("tolerances", {})
    tol_exact = tols.get("exact", TOL_EXACT)
    tol_accum = tols.get("accumulation", TOL_ACCUM)
    tol_stat = tols.get("statistical", TOL_STAT)
    checks, profile, extras = [], None, {}
    if mu is not None and nu is not None:
        drep = doubling_constant(nu, depth=min(depth, 10))
        extras["doubling_constant"] = drep.constant

        if cfg["epsilon"] != "auto":
            eps = float(cfg["epsilon"])
        elif math.isfinite(drep.constant):
            eps, _ = epsilon_for_doubling(max(drep.constant, 1.0))
        else:
            eps = 1.0 / 128.0
        extras["epsilon"] = eps

        forest = stopping_forest(mu, nu, eps, max_depth=min(depth, 12))
        extras["trees"] = len(forest)
        forest.check_structure()
        cc = carleson_comparison(mu, nu, forest)
        ratios = cc.ratio[cc.sum_alpha + cc.top_mass > 0]
        if ratios.size:
            fleet = float(ratios.max())
            extras["carleson_ratio_max"] = fleet
            checks.append(_check("carleson_ratio_finite", fleet, 1e6,
                                 note="recorded fleet constant"))

        # Haar identities on the first largest tree with internal members
        sizes = np.bincount(forest.members[0], minlength=len(forest))
        sizes[np.minimum(*map(forest.top_masses, (mu, nu))) <= 0] = 0
        b = int(np.argmax(sizes))
        if sizes[b] > 1:
            big = forest.tree(b)
            hs = haar(mu, nu, big)
            rng = np.random.default_rng(seed)
            js, ks = forest.cells(b)  # in (j, k) order
            idx = rng.choice(js.size, size=min(20, js.size), replace=False)
            worst_prod = 0.0
            worst_coef = 0.0
            for i in idx:
                I = big.top.system.interval(js[i], ks[i])
                if dyadic_cell_masses(mu, I.j)[I.k] == 0:
                    continue
                lhs, rhs = product_check(hs, I)
                worst_prod = max(worst_prod, abs(lhs - rhs))
                if (I.j, I.k) in hs.coeff:  # an internal member
                    worst_coef = max(worst_coef,
                                     coefficient_identity_gap(hs, I))
            checks.append(_check("haar_product_identity", worst_prod, 0.0,
                                 1e-10))
            checks.append(_check("haar_coefficient_forms", worst_coef, 0.0,
                                 tol_exact))
            N = big.top.j + min(big.max_depth, 8)
            _, vals, wts = g_cell_values(hs, N)
            quad = math.sqrt(float(np.sum(vals ** 2 * wts)))
            checks.append(_check("haar_parseval",
                                 abs(g_l2_norm(hs, N) - quad), 0.0, tol_accum))

        # square function profile and classification
        if cell_mass(mu, STANDARD.root()) > 0 and mu.piece_l.size:
            pts = mu_sampled_points(mu, 16, min(depth + 4, DEPTH_CAP), seed)
            profile = dyadic_square_profile(mu, nu, pts, depth=depth)
            slopes = profile.slopes()
            tail = profile.final_increments(max(depth - 2, 0))
            extras["mean_slope"] = float(np.mean(slopes))
            extras["max_tail_increment"] = float(np.max(tail))
            if np.max(tail) < 1e-6:
                extras["classification"] = "absolutely continuous"
            elif np.mean(slopes) > 1e-4:
                extras["classification"] = "singular"
            else:
                extras["classification"] = "mixed"

        # Buckley ratio stability (Delta flavor is cheap everywhere)
        extras["buckley_delta"] = buckley_ratio(mu, nu, depth, which="delta")

    if name == "identity":
        checks.append(_check("identity_zero_sums", extras["buckley_delta"],
                             0.0))
        checks.append(_check("identity_root_alpha",
                             alpha(mu, nu, STANDARD.root()), 0.0))

    elif name == "singular-cascade":
        a0 = alpha(mu, nu, STANDARD.root())
        slope = extras.get("mean_slope", 0.0)
        checks.append(_check("slope_matches_alpha_cell",
                             abs(slope - a0 * a0), tol_stat * a0 * a0,
                             note="mean S^2 slope vs alpha_cell^2"))
        _, subtree = delta_level_sums(mu, nu, depth)
        checks.append(_check("delta_carleson_growth", 0.03 * depth,
                             float(subtree[0][0]),
                             note="Delta-Carleson sum >= 0.03 * depth"))
        checks.append(_check("classified_singular",
                             0.0 if extras.get("classification") ==
                             "singular" else 1.0, 0.0))

    elif name == "example22":
        n = cfg["mu_spec"]["n"]
        root = STANDARD.root()
        checks.append(_check("delta_exact",
                             abs(delta(mu, nu, root) - 2.0 ** (-n - 1)),
                             0.0, tol_exact))
        checks.append(_check("alpha_exact",
                             abs(alpha(mu, nu, root) - 2.0 ** (-2 * n - 1)),
                             0.0, tol_exact))
        for side in ("minus", "plus"):
            rep = representation_check(mu, nu, side=side, N=8)
            checks.append(_check(f"representation_{side}_slack", 0.0,
                                 rep.slack, note="nonnegative slack"))
        tt = tailtip_check(mu, nu, STANDARD.root(), N1=2, N2=1)
        checks.append(_check("tailtip_slack", tt.lhs, tt.rhs))

    elif name == "example52":
        rep = smooth_bounds_check(mu, nu, (0.0, 1.0))
        checks.append(_check("smooth_alpha_bounds", rep.alpha_smooth,
                             min(2.0, rep.bound_alpha), 1e-9))

    elif name == "example53":
        a_half = alpha_smooth(mu, nu, (0.0, 0.5, True))
        checks.append(_check("smooth_alpha_left_half_exact",
                             abs(a_half - 1.0), 0.0, tol_exact))

    elif name == "finite-haar-ainfty":
        b1 = buckley_ratio(mu, nu, 10, which="delta")
        b2 = extras["buckley_delta"]  # the suite's, at the scenario depth
        checks.append(_check("buckley_delta_stable", abs(b2 - b1),
                             tol_stat * max(b1, 1e-12),
                             note="stable after depth 10"))
        a1 = buckley_ratio(mu, nu, 10, which="alpha")
        a2 = buckley_ratio(mu, nu, min(depth, 12), which="alpha")
        checks.append(_check("buckley_alpha_stable", abs(a2 - a1),
                             tol_stat * max(a1, 1e-12)))

    elif name == "random-histogram-fleet":
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(Checked(cfg, "config").get("pairs", PAIRS, 1)):
            m1 = _random_measure(rng)
            # reference measure must charge every cell for the forest
            cells = rng.uniform(0.05, 1.0, 16)
            cells /= cells.sum()
            m2 = _histogram(cells)
            forest = stopping_forest(m1, m2, 1.0 / 64.0, max_depth=6)
            forest.check_structure()
            k = int(rng.integers(0, 4))
            if min(dyadic_cell_masses(m, 2)[k] for m in (m1, m2)) > 0:
                hs_tree = forest.tree(0)
                if hs_tree.members and len(hs_tree.members) > 1:
                    hs = haar(m1, m2, hs_tree)
                    gap = coefficient_identity_gap(hs, hs_tree.top)
                    worst = max(worst, gap)
        checks.append(_check("fleet_coefficient_forms", worst, 0.0,
                             tol_exact))

    elif name == "oracle-crossval":
        rng = np.random.default_rng(seed)
        n = Checked(cfg, "config").get("pairs", PAIRS, 1)
        graphs, oracle = [], []
        for start in range(0, n, ORACLE_BLOCK):
            block = [(_random_measure(rng), _random_measure(rng))
                     for _ in range(min(ORACLE_BLOCK, n - start))]
            graphs += [cdf_difference(m1, m2) for m1, m2 in block]
            oracle += [w1_oracle(m1, m2) for m1, m2 in block]
            del block  # before the next block is drawn
        # the closed form: one w1_rows call per segment count
        worst = float(np.max(np.abs(w1_values(graphs) - oracle)))
        checks.append(_check("oracle_gap", worst, 2.0 ** -12,
                             note="closed form vs midpoint grid"))
        extras["worst_oracle_gap"] = worst

    elif name == "ac-density":
        checks.append(_check("classified_ac",
                             0.0 if extras.get("classification") ==
                             "absolutely continuous" else 1.0, 0.0))
        cz = cz_decompose(mu, nu, 2.0, depth=min(depth, 10))
        checks.append(_check("cz_bad_union", cz.bad_union_nu(nu), 0.5,
                             note="nu(union of bad) < 1/lambda"))
        _, _, ratio = tolsa_l2(mu, nu, depth=min(depth, 10))
        extras["tolsa_ratio"] = ratio
        checks.append(_check("tolsa_finite", ratio, 1e6))

    return checks, profile, extras


def run_experiment(cfg):
    mu, nu = (None if cfg.get(key) is None else generate(cfg[key])
              for key in ("mu_spec", "nu_spec"))
    checks, profile, extras = _checks(cfg, mu, nu)

    outputs = cfg.get("outputs", {})
    written = []
    if outputs.get("csv") and profile is not None:
        profile.to_csv(outputs["csv"])
        written.append(outputs["csv"])

    cfg_for_hash = {k: v for k, v in cfg.items() if k != "outputs"}
    blob = json.dumps(cfg_for_hash, sort_keys=True).encode()
    report = {
        "schema": "report-v1",
        "version": __version__,
        "scenario": cfg["scenario"],
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seed": cfg["seed"],
        "checks": checks,
        "stats": {k: (v if isinstance(v, (int, str)) else float(v))
                  for k, v in sorted(extras.items())},
        "profiles_written": written,
        "passed": all(c["passed"] for c in checks),
    }
    json_path = outputs.get("json")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return report


def cmd_run(args):
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True, indent=1))
    if report["passed"]:
        return 0
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    print("FAILED checks: " + ", ".join(failing), file=sys.stderr)
    return 1


def cmd_list(args):
    for name in sorted(SCENARIOS):
        print(f"{name}: {SCENARIOS[name]['summary']}")
    return 0


def cmd_validate(args):
    try:
        cfg, notes = _load(args.config)
        Checked(cfg, "config").get("pairs", PAIRS, 1)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"scenario: {cfg['scenario']}")
    print(f"depth: {cfg['depth']} (cap {DEPTH_CAP})")
    print("\n".join(f"warning: {n}" for n in notes) or "ok")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sqfnlab",
        description="square-function experiments on measure pairs")
    sub = parser.add_subparsers(dest="cmd")
    p_run = sub.add_parser("run", help="run a scenario suite")
    p_run.add_argument("--config", required=True)
    sub.add_parser("list", help="list available scenarios")
    p_val = sub.add_parser("validate", help="validate a config")
    p_val.add_argument("--config", required=True)
    args = parser.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "list":
        return cmd_list(args)
    if args.cmd == "validate":
        return cmd_validate(args)
    parser.print_usage(file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
