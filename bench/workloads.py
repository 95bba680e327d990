"""The benchmark's workloads: lists of sqfnlab scenario configs built from a seed.

Each workload is a function of the workload seed that returns its scenario
runs in order.  A run is the config handed to ``sqfnlab.cli.load_config``
plus the classification its report must carry (``None`` when the scenario
makes no classification claim).  The seed goes into the config ``seed`` and
into every generator that takes one, so the same seed gives the same inputs.
Why each workload exists, and which layer metrics it should move, is
written down in ``bench/README.md``.
"""


def _run(config, classification=None):
    return {"config": config, "classification": classification}


def cascade_16(seed):
    # depth 16 (65,536 pieces) is the smallest cascade that stays valid at
    # profile depth 12 and still makes every blow-up scan a large measure
    return [_run({"scenario": "singular-cascade",
                  "mu_spec": {"type": "cascade", "p": 0.7, "depth": 16},
                  "seed": seed},
                 classification="singular")]


SMALL_SUITE = ("identity", "cantor", "example22", "example52", "example53",
               "finite-haar-ainfty", "random-histogram-fleet", "ac-density")


def small_suite(seed):
    runs = []
    for name in SMALL_SUITE:
        config = {"scenario": name, "seed": seed}
        classification = None
        if name == "finite-haar-ainfty":
            config["mu_spec"] = {"type": "finite-haar", "seed": seed,
                                 "levels": 5}
        elif name == "ac-density":
            config["mu_spec"] = {"type": "ac-density", "seed": seed,
                                 "cells": 64}
            classification = "absolutely continuous"
        runs.append(_run(config, classification))
    return runs


def oracle_fleet(seed):
    return [_run({"scenario": "oracle-crossval", "pairs": 3000,
                  "seed": seed})]


WORKLOADS = {
    "cascade-16": cascade_16,
    "small-suite": small_suite,
    "oracle-fleet": oracle_fleet,
}
