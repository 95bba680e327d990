import collections
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sqfnlab
from sqfnlab import squarefn
from sqfnlab.cli import SCENARIOS, load_config, main, run_experiment


def _write_cfg(tmp_path, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_list_has_at_least_nine_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) >= 9
    for name in ("identity", "singular-cascade", "cantor", "example22",
                 "example52", "example53", "finite-haar-ainfty",
                 "random-histogram-fleet", "oracle-crossval", "ac-density"):
        assert name in out


def test_unknown_scenario_is_usage_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"scenario": "nope"})
    assert main(["run", "--config", cfg]) == 2


def test_depth_cap_is_enforced(tmp_path):
    # every malformed value is a config error (exit 2), never a traceback
    for bad in [
        {"scenario": "identity", "depth": 40},
        {"scenario": "identity", "depth": "12"},
        {"scenario": "identity", "depth": -3},
        {"scenario": "identity", "tolerances": {"exact": "x"}},
        {"scenario": "ac-density",
         "mu_spec": {"type": "ac-density", "cells": 3}},
        {"scenario": "finite-haar-ainfty",
         "mu_spec": {"type": "finite-haar", "levels": -1}},
        {"scenario": "identity",
         "mu_spec": {"type": "histogram", "cells": [0.5, float("nan")]}},
        # epsilon is "auto" or a finite number > 0; NaN and infinity
        # would build forests that never stop
        {"scenario": "identity", "epsilon": float("nan")},
        {"scenario": "identity", "epsilon": float("inf")},
        {"scenario": "identity", "epsilon": -1},
        {"scenario": "identity", "epsilon": "abc"},
        {"scenario": "identity", "epsilon": 0},
        {"scenario": "identity", "epsilon": True},
        # wrong types: a traceback, or silently truncated to an integer
        {"scenario": ["x"]},
        {"scenario": "identity", "seed": [1]},
        {"scenario": "identity", "seed": 1.5},
        {"scenario": "identity", "outputs": "x"},
        {"scenario": "identity",
         "mu_spec": {"type": "atomic", "atoms": [["a", 1]]}},
        {"scenario": "identity", "mu_spec": {"type": "atomic", "atoms": 5}},
        {"scenario": "identity",
         "mu_spec": {"type": "cascade", "p": "0.5", "depth": 4}},
        {"scenario": "identity",
         "mu_spec": {"type": "cascade", "p": 0.5, "depth": 2.5}},
        {"scenario": "identity",
         "mu_spec": {"type": "histogram", "cells": [1, "x"]}},
        {"scenario": "identity",
         "mu_spec": {"type": "cantor", "depth": 4, "ratios": "ab"}},
        {"scenario": "identity", "mu_spec": {"type": "example22", "n": 8.9}},
        {"scenario": "identity", "mu_spec": None},
        {"scenario": "example53",
         "nu_spec": {"type": "example53", "eps": 0.01, "role": "x"}},
        # an unknown key, such as a misspelling, in a spec, the config (pairs
        # where the scenario has no pair count), tolerances and outputs
        {"scenario": "finite-haar-ainfty",
         "mu_spec": {"type": "finite-haar", "levles": 3}},
        {"scenario": "identity", "mu_spec": {"type": "lebesgue", "depth": 5}},
        {"scenario": "identity", "dpeth": 3},
        {"scenario": "identity", "pairs": 3},
        {"scenario": "identity", "tolerances": {"exakt": 1}},
        {"scenario": "identity", "outputs": {"jsn": "report.json"}},
        # example22's checks read the bump's n, which a lebesgue spec lacks
        {"scenario": "example22", "mu_spec": {"type": "lebesgue"}},
    ]:
        cfg = _write_cfg(tmp_path, bad)
        with pytest.raises(ValueError):
            load_config(cfg)
        assert main(["validate", "--config", cfg]) == 2, bad
        assert main(["run", "--config", cfg]) == 2, bad


def test_bad_pair_count_is_rejected_when_run(tmp_path):
    # pairs is an integer >= 1: zero or negative counts passed the oracle
    # gate with no pair checked.  The config still loads, so a batch that
    # loads every config first fails only this run
    for bad in [
        {"scenario": "oracle-crossval", "pairs": -5},
        {"scenario": "oracle-crossval", "pairs": 0},
        {"scenario": "oracle-crossval", "pairs": 2.7},
        {"scenario": "oracle-crossval", "pairs": True},
        {"scenario": "oracle-crossval", "pairs": "3"},
        {"scenario": "random-histogram-fleet", "pairs": 0},
        {"scenario": "random-histogram-fleet", "pairs": "many"},
    ]:
        cfg = _write_cfg(tmp_path, bad)
        with pytest.raises(ValueError, match="pairs must be"):
            run_experiment(load_config(cfg))
        assert main(["validate", "--config", cfg]) == 2, bad
        assert main(["run", "--config", cfg]) == 2, bad


def test_precondition_violation_is_input_error(tmp_path, capsys):
    # a well-formed config whose nu vanishes on a dyadic cell breaks the
    # forest's doubling precondition: exit 2 with a message, no traceback
    cfg = _write_cfg(tmp_path, {
        "scenario": "identity",
        "nu_spec": {"type": "atomic", "atoms": [[0.3, 1.0]]},
    })
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "nu vanishes" in err
    # the message names the first such cell in (level, index) order:
    # [0.25, 0.5) at level 2 before [0.875, 1) at level 3, and [0.125, 0.25)
    # before [0.75, 0.875) on one level
    for cells, first in [([0.5, 0.5, 0, 0, 0.5, 0.5, 0.5, 0], "[0.25, 0.5)"),
                         ([0.5, 0, 0.5, 0.5, 0.5, 0.5, 0, 0.5],
                          "[0.125, 0.25)")]:
        cfg = _write_cfg(tmp_path, {
            "scenario": "identity",
            "nu_spec": {"type": "histogram", "cells": cells},
        })
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: nu vanishes on {first}@std")


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    for outputs in [{"json": str(tmp_path / "missing" / "r.json")},
                    {"csv": str(tmp_path / "missing" / "p.csv")}]:
        cfg = _write_cfg(tmp_path, {"scenario": "ac-density", "depth": 6,
                                    "outputs": outputs})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "outputs must be" in err


def test_output_directories_are_checked_before_writing(tmp_path, capsys,
                                                       monkeypatch):
    # a writable csv next to a json path in a missing directory: neither
    # command accepts it, and run writes nothing before it stops
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, {
        "scenario": "ac-density", "depth": 6,
        "outputs": {"csv": "p.csv", "json": "/nonexistent/dir/r.json"}})
    assert main(["validate", "--config", cfg]) == 2
    assert main(["run", "--config", cfg]) == 2
    assert "outputs must be" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_validate_checks_each_spec_once(tmp_path, capsys, monkeypatch):
    import sqfnlab.measure as measure
    calls = []
    plan = measure._plan
    monkeypatch.setattr(measure, "_plan",
                        lambda spec: calls.append(spec) or plan(spec))
    cfg = _write_cfg(tmp_path, {
        "scenario": "singular-cascade",
        "nu_spec": {"type": "atomic", "atoms": [[0.5, 1.0]]}})
    assert main(["validate", "--config", cfg]) == 0
    assert len(calls) == 2
    out = capsys.readouterr().out
    assert "warning: nu_spec: " in out and "boundary" in out


def test_validate_warns_on_boundary_atoms(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "scenario": "identity",
        "mu_spec": {"type": "atomic", "atoms": [[0.5, 1.0]]},
    })
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "boundary" in out and "no mass" in out


def test_identity_scenario_passes_with_zero_sums(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, {"scenario": "identity"}))
    report = run_experiment(cfg)
    assert report["passed"]
    assert report["schema"] == "report-v1"
    names = {c["name"] for c in report["checks"]}
    assert "identity_zero_sums" in names
    assert report["stats"]["buckley_delta"] == 0.0


def test_reports_are_deterministic(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, {"scenario": "example22",
                                            "seed": 7}))
    r1 = json.dumps(run_experiment(cfg), sort_keys=True)
    r2 = json.dumps(run_experiment(cfg), sort_keys=True)
    assert r1 == r2


def test_singular_cascade_classification(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, {"scenario": "singular-cascade",
                                            "depth": 10}))
    report = run_experiment(cfg)
    assert report["passed"]
    assert report["stats"]["classification"] == "singular"


def test_ac_density_classification_and_outputs(tmp_path):
    csv_path = tmp_path / "prof.csv"
    json_path = tmp_path / "report.json"
    cfg = load_config(_write_cfg(tmp_path, {
        "scenario": "ac-density", "depth": 14,
        "outputs": {"csv": str(csv_path), "json": str(json_path)},
    }))
    report = run_experiment(cfg)
    assert report["passed"]
    assert report["stats"]["classification"] == "absolutely continuous"
    assert csv_path.exists() and json_path.exists()
    on_disk = json.loads(json_path.read_text())
    assert on_disk["config_hash"] == report["config_hash"]


def test_oracle_crossval_scenario(tmp_path):
    for pairs in (1, 50):
        cfg = load_config(_write_cfg(tmp_path, {"scenario": "oracle-crossval",
                                                "pairs": pairs}))
        report = run_experiment(cfg)
        assert report["passed"]
        assert 0.0 < report["stats"]["worst_oracle_gap"] <= 2.0 ** -12


@pytest.mark.parametrize("name, spec, key", [
    # buckley_ratio, carleson_comparison and delta_carleson_growth all read
    # delta_level_sums(mu, nu, 12); a depth-16 cascade keeps it fast
    ("singular-cascade", {"type": "cascade", "p": 0.7, "depth": 16},
     ("delta", 12)),
    # carleson_comparison and buckley_ratio(which="alpha") read
    # _pruned_terms(mu, nu, 12)
    ("finite-haar-ainfty", None, ("alpha", 12)),
])
def test_each_dyadic_sum_is_made_once_per_run(tmp_path, monkeypatch, name,
                                             spec, key):
    made = collections.Counter()
    memo = squarefn._level_memo

    def counted(mu, nu, key, make):
        def body():
            made[key] += 1
            return make()
        return memo(mu, nu, key, body)

    monkeypatch.setattr(squarefn, "_level_memo", counted)
    cfg = {"scenario": name} if spec is None else {"scenario": name,
                                                  "mu_spec": spec}
    assert run_experiment(load_config(_write_cfg(tmp_path, cfg)))["passed"]
    assert made[key] == 1 and max(made.values()) == 1, made


def test_console_entry_point_runs(tmp_path):
    cfg = _write_cfg(tmp_path, {"scenario": "identity"})
    # The child must import the same sqfnlab as this process, installed or
    # found through PYTHONPATH, so put its parent directory first.
    pythonpath = os.path.dirname(os.path.dirname(sqfnlab.__file__))
    if os.environ.get("PYTHONPATH"):
        pythonpath += os.pathsep + os.environ["PYTHONPATH"]
    proc = subprocess.run(
        [sys.executable, "-m", "sqfnlab.cli", "run", "--config", cfg],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin",
                                             "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"]


# sha256 of each default scenario's report and CSV as `sqfnlab run` writes
# them, with relative output paths; a change that moves any float of any
# report moves its digest.  Recorded under numpy 2.4.6: another numpy may
# round some sums differently, so the test skips there
DIGEST_NUMPY = "2.4.6"
REPORT_DIGESTS = {
    "ac-density": (
        "6924c5734a6168c0c13f18a56992792f342b3056d7252e3a9ff8c3cd7e749330",
        "e5c3b91d2eee486d2e47740c3d1dda4c3de8330849fae4dbfe42a8244eac6c6a"),
    "cantor": (
        "640a89e90d2c27de3fbc027a3a1a0e3f69fce139765c9f6fd053544bbf06d439",
        "7c13673b9583ea0831788edc7c8286a5b7015a0b3b4b8aa9f713534937062aef"),
    "example22": (
        "4b2962f7b32367a394593cf354aa562eca07a83e4fd9e2302ec38ddbbe0b3dd9",
        "12c73f6b147801124f861edd5e5018ce7bde523e193c66ee4bee63758d02d682"),
    "example52": (
        "85dd6d9843882ed77de117d72f197daf46996cf1b7f64f6382dab2f46a2a3371",
        "cd9dcdf5f0548021463ef09bd90c3c9bc8953ad52f92390bffebaa833104772f"),
    "example53": (
        "f64bd93bcd9ba3370feed72cd28c21e10cd2592a31bd23b68a797d214a7abd82",
        None),
    "finite-haar-ainfty": (
        "a6f78ecc1bcb0dfeff2b13fec56c2616acfc914f68cb2c06c8f6135090a44149",
        "31c398209355165f9cb04d7838ffec46a2e271d9ffcec2bc74432cff89e2db18"),
    "identity": (
        "9dc248b43a5efd85543195a67aaddcfcf90acffe7133408a619ba43dca91166f",
        "d5c69d829d4345e992aa07b916a89bcca1612e2425491ef7b5e69af96ce0bef7"),
    "oracle-crossval": (
        "8aad4796d7f069c53352c61b6a25c02d2330fda1e22fdc33aa186235b915d368",
        None),
    "random-histogram-fleet": (
        "f5910ad711240e57f84b7fb45a8686f3a8b3b6b7f8e23c4160c18053c8bd721c",
        None),
    "singular-cascade": (
        "e058c1708ededafbb01390989ee7795f7cf08339a03b92f8f2e1660a0e06f098",
        "23df554fd7603811174a1d124133ce46143b5851254c6c551bb5f5a55882916e"),
}


@pytest.mark.filterwarnings("ignore::sqfnlab.measure.BoundaryAtomWarning")
def test_default_reports_are_pinned(tmp_path, monkeypatch, capsys):
    if np.__version__ != DIGEST_NUMPY:
        pytest.skip(f"digests recorded under numpy {DIGEST_NUMPY}, "
                    f"not {np.__version__}")
    assert sorted(SCENARIOS) == sorted(REPORT_DIGESTS)
    monkeypatch.chdir(tmp_path)
    got = {}
    for name in sorted(SCENARIOS):
        outputs = {"json": f"{name}.json", "csv": f"{name}.csv"}
        cfg = _write_cfg(tmp_path, {"scenario": name, "outputs": outputs})
        assert main(["run", "--config", cfg]) == 0, name
        got[name] = tuple(
            hashlib.sha256((tmp_path / p).read_bytes()).hexdigest()
            if (tmp_path / p).exists() else None for p in outputs.values())
    capsys.readouterr()
    assert got == REPORT_DIGESTS
