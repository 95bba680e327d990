import json
import os
import subprocess
import sys

import pytest

import sqfnlab
from sqfnlab.cli import load_config, main, run_experiment


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
