"""Smoke test of the benchmark harness on tiny scenario runs.

Run from the root of the repository: python3 -m pytest -q bench/test_bench.py
"""

import json

import pytest

import run
import worker

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# one run that passes and two that must be counted as failed: a wrong
# expected classification, and a config that makes run_experiment raise
TINY = [
    {"config": {"scenario": "example22", "seed": 0, "depth": 4},
     "classification": None},
    {"config": {"scenario": "identity", "seed": 0, "depth": 3},
     "classification": "singular"},
    {"config": {"scenario": "random-histogram-fleet", "seed": 0,
                "pairs": "many"},
     "classification": None},
]


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_untraced_run_emits_end_to_end_metrics_and_counts_failures(
        monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    result, info = run.run_workload("tiny", TINY, seed=0, seconds=0,
                                    trace=0)
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["end_to_end"]}
    passes = run.MIN_PASSES
    assert (result["attempted"], result["failed"]) == (3 * passes,
                                                       2 * passes)
    assert result["correct"] is False
    assert result["metrics"]["pass_frac"]["value"] == 1 / 3
    assert any("classification 'absolutely continuous'" in f
               for f in info["failures"])
    assert any("ValueError" in f for f in info["failures"])


def test_traced_run_emits_every_per_layer_metric():
    result, info = run.run_workload("tiny", TINY, seed=0, seconds=0,
                                    trace=1)
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["per_layer"]}
    passes = run.MIN_PASSES + 1
    assert (result["attempted"], result["failed"]) == (3 * passes,
                                                       2 * passes)
    assert not any("traced report differs" in f for f in info["failures"])
    assert result["metrics"]["measure.mass.calls"]["value"] > 0


def test_stats_must_match_reference_to_accumulation_tolerance():
    ref = {"mean_slope": 0.25, "classification": "singular", "trees": 3}
    assert worker.stats_differences(dict(ref), ref) == []
    assert worker.stats_differences({**ref, "mean_slope": 0.25 + 1e-12},
                                    ref) == []
    assert len(worker.stats_differences({**ref, "mean_slope": 0.2500001},
                                        ref)) == 1
    assert len(worker.stats_differences({**ref, "classification": "mixed"},
                                        ref)) == 1
    assert len(worker.stats_differences({"trees": 3}, ref)) == 2


def test_speed_scale_follows_the_sampled_kernel_times():
    ref = run.CAL_REF_S
    assert run.speed_scale([ref, ref, ref]) == pytest.approx(1.0)
    assert run.speed_scale([2 * ref]) == pytest.approx(0.5)
    # half the stretch at the nominal speed and half at half of it does
    # three quarters of the nominal work
    assert run.speed_scale([ref, 2 * ref]) == pytest.approx(0.75)
