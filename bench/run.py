"""Benchmark sqfnlab on scenario workloads: time to a checked verdict.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark is a closed loop with one
client: it runs a workload's scenarios one after another through
``sqfnlab.cli.load_config`` and ``run_experiment``, each pass in a fresh
interpreter (``worker.py``) so that no cached table or alpha entry carries
over, and starts the next pass when the previous one has returned.

With ``--trace 0`` it times set-up in several fresh interpreters, then runs
passes while they fit into S seconds (at least two), and reports medians of
the end-to-end metrics.  With ``--trace 1`` it runs the same untraced
passes and then one traced pass, checks that the traced pass writes
byte-identical reports, and reports the per-layer metrics of the traced
pass.

Every time is scaled to a nominal machine speed, so that the host running
slower for a while shows as little as it can: each worker also times a
fixed calibration kernel after set-up and every 0.2 s of its pass, and a
time is reported as measured times CAL_REF_S times the mean of
1 / (kernel time) over the samples of the same stretch.

The last line of standard output is the result; the line before it
records the machine, the load and every sample, scaled and as measured.
``python3 bench/run.py --write-reference`` rewrites the reference stats in
``bench/reference/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"
# seeds whose stats are kept in bench/reference for the correctness check
REFERENCE_SEEDS = range(10)

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "ratio"}

# the calibration kernel's time at the nominal speed that every reported
# time is scaled to; a 2.1 GHz Xeon vCPU takes 3-6.5 ms
CAL_REF_S = 0.004

# set-up samples from their own interpreters, on top of one per pass
SETUP_RUNS = 15
# untraced passes per run, at least; their median is the untraced run_s
MIN_PASSES = 2
WORKER_TIMEOUT_S = 150

# per-layer metrics of the traced pass: calls and self time per function
CALLS = ("measure.restrict", "measure.is_uniform_on", "measure.mass",
         "measure.cdf_left_values", "measure.integrate",
         "transport.w1_supported", "transport.w1_oracle",
         "alpha.AlphaTable.entry", "dyadic.delta",
         "tree.carleson_comparison")
SELF_S = ("measure.restrict", "measure.is_uniform_on", "measure.mass",
          "measure.cdf_left_values", "measure.integrate",
          "measure.cdf_difference", "measure.generate",
          "transport.w1_supported", "transport.w1_oracle",
          "alpha.AlphaTable.entry", "dyadic.delta", "dyadic.doubling_constant",
          "tree.stopping_forest", "tree.carleson_comparison", "tree.haar",
          "squarefn.buckley_ratio", "squarefn.cz_decompose",
          "squarefn.tolsa_l2", "squarefn.delta_level_sums",
          "squarefn.dyadic_square_profile", "cli.run_experiment")
COUNTS = ("transport.w1_supported.breakpoints",
          "alpha.AlphaTable.entry.computed",
          "tree.stopping_forest.trees", "tree.stopping_forest.members")


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def _ratio(num, den):
    return num / den if den else 0.0


def speed_scale(samples):
    """Factor that scales a time to the nominal speed, from the kernel times
    sampled evenly over it: the work done in a stretch of time is the
    integral of the speed, and the speed is proportional to 1 / kernel time.
    """
    return CAL_REF_S * statistics.fmean(1.0 / c for c in samples)


def pass_scale(result):
    # a pass too short for one in-pass sample uses the set-up calibration
    return speed_scale(result["cal_run_s"] or result["cal_s"])


def layer_metrics(trace, scale, run_s_untraced, run_s_traced, warnings):
    """Per-layer metrics as {name: (value, unit)} from a traced pass.

    Times are multiplied by ``scale``, the traced worker's speed scale.
    """
    spans, counts = trace["spans"], trace["counts"]

    def stat(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {f"{n}.calls": (stat(n, "calls"), "count") for n in CALLS}
    out.update({f"{n}.self_s": (stat(n, "self_s") * scale, "s")
                for n in SELF_S})
    out.update({n: (counts.get(n, 0), "count") for n in COUNTS})
    entry = "alpha.AlphaTable.entry"
    entry_calls = stat(entry, "calls")
    out.update({
        "measure.restrict.kept_frac": (_ratio(
            counts.get("measure.restrict.pieces_out", 0),
            counts.get("measure.restrict.pieces_in", 0)), "ratio"),
        f"{entry}.incl_s": (stat(entry, "incl_s") * scale, "s"),
        f"{entry}.hit_frac": (_ratio(
            entry_calls - counts.get(f"{entry}.computed", 0), entry_calls),
            "ratio"),
        "alpha.smooth_read_frac": (_ratio(
            counts.get("alpha.smooth_reads", 0),
            counts.get("alpha.entries_built", 0)), "ratio"),
        "cli.run_experiment.warnings": (warnings, "count"),
        "cli.trace_overhead_frac": (run_s_traced / run_s_untraced - 1.0,
                                    "ratio"),
    })
    return out


def _worker_env():
    # one thread: no sqfnlab pool, and no BLAS threads under numpy
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("SQFNLAB_THREADS", None)
    return env


def call_worker(manifest, *flags):
    cmd = [sys.executable, str(BENCH / "worker.py"), str(manifest), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=_worker_env(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def write_manifest(workdir, runs, reference):
    entries = []
    for i, run in enumerate(runs):
        path = workdir / f"{i:02d}-{run['config']['scenario']}.json"
        path.write_text(json.dumps(run["config"], sort_keys=True))
        entries.append({"config": str(path),
                        "classification": run["classification"]})
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps({"runs": entries,
                                    "reference": reference}))
    return manifest


def load_reference(workload, seed):
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def untraced_passes(manifest, seconds):
    """At least MIN_PASSES untraced passes, then more while one still fits
    into ``seconds``, judged by the median wall time of a pass so far."""
    passes, walls = [], []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(walls)
           <= seconds):
        t0 = time.perf_counter()
        passes.append(call_worker(manifest))
        walls.append(time.perf_counter() - t0)
    return passes


def measure_untraced(manifest, seconds):
    """Set-up samples, then timed passes; medians of both."""
    setups = [call_worker(manifest, "--setup-only")
              for _ in range(SETUP_RUNS)]
    passes = untraced_passes(manifest, seconds)
    setups += passes
    samples = {"setup_s": [r["setup_s"] * speed_scale(r["cal_s"])
                           for r in setups],
               "run_s": [p["run_s"] * pass_scale(p) for p in passes],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
               "setup_s_unscaled": [r["setup_s"] for r in setups],
               "run_s_unscaled": [p["run_s"] for p in passes],
               "setup_scale": [speed_scale(r["cal_s"]) for r in setups],
               "run_scale": [pass_scale(p) for p in passes]}
    metrics = {key: statistics.median(samples[key])
               for key in ("setup_s", "run_s", "peak_rss_mb")}
    return passes, metrics, samples


def measure_traced(manifest, seconds, spans_path):
    """Untraced passes, then one traced pass; per-layer metrics of the latter.

    The traced pass's reports must be byte-identical to the first untraced
    pass's, and its run_s is compared with the untraced median.
    """
    plain = untraced_passes(manifest, seconds)
    traced = call_worker(manifest, "--trace", str(spans_path))
    for a, b in zip(plain[0]["runs"], traced["runs"]):
        if a["report_sha256"] != b["report_sha256"]:
            b["reasons"].append("traced report differs from untraced")
    warnings = sum(r["warnings"] for r in traced["runs"])
    run_s = [p["run_s"] * pass_scale(p) for p in plain]
    scale = pass_scale(traced)
    metrics = layer_metrics(traced["trace"], scale, statistics.median(run_s),
                            traced["run_s"] * scale, warnings)
    samples = {"run_s": run_s, "run_s_traced": [traced["run_s"] * scale],
               "warning_messages": {r["scenario"]: r["warning_messages"]
                                    for r in traced["runs"]}}
    return plain + [traced], metrics, samples


def _failures(scenario_runs):
    return [f"{r['scenario']}: {reason}"
            for r in scenario_runs for reason in r["reasons"]]


def _machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": sys.version.split()[0]}


def run_workload(name, runs, seed, seconds, trace, reference=None):
    """Measure one workload; returns (result line, info line) as dicts."""
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    info = {"workload": name, "seed": seed, "trace": trace,
            "machine": _machine(), "loadavg_before": os.getloadavg()}
    try:
        manifest = write_manifest(workdir, runs, reference)
        if trace:
            spans = WORK / f"spans-{name}-{seed}.npz"
            passes, metrics, samples = measure_traced(manifest, seconds,
                                                      spans)
            info["spans"] = str(spans.relative_to(ROOT))
        else:
            passes, metrics, samples = measure_untraced(manifest, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scenario_runs = [r for p in passes for r in p["runs"]]
    failed = sum(1 for r in scenario_runs if r["reasons"])
    if not trace:
        metrics["pass_frac"] = ((len(scenario_runs) - failed)
                                / len(scenario_runs))
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    info.update({"loadavg_after": os.getloadavg(),
                 "numpy": passes[0]["numpy"],
                 "reference_checked": reference is not None,
                 "samples": samples, "failures": _failures(scenario_runs)})
    result = {"correct": failed == 0, "attempted": len(scenario_runs),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, info


def write_reference():
    """Record the stats of every workload at the reference seeds."""
    REFERENCE.mkdir(exist_ok=True)
    for name, build in WORKLOADS.items():
        table = {}
        for seed in REFERENCE_SEEDS:
            workdir = WORK / f"reference-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                result = call_worker(write_manifest(workdir, build(seed), None))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            failures = _failures(result["runs"])
            if failures:
                raise HarnessError(f"{name} seed {seed}: {failures}")
            table[str(seed)] = {r["scenario"]: r["stats"]
                                for r in result["runs"]}
            print(f"{name} seed {seed}: {result['run_s']:.2f} s",
                  file=sys.stderr)
        (REFERENCE / f"{name}.json").write_text(
            json.dumps(table, sort_keys=True, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        result, info = run_workload(
            args.workload, WORKLOADS[args.workload](args.seed), args.seed,
            args.seconds, args.trace,
            reference=load_reference(args.workload, args.seed))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
