"""One pass over a workload's scenario runs, in a fresh interpreter.

Usage: python3 bench/worker.py MANIFEST [--setup-only] [--trace SPANS.npz]

MANIFEST is written by ``bench/run.py``: the config file of each scenario
run, the classification each report must carry, and the reference stats
for the workload seed when the benchmark keeps them.  The worker imports
``sqfnlab`` from the checkout's ``src`` and loads the configs (set-up), then
runs every scenario through ``sqfnlab.cli.run_experiment`` one after another
(the timed pass; ``run_experiment`` generates its measures itself), and
prints one JSON line with the timings, the peak RSS and a verdict per run.
It also times a fixed calibration kernel right after set-up (``cal_s``)
and throughout the pass (``cal_run_s``), from which ``run.py`` scales the
timings to a nominal machine speed; ``run_s`` leaves out the time those
samples took.
With ``--trace`` the calls into each module are spanned (see
``tracer.py``) and the spans are saved to SPANS.npz.
"""

import hashlib
import json
import math
import resource
import signal
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# stats must match the reference to sqfnlab's TOL_ACCUM, the tolerance for
# accumulated floating-point error; TOL_EXACT is the floor near zero
REL_TOL = 1e-9
ABS_TOL = 1e-12

# runs of the calibration kernel after set-up, and seconds between two
# runs of it during the pass
CALIBRATION_REPS = 10
SAMPLE_INTERVAL_S = 0.2


def stats_differences(stats, reference):
    """Names of stats that differ from the reference values."""
    diffs = [f"stat {k} missing" for k in sorted(set(reference) - set(stats))]
    diffs += [f"stat {k} unexpected" for k in sorted(set(stats) - set(reference))]
    for key in sorted(set(stats) & set(reference)):
        got, want = stats[key], reference[key]
        if isinstance(got, str) or isinstance(want, str):
            same = got == want
        else:
            same = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        if not same:
            diffs.append(f"stat {key} = {got!r}, reference {want!r}")
    return diffs


def verdict(report, expected_classification, reference_stats):
    """Reasons the scenario run counts as failed; empty when it passed."""
    reasons = [f"check {c['name']} failed"
               for c in report["checks"] if not c["passed"]]
    got = report["stats"].get("classification")
    if expected_classification is not None and got != expected_classification:
        reasons.append(f"classification {got!r}, expected "
                       f"{expected_classification!r}")
    if reference_stats is not None:
        # compare what the report file would hold, after a JSON round trip
        stats = json.loads(json.dumps(report["stats"]))
        reasons += stats_differences(stats, reference_stats)
    return reasons


class SpeedSampler:
    """Times a short fixed calibration kernel, to follow the machine's speed.

    ``calibrate()`` times it CALIBRATION_REPS times in a row.  Inside a
    ``with`` block it is timed every SAMPLE_INTERVAL_S seconds from a
    SIGALRM handler, which Python runs in the main thread between two
    bytecodes of the pass, so the samples follow the speed over the whole
    pass; ``busy_s`` is the time the samples took out of it.  The kernel is
    scalar loops around small numpy calls, like sqfnlab's own work, and uses
    no sqfnlab code, so no change to the program moves it.
    """

    def __init__(self, numpy):
        self.numpy = numpy
        rng = numpy.random.default_rng(20170309)
        self.xs = numpy.sort(rng.random(1 << 14))
        self.qs = rng.random(1000).tolist()
        self.samples = []
        self.busy_s = 0.0

    def _kernel(self):
        np, xs = self.numpy, self.xs
        total = 0.0
        for q in self.qs:
            i = int(np.searchsorted(xs, q))
            total += float(xs[max(i - 8, 0):i + 8].sum()) * 0.5 + q * q
        return total + float(np.cumsum(np.diff(xs))[-1])

    def _time_kernel(self):
        t0 = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def calibrate(self):
        for _ in range(CALIBRATION_REPS):
            self._time_kernel()
        return self.samples

    def _tick(self, signum, frame):
        self.busy_s += self._time_kernel()

    def __enter__(self):
        self.samples, self.busy_s = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        # the handler stays installed, so a signal already pending when
        # the timer stops is still handled and cannot end the process
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def report_text(report):
    """The report as ``sqfnlab run`` writes it to its JSON output."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def main(argv):
    manifest = json.loads(Path(argv[0]).read_text())
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    src = ROOT / "src"
    if not (src / "sqfnlab" / "__init__.py").is_file():
        print(f"no sqfnlab package under {src}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import numpy
    from sqfnlab import cli

    tracer = None
    if spans_path is not None:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    configs = [cli.load_config(run["config"]) for run in manifest["runs"]]
    setup_s = time.perf_counter() - t0
    sampler = SpeedSampler(numpy)
    cal_s = sampler.calibrate()
    if setup_only:
        print(json.dumps({"setup_s": setup_s, "cal_s": cal_s}))
        return 0

    outcomes = []
    with sampler:
        start = time.perf_counter()
        for cfg in configs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    report, error = cli.run_experiment(cfg), None
                except Exception:
                    report, error = None, traceback.format_exc(limit=3)
            outcomes.append((cfg, report, error, caught))
        run_s = time.perf_counter() - start
    run_s -= sampler.busy_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    references = manifest.get("reference") or {}
    runs = []
    for spec, (cfg, report, error, caught) in zip(manifest["runs"], outcomes):
        if error is None:
            reasons = verdict(report, spec["classification"],
                              references.get(cfg["scenario"]))
            digest = hashlib.sha256(report_text(report).encode()).hexdigest()
        else:
            reasons, digest = [error], None
        runs.append({
            "scenario": cfg["scenario"],
            "reasons": reasons,
            "report_sha256": digest,
            "stats": report["stats"] if report is not None else None,
            "warnings": len(caught),
            "warning_messages": sorted({f"{w.category.__name__}: {w.message}"
                                        for w in caught}),
        })

    result = {"setup_s": setup_s, "run_s": run_s, "cal_s": cal_s,
              "cal_run_s": sampler.samples,
              "peak_rss_mb": peak_rss_mb, "numpy": numpy.__version__,
              "runs": runs}
    if tracer is not None:
        tracer.write(spans_path)
        result["trace"] = {"spans": tracer.summary(),
                           "counts": dict(tracer.counts)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
