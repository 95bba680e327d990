"""Spans around the calls into sqfnlab's modules, recorded from outside the package.

``install`` replaces each traced function in its home module and in every
loaded ``sqfnlab`` module that imported it under any name, and wraps
``AlphaTable.entry`` on the class, so calls made inside the package are
recorded too.  A span holds its name, start, end and the span that was open
when it began.  Spans stay in memory until ``write`` saves them; self time
is a span's duration minus the durations of its direct children.
"""

import importlib
import sys
import time
from collections import Counter

import numpy as np

# the public functions whose calls are spanned, by module
TRACED = {
    "measure": ("restrict", "is_uniform_on", "mass", "cdf_left_values",
                "integrate", "cdf_difference", "generate"),
    "transport": ("w1_supported", "w1_oracle"),
    "dyadic": ("delta", "doubling_constant"),
    "tree": ("stopping_forest", "carleson_comparison", "haar"),
    "squarefn": ("buckley_ratio", "cz_decompose", "tolsa_l2",
                 "delta_level_sums", "dyadic_square_profile"),
    "cli": ("run_experiment",),
}

ENTRY = "alpha.AlphaTable.entry"


class Tracer:
    """In-memory span store plus named counters, for one process."""

    def __init__(self):
        self.names = []
        self.name_ids = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._open = [-1]

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result`` may count."""
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, open_spans = self.parents, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def summary(self):
        """{span name: {"calls", "self_s", "incl_s"}} over all spans."""
        ids = np.asarray(self.name_ids, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros(dur.size)
        nested = parents >= 0
        np.add.at(covered, parents[nested], dur[nested])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=dur - covered, minlength=n)
        incl_s = np.bincount(ids, weights=dur, minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "incl_s": float(incl_s[i])}
                for i, name in enumerate(self.names)}

    def write(self, path):
        np.savez(path, names=np.asarray(self.names),
                 name_id=np.asarray(self.name_ids, dtype=np.int32),
                 start=np.asarray(self.starts), end=np.asarray(self.ends),
                 parent=np.asarray(self.parents, dtype=np.int64))


def _count_restrict(counts, args, result):
    counts["measure.restrict.pieces_in"] += args[0].piece_l.size
    counts["measure.restrict.pieces_out"] += result.piece_l.size


def _count_breakpoints(counts, args, result):
    for m in args[:2]:
        counts["transport.w1_supported.breakpoints"] += (
            m.atom_x.size + 2 * m.piece_l.size)


def _count_forest(counts, args, result):
    counts["tree.stopping_forest.trees"] += len(result.trees)
    counts["tree.stopping_forest.members"] += sum(
        len(t.members) for t in result.trees if t.members)


ON_RESULT = {
    "measure.restrict": _count_restrict,
    "transport.w1_supported": _count_breakpoints,
    "tree.stopping_forest": _count_forest,
}


def _replace_everywhere(original, replacement):
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "sqfnlab" and not mod_name.startswith("sqfnlab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap every traced sqfnlab function; call once per process."""
    for mod_name, functions in TRACED.items():
        module = importlib.import_module(f"sqfnlab.{mod_name}")
        for fn_name in functions:
            name = f"{mod_name}.{fn_name}"
            original = getattr(module, fn_name)
            _replace_everywhere(original, tracer.wrap(
                name, original, ON_RESULT.get(name)))

    from sqfnlab import alpha

    entry = alpha.AlphaTable.entry

    def counted_entry(table, interval):
        before = len(table)
        result = entry(table, interval)
        tracer.counts[f"{ENTRY}.computed"] += len(table) - before
        return result

    alpha.AlphaTable.entry = tracer.wrap(ENTRY, counted_entry)

    # every alpha entry, memoized or not, is built through this name; the
    # subclass counts builds and reads of the smooth value
    class CountedAlphaEntry(alpha.AlphaEntry):
        def __init__(self, *args, **kwargs):
            tracer.counts["alpha.entries_built"] += 1
            super().__init__(*args, **kwargs)

        def __getattribute__(self, name):
            if name == "alpha_smooth":
                tracer.counts["alpha.smooth_reads"] += 1
            return object.__getattribute__(self, name)

    alpha.AlphaEntry = CountedAlphaEntry
