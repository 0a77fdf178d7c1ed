"""Span tracing of the package's layers from outside.

``Tracer.install`` replaces module attributes that callers look up at
call time (``hiddencauses.runner.log_joint``, ``hiddencauses.rjmcmc.
resample_all_y``, ...) with wrappers that record a span (name, start,
end, parent) and optional counters; ``uninstall`` puts the originals
back.  No file of the package is touched.  Spans stay in memory until
``write`` dumps them; a layer's self time is its spans' duration minus
the duration of their child spans.
"""

import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "bench.round"


def _flips(result, before, args):
    return {"flips": int(result != before)}


def _z_before(state, i, k, *rest):
    return int(state.Z[i, k])


def _added(result, before, args):
    return {"added": int(result)}


def _accepted(result, before, args):
    return {"accepted": int(bool(result[1]))}


def _bytes_written(result, before, args):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counter hook, pre-call hook)
PATCHES = [
    ("hiddencauses.cli", "main", "cli.main", None, None),
    ("hiddencauses.experiments", "dimension_recovery_experiment", "experiments.study", None, None),
    ("hiddencauses.experiments", "rejection_sample_Z", "harness.rejection", None, None),
    ("hiddencauses.experiments", "generate_dataset", "harness.generate", None, None),
    ("hiddencauses.cli", "run_chain", "runner.chain", None, None),
    ("hiddencauses.experiments", "run_chain", "runner.chain", None, None),
    ("hiddencauses.runner", "run_chain", "runner.chain", None, None),
    ("hiddencauses.runner", "gibbs_sweep", "gibbs.sweep", None, None),
    ("hiddencauses.runner", "rjmcmc_sweep", "rjmcmc.sweep", None, None),
    ("hiddencauses.gibbs", "gibbs_sample_z_entry", "gibbs.z_entry", _flips, _z_before),
    ("hiddencauses.gibbs", "sample_new_causes", "gibbs.new_causes", _added, None),
    ("hiddencauses.gibbs", "resample_y_row", "gibbs.y_row", None, None),
    ("hiddencauses.gibbs", "compact_state", "gibbs.compact", None, None),
    ("hiddencauses.rjmcmc", "finite_conditional_z", "rjmcmc.z_entry", None, None),
    ("hiddencauses.rjmcmc", "resample_all_y", "rjmcmc.y_pass", None, None),
    ("hiddencauses.rjmcmc", "birth_acceptance", "rjmcmc.birth", _accepted, None),
    ("hiddencauses.rjmcmc", "death_acceptance", "rjmcmc.death", _accepted, None),
    ("hiddencauses.runner", "mh_step_rate", "hypers.mh_rate", _accepted, None),
    ("hiddencauses.runner", "sample_p", "hypers.conjugate", None, None),
    ("hiddencauses.runner", "sample_alpha", "hypers.conjugate", None, None),
    ("hiddencauses.runner", "log_joint", "runner.trace", None, None),
    ("hiddencauses.model", "log_likelihood", "model.log_likelihood", None, None),
    ("hiddencauses.ibp", "log_prior_Z_ibp", "ibp.log_prior", None, None),
    ("hiddencauses.harness:SummaryAccumulator", "add", "harness.summary_add", None, None),
    ("hiddencauses.dataio", "read_matrix_csv", "dataio.read_matrix", None, None),
    ("hiddencauses.dataio", "write_trace", "dataio.write_trace", _bytes_written, None),
]

# Counted but not timed: one span per prior draw of a rejection loop
# would cost more than the draw.
COUNT_ONLY = [("hiddencauses.ibp", "sample_ibp", "ibp.sample")]

# The Y pass of rjmcmc is gibbs.resample_y_row called from resample_all_y;
# its time belongs to rjmcmc.y_pass, so no gibbs.y_row span opens there.
MERGE_INTO_PARENT = {"gibbs.y_row": "rjmcmc.y_pass"}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for path, attr, name, count, before in PATCHES:
            owner = _owner(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._timed(name, original, count, before))
        for path, attr, name in COUNT_ONLY:
            owner = _owner(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._counted(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def timed(self, fn):
        """Run a round's timed phase with every layer patched, under the root span."""
        self.install()
        try:
            return self.span(ROOT_SPAN, fn)
        finally:
            self.uninstall()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def _timed(self, name, fn, count, before):
        merge_parent = MERGE_INTO_PARENT.get(name)

        def traced(*args, **kwargs):
            if merge_parent and self._stack and self.spans[self._stack[-1]][0] == merge_parent:
                return fn(*args, **kwargs)
            pre = before(*args) if before else None
            result = self.span(name, fn, *args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            if count:
                for key, n in count(result, pre, args).items():
                    self.counts[f"{name}.{key}"] += n
            return result

        return traced

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus child durations."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
