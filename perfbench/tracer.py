"""Per-layer spans recorded from outside the program.

The tracer replaces public functions at the module attribute through which
the calling layer reaches them (``parastab.inverse.forward_solve``,
``parastab.probes.forward_solve``, ...), so ``src/`` stays untouched. Each
wrapped call records a span (name, start, end, parent, job id) in memory;
``solve_banded`` only bumps a counter, because a span per time level would
cost more than the step it measures. ``uninstall`` puts every original
back, so untraced jobs run the unmodified program.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict


def _count_march(position):
    """Counts of a march whose TimeWindow is argument ``position``."""
    def after(tally, args, kwargs, result):
        window = args[position] if len(args) > position else kwargs["window"]
        tally["solver.steps"] += window.nt
        tally["solver.unknowns"] += window.nt * (args[0].domain.nx + 1)
    return after


def _count_sweep(tally, args, kwargs, result):
    tally["carleman.rows"] += len(result)
    tally["carleman.nodes"] += len(result) * args[0].values.size


def _count_probe(tally, args, kwargs, result):
    tally["lab.probe.members"] += len(result.rows)


def _count_minimize(tally, args, kwargs, result):
    tally["inverse.iterations"] += result.iterations
    tally["inverse.converged"] += int(bool(result.converged))


def _count_bytes(key):
    def after(tally, args, kwargs, result):
        tally[key] += os.path.getsize(args[0])
    return after


_WRITERS = ("write_field_csv", "write_sweep_csv", "write_probe_csv",
            "write_rate_csv", "write_reconstruction_csv", "write_profile_csv")

# (owner, attribute, span name, hook run after the call). The owner is the
# module (or class) whose attribute the caller looks up at call time.
TARGETS = (
    [("parastab.cli", "run_cli", "cli.run_cli", None),
     ("parastab.cli", "resolve_config", "cli.resolve_config", None),
     ("parastab.cli", "write_manifest", "cli.write_manifest",
      _count_bytes("cli.manifest_bytes"))]
    + [("parastab.cli", name, "cli.write_csv", _count_bytes("cli.csv_bytes"))
       for name in _WRITERS]
    + [("parastab.cli", "make_context", "lab.context", None),
       ("parastab.lab:LabContext", "refined", "lab.context", None),
       ("parastab.lab", "assemble_operator", "solver.assemble", None)]
    + [(owner, "forward_solve", "solver.forward", _count_march(3))
       for owner in ("parastab.cli", "parastab.inverse", "parastab.probes",
                     "parastab.decompose")]
    + [("parastab.inverse", "adjoint_solve", "solver.adjoint",
        _count_march(4)),
       ("parastab.cli", "eval_weights", "carleman.eval_weights", None),
       ("parastab.cli", "constant_sweep", "carleman.sweep", _count_sweep)]
    + [(owner, "make_admissible_pair", "lab.admissible", None)
       for owner in ("parastab.cli", "parastab.inverse")]
    + [("parastab.probes", "check_source_condition", "lab.admissible", None),
       ("parastab.probes", "c4_surrogate", "lab.admissible", None)]
    + [(owner, "measure", "lab.measure", None)
       for owner in ("parastab.cli", "parastab.inverse", "parastab.probes")]
    + [("parastab.cli", "decompose_time_derivative", "lab.decompose", None),
       ("parastab.cli", "check_log_convexity_and_w_bound",
        "lab.log_convexity", None),
       ("parastab.cli", "source_stability_probe", "lab.probe", _count_probe),
       ("parastab.cli", "initial_stability_probe", "lab.probe",
        _count_probe),
       # rate_experiment's own code would otherwise count as cli self time
       ("parastab.cli", "rate_experiment", "inverse.rate", None)]
    + [(owner, "synthesize_data", "inverse.synthesize", None)
       for owner in ("parastab.cli", "parastab.inverse")]
    + [(owner, "minimize", "inverse.minimize", _count_minimize)
       for owner in ("parastab.cli", "parastab.inverse")]
    + [("parastab.inverse", "objective_and_gradient", "inverse.objective",
        None)]
)

COUNTED = (("parastab.solver", "solve_banded", "solver.banded_solves"),)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counts of the calls made while a job is current.

    Spans are lists ``[name, start, end, parent, job]``; ``parent`` is the
    index of the enclosing span or -1. Counts are kept per job id.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.job = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self.counts[self.job], args, kwargs, result)
            return result
        return traced

    def _counter(self, fn, key):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self.job][key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, after in TARGETS:
            obj = _resolve(owner)
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(original, name, after))
        for owner, attr, key in COUNTED:
            obj = _resolve(owner)
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._counter(original, key))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def layer_totals(self, jobs) -> tuple:
        """Per span name: calls, inclusive seconds and self seconds summed
        over the given job ids, plus the jobs' counts.

        Self time is a span's duration minus the durations of its direct
        children; spans nest without overlap in one thread, so the
        children's sum is the part of the interval they cover.
        """
        jobs = set(jobs)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "incl_s": 0.0,
                                      "self_s": 0.0})
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            if job in jobs:
                entry = totals[name]
                entry["calls"] += 1
                entry["incl_s"] += end - start
                entry["self_s"] += end - start - child[i]
        counts = Counter()
        for job in jobs:
            counts.update(self.counts[job])
        return dict(totals), counts

    def write(self, path: str) -> None:
        """One JSON list per span, in the order the calls started."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
