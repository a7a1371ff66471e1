"""parastab benchmark: one workload driven by one closed-loop client.

Run from the repository root; parastab is imported from ``src/``, so
nothing needs installing:

    python3 perfbench/run.py --workload inverse --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                   # every workload

Each job is an in-process call (or a few) to ``parastab.cli.run_cli``; the
next job starts when the previous one has been checked. Jobs come in
twins: two consecutive jobs share their drawn values, and the second must
write byte-identical artifacts. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs each drawn job untraced once and traced twice
and reports the per-layer metrics (see tracer.py). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, artifact_digests, check_job, make_job

# One BLAS thread for this process and the set-up children it starts: the
# machine has two cores, and the figures should measure the program, not
# the scheduler. Nothing above imports numpy; _import_program does.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3          # in-process set-up plus two fresh interpreters
SETUP_TIMEOUT_S = 150
# Traced runs execute a fixed number of drawn jobs, so that two traced runs
# with one seed cover the same jobs and their counts can be compared. The
# number is sized from the seed commit's job time to fill --seconds.
NOMINAL_JOB_S = {"inverse": 2.0, "probe": 1.4, "fine": 1.6}
TRACED_RUNS_PER_JOB = 3    # untraced, traced, traced
TAIL_BEYOND = 10           # jobs that must lie beyond the tail percentile

SPAN_CALLS = ("solver.forward", "solver.adjoint", "solver.assemble",
              "carleman.eval_weights", "carleman.sweep", "lab.context",
              "lab.measure", "inverse.objective", "inverse.minimize")
SPAN_SELF = SPAN_CALLS + ("lab.admissible", "lab.decompose",
                          "lab.log_convexity", "lab.probe",
                          "inverse.synthesize", "cli.run_cli",
                          "cli.resolve_config", "cli.write_csv",
                          "cli.write_manifest")
PER_CALL_MS = ("solver.assemble", "solver.forward", "solver.adjoint",
               "lab.measure", "carleman.eval_weights", "carleman.sweep",
               "inverse.objective")
# counts that must repeat exactly between two traced runs of one job
REPEATED_COUNTS = ("solver.steps", "solver.banded_solves",
                   "inverse.iterations", "cli.csv_bytes",
                   "cli.manifest_bytes")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import parastab.cli (numpy and scipy with it); return it and seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    cli = importlib.import_module("parastab.cli")
    return cli, time.perf_counter() - start


def run_job(cli, job, outdir: Path):
    """Run every command of the job; return (wall seconds, exit codes).

    The program's stdout and stderr are captured so that the benchmark's
    own report stays parseable. A command that raises gets its traceback in
    place of an exit code: the job fails, the benchmark goes on.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for name, argv in job.commands:
            try:
                code = cli.run_cli(list(argv) + ["--out", str(outdir / name)])
            except Exception:  # a crashing job is reported as failed
                code = traceback.format_exc()
            codes.append(code)
    return time.perf_counter() - start, codes


def _warm_up_job(workload: str):
    """The same warm-up job for every seed, so that set-up does equal work
    on every run (an inverse job's iteration count depends on its noise)."""
    return make_job(workload, random.Random(f"{workload}:warm-up"))


def _setup_child(workload: str, workdir: Path) -> float:
    """One set-up sample in a fresh interpreter, as this process made its own.

    The child works inside this process's work directory, so that removing
    it cleans up after a child that was killed.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--setup-only", str(workdir / "setup-child")]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure_setup(cli, import_s: float, workload: str,
                  workdir: Path) -> list:
    """Set-up samples: imports plus one untimed warm-up job, each."""
    seconds, _ = run_job(cli, _warm_up_job(workload), workdir / "warm-up")
    samples = [import_s + seconds]
    samples += [_setup_child(workload, workdir)
                for _ in range(SETUP_SAMPLES - 1)]
    return samples


def _tail(times: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs
    beyond it, i.e. the order statistic with exactly that many above."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / n


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Ledger:
    """Every measured job: its time, accuracy values and problems."""

    def __init__(self):
        self.times = []
        self.values = []
        self.problems = []
        self.seeds = []

    def record(self, job, seconds, problems, values):
        self.times.append(seconds)
        self.values.append(values)
        self.problems.append(problems)
        self.seeds.append(job.seed)

    @property
    def failures(self) -> list:
        return [f"job {i} (seed {seed}): " + "; ".join(problems)
                for i, (seed, problems) in enumerate(zip(self.seeds,
                                                         self.problems))
                if problems]

    def median_value(self, key: str) -> float:
        vals = [v[key] for v in self.values if key in v]
        return statistics.median(vals) if vals else 0.0


def _run_checked(cli, job, outdir, ledger, reference):
    seconds, codes = run_job(cli, job, outdir)
    problems, values = check_job(job, str(outdir), codes)
    digests = artifact_digests(str(outdir))
    if reference is not None and digests != reference:
        problems.append("artifacts not byte-identical to the repeat")
    ledger.record(job, seconds, problems, values)
    return seconds, digests


def run_timed(cli, workload: str, seed: int, seconds: float,
              workdir: Path, ledger: _Ledger) -> None:
    """Closed loop of job twins until ``seconds`` of wall time have passed."""
    rng = random.Random(f"{workload}:{seed}")
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        job = make_job(workload, rng)
        _, first = _run_checked(cli, job, workdir / "job", ledger, None)
        _run_checked(cli, job, workdir / "job", ledger, first)


def end_to_end_metrics(ledger: _Ledger, setup: list) -> dict:
    n = len(ledger.times)
    tail, _ = _tail(ledger.times)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (statistics.median(ledger.times), "s"),
        "job_s.tail": (tail, "s"),
        "jobs_per_s": (n / sum(ledger.times), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def run_traced(cli, workload: str, seed: int, seconds: float,
               workdir: Path, ledger: _Ledger, tracer: Tracer):
    """Each drawn job untraced, then traced twice; returns the traced job
    ids and the untraced and traced times."""
    rng = random.Random(f"{workload}:{seed}")
    n_jobs = max(2, round(seconds / (TRACED_RUNS_PER_JOB
                                     * NOMINAL_JOB_S[workload])))
    traced_ids, plain_s, traced_s = [], [], []
    for i in range(n_jobs):
        job = make_job(workload, rng)
        elapsed, reference = _run_checked(cli, job, workdir / "job", ledger,
                                          None)
        plain_s.append(elapsed)
        pair = []
        for repeat in range(2):
            tracer.job = 2 * i + repeat
            tracer.install()
            try:
                elapsed, _ = _run_checked(cli, job, workdir / "job", ledger,
                                          reference)
            finally:
                tracer.uninstall()
            traced_s.append(elapsed)
            pair.append(tracer.job)
            traced_ids.append(tracer.job)
        mismatch = _count_mismatch(tracer, *pair)
        if mismatch:
            ledger.problems[-1].append(f"counts differ between traced "
                                       f"repeats: {mismatch}")
    return traced_ids, plain_s, traced_s


def _job_counts(tracer: Tracer, job: int) -> dict:
    totals, counts = tracer.layer_totals([job])
    out = {f"{name}.calls": entry["calls"] for name, entry in totals.items()}
    out.update({key: counts[key] for key in REPEATED_COUNTS})
    return out


def _count_mismatch(tracer: Tracer, first: int, second: int) -> str:
    a, b = _job_counts(tracer, first), _job_counts(tracer, second)
    return ", ".join(f"{key} {a.get(key, 0)} vs {b.get(key, 0)}"
                     for key in sorted(set(a) | set(b))
                     if a.get(key, 0) != b.get(key, 0))


def layer_metrics(tracer: Tracer, traced_ids, plain_s, traced_s,
                  ledger: _Ledger) -> dict:
    """Per-layer metrics, per traced job unless the name says otherwise."""
    totals, counts = tracer.layer_totals(traced_ids)
    n = len(traced_ids)

    def span(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = (span(name, "calls") / n, "count")
    for name in SPAN_SELF:
        m[f"{name}.self_s"] = (span(name, "self_s") / n, "s")
    for name in PER_CALL_MS:
        m[f"{name}.ms_per_call"] = (ratio(span(name, "incl_s"),
                                          span(name, "calls"), 1e3), "ms")
    march_s = span("solver.forward", "self_s") + span("solver.adjoint",
                                                      "self_s")
    m["solver.steps"] = (counts["solver.steps"] / n, "count")
    m["solver.banded_solves"] = (counts["solver.banded_solves"] / n, "count")
    m["solver.ns_per_unknown"] = (ratio(march_s, counts["solver.unknowns"],
                                        1e9), "ns")
    m["carleman.rows"] = (counts["carleman.rows"] / n, "count")
    m["carleman.ns_per_node"] = (ratio(span("carleman.sweep", "self_s"),
                                       counts["carleman.nodes"], 1e9), "ns")
    m["lab.probe.members"] = (counts["lab.probe.members"] / n, "count")
    m["inverse.iterations"] = (counts["inverse.iterations"] / n, "count")
    m["inverse.evals_per_iteration"] = (
        ratio(span("inverse.objective", "calls"),
              counts["inverse.iterations"]), "ratio")
    m["inverse.converged_ratio"] = (
        ratio(counts["inverse.converged"], span("inverse.minimize", "calls")),
        "ratio")
    csv_bytes = counts["cli.csv_bytes"]
    m["cli.artifact_bytes"] = ((csv_bytes + counts["cli.manifest_bytes"]) / n,
                               "B")
    m["cli.write_mb_per_s"] = (ratio(csv_bytes / 1e6,
                                     span("cli.write_csv", "self_s")), "MB/s")
    m["recon.err_f.p50"] = (ledger.median_value("err_f"), "ratio")
    m["recon.err_g.p50"] = (ledger.median_value("err_g"), "ratio")
    m["trace.job_s.p50"] = (statistics.median(traced_s), "s")
    m["trace.overhead_s"] = (statistics.median(traced_s)
                             - statistics.median(plain_s), "s")
    return m


def machine_info(workload_seeds: dict) -> dict:
    import numpy
    import scipy

    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")},
            "blas_threads_pinned": BLAS_THREADS,
            "workload_seeds": workload_seeds}


def _print_metrics(prefix: str, metrics: dict, samples: dict):
    for name, (value, unit) in metrics.items():
        extra = f" (n={samples[name]})" if name in samples else ""
        print(f"{prefix}{name}: {value!r} {unit}{extra}")


def run_workload(cli, import_s, workload, seed, seconds, trace, workdir):
    """Report one workload; returns (metrics, attempted, failed)."""
    ledger = _Ledger()
    if trace:
        # warm caches and lazy imports before the traced plan starts
        run_job(cli, _warm_up_job(workload), workdir / "warm-up")
        tracer = Tracer()
        ids, plain_s, traced_s = run_traced(cli, workload, seed, seconds,
                                            workdir, ledger, tracer)
        metrics = layer_metrics(tracer, ids, plain_s, traced_s, ledger)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
        samples = {name: len(ids) for name in metrics}
        samples["trace.overhead_s"] = f"{len(traced_s)} traced, " \
                                      f"{len(plain_s)} untraced"
    else:
        setup = measure_setup(cli, import_s, workload, workdir)
        run_timed(cli, workload, seed, seconds, workdir, ledger)
        metrics = end_to_end_metrics(ledger, setup)
        n = len(ledger.times)
        _, pct = _tail(ledger.times)
        samples = {"setup_s": len(setup), "job_s.p50": n,
                   "job_s.tail": f"{n}, percentile p{pct:.1f}",
                   "jobs_per_s": n}
    attempted, failed = len(ledger.times), len(ledger.failures)
    print(f"[{workload}] seed {seed}, {'traced' if trace else 'untraced'}, "
          f"1 closed-loop client, job seeds "
          f"{list(dict.fromkeys(ledger.seeds))}")
    if trace:
        print(f"[{workload}] spans written to {spans_path}")
    _print_metrics(f"[{workload}] ", metrics, samples)
    extra = {"fail_ratio": (failed / attempted, "ratio")}
    if not trace and workload == "inverse":
        extra["recon.err_f.p50"] = (ledger.median_value("err_f"), "ratio")
        extra["recon.err_g.p50"] = (ledger.median_value("err_g"), "ratio")
    _print_metrics(f"[{workload}] ", extra,
                   {name: attempted for name in extra})
    for failure in ledger.failures:
        print(f"[{workload}] FAILED {failure}")
    return metrics, attempted, failed


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only takes one workload")
    return args


def _exit_on_sigterm(signum, frame):
    # unwinds through the finally blocks: subprocess.run kills and reaps a
    # running set-up child, and main removes the work directory
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "parastab" / "cli.py").is_file():
        return _fail(f"no parastab sources under {SRC}; run from a "
                     f"checkout of the repository")
    workdir = (Path(args.setup_only) if args.setup_only
               else OUT / f"work-{os.getpid()}")
    try:
        cli, import_s = _import_program()
        if args.setup_only:
            seconds, _ = run_job(cli, _warm_up_job(args.workload),
                                 workdir / "warm-up")
            print(json.dumps({"setup_s": import_s + seconds}))
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        print("machine: " + json.dumps(machine_info(
            {name: args.seed for name in names})))
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            wl_metrics, wl_attempted, wl_failed = run_workload(
                cli, import_s, name, args.seed, args.seconds, args.trace,
                workdir)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: {"value": value, "unit": unit}
                            for key, (value, unit) in wl_metrics.items()})
            attempted += wl_attempted
            failed += wl_failed
    except (ImportError, RuntimeError, OSError,
            subprocess.SubprocessError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
