"""Tests of the benchmark itself: its checks, its trace and its contract.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They run real jobs, about 40 s in all.
"""
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (artifact_digests, check_job, inverse_job,  # noqa: E402
                       make_job)

CLI, _ = run._import_program()


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """One finished job per workload: (job, output directory)."""
    base = tmp_path_factory.mktemp("jobs")
    jobs = {}
    for workload in ("inverse", "probe", "fine"):
        job = (inverse_job() if workload == "inverse"
               else make_job(workload, random.Random(f"test:{workload}")))
        outdir = base / workload
        _, codes = run.run_job(CLI, job, outdir)
        assert codes == [0] * len(job.commands)
        jobs[workload] = (job, outdir)
    return jobs


def _set_summary(outdir: Path, key: str, value: str):
    path = outdir / "manifest.txt"
    prefix = f"summary.{key}="
    lines = path.read_text().splitlines()
    assert any(line.startswith(prefix) for line in lines)
    path.write_text("\n".join(prefix + value if line.startswith(prefix)
                              else line for line in lines) + "\n")


def _replace_cell(path: Path, row: int, column: str, value: str):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_rate_converged(d):
    _replace_cell(d / "rate" / "rate.csv", 1, "converged", "false")


def _corrupt_rate_slope(d):
    _set_summary(d / "rate", "source_slope", "0.3")


def _corrupt_rate_nan(d):
    _replace_cell(d / "rate" / "rate.csv", 3, "err_g", "nan")


def _corrupt_probe_value(d):
    _replace_cell(d / "initial" / "probe.csv", 2, "ratio_or_product", "inf")


def _corrupt_probe_factor(d):
    _set_summary(d / "source", "max_agreement_factor", "2.5")


def _corrupt_sweep_flag(d):
    _replace_cell(d / "audit" / "sweep.csv", 5, "flag", "violation")


def _corrupt_w_bound(d):
    _set_summary(d / "decompose", "w_bound_ok", "false")


def _corrupt_forward_value(d):
    path = d / "forward" / "forward.csv"
    lines = path.read_text().splitlines()
    cells = lines[100].split(",")
    cells[7] = repr(float(cells[7]) + 0.01)
    lines[100] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _missing_artifact(d):
    os.remove(d / "forward" / "forward.csv")


CORRUPTIONS = [("inverse", _corrupt_rate_converged),
               ("inverse", _corrupt_rate_slope),
               ("inverse", _corrupt_rate_nan),
               ("probe", _corrupt_probe_value),
               ("probe", _corrupt_probe_factor),
               ("fine", _corrupt_sweep_flag),
               ("fine", _corrupt_w_bound),
               ("fine", _corrupt_forward_value),
               ("fine", _missing_artifact)]


@pytest.mark.parametrize("workload", ["inverse", "probe", "fine"])
def test_untouched_result_passes(finished, workload):
    job, outdir = finished[workload]
    problems, values = check_job(job, str(outdir), [0] * len(job.commands))
    assert problems == []
    if workload == "inverse":
        assert 0.0 < values["err_f"] < values["err_g"] < 1.0


@pytest.mark.parametrize("workload,corrupt", CORRUPTIONS,
                         ids=[c.__name__ for _, c in CORRUPTIONS])
def test_corrupted_result_counts_as_failed(finished, tmp_path, workload,
                                           corrupt):
    job, outdir = finished[workload]
    copy = tmp_path / workload
    shutil.copytree(outdir, copy)
    corrupt(copy)
    problems, _ = check_job(job, str(copy), [0] * len(job.commands))
    assert problems


def test_wrong_exit_code_counts_as_failed(finished):
    job, outdir = finished["probe"]
    problems, _ = check_job(job, str(outdir), [0, 2])
    assert problems == ["initial exited with 2"]


def test_changed_bytes_fail_the_repeat_check(finished, tmp_path):
    job, outdir = finished["inverse"]
    copy = tmp_path / "copy"
    shutil.copytree(outdir, copy)
    assert artifact_digests(str(copy)) == artifact_digests(str(outdir))
    _set_summary(copy / "rate", "levels", "3 ")
    assert artifact_digests(str(copy)) != artifact_digests(str(outdir))


def test_readme_job_counts_repeat_and_match_the_profile(tmp_path):
    """The README rate job (seed 7) makes 48,640 banded solves, and two
    traced runs of it count the same work."""
    tracer = Tracer()
    digests = []
    for job_id in (0, 1):
        tracer.job = job_id
        tracer.install()
        try:
            _, codes = run.run_job(CLI, inverse_job(), tmp_path / "job")
        finally:
            tracer.uninstall()
        assert codes == [0]
        digests.append(artifact_digests(str(tmp_path / "job")))
    assert digests[0] == digests[1]
    assert run._count_mismatch(tracer, 0, 1) == ""
    _, counts = tracer.layer_totals([0])
    assert counts["solver.banded_solves"] == 48_640
    assert counts["solver.steps"] == 48_640


def test_drawn_inverse_jobs_do_the_same_work(finished, tmp_path):
    """The drawn rate budget changes the manifest, not the reconstruction."""
    job = make_job("inverse", random.Random("test:budget"))
    assert job.commands != finished["inverse"][0].commands
    _, codes = run.run_job(CLI, job, tmp_path / "job")
    assert codes == [0]
    assert check_job(job, str(tmp_path / "job"), codes)[0] == []
    rate_csv = "rate/rate.csv"
    assert (artifact_digests(str(tmp_path / "job"))[rate_csv]
            == artifact_digests(str(finished["inverse"][1]))[rate_csv])


@pytest.mark.xfail(strict=True, reason="known defect: at eps = 0.1 this "
                   "noise seed stops L-BFGS on a failed line search above "
                   "grad_tol, so rate.csv reads converged=false; when this "
                   "passes, let the inverse workload draw its noise seed")
def test_rate_converges_for_any_noise_seed(tmp_path):
    job = inverse_job(817244)
    _, codes = run.run_job(CLI, job, tmp_path / "job")
    assert check_job(job, str(tmp_path / "job"), codes)[0] == []


def test_uninstall_restores_the_program():
    import parastab.inverse
    import parastab.lab
    import parastab.solver

    before = (parastab.inverse.forward_solve, parastab.solver.solve_banded,
              parastab.lab.LabContext.refined)
    tracer = Tracer()
    tracer.install()
    assert parastab.inverse.forward_solve is not before[0]
    tracer.uninstall()
    assert (parastab.inverse.forward_solve, parastab.solver.solve_banded,
            parastab.lab.LabContext.refined) == before


def test_tail_has_ten_jobs_beyond_it():
    times = [float(i) for i in range(1, 41)]
    value, percentile = run._tail(times)
    assert sum(t > value for t in times) == 10
    assert percentile == 75.0


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_result_line_follows_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "probe", "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[key]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "inverse", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
