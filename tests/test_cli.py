"""CLI tests: config resolution, artifacts, exit codes, reproducibility."""
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from parastab import cli, inverse, lapack, probes, solver
from parastab.cli import (main, resolve_config, source_member, source_profile,
                          spatial_profile)
from parastab.config import (canonical_echo, config_hash, parse_config_text)
from parastab.lab import (LabContext, benchmark_initial, benchmark_source,
                          make_context)
from parastab.measurement import observed_march

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# small grids keep each full CLI run in the tens of milliseconds
FAST = ["--nx", "16", "--nt", "32"]
# the grid, weights and seed of the README reconstruct and rate commands
README_INVERSE = ["--nx", "32", "--nt", "128", "--T", "0.25", "--delta0",
                  "0.25", "--delta1", "0.125", "--alpha0_f", "10",
                  "--alpha0_g", "1", "--seed", "7"]
RATE_FAST = ["rate", "--nx", "16", "--nt", "32", "--T", "0.25",
             "--delta0", "0.25", "--delta1", "0.125",
             "--noise", "0.1,0.05,0.025"]


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def manifest_lines(outdir):
    return read(os.path.join(outdir, "manifest.txt")).decode().splitlines()


def echo_of(outdir):
    lines = manifest_lines(outdir)
    i0, i1 = lines.index("config_begin"), lines.index("config_end")
    return "\n".join(lines[i0 + 1:i1]) + "\n"


def _refused(tmp_path, capsys, argv) -> list:
    """The stderr lines of an in-process run refused with exit 1 and no
    output directory."""
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err.splitlines()


def _refused_in_a_child(tmp_path, argv) -> str:
    """The one stderr line of a run refused with exit 1 and no output
    directory, made in a child process because pytest would capture the
    numpy warnings that must not reach stderr."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONWARNINGS="default")
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "parastab.cli", *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert not out.exists()
    return lines[0]


def test_parse_config_text_basics():
    text = "# comment\nnx=32\n\n  T = 0.5 \nf=eigenmode:2\n"
    assert parse_config_text(text) == {"nx": "32", "T": "0.5",
                                       "f": "eigenmode:2"}


def test_parse_config_text_rejects_bad_lines():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("nx=32\nnonsense\n")
    with pytest.raises(ValueError, match="empty key"):
        parse_config_text("=32\n")


def test_canonical_echo_sorts_and_round_trips():
    cfg = {"b": "2", "a": "1", "z": "eigenmode:3:0.5"}
    echo = canonical_echo(cfg)
    assert echo == "a=1\nb=2\nz=eigenmode:3:0.5\n"
    assert parse_config_text(echo) == cfg


def test_config_hash_tracks_content():
    h1 = config_hash({"a": "1"})
    h2 = config_hash({"a": "2"})
    assert h1 != h2
    assert len(h1) == 64
    assert h1 == config_hash({"a": "1"})


def test_spatial_profiles():
    ctx = make_context(nx=16, nt=32)
    x = ctx.domain.points
    assert np.array_equal(spatial_profile("zero", ctx.domain), np.zeros(17))
    assert np.array_equal(spatial_profile("one", ctx.domain), np.ones(17))
    got = spatial_profile("eigenmode:2:0.5", ctx.domain)
    assert np.allclose(got, 0.5 * np.cos(2 * np.pi * x))
    bench = spatial_profile("benchmark", ctx.domain)
    assert np.array_equal(bench, benchmark_initial(x))
    assert np.array_equal(source_profile("benchmark", ctx.domain),
                          benchmark_source(x))
    # closed forms at the walls: 1 + 1/2 + 1/4 and -1 + 1/2 - 1/4;
    # cos(pi x) + 1/2 gives 3/2 and -1/2
    assert bench[0] == pytest.approx(1.75) and bench[-1] == pytest.approx(-0.75)
    assert benchmark_source(np.array([0.0, 1.0])) == pytest.approx([1.5, -0.5])


def test_bad_descriptors_raise():
    ctx = make_context(nx=8, nt=16)
    with pytest.raises(ValueError, match="profile"):
        spatial_profile("wavelet", ctx.domain)
    with pytest.raises(ValueError, match="eigenmode"):
        spatial_profile("eigenmode:two", ctx.domain)
    with pytest.raises(ValueError, match="source"):
        source_member("wavelet", ctx)


def test_late_onset_source_misses_the_observation_window():
    ctx = make_context(nx=8, nt=64)
    member = source_member("late-onset", ctx)
    w = ctx.window
    vals = member(ctx.domain.points[:, None], w.times[None, :])
    # zero through the snapshot and the whole trace window, nonzero later
    observed = w.times <= w.T + w.delta1
    assert np.all(vals[:, observed] == 0.0)
    assert np.max(np.abs(vals)) > 0.0


def test_resolve_config_defaults_and_inheritance():
    # the inverse keys inherit their defaults from InverseProblemSpec
    cfg, typed = resolve_config("rate", {}, None)
    assert cfg["subcommand"] == "rate"
    assert typed["nx"] == 64
    spec = inverse.InverseProblemSpec()
    assert (typed["alpha0_f"], typed["alpha0_g"],
            typed["seed"]) == (spec.alpha_f, spec.alpha_g, spec.seed)
    cfg2, typed2 = resolve_config("rate", {"alpha0_g": "0.5"}, None)
    assert typed2["alpha0_f"] == 1.0
    assert typed2["alpha0_g"] == 0.5
    assert cfg2["alpha0_g"] == "0.5"


def test_resolve_config_flags_beat_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nx=24\nT=0.5\n")
    cfg, typed = resolve_config("forward", {"nx": "48"}, str(cfg_file))
    assert typed["nx"] == 48
    assert typed["T"] == 0.5


def test_resolve_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("granularity=3\n")
    with pytest.raises(ValueError, match="granularity"):
        resolve_config("forward", {}, str(cfg_file))


def test_resolve_config_rejects_wrong_subcommand(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("subcommand=rate\n")
    with pytest.raises(ValueError, match="rate"):
        resolve_config("forward", {}, str(cfg_file))


def test_resolution_is_idempotent_through_the_echo():
    # resolving the canonical strings again must reproduce them exactly
    cfg, _ = resolve_config("rate", {"noise": "0.2,0.02,0.002",
                                     "alpha0_g": "1e-9"}, None)
    again, _ = resolve_config("rate", {k: v for k, v in cfg.items()
                                       if k != "subcommand"}, None)
    assert again == cfg


def test_forward_run_writes_field_and_manifest(tmp_path):
    out = str(tmp_path / "fwd")
    rc = main(["forward", *FAST, "--out", out])
    assert rc == 0
    rows = read(os.path.join(out, "forward.csv")).decode().splitlines()
    assert rows[0].startswith("h=")
    # nt gets bumped until the snapshot times align, so derive the count
    nt = make_context(nx=16, nt=32).window.nt
    assert len(rows) == 1 + nt + 1          # header + one row per time node
    assert len(rows[1].split(",")) == 17    # nx+1 space columns
    lines = manifest_lines(out)
    assert lines[0].startswith("config_sha256=")
    assert "artifact=forward.csv" in lines


# audits need enough time resolution for the derivative field to satisfy
# its equation; the coarse FAST grid trips the residual warning on purpose
AUDIT_FAST = ["--nx", "32", "--nt", "64"]


def test_carleman_audit_sweep_rows(tmp_path):
    # s values this large underflow exp(s*phi); rows must come back
    # flagged degenerate rather than silently zero
    out = str(tmp_path / "ca")
    rc = main(["carleman-audit", *AUDIT_FAST, "--s", "10,20,40,80",
               "--out", out])
    assert rc == 0
    rows = read(os.path.join(out, "sweep.csv")).decode().splitlines()
    assert rows[0].split(",")[0] == "s"
    assert len(rows) == 5
    s_col = [float(r.split(",")[0]) for r in rows[1:]]
    assert s_col == [10.0, 20.0, 40.0, 80.0]
    assert all(r.split(",")[-1] == "degenerate" for r in rows[1:])
    # with no clean row, the statistics of the clean rows are undefined
    summary = [line for line in manifest_lines(out) if "summary." in line]
    assert "summary.clean_rows=0" in summary
    assert not any("max_over_median" in line or "s1_threshold" in line
                   for line in summary)


def test_carleman_audit_default_sweep_spans_an_octave_triple(tmp_path):
    out = str(tmp_path / "ca2")
    rc = main(["carleman-audit", *AUDIT_FAST, "--out", out])
    assert rc == 0
    rows = read(os.path.join(out, "sweep.csv")).decode().splitlines()[1:]
    s_col = [float(r.split(",")[0]) for r in rows]
    assert len(s_col) == 4
    assert s_col[-1] == pytest.approx(8.0 * s_col[0])
    # the auto-scaled sweep must stay clean: finite quotients, no flags
    assert all(r.split(",")[-1] == "" for r in rows)
    assert all(math.isfinite(float(r.split(",")[4])) for r in rows)


def test_stability_probe_initial_unnormalized_flags_but_exits_zero(tmp_path):
    out = str(tmp_path / "sp")
    rc = main(["stability-probe", "--kind", "initial", "--members", "6",
               "--normalized", "false", "--levels", "1", *FAST,
               "--out", out])
    assert rc == 0      # expected failures are not violations
    body = read(os.path.join(out, "probe.csv")).decode()
    assert "expected_failure" in body


def test_decompose_profile_covers_zero_to_T(tmp_path):
    out = str(tmp_path / "dc")
    rc = main(["decompose", *FAST, "--f", "benchmark",
               "--g", "eigenmode:1", "--out", out])
    assert rc == 0
    rows = read(os.path.join(out, "decompose.csv")).decode().splitlines()
    assert rows[0] == "t,z_norm,chord"
    ctx = make_context(nx=16, nt=32)
    assert len(rows) - 1 == ctx.window.snapshot_index + 1
    assert float(rows[1].split(",")[0]) == 0.0


def test_reconstruct_run(tmp_path):
    out = str(tmp_path / "rc")
    rc = main(["reconstruct", "--nx", "16", "--nt", "32", "--T", "0.25",
               "--delta0", "0.25", "--delta1", "0.125", "--noise", "0.05",
               "--out", out])
    assert rc == 0
    rows = read(os.path.join(out, "reconstruction.csv")).decode().splitlines()
    assert rows[0] == "x,phi_true,g_true,phi_est,g_est"
    assert len(rows) == 1 + 17
    lines = manifest_lines(out)
    err_f = [l for l in lines if l.startswith("summary.err_f=")]
    assert len(err_f) == 1
    assert math.isfinite(float(err_f[0].split("=")[1]))


def test_rate_run_emits_one_row_per_level(tmp_path):
    out = str(tmp_path / "rt")
    rc = main([*RATE_FAST, "--out", out])
    assert rc == 0
    rows = read(os.path.join(out, "rate.csv")).decode().splitlines()
    assert rows[0].startswith("eps,alpha,err_f,err_g")
    assert len(rows) == 4
    converged = rows[0].split(",").index("converged")
    assert [r.split(",")[converged] for r in rows[1:]] == ["true"] * 3


def test_exit_one_on_usage_and_validation(tmp_path, capsys):
    assert main([]) == 1
    assert main(["forward", "--bogus", "1"]) == 1
    assert main(["forward", "--nx", "abc",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "nx" in err
    assert main(["stability-probe", "--kind", "sideways",
                 "--out", str(tmp_path / "y")]) == 1
    assert main(["rate", "--noise", "0.1,0.2,0.3",
                 "--out", str(tmp_path / "z")]) == 1
    # one least-squares solve has no iteration budget to set
    assert main(["rate", "--max_iters", "300",
                 "--out", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "usage error: unrecognized arguments: --max_iters 300"


def test_the_cached_parser_keeps_no_state_between_runs(tmp_path, capsys):
    # the parser is built once per process; a usage error between two
    # identical runs must not change the second one
    assert cli._build_parser() is cli._build_parser()
    good = ["forward", "--nx", "8", "--nt", "8", "--g", "eigenmode:2"]
    bad = ["forward", "--nx", "8", "--no_such_key", "1"]
    seen = []
    for i, argv in enumerate([good, bad, good]):
        out = tmp_path / str(i)
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        stdout = [line.replace(str(out), "OUT")
                  for line in captured.out.splitlines()
                  if not line.startswith("elapsed_seconds:")]
        artifacts = ({name: read(out / name)
                      for name in sorted(os.listdir(out))}
                     if out.exists() else None)
        seen.append((code, stdout, captured.err, artifacts))
    assert seen[0] == seen[2] and seen[0][0] == 0 and seen[0][3]
    assert seen[1] == (1, [], "usage error: unrecognized arguments: "
                       "--no_such_key 1\n", None)


@pytest.mark.parametrize("argv", [
    # forward draws nothing at random
    ["forward", "--seed", "1"],
    # alpha0_f and alpha0_g are the one way to set the base weights
    ["rate", "--alpha0", "2"],
    # the time-constant truth source needs no rate budget
    ["reconstruct", "--C0", "0"],
    # the certificate's tolerance is relative to the data's gradient at zero
    ["reconstruct", "--grad_tol", "1e-9"],
    ["rate", "--grad_tol", "1e-9"],
])
def test_removed_keys_are_usage_errors(tmp_path, capsys, argv):
    assert _refused(tmp_path, capsys, argv) == [
        f"usage error: unrecognized arguments: {' '.join(argv[1:])}"]


def test_a_forward_config_with_a_seed_is_refused(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("subcommand=forward\nseed=5\n")
    assert _refused(tmp_path, capsys, [
        "forward", *FAST, "--config", str(cfg_file)]) == [
        "error: unknown config key: seed"]


def test_a_reconstruct_config_with_a_rate_budget_is_refused(tmp_path,
                                                            capsys):
    # a manifest echo saved before reconstruct lost C0
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("subcommand=reconstruct\nC0=2.0\n")
    assert _refused(tmp_path, capsys, [
        "reconstruct", *FAST, "--config", str(cfg_file)]) == [
        "error: unknown config key: C0"]


@pytest.mark.parametrize("sub", ["reconstruct", "rate"])
def test_a_manifest_with_a_gradient_tolerance_is_refused(tmp_path, capsys,
                                                         sub):
    # a manifest echo saved while the certificate took an absolute grad_tol
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"subcommand={sub}\ngrad_tol=1e-10\n")
    assert _refused(tmp_path, capsys, [
        sub, *FAST, "--config", str(cfg_file)]) == [
        "error: unknown config key: grad_tol"]


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--g", "eigenmode:3:1e154"],
     "error: overflow encountered in "),
    (["rate", "--noise", "0.1,0.01,-1"],
     "error: noise level must be nonnegative"),
    (["carleman-audit", "--boundary", "nope"],
     "error: invalid value for boundary: 'nope' is not one of exp, literal"),
    (["forward", "--g", "eigenmode:1:2:3"],
     "error: bad eigenmode descriptor: 'eigenmode:1:2:3'"),
    (["stability-probe", "--kind", "source", "--f", "zero"],
     "error: custom source family needs a nonzero f"),
    # the member is sampled where its refusal gets the member prefix
    (["stability-probe", "--kind", "source", "--f", "eigenmode:1:inf"],
     "error: family member 0 at mesh level 0: field contains non-finite "
     "values"),
    # the later --nt wins; it used to run as --nt 2
    (["forward", "--nt", "-5"], "error: nt must be at least 2, got -5"),
    (["reconstruct", "--nt", "0"], "error: nt must be at least 2, got 0"),
])
def test_a_refused_run_creates_no_output_directory(tmp_path, capsys, argv,
                                                   message):
    lines = _refused(tmp_path, capsys,
                     [argv[0], "--nx", "8", "--nt", "8", *argv[1:]])
    assert len(lines) == 1 and lines[0].startswith(message)


def test_solver_failure_takes_the_one_line_error_path(tmp_path, capsys):
    # so long a step that 1 is lost next to kappa*A, whose constants are
    # in its kernel: the step matrix is singular in floating point
    # (overflowing data never reaches a march; the admissibility gate
    # refuses it, see test_overflowing_data_is_refused_in_one_line)
    long = ["--T", "1e200", "--delta0", "1e200", "--delta1", "1e200"]
    rc = main(["forward", "--nx", "16", "--nt", "8", *long,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: singular time-step system in forward solve at level 1"]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["forward", "--C0", "nan"],
    ["carleman-audit", "--s", "nan,1,8"],
])
def test_nan_config_values_are_refused(tmp_path, capsys, argv):
    (line,) = _refused(tmp_path, capsys, [*argv, *FAST])
    assert line.startswith("error: invalid value for ") and "nan" in line


@pytest.mark.parametrize("flag", ["--f", "--g"])
def test_a_nan_eigenmode_amplitude_is_refused_by_name(tmp_path, capsys, flag):
    # --g read "initial value overflows: its L2 norm is nan ...", --f
    # "field contains non-finite values"
    assert _refused(tmp_path, capsys,
                    ["forward", *FAST, flag, "eigenmode:1:nan"]) == [
        "error: eigenmode amplitude is nan: 'eigenmode:1:nan'"]


@pytest.mark.parametrize("argv, message", [
    (["reconstruct", "--noise", "inf"],
     "error: noise level inf is not finite"),
    (["rate", "--alpha0_f", "inf"],
     "error: regularization weight alpha_f = inf is not finite"),
])
def test_infinite_inverse_inputs_are_refused_by_name(tmp_path, capsys, argv,
                                                     message):
    assert _refused(tmp_path, capsys,
                    [*argv, "--nx", "8", "--nt", "8"]) == [message]


def test_reconstruct_takes_exactly_one_noise_level(tmp_path, capsys):
    (line,) = _refused(tmp_path, capsys,
                       ["reconstruct", *FAST, "--noise", "0.01,0.5"])
    assert "noise" in line
    cfg, typed = resolve_config("reconstruct", {}, None)
    assert typed["noise"] == 0.01 and cfg["noise"] == "0.01"


@pytest.mark.parametrize("amplitude", ["1e160", "1e308"])
@pytest.mark.parametrize("sub", ["forward", "decompose", "carleman-audit"])
def test_overflowing_data_is_refused_in_one_line(tmp_path, sub, amplitude):
    assert _refused_in_a_child(tmp_path, [
        sub, "--nx", "16", "--nt", "8", "--g", f"eigenmode:1:{amplitude}"]
    ).startswith("error: initial value overflows")


def test_overflowing_probe_family_is_refused_in_one_line(tmp_path):
    assert _refused_in_a_child(tmp_path, [
        "stability-probe", "--kind", "source", "--f", "eigenmode:1:1e160",
        "--nx", "16", "--nt", "8", "--levels", "1"]) == (
        "error: family member 0 at mesh level 0: source overflows: its "
        "L2(Q) norm is inf")


_TINY_WINDOW = ["--T", "1e-5", "--delta0", "1e-5", "--delta1", "5e-06"]


@pytest.mark.parametrize("argv, message", [
    # the data pass the gate, but their H2 norms overflow
    (["reconstruct", "--nx", "33", "--nt", "16", *_TINY_WINDOW, "--g",
      "eigenmode:3:1e150"],
     "error: measurement overflows: its combined norm is inf"),
    (["forward", "--nx", "16", "--nt", "16", *_TINY_WINDOW, "--g",
      "eigenmode:3:1e152"],
     "error: measurement overflows: its combined norm is inf"),
    # numpy's own fault signal: an overflowing z norm, a non-degenerate run
    (["decompose", "--nx", "64", "--nt", "256", "--g", "eigenmode:8:1e152"],
     "error: overflow encountered in "),
    (["decompose", "--nx", "8", "--nt", "8", "--g", "eigenmode:3:1e154"],
     "error: overflow encountered in "),
], ids=["reconstruct", "forward", "decompose-64", "decompose-8"])
def test_overflowing_arithmetic_is_refused_in_one_line(tmp_path, argv,
                                                       message):
    # each exited 0 with an inf or nan summary and raw RuntimeWarning lines
    assert _refused_in_a_child(tmp_path, argv).startswith(message)


def test_negative_rate_noise_is_refused_in_the_reconstruct_wording(
        tmp_path, capsys):
    assert _refused(tmp_path, capsys,
                    ["rate", *FAST, "--noise", "0.1,0.01,-1"]) == [
        "error: noise level must be nonnegative"]


@pytest.mark.parametrize("kind,members", [("source", "-3"), ("initial", "-2")])
def test_negative_member_count_is_refused_in_one_line(tmp_path, capsys, kind,
                                                      members):
    # a negative count used to slice the family to nothing and report nan
    assert _refused(tmp_path, capsys, [
        "stability-probe", "--kind", kind, "--members", members, "--nx",
        "16", "--nt", "8", "--levels", "1"]) == [
        f"error: members must be nonnegative, got {members}"]


def test_a_custom_source_probe_takes_no_family_size(tmp_path, capsys):
    # --members 5 wrote the one-member probe.csv of --members 1
    argv = ["stability-probe", "--kind", "source", "--f", "eigenmode:2",
            "--nx", "16", "--nt", "8", "--levels", "1"]
    assert _refused(tmp_path, capsys, [*argv, "--members", "5"]) == [
        "error: members must be 0 or 1 with a custom --f source, got 5"]
    a, b = str(tmp_path / "m0"), str(tmp_path / "m1")
    assert main([*argv, "--members", "0", "--out", a]) == 0
    assert main([*argv, "--members", "1", "--out", b]) == 0
    assert read(os.path.join(a, "probe.csv")) == \
        read(os.path.join(b, "probe.csv"))


def test_member_count_zero_is_the_kind_default(tmp_path):
    for kind, count in (("source", "6"), ("initial", "8")):
        a, b = str(tmp_path / f"{kind}0"), str(tmp_path / f"{kind}{count}")
        argv = ["stability-probe", "--kind", kind, "--nx", "16", "--nt", "8",
                "--levels", "1"]
        assert main([*argv, "--members", "0", "--out", a]) == 0
        assert main([*argv, "--members", count, "--out", b]) == 0
        assert read(os.path.join(a, "probe.csv")) == \
            read(os.path.join(b, "probe.csv"))


def test_probe_with_nothing_to_summarize_is_refused(tmp_path, capsys):
    # M0 = 1 puts every initial member over the smoothness cap, so each
    # level's summary would be nan
    assert _refused(tmp_path, capsys, [
        "stability-probe", "--kind", "initial", "--M0", "1", "--nx", "8",
        "--nt", "8"]) == [
        "error: mesh level 0 has no row to summarize: every member is "
        "expected_failure or degenerate"]


@pytest.mark.parametrize("argv", [
    ["--kind", "source", "--M0", "-5"],
    ["--kind", "initial", "--C0", "-1"],
    ["--kind", "initial", "--M0", "-1"],
])
def test_negative_budgets_are_refused_before_any_march(tmp_path, capsys,
                                                       monkeypatch, argv):
    marches = []

    def counted(*args, **kwargs):
        marches.append(args)
        return observed_march(*args, **kwargs)
    monkeypatch.setattr(probes, "observed_march", counted)
    (line,) = _refused(tmp_path, capsys, ["stability-probe", *argv, "--nx",
                                          "16", "--nt", "8", "--levels", "1"])
    assert line.startswith("error: C0 and M0 must be nonnegative, got ")
    assert marches == []


def test_rate_with_a_nan_source_slope_is_refused(tmp_path, capsys):
    # alpha0_f = alpha0_g = 1e308 leaves every level unconverged, so the
    # slope fit has no point and the slope is undefined
    assert _refused(tmp_path, capsys, [
        "rate", "--nx", "8", "--nt", "8", "--alpha0_f", "1e308",
        "--alpha0_g", "1e308", "--noise", "1,0.5,0.25"]) == [
        "error: source slope is undefined: the levels eps=1.0,0.5,0.25 did "
        "not converge"]


@pytest.mark.parametrize("argv", [
    ["stability-probe", "--kind", "source", "--levels", "2"],
    ["stability-probe", "--kind", "initial", "--levels", "2"],
    ["carleman-audit"],
])
def test_probe_and_audit_runs_never_import_numpy_ma(tmp_path, argv):
    # np.median imports numpy.ma on its first call, which a fresh process
    # pays for; the medians of these runs come from mesh.median
    code = "\n".join([
        "import sys",
        "import parastab.cli",
        "code = parastab.cli.main(sys.argv[1:])",
        "print(code, sorted(m for m in sys.modules",
        "                   if m.split('.')[:2] == ['numpy', 'ma']))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, *FAST, "--out",
         str(tmp_path / "o")], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_unconverged_reconstruct_reports_its_one_solve(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["reconstruct", "--nx", "8", "--nt", "8", "--alpha0_f",
               "1e308", "--alpha0_g", "1e308", "--noise", "1", "--out", out])
    assert rc == 0
    lines = manifest_lines(out)
    assert "summary.converged=false" in lines


# (marches, levels): the observation march of the basis pairs with the
# truth riding along, to the end of the lateral window (96 levels), one
# forward march of every level's estimate (96) and one adjoint march of
# all their residuals, which marches from the end of the window (96) after
# one solve for the 32 payload-free levels above it
@pytest.mark.parametrize("argv, marches, solves", [
    (["reconstruct", "--noise", "0.01"], (3, 96 + 96 + 97), 1),
    (["rate", "--noise", "0.1,0.01,0.001"], (3, 96 + 96 + 97), 3),
])
def test_readme_inverse_jobs_solve_the_truth_once(tmp_path, monkeypatch,
                                                  argv, marches, solves):
    # a driver that marched the truth on its own, or certified each noise
    # level with marches of its own, would add to these counts
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "_march", counted("march", solver._march))
    monkeypatch.setattr(solver, "solve_banded",
                        counted("level", solver.solve_banded))
    for module in (cli, inverse):
        monkeypatch.setattr(module, "make_admissible_pair",
                            counted("make_admissible_pair",
                                    module.make_admissible_pair))
    monkeypatch.setattr(lapack, "lstsq", counted("lstsq", lapack.lstsq))
    assert main([*argv, *README_INVERSE, "--out", str(tmp_path / "o")]) == 0
    assert calls == {"march": marches[0], "level": marches[1],
                     "lstsq": solves, "make_admissible_pair": 1}


def test_reconstruct_of_zero_data_keeps_them_unperturbed(tmp_path):
    # zero data have no size to scale the noise by, so they stay zero and
    # the zero pair is recovered exactly
    out = str(tmp_path / "o")
    assert main(["reconstruct", "--nx", "8", "--nt", "8", "--f", "zero",
                 "--g", "zero", "--noise", "0.1", "--out", out]) == 0
    lines = manifest_lines(out)
    for key in ("combined_norm_noisy", "err_f", "err_g", "final_objective"):
        assert f"summary.{key}=0.0" in lines


def test_reconstruct_is_level_zero_of_rate(tmp_path):
    rec, rate = str(tmp_path / "rec"), str(tmp_path / "rate")
    assert main(["reconstruct", *README_INVERSE, "--noise", "0.01",
                 "--out", rec]) == 0
    assert main(["rate", *README_INVERSE, "--noise", "0.01,0.005,0.001",
                 "--out", rate]) == 0
    summary = dict(line[len("summary."):].split("=", 1)
                   for line in manifest_lines(rec)
                   if line.startswith("summary."))
    header, first = read(os.path.join(rate, "rate.csv")).decode() \
        .splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    for key in ("err_f", "err_g", "grad_norm", "combined_norm_noisy"):
        assert summary[key] == row[key], key
    assert (summary["eps"], summary["alpha_f"]) == (row["eps"], row["alpha"])


@pytest.mark.parametrize("horizon", ["1e-200", "1e-320", "5e-324"])
def test_a_time_step_whose_square_underflows_is_refused_in_one_line(
        tmp_path, horizon):
    line = _refused_in_a_child(tmp_path, [
        "forward", "--nx", "8", "--nt", "8", "--T", horizon, "--delta0",
        horizon, "--delta1", horizon])
    assert line.startswith("error: time step ")
    assert line.endswith("its square underflows the smallest normal float")


@pytest.mark.parametrize("sub", sorted(cli._TABLES))
def test_every_subcommand_refuses_an_underflowing_step_at_entry(
        tmp_path, capsys, sub):
    # a step of 2e-154 / 8, whose square is subnormal
    (line,) = _refused(tmp_path, capsys, [
        sub, "--nx", "8", "--nt", "8", "--T", "1e-154", "--delta0", "1e-154",
        "--delta1", "1e-154"])
    assert line.endswith("its square underflows the smallest normal float")


def test_a_tiny_time_step_with_a_normal_square_still_runs(tmp_path):
    out = str(tmp_path / "o")
    assert main(["forward", "--nx", "8", "--nt", "8", "--T", "1e-100",
                 "--delta0", "1e-100", "--delta1", "1e-100",
                 "--out", out]) == 0
    assert "summary.combined_norm=7.498440871020308" in manifest_lines(out)


def test_memory_error_takes_the_one_line_error_path(tmp_path, capsys,
                                                    monkeypatch):
    def exhausted(typed):
        raise MemoryError("Unable to allocate 10.7 GiB for an array")
    monkeypatch.setitem(cli._HANDLERS, "forward", exhausted)
    assert _refused(tmp_path, capsys, ["forward", *FAST]) == [
        "error: Unable to allocate 10.7 GiB for an array"]


@pytest.mark.parametrize("flagged", [False, True])
def test_a_non_finite_summary_is_reported_only_by_a_flagged_run(
        tmp_path, capsys, monkeypatch, flagged):
    # None is an undefined statistic and is left out; nan is a fault
    summary = {"defined": 1.0, "undefined": None, "fault": math.nan}
    monkeypatch.setitem(cli._HANDLERS, "forward",
                        lambda typed: ({}, summary, flagged))
    if not flagged:
        assert _refused(tmp_path, capsys, ["forward", *FAST]) == [
            "error: summary.fault is nan: a non-finite summary is not a "
            "success"]
        return
    out = tmp_path / "o"
    assert main(["forward", *FAST, "--out", str(out)]) == 2
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("summary.")] == [
        "summary.defined: 1.0", "summary.fault: nan"]
    assert "summary.fault=nan" in manifest_lines(out)


# the budget line: one array, its shape and its entries
_PAST_BUDGET = (r"error: the [a-z ]+ of shape \(([\d, ]+)\) would hold (\d+) "
                r"float64 entries \(.* GiB\), above the work budget of "
                r"67108864")


def _refused_lean(tmp_path, capsys, monkeypatch, argv,
                  peak_bytes=2 ** 20) -> list:
    """_refused of argv, which must build no refined context, run no march
    and allocate under peak_bytes at its peak (1 MB)."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work was done past the work budget")
    monkeypatch.setattr(LabContext, "refined", forbidden)
    monkeypatch.setattr(probes, "observed_march", forbidden)
    monkeypatch.setattr(inverse, "observed_march", forbidden)
    cli._build_parser()
    tracemalloc.start()
    try:
        lines = _refused(tmp_path, capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_bytes
    return lines


def test_probe_past_the_work_budget_is_refused_before_any_allocation(
        tmp_path, capsys, monkeypatch):
    # the defaults at 8 levels: the source samples alone take 10.1 GiB
    assert _refused_lean(tmp_path, capsys, monkeypatch,
                         ["stability-probe", "--levels", "8"]) == [
        "error: the source probe samples of shape (8193, 27521, 6) would "
        "hold 1352877318 float64 entries (10.1 GiB), above the work budget "
        "of 67108864"]


def test_a_family_past_the_work_budget_is_refused_before_it_is_made(
        tmp_path, capsys, monkeypatch):
    def no_family(*args, **kwargs):
        raise AssertionError("the family was made")
    monkeypatch.setattr(cli, "initial_eigenmode_family", no_family)
    (line,) = _refused_lean(tmp_path, capsys, monkeypatch, [
        "stability-probe", "--kind", "initial", "--members", "1000000",
        "--levels", "3"])
    assert line.startswith("error: the probe traces of shape (1000000, 2, ")


@pytest.mark.parametrize("sub, argv", [
    # nt 1024 is bumped to 1026, one level past what 2^16 rows allow
    ("forward", ["--nx", "65535", "--nt", "1024"]),
    ("stability-probe", ["--kind", "initial", "--levels", "8"]),
    ("stability-probe", ["--levels", "1000000"]),
    ("rate", ["--nt", "10000000"]),
    # each would exhaust memory in an array beside the field (the probe
    # traces, the design matrix, the certificate payloads)
    ("stability-probe",
     ["--kind", "initial", "--members", "1000000", "--levels", "3"]),
    ("reconstruct", ["--nx", "4000", "--nt", "8"]),
    ("rate", [*README_INVERSE, "--noise", ",".join(
        repr(0.1 - 1e-6 * i) for i in range(20000))]),
])
def test_grids_past_the_work_budget_are_refused(tmp_path, capsys,
                                                monkeypatch, sub, argv):
    # parsing the 20,000 noise levels of the last case alone takes 2 MB
    (line,) = _refused_lean(tmp_path, capsys, monkeypatch, [sub, *argv],
                            2 ** 20 if len(str(argv)) < 1000 else 2 ** 22)
    found = re.fullmatch(_PAST_BUDGET, line)
    assert found, line
    shape, entries = found.groups()
    assert math.prod(map(int, shape.split(", "))) == int(entries) > 2 ** 26


class _GateReached(Exception):
    pass


@pytest.mark.parametrize("sub, argv", [
    ("forward", ["--nx", "256", "--nt", "2048"]),
    ("carleman-audit", ["--nx", "256", "--nt", "2048"]),
    ("forward", ["--nx", "65535", "--nt", "1020"]),
    ("stability-probe", ["--kind", "source", "--levels", "3"]),
    ("stability-probe", ["--kind", "initial", "--levels", "3"]),
    ("rate", []),
    ("stability-probe", ["--kind", "initial", "--members", "8",
                         "--levels", "3"]),
    ("rate", [*README_INVERSE, "--noise", "0.1,0.01,0.001"]),
    ("reconstruct", [*README_INVERSE, "--noise", "0.01"]),
])
def test_readme_and_benchmark_grids_fit_the_work_budget(monkeypatch, sub,
                                                        argv):
    # each check of the library, up to where the work would begin
    _, typed = resolve_config(sub, {k[2:]: v for k, v in
                                    zip(argv[::2], argv[1::2])}, None)
    ctx = cli._context(typed)
    if sub == "stability-probe":
        members = typed["members"] or cli._DEFAULT_MEMBERS[typed["kind"]]
        probes.check_probe_budget(ctx, typed["levels"], members,
                                  typed["kind"] == "source")
    elif sub in ("reconstruct", "rate"):
        def gate(*args, **kwargs):
            raise _GateReached
        monkeypatch.setattr(inverse, "make_admissible_pair", gate)
        noise = [typed["noise"]] if sub == "reconstruct" else typed["noise"]
        truth = (benchmark_source(ctx.domain.points),
                 benchmark_initial(ctx.domain.points))
        with pytest.raises(_GateReached):
            inverse.recover(cli._recon_spec(typed), noise, truth, ctx)


@pytest.mark.parametrize("argv", [
    ["carleman-audit", "--boundary", "nope"],
    ["carleman-audit", "--boundary", "EXP"],
    ["stability-probe", "--kind", "nope", "--levels", "40"],
    ["stability-probe", "--kind", ""],
])
def test_a_junk_kind_or_boundary_is_refused_at_entry(tmp_path, capsys, argv):
    key, value = argv[1][2:], argv[2]
    allowed = {"boundary": "exp, literal", "kind": "source, initial"}[key]
    assert _refused(tmp_path, capsys, [*argv, "--nx", "8", "--nt", "8"]) == [
        f"error: invalid value for {key}: {value!r} is not one of {allowed}"]


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--noise", "1e308"],
    ["rate", "--noise", "1e308,1,0.1"],
])
def test_noise_level_whose_square_overflows_is_refused(tmp_path, capsys,
                                                       argv):
    assert _refused(tmp_path, capsys, [*argv, "--nx", "8", "--nt", "8"]) == [
        "error: noise level 1e+308 is too large: its square overflows"]


@pytest.mark.parametrize("argv, message", [
    (["reconstruct", "--alpha0_f", "1e300", "--noise", "1e5"],
     "error: base weight alpha0_f = 1e+300 is too large for noise level "
     "100000.0: alpha0_f * eps^2 overflows"),
    (["rate", "--alpha0_g", "1e300", "--noise", "1e5,1,0.1"],
     "error: base weight alpha0_g = 1e+300 is too large for noise level "
     "100000.0: alpha0_g * eps^2 overflows"),
])
def test_weight_product_that_overflows_is_refused_by_its_inputs(
        tmp_path, capsys, argv, message):
    assert _refused(tmp_path, capsys,
                    [*argv, "--nx", "8", "--nt", "8"]) == [message]


def test_default_sweep_without_weight_amplitude_is_refused(tmp_path, capsys):
    # lambda so small that e^{2 lam psi} and e^{lam psi} round alike: M = 0
    assert _refused(tmp_path, capsys, [
        "carleman-audit", "--lambda", "1e-300", "--nx", "8", "--nt", "8"]) == [
        "error: weight amplitude M is 0.0, so there is no default s sweep; "
        "pass s values"]


@pytest.mark.parametrize("s", [(), ("--s", "1,2,8")])
def test_overflowing_weight_amplitude_is_refused(tmp_path, capsys, s):
    # e^{2 lam sup psi} = e^800 is inf: M = inf would make s0 = 0
    (line,) = _refused(tmp_path, capsys,
                       ["carleman-audit", *FAST, "--lambda", "200", *s])
    assert line.startswith("error: lambda=200.0 overflows the weight "
                           "amplitude")


@pytest.mark.parametrize("s, message", [
    ("1e100,1e101,1e103", "error: s=1e+101 gives a non-finite row"),
    ("1e308,1e309", "error: all s values must be positive and finite"),
], ids=["overflowing-row", "infinite-s"])
def test_non_finite_sweep_rows_are_refused(tmp_path, capsys, s, message):
    # one line: no numpy RuntimeWarning lines either
    (line,) = _refused(tmp_path, capsys, ["carleman-audit", *FAST, "--s", s])
    assert line.startswith(message)


def test_warnings_go_into_the_manifest(tmp_path, capsys):
    # the coarse grid trips decompose's residual diagnostic
    argv = ["decompose", "--nx", "8", "--nt", "8"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main([*argv, "--out", a]) == 0
    err = capsys.readouterr().err.splitlines()
    assert main([*argv, "--out", b]) == 0
    assert capsys.readouterr().err.splitlines() == err
    assert len(err) == 1
    assert err[0].startswith("warning: UserWarning: field does not solve")
    notes = [line for line in manifest_lines(a) if line.startswith("warning.")]
    assert notes == ["warning.0=" + err[0][len("warning: "):]]
    assert read(os.path.join(a, "manifest.txt")) == \
        read(os.path.join(b, "manifest.txt"))
    # a clean run writes no warning lines
    clean = str(tmp_path / "clean")
    assert main(["forward", *FAST, "--out", clean]) == 0
    assert capsys.readouterr().err == ""
    assert not any(line.startswith("warning")
                   for line in manifest_lines(clean))


def test_exit_two_flags_violation_and_still_reports(tmp_path):
    out = str(tmp_path / "v")
    rc = main(["stability-probe", "--kind", "source", "--f", "late-onset",
               "--C0", "inf", "--levels", "2", *FAST, "--out", out])
    assert rc == 2
    body = read(os.path.join(out, "probe.csv")).decode()
    assert "violation" in body
    # report written even though the run is flagged
    assert os.path.exists(os.path.join(out, "manifest.txt"))


def test_late_onset_needs_an_infinite_budget(tmp_path, capsys):
    (line,) = _refused(tmp_path, capsys, [
        "stability-probe", "--kind", "source", "--f", "late-onset", *FAST])
    assert "C0" in line


def test_identical_runs_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main([*RATE_FAST, "--seed", "3", "--out", a]) == 0
    assert main([*RATE_FAST, "--seed", "3", "--out", b]) == 0
    for name in ("rate.csv", "manifest.txt"):
        assert read(os.path.join(a, name)) == read(os.path.join(b, name))


def test_seed_changes_artifact_bytes(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main([*RATE_FAST, "--seed", "3", "--out", a]) == 0
    assert main([*RATE_FAST, "--seed", "4", "--out", b]) == 0
    assert read(os.path.join(a, "rate.csv")) != read(os.path.join(b, "rate.csv"))


def test_manifest_echo_reproduces_the_run(tmp_path):
    a = str(tmp_path / "a")
    assert main([*RATE_FAST, "--seed", "3", "--out", a]) == 0
    cfg_path = tmp_path / "replay.cfg"
    cfg_path.write_text(echo_of(a))
    c = str(tmp_path / "c")
    assert main(["rate", "--config", str(cfg_path), "--out", c]) == 0
    for name in ("rate.csv", "manifest.txt"):
        assert read(os.path.join(a, name)) == read(os.path.join(c, name))


def test_output_location_does_not_touch_the_hash(tmp_path):
    a, b = str(tmp_path / "here"), str(tmp_path / "elsewhere")
    assert main(["forward", *FAST, "--out", a]) == 0
    assert main(["forward", *FAST, "--out", b]) == 0
    sha_a = manifest_lines(a)[0]
    sha_b = manifest_lines(b)[0]
    assert sha_a == sha_b


def test_semantic_config_change_moves_the_hash(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["forward", *FAST, "--out", a]) == 0
    assert main(["forward", *FAST, "--g", "eigenmode:2", "--out", b]) == 0
    assert manifest_lines(a)[0] != manifest_lines(b)[0]


def test_env_var_sets_default_output(tmp_path, monkeypatch):
    envdir = str(tmp_path / "envout")
    explicit = str(tmp_path / "explicit")
    monkeypatch.setenv("PARASTAB_OUT", envdir)
    # explicit --out wins over the environment
    assert main(["forward", *FAST, "--out", explicit]) == 0
    assert os.path.exists(os.path.join(explicit, "manifest.txt"))
    assert not os.path.exists(envdir)
    # without --out the environment decides
    assert main(["forward", *FAST]) == 0
    assert os.path.exists(os.path.join(envdir, "manifest.txt"))


def test_empty_sweep_writes_header_only(tmp_path):
    from parastab.report import write_sweep_csv
    path = str(tmp_path / "empty.csv")
    write_sweep_csv(path, [])
    body = read(path).decode()
    assert body.count("\n") == 1
    assert body.startswith("s,p,lhs,rhs,ratio")


def test_timings_stay_out_of_the_manifest(tmp_path):
    out = str(tmp_path / "t")
    assert main(["forward", *FAST, "--out", out]) == 0
    body = read(os.path.join(out, "manifest.txt")).decode()
    assert "seconds" not in body
    assert "elapsed" not in body
