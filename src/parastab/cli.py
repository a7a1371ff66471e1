"""Command-line driver for the laboratory.

Subcommands map one-to-one onto the library modules: forward solves and
measures, carleman-audit sweeps the weighted inequality, stability-probe
runs the two estimate probes, decompose splits the time derivative and
checks the interpolation bound, reconstruct runs one inversion, rate runs
the noise sweep. Every run writes its CSV artifacts plus a manifest into
the output directory; with a fixed config and seed the bytes are
identical between runs. Python warnings a completed run raises (such as
the residual diagnostic of a coarse grid) are listed in the manifest as
warning.<k> lines and printed as one `warning:` line each on stderr; a
refused run prints its one `error:` line only and creates no output
directory; a run whose arithmetic overflows, divides by zero or makes a
nan is refused with numpy's message. Exit codes: 0 success, 1 invalid
usage or configuration, 2 when any emitted row is flagged as an
estimate-violation candidate, so CI can tell them apart. A summary
statistic the inputs leave undefined is left out; any other nan or inf
in a summary is a fault that refuses the run unless it is flagged, whose
nan levels are its result.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
import warnings

import numpy as np

from .admissible import make_admissible_pair
from .carleman import (FLAG_VIOLATION, constant_sweep, empirical_s_threshold,
                       sweep_statistic)
from .decompose import (check_log_convexity_and_w_bound,
                        decompose_time_derivative)
from .inverse import InverseProblemSpec, rate_experiment, recover
# unused here, but perfbench/tracer.py wraps these under these module names
from .inverse import minimize, synthesize_data  # noqa: F401
from .lab import (DEFAULT_C0, DEFAULT_DELTA0, DEFAULT_DELTA1, DEFAULT_M0,
                  DEFAULT_NT, DEFAULT_NX, DEFAULT_T, benchmark_initial,
                  benchmark_source, make_context)
from .measurement import measure
from .mesh import field_from_function
from .probes import (check_probe_budget, initial_eigenmode_family,
                     initial_stability_probe, source_eigenmode_family,
                     source_stability_probe)
from .report import (MANIFEST_NAME, fmt, write_field_csv, write_manifest,
                     write_probe_csv, write_profile_csv, write_rate_csv,
                     write_reconstruction_csv, write_sweep_csv)
from .config import config_hash, parse_config_file
from .solver import forward_solve, time_derivative, time_shift
from .weights import EXP_WEIGHTED, LITERAL_TRUNCATED, WeightConfig, \
    check_weight_bounds, eval_weights

DEFAULT_OUT = "parastab_out"
OUT_ENV_VAR = "PARASTAB_OUT"

_BOUNDARY_MODES = {"exp": EXP_WEIGHTED, "literal": LITERAL_TRUNCATED}

# family size of a stability probe run with --members 0
_DEFAULT_MEMBERS = {"source": 6, "initial": 8}

# (key, kind, default) per subcommand; kinds: int, float, floats, str, bool
# or a tuple of the allowed strings
_GRID = [
    ("nx", "int", DEFAULT_NX),
    ("nt", "int", DEFAULT_NT),
    ("T", "float", DEFAULT_T),
    ("delta0", "float", DEFAULT_DELTA0),
    ("delta1", "float", DEFAULT_DELTA1),
]
_SHARED = _GRID + [("C0", "float", DEFAULT_C0)]

# the base weights alpha0_f/alpha0_g are InverseProblemSpec's alpha_f/alpha_g
_RECON_COMMON = [
    ("f", "str", "benchmark"),
    ("g", "str", "benchmark"),
    ("alpha0_f", "float", InverseProblemSpec.alpha_f),
    ("alpha0_g", "float", InverseProblemSpec.alpha_g),
    ("seed", "int", InverseProblemSpec.seed),
]

_TABLES = {
    "forward": _SHARED + [("f", "str", "zero"), ("g", "str", "eigenmode:1")],
    # the sweep defaults s, p and boundary are WeightConfig's
    "carleman-audit": _SHARED + [
        ("f", "str", "zero"), ("g", "str", "eigenmode:1"),
        ("lambda", "float", 1.0), ("s", "floats", WeightConfig.s_values),
        ("p", "int", WeightConfig.p),
        ("boundary", tuple(_BOUNDARY_MODES),
         next(name for name, mode in _BOUNDARY_MODES.items()
              if mode == WeightConfig.boundary_weighting))],
    "stability-probe": _SHARED + [
        # inert; kept while perfbench passes --seed (ROADMAP item 1, part B)
        ("seed", "int", 0),
        # members 0 picks the kind's default in _DEFAULT_MEMBERS
        ("kind", tuple(_DEFAULT_MEMBERS), "source"), ("members", "int", 0),
        ("levels", "int", 2), ("normalized", "bool", True),
        ("f", "str", ""), ("M0", "float", DEFAULT_M0)],
    "decompose": _SHARED + [("f", "str", "zero"), ("g", "str", "eigenmode:1")],
    # the time-constant truth source needs no rate budget: reconstruct
    # takes no C0; rate keeps it while the benchmark's inverse workload
    # passes --C0 (ROADMAP item 2)
    "reconstruct": _GRID + _RECON_COMMON + [("noise", "float", 0.01)],
    "rate": _SHARED + _RECON_COMMON + [
        ("noise", "floats", (1e-1, 1e-2, 1e-3))],
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for flagged
    # violation candidates here, so usage problems are rerouted to exit 1
    def error(self, message):
        raise _UsageError(message)


def _parse_value(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind in ("float", "floats"):
            vals = (tuple(float(tok) for tok in raw.split(",") if tok.strip())
                    if kind == "floats" else (float(raw),))
            # inf stays legal: an infinite rate budget is a documented demo
            if any(math.isnan(v) for v in vals):
                raise ValueError(f"nan is not allowed: {raw!r}")
            return vals if kind == "floats" else vals[0]
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        text = raw.strip()
        if isinstance(kind, tuple) and text not in kind:
            raise ValueError(f"{raw!r} is not one of {', '.join(kind)}")
        # the manifest echo must parse back: no comment marks, no breaks
        if "#" in text or len(text.splitlines()) > 1:
            raise ValueError(f"{raw!r} cannot be echoed as a config value")
        return text
    except ValueError as exc:
        raise ValueError(f"invalid value for {key}: {exc}") from None


def _canon(kind: str, value) -> str:
    if kind == "floats":
        return ",".join(fmt(float(v)) for v in value)
    return fmt(value)


def resolve_config(sub: str, flag_values: dict, config_path: str | None):
    """Merge builtin defaults, config file, and flags into canonical form.

    Returns the canonical string mapping whose sorted echo identifies the
    run; parsing that echo back reproduces the same mapping.
    """
    table = _TABLES[sub]
    keys = {k for k, _, _ in table}
    file_cfg = parse_config_file(config_path) if config_path else {}
    if file_cfg.get("subcommand", sub) != sub:
        raise ValueError(f"config file is for subcommand "
                         f"{file_cfg['subcommand']!r}, not {sub!r}")
    for key in file_cfg:
        if key not in keys and key != "subcommand":
            raise ValueError(f"unknown config key: {key}")

    typed = {}
    for key, kind, default in table:
        raw = flag_values.get(key)
        if raw is None:
            raw = file_cfg.get(key)
        if raw is None:
            typed[key] = default
        else:
            typed[key] = _parse_value(key, kind, raw)

    cfg = {"subcommand": sub}
    for key, kind, _ in table:
        cfg[key] = _canon(kind, typed[key])
    return cfg, typed


def _context(typed: dict):
    return make_context(nx=typed["nx"], nt=typed["nt"], T=typed["T"],
                        delta0=typed["delta0"], delta1=typed["delta1"],
                        C0=typed.get("C0", DEFAULT_C0),
                        M0=typed.get("M0", DEFAULT_M0))


def _parse_eigenmode(desc: str):
    parts = desc.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad eigenmode descriptor: {desc!r}")
    try:
        m = int(parts[1])
        amp = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise ValueError(f"bad eigenmode descriptor: {desc!r}") from None
    # an infinite amplitude is left to the admissibility gate's norm check
    if math.isnan(amp):
        raise ValueError(f"eigenmode amplitude is nan: {desc!r}")
    return m, amp


# descriptor -> (source profile, initial-value profile), both functions of
# x; eigenmode:m[:amp] is parsed instead, and late-onset is a source only
_PROFILES = {
    "zero": (np.zeros_like, np.zeros_like),
    "one": (np.ones_like, np.ones_like),
    "benchmark": (benchmark_source, benchmark_initial),
}
_SOURCE, _INITIAL = 0, 1


def _profile(desc: str, role: int, what: str):
    if desc.startswith("eigenmode:"):
        m, amp = _parse_eigenmode(desc)
        return lambda x: amp * np.cos(m * np.pi * x)
    if desc not in _PROFILES:
        raise ValueError(f"unknown {what} descriptor: {desc!r}")
    return _PROFILES[desc][role]


def spatial_profile(desc: str, domain) -> np.ndarray:
    """Named initial values on the grid: zero | one | benchmark |
    eigenmode:m[:amp]."""
    return _profile(desc, _INITIAL, "profile")(domain.points)


def source_profile(desc: str, domain) -> np.ndarray:
    """Spatial profile phi of a named time-constant source, on the grid."""
    return _profile(desc, _SOURCE, "source profile")(domain.points)


def source_member(desc: str, ctx):
    """Named continuum sources as (x, t) functions; None means zero.

    All are time-constant except late-onset, which ramps up only after the
    observation window closes, so its measurement vanishes identically
    while the source does not: the estimate-violation path made concrete
    (pair it with C0=inf, since no finite rate budget admits a source that
    is zero on the snapshot line). Its onset time is tied to the context
    given here, so refined probe levels sample the same function.
    """
    if desc in ("", "zero"):
        return None
    if desc == "late-onset":
        t_on = ctx.window.T + ctx.window.delta1 + 2.5 * ctx.window.k

        def member(x, t):
            return np.where(t > t_on, (t - t_on) ** 2, 0.0) \
                * (2.0 + np.cos(np.pi * x))
        return member
    profile = _profile(desc, _SOURCE, "source")

    def member(x, t):
        return profile(x) + 0.0 * t
    return member


def _flag_has_violation(rows) -> bool:
    return any(FLAG_VIOLATION in r.flag for r in rows)


def _solve_descriptors(typed):
    """Context, admissible pair and forward solution of the --f/--g names."""
    ctx = _context(typed)
    member = source_member(typed["f"], ctx)
    f = (None if member is None
         else field_from_function(ctx.domain, ctx.window, member))
    g = spatial_profile(typed["g"], ctx.domain)
    pair = make_admissible_pair(ctx, f=f, g=g)
    return ctx, pair, forward_solve(ctx.dop, pair.f, pair.g, ctx.window)


def _run_forward(typed):
    _, _, u = _solve_descriptors(typed)
    md = measure(u)
    summary = {"h2_space_norm": md.h2_space_norm,
               "h2_trace_norm": md.h2_trace_norm,
               "combined_norm": md.combined_norm,
               "max_abs_u": float(np.max(np.abs(u.values)))}
    return {"forward.csv": (write_field_csv, u)}, summary, False


def _run_carleman_audit(typed):
    ctx, pair, u = _solve_descriptors(typed)
    # the audited field is the time derivative on the shifted frame; it
    # solves the equation with the shifted source's derivative as data
    v = time_derivative(time_shift(u))
    companion = (None if pair.f is None
                 else time_derivative(time_shift(pair.f)))
    del u, pair  # the full-frame fields are not needed past this point
    wcfg = WeightConfig(s_values=typed["s"], p=typed["p"],
                        boundary_weighting=_BOUNDARY_MODES[typed["boundary"]])
    weights = eval_weights(typed["lambda"], ctx.window, ctx.domain)
    rows = constant_sweep(v, companion, weights, wcfg, dop=ctx.dop)
    summary = {"rows": len(rows), "s0": rows[0].s,
               "clean_rows": sum(not r.flag for r in rows),
               "max_over_median": sweep_statistic(rows),
               "s1_threshold": empirical_s_threshold(rows),
               "M": weights.M}
    # the pointwise weight inequalities are reported, not gated on
    bounds = check_weight_bounds(weights)
    summary.update({f"weight_{key}": value
                    for key, value in vars(bounds).items()})
    return ({"sweep.csv": (write_sweep_csv, rows)}, summary,
            _flag_has_violation(rows))


def _run_stability_probe(typed):
    if typed["members"] < 0:
        raise ValueError(f"members must be nonnegative, got {typed['members']}")
    source = typed["kind"] == "source"
    custom = source and bool(typed["f"])
    if custom and typed["members"] > 1:
        raise ValueError(f"members must be 0 or 1 with a custom --f source, "
                         f"got {typed['members']}")
    ctx = _context(typed)
    # one member for a custom --f source; --members 0 is the kind's default
    members = (1 if custom
               else typed["members"] or _DEFAULT_MEMBERS[typed["kind"]])
    # before the family is made: --members may ask for millions of closures
    check_probe_budget(ctx, typed["levels"], members, source)
    if source:
        if custom:
            member = source_member(typed["f"], ctx)
            if member is None:
                raise ValueError("custom source family needs a nonzero f")
            family = ((1.0, member),)
        else:
            family = source_eigenmode_family(members)
        report = source_stability_probe(family, ctx, typed["levels"])
    else:
        family = initial_eigenmode_family(members,
                                          normalized=typed["normalized"])
        report = initial_stability_probe(family, ctx, typed["levels"])
    flagged = _flag_has_violation(report.rows)
    # a level whose every row is excluded from the summary reads nan, which
    # is no success to report; a flagged violation still exits 2
    empty = [lvl for lvl, mx in enumerate(report.level_max) if math.isnan(mx)]
    if empty and not flagged:
        raise ValueError(f"mesh level {empty[0]} has no row to summarize: "
                         f"every member is expected_failure or degenerate")
    summary = {"kind": report.kind,
               "max_agreement_factor": report.max_agreement_factor}
    for lvl, (mx, md) in enumerate(zip(report.level_max,
                                       report.level_median)):
        summary[f"level_{lvl}_max"] = mx
        summary[f"level_{lvl}_median"] = md
    return {"probe.csv": (write_probe_csv, report.rows)}, summary, flagged


def _run_decompose(typed):
    ctx, pair, u = _solve_descriptors(typed)
    dec = decompose_time_derivative(u, pair.f, ctx)
    # a degenerate run still carries a nan chord of matching length
    report = check_log_convexity_and_w_bound(dec.source_free, dec.sourced,
                                             pair.f, ctx)
    summary = {"residual_evolution": dec.residual_evolution,
               "residual_terminal": dec.residual_terminal,
               "checked": report.checked,
               "degenerate": report.degenerate,
               "max_violation": report.max_violation,
               "min_log_second_difference": report.min_log_second_difference,
               "w_ratio_sup": report.w_ratio_sup,
               "w_bound_ok": report.w_bound_ok,
               "notice": report.notice or None}
    return ({"decompose.csv": (write_profile_csv, report.times, report.norms,
                               report.chord)}, summary, False)


def _recon_spec(typed) -> InverseProblemSpec:
    # the base weights alpha0_f/alpha0_g; recover scales them by eps^2
    return InverseProblemSpec(alpha_f=typed["alpha0_f"],
                              alpha_g=typed["alpha0_g"], seed=typed["seed"])


def _run_reconstruct(typed):
    ctx = _context(typed)
    phi_true = source_profile(typed["f"], ctx.domain)
    g_true = spatial_profile(typed["g"], ctx.domain)
    spec, res, row = recover(_recon_spec(typed), [typed["noise"]],
                             (phi_true, g_true), ctx)[0]
    summary = {"eps": row.eps, "alpha_f": spec.alpha_f,
               "alpha_g": spec.alpha_g, "final_objective": res.final_objective,
               "converged": res.converged, "grad_norm": res.grad_norm,
               "err_f": row.err_f, "err_g": row.err_g,
               "combined_norm_noisy": row.combined_norm_noisy}
    return ({"reconstruction.csv": (write_reconstruction_csv,
                                    ctx.domain.points, phi_true, g_true,
                                    res.phi_est, res.g_est)}, summary, False)


def _run_rate(typed):
    ctx = _context(typed)
    phi_true = source_profile(typed["f"], ctx.domain)
    g_true = spatial_profile(typed["g"], ctx.domain)
    result = rate_experiment(_recon_spec(typed), list(typed["noise"]),
                             (phi_true, g_true), ctx)
    if result.source_slope is None:
        # the fit takes converged levels with eps > 0 and err_f > 0 only
        stalled = ",".join(fmt(r.eps) for r in result.rows if not r.converged)
        raise ValueError("source slope is undefined: " + (
            f"the levels eps={stalled} did not converge" if stalled
            else "fewer than two levels have eps > 0 and err_f > 0"))
    summary = {"levels": len(result.rows),
               "source_slope": result.source_slope,
               "all_converged": all(r.converged for r in result.rows),
               "log_product_min": min(result.log_products, default=None),
               "log_product_max": max(result.log_products, default=None)}
    return {"rate.csv": (write_rate_csv, result.rows)}, summary, False


_HANDLERS = {
    "forward": _run_forward,
    "carleman-audit": _run_carleman_audit,
    "stability-probe": _run_stability_probe,
    "decompose": _run_decompose,
    "reconstruct": _run_reconstruct,
    "rate": _run_rate,
}


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parsing keeps no state in the parser
    parser = _Parser(prog="parastab",
                     description="numerical laboratory for simultaneous "
                                 "source and initial-value recovery")
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for sub, table in _TABLES.items():
        # no abbreviations: each key has exactly one spelling
        sp = subs.add_parser(sub, description=f"run the {sub} pipeline",
                             allow_abbrev=False)
        for key, _, _ in table:
            sp.add_argument(f"--{key}", type=str, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--config", type=str, default=None)
    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        sub = getattr(ns, "subcommand", None)
        if sub is None:
            raise _UsageError("a subcommand is required "
                              f"(one of {', '.join(_TABLES)})")
        flag_values = vars(ns)
        cfg, typed = resolve_config(sub, flag_values, flag_values["config"])
        outdir = flag_values["out"] or os.environ.get(OUT_ENV_VAR,
                                                      DEFAULT_OUT)

        started = time.perf_counter()
        # the active filters decide what is recorded; entering the block
        # resets the once-per-location memory, so every run records alike;
        # a float fault the handler leaves unsilenced refuses the run; the
        # output directory is made only once the handler has succeeded
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(over="raise", invalid="raise", divide="raise"):
            artifacts, summary, flagged = _HANDLERS[sub](typed)
            summary = {k: v for k, v in summary.items() if v is not None}
            bad = [f"summary.{k} is {fmt(v)}" for k, v in summary.items()
                   if isinstance(v, float) and not math.isfinite(v)]
            if bad and not flagged:
                raise ValueError(f"{bad[0]}: a non-finite summary is not "
                                 f"a success")
            os.makedirs(outdir, exist_ok=True)
            for name, (writer, *args) in artifacts.items():
                writer(os.path.join(outdir, name), *args)
        elapsed = time.perf_counter() - started

        notes = tuple(dict.fromkeys(
            f"{w.category.__name__}: {' '.join(str(w.message).split())}"
            for w in caught))
        write_manifest(os.path.join(outdir, MANIFEST_NAME), cfg, artifacts,
                       summary, notes)

        print(f"subcommand: {sub}")
        print(f"config_sha256: {config_hash(cfg)}")
        for name in artifacts:
            print(f"artifact: {os.path.join(outdir, name)}")
        print(f"artifact: {os.path.join(outdir, MANIFEST_NAME)}")
        for key in sorted(summary):
            print(f"summary.{key}: {fmt(summary[key])}")
        # timings are stdout-only so artifact bytes stay reproducible
        print(f"elapsed_seconds: {elapsed:.3f}")
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        if flagged:
            print("estimate-violation candidates flagged")
            return 2
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError, MemoryError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
