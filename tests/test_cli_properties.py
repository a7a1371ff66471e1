"""Property tests of the command line: the config echo parses back to the
run's identity, no argv ends in a traceback, a grid past the work budget
and a value outside a key's allowed set are refused, and no run reports a
non-finite summary value as success."""
import contextlib
import importlib.util
import io
import math
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from parastab.cli import _TABLES, resolve_config, run_cli
from parastab.config import canonical_echo, config_hash

_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
_FLOAT = st.floats(allow_nan=False)

# raw flag text per value kind, drawn in the spellings the parser accepts
_RAW = {
    "int": st.integers(-10**6, 10**6).map(str),
    "float": _FLOAT.map(repr),
    "floats": st.lists(_FLOAT, max_size=4).map(
        lambda vs: ",".join(repr(v) for v in vs)),
    "bool": st.sampled_from(["true", "false", "1", "0", "yes", "no",
                             " True ", "NO"]),
    "str": _TEXT,
}
# the keys whose kind is the tuple of their allowed values
_CHOICES = {key: kind for table in _TABLES.values() for key, kind, _ in table
            if isinstance(kind, tuple)}


def _echoable(text: str) -> bool:
    text = text.strip()
    return "#" not in text and len(text.splitlines()) <= 1


@st.composite
def _flags(draw):
    sub = draw(st.sampled_from(sorted(_TABLES)))
    flags = {}
    for key, kind, _ in _TABLES[sub]:
        if draw(st.booleans()):
            flags[key] = draw(st.sampled_from(kind) if key in _CHOICES
                              else _RAW[kind])
    return sub, flags


@settings(max_examples=150, deadline=None)
@given(_flags())
def test_config_echo_round_trips(case):
    sub, flags = case
    kinds = {key: kind for key, kind, _ in _TABLES[sub]}
    if not all(_echoable(v) for k, v in flags.items() if kinds[k] == "str"):
        # refused where it enters instead of being echoed unparseably
        with contextlib.suppress(ValueError):
            resolve_config(sub, flags, None)
            raise AssertionError(f"unechoable value accepted: {flags!r}")
        return
    cfg, typed = resolve_config(sub, flags, None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "echo.cfg")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(canonical_echo(cfg))
        again, typed_again = resolve_config(sub, {}, path)
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    assert typed_again == typed


_INTS = ["8", "9", "12", "16", "0", "-3", "2", "1.5", "abc", "", "nan"]
_STEPS = ["8", "12", "16", "0", "-1", "2", "x", "1e3"]
_FLOATS = ["1", "0.5", "0.25", "0", "-1", "nan", "inf", "-inf", "1e308",
           "1e-300", "1e200", "2e-7", "abc", ""]
_DESCRIPTORS = ["zero", "one", "benchmark", "eigenmode:1", "eigenmode:3:2",
                "eigenmode:1:1e160", "eigenmode:2:1e308", "eigenmode:3:1e150",
                "eigenmode:3:1e154", "eigenmode:1:nan",
                "eigenmode:1:inf", "eigenmode:x", "eigenmode:1:2:3",
                "late-onset", "wavelet", ""]
# a horizon shared by T, delta0 and delta1 bounds the time step: 1e-5 and
# 1e-100 still run (1e-5 with a step small enough that the H2 norms of a
# large initial value overflow), and from 1e-154 on the square of the step
# underflows, which is refused at entry
_TINY = {"1e-5": False, "1e-100": False, "1e-154": True, "1e-200": True,
         "1e-320": True, "5e-324": True}
_HORIZONS = _FLOATS + list(_TINY)
# grids past the work budget, refused before anything is allocated
_OVERSIZED = {"nx": "100000000", "levels": "40"}
_JUNK = {
    "nx": _INTS + [_OVERSIZED["nx"]], "nt": _STEPS, "seed": _INTS + ["123456789"],
    "T": _HORIZONS, "delta0": _HORIZONS, "delta1": _HORIZONS, "C0": _FLOATS,
    "lambda": _FLOATS + ["200"], "f": _DESCRIPTORS, "g": _DESCRIPTORS,
    "s": ["", "nan,1,8", "0.1,0.2,0.4,0.8", "1,2", "-1,8", "8,1",
          "1e308,1e309", "1e-300,1e-299,1", "10,20,40,80", "x,1",
          "1e100,1e101,1e103"],
    "p": ["0", "1", "2", "-1", "x"],
    "boundary": [*_CHOICES["boundary"], "nope", ""],
    "kind": [*_CHOICES["kind"], "both", ""],
    "members": [str(m) for m in range(-3, 10)],
    "levels": ["1", "2", _OVERSIZED["levels"]],
    "normalized": ["true", "false", "maybe", ""],
    "M0": _FLOATS,
    "alpha0_f": _FLOATS, "alpha0_g": _FLOATS,
    "noise": ["0.01", "0", "-0.01", "nan", "inf", "1e308", "0.1,0.01,0.001",
              "0.2,0.05,0", "0.1,0.01", "0.01,0.1,0.001", "x", ""],
}


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(sorted(_TABLES)))
    # tiny grids unless a junk draw replaces them
    flags = {"nx": "8", "nt": "8"}
    if draw(st.integers(0, 3)) == 0:
        # one value for all three, so a tiny horizon is also a tiny step
        flags.update(dict.fromkeys(("T", "delta0", "delta1"),
                                   draw(st.sampled_from(sorted(_TINY)))))
    for key, _, _ in _TABLES[sub]:
        if draw(st.integers(0, 2)) == 0:
            flags[key] = draw(st.sampled_from(_JUNK[key]))
    return [sub] + [tok for key, value in flags.items()
                    for tok in (f"--{key}", value)]


# an undefined statistic is left out, so None is never printed
_NON_FINITE = ("nan", "inf", "-inf", "None")


def _may_be_non_finite(sub: str, rc: int, summary: dict) -> set:
    """The summary keys a run may report as nan: the levels of a flagged
    probe, whose flag is the result; every other key must be finite."""
    if sub == "stability-probe" and rc == 2:
        return {key for key in summary if key.startswith("level_")}
    return set()


def _tiny(sub, horizon):
    return [sub, "--nx", "8", "--nt", "8"] + [
        tok for key in ("T", "delta0", "delta1") for tok in (f"--{key}",
                                                             horizon)]


def _check_argv(argv):
    """Run argv in-process and check the properties every command line
    keeps: exit 0, 1 or 2, no traceback, at most one stderr line, the
    refusals of an oversized grid and a tiny step, and no non-finite
    summary value but the nan levels of a flagged probe."""
    out, err = io.StringIO(), io.StringIO()
    # Python warnings (the residual diagnostic of coarse grids) are recorded
    # apart: the property is about the command's own messages
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        rc = run_cli(argv + ["--out", os.path.join(tmp, "o")])
        rows = []
        if argv[0] == "carleman-audit" and rc in (0, 2):
            with open(os.path.join(tmp, "o", "sweep.csv"),
                      encoding="utf-8") as fh:
                rows = [row.split(",") for row in fh.read().splitlines()[1:]]
    assert rc in (0, 1, 2), argv
    if any(f"--{key}" in argv and argv[argv.index(f"--{key}") + 1] == value
           for key, value in _OVERSIZED.items()):
        assert rc == 1, (argv, out.getvalue())
    for key, allowed in _CHOICES.items():
        if f"--{key}" in argv and \
                argv[argv.index(f"--{key}") + 1].strip() not in allowed:
            assert rc == 1, (argv, out.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    horizons = {argv[argv.index(f"--{key}") + 1] if f"--{key}" in argv
                else None for key in ("T", "delta0", "delta1")}
    if len(horizons) == 1 and _TINY.get(horizons.pop()):
        assert rc == 1, (argv, out.getvalue())
    if rc in (0, 2):
        summary = dict(line[len("summary."):].split(": ", 1)
                       for line in out.getvalue().splitlines()
                       if line.startswith("summary."))
        assert argv[0] != "stability-probe" or "level_0_max" in summary, \
            (argv, out.getvalue())
        non_finite = {key for key, value in summary.items()
                      if value in _NON_FINITE}
        assert non_finite <= _may_be_non_finite(argv[0], rc, summary), \
            (argv, out.getvalue())
    if argv[0] == "carleman-audit":
        # a clean row (empty flag, the last column) has a finite quotient
        assert not any(row[-1] == "" and not math.isfinite(float(row[4]))
                       for row in rows), (argv, rows)


# random draws rarely reach these corners, so each is run every time
@example(_tiny("forward", "1e-5"))
@example(_tiny("decompose", "1e-100"))
@example(_tiny("reconstruct", "1e-154"))
@example(_tiny("carleman-audit", "1e-200"))
@example(_tiny("rate", "1e-320"))
@example(_tiny("stability-probe", "5e-324"))
@example(["carleman-audit", "--nx", _OVERSIZED["nx"], "--nt", "8"])
@example(["stability-probe", "--nx", "8", "--nt", "8", "--levels",
          _OVERSIZED["levels"]])
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_no_argv_ends_in_a_traceback(argv):
    _check_argv(argv)


def test_the_compare_outputs_corpus_holds_the_argv_properties():
    # all but the empty argv and the runs on the benchmark's 256/2048 grid,
    # which are left to the tool
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    for argv in corpus.RUNS:
        if argv and "2048" not in argv:
            _check_argv(list(argv))

