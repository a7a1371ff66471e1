"""Property tests of the command line: the config echo parses back to the
run's identity, no argv ends in a traceback, a grid past the work budget
is refused, and neither a stability probe, a rate run nor a Carleman
audit reports a nan result as success."""
import contextlib
import io
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
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


def _echoable(text: str) -> bool:
    text = text.strip()
    return "#" not in text and len(text.splitlines()) <= 1


@st.composite
def _flags(draw):
    sub = draw(st.sampled_from(sorted(_TABLES)))
    flags = {}
    for key, kind, _ in _TABLES[sub]:
        if draw(st.booleans()):
            flags[key] = draw(_RAW[kind])
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
                "eigenmode:1:1e160", "eigenmode:2:1e308", "eigenmode:1:nan",
                "eigenmode:1:inf", "eigenmode:x", "eigenmode:1:2:3",
                "late-onset", "wavelet", ""]
# a horizon shared by T, delta0 and delta1 bounds the time step: 1e-100
# still runs, and from 1e-154 on the square of the step underflows, which
# is refused at entry
_TINY = {"1e-100": False, "1e-154": True, "1e-200": True, "1e-320": True,
         "5e-324": True}
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
    "boundary": ["exp", "literal", "nope", ""],
    "kind": ["source", "initial", "both", ""],
    "members": [str(m) for m in range(-3, 10)],
    "levels": ["1", "2", _OVERSIZED["levels"]],
    "normalized": ["true", "false", "maybe", ""],
    "M0": _FLOATS,
    "alpha0": _FLOATS, "alpha0_f": _FLOATS, "alpha0_g": _FLOATS,
    "grad_tol": ["1e-10", "1e-3", "1", "0", "-1", "nan", "inf", "1e-300"],
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


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_no_argv_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    # Python warnings (the residual diagnostic of coarse grids) are recorded
    # apart: the property is about the command's own messages
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        rc = run_cli(argv + ["--out", os.path.join(tmp, "o")])
        rows = []
        if argv[0] == "carleman-audit" and rc in (0, 2):
            sweep = os.path.join(tmp, "o", "sweep.csv")
            with open(sweep, encoding="utf-8") as fh:
                rows = [row.split(",") for row in fh.read().splitlines()[1:]]
    assert rc in (0, 1, 2), argv
    if any(f"--{key}" in argv and argv[argv.index(f"--{key}") + 1] == value
           for key, value in _OVERSIZED.items()):
        assert rc == 1, (argv, out.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    horizons = {argv[argv.index(f"--{key}") + 1] if f"--{key}" in argv
                else None for key in ("T", "delta0", "delta1")}
    if len(horizons) == 1 and _TINY.get(horizons.pop()):
        assert rc == 1, (argv, out.getvalue())
    if argv[0] == "rate" and rc == 0:
        assert "summary.source_slope: nan" not in out.getvalue().splitlines(), \
            (argv, out.getvalue())
    if argv[0] == "stability-probe" and rc == 0:
        # max_agreement_factor is nan by definition at one level
        levels = [line for line in out.getvalue().splitlines()
                  if line.startswith("summary.level_")]
        assert levels and not any(line.endswith(": nan") for line in levels), \
            (argv, out.getvalue())
    # a clean row (empty flag, the last column) has a finite quotient
    assert not any(row[-1] == "" and not math.isfinite(float(row[4]))
                   for row in rows), (argv, rows)
