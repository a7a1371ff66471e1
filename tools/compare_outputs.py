#!/usr/bin/env python3
"""Compare what two source trees make of the same command lines.

Usage: python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository. Every run in RUNS is
made once per tree, as `python3 -m parastab.cli ...` in a fresh process
whose PYTHONPATH starts with that tree's src/: the `parastab` commands of
the README.md beside this script's tools/ (readme_commands, without their
--out), four runs on the benchmark's fine grid, then a fixed corpus of
edge and refusal runs. Before comparing, the `elapsed_seconds:` line is dropped and
the run's output directory is spelled OUT. Each exit code, stdout line,
stderr line and artifact that differs is printed under its run; the exit
code is 1 if anything differs, 0 if every run matches byte for byte and 2
on bad arguments.
"""
from __future__ import annotations

import difflib
import os
import re
import shlex
import subprocess
import sys
import tempfile

# lines of one differing text artifact that are printed
_MAX_ARTIFACT_LINES = 12

_REC_GRID = ("--nx", "32", "--nt", "128", "--T", "0.25", "--delta0", "0.25",
             "--delta1", "0.125")
_COARSE = ("--nx", "8", "--nt", "8")
_FINE = ("--nx", "256", "--nt", "2048")
# a grid that aligns at its requested step count (T - delta1 = 0)
_ALIGNED = ("--nx", "8", "--T", "0.375", "--delta0", "0.625", "--delta1",
            "0.375")

# the README rate run's noise levels and seed, whose verdicts the
# certificate runs below compare at other data scales
_REC_RATE = (*_REC_GRID, "--noise", "0.1,0.01,0.001", "--seed", "7")

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def code_blocks(text: str, lang: str) -> list:
    """The bodies of the ```lang fenced blocks of a markdown text."""
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def readme_commands(text: str) -> list:
    """[argv after `parastab`, expected exit code] per `parastab` line of
    the sh blocks of a README text; an `echo $?   # N` line right after a
    command sets its code, which is 0 otherwise."""
    commands = []
    for block in code_blocks(text, "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if tokens[:1] == ["parastab"]:
                commands.append([tokens[1:], 0])
            elif tokens[:2] == ["echo", "$?"]:
                commands[-1][1] = int(line.split("#")[1])
    return commands


def _readme_runs() -> list:
    """The README's commands, without their --out and its value."""
    with open(README, encoding="utf-8") as fh:
        commands = readme_commands(fh.read())
    runs = []
    for argv, _ in commands:
        i = argv.index("--out")
        runs.append(tuple(argv[:i] + argv[i + 2:]))
    return runs


RUNS = _readme_runs() + [
    # the 256/2048 grid of the benchmark's fine workload, where the
    # blocked residuals and norms take many column blocks
    ("decompose", *_FINE, "--f", "benchmark", "--g", "eigenmode:1:1.3"),
    ("carleman-audit", *_FINE, "--g", "eigenmode:1:1.3", "--s",
     "0.04,0.08,0.16,0.34"),
    ("carleman-audit", *_FINE, "--f", "benchmark", "--p", "1",
     "--boundary", "literal", "--s", "0.04,0.1,0.34"),
    # the benchmark's heaviest artifact, the 11.6 MB forward.csv
    ("forward", *_FINE, "--g", "eigenmode:1:1.3"),
    # edge runs
    ("forward", *_COARSE),
    # negative cells in e-notation (-1e-07, -6.123233995736766e-24)
    ("forward", *_COARSE, "--g", "eigenmode:1:-1e-7"),
    # every cell below 2**-37, the band that repr spells
    ("forward", "--nx", "16", "--nt", "64", "--g", "eigenmode:1:1e-20"),
    ("forward", *_ALIGNED, "--nt", "8", "--f", "benchmark", "--g", "one"),
    ("forward", *_ALIGNED, "--nt", "2"),
    ("decompose", *_COARSE, "--f", "one", "--g", "benchmark"),
    ("carleman-audit", "--nx", "16", "--nt", "32", "--boundary", "literal",
     "--s", "1,2,8", "--p", "1"),
    ("stability-probe", "--nx", "16", "--nt", "32", "--kind", "initial",
     "--levels", "1", "--members", "3"),
    # summary statistics left undefined: one mesh level, a zero z norm and
    # a sweep whose every row is degenerate
    ("stability-probe", "--kind", "source", "--levels", "1", "--nx", "16",
     "--nt", "32"),
    ("decompose", "--nx", "16", "--nt", "32", "--f", "zero", "--g", "zero"),
    ("carleman-audit", "--nx", "32", "--nt", "64", "--s", "10,20,40,80"),
    ("rate", *_REC_GRID, "--noise", "0.2,0.05,0.0", "--alpha0_f", "0.5",
     "--seed", "3"),
    ("reconstruct", *_COARSE, "--f", "zero", "--g", "zero"),
    # the certificate is relative to the data's gradient at zero, so the
    # README rate run scaled by 1e6 converges as at amplitude 1
    ("rate", *_REC_RATE, "--alpha0_f", "10", "--alpha0_g", "1", "--f",
     "eigenmode:1:1e6", "--g", "eigenmode:1:1e6"),
    # refused runs
    ("forward", *_ALIGNED, "--nt", "-5"),
    ("forward", *_ALIGNED, "--nt", "0"),
    ("forward", *_COARSE, "--C0", "nan"),
    ("forward", *_COARSE, "--seed", "1"),
    ("forward", *_COARSE, "--g", "eigenmode:1:1e160"),
    ("forward", *_COARSE, "--g", "eigenmode:1:nan"),
    ("forward", *_COARSE, "--f", "eigenmode:1:nan"),
    # a custom source is the family's one member
    ("stability-probe", *_COARSE, "--kind", "source", "--f", "eigenmode:2",
     "--members", "5"),
    ("forward", "--nx", "8", "--nt", "8", "--T", "1e-154", "--delta0",
     "1e-154", "--delta1", "1e-154"),
    ("forward", "--nx", "100000", "--nt", "100000"),
    # past the work budget: each is refused by the module that would make
    # the array, before anything is allocated
    ("stability-probe", "--levels", "8"),
    ("stability-probe", "--kind", "initial", "--members", "1000000",
     "--levels", "3"),
    ("reconstruct", "--nx", "4000", "--nt", "8"),
    ("rate", "--nt", "10000000"),
    # unregularized noisy levels fail the certificate at every data scale,
    # so the source slope is undefined
    *(("rate", *_REC_RATE, "--alpha0_f", "0", "--alpha0_g", "0", "--f",
       f"eigenmode:1:{amp}", "--g", f"eigenmode:1:{amp}")
      for amp in ("1", "1e-8")),
    # no level converges, so the source slope is undefined
    ("rate", *_COARSE, "--alpha0_f", "1e308", "--alpha0_g", "1e308",
     "--noise", "1,0.5,0.25"),
    # refused at entry, before the oversized probe could be sized
    ("stability-probe", *_COARSE, "--kind", "nope", "--levels", "40"),
    ("carleman-audit", *_COARSE, "--boundary", "nope"),
    ("stability-probe", *_COARSE, "--kind", "nope"),
    ("stability-probe", *_COARSE, "--kind", "initial", "--C0", "-1"),
    ("reconstruct", *_COARSE, "--noise", "inf"),
    ("reconstruct", *_COARSE, "--alpha0_f", "1e300", "--noise", "1e5"),
    ("rate", *_COARSE, "--noise", "0.1,0.01"),
    ("rate", *_COARSE, "--seed", "-1"),
    (),
]


def run(tree: str, argv, out: str):
    """Exit code, stdout lines, stderr lines and {name: bytes} of the
    files in out, with out spelled OUT and the timing line dropped."""
    env = dict(os.environ)
    env.pop("PARASTAB_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(tree, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "parastab.cli", *argv,
                           *(("--out", out) if argv else ())],
                          capture_output=True, text=True, env=env,
                          cwd=os.path.dirname(out))

    def lines(text):
        return [line.replace(out, "OUT") for line in text.splitlines()
                if not line.startswith("elapsed_seconds:")]
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return proc.returncode, lines(proc.stdout), lines(proc.stderr), files


def _line_diff(old, new, limit=None):
    diff = [line for line in difflib.unified_diff(old, new, lineterm="", n=0)
            if not line.startswith(("---", "+++", "@@"))]
    return diff if limit is None else diff[:limit]


def differences(a, b) -> list:
    """Printable lines naming what differs between two run outcomes."""
    code_a, out_a, err_a, files_a = a
    code_b, out_b, err_b, files_b = b
    found = []
    if code_a != code_b:
        found.append(f"exit code: {code_a} -> {code_b}")
    for what, old, new in (("stdout", out_a, out_b),
                           ("stderr", err_a, err_b)):
        found.extend(f"{what}: {line}" for line in _line_diff(old, new))
    for name in sorted(set(files_a) | set(files_b)):
        old, new = files_a.get(name), files_b.get(name)
        if old == new:
            continue
        if old is None or new is None:
            side = "CHANGE" if old is None else "PARENT"
            found.append(f"artifact {name}: only in {side}")
            continue
        found.append(f"artifact {name}: bytes differ")
        found.extend(f"  {line}" for line in _line_diff(
            old.decode("utf-8", "replace").splitlines(),
            new.decode("utf-8", "replace").splitlines(),
            _MAX_ARTIFACT_LINES))
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = [os.path.abspath(t) for t in args]
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "parastab")):
            print(f"{tree} has no src/parastab", file=sys.stderr)
            return 2
    differing = 0
    with tempfile.TemporaryDirectory() as scratch:
        for i, argv_i in enumerate(RUNS):
            outcomes = []
            for side, tree in zip(("parent", "change"), trees):
                workdir = os.path.join(scratch, side, str(i))
                os.makedirs(workdir)
                outcomes.append(run(tree, argv_i,
                                    os.path.join(workdir, "out")))
            found = differences(*outcomes)
            label = " ".join(argv_i) or "(no arguments)"
            if found:
                differing += 1
                print(f"DIFFERS  {label}")
                for line in found:
                    print(f"    {line}")
            else:
                print(f"same     {label}")
    print(f"{differing} of {len(RUNS)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
