#!/usr/bin/env python3
"""Compare what two source trees make of the same command lines.

Usage: python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository. Every run in RUNS is
made once per tree, as `python3 -m parastab.cli ...` in a fresh process
whose PYTHONPATH starts with that tree's src/: the eight README commands,
then a fixed corpus of edge and refusal runs. Before comparing, the
`elapsed_seconds:` line is dropped and the run's output directory is
spelled OUT. Each exit code, stdout line, stderr line and artifact that
differs is printed under its run; the exit code is 1 if anything differs,
0 if every run matches byte for byte and 2 on bad arguments.
"""
from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile

# lines of one differing text artifact that are printed
_MAX_ARTIFACT_LINES = 12

_REC_GRID = ("--nx", "32", "--nt", "128", "--T", "0.25", "--delta0", "0.25",
             "--delta1", "0.125")
_COARSE = ("--nx", "8", "--nt", "8")
# a grid that aligns at its requested step count (T - delta1 = 0)
_ALIGNED = ("--nx", "8", "--T", "0.375", "--delta0", "0.625", "--delta1",
            "0.375")

RUNS = [
    # the README commands
    ("forward", "--nx", "64", "--nt", "256", "--T", "1", "--delta0", "0.5",
     "--g", "eigenmode:1"),
    ("carleman-audit", "--lambda", "1", "--p", "0", "--boundary", "exp"),
    ("stability-probe", "--kind", "source", "--members", "6"),
    ("stability-probe", "--kind", "initial", "--members", "8",
     "--normalized", "false"),
    ("decompose", "--f", "benchmark", "--g", "eigenmode:1"),
    ("reconstruct", *_REC_GRID, "--noise", "0.01", "--alpha0_f", "10",
     "--alpha0_g", "1", "--seed", "7"),
    ("rate", *_REC_GRID, "--noise", "0.1,0.01,0.001", "--alpha0_f", "10",
     "--alpha0_g", "1", "--seed", "7"),
    ("stability-probe", "--kind", "source", "--f", "late-onset", "--C0",
     "inf"),
    # edge runs
    ("forward", *_COARSE),
    ("forward", *_ALIGNED, "--nt", "8", "--f", "benchmark", "--g", "one"),
    ("forward", *_ALIGNED, "--nt", "2"),
    ("decompose", *_COARSE, "--f", "one", "--g", "benchmark"),
    ("carleman-audit", "--nx", "16", "--nt", "32", "--boundary", "literal",
     "--s", "1,2,8", "--p", "1"),
    ("stability-probe", "--nx", "16", "--nt", "32", "--kind", "initial",
     "--levels", "1", "--members", "3"),
    ("rate", *_REC_GRID, "--noise", "0.2,0.05,0.0", "--alpha0_f", "0.5",
     "--seed", "3"),
    ("reconstruct", *_COARSE, "--f", "zero", "--g", "zero"),
    ("reconstruct", *_COARSE, "--grad_tol", "1e-300"),
    # refused runs
    ("forward", *_ALIGNED, "--nt", "-5"),
    ("forward", *_ALIGNED, "--nt", "0"),
    ("forward", *_COARSE, "--C0", "nan"),
    ("forward", *_COARSE, "--seed", "1"),
    ("forward", *_COARSE, "--g", "eigenmode:1:1e160"),
    ("forward", "--nx", "8", "--nt", "8", "--T", "1e-154", "--delta0",
     "1e-154", "--delta1", "1e-154"),
    ("forward", "--nx", "100000", "--nt", "100000"),
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
