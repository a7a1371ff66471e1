"""The README's commands and quick start run as written, and the numbers
it quotes are the numbers they print.

Every `parastab` line of a sh block runs once through cli.main, with its
--out redirected to a temporary directory; it must exit 0, or the code an
`echo $?   # N` line right after it quotes, and print nothing on stderr.
"""
import contextlib
import importlib.util
import io
import os
import re
from pathlib import Path

import numpy as np
import pytest

from parastab.cli import main
from parastab.inverse import observation_matrix, observed_vector

_ROOT = Path(__file__).resolve().parents[1]
README = (_ROOT / "README.md").read_text(encoding="utf-8")

# the README parser is the one tools/compare_outputs.py takes its runs from
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", _ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

COMMANDS = compare_outputs.readme_commands(README)


def _quoted(pattern: str) -> str:
    """The one number the README quotes where pattern matches."""
    found = re.findall(pattern, " ".join(README.split()))
    assert len(found) == 1, pattern
    return found[0]


def _run(argv, out: Path) -> int:
    argv = list(argv)
    argv[argv.index("--out") + 1] = str(out)
    return main(argv)


def _name(argv) -> str:
    return os.path.basename(argv[argv.index("--out") + 1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Exit code, stderr and output directory of each README command,
    run once, keyed by the name of its --out directory."""
    root = tmp_path_factory.mktemp("readme")
    results = {}
    for argv, _ in COMMANDS:
        out, err = root / _name(argv), io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = _run(argv, out)
        results[_name(argv)] = rc, err.getvalue(), out
    return results


def _summary(out: Path) -> dict:
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    return dict(line[len("summary."):].split("=", 1) for line in lines
                if line.startswith("summary."))


def _rounds_to(value: float, quoted: str) -> bool:
    decimals = len(quoted.split(".")[1])
    return f"{value:.{decimals}f}" == quoted


def test_the_readme_has_its_eight_commands():
    assert [(argv[0], _name(argv), rc) for argv, rc in COMMANDS] == [
        ("forward", "fwd", 0), ("carleman-audit", "audit", 0),
        ("stability-probe", "psrc", 0), ("stability-probe", "pini", 0),
        ("decompose", "dec", 0), ("reconstruct", "rec", 0),
        ("rate", "rate", 0), ("stability-probe", "violation", 2)]


@pytest.mark.parametrize("name, code", [(_name(argv), rc)
                                        for argv, rc in COMMANDS])
def test_readme_command_exits_as_documented(runs, name, code):
    rc, err, out = runs[name]
    assert (rc, err) == (code, "")
    assert (out / "manifest.txt").is_file()


def test_forward_marches_the_quoted_levels(runs, tmp_path):
    levels = int(_quoted(r"The command above marches (\d+) levels"))
    small = int(_quoted(r"`forward --nx 8 --nt 8` marches (\d+)"))
    assert _run(["forward", "--nx", "8", "--nt", "8", "--out", ""],
                tmp_path) == 0
    for out, expected in [(runs["fwd"][2], levels), (tmp_path, small)]:
        rows = (out / "forward.csv").read_text(encoding="utf-8").splitlines()
        # one header line, then levels 0..expected
        assert len(rows) == 1 + expected + 1


def test_rate_reads_the_quoted_slope_and_spread(runs):
    slope = _quoted(r"this configuration measures slope (\d+\.\d+)")
    spread = _quoted(r"log-product spread of (\d+\.\d+)")
    summary = _summary(runs["rate"][2])
    assert _rounds_to(float(summary["source_slope"]), slope)
    assert _rounds_to(float(summary["log_product_max"])
                      / float(summary["log_product_min"]), spread)


def test_audit_reads_the_quoted_weight_ratio(runs):
    ratio = _quoted(r"excess 0\.0, deficit 0\.0 and ratio sup (\d+\.\d+)")
    summary = _summary(runs["audit"][2])
    assert _rounds_to(float(summary["weight_dt_theta_ratio_sup"]), ratio)
    assert summary["weight_theta_shift_excess"] == "0.0"
    assert summary["weight_midline_deficit"] == "0.0"


def test_library_quick_start_converges(capsys):
    (block,) = compare_outputs.code_blocks(README, "python")
    scope = {}
    exec(block, scope)
    assert scope["result"].converged
    ctx, data = scope["ctx"], scope["data"]
    zero_grad = observation_matrix(ctx).T @ observed_vector(data, ctx)
    assert scope["result"].grad_norm < 1e-12 * np.linalg.norm(zero_grad)
    assert capsys.readouterr().out.split()[0] == "True"
