"""Every CLI key drives the run: one other valid value of the key changes a
CSV artifact or the exit code. The manifest is left out of the comparison,
since it echoes every key whether or not the key did anything.

A key that matters only beside another key is run over a base override
(C0 only gates a source that needs a budget, such as late-onset). The keys
that drive nothing, under the named base or at all, sit in INERT with the
reason each one stays; the test checks that they are indeed inert, so a
reason cannot go stale unnoticed.
"""
import os

import pytest

from parastab import cli

GRID = ("--nx", "8", "--nt", "8")

# late-onset switches on after the window closes; on the coarse GRID that
# is past the last time level, so the source would vanish there
_LATE = ("--f", "late-onset", "--nt", "64")
_INITIAL = ("--kind", "initial")

# the keys every subcommand shares: key -> (other value, base override);
# runs that read no level past T + delta1 see delta0 through the aligned
# time step alone, and decompose sees delta1 so too, so both values move it
_SHARED = {"nx": ("12", ()), "nt": ("24", ()), "T": ("0.5", ()),
           "delta0": ("0.3", ()), "delta1": ("0.2", ()),
           "C0": ("inf", _LATE)}
_RECON = {"f": ("eigenmode:2", ()), "g": ("eigenmode:2", ()),
          "alpha0_f": ("10", ()), "alpha0_g": ("10", ()),
          "seed": ("1", ())}

# (subcommand, key) -> (other value, base override): the run must differ
DRIVES = {
    **{("forward", k): v for k, v in _SHARED.items()},
    ("forward", "f"): ("eigenmode:2", ()),
    ("forward", "g"): ("eigenmode:2", ()),
    **{("carleman-audit", k): v for k, v in _SHARED.items()},
    ("carleman-audit", "f"): ("eigenmode:2", ()),
    ("carleman-audit", "g"): ("eigenmode:2", ()),
    ("carleman-audit", "lambda"): ("2", ()),
    ("carleman-audit", "s"): ("1,8", ()),
    ("carleman-audit", "p"): ("1", ()),
    ("carleman-audit", "boundary"): ("literal", ()),
    **{("stability-probe", k): v for k, v in _SHARED.items()},
    ("stability-probe", "kind"): ("initial", ()),
    ("stability-probe", "members"): ("3", ()),
    ("stability-probe", "levels"): ("1", ()),
    ("stability-probe", "normalized"): ("false", _INITIAL),
    ("stability-probe", "f"): ("eigenmode:2", ()),
    # a cap below every member's C^4 surrogate leaves nothing to summarize
    ("stability-probe", "M0"): ("1", _INITIAL),
    **{("decompose", k): v for k, v in _SHARED.items()},
    ("decompose", "f"): ("eigenmode:2", ()),
    ("decompose", "g"): ("eigenmode:2", ()),
    **{("reconstruct", k): v for k, v in _SHARED.items() if k != "C0"},
    **{("reconstruct", k): v for k, v in _RECON.items()},
    ("reconstruct", "noise"): ("0.1", ()),
    **{("rate", k): v for k, v in _SHARED.items() if k != "C0"},
    **{("rate", k): v for k, v in _RECON.items()},
    # no level meets so small a tolerance, so the slope fit is refused
    ("rate", "grad_tol"): ("1e-300", ()),
    ("rate", "noise"): ("0.2,0.02,0.002", ()),
}

# (subcommand, key, base override) -> (other value, why the key stays)
INERT = {
    ("stability-probe", "seed", ()): (
        "7", "the probes draw nothing at random, but the benchmark's probe "
             "workload passes --seed (ROADMAP item 1, part B)"),
    ("stability-probe", "M0", ("--kind", "source")): (
        "1", "the smoothness cap applies to initial values only"),
    ("stability-probe", "normalized", ("--kind", "source")): (
        "false", "it selects between the initial-value families only"),
    ("stability-probe", "f", _INITIAL): (
        "eigenmode:2", "a custom family is a source family"),
    ("reconstruct", "alpha0_f", ("--noise", "0")): (
        "10", "recover scales the base weight by eps^2, so it drives every "
              "run with noise"),
    ("rate", "C0", ()): (
        "0", "a time-constant source needs no budget, so the gate never "
             "refuses the truth pair; the benchmark's inverse workload "
             "passes --C0"),
    ("reconstruct", "grad_tol", ()): (
        "1e-300", "it decides summary.converged only, a manifest line"),
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Exit code and the non-manifest artifact bytes of one argv, once."""
    root = tmp_path_factory.mktemp("keys")
    seen = {}

    def outcome(sub, *args):
        argv = (sub, *GRID, *args)
        if argv not in seen:
            out = root / str(len(seen))
            code = cli.main([*argv, "--out", str(out)])
            files = {}
            if out.exists():
                files = {name: (out / name).read_bytes()
                         for name in sorted(os.listdir(out))
                         if name != "manifest.txt"}
            seen[argv] = (code, files)
        return seen[argv]
    return outcome


def test_every_key_is_probed_or_declared_inert():
    inert_everywhere = {(sub, key) for sub, key, base in INERT if not base}
    keys = {(sub, key) for sub, table in cli._TABLES.items()
            for key, _, _ in table}
    assert keys - set(DRIVES) - inert_everywhere == set()
    assert set(DRIVES) | inert_everywhere <= keys
    assert not set(DRIVES) & inert_everywhere


@pytest.mark.parametrize("sub, key", sorted(DRIVES))
def test_key_drives_the_run(run, sub, key):
    value, base = DRIVES[(sub, key)]
    assert run(sub, *base) != run(sub, *base, f"--{key}", value)


@pytest.mark.parametrize("sub, key, base", sorted(INERT))
def test_inert_key_drives_nothing(run, sub, key, base):
    value, _ = INERT[(sub, key, base)]
    assert run(sub, *base) == run(sub, *base, f"--{key}", value)
