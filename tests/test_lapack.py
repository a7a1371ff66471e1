"""parastab.lapack against the scipy.linalg calls it replaces.

The routines come from the compiled module that scipy.linalg.lapack
exports, loaded by file path, and lstsq repeats the gelsd path of
scipy.linalg.lstsq step by step. Over random tridiagonal systems and
least-squares designs, every result must equal scipy's bit for bit, and
every refusal must carry scipy's error text. A README rate run must not
import scipy.linalg at all.
"""
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from parastab import lapack

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_the_routines_come_from_scipys_own_extension():
    assert lapack._flapack.__file__ == scipy.linalg._flapack.__file__


@st.composite
def tridiagonal(draw):
    """(dl, d, du): random bands, rows that pivot (|dl| > |d|) when drawn,
    and a zero column, which makes a zero pivot, when drawn."""
    n = draw(st.integers(3, 12))  # the wrappers refuse n < 3
    dl, d, du = (np.array(draw(st.lists(VALUES, min_size=size,
                                        max_size=size)), dtype=float)
                 for size in (n - 1, n, n - 1))
    if draw(st.booleans()):
        dl = np.copysign(np.abs(d[:-1]) + np.abs(dl) + 1.0, dl)
    zero = draw(st.none() | st.integers(0, n - 1))
    if zero is not None:
        d[zero] = 0.0
        if zero < n - 1:
            dl[zero] = 0.0
        if zero > 0:
            du[zero - 1] = 0.0
    return dl, d, du


@settings(max_examples=120, deadline=None)
@given(tridiagonal(), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_dgttrf_and_dgttrs_match_scipy_bit_for_bit(bands, nrhs, seed):
    ours, theirs = lapack.dgttrf(*bands), scipy.linalg.lapack.dgttrf(*bands)
    assert all(same_bits(x, y) for x, y in zip(ours, theirs))
    if ours[-1] != 0:
        return
    rhs = np.random.default_rng(seed).standard_normal((bands[1].size, nrhs))
    # the marches solve an F-contiguous right-hand side in place
    x, info = lapack.dgttrs(*ours[:-1], np.asfortranarray(rhs), overwrite_b=1)
    y, ref_info = scipy.linalg.lapack.dgttrs(*theirs[:-1],
                                             np.asfortranarray(rhs),
                                             overwrite_b=1)
    assert same_bits(x, y) and info == ref_info == 0


@st.composite
def design(draw):
    """(a, b) laid out like the inverse layer's least-squares problem: r
    observation rows over n unknowns stacked on a diagonal Tikhonov block,
    which is all zero when alpha0 = 0. A repeated or zero column makes the
    design rank-deficient when the Tikhonov block is zero."""
    r, n = draw(st.integers(1, 10)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    obs = rng.standard_normal((r, n)) * draw(st.sampled_from([1e-6, 1.0,
                                                              1e6]))
    column = draw(st.sampled_from(["full", "repeated", "zero"]))
    if n > 1 and column == "repeated":
        obs[:, -1] = obs[:, 0]
    elif column == "zero":
        obs[:, -1] = 0.0
    alpha0 = draw(st.sampled_from([0.0, 1e-8, 1.0, 10.0]))
    tikhonov = np.sqrt(alpha0 * rng.uniform(0.5, 1.0, n))
    a = np.vstack([obs, np.diag(tikhonov)])
    b = np.concatenate([rng.standard_normal(r), np.zeros(n)])
    return a, b


@settings(max_examples=120, deadline=None)
@given(design())
def test_lstsq_matches_scipy_gelsd_bit_for_bit(problem):
    a, b = problem
    x = lapack.lstsq(a, b)
    assert same_bits(x, scipy.linalg.lstsq(a, b, lapack_driver="gelsd")[0])
    assert same_bits(a, problem[0]) and same_bits(b, problem[1])


@settings(max_examples=40, deadline=None)
@given(design(), st.booleans(), st.integers(0, 10 ** 6),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_lstsq_refuses_non_finite_input_in_scipys_words(problem, in_a, where,
                                                        bad):
    a, b = (np.array(arr) for arr in problem)
    target = a if in_a else b
    target.flat[where % target.size] = bad
    with pytest.raises(ValueError) as ours:
        lapack.lstsq(a, b)
    with pytest.raises(ValueError) as theirs:
        scipy.linalg.lstsq(a, b, lapack_driver="gelsd")
    assert str(ours.value) == str(theirs.value)


def test_a_readme_rate_run_never_imports_scipy_linalg(tmp_path):
    # a fresh process, since this one imported scipy.linalg above
    code = "\n".join([
        "import sys",
        "import parastab.cli",
        "code = parastab.cli.main(sys.argv[1:])",
        "print(code, sorted(m for m in sys.modules",
        "                   if m.split('.')[:2] == ['scipy', 'linalg']))",
    ])
    argv = ["rate", "--nx", "32", "--nt", "128", "--T", "0.25", "--delta0",
            "0.25", "--delta1", "0.125", "--noise", "0.1,0.01,0.001",
            "--alpha0_f", "10", "--alpha0_g", "1", "--seed", "7", "--out",
            str(tmp_path / "rate")]
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
