"""The working set of the field-sized passes, and their exactness.

The stencils write into their result, equation_residual and the evolution
residual of decompose take their maxima a block of time columns at a time,
and constant_sweep reuses its per-s buffers. The properties below hold
each against the full-array formula it replaced, kept here as the oracle,
bit for bit; the tracemalloc tests pin how much memory the two largest
passes allocate beyond their inputs, and that a library entry past the
work budget is refused before it allocates or marches anything.
"""
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parastab import inverse, measurement, solver
from parastab.carleman import constant_sweep
from parastab.decompose import decompose_time_derivative
from parastab.inverse import InverseProblemSpec, minimize, recover
from parastab.lab import LabContext, benchmark_initial, benchmark_source, \
    make_context
from parastab.measurement import measurement_data
from parastab.mesh import _BLOCK_COLUMNS, SpaceTimeField, field_from_function
from parastab.operator import EllipticOperator
from parastab.probes import (initial_eigenmode_family,
                             initial_stability_probe, source_eigenmode_family,
                             source_stability_probe)
from parastab.solver import (equation_residual, forward_solve,
                             time_derivative, time_shift)
from parastab.stencils import fd_first, fd_second
from parastab.weights import WeightConfig, eval_weights


def oracle_fd_first(q, step):
    """fd_first along the last axis, every term a full-size temporary."""
    out = np.empty_like(q)
    two_h = 2.0 * step
    out[..., 1:-1] = (q[..., 2:] - q[..., :-2]) / two_h
    out[..., 0] = (4.0 * (q[..., 1] - q[..., 0])
                   - (q[..., 2] - q[..., 0])) / two_h
    out[..., -1] = (4.0 * (q[..., -1] - q[..., -2])
                    - (q[..., -1] - q[..., -3])) / two_h
    return out


def oracle_fd_second(q, step):
    out = np.empty_like(q)
    h2 = step * step
    out[..., 1:-1] = (q[..., 2:] - 2.0 * q[..., 1:-1] + q[..., :-2]) / h2
    out[..., 0] = (2.0 * (q[..., 0] - q[..., 1])
                   - 3.0 * (q[..., 1] - q[..., 2])
                   + (q[..., 2] - q[..., 3])) / h2
    out[..., -1] = (2.0 * (q[..., -1] - q[..., -2])
                    - 3.0 * (q[..., -2] - q[..., -3])
                    + (q[..., -3] - q[..., -4])) / h2
    return out


def oracle_apply(dop, q):
    """DiscreteOperator.apply on a field with a fresh array per term."""
    sub, c, sup = dop.lower[1:, None], dop.c[:, None], dop.upper[:-1, None]
    out = c * q
    out[1:] += sub * (q[:-1] - q[1:])
    out[:-1] += sup * (q[1:] - q[:-1])
    return out


def oracle_equation_residual(u, ut, f, dop):
    res = ut - oracle_apply(dop, u.values)
    if f is not None:
        res = res - f.values
    scale = max(float(np.max(np.abs(ut))), 1e-300)
    return float(np.max(np.abs(res[:, 1:-1]))) / scale


def oracle_evolution(z, dop, k):
    zt = oracle_fd_first(z, k)
    return float(np.max(np.abs((zt - oracle_apply(dop, z))[:, 2:-2])))


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(4, 12), cols=st.integers(4, 40),
       step=st.floats(1e-3, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_stencils_match_their_full_array_formulas(rows, cols, step, seed):
    q = np.random.default_rng(seed).standard_normal((rows, cols))
    for axis in (0, 1):
        qa = np.moveaxis(q, axis, -1)
        assert np.array_equal(np.moveaxis(fd_first(q, step, axis), axis, -1),
                              oracle_fd_first(qa, step))
        assert np.array_equal(np.moveaxis(fd_second(q, step, axis), axis, -1),
                              oracle_fd_second(qa, step))


# T = delta0 = delta1 puts the window edges at 0, T and 2T, so every even
# step count aligns and nt can sit on either side of a block boundary
_B = _BLOCK_COLUMNS
_HALF_STEPS = st.integers(2, 3 * _B // 2 + 2)


def _context(nx, nt, drift):
    op = EllipticOperator(a=lambda x: 1.0 + 0.3 * np.sin(2.0 * x),
                          b=drift, c=lambda x: 0.5 - x)
    ctx = make_context(nx=nx, nt=nt, T=0.5, delta0=0.5, delta1=0.5, op=op)
    assert ctx.window.nt == nt
    return ctx


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(8, 20), half=_HALF_STEPS, drift=st.floats(-1.0, 1.0),
       sourced=st.booleans(), nans=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(nx=8, half=_B // 2, drift=0.0, sourced=True, nans=0, seed=0)
@example(nx=8, half=_B // 2 + 1, drift=0.0, sourced=False, nans=1, seed=1)
@example(nx=9, half=_B, drift=0.5, sourced=True, nans=0, seed=2)
@example(nx=9, half=_B + 1, drift=0.5, sourced=True, nans=2, seed=3)
def test_blocked_equation_residual_matches_the_full_array_formula(
        nx, half, drift, sourced, nans, seed):
    ctx = _context(nx, 2 * half, drift)
    rng = np.random.default_rng(seed)
    shape = (nx + 1, 2 * half + 1)
    u = SpaceTimeField(rng.standard_normal(shape), ctx.domain, ctx.window)
    f = (SpaceTimeField(rng.standard_normal(shape), ctx.domain, ctx.window)
         if sourced else None)
    ut = rng.standard_normal(shape)
    # nan anywhere in ut, end columns included, must read nan as before
    for _ in range(nans):
        ut[rng.integers(shape[0]), rng.integers(shape[1])] = np.nan
    got = equation_residual(u, ut, f, ctx.dop)
    assert _bits(got) == _bits(oracle_equation_residual(u, ut, f, ctx.dop))
    assert np.isnan(got) == (nans > 0)


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(8, 20), half=_HALF_STEPS, drift=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(nx=8, half=_B // 2, drift=0.0, seed=0)
@example(nx=8, half=_B // 2 + 1, drift=0.0, seed=1)
@example(nx=9, half=_B + 2, drift=0.5, seed=2)
def test_blocked_evolution_residual_matches_the_full_array_formula(
        nx, half, drift, seed):
    ctx = _context(nx, 2 * half, drift)
    rng = np.random.default_rng(seed)
    shape = (nx + 1, 2 * half + 1)
    u = SpaceTimeField(rng.standard_normal(shape), ctx.domain, ctx.window)
    f = SpaceTimeField(rng.standard_normal(shape), ctx.domain, ctx.window)
    with pytest.warns(UserWarning, match="does not solve"):
        dec = decompose_time_derivative(u, f, ctx)
    z = dec.source_free.values
    assert np.array_equal(z, oracle_fd_first(u.values, ctx.window.k)
                          - dec.sourced.values)
    assert _bits(dec.residual_evolution) == _bits(
        oracle_evolution(z, ctx.dop, ctx.window.k))


def _traced_peak(call):
    """Bytes call() allocates at its peak beyond what is live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _solution(ctx, sourced=True):
    # a time-dependent source, so that the sourced part w is marched
    f = (field_from_function(ctx.domain, ctx.window,
                             lambda x, t: np.cos(np.pi * x) * (1.0 + t))
         if sourced else None)
    g = benchmark_initial(ctx.domain.points)
    return f, forward_solve(ctx.dop, f, g, ctx.window)


def test_decompose_holds_about_two_fields_beyond_its_inputs():
    # w and z are the result; the rest is f_t beside w while w is marched,
    # or a few column blocks
    ctx = make_context(nx=64, nt=2048)
    f, u = _solution(ctx)
    peak = _traced_peak(lambda: decompose_time_derivative(u, f, ctx))
    assert peak <= 2.5 * u.values.nbytes


@pytest.mark.parametrize("sourced, fields", [(False, 8.5), (True, 9.5)])
def test_sweep_holds_a_pinned_number_of_shifted_fields(sourced, fields):
    # four per-s buffers, the three squares and the quadrature weights,
    # plus the source's square when there is one
    ctx = make_context(nx=128, nt=2048)
    f, u = _solution(ctx, sourced)
    v = time_derivative(time_shift(u))
    fv = time_derivative(time_shift(f)) if sourced else None
    weights = eval_weights(1.0, ctx.window, ctx.domain)
    config = WeightConfig(s_values=(0.04, 0.08, 0.16, 0.34))
    peak = _traced_peak(lambda: constant_sweep(v, fv, weights, config,
                                               dop=ctx.dop))
    assert peak <= fields * v.values.nbytes


def _truth(ctx):
    x = ctx.domain.points
    return benchmark_source(x), benchmark_initial(x)


_SPEC = InverseProblemSpec(alpha_f=10.0, alpha_g=1.0, seed=7)
# the README rate levels, with their 20,000 neighbours
_NOISE = [0.1 - 1e-6 * i for i in range(20000)]
# the grid of the README rate command, and one 4000 cells wide
_README_RATE = make_context(nx=32, nt=128, T=0.25, delta0=0.25, delta1=0.125)
_WIDE = make_context(nx=4000, nt=8)


@pytest.mark.parametrize("call, name, shape", [
    # nt 1024 is bumped to 1026, one level past what 2^16 rows allow
    (lambda: make_context(nx=65535, nt=1024), "field", (65536, 1027)),
    (lambda: source_stability_probe(source_eigenmode_family(6),
                                    make_context(), 8),
     "source probe samples", (8193, 27521, 6)),
    (lambda: initial_stability_probe(initial_eigenmode_family(8, True),
                                     make_context(), 8),
     "field", (8193, 33025)),
    (lambda: recover(_SPEC, _NOISE, _truth(_README_RATE), _README_RATE),
     "certificate payloads", (20000, 33, 129)),
    (lambda: recover(_SPEC, [0.01], _truth(_WIDE), _WIDE),
     "design matrix", (12013, 8002)),
], ids=["context", "source-probe", "initial-probe", "recover-levels",
        "recover-wide"])
def test_a_library_entry_past_the_work_budget_allocates_nothing(
        monkeypatch, call, name, shape):
    def forbidden(*args, **kwargs):
        raise AssertionError("work was done past the work budget")
    monkeypatch.setattr(LabContext, "refined", forbidden)
    for module in (measurement, solver):
        monkeypatch.setattr(module, "cn_march", forbidden)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert re.fullmatch(
        rf"the {name} of shape \({', '.join(map(str, shape))}\) would hold "
        rf"\d+ float64 entries \(.* GiB\), above the work budget of 67108864",
        str(info.value))
    assert peak < 2 ** 20


def test_minimize_past_the_work_budget_is_refused_as_recover_is(monkeypatch):
    # minimize builds the design matrix that recover refuses at nx 4000;
    # both are refused by the one check, before the observation march
    def forbidden(*args, **kwargs):
        raise AssertionError("marched past the work budget")
    monkeypatch.setattr(inverse, "observed_march", forbidden)
    sl = _WIDE.window.window_slice
    data = measurement_data(np.zeros(_WIDE.domain.nx + 1),
                            np.zeros((len(_WIDE.domain.gamma),
                                      sl.stop - sl.start)),
                            _WIDE.domain, _WIDE.window)
    with pytest.raises(ValueError) as refused:
        recover(_SPEC, [0.01], _truth(_WIDE), _WIDE)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            minimize(replace(_SPEC, noise_level=0.01), data, _WIDE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == str(refused.value)
    assert str(info.value).startswith(
        "the design matrix of shape (12013, 8002) would hold ")
    assert peak < 2 ** 20
