import math

import numpy as np
import pytest

from parastab.lab import make_context
from parastab.measurement import measure, measurement_data
from parastab.mesh import SpaceTimeField, field_from_function
from parastab.solver import forward_solve


def test_zero_field_measures_zero():
    ctx = make_context(nx=32, nt=64)
    u = field_from_function(ctx.domain, ctx.window, lambda x, t: 0.0 * x * t)
    md = measure(u)
    assert md.h2_space_norm == 0.0
    assert md.h2_trace_norm == 0.0
    assert md.combined_norm == 0.0


def test_constant_field_norms():
    # u = 1 on (0,1) with both endpoints observed over a width-0.5 window:
    # snapshot norm 1, trace norm sqrt(2 * 0.5) = 1, combined sqrt(2)
    ctx = make_context(nx=64, nt=256, T=1.0, delta0=0.5, delta1=0.25)
    u = field_from_function(ctx.domain, ctx.window, lambda x, t: 1.0 + 0.0 * x * t)
    md = measure(u)
    assert abs(md.h2_space_norm - 1.0) < 1e-12
    assert abs(md.h2_trace_norm - 1.0) < 1e-12
    assert abs(md.combined_norm - math.sqrt(2.0)) < 1e-12


def test_single_endpoint_trace():
    ctx = make_context(nx=64, nt=256, gamma=("right",))
    u = field_from_function(ctx.domain, ctx.window, lambda x, t: 1.0 + 0.0 * x * t)
    md = measure(u)
    assert abs(md.h2_trace_norm - math.sqrt(0.5)) < 1e-12
    assert abs(md.combined_norm - math.sqrt(1.5)) < 1e-12


def test_measure_extracts_the_right_slices():
    ctx = make_context(nx=24, nt=48)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((ctx.domain.nx + 1, ctx.window.nt + 1))
    u = SpaceTimeField(vals, ctx.domain, ctx.window)
    md = measure(u)
    assert np.array_equal(md.final_snapshot, vals[:, ctx.window.snapshot_index])
    sl = ctx.window.window_slice
    assert md.lateral_trace.shape == (2, sl.stop - sl.start)
    assert np.array_equal(md.lateral_trace[0], vals[0, sl])
    assert np.array_equal(md.lateral_trace[1], vals[-1, sl])


def test_power_of_two_scaling_is_bit_exact():
    ctx = make_context(nx=32, nt=64)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((ctx.domain.nx + 1, ctx.window.nt + 1))
    u = SpaceTimeField(vals, ctx.domain, ctx.window)
    u4 = SpaceTimeField(4.0 * vals, ctx.domain, ctx.window)
    a, b = measure(u), measure(u4)
    assert b.h2_space_norm == 4.0 * a.h2_space_norm
    assert b.h2_trace_norm == 4.0 * a.h2_trace_norm
    assert b.combined_norm == 4.0 * a.combined_norm


def test_general_scaling_is_close():
    ctx = make_context(nx=32, nt=64)
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((ctx.domain.nx + 1, ctx.window.nt + 1))
    a = measure(SpaceTimeField(vals, ctx.domain, ctx.window))
    b = measure(SpaceTimeField(3.3 * vals, ctx.domain, ctx.window))
    assert abs(b.combined_norm - 3.3 * a.combined_norm) < 1e-13 * b.combined_norm


def test_solution_measurement_is_positive_and_finite():
    ctx = make_context(nx=48, nt=96)
    u = forward_solve(ctx.dop, None, np.cos(np.pi * ctx.domain.points), ctx.window)
    md = measure(u)
    assert 0.0 < md.combined_norm < 10.0
    assert md.combined_norm >= md.h2_space_norm


@pytest.mark.parametrize("where", ["snapshot", "trace"])
def test_overflowing_measurement_is_refused(where):
    # every value is finite, but the second differences of a 1e300 spike
    # overflow the H2 norm; raising numpy errors shows none escapes either
    ctx = make_context(nx=16, nt=32)
    vals = np.zeros((ctx.domain.nx + 1, ctx.window.nt + 1))
    if where == "snapshot":
        vals[8, ctx.window.snapshot_index] = 1e300
    else:
        vals[0, ctx.window.window_slice] = 1e300 * np.cos(
            np.arange(ctx.window.window_slice.stop
                      - ctx.window.window_slice.start))
    u = SpaceTimeField(vals, ctx.domain, ctx.window)
    with np.errstate(all="raise"), pytest.raises(
            ValueError, match="^measurement overflows: its combined norm is "
                              "inf$"):
        measure(u)
    snapshot = vals[:, ctx.window.snapshot_index]
    trace = vals[np.array(ctx.domain.gamma_indices), ctx.window.window_slice]
    with pytest.raises(ValueError, match="^measurement overflows"):
        measurement_data(snapshot, trace, ctx.domain, ctx.window)
