"""Property tests of the batched stability probes over random operators,
observed boundary sets and families.

The reference probes below solve and measure every family member on its
own with forward_solve and measure, the way the probes did before they
marched a whole mesh level in one batched march. The batched rows must
match them field for field and bit for bit, nan included, for random
a > 0, b and c, either or both observed endpoints, one to eight members of
random scales and time-varying sources under an unlimited rate budget.
"""
import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parastab.admissible import c4_surrogate
from parastab.lab import make_context
from parastab.measurement import measure
from parastab.mesh import field_from_function, sample_spatial
from parastab.norms import l2_space, l2_spacetime
from parastab.operator import EllipticOperator
from parastab.probes import (FLAG_DEGENERATE, FLAG_EXPECTED_FAILURE,
                             FLAG_RESCALED, FLAG_VIOLATION, RESCALE_TARGET,
                             SMALLNESS_THRESHOLD, ProbeRow,
                             initial_stability_probe, source_stability_probe)
from parastab.solver import forward_solve


def _contexts(ctx, levels):
    return [ctx if L == 0 else ctx.refined(2 ** L) for L in range(levels)]


def reference_source_rows(family, ctx, levels):
    rows = []
    for level, c in enumerate(_contexts(ctx, levels)):
        for i, (param, fn) in enumerate(family):
            f = field_from_function(c.domain, c.window, fn)
            f_norm = l2_spacetime(f.values, c.domain, c.window)
            u = forward_solve(c.dop, f, None, c.window)
            combined = measure(u, c.domain, c.window).combined_norm
            if combined == 0.0:
                flag = FLAG_DEGENERATE if f_norm == 0.0 else FLAG_VIOLATION
                value = math.nan if f_norm == 0.0 else math.inf
            else:
                flag, value = "", f_norm / combined
            rows.append(ProbeRow(i, float(param), f_norm, combined, value,
                                 level, flag))
    return rows


def reference_initial_rows(family, ctx, levels):
    rows = []
    for level, c in enumerate(_contexts(ctx, levels)):
        for i, (param, fn) in enumerate(family):
            g = sample_spatial(c.domain, fn)
            g_norm = l2_space(g, c.domain)
            flags = []
            if c4_surrogate(g, c.domain.h) > c.M0:
                flags.append(FLAG_EXPECTED_FAILURE)
            u = forward_solve(c.dop, None, g, c.window)
            combined = measure(u, c.domain, c.window).combined_norm
            if combined == 0.0:
                flags.append(FLAG_DEGENERATE)
                value = math.nan
            else:
                if combined >= SMALLNESS_THRESHOLD:
                    scale = RESCALE_TARGET / combined
                    g_norm *= scale
                    combined *= scale
                    flags.append(FLAG_RESCALED)
                value = g_norm * abs(math.log(combined))
            rows.append(ProbeRow(i, float(param), g_norm, combined, value,
                                 level, "+".join(flags)))
    return rows


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def assert_rows_equal(batched, reference):
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        for field in dataclasses.fields(ProbeRow):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert _same(a, b), (field.name, got, want)


_GAMMA = st.sampled_from([("left",), ("right",), ("left", "right")])
_SCALE = st.sampled_from([0.0, 1e-6, 1e-2, 1.0, 3.7, 250.0])


def _time_profile(kind, rate, t_on):
    if kind == "constant":
        return lambda t: 1.0 + 0.0 * t
    if kind == "exp":
        return lambda t: np.exp(rate * t)
    if kind == "sin":
        return lambda t: 2.0 + np.sin(4.0 * rate * t)
    # switched on at t_on, possibly after the observation window closes
    return lambda t: np.where(t > t_on, (t - t_on) ** 2, 0.0)


_SOURCE_MEMBER = st.tuples(
    st.integers(1, 4), _SCALE,
    st.sampled_from(["constant", "exp", "sin", "onset"]),
    st.floats(-3.0, 3.0), st.floats(0.0, 1.5))


def _source_family(members):
    family = []
    for j, scale, kind, rate, t_on in members:
        profile = _time_profile(kind, rate, t_on)

        def fn(x, t, j=j, scale=scale, profile=profile):
            return scale * (np.cos(j * np.pi * x) + 0.5) * profile(t)
        family.append((float(j), fn))
    return family


def _operator_context(a, b, c, gamma, nx, nt, horizon, **kw):
    T, delta0, delta1 = horizon
    return make_context(nx=nx, nt=nt, T=T, delta0=delta0, delta1=delta1,
                        op=EllipticOperator(a=a, b=b, c=c), gamma=gamma,
                        **kw)


_A = st.floats(0.05, 5.0)
_BC = st.floats(-3.0, 3.0)
# (T, delta0, delta1); in the second the window spans the whole march,
# from the initial level to the last
_HORIZON = st.sampled_from([(1.0, 0.5, 0.25), (0.5, 0.5, 0.5)])


@settings(max_examples=40, deadline=None)
@given(a=_A, b=_BC, c=_BC, gamma=_GAMMA, nx=st.integers(8, 14),
       nt=st.integers(8, 24), horizon=_HORIZON, levels=st.integers(1, 2),
       members=st.lists(_SOURCE_MEMBER, min_size=1, max_size=8))
def test_batched_source_probe_matches_per_member_solves(a, b, c, gamma, nx,
                                                        nt, horizon, levels,
                                                        members):
    ctx = _operator_context(a, b, c, gamma, nx, nt, horizon, C0=math.inf)
    family = _source_family(members)
    report = source_stability_probe(family, ctx, levels=levels)
    assert_rows_equal(report.rows, reference_source_rows(family, ctx, levels))


_INITIAL_MEMBER = st.tuples(st.integers(0, 6), _SCALE, st.floats(-1.0, 1.0))


def _initial_family(members):
    def member(k, scale, shift):
        return lambda x: scale * (np.cos(k * np.pi * x) + shift * x * x)
    return [(float(k), member(k, scale, shift))
            for k, scale, shift in members]


@settings(max_examples=40, deadline=None)
@given(a=_A, b=_BC, c=_BC, gamma=_GAMMA, nx=st.integers(8, 14),
       nt=st.integers(8, 24), horizon=_HORIZON, levels=st.integers(1, 2),
       M0=st.sampled_from([1.0, 100.0, 1e6]),
       members=st.lists(_INITIAL_MEMBER, min_size=1, max_size=8))
def test_batched_initial_probe_matches_per_member_solves(a, b, c, gamma, nx,
                                                         nt, horizon, levels,
                                                         M0, members):
    ctx = _operator_context(a, b, c, gamma, nx, nt, horizon, M0=M0)
    family = _initial_family(members)
    report = initial_stability_probe(family, ctx, levels=levels)
    assert_rows_equal(report.rows,
                      reference_initial_rows(family, ctx, levels))
