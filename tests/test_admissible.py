import math
from dataclasses import replace

import numpy as np
import pytest

from parastab.admissible import (AdmissiblePair, c4_surrogate,
                                 check_source_condition, make_admissible_pair)
from parastab.lab import make_context
from parastab.mesh import field_from_function
from parastab.norms import l2_space, l2_spacetime


def test_time_independent_source_needs_no_budget():
    ctx = make_context(nx=32, nt=64)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: 2.0 + np.cos(np.pi * x) + 0.0 * t)
    assert check_source_condition(f) == 0.0


def test_exponential_source_budget_matches_endpoint_value():
    # f = e^t (2 + cos pi x): the ratio |f_t|/|f(.,T)| is e^(t-T), largest
    # at the far end t = T + delta0
    ctx = make_context(nx=32, nt=256, T=1.0, delta0=0.5, delta1=0.25)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: np.exp(t) * (2.0 + np.cos(np.pi * x)))
    c0 = check_source_condition(f)
    assert abs(c0 - math.exp(0.5)) / math.exp(0.5) < 1e-3


def test_source_vanishing_at_snapshot_is_infeasible():
    ctx = make_context(nx=32, nt=64)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: t - ctx.window.T + 0.0 * x)
    assert math.isinf(check_source_condition(f))


def test_spatially_varying_infeasible_source():
    ctx = make_context(nx=32, nt=64)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: x * (1.0 - x) * (t - ctx.window.T))
    assert math.isinf(check_source_condition(f))


def test_zero_source_is_free():
    ctx = make_context(nx=16, nt=32)
    f = field_from_function(ctx.domain, ctx.window, lambda x, t: 0.0 * x * t)
    assert check_source_condition(f) == 0.0


def test_c4_surrogate_constant_and_linear():
    h = 1.0 / 64
    x = np.linspace(0.0, 1.0, 65)
    assert c4_surrogate(3.5 * np.ones(65), h) == 3.5
    assert abs(c4_surrogate(x, h) - 1.0) < 1e-10


def test_c4_surrogate_grows_with_frequency():
    x = np.linspace(0.0, 1.0, 65)
    h = 1.0 / 64
    low = c4_surrogate(np.cos(np.pi * x), h)
    high = c4_surrogate(np.cos(4 * np.pi * x), h)
    # fourth differences scale like k^4; discrete symbol stays below pi^4 k^4
    assert low <= np.pi ** 4 + 1e-9
    assert high / low > 100.0


def test_c4_surrogate_rejects_short_and_2d_input():
    with pytest.raises(ValueError):
        c4_surrogate(np.ones(4), 0.1)
    with pytest.raises(ValueError):
        c4_surrogate(np.ones((5, 5)), 0.1)


def test_admissible_pair_records_budget_and_seminorm():
    ctx = make_context(nx=32, nt=64, C0=1.5)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: np.cos(np.pi * x) + 0.0 * t)
    g = np.cos(np.pi * ctx.domain.points)
    pair = make_admissible_pair(ctx, f=f, g=g)
    assert isinstance(pair, AdmissiblePair)
    assert pair.f_norm == l2_spacetime(f.values, ctx.domain, ctx.window)
    assert pair.g_norm == l2_space(g, ctx.domain)
    assert 80.0 < pair.c4_surrogate <= np.pi ** 4 + 1e-9


def test_admissible_pair_rejects_fast_sources():
    ctx = make_context(nx=32, nt=256, C0=1.0)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: np.exp(t) * (2.0 + np.cos(np.pi * x)))
    # needs C0 about e^0.5, budget is 1
    with pytest.raises(ValueError, match="rate budget"):
        make_admissible_pair(ctx, f=f)
    pair = make_admissible_pair(replace(ctx, C0=2.0), f=f)
    assert pair.f is f


def test_admissible_pair_validates_shapes_and_budget_sign():
    ctx = make_context(nx=32, nt=64)
    with pytest.raises(ValueError):
        make_admissible_pair(ctx, g=np.ones(7))
    # the context itself refuses a negative budget, so no gate sees one
    with pytest.raises(ValueError, match="^C0 and M0 must be nonnegative"):
        make_admissible_pair(replace(ctx, C0=-1.0))
    # and a budget that is not a real number, by name
    with pytest.raises(ValueError, match="^C0 must be a real number, got "
                                         "True$"):
        make_context(nx=8, nt=8, C0=True)
    with pytest.raises(ValueError, match="^M0 must be a real number, got "
                                         "'100'$"):
        replace(ctx, M0="100")


def test_overflowing_source_is_refused_at_the_gate():
    # every value is finite, but its L2(Q) norm is not
    ctx = make_context(nx=16, nt=32)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: 1e160 * (2.0 + np.cos(np.pi * x))
                            + 0.0 * t)
    with pytest.raises(ValueError, match="source overflows"):
        make_admissible_pair(ctx, f=f)
