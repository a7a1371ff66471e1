"""Discrete norms against closed-form integrals and exact homogeneity."""
import math

import numpy as np
import pytest

from parastab.lab import make_context
from parastab.mesh import SpatialDomain, field_from_function, make_time_window
from parastab.norms import h2_space, h2_trace, l2_space, l2_spacetime

# closed form for q = cos(pi x) on (0,1):
# integral q^2 = 1/2, q'^2 = pi^2/2, q''^2 = pi^4/2  ->  7.3579445307467415
H2_COS = math.sqrt((1.0 + math.pi**2 + math.pi**4) / 2.0)


def test_l2_space_of_constant():
    dom = SpatialDomain(0.0, 1.0, 16)
    assert l2_space(np.ones(17), dom) == pytest.approx(1.0)


def test_h2_space_matches_closed_form_and_refines():
    def err(nx):
        dom = SpatialDomain(0.0, 1.0, nx)
        return abs(h2_space(np.cos(np.pi * dom.points), dom) - H2_COS)

    errs = [err(nx) for nx in (48, 96, 192, 384)]
    assert errs[-1] < 1e-4
    assert all(a > b for a, b in zip(errs, errs[1:]))
    # second order over two halvings; the one-sided ends pollute single ratios
    assert 10.0 < errs[1] / errs[3] < 18.0


def test_l2_spacetime_of_separable_field():
    ctx = make_context(nx=32, nt=48)
    fld = field_from_function(ctx.domain, ctx.window,
                              lambda x, t: np.cos(np.pi * x) + 0.0 * t)
    # integral over (0,1)x(0,1.5) of cos^2 = 1.5/2
    assert l2_spacetime(fld.values, fld.domain, fld.window) == pytest.approx(
        math.sqrt(0.75), rel=1e-6)


def test_h2_trace_of_zero_and_constant():
    win = make_time_window(1.0, 0.5, 0.25, 36)
    n = win.window_weights.size
    assert h2_trace(np.zeros((2, n)), win) == 0.0
    # two constant rows over a window of length 0.5: sqrt(2 * 0.5) = 1
    assert h2_trace(np.ones((2, n)), win) == pytest.approx(1.0)


def test_single_trace_row_accepted_as_1d():
    win = make_time_window(1.0, 0.5, 0.25, 36)
    n = win.window_weights.size
    row = np.sin(np.linspace(0.0, 1.0, n))
    a = h2_trace(row, win)
    b = h2_trace(row[None, :], win)
    assert a == b > 0.0


def test_absolute_homogeneity_bit_exact_for_power_of_two():
    dom = SpatialDomain(0.0, 1.0, 32)
    rng = np.random.default_rng(21)
    q = rng.standard_normal(33)
    for norm in (l2_space, h2_space):
        assert norm(4.0 * q, dom) == 4.0 * norm(q, dom)


def test_homogeneity_general_scalar_to_roundoff():
    ctx = make_context(nx=16, nt=24)
    rng = np.random.default_rng(22)
    vals = rng.standard_normal((17, ctx.window.nt + 1))
    fld = field_from_function(ctx.domain, ctx.window, lambda x, t: vals)
    scaled = field_from_function(ctx.domain, ctx.window, lambda x, t: 3.7 * vals)
    assert l2_spacetime(scaled.values, ctx.domain, ctx.window) == \
        pytest.approx(3.7 * l2_spacetime(fld.values, ctx.domain, ctx.window),
                      rel=1e-13)


def test_h2_norms_need_five_points_per_line():
    dom = SpatialDomain(0.0, 1.0, 16)
    win = make_time_window(1.0, 0.5, 0.25, 36)
    with pytest.raises(ValueError, match="at least 5"):
        h2_space(np.ones(4), dom)
    with pytest.raises(ValueError, match="at least 5"):
        h2_trace(np.ones((2, 4)), win)
