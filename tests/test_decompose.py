import math
import warnings

import numpy as np
import pytest

from parastab import decompose
from parastab.decompose import (check_log_convexity_and_w_bound,
                                decompose_time_derivative)
from parastab.lab import make_context
from parastab.mesh import SpaceTimeField, field_from_function
from parastab.norms import l2_space
from parastab.operator import EllipticOperator
from parastab.solver import forward_solve, time_derivative


def heat_eigenmode_context(nx: int, nt: int):
    ctx = make_context(nx=nx, nt=nt)
    g = np.cos(np.pi * ctx.domain.points)
    u = forward_solve(ctx.dop, None, g, ctx.window)
    return ctx, u


def cn_step_factor(m: int, h: float, k: float) -> float:
    """Per-step decay of the discrete mode cos(m pi x) under the scheme."""
    lam = -4.0 * math.sin(m * math.pi * h / 2.0) ** 2 / h ** 2
    return (1.0 + 0.5 * k * lam) / (1.0 - 0.5 * k * lam)


def test_zero_source_gives_zero_sourced_part():
    ctx, u = heat_eigenmode_context(24, 48)
    d = decompose_time_derivative(u, None, ctx)
    assert np.array_equal(d.sourced.values, np.zeros_like(u.values))
    assert np.array_equal(d.source_free.values, time_derivative(u).values)


def test_splitting_identity_is_bit_exact_with_source():
    ctx = make_context(nx=24, nt=48)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: np.exp(t) * (2.0 + np.cos(np.pi * x)))
    u = forward_solve(ctx.dop, f, np.cos(np.pi * ctx.domain.points), ctx.window)
    d = decompose_time_derivative(u, f, ctx)
    assert np.array_equal(time_derivative(u).values - d.sourced.values,
                          d.source_free.values)


def test_residuals_shrink_at_second_order():
    # the max of residual (i) sits near t=0 where the amplitude prefactor
    # still moves with k, so single-halving ratios approach 4 from below;
    # two halvings beat first order decisively
    evo, term = [], []
    for nx, nt in ((24, 48), (48, 96), (96, 192)):
        ctx, u = heat_eigenmode_context(nx, nt)
        d = decompose_time_derivative(u, None, ctx)
        evo.append(d.residual_evolution)
        term.append(d.residual_terminal)
    assert 8.5 < evo[0] / evo[2] < 19.0
    assert evo[0] > evo[1] > evo[2]
    for a, b in zip(term, term[1:]):
        assert 3.4 < a / b < 4.6


def test_sourced_residuals_shrink():
    vals = []
    for nx, nt in ((24, 48), (48, 96)):
        ctx = make_context(nx=nx, nt=nt)
        f = field_from_function(ctx.domain, ctx.window,
                                lambda x, t: np.exp(t) * (2.0 + np.cos(np.pi * x)))
        u = forward_solve(ctx.dop, f, np.cos(np.pi * ctx.domain.points), ctx.window)
        d = decompose_time_derivative(u, f, ctx)
        vals.append((d.residual_evolution, d.residual_terminal))
    assert vals[0][0] / vals[1][0] > 2.5
    assert 3.4 < vals[0][1] / vals[1][1] < 4.6


def test_solutions_do_not_warn_but_junk_does():
    ctx, u = heat_eigenmode_context(24, 48)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decompose_time_derivative(u, None, ctx)
    rng = np.random.default_rng(0)
    junk = SpaceTimeField(rng.standard_normal(u.values.shape), ctx.domain, ctx.window)
    with pytest.warns(UserWarning, match="does not solve"):
        decompose_time_derivative(junk, None, ctx)


def test_shape_mismatches_rejected():
    ctx, u = heat_eigenmode_context(24, 48)
    other = make_context(nx=16, nt=48)
    with pytest.raises(ValueError):
        decompose_time_derivative(u, None, other)
    f_bad = field_from_function(other.domain, other.window, lambda x, t: x + t)
    with pytest.raises(ValueError):
        decompose_time_derivative(u, f_bad, ctx)


def test_forward_map_is_affine():
    ctx = make_context(nx=32, nt=64)
    rng = np.random.default_rng(3)
    for trial in range(5):
        cf = rng.standard_normal(3)
        cg = rng.standard_normal(3)
        f = field_from_function(
            ctx.domain, ctx.window,
            lambda x, t: cf[0] * np.cos(np.pi * x) * np.exp(-t)
            + cf[1] * (x - 0.5) * t + cf[2])
        g = (cg[0] * np.cos(np.pi * ctx.domain.points)
             + cg[1] * ctx.domain.points ** 2 + cg[2])
        u_f = forward_solve(ctx.dop, f, None, ctx.window)
        u_g = forward_solve(ctx.dop, None, g, ctx.window)
        u_fg = forward_solve(ctx.dop, f, g, ctx.window)
        gap = np.max(np.abs(u_f.values + u_g.values - u_fg.values))
        assert gap < 1e-12 * (1.0 + np.max(np.abs(u_fg.values)))


def test_single_mode_log_norm_is_affine():
    ctx = make_context(nx=48, nt=96)
    z = forward_solve(ctx.dop, None, np.cos(np.pi * ctx.domain.points), ctx.window)
    rep = check_log_convexity_and_w_bound(z, None, None, ctx)
    assert rep.checked and not rep.degenerate
    assert np.max(np.abs(rep.norms - rep.chord) / rep.norms) < 1e-10
    assert rep.min_log_second_difference > -1e-8
    assert rep.w_ratio_sup == 0.0 and rep.w_bound_ok


def test_two_mode_margin_matches_eigenexpansion():
    ctx = make_context(nx=48, nt=96)
    dom, win = ctx.domain, ctx.window
    x = dom.points
    z = forward_solve(ctx.dop, None, np.cos(np.pi * x) + np.cos(2 * np.pi * x), win)
    rep = check_log_convexity_and_w_bound(z, None, None, ctx)

    g1 = cn_step_factor(1, dom.h, win.k)
    g2 = cn_step_factor(2, dom.h, win.k)
    i_T = win.snapshot_index
    oracle = np.array([math.sqrt(0.5 * (g1 ** (2 * j) + g2 ** (2 * j)))
                       for j in range(i_T + 1)])
    assert np.max(np.abs(rep.norms - oracle)) < 1e-12

    frac = rep.times / win.T
    oracle_margin = np.max(oracle[0] ** (1 - frac) * oracle[-1] ** frac - oracle)
    margin = np.max(rep.chord - rep.norms)
    assert oracle_margin > 0.1
    assert abs(margin - oracle_margin) < 1e-9
    assert rep.max_violation <= 1e-12
    assert rep.min_log_second_difference > -1e-8


def test_sourced_part_growth_bound():
    ctx = make_context(nx=32, nt=128, C0=math.exp(0.5) * 1.001)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: np.exp(t) * (2.0 + np.cos(np.pi * x)))
    u = forward_solve(ctx.dop, f, np.cos(np.pi * ctx.domain.points), ctx.window)
    d = decompose_time_derivative(u, f, ctx)
    rep = check_log_convexity_and_w_bound(d.source_free, d.sourced, f, ctx)
    assert rep.w_bound_ok
    assert 0.0 < rep.w_ratio_sup < 1.0


def test_growth_bound_reads_the_reaction_ceiling_of_the_context():
    # with c = 1 the sourced part outgrows C0 t, the bound of the heat
    # operator; the context's omega = max c = 1 restores C0 t e^t
    ctx = make_context(nx=32, nt=128, op=EllipticOperator(c=1.0), C0=0.51)
    f = field_from_function(ctx.domain, ctx.window, lambda x, t: np.exp(
        0.5 * t) * (2.0 + np.cos(np.pi * x)))
    u = forward_solve(ctx.dop, f, np.cos(np.pi * ctx.domain.points), ctx.window)
    d = decompose_time_derivative(u, f, ctx)
    rep = check_log_convexity_and_w_bound(d.source_free, d.sourced, f, ctx)
    assert rep.w_ratio_sup > ctx.C0 * ctx.window.T
    assert rep.w_bound_ok


def test_time_independent_source_gives_zero_ratio():
    ctx = make_context(nx=24, nt=48, C0=1.0)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: np.cos(np.pi * x) + 0.0 * t)
    u = forward_solve(ctx.dop, f, np.cos(np.pi * ctx.domain.points), ctx.window)
    d = decompose_time_derivative(u, f, ctx)
    assert np.array_equal(d.sourced.values, np.zeros_like(u.values))
    rep = check_log_convexity_and_w_bound(d.source_free, d.sourced, f, ctx)
    assert rep.w_ratio_sup == 0.0 and rep.w_bound_ok


@pytest.mark.parametrize("onset, marches", [(None, 0), (0.5, 1)])
def test_sourced_part_is_marched_only_when_f_t_is_nonzero(monkeypatch,
                                                          onset, marches):
    # a time-constant source has f_t exactly zero, so w is zero unmarched
    ctx = make_context(nx=24, nt=48)
    f = field_from_function(
        ctx.domain, ctx.window, lambda x, t: np.cos(np.pi * x) + (
            0.0 * t if onset is None else np.maximum(t - onset, 0.0)))
    u = forward_solve(ctx.dop, f, np.cos(np.pi * ctx.domain.points), ctx.window)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return forward_solve(*args, **kwargs)

    monkeypatch.setattr(decompose, "forward_solve", counted)
    d = decompose_time_derivative(u, f, ctx)
    assert len(calls) == marches
    assert np.any(d.sourced.values) == bool(marches)


def test_degenerate_terminal_norm_reported():
    ctx = make_context(nx=24, nt=48)
    vals = np.zeros((ctx.domain.nx + 1, ctx.window.nt + 1))
    i_T = ctx.window.snapshot_index
    decay = np.exp(-np.arange(i_T))
    vals[:, :i_T] = np.cos(np.pi * ctx.domain.points)[:, None] * decay[None, :]
    z = SpaceTimeField(vals, ctx.domain, ctx.window)
    rep = check_log_convexity_and_w_bound(z, None, None, ctx)
    assert rep.degenerate
    assert rep.max_violation is None
    assert "vacuous" in rep.notice


def test_drift_operator_skips_the_interpolation_check():
    op = EllipticOperator(a=1.0, b=lambda x: 0.3 + 0.0 * x, c=0.0)
    ctx = make_context(nx=24, nt=48, op=op)
    z = forward_solve(ctx.dop, None, np.cos(np.pi * ctx.domain.points), ctx.window)
    assert not ctx.dop.self_adjoint
    rep = check_log_convexity_and_w_bound(z, None, None, ctx)
    assert not rep.checked
    assert "drift" in rep.notice
    assert rep.norms.size == 0


def test_nonzero_sourced_part_with_vanishing_snapshot_fails_bound():
    ctx = make_context(nx=24, nt=48, C0=1.0)
    w = forward_solve(ctx.dop, None, np.cos(np.pi * ctx.domain.points), ctx.window)
    rep = check_log_convexity_and_w_bound(w, w, None, ctx)
    assert math.isinf(rep.w_ratio_sup)
    assert not rep.w_bound_ok


@pytest.mark.parametrize("seed", range(6))
def test_column_norms_match_the_snapshot_norm_bitwise(seed):
    # magnitudes spread over 1e+-200, so overflowing and underflowing
    # squares must agree too
    rng = np.random.default_rng(seed)
    ctx = make_context(nx=int(rng.integers(8, 80)), nt=int(rng.integers(8, 200)))
    shape = (ctx.domain.nx + 1, ctx.window.nt + 1)
    values = rng.standard_normal(shape) \
        * 10.0 ** rng.uniform(-200.0, 200.0, size=(1, shape[1]))
    stop = int(rng.integers(1, shape[1] + 1))
    with np.errstate(over="ignore"):
        expected = [l2_space(values[:, j], ctx.domain) for j in range(stop)]
        assert np.array_equal(l2_space(values[:, :stop], ctx.domain),
                              expected)
