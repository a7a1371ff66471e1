"""Both sides of the weighted inequality and the s sweep."""
import numpy as np
import pytest

from parastab.carleman import (FLAG_DEGENERATE, FLAG_OK, FLAG_VIOLATION,
                               SweepRow, constant_sweep,
                               default_s_values, empirical_s_threshold,
                               sweep_statistic)
from parastab.lab import make_context
from parastab.mesh import SpaceTimeField, field_from_function, sample_spatial
from parastab.solver import forward_solve, time_derivative, time_shift
from parastab.weights import WeightConfig, eval_weights


@pytest.fixture(scope="module")
def eigen_setup():
    ctx = make_context(nx=48, nt=96)
    g = sample_spatial(ctx.domain, lambda x: np.cos(np.pi * x))
    u = forward_solve(ctx.dop, None, g, ctx.window)
    v = time_derivative(time_shift(u))
    w = eval_weights(1.0, ctx.window, ctx.domain)
    return ctx, u, v, w


def zeros(domain, window):
    return SpaceTimeField(np.zeros((domain.nx + 1, window.nt + 1)), domain,
                          window)


def _octave(s):
    return WeightConfig(s_values=(s, 8.0 * s))


def test_zero_solution_gives_zero_sides(eigen_setup):
    ctx, _, v, w = eigen_setup
    z = zeros(ctx.domain, v.window)
    for row in constant_sweep(z, z, w, _octave(1.0)):
        assert row.lhs == 0.0 and row.rhs == 0.0


def test_sides_positive_for_eigenmode(eigen_setup):
    ctx, _, v, w = eigen_setup
    rows = constant_sweep(v, None, w, WeightConfig(), dop=ctx.dop)
    for row in rows:
        assert np.isfinite(row.lhs) and row.lhs > 0.0
        assert np.isfinite(row.rhs) and row.rhs > 0.0
    # no source and an all-zero source are the same audit, bit for bit
    fz = zeros(ctx.domain, v.window)
    assert constant_sweep(v, fz, w, WeightConfig()) == rows


def test_sweep_refuses_the_solve_frame(eigen_setup):
    # the weights live on the shifted frame only; u itself lives on the
    # solve frame and is not what the inequality audits
    ctx, u, _, w = eigen_setup
    with pytest.raises(ValueError, match="shifted measurement window"):
        constant_sweep(u, None, w, WeightConfig(), dop=ctx.dop)


def test_quadratic_scaling_is_exact(eigen_setup):
    ctx, _, v, w = eigen_setup
    cfg = WeightConfig(s_values=default_s_values(w))
    fz = zeros(ctx.domain, v.window)
    doubled = SpaceTimeField(2.0 * v.values, v.domain, v.window)
    for a, b in zip(constant_sweep(v, fz, w, cfg),
                    constant_sweep(doubled, fz, w, cfg)):
        assert b.lhs == 4.0 * a.lhs
        assert b.rhs == 4.0 * a.rhs
        assert b.ratio == a.ratio


def test_p_one_variant_finite(eigen_setup):
    ctx, _, v, w = eigen_setup
    cfg = WeightConfig(s_values=default_s_values(w), p=1)
    for row in constant_sweep(v, zeros(ctx.domain, v.window), w, cfg):
        assert row.p == 1
        assert np.isfinite(row.lhs) and np.isfinite(row.rhs)
        assert row.lhs > 0 and row.rhs > 0


def test_literal_mode_truncates_but_stays_finite(eigen_setup):
    ctx, _, v, w = eigen_setup
    s = default_s_values(w)[0]
    fz = zeros(ctx.domain, v.window)
    exp_rows = constant_sweep(v, fz, w, WeightConfig(
        s_values=(s, 8.0 * s), boundary_weighting="exp_weighted"))
    lit_rows = constant_sweep(v, fz, w, WeightConfig(
        s_values=(s, 8.0 * s), boundary_weighting="literal_truncated"))
    for e, l in zip(exp_rows, lit_rows):
        assert l.lhs == e.lhs                  # only the boundary term differs
        assert np.isfinite(l.rhs)
        assert l.rhs > e.rhs                   # dropping e^{2s theta} enlarges
        assert l.boundary_mode == "literal_truncated"


def test_sweep_ratios_bounded_for_eigenmode(eigen_setup):
    ctx, _, v, w = eigen_setup
    rows = constant_sweep(v, zeros(ctx.domain, v.window), w,
                          WeightConfig(), dop=ctx.dop)
    assert len(rows) == 4
    assert all(r.flag == FLAG_OK for r in rows)
    assert all(np.isfinite(r.ratio) and r.ratio > 0 for r in rows)
    assert sweep_statistic(rows) <= 2.0
    assert [r.s for r in rows] == list(default_s_values(w))
    assert rows[0].delta1 == ctx.window.delta1
    assert rows[0].lam == 1.0


def test_empirical_s_threshold_from_sweep(eigen_setup):
    ctx, _, v, w = eigen_setup
    rows = constant_sweep(v, zeros(ctx.domain, v.window), w,
                          WeightConfig())
    s1 = empirical_s_threshold(rows)
    assert s1 == max(rows[0].s, 2.0 * max(r.ratio for r in rows))
    assert np.isfinite(s1) and s1 > 0.0
    # a sweep with no clean rows certifies nothing
    z = zeros(ctx.domain, v.window)
    assert empirical_s_threshold(constant_sweep(z, z, w,
                                                WeightConfig())) is None


def test_sweep_ratio_scale_invariant_bitwise(eigen_setup):
    ctx, _, v, w = eigen_setup
    fz = zeros(ctx.domain, v.window)
    cfg = WeightConfig()
    base = constant_sweep(v, fz, w, cfg)
    scaled_v = SpaceTimeField(4.0 * v.values, v.domain, v.window)
    scaled = constant_sweep(scaled_v, fz, w, cfg)
    for a, b in zip(base, scaled):
        assert a.ratio == b.ratio


def test_degenerate_rows_marked(eigen_setup):
    ctx, _, v, w = eigen_setup
    z = zeros(ctx.domain, v.window)
    rows = constant_sweep(z, z, w, WeightConfig())
    assert all(r.flag == FLAG_DEGENERATE for r in rows)
    assert all(np.isnan(r.ratio) for r in rows)
    assert sweep_statistic(rows) is None


def test_violation_candidate_flagged():
    # a field with silent boundary: zero trace, zero flux, zero claimed
    # source, but nonzero interior energy; rhs = 0 < lhs must be flagged
    ctx = make_context(nx=24, nt=48)
    w = eval_weights(1.0, ctx.window, ctx.domain)
    shifted = ctx.window.shifted()
    vals = np.zeros((25, shifted.nt + 1))
    vals[6:-6, :] = 1.0     # three zero rows at each wall silence the traces
    fld = SpaceTimeField(vals, ctx.domain, shifted)
    rows = constant_sweep(fld, None, w, WeightConfig())
    assert all(r.flag == FLAG_VIOLATION for r in rows)
    assert all(r.ratio == float("inf") for r in rows)


def test_non_solution_triggers_residual_warning():
    ctx = make_context(nx=24, nt=48)
    w = eval_weights(1.0, ctx.window, ctx.domain)
    shifted = ctx.window.shifted()
    rng = np.random.default_rng(9)
    junk = SpaceTimeField(rng.standard_normal((25, shifted.nt + 1)),
                          ctx.domain, shifted)
    with pytest.warns(UserWarning, match="does not satisfy") as caught:
        constant_sweep(junk, None, w, _octave(1.0), dop=ctx.dop)
    assert len(caught) == 1          # once per sweep, not once per s


def test_solution_does_not_warn(eigen_setup):
    ctx, _, v, w = eigen_setup
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        constant_sweep(v, zeros(ctx.domain, v.window), w,
                       WeightConfig(), dop=ctx.dop)


def test_sweep_span_and_frame_validation(eigen_setup):
    ctx, _, v, w = eigen_setup
    fz = zeros(ctx.domain, v.window)
    with pytest.raises(ValueError, match="factor 8"):
        constant_sweep(v, fz, w, WeightConfig(s_values=(1.0, 2.0, 4.0)))
    other = make_context(nx=24, nt=60)
    stranger = zeros(other.domain, other.window.shifted())
    with pytest.raises(ValueError, match="frame"):
        constant_sweep(stranger, None, w, _octave(1.0))
    with pytest.raises(ValueError, match="source grid"):
        constant_sweep(v, zeros(other.domain, v.window), w, _octave(1.0))


def test_non_finite_row_is_refused_naming_s(eigen_setup):
    # (s rho)^3 overflows where e^{2 s theta} underflows: inf * 0 = nan
    ctx, _, v, w = eigen_setup
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # and no numpy warning on the way
        with pytest.raises(ValueError, match=r"^s=1e\+100 gives a non-finite"):
            constant_sweep(v, None, w,
                           WeightConfig(s_values=(1e100, 1e101, 1e103)))


def test_exp_factor_range(eigen_setup):
    # e^{2 s theta} lies in [0, 1]: theta < 0, underflow clamps to exact zero
    ctx, _, v, w = eigen_setup
    s_big = 64.0 / w.M
    from parastab.carleman import _exp_factor
    theta = w.theta1_shift[:, 1:-1]
    ef = _exp_factor(theta, s_big, np.empty_like(theta), np.empty_like(theta))
    assert np.all(ef >= 0.0) and np.all(ef <= 1.0)
    assert np.any(ef == 0.0)     # the clamp engages near the endpoints
    assert np.any(ef > 0.0)


def test_sweep_row_is_frozen():
    row = SweepRow(1.0, 0, 1.0, 1.0, 1.0, "exp_weighted", 1.0, 0.25)
    with pytest.raises(Exception):
        row.s = 2.0
