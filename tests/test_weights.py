"""Weight fields, derived constants, and the pointwise inequalities."""
import math

import numpy as np
import pytest

from parastab.lab import make_context
from parastab.mesh import SpatialDomain, make_time_window
from parastab.weights import (CarlemanWeights, WeightConfig, build_psi,
                              check_weight_bounds, eval_weights)


def test_psi_orientation_follows_observed_endpoints():
    right = SpatialDomain(0.0, 1.0, 16, gamma=("right",))
    left = SpatialDomain(0.0, 1.0, 16, gamma=("left",))
    both = SpatialDomain(0.0, 1.0, 16)
    x = right.points
    assert np.array_equal(build_psi(right), x + 1.0)
    assert np.array_equal(build_psi(left), 2.0 - x)
    assert np.array_equal(build_psi(both), x + 1.0)
    for dom in (right, left, both):
        psi = build_psi(dom)
        assert np.all(psi > 0.0)
        assert np.all(np.abs(np.diff(psi)) > 0.0)


def test_weight_config_validation():
    with pytest.raises(ValueError):
        WeightConfig(p=2)
    for p in (1.0, True):
        with pytest.raises(ValueError, match="^p must be an integer, got "):
            WeightConfig(p=p)
    assert WeightConfig(p=np.int64(1)).p == 1
    with pytest.raises(ValueError):
        WeightConfig(boundary_weighting="raw")
    with pytest.raises(ValueError):
        WeightConfig(s_values=(1.0, 1.0))
    with pytest.raises(ValueError):
        WeightConfig(s_values=(2.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        WeightConfig(s_values=(1e308, float("inf")))
    with pytest.raises(ValueError, match="factor 8"):
        WeightConfig(s_values=(1.0, 2.0, 4.0))
    with pytest.raises(ValueError, match="factor 8"):
        WeightConfig(s_values=(1.0,))
    assert WeightConfig(s_values=(1, 8)).s_values == (1.0, 8.0)
    for s in (True, "1"):
        with pytest.raises(ValueError, match="^s value must be a real "
                                             "number, got "):
            WeightConfig(s_values=(s, 8.0))


def test_eval_weights_refuses_a_lam_that_is_not_a_real_number():
    ctx = make_context(nx=16, nt=64)
    with pytest.raises(ValueError,
                       match="^lam must be a real number, got True$"):
        eval_weights(True, ctx.window, ctx.domain)


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan")])
def test_eval_weights_refuses_a_nonpositive_lam(lam):
    ctx = make_context(nx=16, nt=64)
    with pytest.raises(ValueError, match="^lam must be positive$"):
        eval_weights(lam, ctx.window, ctx.domain)


def test_overflowing_weight_amplitude_is_refused():
    # lam = 200 on psi in [1, 2]: e^{2 lam sup psi} = e^800 overflows
    ctx = make_context(nx=16, nt=32)
    with pytest.raises(ValueError, match="^lambda=200.0 overflows"):
        eval_weights(200.0, ctx.window, ctx.domain)
    # finite amplitude, but M = (e^{2 lam sup psi} - e^{lam sup psi}) /
    # delta1^2 overflows on a narrow window
    narrow = make_time_window(1.0, 0.5, 1.0 / 512, 768)
    dom = SpatialDomain(0.0, 1.0, 16)
    with pytest.raises(ValueError, match=r"M = inf"):
        eval_weights(177.0, narrow, dom)


def test_time_factor_arithmetic():
    # l1(t) = delta1^2 - (t - delta1)^2 on (0, 2 delta1): at the midpoint
    # t = delta1 = 0.25 it is exactly delta1^2 = 0.0625
    ctx = make_context(nx=16, nt=36)
    w = eval_weights(1.0, ctx.window, ctx.domain)
    mid = w.shifted_window.snapshot_index
    d1 = w.shifted_window.delta1
    assert d1 == ctx.window.delta1
    assert w.l1_shift[mid] == d1 * d1 == 0.0625
    assert np.all(w.l1_shift[1:-1] > 0.0)
    assert w.l1_shift[0] == 0.0 and w.l1_shift[-1] == 0.0


def test_rho_example_value():
    # psi(0) = 1 at lam = 1: rho1 there at the midpoint is e / delta1^2
    ctx = make_context(nx=16, nt=36)
    w = eval_weights(1.0, ctx.window, ctx.domain)
    mid = w.shifted_window.snapshot_index
    assert w.rho1_shift[0, mid] == math.e / ctx.window.delta1**2


def test_m_formula_at_wide_window():
    # lam=1, sup psi = 2, delta1 = 0.5: M = (e^4 - e^2)/0.25
    win = make_time_window(1.0, 0.5, 0.5, 36)
    dom = SpatialDomain(0.0, 1.0, 16)
    w = eval_weights(1.0, win, dom)
    assert w.M == pytest.approx((math.exp(4) - math.exp(2)) / 0.25, rel=1e-13)
    assert w.M == pytest.approx(188.83, rel=1e-3)


def test_constants_ordering_and_positivity():
    ctx = make_context(nx=32, nt=60)
    w = eval_weights(1.3, ctx.window, ctx.domain)
    assert 0.0 < w.M < w.c1
    gap = (math.exp(1.3 * w.psi_sup) - math.exp(1.3 * np.min(w.psi)))
    assert w.c1 - w.M == pytest.approx(gap / ctx.window.delta1**2, rel=1e-12)


def test_theta_negative_and_nan_at_endpoints():
    ctx = make_context(nx=16, nt=36)
    w = eval_weights(1.0, ctx.window, ctx.domain)
    for field in (w.rho1_shift, w.theta1_shift):
        assert np.all(np.isnan(field[:, 0])) and np.all(np.isnan(field[:, -1]))
    assert np.all(w.theta1_shift[:, 1:-1] < 0.0)
    assert np.all(w.rho1_shift[:, 1:-1] > 0.0)


def test_shifted_theta_bound_is_exact():
    # the acceptance configuration: lam=1, psi=x+1, delta1=0.25
    ctx = make_context(nx=64, nt=256)
    w = eval_weights(1.0, ctx.window, ctx.domain)
    rep = check_weight_bounds(w)
    assert rep.theta_shift_excess == 0.0          # attained, never exceeded
    assert rep.midline_deficit == 0.0             # theta(., delta1) >= -c1
    assert rep.theta_all_negative
    assert rep.monotone_in_time


def test_dt_theta_quotient_matches_direct_grid_sweep():
    ctx = make_context(nx=24, nt=48)
    w = eval_weights(1.0, ctx.window, ctx.domain)
    rep = check_weight_bounds(w)
    # independent sweep: |N| |l'| e^{-2 lam psi} over interior shifted nodes
    sw = w.shifted_window
    best = 0.0
    for i, psi_i in enumerate(w.psi):
        n_abs = abs(math.exp(psi_i) - math.exp(2.0 * w.psi_sup))
        for j in range(1, sw.nt):
            slope = abs(2.0 * (ctx.window.delta1 - sw.times[j]))
            best = max(best, n_abs * slope * math.exp(-2.0 * psi_i))
    assert rep.dt_theta_ratio_sup == pytest.approx(best, rel=1e-12)
    assert np.isfinite(rep.dt_theta_ratio_sup)


def test_dt_theta_quotient_mesh_stable():
    a = check_weight_bounds(eval_weights(1.0, *_grids(64, 258)))
    b = check_weight_bounds(eval_weights(1.0, *_grids(128, 516)))
    rel = abs(a.dt_theta_ratio_sup - b.dt_theta_ratio_sup) / a.dt_theta_ratio_sup
    assert rel < 0.10


def _grids(nx, nt):
    ctx = make_context(nx=nx, nt=nt)
    return ctx.window, ctx.domain


def test_weighted_powers_vanish_toward_endpoints():
    # (s rho)^m e^{2 s theta} at the first/last interior node shrinks under
    # refinement, for every power m: the exponential beats 1/l
    def corner_value(nt, m):
        win, dom = _grids(16, nt)
        w = eval_weights(1.0, win, dom)
        s = 4.0 / w.M
        vals = []
        for j in (1, w.shifted_window.nt - 1):
            sr = s * w.rho1_shift[:, j]
            expo = 2.0 * s * w.theta1_shift[:, j]
            vals.append(float(np.max(sr**m * np.exp(np.maximum(expo, -745)))))
        return max(vals)

    for m in (0, 1, 4):
        coarse = corner_value(36, m)
        fine = corner_value(72, m)
        assert fine < coarse
        assert fine < 1e-8
