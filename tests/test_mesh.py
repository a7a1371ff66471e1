"""Grid construction: alignment of the measurement times is the hard part."""
import numpy as np
import pytest

from parastab.mesh import (SpatialDomain, TimeWindow, field_from_function,
                           make_time_window, sample_spatial, zero_field)


def test_spatial_domain_basics():
    dom = SpatialDomain(0.0, 1.0, 16)
    assert dom.h == pytest.approx(1.0 / 16)
    assert dom.points[0] == 0.0 and dom.points[-1] == 1.0
    assert dom.gamma_indices == (0, 16)
    w = dom.quad_weights
    assert w[0] == w[-1] == 0.5 * dom.h
    assert np.all(w[1:-1] == dom.h)
    assert np.sum(w) == pytest.approx(1.0)


def test_spatial_domain_rejects_bad_input():
    with pytest.raises(ValueError):
        SpatialDomain(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SpatialDomain(1.0, 0.0, 16)
    with pytest.raises(ValueError):
        SpatialDomain(0.0, 1.0, 16, gamma=("north",))


def test_single_endpoint_gamma():
    dom = SpatialDomain(0.0, 1.0, 16, gamma=("right",))
    assert dom.gamma_indices == (16,)


def test_window_requires_alignment():
    # T = 1, delta1 = 0.25, t_end = 1.5: nt = 256 misses the grid, 258 works.
    with pytest.raises(ValueError):
        TimeWindow(T=1.0, delta0=0.5, delta1=0.25, nt=256)
    win = make_time_window(1.0, 0.5, 0.25, 256)
    assert win.nt == 258
    assert win.times[win.snapshot_index] == pytest.approx(1.0)
    sl = win.window_slice
    assert win.times[sl.start] == pytest.approx(0.75)
    assert win.times[sl.stop - 1] == pytest.approx(1.25)


def test_window_alignment_survives_halving():
    coarse = make_time_window(1.0, 0.5, 0.25, 256)
    fine = make_time_window(1.0, 0.5, 0.25, 2 * coarse.nt)
    assert fine.nt == 2 * coarse.nt


def test_shifted_window_geometry():
    win = make_time_window(1.0, 0.5, 0.25, 60)
    shifted = win.shifted()
    assert shifted.T == pytest.approx(win.delta1)
    assert shifted.t_end == pytest.approx(2 * win.delta1)
    assert shifted.k == pytest.approx(win.k)
    sl = win.window_slice
    assert shifted.nt == sl.stop - 1 - sl.start
    # snapshot of the shifted frame is the middle of the window
    assert shifted.times[shifted.snapshot_index] == pytest.approx(win.delta1)


def test_delta1_cannot_exceed_bounds():
    with pytest.raises(ValueError):
        make_time_window(1.0, 0.5, 0.75, 64)   # delta1 > delta0
    with pytest.raises(ValueError):
        make_time_window(0.2, 0.5, 0.3, 64)    # delta1 > T


def test_window_search_rejects_nonfinite_horizons():
    # checked before the search, which would otherwise round inf or nan
    # grid positions into integers
    with pytest.raises(ValueError, match="delta1"):
        make_time_window(1.0, 0.5, float("inf"), 8)
    with pytest.raises(ValueError, match="T \\+ delta0"):
        make_time_window(1e308, 1e308, 1e308, 8)


def test_index_of_rejects_off_grid_times():
    win = make_time_window(1.0, 0.5, 0.25, 60)
    assert win.index_of(1.0) == win.snapshot_index
    with pytest.raises(ValueError):
        win.index_of(1.0 + 0.37 * win.k)


def test_field_shape_and_sampling():
    dom = SpatialDomain(0.0, 1.0, 16)
    win = make_time_window(1.0, 0.5, 0.25, 24)
    fld = field_from_function(dom, win, lambda x, t: x * t)
    assert fld.values.shape == (17, win.nt + 1)
    assert fld.values[3, 5] == pytest.approx(dom.points[3] * win.times[5])
    assert np.all(zero_field(dom, win).values == 0.0)
    g = sample_spatial(dom, lambda x: 2.0)
    assert g.shape == (17,) and np.all(g == 2.0)


def test_field_rejects_nonfinite():
    dom = SpatialDomain(0.0, 1.0, 16)
    win = make_time_window(1.0, 0.5, 0.25, 24)
    bad = np.zeros((17, win.nt + 1))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        field_from_function(dom, win, lambda x, t: bad)
