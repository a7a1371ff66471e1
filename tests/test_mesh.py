"""Grid construction: alignment of the measurement times is the hard part."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastab import mesh
from parastab.lab import make_context
from parastab.mesh import (SpatialDomain, TimeWindow, field_from_function,
                           make_time_window, sample_spatial)


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


@pytest.mark.parametrize("horizon", [1e-154, 1e-200, 1e-320, 5e-324])
def test_a_step_whose_square_underflows_is_refused(horizon):
    # refused before the search, whose float ops would warn on these
    with np.errstate(all="raise"), \
            pytest.raises(ValueError, match="square underflows"):
        make_time_window(horizon, horizon, horizon, 2)
    with pytest.raises(ValueError, match="square underflows"):
        TimeWindow(T=horizon, delta0=horizon, delta1=horizon, nt=2)


@pytest.mark.parametrize("nt, message", [
    (-5, "nt must be at least 2, got -5"), (0, "nt must be at least 2, got 0"),
    (1, "nt must be at least 2, got 1"),
    (2.7, "nt must be an integer, got 2.7"),
    (8.0, "nt must be an integer, got 8.0"),
    (True, "nt must be an integer, got True")])
def test_a_step_count_below_two_or_not_an_integer_is_refused(nt, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_time_window(1.0, 0.5, 0.25, nt)
    with pytest.raises(ValueError, match=f"^{message}$"):
        TimeWindow(T=1.0, delta0=0.5, delta1=0.25, nt=nt)


@pytest.mark.parametrize("nx, message", [
    (8.5, "nx must be an integer, got 8.5"),
    (16.0, "nx must be an integer, got 16.0"),
    (True, "nx must be an integer, got True"),
    (float("nan"), "nx must be an integer, got nan")])
def test_a_cell_count_that_is_not_an_integer_is_refused(nx, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SpatialDomain(0.0, 1.0, nx)


@pytest.mark.parametrize("name, value, got", [
    ("T", True, "True"), ("delta0", True, "True"), ("delta1", "0.25", "'0.25'"),
    ("T", None, "None"), ("delta0", 1j, "1j"), ("delta1", np.True_,
                                                  "np.True_")])
def test_a_horizon_that_is_not_a_real_number_is_refused(name, value, got):
    horizon = {"T": 1.0, "delta0": 0.5, "delta1": 0.25, name: value}
    message = f"^{name} must be a real number, got {re.escape(got)}$"
    with pytest.raises(ValueError, match=message):
        make_time_window(nt=8, **horizon)
    with pytest.raises(ValueError, match=message):
        make_context(nx=8, nt=8, **horizon)
    with pytest.raises(ValueError, match=message):
        TimeWindow(nt=8, **horizon)


def test_domain_endpoints_must_be_real_numbers():
    with pytest.raises(ValueError,
                       match="^x_left must be a real number, got True$"):
        SpatialDomain(True, 2.0, 8)
    with pytest.raises(ValueError,
                       match="^x_right must be a real number, got '1'$"):
        SpatialDomain(0.0, "1", 8)


def test_check_real_takes_numbers_and_arrays_of_them():
    for value in (1, 2.5, np.float32(1.0), np.int64(3), float("inf"),
                  np.ones(4), [1, 2.0], np.arange(3)):
        mesh.check_real("x", value)
    for value, got in ((False, "False"), (np.array([True]),
                                          "an array of bool"),
                       (["a"], "an array of <U1"), (None, "None")):
        with pytest.raises(ValueError, match=f"^x must be a real number, "
                                             f"got {got}$"):
            mesh.check_real("x", value)


def test_numpy_integer_counts_are_accepted():
    dom = SpatialDomain(0.0, 1.0, np.int64(16))
    assert dom.points.shape == (17,)
    win = make_time_window(1.0, 0.5, 0.25, np.int32(24))
    assert TimeWindow(T=1.0, delta0=0.5, delta1=0.25, nt=np.int64(win.nt)) == win


def test_field_shape_and_sampling():
    dom = SpatialDomain(0.0, 1.0, 16)
    win = make_time_window(1.0, 0.5, 0.25, 24)
    fld = field_from_function(dom, win, lambda x, t: x * t)
    assert fld.values.shape == (17, win.nt + 1)
    assert fld.values[3, 5] == pytest.approx(dom.points[3] * win.times[5])
    g = sample_spatial(dom, lambda x: 2.0)
    assert g.shape == (17,) and np.all(g == 2.0)


def test_field_rejects_nonfinite():
    dom = SpatialDomain(0.0, 1.0, 16)
    win = make_time_window(1.0, 0.5, 0.25, 24)
    bad = np.zeros((17, win.nt + 1))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        field_from_function(dom, win, lambda x, t: bad)


def _reference_nt(T, delta0, delta1, nt):
    """The one-by-one search: first count >= nt whose grid holds all three
    measurement times, or None within the search ceiling."""
    t_end = T + delta0
    for cand in range(nt, nt * mesh._NT_SEARCH_FACTOR + 1):
        k = t_end / cand
        if all(mesh._grid_index(t, k, cand) is not None
               for t in (T - delta1, T, T + delta1)):
            return cand
    return None


# decimal horizons align often, arbitrary floats almost never
_HORIZON = st.one_of(st.floats(0.01, 10.0),
                     st.integers(1, 400).map(lambda n: n / 40))


@settings(max_examples=150, deadline=None)
@given(T=_HORIZON, delta0=_HORIZON, share=st.one_of(
    st.floats(0.01, 1.0), st.integers(1, 8).map(lambda n: n / 8)),
    nt=st.integers(2, 300))
def test_blocked_window_search_matches_the_scalar_search(T, delta0, share,
                                                         nt):
    delta1 = share * min(T, delta0)
    expected = _reference_nt(T, delta0, delta1, nt)
    if expected is None:
        with pytest.raises(ValueError, match="no step count"):
            make_time_window(T, delta0, delta1, nt)
        return
    win = make_time_window(T, delta0, delta1, nt)
    assert win.nt == expected
    # the levels fixed at construction are the scalar search's
    lo, i_T, hi = (mesh._grid_index(t, win.k, win.nt)
                   for t in (T - delta1, T, T + delta1))
    assert win.snapshot_index == i_T
    assert win.window_slice == slice(lo, hi + 1)
    # and they take no part in equality, hashing or repr
    again = TimeWindow(T=T, delta0=delta0, delta1=delta1, nt=win.nt)
    assert again == win and hash(again) == hash(win)
    assert repr(win) == (f"TimeWindow(T={T!r}, delta0={delta0!r}, "
                         f"delta1={delta1!r}, nt={win.nt!r})")
