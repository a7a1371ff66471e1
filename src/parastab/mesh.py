"""Uniform space-time grids and sampled fields.

Downstream code never interpolates in time: the snapshot time T and the
lateral-window edges T - delta1, T + delta1 must be grid points, and
``make_time_window`` bumps the requested step count upward until they are.
A TimeWindow finds those three grid levels once, when it is built, and
keeps them as ``snapshot_index`` and ``window_slice``.

No float64 array of a run may hold more than MAX_ARRAY_ENTRIES entries: the
module that decides an array's shape checks it with check_array_budget
before anything is allocated (lab the field, probes and inverse theirs).
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

GAMMA_LEFT = "left"
GAMMA_RIGHT = "right"

# Relative tolerance for deciding that a time sits on the grid.
_SNAP_TOL = 1e-9
# Search ceiling of make_time_window, as a multiple of the requested nt.
_NT_SEARCH_FACTOR = 16
# Candidate step counts make_time_window tests in its first and its largest
# blocks; the largest keeps each temporary array near 1.5 MB.
_NT_BLOCK_FIRST = 8
_NT_BLOCK_MAX = 2 ** 16
# The work budget (512 MiB of float64); the README and benchmark grids
# (at most 527k entries, on 256/2048) stay far below it.
MAX_ARRAY_ENTRIES = 2 ** 26
# Columns per block of a blocked pass over a field (column_blocks): a block
# of a 257-row field is 131 kB, where the field of the 256/2048 grid is
# 4.2 MB.
_BLOCK_COLUMNS = 64


def check_integer(name: str, value) -> None:
    """Refuse a count that is not an integer; numpy integers count, bools
    do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> None:
    """Refuse a value that is not a real number or an array of them; numpy
    numbers count, bools, strings and complex numbers do not."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        got = repr(value) if arr.ndim == 0 else f"an array of {arr.dtype}"
        raise ValueError(f"{name} must be a real number, got {got}")


def check_array_budget(shapes: dict) -> None:
    """Refuse when the largest of the named shapes ({name: shape}) would
    hold more than MAX_ARRAY_ENTRIES float64 entries, naming it."""
    name, shape = max(shapes.items(), key=lambda item: math.prod(item[1]))
    entries = math.prod(shape)
    if entries > MAX_ARRAY_ENTRIES:
        raise ValueError(f"the {name} of shape {shape} would hold {entries} "
                         f"float64 entries ({8 * entries / 2 ** 30:.3g} GiB), "
                         f"above the work budget of {MAX_ARRAY_ENTRIES}")


def column_blocks(start: int, stop: int):
    """Slices that cover the columns start..stop-1 in order, each at most
    _BLOCK_COLUMNS wide; none when the range is empty."""
    return (slice(j, min(j + _BLOCK_COLUMNS, stop))
            for j in range(start, stop, _BLOCK_COLUMNS))


def blocked_max(block_max, start: int, stop: int):
    """np.max of the maxima block_max(sl) over the column_blocks of
    start..stop-1: the max of the whole range, as a max is exact in any
    grouping; nan if any block is nan; numpy's zero-size error when the
    range is empty."""
    return np.max([block_max(sl) for sl in column_blocks(start, stop)])


def median(values) -> float:
    """np.median of a nonempty sequence of floats: the middle value, or
    (a + b) / 2 of the two middle ones, as numpy computes it; nan if any
    value is nan. Only the sign of a zero middle value may differ, as the
    two order equal zeros differently. A command that calls np.median pays
    for importing numpy.ma."""
    ordered = sorted(map(float, values))
    if any(math.isnan(v) for v in ordered):
        return math.nan
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _grid_index(value: float, step: float, limit: int) -> int | None:
    """Index of `value` on {0, step, ..., limit*step}, or None if off-grid."""
    m = value / step
    idx = int(round(m))
    if idx < 0 or idx > limit:
        return None
    if abs(m - idx) > _SNAP_TOL * max(1.0, abs(m)):
        return None
    return idx


def _check_horizon(T: float, delta0: float, delta1: float) -> None:
    """0 < delta1 <= min(delta0, T), all finite, and so is T + delta0."""
    for name, v in (("T", T), ("delta0", delta0), ("delta1", delta1)):
        check_real(name, v)
    for name, v in (("T", T), ("delta0", delta0), ("delta1", delta1),
                    ("T + delta0", T + delta0)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    if delta1 > min(delta0, T) * (1.0 + 1e-12):
        raise ValueError(
            f"need 0 < delta1 <= min(delta0, T), got delta1={delta1} "
            f"with T={T}, delta0={delta0}")


def _check_nt(nt) -> None:
    """Refuse a step count that is not an integer of at least 2."""
    check_integer("nt", nt)
    if nt < 2:
        raise ValueError(f"nt must be at least 2, got {nt}")


def _check_step(t_end: float, nt: int) -> None:
    """Refuse a time step k = t_end / nt whose square underflows: second
    difference quotients divide by k*k."""
    k = t_end / nt
    if k * k < sys.float_info.min:
        raise ValueError(f"time step {t_end!r} / {nt} = {k!r} is too small: "
                         f"its square underflows the smallest normal float")


def _trapezoid_weights(n_points: int, step: float) -> np.ndarray:
    w = np.full(n_points, step)
    w[0] = 0.5 * step
    w[-1] = 0.5 * step
    return w


@dataclass(frozen=True)
class SpatialDomain:
    """One-dimensional interval with an observed boundary subset gamma."""

    x_left: float
    x_right: float
    nx: int
    gamma: tuple = (GAMMA_LEFT, GAMMA_RIGHT)

    def __post_init__(self):
        check_real("x_left", self.x_left)
        check_real("x_right", self.x_right)
        if not (np.isfinite(self.x_left) and np.isfinite(self.x_right)):
            raise ValueError("domain endpoints must be finite")
        if not self.x_right > self.x_left:
            raise ValueError(
                f"domain endpoints must be strictly ordered, got "
                f"({self.x_left}, {self.x_right})")
        check_integer("nx", self.nx)
        if self.nx < 8:
            raise ValueError(f"nx must be at least 8, got {self.nx}")
        sides = tuple(self.gamma) if not isinstance(self.gamma, str) else (self.gamma,)
        if not sides:
            raise ValueError("observed boundary set gamma must be nonempty")
        for side in sides:
            if side not in (GAMMA_LEFT, GAMMA_RIGHT):
                raise ValueError(f"unknown boundary label {side!r}")
        object.__setattr__(self, "gamma", tuple(sorted(set(sides))))

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.nx

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_left, self.x_right, self.nx + 1)

    @property
    def gamma_indices(self) -> tuple:
        """Grid indices of the observed endpoints, in gamma order."""
        return tuple(0 if s == GAMMA_LEFT else self.nx for s in self.gamma)

    @property
    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights including h; sum equals the interval length."""
        return _trapezoid_weights(self.nx + 1, self.h)


@dataclass(frozen=True)
class TimeWindow:
    """Time grid on (0, T + delta0) with measurement bookkeeping.

    T is the snapshot time, delta0 the extension past it, and delta1 the
    half-width of the lateral observation window (T - delta1, T + delta1).
    Constraint: 0 < delta1 <= min(delta0, T), and T - delta1, T, T + delta1
    all land on the grid (use make_time_window to round nt up until they do).
    Their levels are fixed here: snapshot_index is the level of T and
    window_slice the inclusive level range of the lateral window, as a
    python slice.
    """

    T: float
    delta0: float
    delta1: float
    nt: int
    snapshot_index: int = field(init=False, compare=False, repr=False)
    window_slice: slice = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_horizon(self.T, self.delta0, self.delta1)
        _check_nt(self.nt)
        _check_step(self.t_end, self.nt)
        levels = []
        for t in (self.T - self.delta1, self.T, self.T + self.delta1):
            idx = _grid_index(t, self.k, self.nt)
            if idx is None:
                raise ValueError(
                    f"t={t} is not a grid point for nt={self.nt}; "
                    f"build windows with make_time_window")
            levels.append(idx)
        lo, i_T, hi = levels
        object.__setattr__(self, "snapshot_index", i_T)
        object.__setattr__(self, "window_slice", slice(lo, hi + 1))

    @property
    def t_end(self) -> float:
        return self.T + self.delta0

    @property
    def k(self) -> float:
        return self.t_end / self.nt

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.nt + 1)

    @property
    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights including k over the full (0, T+delta0) grid."""
        return _trapezoid_weights(self.nt + 1, self.k)

    @property
    def window_weights(self) -> np.ndarray:
        """Trapezoid weights including k over the lateral window only."""
        sl = self.window_slice
        return _trapezoid_weights(sl.stop - sl.start, self.k)

    def shifted(self) -> "TimeWindow":
        """Window of the translated frame t~ = t - T + delta1 on (0, 2*delta1).

        The snapshot time T maps to t~ = delta1; the grid step is unchanged,
        so shifted fields are plain copies of window columns.
        """
        sl = self.window_slice
        return TimeWindow(T=self.delta1, delta0=self.delta1, delta1=self.delta1,
                          nt=sl.stop - 1 - sl.start)


def make_time_window(T: float, delta0: float, delta1: float, nt: int) -> TimeWindow:
    """Smallest step count >= nt that puts T-delta1, T, T+delta1 on the grid;
    nt must be an integer of at least 2."""
    _check_horizon(T, delta0, delta1)
    _check_nt(nt)
    start = int(nt)
    stop = start * _NT_SEARCH_FACTOR + 1
    t_end = T + delta0
    _check_step(t_end, start)
    targets = (T - delta1, T, T + delta1)
    t = np.array(targets)[:, None]
    # the test of _grid_index on a block of candidates at once (exact
    # float counts, rint rounds half to even like round); the blocks grow,
    # so a window that aligns within a few steps costs one small block and
    # one that never aligns is searched 2^16 counts at a time
    lo, size = start, _NT_BLOCK_FIRST
    while lo < stop:
        cand = np.arange(lo, min(lo + size, stop), dtype=float)
        m = t / (t_end / cand)
        idx = np.rint(m)
        aligned = ((np.abs(m - idx) <= _SNAP_TOL * np.maximum(1.0, np.abs(m)))
                   & (idx >= 0.0) & (idx <= cand)).all(axis=0)
        first = int(aligned.argmax())
        if aligned[first]:
            return TimeWindow(T=T, delta0=delta0, delta1=delta1,
                              nt=lo + first)
        lo, size = lo + size, min(4 * size, _NT_BLOCK_MAX)
    raise ValueError(
        f"no step count in [{start}, {start * _NT_SEARCH_FACTOR}] aligns the "
        f"measurement times {targets} with the grid on (0, {t_end})")


@dataclass(frozen=True)
class SpaceTimeField:
    """Grid samples over a space-time window, shape (nx+1, nt+1)."""

    values: np.ndarray
    domain: SpatialDomain
    window: TimeWindow

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = (self.domain.nx + 1, self.window.nt + 1)
        if vals.shape != expected:
            raise ValueError(f"field shape {vals.shape} does not match grid {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)


def sample_space_time(domain: SpatialDomain, times: np.ndarray, fn) -> np.ndarray:
    """Read-only samples of fn(x, t) on the spatial grid times the given
    times; fn must broadcast over arrays and act pointwise, so a prefix of
    the time grid yields a prefix of the full samples."""
    raw = fn(domain.points[:, None], times[None, :])
    return np.broadcast_to(np.asarray(raw, dtype=float),
                           (domain.nx + 1, times.size))


def field_from_function(domain: SpatialDomain, window: TimeWindow, fn) -> SpaceTimeField:
    """Sample fn(x, t) on the tensor grid; fn must broadcast over arrays."""
    return SpaceTimeField(sample_space_time(domain, window.times, fn).copy(),
                          domain, window)


def sample_spatial(domain: SpatialDomain, fn) -> np.ndarray:
    """Sample fn(x) on the spatial grid as a plain array."""
    return np.asarray(fn(domain.points), dtype=float) + np.zeros(domain.nx + 1)
