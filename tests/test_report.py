"""The CSV writers: the block writer of all-float tables spells every cell
as repr does, byte for byte, the mixed-table writer spells floats through
fmt the same way, and the forward field round-trips exactly through
forward.csv."""
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parastab import report, shortest
from parastab.admissible import make_admissible_pair
from parastab.cli import main
from parastab.lab import make_context
from parastab.solver import forward_solve


def _reference_fmt(value) -> str:
    """fmt of a float as written before the float tables were streamed."""
    v = float(value)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def _reference_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_reference_fmt(cell) for cell in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _signed(values):
    return st.tuples(values, st.booleans()).map(
        lambda vs: -vs[0] if vs[1] else vs[0])


_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
             2.2250738585072014e-308, 2.225073858507201e-308,
             1.7976931348623157e308, 1e-300, 123.0, -4096.0, 0.1]
_TENS = [10.0 ** k for k in range(-12, 18)]
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_SPECIALS),
    # raw 64-bit patterns: every exponent, every mantissa, nan payloads
    st.integers(0, 2 ** 64 - 1).map(
        lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
    # powers of two, whose gap below is half the gap above
    _signed(st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e))),
    # 10**k and its neighbours, where a log10 estimate is off by one
    _signed(st.tuples(st.sampled_from(_TENS), st.sampled_from(
        [-math.inf, 0.0, math.inf])).map(
            lambda vt: float(np.nextafter(vt[0], vt[1]))
            if vt[1] != 0.0 else vt[0])),
    # both sides of the switches to e-notation at 1e-4 and 1e16
    _signed(st.floats(9.99e-5, 1.001e-4) | st.floats(9.99e15, 1.001e16)),
    # integer values, up to and past 2**53
    st.integers(-10 ** 17, 10 ** 17).map(float),
    # the band below the kernel's 2**-37 that repr spells, and
    # three-digit exponents, subnormals and short decimals
    _signed(st.floats(1e-40, 1e-11)),
    _signed(st.floats(1e100, 1e308) | st.floats(5e-324, 1e-100)),
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-20, 20)).map(
        lambda me: float(f"{me[0]}e{me[1]}")),
    st.floats(-1e-5, 1e-5) | st.floats(-1e16, 1e16))
_MATRICES = hnp.arrays(np.float64,
                       st.tuples(st.integers(0, 12), st.integers(1, 9)),
                       elements=_FLOATS)


@settings(max_examples=300, deadline=None)
@given(_MATRICES, st.integers(1, 20))
def test_float_table_matches_the_fmt_path_bytewise(tmp_path_factory, table,
                                                   cells):
    # blocks of a few cells put block edges inside rows and across rows
    path = str(tmp_path_factory.mktemp("t") / "table.csv")
    header = [f"c{j}" for j in range(table.shape[1])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "CELLS", cells)
        report._write_floats(path, header, table)
    assert _read(path) == _reference_bytes(header, table)
    # the mixed-table spelling: fmt over numpy cells
    report._write_table(path, header, table)
    assert _read(path) == _reference_bytes(header, table)
    assert all(report.fmt(v) == _reference_fmt(v) for v in table.flat)


def test_edge_values_are_repr_bytewise(tmp_path):
    # every power of two, each 10**k with its neighbours, the notation
    # switches and the ends of the kernel's range, of both signs
    edges = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        10.0 ** np.arange(-40, 23),
        [1e-4, 1e16, 2.0 ** 53, 2.0 ** -127, 2.0 ** -126, 2.0 ** -37,
         2.0 ** -36, 2.0 ** 51, 2.0 ** 52]])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, np.inf)])
    table = np.concatenate([edges, -edges]).reshape(-1, 6)
    path = str(tmp_path / "edges.csv")
    header = [f"c{j}" for j in range(6)]
    report._write_floats(path, header, table)
    assert _read(path) == _reference_bytes(header, table)


@pytest.mark.parametrize("shape", [(3, shortest.CELLS + 7),
                                   (shortest.CELLS // 3 + 5, 3)],
                         ids=["wider-than-a-block", "taller-than-a-block"])
def test_tables_larger_than_a_block_are_repr_bytewise(tmp_path, shape):
    rng = np.random.default_rng(11)
    table = rng.integers(0, 2 ** 64, size=shape,
                         dtype=np.uint64).view(np.float64)
    table[::2] = rng.lognormal(0.0, 8.0, size=table[::2].shape)
    path = str(tmp_path / "big.csv")
    header = [f"c{j}" for j in range(shape[1])]
    report._write_floats(path, header, table)
    assert _read(path) == _reference_bytes(header, table)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.data())
def test_profile_table_is_cut_to_its_shortest_column(tmp_path_factory, nt,
                                                     nn, nc, data):
    times, norms, chord = (data.draw(hnp.arrays(np.float64, n,
                                                elements=_FLOATS))
                           for n in (nt, nn, nc))
    path = str(tmp_path_factory.mktemp("p") / "profile.csv")
    report.write_profile_csv(path, times, norms, chord)
    assert _read(path) == _reference_bytes(["t", "z_norm", "chord"],
                                           zip(times, norms, chord))


def test_zero_row_tables_are_the_header_alone(tmp_path):
    path = str(tmp_path / "empty.csv")
    report._write_floats(path, ["a", "b"], np.empty((0, 2)))
    assert _read(path) == b"a,b\n"
    # a drift operator leaves norms and chord empty while times is not
    report.write_profile_csv(path, np.linspace(0.0, 1.0, 5), np.empty(0),
                             np.empty(0))
    assert _read(path) == b"t,z_norm,chord\n"


def test_reconstruction_table_matches_the_fmt_path(tmp_path):
    x = np.linspace(0.0, 1.0, 9)
    cols = (x, np.cos(np.pi * x), -0.0 * x, np.full(9, 1e-320), x ** 40)
    path = str(tmp_path / "rec.csv")
    report.write_reconstruction_csv(path, *cols)
    assert _read(path) == _reference_bytes(
        ["x", "phi_true", "g_true", "phi_est", "g_est"], zip(*cols))


def test_forward_csv_round_trips_the_field_bit_for_bit(tmp_path):
    out = str(tmp_path / "fwd")
    assert main(["forward", "--nx", "16", "--nt", "64", "--out", out]) == 0
    ctx = make_context(nx=16, nt=64)
    pair = make_admissible_pair(ctx, f=None,
                                g=np.cos(np.pi * ctx.domain.points))
    u = forward_solve(ctx.dop, pair.f, pair.g, ctx.window).values
    lines = _read(os.path.join(out, "forward.csv")).decode().splitlines()
    w = ctx.window
    assert lines[0] == (f"h={ctx.domain.h!r},k={w.k!r},T={w.T!r},"
                        f"delta0={w.delta0!r},delta1={w.delta1!r}")
    # one row per time level, one column per space node
    parsed = np.array([[float(cell) for cell in line.split(",")]
                       for line in lines[1:]])
    assert parsed.shape == (w.nt + 1, ctx.domain.nx + 1)
    # compared as integers, so the sign of -0.0 counts too
    assert np.array_equal(parsed.view(np.int64), u.T.view(np.int64))


@pytest.fixture
def fallback_calls(monkeypatch):
    """The values that the kernel's repr fallback spells during a test."""
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(shortest, "fallback_cell", counted)
    return calls


def test_cells_outside_the_kernel_are_spelled_by_the_fallback(
        tmp_path, fallback_calls):
    outside = [0.0, -0.0, math.nan, math.inf, 5e-324, 1e-39, 1e16, 1e300,
               -1e-38, 6.123233995736766e-17, math.nextafter(2 ** -37, 0)]
    inside = [0.5, 2.2e15, 0.1, 2 ** -37]
    table = np.array([outside + inside])
    header = [f"c{j}" for j in range(table.shape[1])]
    path = str(tmp_path / "t.csv")
    report._write_floats(path, header, table)
    assert _read(path) == _reference_bytes(header, table)
    assert np.array_equal(fallback_calls, outside, equal_nan=True)


@pytest.mark.parametrize("argv, share", [
    (["--nx", "64", "--nt", "256", "--T", "1", "--delta0", "0.5",
      "--g", "eigenmode:1"], 0.02),
    (["--nx", "256", "--nt", "2048", "--g", "eigenmode:1:1.3"], 0.01),
], ids=["readme", "benchmark"])
def test_few_forward_cells_fall_back_to_repr(tmp_path, fallback_calls, argv,
                                             share):
    # repr spells only the cells below the kernel's 2**-37, such as the
    # column at x = 1/2 near 1e-17 (1.5% of the README field's cells, 0.4%
    # of the benchmark's); a kernel that sent a class of in-range cells to
    # repr would fail here
    out = str(tmp_path / "fwd")
    assert main(["forward", *argv, "--out", out]) == 0
    lines = _read(os.path.join(out, "forward.csv")).splitlines()[1:]
    cells = len(lines) * (lines[0].count(b",") + 1)
    assert all(abs(v) < 2 ** -37 for v in fallback_calls)
    assert len(fallback_calls) < share * cells
