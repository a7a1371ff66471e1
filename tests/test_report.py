"""The one CSV writer: repr cells of float tables equal fmt cells byte for
byte, and the forward field round-trips exactly through forward.csv."""
import math
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parastab import report
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


_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
             2.2250738585072014e-308, 1e16, -1e16, 1.7976931348623157e308,
             1e-5, -1e-5, 1e-300, 123.0, -4096.0, 0.1]
_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_SPECIALS),
    st.integers(-10 ** 17, 10 ** 17).map(float),
    st.floats(1e16, 1e300) | st.floats(-1e-5, 1e-5))
_MATRICES = hnp.arrays(np.float64,
                       st.tuples(st.integers(0, 6), st.integers(1, 6)),
                       elements=_CELLS)


@settings(max_examples=200, deadline=None)
@given(_MATRICES)
def test_float_table_matches_the_fmt_path_bytewise(tmp_path_factory, table):
    path = str(tmp_path_factory.mktemp("t") / "table.csv")
    header = [f"c{j}" for j in range(table.shape[1])]
    # the float-table spelling: repr over Python floats
    report._write_table(path, header, report._float_rows(table), repr)
    assert _read(path) == _reference_bytes(header, table)
    # the mixed-table spelling: fmt over numpy cells
    report._write_table(path, header, table)
    assert _read(path) == _reference_bytes(header, table)
    assert all(report.fmt(v) == _reference_fmt(v) for v in table.flat)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.data())
def test_profile_table_is_cut_to_its_shortest_column(tmp_path_factory, nt,
                                                     nn, nc, data):
    times, norms, chord = (data.draw(hnp.arrays(np.float64, n,
                                                elements=_CELLS))
                           for n in (nt, nn, nc))
    path = str(tmp_path_factory.mktemp("p") / "profile.csv")
    report.write_profile_csv(path, times, norms, chord)
    assert _read(path) == _reference_bytes(["t", "z_norm", "chord"],
                                           zip(times, norms, chord))


def test_zero_row_tables_are_the_header_alone(tmp_path):
    path = str(tmp_path / "empty.csv")
    report._write_table(path, ["a", "b"], report._float_rows(np.empty((0, 2))),
                        repr)
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
