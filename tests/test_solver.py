"""Forward/adjoint marching: second-order convergence on the heat
eigenmode and on manufactured solutions over drawn coefficients and
sources, exact discrete duality, mass conservation, the window
restriction, and the failure paths."""
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastab import solver
from parastab.lab import make_context
from parastab.measurement import observed_march
from parastab.mesh import SpaceTimeField, field_from_function, sample_spatial
from parastab.norms import l2_space_inner, l2_spacetime_inner
from parastab.operator import EllipticOperator
from parastab.probes import _source_combined_norms
from parastab.solver import (adjoint_gradients, adjoint_march,
                             adjoint_solve, adjoint_sources, cn_march,
                             forward_solve, solve_banded, time_derivative,
                             time_shift)

GENERAL_OP = EllipticOperator(a=lambda x: 1.0 + 0.3 * np.sin(np.pi * x),
                              b=lambda x: 0.4 * np.cos(x),
                              c=lambda x: x - 0.5)


def eigenmode_error(nx, nt):
    ctx = make_context(nx=nx, nt=nt)
    g = sample_spatial(ctx.domain, lambda x: np.cos(np.pi * x))
    u = forward_solve(ctx.dop, None, g, ctx.window)
    exact = (np.exp(-np.pi**2 * ctx.window.times)[None, :]
             * np.cos(np.pi * ctx.domain.points)[:, None])
    return float(np.max(np.abs(u.values - exact)))


def test_eigenmode_second_order_convergence():
    coarse = eigenmode_error(32, 60)
    fine = eigenmode_error(64, 120)
    assert coarse < 5e-3
    assert 3.5 < coarse / fine < 4.5


# the cosine modes m of a manufactured solution: u_x vanishes at 0 and 1
_MODES = np.arange(4)
_AMPLITUDE = st.tuples(st.floats(0.25, 1.0), st.booleans()).map(
    lambda drawn: drawn[0] if drawn[1] else -drawn[0])
_TIME_FACTORS = st.tuples(*(st.tuples(_AMPLITUDE, st.floats(0.0, 2.0),
                                      st.floats(-1.0, 1.0),
                                      st.floats(0.0, 3.0))
                            for _ in _MODES))


def manufactured(a0, a1, b0, c0, c1, factors):
    """The operator a = a0 + a1 sin(pi x), b = b0 cos x, c = c0 + c1 x, and
    fields(x, t) -> (u, u_t, f) of u = sum_m T_m(t) cos(m pi x) with
    T_m = p e^(-q t) + r sin(s t) per (p, q, r, s) of factors, and
    f = u_t - (a u_x)_x - b u_x - c u in closed form."""
    p, q, r, s = (np.array(col)[:, None] for col in zip(*factors))
    wave = _MODES * np.pi

    def fields(x, t):
        decay, phase = np.exp(-q * t), s * t
        tm = p * decay + r * np.sin(phase)
        dtm = -q * p * decay + r * s * np.cos(phase)
        cos, sin = np.cos(np.outer(x, wave)), np.sin(np.outer(x, wave))
        u, ut = cos @ tm, cos @ dtm
        ux, uxx = -(sin * wave) @ tm, -(cos * wave ** 2) @ tm
        a = (a0 + a1 * np.sin(np.pi * x))[:, None]
        ax = (a1 * np.pi * np.cos(np.pi * x))[:, None]
        b, c = (b0 * np.cos(x))[:, None], (c0 + c1 * x)[:, None]
        return u, ut, ut - (a * uxx + (ax + b) * ux + c * u)

    op = EllipticOperator(a=lambda x: a0 + a1 * np.sin(np.pi * x),
                          b=lambda x: b0 * np.cos(x),
                          c=lambda x: c0 + c1 * x)
    return op, fields


def manufactured_errors(op, fields, nx):
    """Max errors of the march with nt = 4 nx against the manufactured u:
    over the field, the snapshot, the lateral trace, and the time
    derivative on the shifted frame (the field the audit differentiates)."""
    ctx = make_context(nx=nx, nt=4 * nx, T=0.5, delta0=0.5, delta1=0.25,
                       op=op)
    window = ctx.window
    u, ut, f = fields(ctx.domain.points, window.times)
    num = forward_solve(ctx.dop, SpaceTimeField(f, ctx.domain, window),
                        u[:, 0], window)
    sl, gamma = window.window_slice, np.array(ctx.domain.gamma_indices)
    snapshot = num.values[:, window.snapshot_index]
    shifted_ut = time_derivative(time_shift(num)).values
    return np.array([
        np.max(np.abs(num.values - u)),
        np.max(np.abs(snapshot - u[:, window.snapshot_index])),
        np.max(np.abs(num.values[gamma, sl] - u[gamma, sl])),
        np.max(np.abs(shifted_ut - ut[:, sl]))])


# derandomized, so every run draws the same 50 cases: a search of 1,500
# draws found one still pre-asymptotic at nx = 16, a = 2, b = -0.5 cos x,
# c = 0 and u = -(1 + cos(pi x) + cos(2 pi x)/2 + e^-t cos(3 pi x)), whose
# field ratio reads 4.54 at 16/32 and 4.00 at 32/64
@settings(max_examples=50, deadline=None, derandomize=True)
@given(a0=st.floats(0.5, 2.0), a1=st.floats(-0.45, 0.45),
       b0=st.floats(-1.0, 1.0), c0=st.floats(-1.0, 1.0),
       c1=st.floats(-1.0, 1.0), factors=_TIME_FACTORS)
def test_manufactured_solutions_converge_at_second_order(a0, a1, b0, c0, c1,
                                                         factors):
    # a >= 0.05 stays above ELLIPTICITY_LOWER_BOUND; a scratch study of
    # 200 such draws read ratios 3.70-4.21 on the shifted frame
    op, fields = manufactured(a0, a1, b0, c0, c1, factors)
    errors = [manufactured_errors(op, fields, nx) for nx in (16, 32, 64)]
    for coarse, fine in zip(errors, errors[1:]):
        ratios = coarse / fine
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_initial_value_installed_exactly():
    ctx = make_context(nx=16, nt=24)
    g = sample_spatial(ctx.domain, lambda x: np.sin(3 * x) + x)
    u = forward_solve(ctx.dop, None, g, ctx.window)
    assert np.array_equal(u.values[:, 0], g)


def test_constant_state_is_preserved():
    ctx = make_context(nx=24, nt=36)
    u = forward_solve(ctx.dop, None, np.ones(25), ctx.window)
    assert np.max(np.abs(u.values - 1.0)) < 1e-12


def test_zero_data_gives_zero_solution():
    ctx = make_context(nx=16, nt=24)
    u = forward_solve(ctx.dop, None, None, ctx.window)
    assert np.all(u.values == 0.0)


def test_mass_conserved_without_reaction_or_source():
    # trapezoid mass of the Neumann semidiscretization telescopes exactly
    ctx = make_context(nx=32, nt=48,
                       op=EllipticOperator(a=lambda x: 1.0 + 0.5 * x))
    rng = np.random.default_rng(11)
    g = rng.standard_normal(33)
    u = forward_solve(ctx.dop, None, g, ctx.window)
    w = ctx.domain.quad_weights
    mass = w @ u.values
    assert np.max(np.abs(mass - mass[0])) < 1e-12 * max(1.0, abs(mass[0]))


def functional_value(ctx, u, r_Q, r_T, r_G):
    sl = ctx.window.window_slice
    ww = ctx.window.window_weights
    total = l2_spacetime_inner(u.values, r_Q, ctx.domain, ctx.window)
    total += l2_space_inner(u.values[:, ctx.window.snapshot_index], r_T,
                            ctx.domain)
    for row, gi in zip(r_G, ctx.domain.gamma_indices):
        total += float(np.sum(ww * row * u.values[gi, sl]))
    return total


@pytest.mark.parametrize("seed", range(10))
def test_discrete_duality_identity(seed):
    ctx = make_context(nx=24, nt=36, op=GENERAL_OP)
    nx, nt = ctx.domain.nx, ctx.window.nt
    rng = np.random.default_rng(100 + seed)
    f = SpaceTimeField(rng.standard_normal((nx + 1, nt + 1)), ctx.domain,
                       ctx.window)
    g = rng.standard_normal(nx + 1)
    r_Q = rng.standard_normal((nx + 1, nt + 1))
    r_T = rng.standard_normal(nx + 1)
    sl = ctx.window.window_slice
    r_G = rng.standard_normal((2, sl.stop - sl.start))

    u = forward_solve(ctx.dop, f, g, ctx.window)
    direct = functional_value(ctx, u, r_Q, r_T, r_G)

    p = adjoint_solve(ctx.dop, r_T,
                      SpaceTimeField(r_Q, ctx.domain, ctx.window), r_G,
                      ctx.window)
    phi, g_grad = adjoint_gradients(p)
    paired = (l2_spacetime_inner(f.values, phi.values, ctx.domain, ctx.window)
              + l2_space_inner(g, g_grad, ctx.domain))
    assert paired == pytest.approx(direct, rel=1e-10)


def test_adjoint_payloads_are_optional():
    ctx = make_context(nx=16, nt=24)
    r_T = sample_spatial(ctx.domain, lambda x: x)
    p = adjoint_solve(ctx.dop, r_T, None, None, ctx.window)
    assert p.values.shape == (17, ctx.window.nt + 1)
    with pytest.raises(ValueError):
        adjoint_solve(ctx.dop, np.ones(5), None, None, ctx.window)


def test_stopped_march_is_a_prefix_of_the_full_one():
    ctx = make_context(nx=16, nt=36, op=GENERAL_OP)
    f = field_from_function(ctx.domain, ctx.window,
                            lambda x, t: np.cos(np.pi * x) * (1.0 + t))
    g = sample_spatial(ctx.domain, lambda x: np.sin(3 * x) + x)
    full = forward_solve(ctx.dop, f, g, ctx.window).values
    last = ctx.window.window_slice.stop - 1
    levels = []

    def record(n, state):
        levels.append(n)
        assert np.array_equal(state, full[:, n])

    # exactly the samples f^0..f^last, so a read past the last level raises
    samples = list(f.values[:, :last + 1].T)
    cn_march(ctx.dop, ctx.window, g, record, samples.__getitem__,
             _last_level=last)
    assert levels == list(range(1, last + 1)) and last < ctx.window.nt


def test_time_shift_copies_window_columns_bit_exactly():
    ctx = make_context(nx=16, nt=36)
    u = forward_solve(ctx.dop, None,
                      sample_spatial(ctx.domain, lambda x: np.cos(np.pi * x)),
                      ctx.window)
    shifted = time_shift(u)
    sl = ctx.window.window_slice
    assert np.array_equal(shifted.values, u.values[:, sl])
    assert shifted.window.T == pytest.approx(ctx.window.delta1)
    # the snapshot column of the original frame is the midpoint of the new one
    assert np.array_equal(shifted.values[:, shifted.window.snapshot_index],
                          u.values[:, ctx.window.snapshot_index])


def test_time_derivative_exact_on_linear_fields():
    ctx = make_context(nx=16, nt=24)
    fld = field_from_function(ctx.domain, ctx.window, lambda x, t: 2.0 * t + x)
    dv = time_derivative(fld)
    assert np.allclose(dv.values, 2.0, rtol=0, atol=1e-11)


def test_time_derivative_second_order_on_eigenmode():
    def deriv_err(nt):
        ctx = make_context(nx=16, nt=nt)
        fld = field_from_function(
            ctx.domain, ctx.window,
            lambda x, t: np.exp(-np.pi**2 * t) * np.cos(np.pi * x))
        dv = time_derivative(fld)
        return float(np.max(np.abs(dv.values + np.pi**2 * fld.values)))

    coarse, fine = deriv_err(60), deriv_err(120)
    assert 3.3 < coarse / fine < 4.7


def test_forward_rejects_mismatched_source_grid():
    ctx = make_context(nx=16, nt=24)
    other = make_context(nx=16, nt=48)
    f = SpaceTimeField(np.zeros((17, other.window.nt + 1)), other.domain,
                       other.window)
    with pytest.raises(ValueError):
        forward_solve(ctx.dop, f, None, ctx.window)


def singular_context():
    """(I - kappa A) and its adjoint are exactly zero: no couplings and
    diag = 1/kappa, with kappa = k/2 = 1/16 a power of two."""
    ctx = make_context(nx=16, nt=16, T=1.0, delta0=1.0, delta1=0.5)
    kappa = 0.5 * ctx.window.k
    assert kappa == 1.0 / 16.0
    zero = np.zeros(17)
    diag = np.full(17, 1.0 / kappa)
    dop = dataclasses.replace(ctx.dop, lower=zero, diag=diag, upper=zero,
                              adj_lower=zero, adj_upper=zero)
    return dop, ctx.window


def test_singular_step_matrix_names_the_first_solved_level():
    dop, window = singular_context()
    with pytest.raises(RuntimeError, match=r"^singular time-step system in "
                       r"forward solve at level 1$"):
        forward_solve(dop, None, np.ones(17), window)
    with pytest.raises(RuntimeError, match=r"^singular time-step system in "
                       rf"adjoint solve at level {window.nt}$"):
        adjoint_solve(dop, np.ones(17), None, None, window)


def test_overflowing_march_raises_at_level_one():
    ctx = make_context(nx=16, nt=8)
    g = 1e308 * np.cos(np.pi * ctx.domain.points)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"^non-finite iterate in "
                           r"forward solve at level 1$"):
            forward_solve(ctx.dop, None, g, ctx.window)


# Each march checks only its last state; a failed check must still name the
# first level whose iterate is not finite, as a per-level check would.
NON_FINITE = st.sampled_from([np.inf, -np.inf, np.nan])


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_an_overflowing_source_is_named_at_its_first_bad_level(data):
    # a field holds only finite values: f = 1e308 from column n - 1 on
    # makes f^{n-1} + f^n, the source of level n, overflow, while level
    # n - 1 only sees 1e308
    ctx = make_context(nx=16, nt=24)
    n = data.draw(st.integers(2, ctx.window.nt))
    values = np.zeros((17, ctx.window.nt + 1))
    values[:, n - 1:] = 1e308
    f = SpaceTimeField(values, ctx.domain, ctx.window)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            RuntimeError, match=rf"^non-finite iterate in forward solve at "
                                rf"level {n}$"):
        forward_solve(ctx.dop, f, np.ones(17), ctx.window)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_non_finite_probe_source_is_named_at_its_first_level(data):
    # the probe's batched march (observed_march) stops at the window end
    ctx = make_context(nx=16, nt=24)
    times = ctx.window.times
    n = data.draw(st.integers(1, ctx.window.window_slice.stop - 1))
    bad = data.draw(NON_FINITE)

    def member(x, t):
        return np.where(t >= times[n], bad, np.cos(np.pi * x))

    family = [(1.0, lambda x, t: np.cos(2 * np.pi * x) + 0.0 * t),
              (2.0, member)]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            RuntimeError, match=rf"^non-finite iterate in forward solve at "
                                rf"level {n}$"):
        _source_combined_norms(ctx, 0, family)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_non_finite_adjoint_payload_is_refused_before_the_march(data):
    ctx = make_context(nx=16, nt=24)
    sl = ctx.window.window_slice
    terminal, rows = np.ones(17), np.ones((2, sl.stop - sl.start))
    payload = data.draw(st.sampled_from([terminal, rows]))
    payload[tuple(data.draw(st.integers(0, n - 1))
                  for n in payload.shape)] = data.draw(NON_FINITE)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=r"^adjoint payload is not finite, or overflows "
                              r"once weighted$"):
        adjoint_solve(ctx.dop, terminal, None, rows, ctx.window)


def test_an_adjoint_payload_that_overflows_once_weighted_is_refused():
    # a step k = 4 weights the interior trace levels by 4/(1/2) = 8
    ctx = make_context(nx=16, nt=8, T=16.0, delta0=16.0, delta1=8.0)
    sl = ctx.window.window_slice
    rows = np.full((2, sl.stop - sl.start), 1e308)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"^adjoint payload is not finite"):
        adjoint_solve(ctx.dop, None, None, rows, ctx.window)


@settings(max_examples=10, deadline=None)
@given(st.integers(8, 40))
def test_an_overflowing_adjoint_march_is_named_at_its_first_level(nt):
    # a finite terminal payload whose first level, the snapshot, overflows
    ctx = make_context(nx=16, nt=nt)
    payload = 1e308 * np.cos(np.pi * ctx.domain.points)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            RuntimeError, match=rf"^non-finite iterate in adjoint solve at "
                                rf"level {ctx.window.snapshot_index}$"):
        adjoint_solve(ctx.dop, payload, None, None, ctx.window)


@pytest.mark.parametrize("solve, message", [
    (lambda ctx, other: forward_solve(ctx.dop, None, np.ones(5), ctx.window),
     r"^initial value shape \(5,\), expected \(17,\)$"),
    (lambda ctx, other: adjoint_solve(ctx.dop, None, other, None, ctx.window),
     r"^interior payload grid does not match the window$"),
    (lambda ctx, other: adjoint_solve(ctx.dop, None, None, np.ones((3, 2)),
                                      ctx.window),
     r"^boundary payload shape \(3, 2\), expected \(2, 9\)$"),
], ids=["initial", "interior", "boundary"])
def test_mismatched_shapes_are_refused(solve, message):
    ctx = make_context(nx=16, nt=24)
    other = make_context(nx=16, nt=48)
    with pytest.raises(ValueError, match=message):
        solve(ctx, SpaceTimeField(np.zeros((17, other.window.nt + 1)),
                                  other.domain, other.window))


def test_each_march_calls_solve_banded_once_per_level(monkeypatch):
    # perfbench counts solver.banded_solves by wrapping this module global,
    # so the level loop must call it, once per level
    ctx = make_context(nx=16, nt=24)
    w = ctx.window
    calls = []

    def counted(lu, rhs):
        calls.append(rhs.shape)
        return solve_banded(lu, rhs)
    monkeypatch.setattr(solver, "solve_banded", counted)
    forward_solve(ctx.dop, SpaceTimeField(np.zeros((17, w.nt + 1)),
                                          ctx.domain, w), np.ones(17), w)
    assert calls == [(17,)] * w.nt
    calls.clear()
    # the adjoint solve is the one-column case of the batched march, which
    # marches levels nt..1 when its payload reaches level nt ...
    adjoint_solve(ctx.dop, None, SpaceTimeField(np.ones((17, w.nt + 1)),
                                                ctx.domain, w), None, w)
    assert calls == [(17, 1)] * w.nt
    calls.clear()
    # ... and otherwise fills the levels above its last payload level, here
    # the snapshot, with one solve, then marches the snapshot level down
    adjoint_solve(ctx.dop, np.ones(17), None, None, w)
    assert w.snapshot_index < w.nt
    assert calls == [(17, 1)] * (1 + w.snapshot_index)
    calls.clear()
    observed_march(ctx.dop, w, np.ones((17, 3)))
    assert calls == [(17, 3)] * (w.window_slice.stop - 1)
    for m in (1, 2, 5):
        calls.clear()
        sources = np.stack([adjoint_sources(ctx.dop, np.full(17, j + 1.0),
                                            None, None, w) for j in range(m)])
        adjoint_march(ctx.dop, w, sources)
        assert calls == [(17, m)] * (1 + w.snapshot_index)


def test_a_march_of_no_columns_makes_no_lapack_solve():
    # dgttrs handed zero right-hand sides corrupts memory, so a child
    # process runs the marches: a crash fails the test instead of the
    # suite. Adjoint sources of no columns have no payload level, and the
    # one solve of the payload-free levels must not reach dgttrs either
    code = "\n".join([
        "import numpy as np",
        "from parastab import solver",
        "from parastab.lab import make_context",
        "solves, levels = [], []",
        "dgttrs = solver.dgttrs",
        "solver.dgttrs = lambda *a, **k: (solves.append(1), "
        "dgttrs(*a, **k))[1]",
        "ctx = make_context(nx=16, nt=12)",
        "solver.cn_march(ctx.dop, ctx.window, np.zeros((17, 0)),",
        "                lambda n, u: levels.append(n))",
        "p = solver.adjoint_march(ctx.dop, ctx.window,",
        "                         np.zeros((0, 17, ctx.window.nt + 1)))",
        "print(len(solves), levels, p.shape)",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "0 [] (0, 17, 13)\n"), \
        proc.stderr

