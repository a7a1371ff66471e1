"""Forward/adjoint marching: manufactured convergence, exact discrete
duality, mass conservation, the window restriction, and the failure paths."""
import dataclasses

import numpy as np
import pytest

from parastab.lab import make_context
from parastab.mesh import (SpaceTimeField, field_from_function, sample_spatial,
                           zero_field)
from parastab.norms import l2_space_inner, l2_spacetime_inner
from parastab.operator import EllipticOperator
from parastab.solver import (adjoint_gradients, adjoint_solve, cn_march,
                             forward_solve, time_derivative, time_shift)

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

    cn_march(ctx.dop, ctx.window, g, record,
             lambda n: f.values[:, n] + f.values[:, n + 1], _last_level=last)
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
    f = zero_field(other.domain, other.window)
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
                              adj_lower=zero, adj_diag=diag, adj_upper=zero)
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
