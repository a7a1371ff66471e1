"""Property tests of the Crank-Nicolson marches over random coefficients.

The reference marches below solve every time level with
scipy.linalg.solve_banded, the way the solver did before it factored each
march's step matrix once, and allocate fresh arrays at every level. The
factored marches, which work in place, must match them bit for bit and
leave the caller's arrays untouched, and the discrete duality identity must
hold to round-off, for random a > 0, b and c on random grids and either
observed boundary set. The batched adjoint march and the batched
certificate of the inverse layer must equal their one-column cases bit
for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from parastab.inverse import (InverseProblemSpec, _certificates,
                              objective_and_gradient)
from parastab.lab import make_context
from parastab.measurement import MeasurementData, observed_march
from parastab.mesh import SpaceTimeField
from parastab.norms import l2_space_inner, l2_spacetime_inner
from parastab.operator import EllipticOperator, band_mv, column_bands
from parastab.solver import (adjoint_gradients, adjoint_march,
                             adjoint_solve, adjoint_sources, cn_march,
                             forward_solve)
from test_solver import functional_value


def _reference_matrices(lower, diag, upper, kappa):
    n = diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = -kappa * upper[:-1]
    ab[1, :] = 1.0 - kappa * diag
    ab[2, :-1] = -kappa * lower[1:]
    return ab, (kappa * lower, 1.0 + kappa * diag, kappa * upper)


def _reference_mv(bands, q):
    lower, diag, upper = bands
    out = diag * q
    out[1:] += lower[1:] * q[:-1]
    out[:-1] += upper[:-1] * q[1:]
    return out


def _reference_step(ab, rhs):
    return solve_banded((1, 1), ab, rhs, check_finite=False)


def reference_forward(dop, f, g, window):
    kappa = 0.5 * window.k
    ab, plus = _reference_matrices(dop.lower, dop.diag, dop.upper, kappa)
    u = np.empty((dop.domain.nx + 1, window.nt + 1))
    u[:, 0] = g
    for n in range(window.nt):
        rhs = _reference_mv(plus, u[:, n])
        rhs += kappa * (f.values[:, n] + f.values[:, n + 1])
        u[:, n + 1] = _reference_step(ab, rhs)
    return u


def reference_columns(dop, window, state, source, last):
    """Levels 0..last of a batched march, each column marched on its own,
    from the source samples source(n) = f^n."""
    kappa = 0.5 * window.k
    ab, plus = _reference_matrices(dop.lower, dop.diag, dop.upper, kappa)
    levels = [np.array(state)]
    for n in range(last):
        rhs = np.stack([_reference_mv(plus, col) for col in levels[-1].T], 1)
        if source is not None:
            rhs += kappa * (source(n) + source(n + 1))
        levels.append(np.stack([_reference_step(ab, col) for col in rhs.T],
                               1))
    return levels


def reference_adjoint(dop, r_T, r_Q, r_G, window):
    domain = dop.domain
    nt = window.nt
    s = np.zeros((domain.nx + 1, nt + 1))
    s += window.quad_weights[None, :] * r_Q
    s[:, window.snapshot_index] += r_T
    sl = window.window_slice
    wx = domain.quad_weights
    for row, gi in zip(r_G, domain.gamma_indices):
        s[gi, sl] += window.window_weights * row / wx[gi]
    kappa = 0.5 * window.k
    ab, plus = _reference_matrices(dop.adj_lower, dop.diag,
                                   dop.adj_upper, kappa)
    p = np.empty_like(s)
    p[:, nt] = _reference_step(ab, s[:, nt])
    for m in range(nt - 1, 0, -1):
        p[:, m] = _reference_step(ab, s[:, m] + _reference_mv(plus, p[:, m + 1]))
    p[:, 0] = s[:, 0] + _reference_mv(plus, p[:, 1])
    return p


coefficient = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def problems(draw):
    """A context with random smooth coefficients plus a payload seed."""
    nx = draw(st.integers(8, 40))
    nt = draw(st.integers(2, 60))
    gamma = draw(st.sampled_from([("left", "right"), ("left",)]))
    a0 = draw(st.floats(0.05, 3.0))
    a1 = draw(st.floats(-0.9, 0.9)) * a0
    b0, b1, c0, c1 = (draw(coefficient) for _ in range(4))
    op = EllipticOperator(a=lambda x: a0 + a1 * np.sin(3.0 * x),
                          b=lambda x: b0 + b1 * x,
                          c=lambda x: c0 + c1 * np.cos(2.0 * x))
    ctx = make_context(nx=nx, nt=nt, T=0.5, delta0=0.25, delta1=0.125,
                       op=op, gamma=gamma)
    return ctx, draw(st.integers(0, 2**32 - 1))


def payloads(ctx, seed):
    nx, nt = ctx.domain.nx, ctx.window.nt
    rng = np.random.default_rng(seed)
    sl = ctx.window.window_slice
    return (SpaceTimeField(rng.standard_normal((nx + 1, nt + 1)), ctx.domain,
                           ctx.window),
            rng.standard_normal(nx + 1),
            rng.standard_normal((nx + 1, nt + 1)),
            rng.standard_normal(nx + 1),
            rng.standard_normal((len(ctx.domain.gamma), sl.stop - sl.start)))


@settings(max_examples=60, deadline=None)
@given(problems())
def test_factored_marches_match_per_level_solves_bitwise(problem):
    ctx, seed = problem
    f, g, r_Q, r_T, r_G = payloads(ctx, seed)
    u = forward_solve(ctx.dop, f, g, ctx.window)
    assert np.array_equal(u.values, reference_forward(ctx.dop, f, g,
                                                      ctx.window))
    p = adjoint_solve(ctx.dop, r_T, SpaceTimeField(r_Q, ctx.domain,
                                                   ctx.window),
                      r_G, ctx.window)
    assert np.array_equal(p.values, reference_adjoint(ctx.dop, r_T, r_Q, r_G,
                                                      ctx.window))


@settings(max_examples=60, deadline=None)
@given(problems())
def test_duality_identity_holds_for_random_coefficients(problem):
    ctx, seed = problem
    f, g, r_Q, r_T, r_G = payloads(ctx, seed)
    window = ctx.window
    direct = functional_value(ctx, forward_solve(ctx.dop, f, g, window), r_Q,
                              r_T, r_G)
    p = adjoint_solve(ctx.dop, r_T, SpaceTimeField(r_Q, ctx.domain, window),
                      r_G, window)
    phi, g_grad = adjoint_gradients(p)
    paired = (l2_spacetime_inner(f.values, phi.values, ctx.domain, window)
              + l2_space_inner(g, g_grad, ctx.domain))
    # Payloads are O(1) and c <= 4 bounds the growth over t_end = 0.75, so
    # round-off stays near 1e-14; the absolute floor covers draws where the
    # functional itself nearly cancels.
    assert paired == pytest.approx(direct, rel=1e-10, abs=1e-12)


def same_bits(a, b):
    """Equal down to the sign of zero, which np.array_equal ignores; a nan
    matches any nan, since its sign and payload reach no output."""
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return (a.shape == b.shape and np.array_equal(nan_a, nan_b)
            and np.array_equal(np.where(nan_a, 0.0, a).view(np.uint64),
                               np.where(nan_b, 0.0, b).view(np.uint64)))


@st.composite
def batched_marches(draw):
    """A random context, m columns of u^0 in C or F order, one of them
    possibly all +0.0 or all -0.0, and optionally source samples: level-
    varying in C order or as the F-ordered transpose of space-contiguous
    samples (the stability probe's layout), or one array at every level
    (the time-constant sources of the inverse layer)."""
    ctx, seed = draw(problems())
    m = draw(st.integers(1, 8))
    state_order = draw(st.sampled_from("CF"))
    zero_column = draw(st.sampled_from([None, 0.0, -0.0]))
    source = draw(st.sampled_from([None, "C", "F", "constant"]))
    return ctx, seed, m, state_order, zero_column, source


@settings(max_examples=60, deadline=None)
@given(batched_marches())
def test_batched_march_matches_per_column_reference_bitwise(case):
    ctx, seed, m, state_order, zero_column, source = case
    nx, window = ctx.domain.nx, ctx.window
    rng = np.random.default_rng(seed)
    state = np.asarray(rng.standard_normal((nx + 1, m)), order=state_order)
    if zero_column is not None:
        state[:, rng.integers(m)] = zero_column
    sample, samples = None, None
    if source == "C":
        samples = rng.standard_normal((window.nt + 1, nx + 1, m))

        def sample(n):
            return samples[n]
    elif source == "F":
        samples = rng.standard_normal((window.nt + 1, m, nx + 1))

        def sample(n):
            return samples[n].T
    elif source == "constant":
        samples = rng.standard_normal((nx + 1, m))

        def sample(n):
            return samples
    state_before = state.copy()
    samples_before = None if samples is None else samples.copy()

    recorded = {}

    def record(n, u):
        recorded[n] = u.copy()

    cn_march(ctx.dop, window, state, record, sample)
    reference = reference_columns(ctx.dop, window, state, sample, window.nt)
    assert sorted(recorded) == list(range(1, window.nt + 1))
    assert all(same_bits(recorded[n], reference[n]) for n in recorded)

    snapshots, traces = observed_march(ctx.dop, window, state, sample)
    sl, gamma = window.window_slice, list(ctx.domain.gamma_indices)
    assert same_bits(snapshots, reference[window.snapshot_index].T)
    assert same_bits(traces, np.stack(
        [reference[n][gamma].T for n in range(sl.start, sl.stop)], axis=2))
    # the marches work in place, but never in the caller's arrays
    assert same_bits(state, state_before)
    assert samples is None or np.array_equal(samples, samples_before)


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(1, 8),
       st.sampled_from([0.0, np.inf, np.nan]))
def test_band_product_matches_per_column_products_bitwise(problem, m,
                                                          special):
    # one pass over all columns must neither leak a term across a column
    # boundary (not even the sign of a zero or a nan) nor raise a float
    # fault that the per-column products would not
    ctx, seed = problem
    dop, kappa = ctx.dop, 0.5 * ctx.window.k
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((ctx.domain.nx + 1, m))
    special_at = rng.random(q.shape) < 0.5
    q[special_at] = np.copysign(special, q[special_at])
    _, plus = _reference_matrices(dop.lower, dop.diag, dop.upper, kappa)
    bands = column_bands(kappa * dop.lower, 1.0 + kappa * dop.diag,
                         kappa * dop.upper, m)

    def per_column():
        return np.stack([_reference_mv(plus, col) for col in q.T], 1)

    with np.errstate(all="ignore"):
        assert same_bits(band_mv(bands, q), per_column())
    faults = []
    for product in (lambda: band_mv(bands, q), per_column):
        with np.errstate(all="raise"):
            try:
                product()
                faults.append(None)
            except FloatingPointError as exc:
                faults.append(str(exc))
    assert faults[0] == faults[1]


def column_payloads(ctx, rng, m):
    """m random payload triples (r_T, r_Q, r_G); some parts are left out,
    and a terminal payload may be all -0.0."""
    nx, nt = ctx.domain.nx, ctx.window.nt
    sl = ctx.window.window_slice
    out = []
    for _ in range(m):
        r_T, r_Q, r_G = (rng.standard_normal(nx + 1),
                         rng.standard_normal((nx + 1, nt + 1)),
                         rng.standard_normal((len(ctx.domain.gamma),
                                              sl.stop - sl.start)))
        keep = rng.random(3) < 0.7
        if rng.random() < 0.2:
            r_T = np.full(nx + 1, -0.0)
        out.append((r_T if keep[0] else None,
                    r_Q if keep[1] else None,
                    r_G if keep[2] else None))
    return out


def one_adjoint(ctx, r_T, r_Q, r_G):
    field = None if r_Q is None else SpaceTimeField(r_Q, ctx.domain,
                                                    ctx.window)
    return adjoint_solve(ctx.dop, r_T, field, r_G, ctx.window)


def batched_adjoint(ctx, columns):
    return adjoint_march(ctx.dop, ctx.window, np.stack([
        adjoint_sources(ctx.dop, r_T, None if r_Q is None else SpaceTimeField(
            r_Q, ctx.domain, ctx.window), r_G, ctx.window)
        for r_T, r_Q, r_G in columns]))


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(1, 6))
def test_batched_adjoint_columns_match_adjoint_solve_bitwise(problem, m):
    ctx, seed = problem
    columns = column_payloads(ctx, np.random.default_rng(seed), m)
    p = batched_adjoint(ctx, columns)
    assert p.shape == (m, ctx.domain.nx + 1, ctx.window.nt + 1)
    for p_j, column in zip(p, columns):
        assert p_j.flags.c_contiguous
        assert same_bits(p_j, one_adjoint(ctx, *column).values)


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(1, 6))
def test_duality_identity_holds_per_batched_adjoint_column(problem, m):
    ctx, seed = problem
    rng = np.random.default_rng(seed)
    columns = column_payloads(ctx, rng, m)
    window, zeros = ctx.window, np.zeros
    nx, nt, n_gamma = ctx.domain.nx, window.nt, len(ctx.domain.gamma)
    sl = window.window_slice
    for p_j, (r_T, r_Q, r_G) in zip(batched_adjoint(ctx, columns), columns):
        f = SpaceTimeField(rng.standard_normal((nx + 1, nt + 1)), ctx.domain,
                           window)
        g = rng.standard_normal(nx + 1)
        direct = functional_value(
            ctx, forward_solve(ctx.dop, f, g, window),
            zeros((nx + 1, nt + 1)) if r_Q is None else r_Q,
            zeros(nx + 1) if r_T is None else r_T,
            zeros((n_gamma, sl.stop - sl.start)) if r_G is None else r_G)
        phi, g_grad = adjoint_gradients(SpaceTimeField(p_j, ctx.domain,
                                                       window))
        paired = (l2_spacetime_inner(f.values, phi.values, ctx.domain, window)
                  + l2_space_inner(g, g_grad, ctx.domain))
        assert paired == pytest.approx(direct, rel=1e-10, abs=1e-12)


def reference_certificate(spec, params, data, ctx):
    """The objective and gradient from a full forward solve and one adjoint
    solve, level by level."""
    window, domain = ctx.window, ctx.domain
    n = domain.nx + 1
    phi, g = params[:n].copy(), params[n:].copy()
    f = SpaceTimeField(phi[:, None] * np.ones(window.nt + 1), domain, window)
    u = forward_solve(ctx.dop, f, g, window)
    wx, ww = domain.quad_weights, window.window_weights
    r_T = u.values[:, window.snapshot_index] - data.final_snapshot
    r_G = u.values[np.array(domain.gamma_indices), window.window_slice] \
        - data.lateral_trace
    J = 0.5 * float(np.sum(wx * r_T ** 2))
    J += 0.5 * float(np.sum(ww[None, :] * r_G ** 2))
    J += 0.5 * spec.alpha_f * float(np.sum(wx * phi ** 2))
    J += 0.5 * spec.alpha_g * float(np.sum(wx * g ** 2))
    phi_adj, g_riesz = adjoint_gradients(adjoint_solve(ctx.dop, r_T, None,
                                                       r_G, window))
    grad_phi = wx * (phi_adj.values @ window.quad_weights + spec.alpha_f * phi)
    grad_g = wx * (g_riesz + spec.alpha_g * g)
    return J, np.concatenate([grad_phi, grad_g])


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(1, 5))
def test_batched_certificate_matches_each_level_bitwise(problem, levels):
    ctx, seed = problem
    rng = np.random.default_rng(seed)
    n, sl = ctx.domain.nx + 1, ctx.window.window_slice
    specs, params, datas = [], [], []
    for _ in range(levels):
        specs.append(InverseProblemSpec(alpha_f=float(rng.uniform(0.0, 10.0)),
                                        alpha_g=float(rng.uniform(0.0, 10.0))))
        params.append(rng.standard_normal(2 * n))
        # the certificate reads the snapshot and the trace, not their norms
        datas.append(MeasurementData(
            rng.standard_normal(n),
            rng.standard_normal((len(ctx.domain.gamma), sl.stop - sl.start)),
            0.0, 0.0, 0.0))
    batched = _certificates(specs, params, datas, ctx)
    for (J, grad), spec, x, data in zip(batched, specs, params, datas):
        J_one, grad_one = objective_and_gradient(spec, x, data, ctx)
        J_ref, grad_ref = reference_certificate(spec, x, data, ctx)
        assert same_bits(np.float64(J), np.float64(J_one))
        assert same_bits(np.float64(J), np.float64(J_ref))
        assert same_bits(grad, grad_one) and same_bits(grad, grad_ref)
