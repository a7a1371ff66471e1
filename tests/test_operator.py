"""Operator assembly checked against an independently built dense matrix
and the closed-form discrete eigenpairs of the constant-coefficient case,
and its refusals checked over coefficients of any magnitude."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastab.mesh import SpatialDomain
from parastab.operator import (EllipticOperator, assemble_operator, band_mv,
                               column_bands)


def dense_from_definition(domain, a_fn, b_fn, c_fn):
    """Mirror-ghost matrix written row by row, no shared code with the bands."""
    x = domain.points
    h = domain.h
    n = domain.nx
    a = np.array([a_fn(xi) for xi in x])
    b = np.array([b_fn(xi) for xi in x])
    c = np.array([c_fn(xi) for xi in x])
    ah = lambda i: 0.5 * (a[i] + a[i + 1])   # a at the half point i+1/2
    m = np.zeros((n + 1, n + 1))
    for i in range(1, n):
        m[i, i - 1] = ah(i - 1) / h**2 - b[i] / (2 * h)
        m[i, i + 1] = ah(i) / h**2 + b[i] / (2 * h)
        m[i, i] = c[i] - (ah(i - 1) + ah(i)) / h**2
    # ghost row 0: q_{-1} = q_1 and the half-cell flux closure
    m[0, 1] = 2 * ah(0) / h**2
    m[0, 0] = c[0] - 2 * ah(0) / h**2
    m[n, n - 1] = 2 * ah(n - 1) / h**2
    m[n, n] = c[n] - 2 * ah(n - 1) / h**2
    return m


A_FN = lambda x: 1.0 + 0.5 * np.sin(np.pi * x)
B_FN = lambda x: 0.7 * np.cos(2 * x) - 0.2
C_FN = lambda x: x * x - 0.4


def test_banded_apply_matches_dense_definition():
    dom = SpatialDomain(0.0, 1.0, 23)
    dop = assemble_operator(dom, EllipticOperator(a=A_FN, b=B_FN, c=C_FN))
    dense = dense_from_definition(dom, A_FN, B_FN, C_FN)
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = rng.standard_normal(24)
        assert np.allclose(dop.apply(q), dense @ q, rtol=1e-13, atol=1e-10)


def adjoint_bands(dop):
    return column_bands(dop.adj_lower, dop.diag, dop.adj_upper)


def test_adjoint_matches_weighted_transpose():
    dom = SpatialDomain(0.0, 1.0, 23)
    dop = assemble_operator(dom, EllipticOperator(a=A_FN, b=B_FN, c=C_FN))
    dense = dense_from_definition(dom, A_FN, B_FN, C_FN)
    w = dom.quad_weights
    adj_dense = (dense.T * w[None, :]) / w[:, None]
    rng = np.random.default_rng(4)
    for _ in range(5):
        q = rng.standard_normal(24)
        assert np.allclose(band_mv(adjoint_bands(dop), q), adj_dense @ q,
                           rtol=1e-13, atol=1e-10)


def test_adjoint_pairing_identity():
    dom = SpatialDomain(0.0, 1.0, 31)
    dop = assemble_operator(dom, EllipticOperator(a=A_FN, b=B_FN, c=C_FN))
    w = dom.quad_weights
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = rng.standard_normal(32)
        r = rng.standard_normal(32)
        lhs = np.sum(w * dop.apply(q) * r)
        rhs = np.sum(w * q * band_mv(adjoint_bands(dop), r))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_constant_in_kernel_when_reaction_free():
    dom = SpatialDomain(0.0, 1.0, 40)
    dop = assemble_operator(dom, EllipticOperator(a=A_FN, b=B_FN, c=0.0))
    assert np.all(dop.apply(np.ones(41)) == 0.0)


def test_variable_coefficient_against_symbolic_form():
    # (a q')' with a = 1 + x, q = x gives exactly 1 away from the walls
    dom = SpatialDomain(0.0, 1.0, 20)
    dop = assemble_operator(dom, EllipticOperator(a=lambda x: 1.0 + x))
    out = dop.apply(dom.points.copy())
    assert np.allclose(out[1:-1], 1.0, rtol=0, atol=1e-11)


def test_quadratic_against_constant_laplacian():
    dom = SpatialDomain(0.0, 1.0, 20)
    dop = assemble_operator(dom, EllipticOperator())
    out = dop.apply(dom.points**2)
    assert np.allclose(out[1:-1], 2.0, rtol=0, atol=1e-11)


def test_cosine_modes_are_exact_discrete_eigenvectors():
    # a = 1, b = 0, c = 0: cos(j pi x) has eigenvalue -4 sin^2(j pi h / 2) / h^2
    dom = SpatialDomain(0.0, 1.0, 32)
    dop = assemble_operator(dom, EllipticOperator())
    h = dom.h
    for j in (1, 2, 5, 9):
        q = np.cos(j * np.pi * dom.points)
        lam = -4.0 * np.sin(j * np.pi * h / 2.0) ** 2 / h**2
        assert np.allclose(dop.apply(q), lam * q, rtol=0, atol=1e-9)


def test_self_adjoint_flag_tracks_drift_term():
    dom = SpatialDomain(0.0, 1.0, 16)
    assert assemble_operator(dom, EllipticOperator()).self_adjoint
    assert not assemble_operator(dom, EllipticOperator(b=0.1)).self_adjoint


def test_ellipticity_failure_names_the_grid_point():
    dom = SpatialDomain(0.0, 1.0, 16)
    with pytest.raises(ValueError, match="ellipticity violated at x="):
        assemble_operator(dom, EllipticOperator(a=lambda x: x - 0.5))


def test_reaction_max_reports_peak_zeroth_order_coefficient():
    dom = SpatialDomain(0.0, 1.0, 16)
    dop = assemble_operator(dom, EllipticOperator(c=lambda x: 1.0 - x))
    assert dop.reaction_max == pytest.approx(1.0)


@pytest.mark.parametrize("fields, message", [
    ({"a": True}, "coefficient a must be a real number, got True"),
    ({"a": "1"}, "coefficient a must be a real number, got '1'"),
    ({"b": lambda x: x > 0.5},
     "coefficient b must be a real number, got an array of bool"),
    ({"c": 1j}, "coefficient c must be a real number, got 1j"),
    ({"a": np.ones(5)},
     r"coefficient a has shape \(5,\), which does not fit the grid of 17 "
     r"points"),
    ({"c": lambda x: np.ones((x.size, 2))},
     r"coefficient c has shape \(17, 2\), which does not fit the grid of "
     r"17 points")])
def test_a_coefficient_that_is_not_a_grid_of_reals_is_named(fields,
                                                           message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        assemble_operator(SpatialDomain(0.0, 1.0, 16),
                          EllipticOperator(**fields))


@st.composite
def coefficient_samples(draw):
    """A grid and samples of a, b, c: each a scalar or one value per point,
    of magnitude 1e-300 to 1e308, with nan or inf at random points."""
    nx = draw(st.integers(8, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = []
    for name in "abc":
        # half the draws within a factor 1e8 of overflow, where the bands
        # of the finest grids overflow
        exponent = draw(st.floats(-300.0, 308.0) | st.floats(300.0, 308.0))
        size = None if draw(st.booleans()) else nx + 1
        vals = 10.0 ** (exponent - rng.uniform(0.0, 1.0, size))
        negative = rng.random(size) < (0.1 if name == "a" else 0.5)
        vals = np.broadcast_to(np.where(negative, -vals, vals),
                               nx + 1).copy()
        if draw(st.integers(0, 4)) == 0:
            vals[rng.integers(nx + 1)] = draw(st.sampled_from(
                [np.nan, np.inf, -np.inf]))
        samples.append(vals if size else vals[0])
    return SpatialDomain(0.0, 1.0, nx), samples


def expected_refusal(dom, a, b, c):
    """The gate's message, or None, from the dense definition."""
    x = dom.points
    for name, vals in zip("abc", (a, b, c)):
        bad = [i for i, v in enumerate(vals) if not math.isfinite(v)]
        if bad:
            return (f"coefficient {name} is not finite at "
                    f"x={float(x[bad[0]])!r}: {name}={float(vals[bad[0]])!r}")
    bad = [i for i, v in enumerate(a) if not v >= 1e-10]
    if bad:
        return (f"ellipticity violated at x={float(x[bad[0]])!r}: "
                f"a={float(a[bad[0]])!r} < bound 1e-10")
    by_point = [dict(zip(x, vals)).__getitem__ for vals in (a, b, c)]
    w = dom.quad_weights
    with np.errstate(all="ignore"):
        dense = dense_from_definition(dom, *by_point)
        adj_dense = (dense.T * w[None, :]) / w[:, None]
    bad = np.flatnonzero(~(np.all(np.isfinite(dense), axis=1)
                           & np.all(np.isfinite(adj_dense), axis=1)))
    if bad.size:
        return (f"operator bands overflow at x={float(x[bad[0]])!r}: the "
                f"coefficients are too large for the step h={dom.h!r}")
    return None


@settings(max_examples=200, deadline=None)
@given(coefficient_samples())
def test_assembly_refuses_exactly_the_operators_it_cannot_build(case):
    dom, (a, b, c) = case
    expected = expected_refusal(dom, *(np.broadcast_to(v, dom.points.shape)
                                       for v in (a, b, c)))
    with np.errstate(all="raise"):
        try:
            dop = assemble_operator(dom, EllipticOperator(a=a, b=b, c=c))
        except ValueError as exc:
            assert str(exc) == expected
            return
    assert expected is None
    bands = (dop.lower, dop.diag, dop.upper, dop.adj_lower, dop.adj_upper)
    assert all(np.all(np.isfinite(band)) for band in bands)
    # duality: the adjoint bands are the transpose in the trapezoid
    # product, w_i A*_{i,i+1} = w_{i+1} A_{i+1,i}, exactly up to the
    # rounding of a subnormal entry
    w = dom.quad_weights / dom.h
    assert np.allclose(w[:-1] * dop.adj_upper[:-1], w[1:] * dop.lower[1:],
                       rtol=1e-15, atol=1e-307)
    assert np.allclose(w[1:] * dop.adj_lower[1:], w[:-1] * dop.upper[:-1],
                       rtol=1e-15, atol=1e-307)
