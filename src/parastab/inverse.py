"""Regularized least-squares recovery of the source and initial value from
the final snapshot and lateral trace.

The misfit is measured in L2 (snapshot in L2(Omega), trace in the window
trace product), not in the H2 norms of the stability theory: differencing
noisy data twice would amplify the noise and complicate the adjoint. The
H2 combined norm stays available through measure() as the stability-side
diagnostic. Quadratic Tikhonov terms on the unknowns close the gap left
by the non-constructive stability constants.

Gradients are exact for the discrete objective: one backward multiplier
solve with the snapshot residual as terminal payload and the trace
residual as boundary payload, then chain rule through the trapezoid
weights (discretize-then-optimize).

The source is time-constant, f(x,t) = phi(x): its f_t vanishes, so every
phi meets the rate budget and the unknowns need no constraint of their
own. The data depend linearly on the 2(nx+1) unknowns (phi, g), and the
objective is an exact quadratic. Each noise level is solved once, as the
SVD least-squares problem of the observation matrix stacked on the
Tikhonov rows (LAPACK dgelsd through parastab.lapack.lstsq). One PDE
objective and gradient evaluation certifies the solution at any data
scale: converged means a gradient norm of at most RTOL ||G^T b||, the norm
at zero (G the observation matrix, b the data). The normal equations are
avoided because they square the condition number: 1.7e3 becomes 3e6 at
eps = 1e-3 in the README rate run, and at alpha = 0 they lose definiteness.

recover, the one driver of the reconstruct and rate runs, marches three
times however many levels it has, each march one factorization with one
column per pair:
1. the observation march of the basis pairs, with the truth pair riding
   as one more column; it stops at the end of the lateral window;
2. the certificate forward march of every level's estimate, to the same
   level;
3. the certificate adjoint march of every level's residual payload.
Every column equals the march of its pair alone bit for bit, so the
results are those of solving the truth, and certifying each level, on its
own. objective_and_gradient and minimize are the one-level cases of the
same code.

Before its first march, a solve holds to the work budget the (3n + eL)
x 2n design matrix (rows: the n = nx+1 snapshot values, e endpoints times
L window levels of trace, 2n Tikhonov rows): the march of the observation
matrix checks it, so minimize and recover share the check, and recover
checks it once more before its truth gate, together with the
certificate's (noise levels, nx+1, nt+1) adjoint payloads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lapack
from .admissible import make_admissible_pair
from .lab import LabContext
from .measurement import MeasurementData, measure, measurement_data, \
    observed_march
from .mesh import SpaceTimeField, check_array_budget, check_integer, \
    check_real
# adjoint_solve is not called here; the benchmark tracer wraps it by this
# module's name
from .solver import adjoint_gradients, adjoint_march, adjoint_solve, \
    adjoint_sources, forward_solve

RTOL = 1e-8  # certified: 1e-16 to 1e-13 of ||G^T b||; failed: 2e-5 and up


@dataclass(frozen=True)
class InverseProblemSpec:
    """Tuning knobs of the recovery of (phi, g), the time-constant source
    f(x,t) = phi(x) and the initial value.

    alpha_f/alpha_g double as the base weights (alpha0_f/alpha0_g on the
    command line) that recover scales by eps^2 at noise level eps. The
    command line takes its defaults from here.
    """
    alpha_f: float = 1.0
    alpha_g: float = 1.0
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # the noise first: recover scales each level's weights by its square
        eps = self.noise_level
        check_real("noise_level", eps)
        if not math.isfinite(eps):
            raise ValueError(f"noise level {eps!r} is not finite")
        if not eps >= 0.0:
            raise ValueError("noise level must be nonnegative")
        for name in ("alpha_f", "alpha_g"):
            value = getattr(self, name)
            check_real(name, value)
            if not math.isfinite(value):
                raise ValueError(f"regularization weight {name} = {value!r} "
                                 f"is not finite")
        if not (self.alpha_f >= 0.0 and self.alpha_g >= 0.0):
            raise ValueError("regularization weights must be nonnegative")
        check_integer("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"noise seed must be nonnegative, got "
                             f"{self.seed!r}")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    phi_est: np.ndarray
    g_est: np.ndarray
    final_objective: float
    converged: bool
    grad_norm: float       # Euclidean norm of the final gradient


def unpack_params(params: np.ndarray, ctx: LabContext):
    """Split the parameter vector [phi, g] into (phi, g)."""
    params = np.asarray(params, dtype=float)
    n_space = ctx.domain.nx + 1
    if params.shape != (2 * n_space,):
        raise ValueError(f"parameter vector has shape {params.shape}, "
                         f"expected {(2 * n_space,)}")
    return params[:n_space].copy(), params[n_space:].copy()


def objective_and_gradient(spec: InverseProblemSpec, params: np.ndarray,
                           data: MeasurementData, ctx: LabContext):
    """Value and exact Euclidean gradient of the Tikhonov objective.

    J = 0.5||u(.,T) - d_T||^2_{L2(Omega)} + 0.5||u|_Gamma - d_Gamma||^2
        + 0.5 alpha_f ||phi||^2 + 0.5 alpha_g ||g||^2

    The data gradient is one adjoint solve; entries are partial derivatives
    with respect to the raw parameter vector (trapezoid weights included),
    so central differences of J reproduce them directly. This is the
    one-level case of the batched certificate that recover runs.
    """
    return _certificates([spec], [params], [data], ctx)[0]


def _certificates(specs, params, datas, ctx: LabContext) -> list:
    """(J, gradient) of objective_and_gradient for each level's spec,
    parameter vector and data, from one forward march of every estimate
    and one adjoint march of every residual payload. Each level's pair is
    bit-identical to its own evaluation."""
    window, domain = ctx.window, ctx.domain
    phis, gs = zip(*(unpack_params(x, ctx) for x in params))
    phi_cols = np.stack(phis, axis=1)
    snapshots, traces = observed_march(ctx.dop, window, np.stack(gs, axis=1),
                                       phi_cols)
    wx = domain.quad_weights
    ww = window.window_weights
    values, payloads = [], []
    for spec, data, phi, g, snapshot, trace in zip(specs, datas, phis, gs,
                                                    snapshots, traces):
        r_T = snapshot - data.final_snapshot
        r_G = trace - data.lateral_trace
        J = 0.5 * float(np.sum(wx * r_T ** 2))
        J += 0.5 * float(np.sum(ww[None, :] * r_G ** 2))
        J += 0.5 * spec.alpha_f * float(np.sum(wx * phi ** 2))
        J += 0.5 * spec.alpha_g * float(np.sum(wx * g ** 2))
        values.append(J)
        payloads.append(adjoint_sources(ctx.dop, r_T, None, r_G, window))

    out = []
    for spec, phi, g, J, p in zip(specs, phis, gs, values,
                                  adjoint_march(ctx.dop, window,
                                                np.stack(payloads))):
        phi_adj, g_riesz = adjoint_gradients(SpaceTimeField(p, domain,
                                                            window))
        grad_phi = wx * (phi_adj.values @ window.quad_weights
                         + spec.alpha_f * phi)
        grad_g = wx * (g_riesz + spec.alpha_g * g)
        out.append((J, np.concatenate([grad_phi, grad_g])))
    return out


def _check_design_budget(ctx: LabContext) -> None:
    """Refuse a grid whose (3n + eL) x 2n design matrix, the largest array
    of a solve, is past the work budget: _least_squares stacks the n
    snapshot and eL trace rows of the observations on 2n Tikhonov rows."""
    n, sl = ctx.domain.nx + 1, ctx.window.window_slice
    trace_rows = len(ctx.domain.gamma) * (sl.stop - sl.start)
    check_array_budget({"design matrix": (3 * n + trace_rows, 2 * n)})


def _observations(ctx: LabContext, state, source):
    """observation_matrix, plus the snapshots and traces of the extra
    columns that ride in its march: initial values state and time-constant
    source samples source, both shaped (nx+1, m)."""
    _check_design_budget(ctx)
    domain, window = ctx.domain, ctx.window
    n = domain.nx + 1
    eye, zero = np.eye(n), np.zeros((n, n))
    sources = np.hstack([eye, zero, source])
    snapshots, traces = observed_march(ctx.dop, window,
                                       np.hstack([zero, eye, state]), sources)
    return (_weighted_rows(snapshots[:2 * n], traces[:2 * n], ctx),
            snapshots[2 * n:], traces[2 * n:])


def _weighted_rows(snapshots, traces, ctx: LabContext) -> np.ndarray:
    """Snapshots (m, nx+1) and traces (m, endpoints, levels) as m columns of
    rows: the snapshot times sqrt(wx), then each endpoint's trace times
    sqrt(ww)."""
    ww = ctx.window.window_weights
    return np.vstack([np.sqrt(ctx.domain.quad_weights)[:, None] * snapshots.T,
                      (np.sqrt(ww)[None, :, None]
                       * traces.transpose(1, 2, 0)).reshape(-1, len(traces))])


def observation_matrix(ctx: LabContext) -> np.ndarray:
    """Weighted observations of the basis pairs, one per column.

    Column j < nx+1 observes the source e_j with g = 0, column nx+1+j the
    initial value e_j with f = 0. The rows are the snapshot weighted by
    sqrt(wx), then the trace of each observed endpoint over the window
    weighted by sqrt(ww), so ||G x - observed_vector(data)||^2 is twice the
    data misfit of objective_and_gradient. All columns share one march,
    which stops at the last trace level, and each equals forward_solve of
    its pair bit for bit.
    """
    none = np.zeros((ctx.domain.nx + 1, 0))
    return _observations(ctx, none, none)[0]


def observed_vector(data: MeasurementData, ctx: LabContext) -> np.ndarray:
    """The data in the row order and weighting of observation_matrix."""
    return _weighted_rows(data.final_snapshot[None],
                          np.atleast_2d(data.lateral_trace)[None], ctx)[:, 0]


def _least_squares(spec: InverseProblemSpec, data: MeasurementData,
                   ctx: LabContext, obs: np.ndarray) -> np.ndarray:
    """The minimizer of ||A x - b||: A stacks obs on diag(sqrt(alpha wx)),
    b the observed data on zeros."""
    wx = ctx.domain.quad_weights
    tikhonov = np.sqrt(np.concatenate([spec.alpha_f * wx, spec.alpha_g * wx]))
    design = np.vstack([obs, np.diag(tikhonov)])
    target = np.concatenate([observed_vector(data, ctx),
                             np.zeros(tikhonov.size)])
    # 0.0 + turns a -0.0 entry into 0.0, so a zero estimate prints as 0.0
    return 0.0 + lapack.lstsq(design, target)


def _certified(x: np.ndarray, J: float, grad, obs: np.ndarray,
               data: MeasurementData, ctx: LabContext) -> ReconstructionResult:
    """The result of the solution x with its certificate (J, grad)."""
    if not math.isfinite(J):
        raise RuntimeError(f"non-finite objective at the least-squares "
                           f"solution: J={J!r} (max |param| = "
                           f"{float(np.max(np.abs(x)))!r})")
    grad_norm = float(np.linalg.norm(grad))
    phi, g = unpack_params(x, ctx)
    converged = grad_norm <= RTOL * float(np.linalg.norm(
        obs.T @ observed_vector(data, ctx)))
    return ReconstructionResult(phi, g, J, converged, grad_norm)


def minimize(spec: InverseProblemSpec, data: MeasurementData,
             ctx: LabContext) -> ReconstructionResult:
    """Minimize the Tikhonov objective by one least-squares solve.

    The minimizer of ||A x - b||, where A stacks the observation matrix on
    diag(sqrt(alpha wx)) and b is the observed data over zeros, is
    certified by objective_and_gradient, one forward and one adjoint
    march: converged reports the gradient norm at most RTOL ||G^T b||,
    and a non-finite objective raises RuntimeError. recover runs the same
    solve and certificate for all its levels at once. Deterministic: no
    randomness anywhere.
    """
    obs = observation_matrix(ctx)
    x = _least_squares(spec, data, ctx, obs)
    return _certified(x, *objective_and_gradient(spec, x, data, ctx), obs,
                      data, ctx)


def synthesize_data(pair, spec: InverseProblemSpec,
                    ctx: LabContext) -> MeasurementData:
    """Measure the forward solution of the pair and add seeded noise.

    The Gaussian perturbations of snapshot and trace are rescaled so each
    part is moved by exactly noise_level in its relative L2 norm. Zero
    noise returns the clean measurement bit-exactly; the stored norms are
    always the H2 readings of whatever arrays the data holds.
    """
    u = forward_solve(ctx.dop, pair.f, pair.g, ctx.window)
    return _add_noise(measure(u), spec, ctx)


def _add_noise(md: MeasurementData, spec: InverseProblemSpec,
               ctx: LabContext) -> MeasurementData:
    """The clean measurement md with the seeded noise of spec added; md
    itself at zero noise."""
    eps = spec.noise_level
    if eps == 0.0:
        return md

    rng = np.random.default_rng(spec.seed)
    snap = _perturb(rng, md.final_snapshot, ctx.domain.quad_weights, eps)
    trace = _perturb(rng, md.lateral_trace,
                     ctx.window.window_weights[None, :], eps)
    return measurement_data(snap, trace, ctx.domain, ctx.window)


def _perturb(rng, clean: np.ndarray, weights, eps: float) -> np.ndarray:
    """A copy of clean moved by exactly eps in its relative weighted L2
    norm along the next Gaussian draw of rng."""
    eta = rng.standard_normal(clean.shape)
    eta_norm = math.sqrt(float(np.sum(weights * eta ** 2)))
    d_norm = math.sqrt(float(np.sum(weights * clean ** 2)))
    if eta_norm > 0.0 and d_norm > 0.0:
        return clean + (eps * d_norm / eta_norm) * eta
    return clean.copy()


@dataclass(frozen=True)
class RateRow:
    eps: float
    alpha: float
    err_f: float
    err_g: float
    combined_norm_clean: float
    combined_norm_noisy: float
    converged: bool
    grad_norm: float


@dataclass(frozen=True)
class RateResult:
    rows: tuple
    source_slope: float | None      # None, undefined (rate_experiment)
    log_products: tuple


def rel_error(est: np.ndarray, truth: np.ndarray, weights: np.ndarray) -> float:
    """Weighted relative L2 error; the absolute error when truth is zero."""
    diff = math.sqrt(float(np.sum(weights * (est - truth) ** 2)))
    base = math.sqrt(float(np.sum(weights * truth ** 2)))
    return diff / base if base > 0.0 else diff


def _truth_pair(truth, ctx: LabContext):
    """truth as two float arrays (phi, g) of shape (nx+1,), or refused."""
    shape = (ctx.domain.nx + 1,)
    try:
        phi, g = (np.asarray(a, dtype=float) for a in truth)
    except (TypeError, ValueError):
        phi = g = None
    if phi is None or phi.shape != shape or g.shape != shape:
        raise ValueError(f"truth must be a (phi, g) pair of arrays of shape "
                         f"{shape}")
    return phi, g


def recover(spec: InverseProblemSpec, noise_list, truth,
            ctx: LabContext) -> list:
    """Recover (phi, g) = truth from its data at each noise level.

    Level i has noise eps_i, seed spec.seed XOR i and weights (alpha_f,
    alpha_g) * eps_i^2; a level whose square or weights overflow is
    refused by name. The noise comes from noise_list alone, so a base spec
    with nonzero noise_level is refused, and so is an empty list. The work
    budget (module docstring) and every level are checked before the truth
    pair passes the gate. The truth is then measured once, in the march of
    the observation matrix; each level adds its noise to that measurement
    and is solved against the one matrix, and one forward and one adjoint
    march certify all the solutions (module docstring). A non-finite
    objective is refused at the first level that has one. Returns (level
    spec, ReconstructionResult, RateRow) per level.
    """
    if spec.noise_level != 0.0:
        raise ValueError(f"the base spec has noise level "
                         f"{spec.noise_level!r}: recover takes its noise "
                         f"levels from noise_list")
    # the design matrix is checked again where it is made; checking it
    # here refuses a wide grid before the truth pair's gate allocates
    _check_design_budget(ctx)
    check_array_budget({"certificate payloads": (
        len(noise_list), ctx.domain.nx + 1, ctx.window.nt + 1)})
    specs = []
    for level, eps in enumerate(map(float, noise_list)):
        try:
            scale = eps ** 2
        except OverflowError:
            raise ValueError(f"noise level {eps!r} is too large: its square "
                             f"overflows") from None
        weights = {name: getattr(spec, name) * scale
                   for name in ("alpha_f", "alpha_g")}
        for name, weight in weights.items():
            # an infinite eps is left to the spec, which names it
            if math.isinf(weight) and not math.isinf(scale):
                base = name.replace("alpha", "alpha0")
                raise ValueError(f"base weight {base} = "
                                 f"{getattr(spec, name)!r} is too large for "
                                 f"noise level {eps!r}: {base} * eps^2 "
                                 f"overflows")
        specs.append(replace(spec, noise_level=eps, seed=spec.seed ^ level,
                             **weights))
    if not specs:
        raise ValueError("need at least one noise level")
    phi_truth, g_truth = _truth_pair(truth, ctx)
    # a product, not phi + 0.0, so a -0.0 entry of phi stays -0.0
    f_truth = SpaceTimeField(phi_truth[:, None] * np.ones(ctx.window.nt + 1),
                             ctx.domain, ctx.window)
    pair = make_admissible_pair(ctx, f=f_truth, g=g_truth)
    obs, snapshots, traces = _observations(ctx, pair.g[:, None],
                                           phi_truth[:, None])
    clean = measurement_data(snapshots[0], traces[0], ctx.domain, ctx.window)
    datas = [_add_noise(clean, level_spec, ctx) for level_spec in specs]
    xs = [_least_squares(level_spec, data, ctx, obs)
          for level_spec, data in zip(specs, datas)]
    wx = ctx.domain.quad_weights
    levels = []
    for level_spec, data, x, (J, grad) in zip(
            specs, datas, xs, _certificates(specs, xs, datas, ctx)):
        res = _certified(x, J, grad, obs, data, ctx)
        levels.append((level_spec, res, RateRow(
            level_spec.noise_level, level_spec.alpha_f,
            rel_error(res.phi_est, phi_truth, wx),
            rel_error(res.g_est, g_truth, wx), clean.combined_norm,
            data.combined_norm, res.converged, res.grad_norm)))
    return levels


def rate_experiment(spec: InverseProblemSpec, noise_list, truth,
                    ctx: LabContext) -> RateResult:
    """Noise sweep: recover at each level and fit the error rates.

    The levels must number at least 3 and decrease strictly (recover
    refuses a negative one). Non-converged levels keep their row but are
    excluded from the slope fit. The Lipschitz proxy is the log-log slope
    of err_f, None when fewer than two converged levels have eps > 0 and
    err_f > 0; the logarithmic proxy is the sequence err_g * |ln eps|.
    """
    noise_list = [float(e) for e in noise_list]
    if len(noise_list) < 3:
        raise ValueError("need at least 3 noise levels")
    if any(b >= a for a, b in zip(noise_list, noise_list[1:])):
        raise ValueError("noise levels must be strictly decreasing")
    rows = tuple(row for _, _, row in recover(spec, noise_list, truth,
                                              ctx))

    fit = [(r.eps, r.err_f) for r in rows
           if r.converged and r.eps > 0.0 and r.err_f > 0.0]
    slope = None
    if len(fit) >= 2:
        lx = np.log([e for e, _ in fit])
        ly = np.log([v for _, v in fit])
        slope = float(np.polyfit(lx, ly, 1)[0])
    products = tuple(r.err_g * abs(math.log(r.eps)) for r in rows if r.eps > 0.0)
    return RateResult(rows, slope, products)
