"""Desk-scale stability probes for the forward map.

The source probe reports R = ||f||_{L2(Q)} / combined_norm per family
member; Lipschitz stability predicts max(R) bounded and mesh-stable.
The initial-value probe reports P = ||g||_{L2(Omega)} * |ln combined_norm|;
logarithmic stability predicts max(P) bounded over families whose discrete
C^4 seminorm stays under the context's M0 cap. Members breaking the cap
are still run and emitted as expected-failure rows, which is the point:
without the cap the product is unbounded.

Each member is solved at several mesh levels (level L refines the context
by 2^L) so the summary can certify mesh stability. A member too large for
floating point, one whose data norm or combined norm is not finite, is
refused with a ValueError rather than reported as a nan row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissible import c4_surrogate, check_source_condition
from .carleman import FLAG_DEGENERATE, FLAG_VIOLATION
from .mesh import field_from_function, sample_spatial
from .measurement import measure
from .norms import l2_space, l2_spacetime
from .solver import forward_solve

FLAG_EXPECTED_FAILURE = "expected_failure"
FLAG_RESCALED = "rescaled"

# The log estimate only speaks in the small-data regime: require
# combined_norm < 1/e so |ln| > 1, rescaling members onto e^{-2} otherwise.
SMALLNESS_THRESHOLD = math.exp(-1.0)
RESCALE_TARGET = math.exp(-2.0)

_SUMMARY_EXCLUDES = (FLAG_DEGENERATE, FLAG_VIOLATION, FLAG_EXPECTED_FAILURE)


@dataclass(frozen=True)
class ProbeRow:
    member_id: int
    param: float
    data_norm: float       # ||f||_{L2(Q)} or ||g||_{L2(Omega)}
    combined_norm: float
    value: float           # ratio R or product P
    mesh_level: int
    flag: str = ""


@dataclass(frozen=True)
class ProbeReport:
    kind: str              # "source" or "initial"
    rows: tuple
    level_max: tuple
    level_median: tuple
    max_agreement_factor: float


def _join(flag: str, token: str) -> str:
    return token if not flag else flag + "+" + token


def _require_finite(i: int, level: int, what: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"family member {i} overflows at mesh level "
                         f"{level}: its {what} is {value!r}")


def _measured_norm(i: int, level: int, u, c) -> float:
    """Combined norm of u's measurement, refused when it overflows."""
    with np.errstate(all="ignore"):
        combined = measure(u, c.domain, c.window).combined_norm
    _require_finite(i, level, "combined norm", combined)
    return combined


def _contexts(ctx, levels: int):
    if levels < 1:
        raise ValueError("need at least one mesh level")
    return [ctx if L == 0 else ctx.refined(2 ** L) for L in range(levels)]


def _summarize(kind: str, rows, levels: int) -> ProbeReport:
    maxes, medians = [], []
    for L in range(levels):
        vals = [r.value for r in rows
                if r.mesh_level == L and math.isfinite(r.value)
                and not any(tok in r.flag for tok in _SUMMARY_EXCLUDES)]
        maxes.append(max(vals) if vals else math.nan)
        medians.append(float(np.median(vals)) if vals else math.nan)
    factor = math.nan
    pairs = [(a, b) for a, b in zip(maxes, maxes[1:])
             if math.isfinite(a) and math.isfinite(b) and min(a, b) > 0.0]
    if pairs:
        factor = max(max(a, b) / min(a, b) for a, b in pairs)
    return ProbeReport(kind, tuple(rows), tuple(maxes), tuple(medians), factor)


def source_stability_probe(family, ctx, levels: int = 2) -> ProbeReport:
    """Ratio R per member of a source family (g = 0) across mesh levels.

    family: sequence of (param, fn) with fn(x, t) vectorized. Every member
    must pass the rate condition within the context budget C0; violating
    the precondition is a caller error, not a flagged row.
    """
    rows = []
    for level, c in enumerate(_contexts(ctx, levels)):
        for i, (param, fn) in enumerate(family):
            f = field_from_function(c.domain, c.window, fn)
            with np.errstate(all="ignore"):
                f_norm = l2_spacetime(f.values, c.domain, c.window)
            _require_finite(i, level, "L2(Q) norm", f_norm)
            need = check_source_condition(f, c.window.T)
            if not need <= c.C0 * (1.0 + 1e-12):
                raise ValueError(f"family member {i} needs C0 >= {need!r}, "
                                 f"budget is {c.C0!r}")
            u = forward_solve(c.dop, f, None, c.window)
            combined = _measured_norm(i, level, u, c)
            if combined == 0.0:
                flag = FLAG_DEGENERATE if f_norm == 0.0 else FLAG_VIOLATION
                value = math.nan if f_norm == 0.0 else math.inf
            else:
                flag, value = "", f_norm / combined
            rows.append(ProbeRow(i, float(param), f_norm, combined,
                                 value, level, flag))
    return _summarize("source", rows, levels)


def initial_stability_probe(family, ctx, levels: int = 2) -> ProbeReport:
    """Product P per member of an initial-value family (f = 0).

    family: sequence of (param, fn) with fn(x) vectorized. Members whose
    discrete C^4 seminorm exceeds the context cap M0 are run anyway and
    flagged expected_failure; members whose measurement is not small are
    rescaled onto combined_norm = e^{-2} (the forward map is linear, so
    no re-solve) and flagged rescaled.
    """
    rows = []
    for level, c in enumerate(_contexts(ctx, levels)):
        for i, (param, fn) in enumerate(family):
            g = sample_spatial(c.domain, fn)
            with np.errstate(all="ignore"):
                g_norm = l2_space(g, c.domain)
            _require_finite(i, level, "L2 norm", g_norm)
            flag = ""
            if c4_surrogate(g, c.domain.h) > c.M0:
                flag = FLAG_EXPECTED_FAILURE
            u = forward_solve(c.dop, None, g, c.window)
            combined = _measured_norm(i, level, u, c)
            if combined == 0.0:
                # covers g = 0 and decay past the floating-point floor;
                # either way the log carries no information
                flag = _join(flag, FLAG_DEGENERATE)
                value = math.nan
            else:
                if combined >= SMALLNESS_THRESHOLD:
                    scale = RESCALE_TARGET / combined
                    g_norm *= scale
                    combined *= scale
                    flag = _join(flag, FLAG_RESCALED)
                value = g_norm * abs(math.log(combined))
            rows.append(ProbeRow(i, float(param), g_norm, combined,
                                 value, level, flag))
    return _summarize("initial", rows, levels)


def source_eigenmode_family(j_max: int = 6):
    """(j, cos(j pi x)/j^2) for j = 1..j_max, constant in time."""
    def member(j):
        return lambda x, t: np.cos(j * np.pi * x) / j ** 2 + 0.0 * t
    return [(float(j), member(j)) for j in range(1, j_max + 1)]


def initial_eigenmode_family(k_max: int = 8, normalized: bool = True):
    """(k, cos(k pi x)/k^4) for k = 1..k_max, or un-normalized cos(k pi x).

    The un-normalized variant has fourth differences growing like k^4 and
    exists to demonstrate the expected failure of the log product.
    """
    def member(k):
        if normalized:
            return lambda x: np.cos(k * np.pi * x) / k ** 4
        return lambda x: np.cos(k * np.pi * x)
    return [(float(k), member(k)) for k in range(1, k_max + 1)]
