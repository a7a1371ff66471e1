"""Desk-scale stability probes for the forward map.

The source probe reports R = ||f||_{L2(Q)} / combined_norm per family
member; Lipschitz stability predicts max(R) bounded and mesh-stable.
The initial-value probe reports P = ||g||_{L2(Omega)} * |ln combined_norm|;
logarithmic stability predicts max(P) bounded over families whose discrete
C^4 seminorm stays under the context's M0 cap. Members breaking the cap
are still run and emitted as expected-failure rows, which is the point:
without the cap the product is unbounded.

Each member is solved at several mesh levels (level L refines the context
by 2^L) so the summary can certify mesh stability. At each level every
member first passes the admissibility gate, which measures its data norm,
in member order and one sampled field at a time; then the whole family
goes through one Crank-Nicolson march with one column per member, under
one factorization, and the march stops at the end of the lateral window
because nothing later is measured. Every column equals its member's own
forward solve bit for bit, so the rows do too.

A member whose samples are not finite, that the gate refuses, or whose
measurement overflows, is refused with a ValueError naming the member and
the mesh level rather than reported as a nan row.

check_probe_budget holds the finest level of m members to the work budget
before any level is built: its (nx+1, nt+1) field, the (nx+1, m) state of
the march, the (m, endpoints, window levels) traces and, for the source
probe, the member samples at every time level up to the window's end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissible import make_admissible_pair
from .carleman import FLAG_DEGENERATE, FLAG_VIOLATION, flagged_quotient
from .mesh import (check_array_budget, check_integer, field_from_function,
                   sample_space_time, sample_spatial)
from .measurement import measurement_data, observed_march
# unused here, but perfbench/tracer.py wraps these under these module names
from .admissible import c4_surrogate, check_source_condition  # noqa: F401
from .measurement import measure  # noqa: F401
from .solver import forward_solve  # noqa: F401

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
    # None, undefined, without two adjacent levels that have a positive max
    max_agreement_factor: float | None


def _join(flag: str, token: str) -> str:
    return token if not flag else flag + "+" + token


def _member(i: int, level: int, fn, *args, **kwargs):
    """fn(*args, **kwargs) for member i, its refusal prefixed with the
    member and the mesh level."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"family member {i} at mesh level {level}: "
                         f"{exc}") from None


def _combined_norms(c, level: int, state, source=None) -> list:
    """Combined norm of each column of one shared march (observed_march),
    refused in member order when it overflows."""
    snapshots, traces = observed_march(c.dop, c.window, state, source)
    return [_member(i, level, measurement_data, snapshot, trace, c.domain,
                    c.window).combined_norm
            for i, (snapshot, trace) in enumerate(zip(snapshots, traces))]


def check_probe_budget(ctx, levels: int, members: int, source: bool) -> None:
    """Refuse a probe (the source probe if source) of `members` members
    whose finest level is past the work budget (module docstring)."""
    check_integer("levels", levels)
    if levels < 1:
        raise ValueError("need at least one mesh level")
    # level L refines both axes by 2^L; past 2^64 every grid is refused
    factor = 2 ** min(levels - 1, 64)
    rows, sl = factor * ctx.domain.nx + 1, ctx.window.window_slice
    shapes = {"field": (rows, factor * ctx.window.nt + 1),
              "probe state": (rows, members),
              "probe traces": (members, len(ctx.domain.gamma),
                               factor * (sl.stop - 1 - sl.start) + 1)}
    if source:
        shapes["source probe samples"] = (rows, factor * (sl.stop - 1) + 1,
                                          members)
    check_array_budget(shapes)


def _contexts(ctx, levels: int, family, source: bool):
    check_probe_budget(ctx, levels, len(family), source)
    return [ctx if L == 0 else ctx.refined(2 ** L) for L in range(levels)]


def _summarize(kind: str, rows, levels: int) -> ProbeReport:
    maxes, medians = [], []
    for L in range(levels):
        vals = [r.value for r in rows
                if r.mesh_level == L and math.isfinite(r.value)
                and not any(tok in r.flag for tok in _SUMMARY_EXCLUDES)]
        maxes.append(max(vals) if vals else math.nan)
        medians.append(float(np.median(vals)) if vals else math.nan)
    pairs = [(a, b) for a, b in zip(maxes, maxes[1:])
             if math.isfinite(a) and math.isfinite(b) and min(a, b) > 0.0]
    factor = max((max(a, b) / min(a, b) for a, b in pairs), default=None)
    return ProbeReport(kind, tuple(rows), tuple(maxes), tuple(medians), factor)


def _source_combined_norms(c, level: int, family) -> list:
    """Combined norms of a source family (g = 0) marched as one.

    The members are sampled again rather than kept from the gate, which
    holds one field at a time, and only at the times the march reads: up
    to the end of the window. The samples are stored space-contiguous per
    time and member, so the samples f^n of every member, transposed, are
    the F-ordered (nx+1, m) state layout of the march.
    """
    times = c.window.times[:c.window.window_slice.stop]
    src = np.empty((times.size, len(family), c.domain.nx + 1))
    for i, (_, fn) in enumerate(family):
        src[:, i] = sample_space_time(c.domain, times, fn).T
    state = np.zeros((c.domain.nx + 1, len(family)))
    return _combined_norms(c, level, state, lambda n: src[n].T)


def source_stability_probe(family, ctx, levels: int) -> ProbeReport:
    """Ratio R per member of a source family (g = 0) across mesh levels.

    family: sequence of (param, fn) with fn(x, t) vectorized and
    pointwise. Every member must pass the admissibility gate under the
    context budget C0; violating the precondition is a caller error, not a
    flagged row.
    """
    rows = []
    for level, c in enumerate(_contexts(ctx, levels, family, True)):
        f_norms = [_member(i, level, lambda: make_admissible_pair(
                       c, f=field_from_function(c.domain, c.window, fn)))
                   .f_norm for i, (_, fn) in enumerate(family)]
        combined_norms = _source_combined_norms(c, level, family)
        for i, (param, _) in enumerate(family):
            f_norm, combined = f_norms[i], combined_norms[i]
            flag, value = flagged_quotient(f_norm, combined)
            rows.append(ProbeRow(i, float(param), f_norm, combined,
                                 value, level, flag))
    return _summarize("source", rows, levels)


def initial_stability_probe(family, ctx, levels: int) -> ProbeReport:
    """Product P per member of an initial-value family (f = 0).

    family: sequence of (param, fn) with fn(x) vectorized. Members whose
    discrete C^4 seminorm exceeds the context cap M0 are run anyway and
    flagged expected_failure; members whose measurement is not small are
    rescaled onto combined_norm = e^{-2} (the forward map is linear, so
    no re-solve) and flagged rescaled.
    """
    rows = []
    for level, c in enumerate(_contexts(ctx, levels, family, False)):
        state = np.empty((c.domain.nx + 1, len(family)))
        g_norms, flags = [], []
        for i, (_, fn) in enumerate(family):
            pair = _member(i, level, make_admissible_pair, c,
                           g=sample_spatial(c.domain, fn))
            state[:, i] = pair.g
            g_norms.append(pair.g_norm)
            flags.append(FLAG_EXPECTED_FAILURE
                         if pair.c4_surrogate > c.M0 else "")
        combined_norms = _combined_norms(c, level, state)
        for i, (param, _) in enumerate(family):
            g_norm, flag, combined = g_norms[i], flags[i], combined_norms[i]
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


def source_eigenmode_family(j_max: int):
    """(j, cos(j pi x)/j^2) for j = 1..j_max, constant in time."""
    def member(j):
        return lambda x, t: np.cos(j * np.pi * x) / j ** 2 + 0.0 * t
    return [(float(j), member(j)) for j in range(1, j_max + 1)]


def initial_eigenmode_family(k_max: int, normalized: bool):
    """(k, cos(k pi x)/k^4) for k = 1..k_max, or un-normalized cos(k pi x).

    The un-normalized variant has fourth differences growing like k^4 and
    exists to demonstrate the expected failure of the log product.
    """
    def member(k):
        if normalized:
            return lambda x: np.cos(k * np.pi * x) / k ** 4
        return lambda x: np.cos(k * np.pi * x)
    return [(float(k), member(k)) for k in range(1, k_max + 1)]
