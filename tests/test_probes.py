import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from parastab import solver
from parastab.lab import make_context
from parastab.probes import (FLAG_EXPECTED_FAILURE, FLAG_RESCALED,
                             initial_eigenmode_family, initial_stability_probe,
                             source_eigenmode_family, source_stability_probe)


def probe_context(**kw):
    return make_context(nx=48, nt=192, **kw)


def test_source_family_is_clean_and_mesh_stable():
    rep = source_stability_probe(source_eigenmode_family(6), probe_context(),
                                 levels=2)
    assert rep.kind == "source"
    assert len(rep.rows) == 12
    assert all(r.flag == "" for r in rep.rows)
    assert all(0.5 < r.value < 2.0 for r in rep.rows)
    assert rep.max_agreement_factor < 2.0
    for m in rep.level_median:
        assert 0.5 < m < 2.0


def test_source_ratio_is_scale_invariant_bitwise():
    base = lambda x, t: np.cos(np.pi * x) / 3.0 + 0.0 * t
    quad = lambda x, t: 4.0 * (np.cos(np.pi * x) / 3.0) + 0.0 * t
    rep = source_stability_probe([(1.0, base), (2.0, quad)], probe_context(),
                                 levels=1)
    assert rep.rows[0].value == rep.rows[1].value
    assert rep.rows[1].data_norm == 4.0 * rep.rows[0].data_norm


def test_zero_source_member_is_degenerate_and_excluded():
    fam = [(0.0, lambda x, t: 0.0 * x * t)] + source_eigenmode_family(1)
    rep = source_stability_probe(fam, probe_context(), levels=1)
    zero_row, live_row = rep.rows[0], rep.rows[1]
    assert zero_row.flag == "degenerate"
    assert math.isnan(zero_row.value)
    assert rep.level_max[0] == live_row.value


def test_inadmissible_member_is_a_caller_error():
    fam = [(1.0, lambda x, t: (t - 1.0) * (2.0 + np.cos(np.pi * x)))]
    with pytest.raises(ValueError, match="C0"):
        source_stability_probe(fam, probe_context(), levels=1)


def test_unseen_late_source_is_flagged_as_violation_candidate():
    # a source switched on after the observation window leaves every
    # measured value exactly zero; with the admissibility gate disabled
    # (C0 = inf) the probe records the row instead of raising
    ctx = probe_context(C0=math.inf)
    t_on = ctx.window.T + ctx.window.delta1 + 2.5 * ctx.window.k

    def late(x, t):
        ramp = np.where(t > t_on, (t - t_on) ** 2, 0.0)
        return ramp * (2.0 + np.cos(np.pi * x))

    rep = source_stability_probe([(1.0, late)], ctx, levels=1)
    row = rep.rows[0]
    assert row.combined_norm == 0.0
    assert row.data_norm > 0.0
    assert row.flag == "violation"
    assert math.isinf(row.value)
    assert math.isnan(rep.level_max[0])


def test_initial_family_products_decay_and_agree_across_meshes():
    rep = initial_stability_probe(initial_eigenmode_family(8, normalized=True),
                                  probe_context(), levels=2)
    assert rep.kind == "initial"
    assert len(rep.rows) == 16
    assert all(r.flag == "" for r in rep.rows)
    for level in (0, 1):
        vals = [r.value for r in rep.rows if r.mesh_level == level]
        assert vals[0] == max(vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1 * vals[0]
    assert rep.max_agreement_factor < 2.0


def test_unnormalized_family_rows_are_expected_failures():
    rep = initial_stability_probe(
        initial_eigenmode_family(8, normalized=False), probe_context(), levels=1)
    flagged = [r for r in rep.rows if r.param >= 2.0]
    assert all(r.flag == FLAG_EXPECTED_FAILURE for r in flagged)
    # k=1 is the same function in both families, so it stays admissible
    assert rep.rows[0].flag == ""
    assert max(r.value for r in flagged) > 5.0 * rep.level_max[0]


def test_large_data_is_rescaled_onto_the_small_regime():
    ctx = probe_context(M0=1e6)
    rep = initial_stability_probe(
        [(1.0, lambda x: 100.0 * np.cos(np.pi * x))], ctx, levels=1)
    row = rep.rows[0]
    assert row.flag == FLAG_RESCALED
    assert abs(row.combined_norm - math.exp(-2.0)) < 1e-12
    assert abs(row.value - 2.0 * row.data_norm) < 1e-8


def test_products_are_not_scale_invariant():
    ctx = probe_context()
    a = initial_stability_probe([(1.0, lambda x: np.cos(np.pi * x))],
                                ctx, levels=1).rows[0].value
    b = initial_stability_probe([(1.0, lambda x: 10.0 * np.cos(np.pi * x))],
                                ctx, levels=1).rows[0].value
    assert abs(a - b) > 0.1 * a


def test_zero_initial_value_is_degenerate():
    rep = initial_stability_probe([(0.0, lambda x: 0.0 * x)],
                                  probe_context(), levels=1)
    assert rep.rows[0].flag == "degenerate"
    assert math.isnan(rep.rows[0].value)


def test_empty_family_marches_nothing(monkeypatch):
    # a family of no members has no row to summarize, and its level maxima
    # would read nan, so both probes refuse it before building a level
    marches = []
    monkeypatch.setattr(solver, "_march", lambda *args: marches.append(args))
    for probe in (source_stability_probe, initial_stability_probe):
        with pytest.raises(ValueError, match="^the family has no members$"):
            probe([], make_context(nx=8, nt=8), levels=2)
    assert marches == []


@pytest.mark.parametrize("count", [0, -1])
def test_family_builders_refuse_a_count_below_one_by_name(count):
    with pytest.raises(ValueError, match=f"^j_max must be at least 1, got "
                                         f"{count}$"):
        source_eigenmode_family(count)
    for normalized in (True, False):
        with pytest.raises(ValueError, match=f"^k_max must be at least 1, "
                                             f"got {count}$"):
            initial_eigenmode_family(count, normalized)


def test_family_builders_refuse_a_count_that_is_not_an_integer():
    with pytest.raises(ValueError, match="^j_max must be an integer"):
        source_eigenmode_family(2.5)
    with pytest.raises(ValueError, match="^k_max must be an integer"):
        initial_eigenmode_family("3", True)


def test_rows_are_frozen_and_levels_validated():
    rep = source_stability_probe(source_eigenmode_family(1), probe_context(),
                                 levels=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.rows[0].value = 0.0
    with pytest.raises(ValueError):
        source_stability_probe(source_eigenmode_family(1), probe_context(),
                               levels=0)
    for levels in (2.5, True):
        with pytest.raises(ValueError, match="^levels must be an integer"):
            source_stability_probe(source_eigenmode_family(1),
                                   probe_context(), levels=levels)


_SPIKES = [(5e154, "L2\\(Q\\) norm"), (3e154, "combined norm")]


def _spike(amplitude):
    return (1.0, lambda x, t: np.where(x == 0.5, amplitude, 0.0) + 0.0 * t)


@pytest.mark.parametrize("amplitude,what", _SPIKES)
def test_overflowing_source_member_is_refused(amplitude, what):
    # a spike whose square overflows the data norm, and a smaller one whose
    # data norm is finite but whose measured H2 norms overflow
    ctx = make_context(nx=16, nt=8)
    with np.errstate(all="raise"), \
            pytest.raises(ValueError, match=f"member 0 .*overflows.* {what}"):
        source_stability_probe([_spike(amplitude)], ctx, levels=1)


@pytest.mark.parametrize("amplitude,what", _SPIKES)
def test_mixed_family_refuses_the_overflowing_member(amplitude, what):
    # marched beside a clean member, the refusal names the spike, and the
    # shared march itself raises no FloatingPointError
    ctx = make_context(nx=16, nt=8)
    family = source_eigenmode_family(1) + [_spike(amplitude)]
    with np.errstate(all="raise"), \
            pytest.raises(ValueError, match=f"member 1 .*overflows.* {what}"):
        source_stability_probe(family, ctx, levels=1)


@pytest.mark.parametrize("probe, family, message", [
    (source_stability_probe, source_eigenmode_family(1) + [
        (2.0, lambda x, t: np.where(x == 0.5, np.inf, 0.0) + 0.0 * t)],
     "field contains non-finite values$"),
    (initial_stability_probe, initial_eigenmode_family(1, normalized=True) + [
        (2.0, lambda x: np.where(x == 0.5, np.nan, 0.0))],
     "initial value is not finite at x=0.5: g=nan$")])
def test_a_non_finite_member_is_refused_with_its_prefix(probe, family,
                                                        message):
    with pytest.raises(ValueError, match="^family member 1 at mesh level 0: "
                                         + message):
        probe(family, make_context(nx=16, nt=8), levels=1)


def test_overflowing_initial_member_is_refused():
    with np.errstate(all="raise"), pytest.raises(ValueError, match="L2 norm"):
        initial_stability_probe([(1.0, lambda x: 1e160 * np.cos(np.pi * x))],
                                make_context(nx=16, nt=8), levels=1)


@pytest.mark.parametrize("probe,family", [
    (source_stability_probe, source_eigenmode_family(3)),
    (initial_stability_probe,
     initial_eigenmode_family(4, normalized=True))])
def test_one_factorization_per_mesh_level(monkeypatch, probe, family):
    calls = []
    original = solver._cn_factors

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "_cn_factors", counted)
    rep = probe(family, make_context(nx=16, nt=32), levels=3)
    assert len(rep.rows) == 3 * len(family)
    assert len(calls) == 3


def test_source_probe_memory_stays_lean():
    # the batched march holds the family's source columns up to the end of
    # the window (10.6 MB at the finest of the three default levels); the
    # checks before it hold one sampled field at a time
    family, ctx = source_eigenmode_family(6), make_context()
    tracemalloc.start()
    try:
        source_stability_probe(family, ctx, levels=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14e6

