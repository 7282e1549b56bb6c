"""Directional transform values against residue-form oracles.

The frozen complex literals below were derived independently of the
implementation: each ray integral of an exponential reduces to
int_0^infty e^{-mt} dt = 1/m, giving g = direction/(2 pi i) * 1/m up to the
phase carried by the ray.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sectorlap import (
    BudgetExceeded,
    ConcatenatedTransform,
    GrowthCertificate,
    IllConditioned,
    OutsideDomain,
    OutsideUnion,
    QuadratureBudget,
    SectorLapError,
    SectorSpec,
    TransformQuery,
    build_gamma,
    concatenated_transform,
    consistency_residual,
    directional_transform,
    gamma_bound_check,
    indicator_value,
    make_exp,
    make_sum,
    rational_function,
    select_direction,
    trig_decay,
    zero_function,
)
from sectorlap import laplace, quadrature
from sectorlap.laplace import DELTA_MIN_DEFAULT

BUDGET = QuadratureBudget(rel_tol=1e-11, abs_floor=1e-14)


def test_transform_frozen_values():
    # g_{-1}(0) = 1/(2 pi i) * int e^{-t} dt = -i/(2 pi)
    res = directional_transform(TransformQuery(make_exp(-1), 0.0, 0.0, BUDGET))
    np.testing.assert_allclose(res.value, -0.15915494309189535j, rtol=1e-9)
    # growing entry, evaluated left of its half-plane boundary at -1
    res = directional_transform(TransformQuery(make_exp(1), 0.0, -2.0, BUDGET))
    np.testing.assert_allclose(res.value, -0.15915494309189535j, rtol=1e-9)
    # int e^{-3t} dt = 1/3
    res = directional_transform(TransformQuery(make_exp(-1), 0.0, -2.0, BUDGET))
    np.testing.assert_allclose(res.value, -0.05305164769729845j, rtol=1e-9)


def test_transform_error_estimate_is_sound():
    fn = make_exp(-1 + 1j)
    for omega in (-1.0, -2 + 0.5j, -0.5 - 1j):
        res = directional_transform(TransformQuery(fn, 0.0, omega, BUDGET))
        assert abs(res.value - fn.transform_oracle(omega)) <= res.est_error + 1e-13


def test_transform_direction_invariance():
    # the same omega seen from a rotated ray gives the same analytic value
    fn = make_exp(1)
    for theta in (-math.pi / 8, math.pi / 8, 0.3):
        res = directional_transform(TransformQuery(fn, theta, -2.0, BUDGET))
        np.testing.assert_allclose(res.value, fn.transform_oracle(-2.0), rtol=1e-9)


def test_transform_rejects_small_margin():
    with pytest.raises(OutsideDomain, match="margin"):
        directional_transform(TransformQuery(make_exp(1), 0.0, 0.0, BUDGET))
    with pytest.raises(OutsideDomain):
        # boundary point itself: margin exactly zero
        directional_transform(TransformQuery(make_exp(1), 0.0, -1.0, BUDGET))


def test_query_validation():
    with pytest.raises(ValueError, match="theta"):
        TransformQuery(make_exp(1), 2.0, -2.0, BUDGET)
    with pytest.raises(ValueError, match="delta_min"):
        TransformQuery(make_exp(1), 0.0, -2.0, BUDGET, delta_min=0.0)
    # the fan's min_margin gets the same check and message
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"delta_min must be positive, got {bad}"):
            ConcatenatedTransform.build(make_exp(1), min_margin=bad)


def test_the_transform_layer_stores_only_what_its_caller_chooses():
    assert [f.name for f in dataclasses.fields(ConcatenatedTransform)] == ["fn", "alpha", "min_margin", "exact"]
    assert [f.name for f in dataclasses.fields(TransformQuery)] == [
        "fn", "theta", "omega", "budget", "delta_min", "indicator"
    ]


def test_a_numeric_fan_estimates_its_grid_once_on_first_use(monkeypatch):
    thetas = []
    real = laplace.estimate_indicator
    monkeypatch.setattr(laplace, "estimate_indicator", lambda fn, theta: thetas.append(theta) or real(fn, theta))
    ct = ConcatenatedTransform.build(make_exp(1), alpha=math.pi / 4, indicator_source="numeric")
    assert not ct.exact and thetas == []
    select_direction(ct, -2.0)
    select_direction(ct, -1.5 + 0.5j)
    assert len(thetas) == 1 and thetas[0].tolist() == np.linspace(-math.pi / 4, math.pi / 4, 65).tolist()


def test_numeric_indicator_transform_matches_oracle():
    fn = make_exp(-1)
    res = directional_transform(
        TransformQuery(fn, 0.0, -0.5, BUDGET, indicator=indicator_value(fn, 0.0, "numeric"))
    )
    np.testing.assert_allclose(res.value, fn.transform_oracle(-0.5), rtol=1e-8)


def test_transform_analytic_on_halfplane():
    # Cauchy mean over a circle inside Omega_0 must reproduce the center
    # value; this probes analyticity of the numeric transform, not just
    # pointwise accuracy
    fn = make_exp(-1)
    center, rho = -2.0 + 0.0j, 0.6
    nodes = center + rho * np.exp(2j * math.pi * np.arange(32) / 32)
    vals = [
        directional_transform(TransformQuery(fn, 0.0, complex(w), BUDGET)).value for w in nodes
    ]
    np.testing.assert_allclose(np.mean(vals), fn.transform_oracle(center), rtol=1e-9)


def test_select_direction_prefers_center_on_ties():
    ct = ConcatenatedTransform.build(zero_function(), alpha=math.pi / 4)
    assert select_direction(ct, -1.0) == 0.0


def test_select_direction_asymmetric_optimum():
    # for f = e^{iz} the offset is sin(theta), so the margin at omega = -1
    # is sin(theta) + cos(theta), maximized at theta = pi/4
    ct = ConcatenatedTransform.build(make_exp(1j), alpha=1.5)
    theta = select_direction(ct, -1.0)
    assert math.isclose(theta, math.pi / 4, abs_tol=1e-6)


def test_select_direction_takes_the_best_grid_direction_of_a_numeric_fan():
    # the true margin 0.5 (cos theta + sin theta) peaks at pi/4 with 1/sqrt(2); the interpolated offset bulges
    # above it on both sides of the grid's node nearest pi/4 (to 0.70721651 at theta = 0.77297), but the fan
    # takes that node, whose margin is its estimate's
    ct = ConcatenatedTransform.build(make_exp(1), indicator_source="numeric")
    omega = -1.5 + 0.5j
    nodes, offsets = ct._grid
    theta = select_direction(ct, omega)
    node_margins = [offsets[k] - (omega * cmath.exp(1j * t)).real for k, t in enumerate(nodes.tolist())]
    assert ct.margin(omega, theta) == node_margins[nodes.tolist().index(theta)] == max(node_margins)
    assert math.isclose(theta, math.pi / 4, abs_tol=1e-11)
    assert math.sqrt(0.5) - 1e-15 <= ct.margin(omega, theta) <= math.sqrt(0.5) + 1e-15
    assert np.max(ct.margin(omega, np.linspace(0.7, 0.85, 20001))) >= 0.70721651


def test_select_direction_outside_union():
    ct = ConcatenatedTransform.build(make_exp(1), alpha=math.pi / 4)
    with pytest.raises(OutsideUnion, match="min_margin"):
        select_direction(ct, 0.0)


def test_concatenated_transform_value():
    ct = ConcatenatedTransform.build(make_exp(1), alpha=math.pi / 4)
    res = concatenated_transform(ct, -2.0, BUDGET)
    np.testing.assert_allclose(res.value, make_exp(1).transform_oracle(-2.0), rtol=1e-9)


def test_concatenated_numeric_offsets_interpolate():
    fn = make_exp(-1)
    ct = ConcatenatedTransform.build(fn, alpha=math.pi / 4, indicator_source="numeric")
    assert not ct.exact
    # numeric offset grid should sit within 2% of -I(theta) = cos(theta)
    for theta in (-0.5, 0.0, 0.37):
        assert math.isclose(ct.offset(theta), math.cos(theta), abs_tol=0.02)


def test_fan_offsets_and_zero_entry_cap():
    # Omega_theta = {w : Re(w e^{i theta}) < -I(theta)}: Re w < -1 for e^z at theta = 0
    ct = ConcatenatedTransform.build(make_exp(1), alpha=math.pi / 4)
    assert math.isclose(ct.offset(0.0), -1.0)
    assert ct.margin(-1.5, 0.0) > 0.0 > ct.margin(-0.5, 0.0)
    # the zero entry's sentinel indicator maps to the capped offset, from the oracle or an estimate
    for source in ("oracle", "numeric"):
        ct = ConcatenatedTransform.build(zero_function(), alpha=math.pi / 4, indicator_source=source)
        assert ct.offset(0.0) == 1e9


def test_consistency_between_directions():
    fn = make_exp(-1 + 1j)
    residual, combined = consistency_residual(fn, -math.pi / 8, math.pi / 8, -2.5 + 0.5j, BUDGET)
    assert residual <= 2.0 * combined


def test_consistency_is_one_engine_pass_with_each_direction_bits(monkeypatch):
    fn, omega = make_exp(-1 + 1j), -2.5 + 0.5j
    one = [directional_transform(TransformQuery(fn, theta, omega, BUDGET)) for theta in (-0.3, 0.5)]
    passes = []
    real = laplace._g_values
    monkeypatch.setattr(laplace, "_g_values", lambda *args: passes.append(args) or real(*args))
    monkeypatch.setattr(laplace, "directional_transform", None)
    residual, combined = consistency_residual(fn, -0.3, 0.5, omega, BUDGET)
    assert len(passes) == 1
    assert residual == abs(one[0].value - one[1].value)
    assert combined == one[0].est_error + one[1].est_error
    with pytest.raises(ValueError, match="theta=2.0 outside"):
        consistency_residual(fn, 0.0, 2.0, omega, BUDGET)


def test_gamma_bound_certificate():
    fn = make_exp(-1)
    gamma = build_gamma(SectorSpec(alpha=math.pi / 4, h=0.0), -1.0)
    cert = GrowthCertificate(epsilon=0.1, c_epsilon=1.0)
    assert gamma_bound_check(fn, cert, gamma, samples=40, budget=BUDGET) <= 0.0


def test_gamma_bound_requires_negative_denominator():
    fn = make_exp(1)  # type 1 at alpha = pi/4
    spec = SectorSpec(alpha=math.pi / 4, h=1.0)
    p = -1.05 / math.cos(spec.alpha)
    gamma = build_gamma(spec, p)
    with pytest.raises(ValueError, match=r"h \+ epsilon \+ p\*cos\(alpha\)"):
        gamma_bound_check(fn, GrowthCertificate(epsilon=0.1, c_epsilon=1.0), gamma)


def test_sum_entry_transform():
    fn = make_sum([(1, -1), (2, -2)])
    res = directional_transform(TransformQuery(fn, 0.0, -0.5, BUDGET))
    np.testing.assert_allclose(res.value, fn.transform_oracle(-0.5), rtol=1e-10)


# -- batched transforms ---------------------------------------------------------

BATCH_ENTRIES = {
    "exp": make_exp(-1 + 0.5j),
    "sum": make_sum([(1, -1), (2, -2)]),
    "trig": trig_decay(),
    "rational": rational_function(),
}
BATCH_BUDGETS = [
    QuadratureBudget(rel_tol=1e-10, abs_floor=1e-13),
    # half the floor above most integrals: the arg <= 1 shortcut, no panels at all
    QuadratureBudget(rel_tol=1e-8, abs_floor=0.5),
    # a target near rounding level: seeds miss it, so integrals refine, and some exhaust the budget
    QuadratureBudget(rel_tol=1e-13, abs_floor=1e-16),
]


def _omega_at(fn, theta, margin, freq):
    """The omega with the given margin and oscillation frequency Im(omega e^{i theta}) on the ray theta."""
    ind, _ = indicator_value(fn, theta)
    return complex((-ind - margin + 1j * freq) * cmath.exp(-1j * theta))


def _single_or_error(fn, theta, omega, budget):
    ind, exact = indicator_value(fn, theta)
    try:
        return laplace._ray_transform(fn, theta, omega, budget, ind, exact, DELTA_MIN_DEFAULT)
    except SectorLapError as exc:
        return exc


def _batch(fn_id, theta, margins_and_freqs, budget_index):
    fn = BATCH_ENTRIES[fn_id]
    return fn, theta, [_omega_at(fn, theta, m, f) for m, f in margins_and_freqs], BATCH_BUDGETS[budget_index]


@st.composite
def _batches(draw):
    fn_id = draw(st.sampled_from(sorted(BATCH_ENTRIES)))
    # at theta = 0, Re(omega e^{i theta}) is exact, so omegas of one margin share their smooth factor
    theta = draw(st.one_of(st.just(0.0), st.floats(-0.6, 0.6)))
    size = draw(st.integers(1, 8))
    # margins down to delta_min (kept a hair above it against rounding), often repeated; frequencies mixed with zeros
    pool = draw(st.lists(st.floats(1.000001 * DELTA_MIN_DEFAULT, 4.0), min_size=1, max_size=size))
    margins = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    freqs = draw(st.lists(st.one_of(st.just(0.0), st.floats(-30.0, 30.0)), min_size=size, max_size=size))
    return _batch(fn_id, theta, zip(margins, freqs), draw(st.integers(0, len(BATCH_BUDGETS) - 1)))


@given(_batches())
@example(_batch("exp", 0.2, [(0.5, 3.0), (2.0, 0.0), (1.000001e-3, 0.0), (0.3, -12.0)], 2))
@example(_batch("sum", -0.3, [(3.0, 1.0), (0.05, 2.0), (2.5, 0.0)], 1))
# a subnormal carrier frequency: kappa h underflows to 0 on the first panels, the plain Gauss-Legendre sum
@example(_batch("exp", 0.0, [(1.0, 0.0), (1.0, 1.1125369292536007e-308)], 0))
# two families and a loner; the first family and one more omega refine
@example(_batch("trig", 0.0, [(0.5, 3.0), (1.0, 0.0), (0.5, -8.0), (2.0, 1.0), (1.0, 20.0)], 2))
@settings(max_examples=40, deadline=None)
def test_batched_transform_matches_each_omega_alone(batch):
    fn, theta, omegas, budget = batch
    singles = [_single_or_error(fn, theta, w, budget) for w in omegas]
    failed = [s for s in singles if isinstance(s, SectorLapError)]
    if failed:
        # the batch reports what the first failing omega reports alone
        with pytest.raises(type(failed[0])) as caught:
            laplace._g_values(fn, theta, omegas, budget, "numeric", DELTA_MIN_DEFAULT)
        assert str(caught.value) == str(failed[0])
        return
    ind, exact = indicator_value(fn, theta)
    nu = laplace._phase_rate(fn, theta)
    integrand, rate, amplitude, freq, key = laplace._ray_integrands(
        fn, theta, omegas, ind, nu, exact, DELTA_MIN_DEFAULT
    )
    amplitudes = np.full(len(omegas), amplitude)
    values, errors, T, used = quadrature._integrate_rays(integrand, rate, amplitudes, budget, freq)
    # omegas that share their smooth factor get the same bits as each on its own
    shared = quadrature._integrate_rays(integrand, rate, amplitudes, budget, freq, key)
    assert all(np.array_equal(mine, theirs) for mine, theirs in zip(shared, (values, errors, T, used)))
    for k, single in enumerate(singles):
        assert (int(used[k]), float(T[k]), float(errors[k])) == (
            single.panels_used,
            single.truncation_T,
            single.est_error,
        )
        assert abs(values[k] - single.value) <= 4 * np.finfo(float).eps * abs(single.value)
    assert np.array_equal(laplace._g_values(fn, theta, omegas, budget, "numeric", DELTA_MIN_DEFAULT)[0], values)


def _rotated_batch(fn_id, theta, rs_and_ss, budget_index):
    """A batch given in the rotated frame of theta: its omegas, and u = omega e^{i theta} = r + i s as given."""
    fn = BATCH_ENTRIES[fn_id]
    u = np.array([complex(r, s) for r, s in rs_and_ss])
    return fn, theta, u * np.exp(-1j * theta), u, BATCH_BUDGETS[budget_index]


@st.composite
def _rotated_batches(draw):
    fn_id = draw(st.sampled_from(sorted(BATCH_ENTRIES)))
    theta = draw(st.floats(-0.6, 0.6))
    offset = -indicator_value(BATCH_ENTRIES[fn_id], theta)[0]
    # a few lines Re u = r, margins down to delta_min (a hair above it against rounding), several s on each
    rs = draw(st.lists(st.floats(1.000001 * DELTA_MIN_DEFAULT, 4.0), min_size=1, max_size=3))
    size = draw(st.integers(1, 9))
    lines = draw(st.lists(st.sampled_from([offset - m for m in rs]), min_size=size, max_size=size))
    ss = draw(st.lists(st.one_of(st.just(0.0), st.floats(-30.0, 30.0)), min_size=size, max_size=size))
    return _rotated_batch(fn_id, theta, zip(lines, ss), draw(st.integers(0, len(BATCH_BUDGETS) - 1)))


def _one_pass_at(fn, theta, omega, u, budget):
    """(value, est_error, T, panels) of the one-omega pass at the rotated point u, or the error it raises."""
    ind, exact = indicator_value(fn, theta)
    try:
        integrand, rate, amplitude, freq, _ = laplace._ray_integrands(
            fn, theta, [omega], ind, laplace._phase_rate(fn, theta), exact, DELTA_MIN_DEFAULT, [u]
        )
        return quadrature._integrate_rays(integrand, rate, np.array([amplitude]), budget, freq)
    except SectorLapError as exc:
        return exc


@given(_rotated_batches())
# three omegas on one line off the axis, where omega e^{i theta} rounds each to its own Re, and one more line
@example(_rotated_batch("exp", 0.3, [(-1.6, 2.0), (-1.6, -5.0), (-1.6, 0.0), (-3.0, 1.0)], 0))
@example(_rotated_batch("trig", -0.45, [(-0.5, 3.0), (-0.5, 20.0), (-0.5, -8.0)], 2))
@settings(max_examples=30, deadline=None)
def test_a_batch_in_rotated_coordinates_matches_each_one_omega_pass_at_its_u(batch):
    fn, theta, omegas, u, budget = batch
    singles = [_one_pass_at(fn, theta, w, v, budget) for w, v in zip(omegas, u)]
    failed = [s for s in singles if isinstance(s, SectorLapError)]
    if failed:
        with pytest.raises(type(failed[0])) as caught:
            laplace._g_values(fn, theta, omegas, budget, "numeric", DELTA_MIN_DEFAULT, u)
        assert str(caught.value) == str(failed[0])
        return
    ind, exact = indicator_value(fn, theta)
    integrand, rate, amplitude, freq, key = laplace._ray_integrands(
        fn, theta, omegas, ind, laplace._phase_rate(fn, theta), exact, DELTA_MIN_DEFAULT, u
    )
    # one family per line Re u = r, its bits exactly as given
    assert key[0].tolist() == u.real.view(np.int64).tolist()
    batch = quadrature._integrate_rays(integrand, rate, np.full(len(u), amplitude), budget, freq, key)
    for k, single in enumerate(singles):
        assert [column[k] for column in batch] == [column[0] for column in single]
    values, errors = laplace._g_values(fn, theta, omegas, budget, "numeric", DELTA_MIN_DEFAULT, u)
    assert np.array_equal(values, batch[0]) and np.array_equal(errors, batch[1])


def _families_per_pass(monkeypatch) -> list:
    """Patch the engine binding that ``_g_values`` calls to append the family count of every pass it makes."""
    counts, integrate_rays = [], laplace._integrate_rays

    def counted(fn, rate, amplitude, budget, freq, key=None):
        counts.append(len(rate) if key is None else np.unique(np.stack(key), axis=1).shape[1])
        return integrate_rays(fn, rate, amplitude, budget, freq, key)

    monkeypatch.setattr(laplace, "_integrate_rays", counted)
    return counts


def test_a_leg_a_sweep_level_and_the_contour_check_are_one_family_each(monkeypatch):
    # callers hand g its rotated points, so rounding omega e^{i theta} cannot split a line Re u = r into families
    from sectorlap import ReconstructionQuery, blowup_scan, reconstruct

    counts = _families_per_pass(monkeypatch)
    gamma = build_gamma(SectorSpec(alpha=math.pi / 4, h=0.0), -1.0)
    budget = QuadratureBudget(rel_tol=1e-7, abs_floor=1e-10)
    for fn, z in ((make_exp(-1), 0.8 + 0.2j), (make_exp(-1 + 1j), 1.1 - 0.4j), (BATCH_ENTRIES["sum"], 0.7 + 0.1j)):
        res = reconstruct(ReconstructionQuery(fn, gamma, z, budget, "numeric"))
        assert abs(res.value - fn.evaluate(z)) <= res.est_error
    assert counts and max(counts) <= 2  # every inner pass: at most one family per leg
    counts.clear()
    assert blowup_scan(make_exp(-1 + 1j), 0.3, g_source="numeric").detected
    assert counts[0] == 1  # the 128 omegas of the sweep
    counts.clear()
    assert gamma_bound_check(make_exp(-1), GrowthCertificate(0.1, 1.0), gamma, samples=40, budget=BUDGET) <= 0.0
    assert counts == [2]


def test_batched_transform_covers_shortcut_and_refinement():
    fn, theta = BATCH_ENTRIES["exp"], 0.2
    shortcut = _single_or_error(fn, theta, _omega_at(fn, theta, 2.0, 0.0), BATCH_BUDGETS[1])
    assert shortcut.panels_used == 0 and shortcut.value == 0
    # every panel past the seed intervals is a split
    refined = _single_or_error(fn, theta, _omega_at(fn, theta, 1.0, 3.0), BATCH_BUDGETS[2])
    a, _, _ = quadrature._ray_breakpoints([refined.truncation_T], [1.0])
    assert refined.panels_used > len(a)


def _tainted(fn, theta, margin, factor):
    """fn times factor(z) for the omegas of this margin on the ray theta.

    Their weights w have Re(w e^{i theta}) = -indicator - margin.
    """
    ind, _ = indicator_value(fn, theta)
    weighted_eval, turn = fn.weighted_eval, cmath.exp(1j * theta)

    def tainted(z, w):
        vals = weighted_eval(z, w)
        return np.where(np.abs(np.real(w * turn) + ind + margin) < 1e-9, factor(z) * vals, vals)

    return dataclasses.replace(fn, weighted_eval=tainted)


_OSCILLATING = lambda z: np.exp(50j * np.abs(z))
_NAN_BEYOND_3 = lambda z: np.where(np.abs(z) > 3.0, np.nan, 1.0)


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("kind", ["margin", "cap"])
def test_batch_with_one_bad_omega_raises_its_error(position, kind, monkeypatch):
    fn, theta = BATCH_ENTRIES["trig"], 0.1
    # these four rays take 6 seed intervals and no split
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 6)
    budget = QuadratureBudget(rel_tol=1e-10, abs_floor=1e-13)
    omegas = [_omega_at(fn, theta, m, f) for m, f in [(0.4, 1.0), (1.5, -2.0), (0.9, 0.0), (2.0, 3.0)]]
    # a margin below delta_min, or an F that oscillates too fast for seeds or the panel cap
    margin = -0.5 if kind == "margin" else 0.7
    if kind == "cap":
        fn = _tainted(fn, theta, margin, _OSCILLATING)
    bad = _omega_at(fn, theta, margin, 1.0)
    omegas.insert(position, bad)
    alone = _single_or_error(fn, theta, bad, budget)
    assert isinstance(alone, OutsideDomain if kind == "margin" else BudgetExceeded)
    with pytest.raises(type(alone)) as caught:
        laplace._g_values(fn, theta, omegas, budget, "numeric", DELTA_MIN_DEFAULT)
    assert str(caught.value) == str(alone)


def _families_and_loners(fn, rng):
    """At theta = 0: two families of 50 omegas, one margin each with distinct frequencies, and 20 loners, shuffled."""
    margins = np.concatenate((np.full(50, 0.7), np.full(50, 2.3), rng.uniform(0.05, 3.0, 20)))
    freqs = np.concatenate((rng.permutation(np.linspace(-30.0, 30.0, 100)), rng.uniform(-30.0, 30.0, 20)))
    order = rng.permutation(len(margins))
    return [_omega_at(fn, 0.0, m, f) for m, f in zip(margins[order], freqs[order])]


@pytest.mark.parametrize("budget", BATCH_BUDGETS[:2])
@pytest.mark.parametrize("fn_id", sorted(BATCH_ENTRIES))
def test_families_of_omegas_get_the_bits_of_each_omega_on_its_own(fn_id, budget):
    fn = BATCH_ENTRIES[fn_id]
    omegas = _families_and_loners(fn, np.random.default_rng(7))
    ind, exact = indicator_value(fn, 0.0)
    integrand, rate, amplitude, freq, key = laplace._ray_integrands(
        fn, 0.0, omegas, ind, laplace._phase_rate(fn, 0.0), exact, DELTA_MIN_DEFAULT
    )
    assert len(key) == 1 and len(np.unique(key[0])) == 22
    amplitudes = np.full(len(omegas), amplitude)
    shared = quadrature._integrate_rays(integrand, rate, amplitudes, budget, freq, key)
    alone = quadrature._integrate_rays(integrand, rate, amplitudes, budget, freq)
    for mine, theirs in zip(shared, alone):
        assert np.array_equal(mine, theirs)
    values, errors = laplace._g_values(fn, 0.0, omegas, budget, "numeric", DELTA_MIN_DEFAULT)
    assert np.array_equal(values, shared[0]) and np.array_equal(errors, shared[1])


@pytest.mark.parametrize("position", [0, 3, 6])
@pytest.mark.parametrize("kind", ["margin", "cap", "non-finite"])
def test_a_bad_omega_in_a_family_raises_what_it_raises_alone(position, kind, monkeypatch):
    fn = BATCH_ENTRIES["trig"]  # indicator 0 at theta = 0, so that an omega's margin is -Re(omega)
    # these rays take at most 6 seed intervals and no split: two families of three and a loner
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 6)
    budget = QuadratureBudget(rel_tol=1e-10, abs_floor=1e-13)
    good = [(0.4, 1.0), (1.5, -2.0), (0.4, 5.0), (0.9, 0.0), (1.5, 3.0), (0.4, -7.0)]
    # a family of two bad omegas: margins below delta_min, an F that oscillates past the panel cap, or a non-finite F
    margin = -0.5 if kind == "margin" else 0.7
    if kind != "margin":
        fn = _tainted(fn, 0.0, margin, _OSCILLATING if kind == "cap" else _NAN_BEYOND_3)
    spec = good[:position] + [(margin, 4.0)] + good[position : position + 2] + [(margin, -1.0)] + good[position + 2 :]
    omegas = [_omega_at(fn, 0.0, m, f) for m, f in spec]
    singles = [_single_or_error(fn, 0.0, w, budget) for w in omegas]
    first = next(s for s in singles if isinstance(s, SectorLapError))
    assert isinstance(first, {"margin": OutsideDomain, "cap": BudgetExceeded, "non-finite": IllConditioned}[kind])
    with pytest.raises(type(first)) as caught:
        laplace._g_values(fn, 0.0, omegas, budget, "numeric", DELTA_MIN_DEFAULT)
    assert str(caught.value) == str(first)


def _owners(key):
    """The integral whose F each integral of a ray batch with this key is computed from: its family's first."""
    # F(t, k) = e^{-(1 + k) t} integrates to 1 / (1 + k): distinct per integral, so each value names its owner
    n = len(key[0])
    values, _, _, _ = quadrature._integrate_rays(
        lambda t, k: np.exp(-(1.0 + k) * t), np.ones(n), np.ones(n), BUDGET, np.zeros(n), key
    )
    return np.rint(1.0 / values.real - 1.0).astype(int).tolist()


def test_families_group_omegas_by_direction_and_the_bits_of_their_real_part():
    theta = np.array([0.3, -0.2, 0.3, -0.2, 0.3, 0.3, -0.2])
    re = np.array([1.0, 1.0, 1.0, -0.0, 0.0, 1.0, 0.0])
    # theta apart, and the bits of the real part apart: -0.0 and 0.0 too
    assert _owners((theta.view(np.int64), re.view(np.int64))) == [0, 1, 0, 3, 4, 0, 6]
    one = np.array([2.0, 1.0, 2.0, 2.0])
    assert _owners((one.view(np.int64),)) == [0, 1, 0, 0]
    # a single omega, or omegas that are all alone, share nothing
    assert _owners((one[:1].view(np.int64),)) == [0]
    assert _owners((one[:2].view(np.int64),)) == [0, 1]
    # a batch's key: the bits of theta where it is given per omega, then those of Re(omega e^{i theta})
    fn, omegas = BATCH_ENTRIES["exp"], re * np.exp(-1j * theta)
    _, _, _, _, key = laplace._ray_integrands(fn, theta, omegas, -3.0, 0.0, True, DELTA_MIN_DEFAULT)
    assert [column.tolist() for column in key] == [
        theta.view(np.int64).tolist(), (omegas * np.exp(1j * theta)).real.view(np.int64).tolist()
    ]
    _, _, _, _, key = laplace._ray_integrands(fn, 0.3, omegas, -3.0, 0.0, True, DELTA_MIN_DEFAULT)
    assert [column.tolist() for column in key] == [(omegas * cmath.exp(0.3j)).real.view(np.int64).tolist()]


def test_a_family_evaluates_its_smooth_factor_once_while_seeding():
    points = []
    fn = BATCH_ENTRIES["exp"]
    weighted_eval = fn.weighted_eval
    counted = dataclasses.replace(fn, weighted_eval=lambda z, w: points.append(np.size(z)) or weighted_eval(z, w))
    # 288 omegas, one margin: a leg of a numeric inversion is one such family
    omegas = [_omega_at(fn, 0.0, 1.0, f) for f in np.linspace(-20.0, 20.0, 288)]
    ind, exact = indicator_value(fn, 0.0)
    integrand, rate, amplitude, freq, key = laplace._ray_integrands(
        counted, 0.0, omegas, ind, laplace._phase_rate(fn, 0.0), exact, DELTA_MIN_DEFAULT
    )
    assert len(key) == 1 and np.all(key[0] == key[0][0])
    _, _, T, used = quadrature._integrate_rays(integrand, rate, np.full(len(omegas), amplitude), BUDGET, freq, key)
    seeds = len(quadrature._ray_breakpoints([T[0]], [rate[0]])[0])
    assert used.tolist() == [seeds] * len(omegas)  # no omega refines: every point is a seeding point
    assert sum(points) == seeds * 3 * 16


def test_large_batch_matches_singles():
    fn, theta = BATCH_ENTRIES["trig"], 0.1
    budget = QuadratureBudget(rel_tol=1e-10, abs_floor=1e-13)
    count = 1000
    margins, freqs = np.linspace(0.2, 3.0, count), 8.0 * np.sin(np.arange(count))
    omegas = [_omega_at(fn, theta, m, f) for m, f in zip(margins, freqs)]
    values, errors = laplace._g_values(fn, theta, omegas, budget, "numeric", DELTA_MIN_DEFAULT)
    singles = [_single_or_error(fn, theta, w, budget) for w in omegas]
    assert errors.tolist() == [s.est_error for s in singles]
    for value, single in zip(values, singles):
        assert abs(value - single.value) <= 4 * np.finfo(float).eps * abs(single.value)


def test_g_values_with_a_direction_per_omega(monkeypatch):
    fn = BATCH_ENTRIES["sum"]
    thetas, margins, freqs = [0.3, -0.2, 0.3, -0.2, 0.3], [1.0, 0.5, 2.0, 0.3, 0.05], [0.0, 3.0, -4.0, 1.0, 9.0]
    omegas = [_omega_at(fn, t, m, f) for t, m, f in zip(thetas, margins, freqs)]
    lookups = []
    indicator = laplace.indicator_value
    monkeypatch.setattr(laplace, "indicator_value", lambda fn, t: lookups.append(t) or indicator(fn, t))
    values, errors = laplace._g_values(fn, thetas, omegas, BUDGET, "numeric", DELTA_MIN_DEFAULT)
    # one indicator per distinct direction, and each omega as in a batch along its own direction
    assert sorted(lookups) == [-0.2, 0.3]
    for theta in (0.3, -0.2):
        mine = [k for k, t in enumerate(thetas) if t == theta]
        alone, alone_errors = laplace._g_values(
            fn, theta, [omegas[k] for k in mine], BUDGET, "numeric", DELTA_MIN_DEFAULT
        )
        assert errors[mine].tolist() == alone_errors.tolist()
        assert np.abs(values[mine] - alone).max() <= 4 * np.finfo(float).eps * np.abs(alone).max()


@pytest.mark.parametrize("source", ["auto", "oracle"])
def test_g_values_from_the_oracle(source):
    fn, theta = BATCH_ENTRIES["exp"], 0.2
    # one omega per kind: plain, oscillating, near the boundary, and outside Omega_theta
    omegas = [_omega_at(fn, theta, m, f) for m, f in [(1.0, 0.0), (0.5, 20.0), (1e-4, 0.0), (-0.5, 1.0)]]
    values, errors = laplace._g_values(fn, theta, omegas, BUDGET, source, DELTA_MIN_DEFAULT)
    assert np.array_equal(values, fn.transform_oracle(np.array(omegas)))
    assert errors.tolist() == [0.0] * len(omegas)
