"""Quadrature layer against closed-form antiderivatives."""

import heapq
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorlap import (
    BudgetExceeded,
    DecayModel,
    IllConditioned,
    InvalidDecay,
    QuadratureBudget,
    cauchy_kernel_check,
    integrate_ray,
    integrate_segment,
)
from sectorlap import quadrature

TIGHT = QuadratureBudget(rel_tol=1e-12, abs_floor=1e-14)


def test_budget_validation():
    with pytest.raises(ValueError):
        QuadratureBudget(rel_tol=1e-15)
    with pytest.raises(ValueError):
        QuadratureBudget(abs_floor=0.0)


def test_budget_tighten_floors():
    b = QuadratureBudget(rel_tol=1e-8, abs_floor=1e-10)
    t = b.tighten()
    assert t.rel_tol == 1e-10 and t.abs_floor == 1e-12
    t = QuadratureBudget(rel_tol=1e-13, abs_floor=1e-14).tighten()
    assert t.rel_tol == 1e-14 and t.abs_floor == 1e-15  # floored, not zero


def test_decay_model_validation():
    with pytest.raises(InvalidDecay):
        DecayModel(rate=0.0, amplitude=1.0)
    with pytest.raises(InvalidDecay):
        DecayModel(rate=1.0, amplitude=0.0)


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("bad", [(0.0, 1.0), (math.nan, 1.0), (1.0, 0.0), (1.0, math.inf)])
def test_ray_batch_rejects_the_first_bad_envelope(position, bad):
    rate, amplitude = np.full(5, 2.0), np.full(5, 3.0)
    rate[position], amplitude[position] = bad
    # a later bad envelope of the other kind is not the one reported
    if position < 4:
        rate[4], amplitude[4] = (1.0, 0.0) if bad[0] != 1.0 else (0.0, 1.0)
    with pytest.raises(InvalidDecay) as alone:
        DecayModel(*bad)

    def never_called(t, k):
        raise AssertionError("an envelope is validated before any quadrature")

    with pytest.raises(InvalidDecay) as caught:
        quadrature._integrate_rays(never_called, rate, amplitude, TIGHT, np.zeros(5))
    assert str(caught.value) == str(alone.value)


def _never_called(t, k):
    raise AssertionError("no panel is seeded")


def test_a_rate_too_small_for_a_finite_truncation_point_is_invalid():
    # T = ln(2 A / (m abs_floor)) / m overflows for m = 1e-310: rejected before any panel, so without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDecay, match=r"decay rate 1e-310 is too small: the truncation point T overflows"):
            integrate_ray(lambda t: np.exp(-t), DecayModel(1e-310, 1.0))
        with pytest.raises(InvalidDecay, match="decay rate 1e-310 "):
            quadrature._integrate_rays(_never_called, np.array([1.0, 1e-310, 1e-320]), np.ones(3), TIGHT, np.zeros(3))


def test_a_rate_whose_seed_intervals_overflow_is_invalid():
    # T = 1.46e308 is finite, but the seed intervals s 2^d reach up to 2T, which is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDecay, match=r"decay rate 5e-306 is too small"):
            integrate_ray(_never_called, DecayModel(5e-306, 1.0))


def test_a_ray_seeds_at_most_13_panels():
    # T m = ln(2 A / (m abs_floor)) <= ~2200 for finite doubles, so [0, s], [s, 2s], ... up to T, s = 1/m, is short
    zero = lambda t, k: np.zeros(t.shape)
    rates = np.geomspace(5e-324, 1e308, 400)
    most = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for amplitude in (5e-324, 1e-300, 1e-12, 1.0, 1e300, 1.8e308):
            for abs_floor in (5e-324, 1e-300, 1e-12, 1.0, 1e300):
                budget = QuadratureBudget(abs_floor=abs_floor)
                for rate in rates:
                    try:
                        _, _, _, used = quadrature._integrate_rays(
                            zero, np.array([rate]), np.array([amplitude]), budget, np.zeros(1)
                        )
                    except InvalidDecay:
                        continue
                    most = max(most, int(used[0]))
    assert most == 13


# F(t) = e^{-c t} per integral, and the integrals that share an F: three families and two loners
SHARED_C = np.array([1.0, 0.5 + 2j, 1.0, 2.0, 1.0, 0.5 + 2j, 3.0])
SHARES = np.array([0, 1, 0, 3, 0, 1, 6])


def test_integrals_sharing_a_smooth_factor_get_their_results_alone():
    freq = np.array([0.0, 3.0, -5.0, 1.0, 40.0, 0.0, 7.5])
    owners = []

    def fn(t, k):
        owners.extend(np.unique(k).tolist())
        return np.exp(-SHARED_C[k] * t)

    rate, amplitude = SHARED_C.real.copy(), np.ones(len(SHARED_C))
    shared = quadrature._integrate_rays(fn, rate, amplitude, TIGHT, freq, SHARES)
    alone = quadrature._integrate_rays(lambda t, k: np.exp(-SHARED_C[k] * t), rate, amplitude, TIGHT, freq)
    for mine, theirs in zip(shared, alone):
        assert np.array_equal(mine, theirs)
    # F is evaluated for the first integral of each family only
    assert set(owners) == {0, 1, 3, 6}
    values, errors = shared[:2]
    assert np.all(np.abs(values - 1.0 / (SHARED_C - 1j * freq)) <= errors)


@pytest.mark.parametrize(
    "shares, rate, amplitude",
    [
        ([1, 1, 2], [1.0, 1.0, 2.0], [1.0, 1.0, 1.0]),  # sharing with a later integral
        ([0, 0, 1], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),  # sharing with one that shares another's
        ([0, 0, 2], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]),  # another rate
        ([0, 0, 2], [1.0, 1.0, 1.0], [1.0, 3.0, 1.0]),  # another amplitude
    ],
)
def test_sharing_is_validated_before_any_panel(shares, rate, amplitude):
    with pytest.raises(ValueError, match="share"):
        quadrature._integrate_rays(_never_called, np.array(rate), np.array(amplitude), TIGHT, np.zeros(3), shares)


def test_segment_polynomial():
    # antiderivative: t^2 + i t^3 on [0, 1]
    res = integrate_segment(lambda t: 2.0 * t + 3j * t**2, 0.0, 1.0, TIGHT)
    np.testing.assert_allclose(res.value, 1.0 + 1.0j, rtol=1e-13)
    assert abs(res.value - (1.0 + 1.0j)) <= res.est_error + 1e-15


def test_segment_oscillatory():
    # antiderivative: -i e^{i t} over [0, pi] gives exactly 2i; F = e^{i t / 4} times the carrier e^{3i t / 4}
    res = integrate_segment(lambda t: np.exp(0.25j * t), 0.0, math.pi, TIGHT, freq=0.75)
    np.testing.assert_allclose(res.value, 2.0j, rtol=1e-13, atol=1e-14)
    # the whole rotation as the carrier: F = 1
    res = integrate_segment(lambda t: np.ones_like(t), 0.0, math.pi, TIGHT, freq=-1.0)
    np.testing.assert_allclose(res.value, -2.0j, rtol=1e-13, atol=1e-14)
    assert res.panels_used == 1


def test_ray_real_exponential():
    res = integrate_ray(lambda t: np.exp(-t), DecayModel(rate=1.0, amplitude=1.0), TIGHT)
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-12)
    assert abs(res.value - 1.0) <= res.est_error
    assert res.truncation_T > 20.0  # e^{-T} must be pushed below the floor


def test_ray_oscillatory_exponential():
    # int_0^inf e^{-(1-i)t} dt = 1/(1-i) = 0.5 + 0.5i
    res = integrate_ray(lambda t: np.exp(-t), DecayModel(rate=1.0, amplitude=1.0), TIGHT, freq=1.0)
    np.testing.assert_allclose(res.value, 0.5 + 0.5j, rtol=1e-12)
    assert abs(res.value - (0.5 + 0.5j)) <= res.est_error


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ray_carrier_costs_no_panels(sign):
    # int_0^inf e^{-t} e^{i kappa t} dt = 1 / (1 - i kappa), with F = e^{-t} for every kappa
    panels = []
    for kappa in sign * np.geomspace(1e-3, 1e4, 15):
        res = integrate_ray(lambda t: np.exp(-t), DecayModel(rate=1.0, amplitude=1.0), TIGHT, freq=kappa)
        exact = 1.0 / (1.0 - 1j * kappa)
        assert abs(res.value - exact) <= res.est_error
        panels.append(res.panels_used)
    plain = integrate_ray(lambda t: np.exp(-t), DecayModel(rate=1.0, amplitude=1.0), TIGHT)
    assert max(panels) <= plain.panels_used


def _reference_moments(x: float) -> np.ndarray:
    """int_{-1}^{1} P_n(u) e^{i x u} du for n < 16, by composite 30-point Gauss-Legendre on many panels."""
    count = 16 + int(abs(x) / 2)
    u, w = np.polynomial.legendre.leggauss(30)
    edges = np.linspace(-1.0, 1.0, count + 1)
    half = 0.5 * np.diff(edges)
    t = ((edges[:-1] + half)[:, None] + half[:, None] * u).ravel()
    return (np.repeat(half, 30) * np.tile(w, count) * np.exp(1j * x * t)) @ np.polynomial.legendre.legvander(t, 15)


def _legendre_owner(t, k):
    """P_k(t), the owner k choosing the degree."""
    return np.take_along_axis(np.polynomial.legendre.legvander(t, 15), k[:, :, None], axis=2)[..., 0]


def test_panel_rule_matches_reference_moments():
    # F = P_n on the panel [-1, 1] with carrier frequency x: the panel sum is M_n(x) = int P_n(u) e^{ixu} du
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, tiny, -tiny, 1e-300, 1e-8, 0.5, 11.999999999, 12.0, -12.0, 12.000000001, 1e4, -1e4]
    far = np.geomspace(40.0, 1e4, 25)
    xs = np.concatenate((special, np.linspace(-40.0, 40.0, 97), far, -far))
    degrees, ones = np.arange(16), np.ones(16)
    every = quadrature._sums(
        _legendre_owner, -np.tile(ones, len(xs)), np.tile(ones, len(xs)), np.tile(degrees, len(xs)), None, xs.repeat(16)
    ).reshape(len(xs), 16)
    for x, row in zip(xs.tolist(), every):
        alone = quadrature._sums(_legendre_owner, -ones, ones, degrees, None, np.full(16, x))
        assert np.abs(alone - _reference_moments(x)).max() <= 1e-13, x
        # each panel's sum depends on its own panel alone, whatever else shares the call
        assert np.array_equal(alone, row)


@pytest.mark.parametrize("amplitude", [1e300, 1.7e308])
def test_ray_truncation_survives_an_overflowing_quotient(amplitude):
    # 2 A / (m abs_floor) overflows: T = ln(2 A / (m abs_floor)) / m, its logarithm taken term by term
    res = integrate_ray(lambda t: np.exp(-t), DecayModel(rate=1.0, amplitude=amplitude), TIGHT)
    want_T = math.log(2.0) + math.log(amplitude) - math.log(TIGHT.abs_floor)
    assert math.isclose(res.truncation_T, want_T, rel_tol=1e-15)
    assert abs(res.value - 1.0) <= res.est_error <= 1e-12


def test_ray_negligible_tail_shortcut():
    # amplitude so small the whole ray sits below the floor: no panels at all
    res = integrate_ray(lambda t: np.exp(-t) * 1e-20, DecayModel(rate=1.0, amplitude=1e-20), TIGHT)
    assert res.value == 0.0
    assert res.panels_used == 0
    assert res.est_error <= 1e-14


def test_conjugate_symmetry():
    # int_0^inf e^{-(1 -+ i) t} dt = 1 / (1 -+ i), as F = e^{-(1 -+ i/2) t} times the carrier e^{+- i t / 2}
    res_plus = integrate_ray(lambda t: np.exp(-(1 - 0.5j) * t), DecayModel(1.0, 1.0), TIGHT, freq=0.5)
    res_minus = integrate_ray(lambda t: np.exp(-(1 + 0.5j) * t), DecayModel(1.0, 1.0), TIGHT, freq=-0.5)
    np.testing.assert_allclose(res_plus.value, 0.5 + 0.5j, rtol=1e-12)
    # mirrored integrands refine identically, so the values conjugate exactly
    assert res_plus.value == res_minus.value.conjugate()
    assert res_plus.panels_used == res_minus.panels_used


def test_budget_exhaustion_reports(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    budget = QuadratureBudget(rel_tol=1e-12, abs_floor=1e-14)
    # 800 periods of a rotation the integrand computes itself: far more than 8 panels
    with pytest.raises(BudgetExceeded, match="panel budget 8 exhausted"):
        integrate_segment(lambda t: np.exp(100j * t), 0.0, 50.0, budget)
    # the same integral with the rotation as the carrier is one panel
    res = integrate_segment(lambda t: np.ones_like(t), 0.0, 50.0, budget, freq=100.0)
    np.testing.assert_allclose(res.value, (np.exp(5000j) - 1.0) / 100j, rtol=1e-12)
    assert res.panels_used == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_integrand_raises(bad):
    with pytest.raises(IllConditioned, match=r"non-finite integrand value on \[0\.0, 1\.0\]"):
        integrate_segment(lambda t: np.where(t > 0.5, bad, 1.0), 0.0, 1.0)
    # seed panels [0, 1, 2, 4, ...]: the first one with a node beyond t = 2 is [2, 4]
    with pytest.raises(IllConditioned, match=r"\[2\.0, 4\.0\]"):
        integrate_ray(lambda t: np.where(t > 2.0, bad, np.exp(-t)), DecayModel(rate=1.0, amplitude=1.0))


def test_non_finite_value_while_refining_raises():
    calls = []

    def poisoned_after_seeding(t):
        calls.append(len(t))
        vals = np.exp(20j * t)
        return vals if len(calls) == 1 else vals * np.nan

    # one seed panel far too long for the oscillation, so the first split is certain
    with pytest.raises(IllConditioned, match=r"\[0\.0, 5\.0\]"):
        integrate_segment(poisoned_after_seeding, 0.0, 10.0, TIGHT)
    assert len(calls) == 2


@pytest.mark.parametrize("reverse", [False, True])
def test_a_batch_fails_as_its_first_failing_integral(reverse, monkeypatch):
    # one pass seeds both integrals before either refines; the error is still the one of the first
    # integral to fail in input order, as if they were computed one after another
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    budget = QuadratureBudget(rel_tol=1e-12, abs_floor=1e-14)
    a, b = np.array([0.0, 0.0]), np.array([50.0, 1.0])  # e^{100it} on [0, 50] refines past 8 panels
    oscillating = 0
    if reverse:
        a, b, oscillating = a[::-1].copy(), b[::-1].copy(), 1

    def fn(t, k):
        return np.where(k == oscillating, np.exp(100j * t), np.nan)

    error, match = (IllConditioned, r"\[0\.0, 1\.0\]") if reverse else (BudgetExceeded, "panel budget 8 exhausted")
    with pytest.raises(error, match=match):
        quadrature._integrate_segments(fn, a, b, budget, np.zeros(2))


def test_initial_panels_are_evaluated_in_chunks():
    # the kernel integrals of cauchy_kernel_check at 40 values of z, with a call log; the last one keeps
    # its rotation inside F (carrier frequency 0), so it refines
    zs = np.append(-0.02 * (1.0 + np.arange(39) / 4.0) + 5j, -0.5 + 2j)
    freq = np.append(zs.imag[:-1], 0.0)
    exponent = np.append(zs.real[:-1], zs[-1])
    sizes = []

    def kernels(t, k):
        sizes.append(t.size)
        return np.exp(t * exponent[k])

    budget = QuadratureBudget(rel_tol=1e-12, abs_floor=5e-14)
    values, _, T, used = quadrature._integrate_rays(kernels, -zs.real, np.ones(len(zs)), budget, freq)
    a, _, _ = quadrature._ray_breakpoints(T.tolist(), (-zs.real).tolist())
    n_initial, order = len(a), 16
    seeding = math.ceil(n_initial / quadrature._CHUNK_PANELS)
    assert (n_initial, int(used.sum())) == (280, 282)
    assert seeding > 1 and used[-1] > len(quadrature._ray_breakpoints([T[-1]], [0.5])[0])
    assert sum(sizes[:seeding]) == 3 * order * n_initial
    assert max(sizes) <= 3 * order * quadrature._CHUNK_PANELS
    # each split evaluates the four half-panels of its two children in one call
    assert sizes[seeding:] == [4 * order] * (int(used.sum()) - n_initial)
    assert np.abs(1.0 / zs + values).max() <= 1e-10


def _logged_zero(calls):
    """F = 0, whose every panel sum and estimate is exactly 0; logs the nodes of each call."""

    def fn(t, k):
        calls.append(t.copy())
        return np.zeros(t.shape)

    return fn


def test_refinement_stops_once_every_estimate_is_zero(monkeypatch):
    # a crafted state: one panel of estimate 1 under a running estimate of 2, so that after its split the
    # running estimate (1) stays above the target while every panel's estimate is exactly 0
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)  # a third split would raise BudgetExceeded
    calls = []
    zeros = np.zeros(1, dtype=complex)
    value, est_error, used = quadrature._refine(
        _logged_zero(calls), 0, 0.0, np.array([0.0]), np.array([1.0]), zeros, zeros, np.array([1.0]), 0j, 2.0, TIGHT
    )
    assert (value, est_error, used) == (0j, 0.0, 2)
    assert len(calls) == 1


def test_refinement_splits_the_older_of_equally_bad_panels():
    # panel 0 = [1, 2] is older than panel 1 = [0, 1] and has the same estimate, bit for bit; panel 2 is better
    calls = []
    lo, hi, err = np.array([1.0, 0.0, 2.0]), np.array([2.0, 1.0, 3.0]), np.array([0.5, 0.5, 0.25])
    zeros = np.zeros(3, dtype=complex)
    _, _, used = quadrature._refine(_logged_zero(calls), 0, 0.0, lo, hi, zeros, zeros, err, 0j, 1.0, TIGHT)
    # 1.0 - 0.5 is still above the target, 1.0 - 0.5 - 0.5 is not: two splits, the older panel's first
    assert used == 5
    assert [(float(call.min()), float(call.max())) for call in calls] == [
        (pytest.approx(1.0, abs=0.01), pytest.approx(2.0, abs=0.01)),
        (pytest.approx(0.0, abs=0.01), pytest.approx(1.0, abs=0.01)),
    ]


def _per_panel_reference(fn, a, b, budget):
    """The engine on [a, b] with one integrand call per half-panel and a heap of panels."""
    x, w = np.polynomial.legendre.leggauss(16)
    ages = itertools.count()

    def gl(lo, hi):
        return 0.5 * (hi - lo) * complex(np.dot(w, fn(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)))

    def panel(lo, hi, coarse):
        mid = 0.5 * (lo + hi)
        left, right = gl(lo, mid), gl(mid, hi)
        # heap order: worst error first, then the older panel
        return (-abs(left + right - coarse), next(ages), lo, hi, left + right, left, right)

    heap = [panel(a, b, gl(a, b))]
    while -math.fsum(p[0] for p in heap) > budget.rel_tol * abs(sum(p[4] for p in heap)) + budget.abs_floor:
        _, _, lo, hi, _, left, right = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        heapq.heappush(heap, panel(lo, mid, left))
        heapq.heappush(heap, panel(mid, hi, right))
    return complex(math.fsum(p[4].real for p in heap), math.fsum(p[4].imag for p in heap)), len(heap)


@pytest.mark.parametrize(
    "fn, b",
    [
        (lambda t: np.exp(200j * t), 10.0),
        (lambda t: np.exp(50j * t) * np.sqrt(t), 30.0),
        (lambda t: np.abs(t - 0.3) ** 0.1 + 1j * np.abs(t - 0.71) ** 0.3, 1.0),
        (lambda t: 1.0 / (1e-4 + (t - 0.5) ** 2), 1.0),
    ],
)
def test_refinement_matches_per_panel_reference(fn, b):
    budget = QuadratureBudget()
    want_value, want_panels = _per_panel_reference(fn, 0.0, b, budget)
    res = integrate_segment(fn, 0.0, b, budget)
    assert res.panels_used == want_panels > 1
    assert abs(res.value - want_value) <= 1e-13 * abs(want_value) + 1e-15


def test_kernel_identity_grid():
    for z in (-1.0, -1 + 1j, -0.5 - 2j, -3.0 + 0.25j):
        res = cauchy_kernel_check(z, QuadratureBudget(rel_tol=1e-12, abs_floor=5e-14))
        assert abs(res.value) <= 1e-10


def test_kernel_requires_decay():
    with pytest.raises(InvalidDecay):
        cauchy_kernel_check(0.5)
    with pytest.raises(InvalidDecay):
        cauchy_kernel_check(1j)


@given(
    coeffs=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=6),
    upper=st.floats(0.25, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_segment_matches_antiderivative(coeffs, upper):
    def poly(t):
        acc = np.zeros_like(np.asarray(t, dtype=complex))
        for k, c in enumerate(coeffs):
            acc = acc + c * np.asarray(t) ** k
        return acc

    exact = sum(c * upper ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
    res = integrate_segment(poly, 0.0, float(upper), TIGHT)
    scale = max(1.0, abs(exact))
    assert abs(res.value - exact) <= 1e-11 * scale


@given(a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_segment_linearity(a, b):
    f = lambda t: np.exp(1j * t)
    g = lambda t: np.asarray(t) ** 2
    combined = integrate_segment(lambda t: a * f(t) + b * g(t), 0.0, 2.0, TIGHT)
    parts = a * integrate_segment(f, 0.0, 2.0, TIGHT).value
    parts += b * integrate_segment(g, 0.0, 2.0, TIGHT).value
    assert abs(combined.value - parts) <= 1e-10 * max(1.0, abs(parts))
