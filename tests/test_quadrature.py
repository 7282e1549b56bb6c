"""Quadrature layer against closed-form antiderivatives."""

import heapq
import itertools
import math

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
        QuadratureBudget(panel_order=1)
    with pytest.raises(ValueError):
        QuadratureBudget(max_panels=10**6, panel_order=64)


def test_budget_tighten_floors():
    b = QuadratureBudget(rel_tol=1e-8, abs_floor=1e-10)
    t = b.tighten(100.0)
    assert t.rel_tol == 1e-10 and t.abs_floor == 1e-12
    assert b.tighten(1e12).rel_tol == 1e-14  # floored, not zero


def test_decay_model_validation():
    with pytest.raises(InvalidDecay):
        DecayModel(rate=0.0, amplitude=1.0)
    with pytest.raises(InvalidDecay):
        DecayModel(rate=1.0, amplitude=0.0)
    assert math.isclose(DecayModel(rate=2.0, amplitude=3.0).tail_bound(1.0), 1.5 * math.exp(-2.0))


def test_segment_polynomial():
    # antiderivative: t^2 + i t^3 on [0, 1]
    res = integrate_segment(lambda t: 2.0 * t + 3j * t**2, 0.0, 1.0, TIGHT)
    np.testing.assert_allclose(res.value, 1.0 + 1.0j, rtol=1e-13)
    assert abs(res.value - (1.0 + 1.0j)) <= res.est_error + 1e-15


def test_segment_oscillatory():
    # antiderivative: -i e^{i t} over [0, pi] gives exactly 2i
    res = integrate_segment(lambda t: np.exp(1j * t), 0.0, math.pi, TIGHT, osc_freq=1.0)
    np.testing.assert_allclose(res.value, 2.0j, rtol=1e-13, atol=1e-14)


def test_ray_real_exponential():
    res = integrate_ray(lambda t: np.exp(-t), DecayModel(rate=1.0, amplitude=1.0), TIGHT)
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-12)
    assert abs(res.value - 1.0) <= res.est_error
    assert res.truncation_T > 20.0  # e^{-T} must be pushed below the floor


def test_ray_oscillatory_exponential():
    # int_0^inf e^{-(1-i)t} dt = 1/(1-i) = 0.5 + 0.5i
    res = integrate_ray(
        lambda t: np.exp(-(1 - 1j) * t), DecayModel(rate=1.0, amplitude=1.0), TIGHT, osc_freq=1.0
    )
    np.testing.assert_allclose(res.value, 0.5 + 0.5j, rtol=1e-12)
    assert abs(res.value - (0.5 + 0.5j)) <= res.est_error


def test_ray_negligible_tail_shortcut():
    # amplitude so small the whole ray sits below the floor: no panels at all
    res = integrate_ray(lambda t: np.exp(-t) * 1e-20, DecayModel(rate=1.0, amplitude=1e-20), TIGHT)
    assert res.value == 0.0
    assert res.panels_used == 0
    assert res.est_error <= 1e-14


def test_conjugate_symmetry():
    res_plus = integrate_ray(
        lambda t: np.exp(-(1 - 1j) * t), DecayModel(1.0, 1.0), TIGHT, osc_freq=1.0
    )
    res_minus = integrate_ray(
        lambda t: np.exp(-(1 + 1j) * t), DecayModel(1.0, 1.0), TIGHT, osc_freq=1.0
    )
    # mirrored integrands refine identically, so the values conjugate exactly
    assert res_plus.value == res_minus.value.conjugate()


def test_budget_exhaustion_reports():
    budget = QuadratureBudget(rel_tol=1e-12, abs_floor=1e-14, max_panels=8)
    with pytest.raises(BudgetExceeded):
        integrate_segment(lambda t: np.exp(100j * t), 0.0, 50.0, budget, osc_freq=100.0)


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


def test_initial_panels_are_evaluated_in_chunks():
    # the integrand of cauchy_kernel_check at an oscillatory z, with a call log
    z = -0.02 + 5j
    sizes = []

    def kernel(t):
        sizes.append(len(t))
        return np.exp(t * z)

    budget = QuadratureBudget(rel_tol=1e-12, abs_floor=5e-14)
    res = integrate_ray(kernel, DecayModel(rate=-z.real, amplitude=1.0), budget, osc_freq=abs(z.imag))
    a, b, _, _ = quadrature._ray_breakpoints([res.truncation_T], [-z.real])
    n_initial = int(np.ceil((b - a) / (2.0 * math.pi / abs(z.imag))).sum())
    order = budget.panel_order
    seeding = math.ceil(n_initial / quadrature._CHUNK_PANELS)
    # the same subdivision and refinement as evaluating one half-panel per call
    assert (n_initial, res.panels_used) == (1405, 1406)
    assert sum(sizes[:seeding]) == 3 * order * n_initial
    assert max(sizes) <= 3 * order * quadrature._CHUNK_PANELS
    # each split evaluates the four half-panels of its two children in one call
    assert sizes[seeding:] == [4 * order] * (res.panels_used - n_initial)
    assert abs(1.0 / z + res.value) <= 1e-10


def _per_panel_reference(fn, a, b, budget):
    """The engine on [a, b] with one integrand call per half-panel and a heap of panels."""
    x, w = np.polynomial.legendre.leggauss(budget.panel_order)
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
    combined = integrate_segment(lambda t: a * f(t) + b * g(t), 0.0, 2.0, TIGHT, osc_freq=1.0)
    parts = a * integrate_segment(f, 0.0, 2.0, TIGHT, osc_freq=1.0).value
    parts += b * integrate_segment(g, 0.0, 2.0, TIGHT).value
    assert abs(combined.value - parts) <= 1e-10 * max(1.0, abs(parts))
