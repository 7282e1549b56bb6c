"""Quadrature layer against closed-form antiderivatives."""

import heapq
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
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
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def test_budget_validation():
    with pytest.raises(ValueError):
        QuadratureBudget(rel_tol=1e-15)
    with pytest.raises(ValueError, match="rel_tol must be finite"):
        QuadratureBudget(rel_tol=math.inf)
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


# F(t) = e^{-c t} per integral, and a key whose equal values name the integrals that share an F: three families
# and two loners
SHARED_C = np.array([1.0, 0.5 + 2j, 1.0, 2.0, 1.0, 0.5 + 2j, 3.0])
SHARED_KEY = (np.array([0, 1, 0, 3, 0, 1, 6]),)


def test_integrals_sharing_a_smooth_factor_get_their_results_alone():
    # SHARED_C's families, and interleaved with them (integrals 2 and 6) one whose envelope 1e-20 e^{-t} lies below
    # half the floor: it takes value 0, no panels and no F, and the live families' integrals are the others
    c, scale = np.insert(SHARED_C, [2, 5], 1.0), np.insert(np.ones(len(SHARED_C)), [2, 5], 1e-20)
    key = (np.insert(SHARED_KEY[0], [2, 5], 9),)
    freq = np.array([0.0, 3.0, 2.0, -5.0, 1.0, 40.0, -1.0, 0.0, 7.5])
    owners = []

    def fn(t, k):
        owners.extend(np.unique(k).tolist())
        return scale[k] * np.exp(-c[k] * t)

    rate, amplitude = c.real.copy(), scale
    shared = quadrature._integrate_rays(fn, rate, amplitude, TIGHT, freq, key)
    alone = quadrature._integrate_rays(lambda t, k: scale[k] * np.exp(-c[k] * t), rate, amplitude, TIGHT, freq)
    for mine, theirs in zip(shared, alone):
        assert np.array_equal(mine, theirs)
    # F is evaluated for the first integral of each live family only
    assert set(owners) == {0, 1, 4, 8}
    values, errors, T, panels = shared
    assert values[[2, 6]].tolist() == [0, 0] and T[[2, 6]].tolist() == [0, 0] and panels[[2, 6]].tolist() == [0, 0]
    assert np.all(panels[[0, 1, 3, 4, 5, 7, 8]] > 0)
    assert np.all(np.abs(values - scale / (c - 1j * freq)) <= errors)


@pytest.mark.parametrize(
    "rate, amplitude",
    [([1.0, 2.0, 1.0], [1.0, 1.0, 1.0]), ([1.0, 1.0, 1.0], [1.0, 3.0, 1.0])],
    ids=["another-rate", "another-amplitude"],
)
def test_sharing_is_validated_before_any_panel(rate, amplitude):
    # integrals 0 and 1 share a key, so they must share an envelope
    key = (np.array([5, 5, 2]),)
    with pytest.raises(ValueError, match="share"):
        quadrature._integrate_rays(_never_called, np.array(rate), np.array(amplitude), TIGHT, np.zeros(3), key)


def test_segment_polynomial():
    # antiderivative: t^2 + i t^3 on [0, 1]
    res = integrate_segment(lambda t: 2.0 * t + 3j * t**2, 0.0, 1.0, TIGHT)
    np.testing.assert_allclose(res.value, 1.0 + 1.0j, rtol=1e-13)
    assert abs(res.value - (1.0 + 1.0j)) <= res.est_error + 1e-15


def test_segment_endpoints():
    with pytest.raises(ValueError, match=r"a <= b, got \[1\.0, 0\.0\]"):
        integrate_segment(lambda t: t, 1.0, 0.0)
    assert integrate_segment(lambda t: t, 1.0, 1.0) == quadrature.IntegralResult(0j, 0.0, 0.0, 0)


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
    degrees, ones, zeros = np.arange(16), np.ones(16), np.zeros(16)
    rows = np.arange(len(xs)).repeat(16)  # the panels of one x share its moments
    mid, half, owner = np.tile(zeros, len(xs)), np.tile(ones, len(xs)), np.tile(degrees, len(xs))
    every = quadrature._sums(_legendre_owner, mid, half, owner, None, xs.repeat(16), xs, rows).reshape(len(xs), 16)
    for x, row in zip(xs.tolist(), every):
        alone = quadrature._sums(
            _legendre_owner, zeros, ones, degrees, None, np.full(16, x), np.array([x]), np.zeros(16, dtype=np.intp)
        )
        assert np.abs(alone - _reference_moments(x)).max() <= 1e-13, x
        # each panel's sum depends on its own panel alone, whatever else shares the call
        assert np.array_equal(alone, row)


I_POWERS = 1j ** np.arange(16)
# the rint ties, the rows about +-12, and the last Taylor rows and the switch to the forward recurrence at |x| = 24
EDGES = [0.5, -0.5, 11.5, -11.5, 11.999999999, -11.999999999, 12.0, -12.0, 12.000000001]
EDGES += [23.5, -23.5, 23.999999999, 24.0, -24.0, 24.000000001]


@pytest.mark.parametrize(
    "xs",
    [
        [3.25],  # a single near row
        [40.0],  # a single far row
        [1e4, 0.7, -25.0, 26.0],  # one near row among far rows
        [0.3, -7.5, 24.5, 2.0, -11.0],  # one far row among near rows
        EDGES,
        EDGES[::-1] + [0.0, 1e-300, 1e4],
    ],
    ids=["near-alone", "far-alone", "near-among-far", "far-among-near", "edges", "edges-mixed"],
)
def test_each_moment_row_is_its_own_x_alone(xs):
    rows = quadrature._moments(np.array(xs))
    for x, row in zip(xs, rows):
        alone = quadrature._moments(np.array([x]))
        assert np.array_equal(alone[0], row), x
        assert np.abs(row * I_POWERS - _reference_moments(x)).max() <= 1e-13, x


def test_taylor_table_matches_reference_derivatives():
    # m_n^{(k)}(c) / k! = i^{-n} int P_n(u) (iu)^k / k! e^{icu} du, by the composite rule of _reference_moments
    u, w = np.polynomial.legendre.leggauss(30)
    edges = np.linspace(-1.0, 1.0, 33)
    half = 0.5 * np.diff(edges)
    t = ((edges[:-1] + half)[:, None] + half[:, None] * u).ravel()
    weights, legendre = np.repeat(half, 30) * np.tile(w, 32), np.polynomial.legendre.legvander(t, 15)
    scaled_powers = (1j * t[:, None]) ** np.arange(16) / [math.factorial(k) for k in range(16)]
    table = quadrature._rule().taylor
    assert table.shape == (49, 16, 16)
    for c in range(-24, 25):
        reference = (weights * np.exp(1j * c * t) * scaled_powers.T) @ legendre / I_POWERS
        assert np.abs(table[c] - reference.real).max() <= 1e-14, c


def _mpmath_moments(mpmath, x: float) -> np.ndarray:
    """m_n(x) = 2 j_n(x) = 2 sqrt(pi / (2 x)) J_{n + 1/2}(x) for n < 16, at 40 digits; m_n(-x) = (-1)^n m_n(x)."""
    if x == 0.0:
        return 2.0 * (np.arange(16) == 0)
    with mpmath.workdps(40):
        t = mpmath.mpf(abs(x))
        scale = 2 * mpmath.sqrt(mpmath.pi / (2 * t))
        return np.array([float(scale * mpmath.besselj(n + mpmath.mpf(1) / 2, t)) for n in range(16)]) * (
            np.sign(x) ** np.arange(16)
        )


def test_moments_match_a_40_digit_reference():
    # the Taylor rows below |x| = 24 and the forward recurrence from there on, stable as n < 16 < |x|, up to
    # |x| = 1e8, for negative x and at multiples of pi, where sin(x) and with it m_0 nearly vanish
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(4)
    far = np.concatenate((rng.uniform(24.0, 60.0, 60), np.geomspace(60.0, 1e8, 30), np.pi * np.arange(8, 40, 3)))
    xs = np.concatenate((rng.uniform(0.0, 30.0, 120), EDGES, [0.0, 1e-8, 30.0], far, -far[::4]))
    got = quadrature._moments(xs)
    for x, row in zip(xs.tolist(), got):
        assert np.abs(row - _mpmath_moments(mpmath, x)).max() <= 2e-15, x


def _grid_sums(fn, mid, half, owner, blocks):
    """``_sums`` over blocks (carriers, panel indices), each panel with a row of its own per carrier: per block its
    sums, carrier by carrier, and the rows."""
    kappas = np.array([len(kappa) for kappa, _ in blocks])
    widths = np.array([len(panels) for _, panels in blocks])
    order = np.concatenate([panels for _, panels in blocks])
    freq = np.concatenate([np.repeat(kappa, len(panels)) for kappa, panels in blocks])
    x = np.concatenate([np.multiply.outer(half[panels], kappa).ravel() for kappa, panels in blocks])
    row = np.concatenate([[0], (kappas.repeat(widths)).cumsum()[:-1]])
    sums = quadrature._sums(fn, mid[order], half[order], owner[order], (kappas, widths), freq, x, row)
    return np.split(sums, (kappas * widths).cumsum()[:-1]), x


@pytest.mark.parametrize("layout", ["grid", "cells"])
def test_sums_do_not_depend_on_the_order_of_the_entries(layout):
    # 300 panels over two integrand calls, with plain (x = 0), near and far rows, as blocks of one to 100 carriers
    # on a grid, each block carried panel by panel, or as one cell per panel without a grid, carried cell by cell
    # 3 * _CARRY_COLUMNS at a time: permuting the blocks, the panels of each and its carriers, each with its rows, or
    # the cells, moves no bit; and each cell's sum is the same in both layouts
    rng = np.random.default_rng(18)
    panels = 300
    mid, half = rng.uniform(-5.0, 5.0, panels), rng.uniform(0.01, 2.0, panels)
    owner = rng.integers(0, 4, panels)
    rates = np.array([0.5 + 1j, 1.0, 2.0 - 3j, 0.25])
    fn = lambda t, k: np.exp(-rates[k] * t)
    kappas = [1] * 30 + [2, 7, 63, 64, 100] * 4
    splits = np.sort(rng.choice(np.arange(1, panels), len(kappas) - 1, replace=False))
    blocks = [
        (rng.choice([0.0, 0.3, -7.0, 40.0, 1e3], k) * rng.choice([1.0, 2.0], k), panels)
        for k, panels in zip(kappas, np.split(rng.permutation(panels), splits))
    ]
    sums, x = _grid_sums(fn, mid, half, owner, blocks)
    assert 0 < np.count_nonzero(np.abs(x) >= 24.0) < np.count_nonzero(x) < len(x)
    assert panels > 3 * quadrature._CHUNK_PANELS and sum(len(p) for k, p in blocks if len(k) == 1) > 20
    assert len(np.concatenate(sums)) > 3 * 3 * quadrature._CARRY_COLUMNS
    cells = np.concatenate([np.tile(panels, len(kappa)) for kappa, panels in blocks])
    freq = np.concatenate([np.repeat(kappa, len(panels)) for kappa, panels in blocks])

    def alone(c):
        """The sums of the grid's cells c, each on a panel of its own, without a grid."""
        p = cells[c]
        return quadrature._sums(fn, mid[p], half[p], owner[p], None, freq[c], freq[c] * half[p], np.arange(len(c)))

    if layout == "grid":
        moved = [(rng.permutation(len(kappa)), rng.permutation(len(panels))) for kappa, panels in blocks]
        order = rng.permutation(len(blocks))
        shuffled, _ = _grid_sums(
            fn, mid, half, owner, [(blocks[b][0][moved[b][0]], blocks[b][1][moved[b][1]]) for b in order]
        )
        for b, block in zip(order, shuffled):
            carriers, columns = moved[b]
            assert np.array_equal(block, sums[b].reshape(len(carriers), -1)[carriers][:, columns].ravel())
    else:
        moved = rng.permutation(len(cells))
        assert np.array_equal(alone(moved), np.concatenate(sums)[moved])
    assert all(np.all(np.isfinite(s)) and np.count_nonzero(s) == len(s) for s in sums)
    assert np.array_equal(alone(np.arange(len(cells))), np.concatenate(sums))


def _counted_moments(monkeypatch):
    """A log of the number of rows of each _moments call."""
    rows, moments = [], quadrature._moments
    monkeypatch.setattr(quadrature, "_moments", lambda x, out=None: rows.append(len(x)) or moments(x, out))
    return rows


@pytest.mark.parametrize(
    "rate, amplitude, seeds",
    [(1e8, 1.0, 1), (4e7, 1.0, 2), (1e7, 1.0, 3), (1e-3, 1.0, 6), (1.0, 1e20, 8), (1e8, 1e300, 11)],
)
def test_a_ray_seeds_with_a_moment_row_per_panel_width(rate, amplitude, seeds, monkeypatch):
    # the seed panels [0, s], [s, 2s], [2s, 4s], ... double in width, so a ray of d panels has d + 1 distinct
    # kappa h among its 3d panel sums (4 for d = 2), and a family of K rays K (d + 1)
    rows = _counted_moments(monkeypatch)
    budget = QuadratureBudget(rel_tol=1e-6, abs_floor=1e-8)
    F = lambda t, k: amplitude * np.exp(-rate * t)
    for K in (1, 5):
        rows.clear()
        freq, key = np.linspace(0.5, 3.0, K) * rate, (np.zeros(K, dtype=np.int64),)
        _, _, T, used = quadrature._integrate_rays(F, np.full(K, rate), np.full(K, amplitude), budget, freq, key)
        assert len(quadrature._ray_breakpoints([T[0]], [rate])[0]) == seeds
        assert used.tolist() == [seeds] * K  # no integral refines
        assert rows == [K * (seeds + 2 if seeds == 2 else seeds + 1)]


def test_seed_rows_hold_equal_arguments_on_extreme_rays():
    # the rows of _seed_rows share a half-width bit for bit on every ray _ray_breakpoints makes, subnormal and
    # huge ones too
    for T, rate in itertools.product([1e-310, 1e-300, 1e-3, 1.0, 37.0, 1e5, 1e300], [1e-300, 1e-5, 0.7, 3.0, 1e300]):
        a, b, count = quadrature._ray_breakpoints([T, T], [rate, 2.0 * rate])
        half = 0.5 * (b - a)
        widths = np.concatenate((half, 0.5 * half, 0.5 * half))
        row, first = quadrature._seed_rows(count)
        assert np.array_equal(widths[first][row], widths), (T, rate)
        assert np.array_equal(row[first], np.arange(len(first)))
        assert len(first) == sum(d + 2 if d == 2 else d + 1 for d in count.tolist())


def test_a_refinement_split_computes_one_moment_row(monkeypatch):
    # the four half-panels of both children of a split have one half-width
    rows = _counted_moments(monkeypatch)
    res = integrate_segment(lambda t: np.exp(20j * t), 0.0, 10.0, TIGHT, freq=1.0)
    assert res.panels_used > 8
    assert rows == [2] + [1] * (res.panels_used - 1)  # seeding: the panel and its halves


def test_importing_the_package_leaves_the_rule_tables_unbuilt():
    # the tables, and numpy.polynomial with them, are built on the first panel only
    code = (
        "import sys, numpy; numpy_only = set(sys.modules); import sectorlap; "
        "assert 'numpy.polynomial' not in set(sys.modules) - numpy_only; "
        "sectorlap.integrate_segment(lambda t: t, 0.0, 1.0); assert 'numpy.polynomial' in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})


def test_a_seed_finished_integral_counts_its_summation_rounding(monkeypatch):
    # F = 1 on the seed panels of rays [0, 1], [0, 8] and [0, 2], 1, 4 or 2 per integral: each panel's two levels
    # agree exactly, so est_error is the bound n eps sum |panel sum| alone
    fsums, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: fsums.append(1) or fsum(values))
    a, b, count = quadrature._ray_breakpoints([1.0, 8.0, 2.0] * 100, [1.0] * 300)
    assert count.tolist() == [1, 4, 2] * 100
    ones = np.ones(len(count), dtype=np.intp)  # one integral per family
    values, errors, used = quadrature._integrate_seeds(
        lambda t, k: np.ones(t.shape), a, b, count, np.arange(len(count)), ones, np.zeros(len(count)), TIGHT
    )
    assert fsums == []  # no integral took the refinement path, which sums with math.fsum
    assert np.array_equal(used, count)
    assert np.array_equal(errors, count * math.ulp(1.0) * np.abs(values)) and np.all(errors > 0.0)


def test_a_ray_whose_integrand_underflows_at_every_node_is_ill_conditioned():
    # seed panels of width 1 / rate = 1e8: e^{-t} underflows at every node, and every seed sum is exactly 0, but
    # the integral is 1
    with pytest.raises(IllConditioned, match=r"sum exactly 0, but its integrand is \(1\+0j\) at t = 0\.0"):
        integrate_ray(lambda t: np.exp(-t), DecayModel(1e-8, 1.0))
    with pytest.raises(IllConditioned, match=r"over \[0\.0, 1\.0\]"):
        integrate_segment(lambda t: np.exp(-1e6 * t), 0.0, 1.0)
    # F(0) times the gap to the first node is below abs_floor: the integral, 1e-300, is taken as 0
    assert integrate_ray(lambda t: 1e-300 * np.exp(-t), DecayModel(1e-8, 1.0)).value == 0j
    # the zero entry: every seed sum is exactly 0, and so is F at t = 0
    res = integrate_ray(lambda t: 0.0 * t, DecayModel(1.0, 1.0), TIGHT)
    assert (res.value, res.panels_used) == (0j, len(quadrature._ray_breakpoints([res.truncation_T], [1.0])[0]))


@pytest.mark.parametrize("reverse", [False, True])
def test_a_batch_with_an_underflowing_integral_fails_before_any_refinement(reverse, monkeypatch):
    # a zero integral, one that underflows at every node and one that refines past the budget: F at t = 0 is
    # evaluated, in input order, for the integrals whose seed sums are all exactly 0 alone, right after seeding,
    # so the underflow is raised before the other integral can exhaust its budget, in either order
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    kinds = ["zero", "underflow", "refine"][:: -1 if reverse else 1]
    rate = np.array([1e-8 if kind == "underflow" else 1.0 for kind in kinds])
    scale = np.array([0.0 if kind == "zero" else 1.0 for kind in kinds])
    spin = np.array([100j if kind == "refine" else 0.0 for kind in kinds])
    starts = []

    def fn(t, k):
        if t.shape[1] == 1:
            starts.append(int(k[0, 0]))
        return scale[k] * np.exp((spin[k] - 1.0) * t)

    with pytest.raises(IllConditioned, match="every seed panel sum"):
        quadrature._integrate_rays(fn, rate, np.ones(3), TIGHT, np.zeros(3))
    assert starts == ([1] if reverse else [0, 1])


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
def test_a_batch_raises_a_non_finite_seed_sum_before_any_refinement(reverse, monkeypatch):
    # one pass seeds both integrals before either refines: the NaN integral's seed sums fail it right after
    # seeding, before the other one can exhaust its budget, in either order
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    budget = QuadratureBudget(rel_tol=1e-12, abs_floor=1e-14)
    a, b = np.array([0.0, 0.0]), np.array([50.0, 1.0])  # e^{100it} on [0, 50] refines past 8 panels
    oscillating = 0
    if reverse:
        a, b, oscillating = a[::-1].copy(), b[::-1].copy(), 1

    def fn(t, k):
        return np.where(k == oscillating, np.exp(100j * t), np.nan)

    with pytest.raises(IllConditioned, match=r"non-finite integrand value on \[0\.0, 1\.0\]"):
        quadrature._integrate_segments(fn, a, b, budget, np.zeros(2))


# rays of F = e^{(-1 + i ROUND_W[k]) t} and carrier ROUND_FREQ[k], which split 5, 0, 4, 1, 3, 2 and 2 panels:
# integrals 0, 2 and 4 are a family, the others singletons
ROUND_W = np.array([6.0, 0.0, 6.0, 3.0, 6.0, 2.0, 5.0])
ROUND_FREQ = np.array([0.5, 0.0, 0.0, 0.0, -1.0, 2.0, -1.0])
ROUND_KEY = (np.array([0, 1, 0, 3, 0, 5, 6]),)


def _round_rays(fn=None):
    fn = fn or (lambda t, k: np.exp((-1.0 + 1j * ROUND_W[k]) * t))
    return quadrature._integrate_rays(fn, np.ones(7), np.ones(7), TIGHT, ROUND_FREQ, ROUND_KEY)


def test_integrals_refined_in_rounds_get_their_results_alone():
    values, errors, T, used = _round_rays()
    seeds = np.array([len(quadrature._ray_breakpoints([t], [1.0])[0]) for t in T.tolist()])
    assert (used - seeds).tolist() == [5, 0, 4, 1, 3, 2, 2]
    for k in range(len(ROUND_W)):
        alone = integrate_ray(
            lambda t: np.exp((-1.0 + 1j * ROUND_W[k]) * t), DecayModel(1.0, 1.0), TIGHT, freq=ROUND_FREQ[k]
        )
        assert (alone.value, alone.est_error, alone.panels_used) == (values[k], errors[k], used[k])


def test_a_round_is_one_sums_call_and_evaluates_a_shared_panel_once(monkeypatch):
    calls, sums = [], quadrature._sums

    def counted(fn, mid, half, owner, src, freq, x, row):
        calls.append((len(freq), set(zip(owner.tolist(), mid.tolist(), half.tolist())), len(mid)))
        return sums(fn, mid, half, owner, src, freq, x, row)

    monkeypatch.setattr(quadrature, "_sums", counted)
    _round_rays()
    # the seeding, then one call per round: as many rounds as the most splits, each with the four half-panels of
    # every split of the integrals still refining (6, 5, 3, 2 and 1 of them)
    assert len(calls) == 1 + 5
    assert [entries for entries, _, _ in calls[1:]] == [4 * 6, 4 * 5, 4 * 3, 4 * 2, 4 * 1]
    # no panel is evaluated twice in a round, and the family's splits of one panel evaluate it once: all three
    # of its integrals split the same panel in rounds 3 and 4
    assert all(len(distinct) == panels for _, distinct, panels in calls)
    assert [panels for _, _, panels in calls[1:]] == [20, 16, 4, 4, 4]


def test_a_family_on_its_grid_gets_the_results_of_each_integral_alone(monkeypatch):
    # one pass: a family of 301 carriers (0, negative, duplicate and far ones, |kappa h| up to 1 000) over 7 seed
    # panels, whose cells span many carrier blocks and of which some refine, a family of 40 that does not, and
    # five one-integral families, all interleaved in input order
    rows = _counted_moments(monkeypatch)
    rng = np.random.default_rng(29)
    spin = {0: 1.0, 1: 0.0, 2: 0.0, 3: 3.0, 4: 6.0, 5: 1.0, 6: 2.0}  # F = e^{(-1 + i spin) t} per family
    wide = np.concatenate((np.linspace(-60.0, 60.0, 291), [0.0, 0.0, -0.0, 1.0, 1.0, 2.5, -2.5, 24.0, 48.0, 1e3]))
    kappa = {0: wide, 1: np.linspace(-3.0, 8.0, 40), 2: [0.0], 3: [-5.0], 4: [60.0], 5: [0.0], 6: [7.0]}
    family = np.concatenate([np.full(len(k), f) for f, k in kappa.items()])
    freq = np.concatenate(list(kappa.values()))
    order = rng.permutation(len(freq))
    family, freq = family[order], freq[order]
    w = np.array([spin[f] for f in family.tolist()])
    fn = lambda t, k: np.exp((-1.0 + 1j * w[k]) * t)
    n = len(freq)
    values, errors, T, used = quadrature._integrate_rays(fn, np.ones(n), np.ones(n), TIGHT, freq, (family,))
    seeds = len(quadrature._ray_breakpoints([T[0]], [1.0])[0])
    assert seeds == 7 and rows[0] == n * (seeds + 1)  # a moment row per carrier and half-width class
    assert 0 < np.count_nonzero(used[family == 0] > seeds) < len(wide)
    assert np.all(used[family == 1] == seeds) and np.any(used[family >= 2] > seeds)
    for j in range(n):
        alone = integrate_ray(lambda t: np.exp((-1.0 + 1j * w[j]) * t), DecayModel(1.0, 1.0), TIGHT, freq=freq[j])
        assert (alone.value, alone.est_error, alone.truncation_T, alone.panels_used) == (
            values[j], errors[j], T[j], used[j]
        ), j


@pytest.mark.parametrize("reverse", [False, True])
def test_a_batch_raises_the_failure_of_the_earliest_round(reverse, monkeypatch):
    # both integrals refine e^{100it} on [0, 50]; the budget one would exhaust 8 panels in round 8, the other's
    # F is NaN from round 2 on.  The pass raises the first failure it meets, in either order
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    poisoned = 0 if reverse else 1
    rounds = []

    def fn(t, k):
        rounds.append(None)
        nan = (k == poisoned) & (len(rounds) >= 3)  # calls: seeding, then one per round
        return np.where(nan, np.nan, np.exp(100j * t))

    with pytest.raises(IllConditioned, match=r"non-finite integrand value on \[0\.0, 12\.5\]"):
        quadrature._integrate_segments(fn, np.zeros(2), np.full(2, 50.0), TIGHT, np.zeros(2))
    # the seeding and two rounds: the failure ends the pass
    assert len(rounds) == 3


def test_an_integrand_exception_in_a_round_propagates(monkeypatch):
    # integral 0 would exceed its budget in round 8, integral 1's integrand raises in round 2: the integrand's
    # exception surfaces from the round it is raised in, where integrals computed one after another would have
    # raised BudgetExceeded first
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)

    class Raised(Exception):
        pass

    calls = []

    def fn(t, k):
        calls.append(None)
        if len(calls) == 3 and np.any(k == 1):
            raise Raised("integrand")
        return np.exp(100j * t)

    with pytest.raises(Raised, match="integrand"):
        quadrature._integrate_segments(fn, np.zeros(2), np.full(2, 50.0), TIGHT, np.zeros(2))


def test_budget_exhaustion_names_the_integral_and_its_worst_panel(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    with pytest.raises(BudgetExceeded) as caught:
        integrate_segment(lambda t: np.exp(100j * t), 0.0, 50.0, TIGHT, freq=0.5)
    message = str(caught.value)
    found = re.search(
        r"carrier frequency 0\.5 over \[0\.0, 50\.0\]; its worst panel \[(\S+), (\S+)\] has estimate (\S+):", message
    )
    assert found, message
    lo, hi, estimate = (float(v) for v in found.groups())
    # a panel of the bisection of [0, 50] with a positive estimate
    width = hi - lo
    assert 0.0 <= lo < hi <= 50.0 and math.log2(50.0 / width).is_integer() and (lo / width).is_integer()
    assert estimate > 0.0


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
    heap = quadrature._heap(np.array([0.0]), np.array([1.0]), zeros, zeros, np.array([1.0]))
    [(value, est_error, used)] = quadrature._refine(
        _logged_zero(calls), [0], [0.0], [(0.0, 1.0)], [heap], [0j], [2.0], TIGHT
    )
    assert (value, est_error, used) == (0j, 0.0, 2)
    assert len(calls) == 1


def test_refinement_splits_the_older_of_equally_bad_panels():
    # panel 0 = [1, 2] is older than panel 1 = [0, 1] and has the same estimate, bit for bit; panel 2 is better
    calls = []
    lo, hi, err = np.array([1.0, 0.0, 2.0]), np.array([2.0, 1.0, 3.0]), np.array([0.5, 0.5, 0.25])
    zeros = np.zeros(3, dtype=complex)
    heap = quadrature._heap(lo, hi, zeros, zeros, err)
    [(_, _, used)] = quadrature._refine(_logged_zero(calls), [0], [0.0], [(0.0, 3.0)], [heap], [0j], [1.0], TIGHT)
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


def _work_memory() -> dict:
    return {name: (array.__array_interface__["data"][0], array.size) for name, array in quadrature._work.arrays.items()}


def test_a_repeated_pass_of_one_size_reuses_the_work_memory():
    # plain, near and far moment rows over three integrand calls: the second pass finds the carrier step's
    # arrays where the first one left them, and grows none
    rates = np.array([0.5, 1.0, 2.0, 4.0, 0.25] * 40)
    freq = np.tile([0.0, 0.3, 3.0, 40.0, 1e3], 40) * np.repeat(np.linspace(1.0, 2.0, 40), 5)
    F = lambda t, k: np.exp(-rates[k] * t)
    run = lambda: quadrature._integrate_rays(F, rates, np.ones(len(rates)), TIGHT, freq)
    first = run()
    kept = _work_memory()
    assert {"moments", "taylor", "near", "dots", "filon"} <= set(kept)
    second = run()
    assert _work_memory() == kept
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert np.abs(first[0] - 1.0 / (rates - 1j * freq)).max() <= 1e-10


def test_the_sums_of_a_call_are_its_own():
    # a later call, here one re-entered from the integrand as a nested quadrature is, reuses the work memory
    # but leaves the sums an earlier call returned as they were
    mid, half, owner = np.linspace(0.5, 4.5, 5), np.full(5, 0.5), np.zeros(5, dtype=np.intp)
    freq = np.array([0.0, 0.3, 3.0, 60.0, 1e3])
    x, row = np.unique(freq * half, return_inverse=True)
    nested = lambda: quadrature._sums(lambda t, k: np.cos(t), mid, half, owner, None, 2.0 * freq, 2.0 * x, row)
    inner = []

    def fn(t, k):
        inner.append(nested())
        return np.exp(-t)

    sums = quadrature._sums(fn, mid, half, owner, None, freq, x, row)
    alone = quadrature._sums(lambda t, k: np.exp(-t), mid, half, owner, None, freq, x, row)
    later = quadrature._sums(lambda t, k: np.sin(t), mid, half, owner, None, freq, x, row)
    assert np.array_equal(sums, alone) and not np.array_equal(sums, later)
    assert np.array_equal(inner[0], nested())
