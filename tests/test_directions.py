"""Functions of a direction give, on an array of theta, their values at each float theta bit for bit.

The references are the per-direction formulas that the array code replaced:
np.convolve window means of one direction's samples for the indicator
estimate, (a * cmath.exp(1j * theta)).real for the indicator oracles, and
offset - (omega * cmath.exp(1j * theta)).real, one float theta at a time, for
the fan's margins.  ``select_direction``, which computes the best direction
in closed form, is checked against a dense scan of those scalar margins, and
against the scalar margins of its grid directions for a numeric fan.
"""

import cmath
import math

import numpy as np
import pytest

from sectorlap import (
    ConcatenatedTransform,
    OutsideUnion,
    builtin_catalog,
    estimate_indicator,
    make_exp,
    make_sum,
    rational_function,
    select_direction,
    trig_decay,
    zero_function,
)
from sectorlap.indicator import INDICATOR_SENTINEL, S_GRID
from sectorlap.laplace import _best_direction
from test_probe import _scan_with

# exponents a_k of sum_k c_k e^{a_k z}, non-integer, with a complex coefficient
SUM_TERMS = [(1, -1.3 + 0.7j), (2.5, 0.4 - 1.1j), (-0.3j, 2.2)]
# rows with fewer kept samples than one window: e^{-300 s} underflows and e^{500 s} overflows past s = 2.4
FEW_SAMPLES = [make_exp(-300), make_exp(500)]
ENTRIES = builtin_catalog() + FEW_SAMPLES + [make_exp(-80 + 3j), make_exp(-0.8 + 0.3j), make_sum(SUM_TERMS)]
CUSTOM_GRID = np.geomspace(0.5, 3000.0, 37)


def _thetas(alpha: float) -> np.ndarray:
    rng = np.random.default_rng(8)
    return np.concatenate([np.linspace(-alpha, alpha, 25), rng.uniform(-alpha, alpha, 40)])


def _reference_estimate(fn, theta: float, s: np.ndarray) -> tuple[float, float, float, int]:
    """(value, ci_width, s_max, kept samples) at one direction, by np.convolve."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mags = np.abs(np.asarray(fn.evaluate(s * cmath.exp(1j * theta)), dtype=complex))
    keep = np.isfinite(mags) & (mags >= 1e-300)
    if not keep.any():
        return INDICATOR_SENTINEL, 0.0, 0.0, 0
    r = np.log(mags[keep]) / s[keep]
    w = min(8, len(r))
    tail = np.convolve(r, np.ones(w) / w, mode="valid")
    tail = tail[len(tail) // 2 :]
    ci = float(np.max(tail) - np.min(tail)) if len(tail) > 1 else math.inf  # one window has no spread
    return float(np.max(tail)), ci, float(s[keep][-1]), len(r)


def _reference_oracle(exponents, theta: float) -> float:
    return max((a * cmath.exp(1j * theta)).real for a in exponents)


@pytest.mark.parametrize("s_grid", [None, CUSTOM_GRID], ids=["default-grid", "custom-grid"])
@pytest.mark.parametrize("fn", ENTRIES, ids=lambda fn: fn.id)
def test_estimate_on_an_array_equals_each_direction(fn, s_grid):
    thetas = _thetas(fn.spec.alpha)
    est = estimate_indicator(fn, thetas, s_grid)
    assert est.value.shape == est.ci_width.shape == est.s_max.shape == thetas.shape
    kept = []
    for k, theta in enumerate(thetas.tolist()):
        ref = _reference_estimate(fn, theta, S_GRID if s_grid is None else CUSTOM_GRID)
        one = estimate_indicator(fn, theta, s_grid)
        assert (est.value[k], est.ci_width[k], est.s_max[k]) == ref[:3]
        assert (one.theta, one.value, one.ci_width, one.s_max) == (theta,) + ref[:3]
        assert type(one.value) is float
        kept.append(ref[3])
    if fn in FEW_SAMPLES:
        assert sum(0 < n < 8 for n in kept) >= 20


def test_estimate_keeps_the_shape_of_theta():
    thetas = np.array([[-0.5, 0.0], [0.25, 0.7]])
    est = estimate_indicator(make_sum(SUM_TERMS), thetas)
    assert est.value.shape == (2, 2)
    assert est.value[1, 0] == estimate_indicator(make_sum(SUM_TERMS), 0.25).value
    zero = estimate_indicator(zero_function(), thetas)
    assert np.all(zero.value == INDICATOR_SENTINEL) and np.all(zero.s_max == 0.0) and np.all(zero.ci_width == 0.0)
    assert estimate_indicator(make_exp(1), np.array([])).value.shape == (0,)


def test_estimate_names_the_first_direction_outside_the_sector():
    with pytest.raises(ValueError, match=r"^theta=-2\.0 outside the sector"):
        estimate_indicator(make_exp(1), np.array([0.1, -2.0, 3.0]))


@pytest.mark.parametrize(
    "fn, exponents",
    [(make_exp(-80 + 3j), [-80 + 3j]), (make_sum(SUM_TERMS), [a for _, a in SUM_TERMS]), (trig_decay(), [1j])],
    ids=["exp:a=-80+3i", "sum", "trig"],
)
def test_oracle_on_an_array_equals_each_direction(fn, exponents):
    thetas = np.random.default_rng(9).uniform(-1.5, 1.5, 5000)
    values = fn.indicator_oracle(thetas)
    assert values.shape == thetas.shape
    for k, theta in enumerate(thetas.tolist()):
        assert values[k] == fn.indicator_oracle(theta) == _reference_oracle(exponents, theta)
        assert type(fn.indicator_oracle(theta)) is float


def test_constant_oracles_on_an_array():
    thetas = np.array([-0.5, 0.0, 0.5])
    assert np.all(zero_function().indicator_oracle(thetas) == -math.inf)
    rational = rational_function().indicator_oracle(thetas)
    assert np.all(rational == 0.0) and not np.any(np.signbit(rational))
    assert zero_function().indicator_oracle(-0.5) == -math.inf
    assert math.copysign(1.0, rational_function().indicator_oracle(-0.5)) == 1.0


FANS = [
    (make_exp(-80 + 3j), [-80 + 3j]),
    (make_exp(-0.8 + 0.3j), [-0.8 + 0.3j]),
    (make_sum(SUM_TERMS), [a for _, a in SUM_TERMS]),
    (trig_decay(), [1j]),
    (zero_function(), None),
]


def _reference_margin(ct, exponents, omega: complex, theta: float) -> float:
    if ct.exact:
        indicator = _reference_oracle(exponents, theta) if exponents is not None else -math.inf
        offset = -max(indicator, INDICATOR_SENTINEL)
    else:
        offset = float(np.interp(theta, *ct._grid))
    return offset - (omega * cmath.exp(1j * theta)).real


def _reference_best(ct, exponents, omega: complex) -> float:
    """The largest margin over the fan, one float theta at a time: over a numeric fan's 65 grid directions, or
    over 2 001 directions, then 2 001 about the best."""
    margin = lambda t: _reference_margin(ct, exponents, omega, t)  # noqa: E731
    if not ct.exact:
        return max(margin(t) for t in ct._grid[0].tolist())
    coarse = np.linspace(-ct.alpha, ct.alpha, 2001)
    best = max(coarse.tolist(), key=margin)
    step = coarse[1] - coarse[0]
    fine = np.linspace(max(best - step, -ct.alpha), min(best + step, ct.alpha), 2001)
    return max(margin(t) for t in fine.tolist())


@pytest.mark.parametrize("source", ["oracle", "numeric"])
@pytest.mark.parametrize("fn, exponents", FANS, ids=[fn.id for fn, _ in FANS])
def test_fan_margins_and_selection_equal_the_scalar_formulas(fn, exponents, source):
    ct = ConcatenatedTransform.build(fn, alpha=1.2, indicator_source=source)
    if source == "numeric":
        grid = np.linspace(-1.2, 1.2, 65)
        assert ct._grid[0].tolist() == grid.tolist()
        assert ct._grid[1].tolist() == [-_reference_estimate(fn, t, S_GRID)[0] for t in grid.tolist()]
    rng = np.random.default_rng(10)
    thetas = rng.uniform(-1.2, 1.2, 300)
    omegas = rng.normal(0.0, 3.0, 12) + 1j * rng.normal(0.0, 3.0, 12)
    for omega in omegas.tolist():
        margins = ct.margin(omega, thetas)
        for k, theta in enumerate(thetas.tolist()):
            assert margins[k] == ct.margin(omega, theta) == _reference_margin(ct, exponents, omega, theta)
        want = _reference_best(ct, exponents, omega)
        assert abs(want - ct.min_margin) > 1e-6  # no draw sits on the OutsideUnion threshold
        if want < ct.min_margin:
            with pytest.raises(OutsideUnion):
                select_direction(ct, omega)
            continue
        theta = select_direction(ct, omega)
        got = _reference_margin(ct, exponents, omega, theta)
        assert abs(theta) <= 1.2 and type(theta) is float
        assert ct.exact or theta in ct._grid[0].tolist()
        assert _best_direction(ct, omega) == (theta, got) == (theta, ct.margin(omega, theta))
        assert got >= want - 1e-9 * (1.0 + abs(want))


# numeric fans whose grid estimates are the indicator to rounding; rational's and the sum's are biased
UNBIASED_ESTIMATES = [make_exp(1), make_exp(3), make_exp(-1 + 1j), trig_decay()]


@pytest.mark.parametrize("alpha", [math.pi / 4, 1.2], ids=["pi/4", "1.2"])
@pytest.mark.parametrize("fn", UNBIASED_ESTIMATES, ids=lambda fn: fn.id)
def test_a_numeric_fan_never_selects_more_than_the_true_margin(fn, alpha):
    # omega lies 1e-3 to 3 inside the boundary of Omega_theta along a random theta; between its grid directions
    # the fan's interpolated offset can overstate -I, which a selected margin must not take for its own
    ct = ConcatenatedTransform.build(fn, alpha=alpha, indicator_source="numeric")
    rng = np.random.default_rng(11)
    thetas = rng.uniform(-ct.alpha, ct.alpha, 2000)
    depths = np.geomspace(1e-3, 3.0, 2000)[rng.permutation(2000)]
    spins = rng.uniform(-3.0, 3.0, 2000)
    for theta, depth, spin in zip(thetas.tolist(), depths.tolist(), spins.tolist()):
        omega = complex(-fn.indicator_oracle(theta) - depth, spin) * cmath.exp(-1j * theta)
        best, margin = _best_direction(ct, omega)
        if margin >= ct.min_margin:
            assert margin - (-fn.indicator_oracle(best) - (omega * cmath.exp(1j * best)).real) <= 1e-13


def test_a_three_term_sum_peaks_where_two_terms_cross():
    # the margin's pieces -Re((a_k + omega) e^{i theta}) of the 2nd and 3rd terms cross where
    # Re((a_2 - a_3) e^{i theta}) = 0, whatever omega, and the margin tops out there
    ct = ConcatenatedTransform.build(make_sum(SUM_TERMS), alpha=1.2)
    cross = -cmath.phase(SUM_TERMS[1][1] - SUM_TERMS[2][1]) - math.pi / 2
    for omega in (-1.6 + 1.1j, -2.0 + 1.05j, -3.8 + 4.5j):
        theta, margin = _best_direction(ct, omega)
        assert math.isclose(theta, cross, abs_tol=1e-12)
        assert margin > max(ct.margin(omega, cross - 1e-6), ct.margin(omega, cross + 1e-6))


def test_the_sentinel_floor_crosses_the_diagram_and_ties_go_to_the_positive_theta():
    # for e^{-2e9 z} at omega = 1e9 the margin is min(1e9 cos(theta), 1e9 - 1e9 cos(theta)), with equal
    # peaks 5e8 where the two cross, at theta = -pi/3 and pi/3
    ct = ConcatenatedTransform.build(make_exp(-2e9))
    theta, margin = _best_direction(ct, 1e9)
    assert math.isclose(theta, math.pi / 3, abs_tol=1e-12)
    assert math.isclose(margin, 5e8, rel_tol=1e-12)
    assert math.isclose(ct.margin(1e9, -theta), margin, rel_tol=1e-12)


# The blow-up locator's tests, kept here under the ids of the Brent maximizer's that it replaced.  The scans run
# on exp:a=1 at theta = 0, whose boundary is Re w = -1 and tau = Im w, with a g given as a function of w.
POLE = -1 + 0.3j


@pytest.mark.parametrize("tol", [1e-2, 1e-5, 1e-9, 3e-13])
def test_golden_section_stops_at_its_tolerance(tol, monkeypatch):
    # a second pole of weight tol bends 1/g away from a line; the roots of the secants through the sweep's peak,
    # its larger neighbour and the steps, recomputed here, each move by more than 0.1 times the innermost margin
    # 1e-4 from the one before (the peak before the first), but the last, and the scan reports the last one's tau
    g = lambda w: 1 / (w - POLE) + tol / (w - (-0.5 + 0.7j))  # noqa: E731
    scan, steps = _scan_with(monkeypatch, g)
    sweep = -1.1 + 1j * np.linspace(-4.0, 4.0, 128)
    j = int(np.argmax(np.abs(g(sweep))))
    i = j - 1 if abs(g(sweep[j - 1])) >= abs(g(sweep[j + 1])) else j + 1
    points = [sweep[i], sweep[j]] + steps
    roots = [sweep[j]] + [b - g(a) * (b - a) / (g(a) - g(b)) for a, b in zip(points, points[1:])]
    moves = np.abs(np.diff(roots))
    assert np.all(moves[:-1] > 1e-5) and moves[-1] <= 1e-5
    assert len(steps) <= 3
    assert math.isclose(scan.boundary_point.imag, roots[-1].imag, abs_tol=1e-15)
    assert abs(scan.boundary_point - POLE) <= min(scan.location_tol, max(tol, 1e-15))


@pytest.mark.parametrize("e", [1e-4, 1e-8, 1e-12])
def test_golden_section_under_noise_lands_within_its_resolution(e, monkeypatch):
    # relative noise of size e in g moves the secant's zero of 1/g by about e times the distance of its points
    # from the pole, which is below 0.1 from the sweep on
    for seed in range(20):
        rng = np.random.default_rng(seed)
        scan, steps = _scan_with(monkeypatch, lambda w: (1 + e * rng.uniform(-1, 1, len(w))) / (w - POLE))
        assert scan.detected and len(steps) <= 2
        assert abs(scan.boundary_point - POLE) <= min(scan.location_tol, 0.1 * e + 1e-15)
