"""Singularity probes: boundary blow-up, Taylor radius, truncation slopes."""

import cmath
import math

import numpy as np
import pytest

from sectorlap import (
    IllConditioned,
    QuadratureBudget,
    blowup_scan,
    gamma_prime_diagnostics,
    make_exp,
    make_sum,
    probe_report,
    radius_scan,
    rational_function,
    trig_decay,
    zero_function,
)
from sectorlap import probe, quadrature
from sectorlap.catalog import resolve
from sectorlap.probe import J_SLOPE_SENTINEL


def test_blowup_locates_boundary_pole():
    for a in (1, -1, 2, -1 + 1j):
        scan = blowup_scan(make_exp(a), 0.0)
        assert scan.detected
        assert abs(scan.boundary_point - (-complex(a))) <= 1e-6
        assert math.isclose(scan.blowup_exponent, -1.0, abs_tol=0.05)
        assert scan.growth_ratio >= 10.0


def test_blowup_in_rotated_direction():
    # the pole -1 stays put; only the boundary parameterization rotates
    scan = blowup_scan(make_exp(1), math.pi / 8)
    assert scan.detected
    assert abs(scan.boundary_point - (-1.0)) <= 1e-6


def test_blowup_with_numeric_transform():
    scan = blowup_scan(make_exp(1), 0.0, g_source="numeric")
    assert scan.detected
    assert abs(scan.boundary_point - (-1.0)) <= 1e-3
    assert math.isclose(scan.blowup_exponent, -1.0, abs_tol=0.1)


@pytest.mark.parametrize("fn, theta", [(make_exp(-1 + 1j), -0.4916), (trig_decay(), 0.1343)])
def test_numeric_blowup_off_axis(fn, theta):
    # the rays reach T of about 3e4 at margin 1e-3 while turning at the kernel's and f's rates:
    # criterion 9's location and exponent tolerances
    scan = blowup_scan(fn, theta, g_source="numeric")
    assert scan.detected
    assert abs(scan.boundary_point - fn.singularities_of_g[0]) <= 1e-3
    assert math.isclose(scan.blowup_exponent, -1.0, abs_tol=0.1)


def _one_omega_passes(monkeypatch) -> list:
    """Patch probe._g_values to append the size of every batch it gets to the returned list."""
    sizes = []
    g_values = probe._g_values

    def counted(fn, theta, omegas, *rest):
        sizes.append(len(omegas))
        return g_values(fn, theta, omegas, *rest)

    monkeypatch.setattr(probe, "_g_values", counted)
    return sizes


def test_numeric_peak_search_stops_at_the_est_error_resolution(monkeypatch):
    # the search stops where |g|'s drop from its peak meets g's est_error, within criterion 9
    sizes = _one_omega_passes(monkeypatch)
    scan = blowup_scan(make_exp(-1), 0.0, g_source="numeric")
    assert sizes.count(1) <= 10
    assert abs(scan.boundary_point - 1.0) <= 1e-3
    assert math.isclose(scan.blowup_exponent, -1.0, abs_tol=0.1)
    assert 0.1 * math.sqrt(np.finfo(float).eps) < scan.location_tol < 1e-3


def test_numeric_peak_search_takes_few_one_omega_passes(monkeypatch):
    # Brent's method from the sweep's peak and its neighbours; golden section made 31 passes here
    sizes = _one_omega_passes(monkeypatch)
    scan = blowup_scan(make_exp(-1), 0.3, g_source="numeric")
    assert scan.detected
    assert sizes.count(1) <= 10


@pytest.mark.parametrize("theta", [-0.05, 0.0, 0.04])
def test_the_sweep_of_a_numeric_sum_scan_refines_in_one_round(theta, monkeypatch):
    # about half of the 128 sweep integrals split one panel each, all in one engine round; the splits of a
    # family's shared panel evaluate it once
    calls, sums = [], quadrature._sums

    def counted(fn, mid, half, owner, src, freq, x, row):
        calls.append((len(mid), len(freq)))
        return sums(fn, mid, half, owner, src, freq, x, row)

    batches, g_values = [], probe._g_values

    def logged(fn, theta, omegas, *rest):
        before = len(calls)
        out = g_values(fn, theta, omegas, *rest)
        batches.append(calls[before:])
        return out

    monkeypatch.setattr(quadrature, "_sums", counted)
    monkeypatch.setattr(probe, "_g_values", logged)
    assert blowup_scan(resolve("sum:a1=-1,c1=1,a2=-2,c2=2"), theta, g_source="numeric").detected
    # the seeding of 6 panels per integral, and one round
    (_, seeded), (panels, entries) = batches[0]
    assert seeded == 3 * 128 * 6 and entries >= 4 * 60 and panels <= 12


@pytest.mark.parametrize("g_source", ["oracle", "numeric"])
@pytest.mark.parametrize("a", [-1, 1, -1 + 1j])
def test_blowup_location_lies_within_its_tolerance(a, g_source):
    fn = make_exp(a)
    scan = blowup_scan(fn, 0.0, g_source=g_source)
    assert abs(scan.boundary_point - fn.singularities_of_g[0]) <= 2 * scan.location_tol


def test_location_tol_of_oracle_and_quiet_scans():
    assert blowup_scan(make_exp(1), 0.0).location_tol == 0.1 * math.sqrt(np.finfo(float).eps)
    assert blowup_scan(zero_function(), 0.0).location_tol is None


def test_probes_reject_directions_outside_the_sector():
    with pytest.raises(ValueError, match=r"^theta=2\.0 outside the entry's sector"):
        blowup_scan(make_exp(1), 2.0)
    with pytest.raises(ValueError, match=r"^theta=-2\.0 outside the entry's sector"):
        radius_scan(rational_function(), -2.0, theta=-2.0, g_source="numeric")


def test_blowup_absent_for_entire_transform():
    scan = blowup_scan(zero_function(), 0.0)
    assert not scan.detected
    assert scan.boundary_point is None


def test_a_logarithmic_boundary_singularity_grows_too_slowly_to_be_detected():
    # g of the rational entry has a logarithmic singularity on its boundary: |g| grows along the descent, but by
    # less than the factor 10 that a detected blow-up needs
    scan = blowup_scan(resolve("rational"), 0.0)
    assert scan.detected is False
    assert scan.boundary_point is None
    assert 1.0 < scan.growth_ratio < 10.0


def test_radius_scan_known_poles():
    fn = make_exp(1)
    for center, want in ((-2.0, 1.0), (-3.0, 2.0)):
        rs = radius_scan(fn, center)
        assert math.isclose(rs.radius_estimate, want, rel_tol=5e-3)
        assert math.isclose(rs.predicted_distance, want)
    # two poles: the nearer one controls the radius
    fn2 = make_sum([(1, 1), (1, 2)])
    rs = radius_scan(fn2, -4.0)
    assert math.isclose(rs.radius_estimate, 2.0, rel_tol=0.05)
    assert math.isclose(rs.predicted_distance, 2.0)


def test_radius_scan_numeric_transform():
    rs = radius_scan(make_exp(1), -2.0, g_source="numeric")
    assert math.isclose(rs.radius_estimate, 1.0, rel_tol=0.05)


def test_radius_scan_rejects_outside_center():
    with pytest.raises(ValueError, match="outside"):
        radius_scan(make_exp(1), -0.5)


def test_radius_scan_flat_transform_ill_conditioned():
    with pytest.raises(IllConditioned):
        radius_scan(zero_function(), -2.0)


def _with_errors(monkeypatch, size: int, rule):
    """Patch probe._g_values so that its batches of ``size`` omegas return rule(values, errors)."""
    g_values = probe._g_values

    def patched(fn, theta, omegas, *rest):
        values, errors = g_values(fn, theta, omegas, *rest)
        return rule(values.copy(), errors.copy()) if len(omegas) == size else (values, errors)

    monkeypatch.setattr(probe, "_g_values", patched)


@pytest.mark.parametrize("error", [1e-3, 1e-30])
def test_radius_scan_needs_coefficients_above_the_ring_est_errors(error, monkeypatch):
    # c_n rho^n = 0.8^n / (2 pi) for exp:a=1 at -2, from 1.1e-2 at n = 12 to 7.5e-4 at n = 24; an FFT
    # coefficient, a mean of the ring values, is known to within their largest est_error only
    _with_errors(monkeypatch, 256, lambda values, errors: (values, np.full(len(values), error)))
    if error > 1e-4:
        with pytest.raises(IllConditioned, match=r"c_23 \* rho\^23 = 9\.395e-04 is not above .* est_error 1\.000e-03"):
            radius_scan(make_exp(1), -2.0)
    else:
        assert math.isclose(radius_scan(make_exp(1), -2.0).radius_estimate, 1.0, rel_tol=5e-3)


def test_blowup_descent_fits_only_magnitudes_above_their_est_errors(monkeypatch):
    # the descent's three innermost values, 100 times too large, lie within their est_errors of 0: fitting them
    # would steepen the slope, and the fit leaves them out as it does for J
    def noisy(values, errors):
        values[-3:] *= 100.0
        errors[-3:] = 2.0 * np.abs(values[-3:])
        return values, errors

    _with_errors(monkeypatch, 13, noisy)
    scan = blowup_scan(make_exp(1), 0.0)
    assert scan.detected
    assert math.isclose(scan.blowup_exponent, -1.0, abs_tol=0.05)


def test_truncated_contour_slopes():
    diag = gamma_prime_diagnostics(make_exp(1), math.pi / 4, 0.0, -0.5 - 1.2j, -0.5 + 1.2j)
    assert math.isclose(diag.inf_projection, -0.5)
    chord, upper, lower = diag.slopes
    # chord integrand carries e^{0.5 s} exactly, so the fitted slope is 1/2
    assert math.isclose(chord, 0.5, abs_tol=1e-6)
    # ray contributions grow slightly slower (algebraic 1/s correction)
    assert 0.40 <= upper <= 0.5
    assert 0.40 <= lower <= 0.5
    # all three stay below the indicator 1.0: truncation cannot reproduce
    # the true growth, which is the point of the diagnostic
    assert max(diag.slopes) < 1.0


def test_truncated_contour_slopes_fit_only_values_above_their_est_errors():
    # J2's trailing value sits below its est_error, and J3 has only 2 positive values: fitting noise
    # (or one point, which polyfit warns about) put J3's slope above the bound
    q, r = 1.696501998511685 - 2.5084983623913182j, 1.696501998511685 - 0.079196479679239151j
    diag = gamma_prime_diagnostics(
        make_exp(-1 + 1j), math.pi / 4, 0.39529476793467855, q, r, QuadratureBudget(1e-9, 1e-12)
    )
    assert J_SLOPE_SENTINEL < min(diag.slopes)
    assert max(diag.slopes) <= -diag.inf_projection + 0.02  # criterion 10's bound


def test_truncated_contour_slopes_of_a_zero_transform():
    # every piece is 0, including the rays whose sampled sup|g| is 0: each slope is the sentinel
    diag = gamma_prime_diagnostics(zero_function(), math.pi / 4, 0.0, -0.5 - 1.2j, -0.5 + 1.2j)
    assert diag.slopes == (J_SLOPE_SENTINEL,) * 3


def test_truncated_contour_input_checks():
    fn = make_exp(1)
    with pytest.raises(ValueError, match="oracle"):
        gamma_prime_diagnostics(rational_function(), math.pi / 4, 0.0, -1 - 1j, -1 + 1j)
    # chord crossing the pole at -1 is rejected before any quadrature
    with pytest.raises(ValueError, match="singularity"):
        gamma_prime_diagnostics(fn, math.pi / 4, 0.0, -1.2 + 0j, -0.8 + 0j)
    # so is an outward ray through it: here the upper one, from r = -1 - e^{i pi/4} / 2
    r = -1 - 0.5 * cmath.exp(1j * math.pi / 4)
    with pytest.raises(ValueError, match="singularity"):
        gamma_prime_diagnostics(fn, math.pi / 4, 0.0, r - 1j, r)
    with pytest.raises(ValueError, match="theta"):
        gamma_prime_diagnostics(fn, math.pi / 4, 1.0, -1 - 1j, -1 + 1j)


def test_probe_report_bundles():
    rep = probe_report(make_exp(1), 0.0)
    assert rep.detected
    assert abs(rep.boundary_point - (-1.0)) <= 1e-6
    assert math.isclose(rep.radius_estimate, 1.0, rel_tol=5e-3)
    assert rep.J_slopes is None

    rep = probe_report(make_exp(1), 0.0, q=-0.5 - 1.2j, r=-0.5 + 1.2j)
    assert rep.J_slopes is not None
    assert math.isclose(rep.J_slopes[0], 0.5, abs_tol=1e-6)


def test_probe_report_survives_flat_radius():
    # zero entry: no blow-up, radius fit ill conditioned; report still forms
    rep = probe_report(zero_function(), 0.0)
    assert not rep.detected
    assert rep.radius_estimate is None
