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

EPS = float(np.finfo(float).eps)
SUM = "sum:a1=-1,c1=1,a2=-2,c2=2"


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
    # 1/g of one pole is linear up to g's quadrature error: one secant step from the sweep finds its zero, and
    # location_tol, the last step plus the root's distance off the boundary line plus 4 eps |root|, stays
    # within a few hundred eps of the floor 4 eps |root| = 4 eps
    sizes = _one_omega_passes(monkeypatch)
    scan = blowup_scan(make_exp(-1), 0.0, g_source="numeric")
    assert sizes.count(1) <= 2
    assert abs(scan.boundary_point - 1.0) <= scan.location_tol
    assert math.isclose(scan.blowup_exponent, -1.0, abs_tol=0.1)
    assert 4 * EPS <= scan.location_tol < 1e-12


def test_numeric_peak_search_takes_few_one_omega_passes(monkeypatch):
    # secant steps on 1/g from the sweep's peak and its larger neighbour; golden section made 31 passes here,
    # and Brent's method up to 10
    sizes = _one_omega_passes(monkeypatch)
    scan = blowup_scan(make_exp(-1), 0.3, g_source="numeric")
    assert scan.detected
    assert sizes.count(1) <= 2


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
    assert abs(scan.boundary_point - fn.singularities_of_g[0]) <= scan.location_tol


def test_location_tol_of_oracle_and_quiet_scans(monkeypatch):
    # the oracle's 1/g is linear: its secant root is the pole -1 up to rounding, and location_tol is about
    # its floor 4 eps |root| = 4 eps
    assert 4 * EPS <= blowup_scan(make_exp(1), 0.0).location_tol < 8 * EPS
    assert blowup_scan(zero_function(), 0.0).location_tol is None
    # g(w) = 1/(-1 - Re w) is the same along the boundary: the first secant divides by 0 and the sweep's peak
    # tau = -4 stands, as if reached from its neighbour, at margin 0.1 off the boundary line
    scan, steps = _scan_with(monkeypatch, lambda w: 1 / (-1 - w.real))
    assert steps == [] and scan.boundary_point == -1 - 4j
    assert math.isclose(scan.location_tol, 8 / 127 + 0.1 + 4 * EPS * abs(-1.1 - 4j), rel_tol=1e-14)


def _scan_with(monkeypatch, g):
    """blowup_scan(exp:a=1, 0), whose boundary is Re w = -1, with g(w) for g: the scan and its secant steps' points.

    The steps' points are those of every batch between the sweep, the first, and the descent, the last.
    """
    batches = []

    def fake(fn, theta, omegas, *rest):
        w = np.asarray(omegas, dtype=complex)
        batches.append(w)
        return np.asarray(g(w), dtype=complex), np.zeros(len(w))

    monkeypatch.setattr(probe, "_g_values", fake)
    scan = blowup_scan(make_exp(1), 0.0)
    return scan, [w for batch in batches[1:-1] for w in batch.tolist()]


@pytest.mark.parametrize("tau", [-4 + 1e-3, 4 - 1e-3])
def test_the_locator_starts_from_the_one_neighbour_of_a_peak_at_the_window_edge(tau, monkeypatch):
    pole = -1 + 1j * tau
    scan, steps = _scan_with(monkeypatch, lambda w: 1 / (w - pole))
    assert scan.detected and len(steps) == 1
    assert abs(scan.boundary_point - pole) <= min(scan.location_tol, 1e-12)


def test_a_pole_beyond_the_window_edge_is_not_reached(monkeypatch):
    # the secant root, the pole -1 - 4.5i, is clipped to the edge tau = -4, and the one step there finds it again:
    # the descent at tau = -4 is 0.5 from the pole, so |g| hardly grows
    scan, steps = _scan_with(monkeypatch, lambda w: 1 / (w - (-1 - 4.5j)))
    assert steps == [-1.0001 - 4j] and not scan.detected


def test_a_zero_g_at_a_step_ends_the_steps(monkeypatch):
    # the one-omega pass returns 0: the steps end at the root that led there, the pole itself
    scan, steps = _scan_with(monkeypatch, lambda w: 1 / (w - (-1 + 0.3j)) if len(w) > 1 else np.zeros(1))
    assert len(steps) == 1 and scan.detected
    assert abs(scan.boundary_point - (-1 + 0.3j)) <= min(scan.location_tol, 1e-12)


def _survey():
    for fn_id in ("exp:a=-1", "exp:a=1", "exp:a=-1+1i"):
        alpha = resolve(fn_id).spec.alpha
        yield from ((fn_id, theta) for theta in (-alpha, -0.3, 0.0, 0.3, alpha))
    yield from (("trig", theta) for theta in (-0.6, -0.3, 0.0, 0.3, 0.6))
    alpha = resolve(SUM).spec.alpha
    # from |theta| = 0.78 on, the sum's second pole, cos(theta) past the boundary, makes a second local peak of
    # the sweep, and from about 1.49 on the larger one
    thetas = (-alpha, -1.52, -1.5, -0.5, -0.3, -0.05, 0.0, 0.05, 0.3, 0.5, 1.5, 1.52, alpha)
    yield from ((SUM, theta) for theta in thetas)


@pytest.mark.parametrize("g_source", ["oracle", "numeric"])
@pytest.mark.parametrize("fn_id, theta", list(_survey()))
def test_blowup_survey_locates_each_pole_within_its_tolerance(fn_id, theta, g_source, monkeypatch):
    # one pole makes 1/g linear, so one secant step finds it; the sum's second pole bends 1/g, and the steps
    # converge to the nearer pole within the tolerances of criterion 9 and far inside them; where the sweep has
    # two local peaks, steps start from each, and the root nearest the boundary line is the boundary pole
    sizes = _one_omega_passes(monkeypatch)
    fn = resolve(fn_id)
    scan = blowup_scan(fn, theta, g_source=g_source)
    assert scan.detected
    error = min(abs(scan.boundary_point - pole) for pole in fn.singularities_of_g)
    assert error <= scan.location_tol
    assert error <= (1e-12 if fn_id != SUM else 1e-6 if g_source == "oracle" else 1e-4)
    assert math.isclose(scan.blowup_exponent, -1.0, abs_tol=0.05)
    # the passes besides the sweep and the descent are the secant steps', all runs' steps in lockstep
    assert len(sizes) - 2 <= (2 if fn_id != SUM else 8)


def test_the_locator_starts_from_each_local_peak_of_the_sweep(monkeypatch):
    # the boundary Re w = -1 holds the pole -1 - 1i; the pole -0.95 + 2i beyond it, of residue 4, holds the
    # sweep's largest |g|: steps start from both peaks, and the root on the boundary line wins
    sizes = []

    def g(w):
        sizes.append(len(w))
        return 1 / (w - (-1 - 1j)) + 4 / (w - (-0.95 + 2j))

    scan, _ = _scan_with(monkeypatch, g)
    # both runs' first steps share one pass
    assert scan.detected and sizes[1] == 2
    assert abs(scan.boundary_point - (-1 - 1j)) <= min(scan.location_tol, 1e-6)


def test_a_finished_run_leaves_the_lockstep(monkeypatch):
    # the two peaks above; a g of 0 at the first step point of the run from the pole beyond the boundary ends
    # that run, and the run from the boundary pole steps on alone, as it did beside it
    def two_poles(w):
        return 1 / (w - (-1 - 1j)) + 4 / (w - (-0.95 + 2j))

    passes, alone = [], []
    scan, _ = _scan_with(monkeypatch, lambda w: passes.append(w.tolist()) or two_poles(w))
    near, far = passes[1]  # the runs' first steps, in the order of their peaks
    stopped, _ = _scan_with(monkeypatch, lambda w: alone.append(w.tolist()) or np.where(w == far, 0, two_poles(w)))
    assert alone[1] == [near, far] and len(alone[2:-1]) >= 2
    assert alone[2:-1] == [[steps[0]] for steps in passes[2:-1]]
    assert stopped.detected and stopped.boundary_point == scan.boundary_point
    assert stopped.location_tol == scan.location_tol


def test_a_two_point_plateau_of_the_sweep_is_one_local_peak(monkeypatch):
    # the pole -1 lies halfway between the sweep points tau = -+4/127, whose |g| are equal: one start, one step
    scan, steps = _scan_with(monkeypatch, lambda w: 1 / (w + 1))
    assert scan.detected and len(steps) == 1
    assert abs(scan.boundary_point - (-1.0)) <= min(scan.location_tol, 1e-12)


def test_probes_reject_directions_outside_the_sector():
    with pytest.raises(ValueError, match=r"^theta=2\.0 outside the sector"):
        blowup_scan(make_exp(1), 2.0)
    with pytest.raises(ValueError, match=r"^theta=-2\.0 outside the sector"):
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


@pytest.mark.parametrize(
    "center, kind, rho",
    [(-1e100, "overflows", "8.000000000000001e\\+99"), (-1.0 - 1e-14, "underflows", "7.993605777301127e-15")],
    ids=["far", "near-the-pole"],
)
def test_radius_scan_refuses_a_center_where_rho_to_the_degree_leaves_the_doubles(center, kind, rho):
    # rho = 0.8 x the margin: 8e99, whose 24th power overflows, or 8e-15, whose 24th power underflows to 0; either
    # is an IllConditioned naming which, with no numpy warning (which tier-1 turns into an error)
    with pytest.raises(IllConditioned, match=rf"rho\^n {kind}: .* \(rho = {rho}, n <= 24\)"):
        radius_scan(make_exp(1), center)


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
    assert rep.blowup.detected
    assert abs(rep.blowup.boundary_point - (-1.0)) <= 1e-6
    assert math.isclose(rep.radius.radius_estimate, 1.0, rel_tol=5e-3)
    assert rep.diagnostics is None

    rep = probe_report(make_exp(1), 0.0, q=-0.5 - 1.2j, r=-0.5 + 1.2j)
    assert rep.diagnostics is not None
    assert math.isclose(rep.diagnostics.slopes[0], 0.5, abs_tol=1e-6)


def test_probe_report_survives_flat_radius():
    # zero entry: no blow-up, radius fit ill conditioned; report still forms
    rep = probe_report(zero_function(), 0.0)
    assert not rep.blowup.detected
    assert isinstance(rep.radius, IllConditioned)
