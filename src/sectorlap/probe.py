"""Probes of the transform's boundary behaviour.

Three independent experiments, all built on the transform machinery.  The
two scans get g from ``laplace._g_values``, the oracle or the numeric
transform as their ``g_source`` picks, one batch of omegas per call:

* ``blowup_scan`` walks the boundary line of Omega_theta through a window
  centered on its closest point to the origin and approaches it along the
  inward normal w(delta) = w_b - delta e^{-i theta}, whose margin is exactly
  delta.  A singularity on the boundary shows up as |g| growing like
  delta^{-1}; the scan reports the location (the zero of 1/g, found by secant
  steps from each local peak of the outermost level's sweep, the runs held
  in plain per-run lists and stepped in one loop, one pass of g per step,
  keeping the root nearest its point on the boundary line, with
  location_tol, the last root's move plus its distance from the boundary
  point reported), the fitted growth exponent, and whether any blow-up was
  seen at all (quiet boundaries are reported, not raised).  One helper gets
  g at margins delta inside boundary points tau, for the sweep, every step
  and the descent: it hands g the rotated points u = omega e^{i theta} =
  (offset - delta) + i tau of its omegas, so each level, the sweep's 128
  omegas among them, is one family of ray integrals.

* ``radius_scan`` fits the distance from an interior point to the nearest
  singularity of g out of Taylor coefficients computed by discrete Cauchy
  integrals on a circle of radius 0.8x the margin, which comes from the
  entry's fan of half-planes (``ConcatenatedTransform``).  The fit regresses
  ln|c_n| against n over the trailing half of the coefficients; for a simple
  pole at distance R the slope is exactly -ln R.

* ``gamma_prime_diagnostics`` measures the growth in s of the three pieces
  J1 (chord), J2, J3 (outward rays) of a truncated-contour representation
  evaluated at z = s e^{i theta}, and compares their fitted exponential
  rates against -inf_{contour} Re(w e^{i theta}).  If the indicator exceeds
  that infimum, f grows strictly faster than any such representation allows,
  which is the contradiction the diagnostics make quantitative.  Oracle
  entries only.  A slope fits only the values of J above their est_error, as
  the others are noise; a piece with fewer than 2 such values (the zero
  entry's pieces, which are 0 everywhere) gets the slope J_SLOPE_SENTINEL.

The two scans use the est_errors that come with g: the blow-up exponent is
fitted over the magnitudes above their est_error, and a radius fit whose
coefficients do not stand above the ring's est_errors is IllConditioned.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import TestFunction, pick_oracle
from .errors import IllConditioned
from .geometry import _check_alpha, _ray_distance
from .indicator import _check_direction, indicator_value
from .laplace import DELTA_MIN_DEFAULT, ConcatenatedTransform, _best_direction, _g_values
from .laplace import _ray_transform  # noqa: F401  (unused here; bench/tracer.py wraps this binding)
from .quadrature import QuadratureBudget, _integrate_rays, _integrate_segments
# unused here; bench/tracer.py wraps these bindings
from .quadrature import integrate_ray, integrate_segment  # noqa: F401

__all__ = [
    "BlowupScan",
    "RadiusScan",
    "GammaPrimeDiagnostics",
    "ProbeReport",
    "blowup_scan",
    "radius_scan",
    "gamma_prime_diagnostics",
    "probe_report",
]

J_SLOPE_SENTINEL = -1e9
_DEGREE = 24  # Taylor coefficients used by the radius fit
_SECANT_STEPS = 20  # the blow-up locator's cap on one-omega passes


@dataclass(frozen=True)
class BlowupScan:
    theta: float
    detected: bool
    boundary_point: Optional[complex]
    blowup_exponent: Optional[float]
    growth_ratio: float
    offset: float
    location_tol: Optional[float] = None  # last secant root's move + its distance from boundary_point; no bound


@dataclass(frozen=True)
class RadiusScan:
    center: complex
    theta: float
    radius_estimate: float
    predicted_distance: float
    margin: float


@dataclass(frozen=True)
class GammaPrimeDiagnostics:
    theta: float
    q: complex
    r: complex
    slopes: tuple[float, float, float]
    inf_projection: float


@dataclass(frozen=True)
class ProbeReport:
    """One direction's probes as ``probe_report`` got them: the radius scan's result or its IllConditioned."""

    theta: float
    blowup: BlowupScan
    radius: RadiusScan | IllConditioned
    diagnostics: GammaPrimeDiagnostics | None  # only for a chord [q, r]


def blowup_scan(
    fn: TestFunction,
    theta: float,
    budget: QuadratureBudget | None = None,
    g_source: str = "auto",
) -> BlowupScan:
    """Sweep the boundary of Omega_theta for blow-up of |g| along inward normals.

    The sweep covers 128 boundary points over [-4, 4] about the closest
    point to the origin; the margins descend geometrically from 0.1 to 1e-4
    (13 levels) with an oracle g, to 1e-3 (7 levels) with a numeric one, and
    a blow-up counts as detected once |g| grows at least 10-fold over them.
    The location is the zero of 1/g, which a simple pole of g is, found by
    secant steps in u = omega e^{i theta}, where the margin is offset - Re u
    and tau = Im u; one helper gets g at (margin, tau) for the sweep, every
    step and the descent, handing g these rotated points, so each margin of
    the sweep and the descent is one family of ray integrals.  The steps
    start from each local peak of the sweep, a |g| above its left
    neighbour's and at least its right one's (so a two-point plateau counts
    once), and its larger neighbour.  Each run clips its root's tau to the
    sweep cells beside its peak and evaluates g there, one omega per step,
    at a margin of the distance tau moved, kept between the innermost and
    the outermost margin.  The runs' last two points and g values, roots,
    steps, taus and clips are plain per-run lists, stepped in one loop: each
    pass computes every live run's new root and gets g in one batch at the
    points of the runs whose root moved, so a scan makes as many passes as
    its longest run steps, and a run that stops leaves the loop.  A run
    stops at a root within 0.1 times the innermost margin of the one before
    (the peak before the first), after 20 steps, or at a root that is not
    finite or a g of 0.  The location is the point of the boundary at a
    root's clipped tau.  A pole on the boundary lies on the line Re u =
    offset, so the run whose last root lies nearest its location wins: a
    second pole beyond the boundary may hold the sweep's largest |g|, but
    not the location.  One pole makes 1/g linear, so one step finds it up to
    rounding.  location_tol is the last root's move plus its distance from
    the location, plus 4 eps |root|: an estimate of the secant's own error,
    not a bound.  The exponent is fitted over the descent's magnitudes above
    their est_error.  ValueError for a theta outside the sector.
    """
    _check_direction(theta, fn.spec.alpha)
    budget = budget or QuadratureBudget()
    has_oracle = pick_oracle(fn, "transform", g_source) is not None
    # numeric transforms cannot go below the default admission margin
    deltas = np.geomspace(1e-1, 1e-4 if has_oracle else 1e-3, 13 if has_oracle else 7)
    delta_min = float(deltas[-1])

    ind, _ = indicator_value(fn, theta)
    offset = -ind
    back = cmath.exp(-1j * theta)
    taus = np.linspace(-4.0, 4.0, 128)

    def boundary(tau):
        return (offset + 1j * tau) * back

    def g_at(margins, tau):
        """g and its est_errors at the margins inside the boundary points of tau, one family of ray integrals."""
        margins, tau = np.broadcast_arrays(margins, tau)
        # each omega in Python's complex arithmetic: numpy's complex array products may round differently
        omegas = [boundary(t) - m * back for m, t in zip(margins.tolist(), tau.tolist())]
        return _g_values(fn, theta, omegas, budget, g_source, delta_min / 2, (offset - margins) + 1j * tau)

    far, _ = g_at(deltas[0], taus)
    far_mags = np.abs(far)
    if float(np.max(far_mags)) == 0.0:
        return BlowupScan(theta, False, None, None, 0.0, offset)

    # every local peak of the sweep, > its left neighbour and >= its right one, so that a plateau counts once
    rising = np.concatenate(([True], far_mags[1:] > far_mags[:-1]))
    falling = np.concatenate((far_mags[:-1] >= far_mags[1:], [True]))
    peaks = np.flatnonzero(rising & falling).tolist() or [int(np.argmax(far_mags))]  # none only where |g| is NaN
    # secant steps on 1/g in u = omega e^{i theta}, one run from each peak and its larger neighbour (its one
    # neighbour at the window's edge); before the first step the peak stands as the root, as if reached from there
    starts = [j + 1 if j == 0 or (j < len(taus) - 1 and far_mags[j + 1] > far_mags[j - 1]) else j - 1 for j in peaks]
    lo, hi = [taus[max(j - 1, 0)] for j in peaks], [taus[min(j + 1, len(taus) - 1)] for j in peaks]
    u_a, g_a = [complex(offset - deltas[0], taus[i]) for i in starts], [complex(far[i]) for i in starts]
    u_b, g_b = [complex(offset - deltas[0], taus[j]) for j in peaks], [complex(far[j]) for j in peaks]
    root, step, tau = list(u_b), [abs(b - a) for a, b in zip(u_a, u_b)], [u.imag for u in u_b]
    live = range(len(peaks))
    # the runs step in lockstep: one pass of g per step holds the points of every run that has not stopped
    for _ in range(_SECANT_STEPS):
        moved = []
        for k in live:
            # the zero of the line through (u_a, 1/g_a) and (u_b, 1/g_b), written without dividing by g
            new = u_b[k] - g_a[k] * (u_b[k] - u_a[k]) / (g_a[k] - g_b[k]) if g_a[k] != g_b[k] else complex(math.nan)
            if cmath.isfinite(new):
                root[k], step[k], tau[k] = new, abs(new - root[k]), min(max(new.imag, lo[k]), hi[k])
                if step[k] > 0.1 * delta_min:
                    moved.append(k)
        if not moved:
            break
        margins = np.array([min(max(abs(tau[k] - u_b[k].imag), delta_min), deltas[0]) for k in moved])
        values, _ = g_at(margins, np.array([tau[k] for k in moved]))
        for k, margin, value in zip(moved, margins, values):
            u_a[k], g_a[k], u_b[k], g_b[k] = u_b[k], g_b[k], complex(offset - margin, tau[k]), complex(value)
        live = [k for k in moved if g_b[k] != 0]
    # a pole on the boundary lies on the line Re u = offset: the run whose root lies nearest its reported point
    # there wins (the clip of tau may move that point off the root)
    k = min(range(len(peaks)), key=lambda k: abs(root[k] - complex(offset, tau[k])))
    point = boundary(tau[k])
    # the root's distance from the reported point on the boundary line measures the secant's own error, and the clip's
    tol = step[k] + abs(root[k] - complex(offset, tau[k])) + 4.0 * np.finfo(float).eps * abs(root[k])

    values, errors = g_at(deltas, tau[k])
    mags = np.abs(values)
    ratio = float(mags[-1] / mags[0]) if mags[0] > 0 else 0.0
    if ratio < 10.0:
        return BlowupScan(theta, False, None, None, ratio, offset)
    ok = mags > errors  # as for J, the magnitudes within their est_error of 0 are noise
    slope = float(np.polyfit(np.log(deltas[ok]), np.log(mags[ok]), 1)[0]) if ok.sum() >= 2 else math.nan
    return BlowupScan(theta, True, point, slope, ratio, offset, tol)


def radius_scan(
    fn: TestFunction,
    center: complex,
    budget: QuadratureBudget | None = None,
    theta: float | None = None,
    g_source: str = "auto",
) -> RadiusScan:
    """Distance to the nearest singularity of g from Taylor coefficients at ``center``.

    The coefficients come from the FFT of g at 256 points on a circle of
    radius 0.8x the margin of ``center``; the fit uses those of degree 12
    to 24.  Each FFT coefficient is a mean of the ring values, so it is off
    by at most their largest est_error: IllConditioned when one of those
    fitted is not above it, or underflows, and also, with no numpy warning,
    where rho^n for n up to 24 overflows or underflows (a center very far
    from or very near its boundary).  Without ``theta``, the direction
    is the one of largest margin over the entry's fan, as ``select_direction``
    picks it; ValueError for a theta outside the fan.
    """
    if theta is not None:
        _check_direction(theta, fn.spec.alpha)
    budget = budget or QuadratureBudget()
    center = complex(center)
    fan = ConcatenatedTransform.build(fn)
    theta, margin = _best_direction(fan, center) if theta is None else (theta, fan.margin(center, theta))
    if not margin > 0:
        raise ValueError(f"center {center} lies outside Omega_theta at theta={theta}")

    rho = 0.8 * margin
    phis = 2.0 * math.pi * np.arange(256) / 256
    ring = center + rho * np.exp(1j * phis)
    vals, errors = _g_values(fn, theta, ring, budget, g_source, min(DELTA_MIN_DEFAULT, 0.1 * margin))
    coeffs = np.fft.fft(vals) / 256
    n = np.arange(_DEGREE + 1)
    with np.errstate(all="ignore"):  # where rho^n or a quotient leaves the doubles, refused right below
        powers = rho**n
        cn = np.abs(coeffs[: _DEGREE + 1]) / powers
    if not (powers[-1] < math.inf and np.all(np.isfinite(cn))):
        kind = "overflows: the center lies too far from" if rho > 1.0 else "underflows: the center lies too near"
        raise IllConditioned(f"rho^n {kind} its boundary for a radius fit (rho = {rho!r}, n <= {_DEGREE})")

    lo = _DEGREE // 2
    used = cn[lo:]
    if np.any(used < 1e-280):
        raise IllConditioned(
            f"Taylor coefficients underflow before degree {_DEGREE}; "
            "g is too flat at this center for a radius fit"
        )
    # each FFT coefficient, a mean of the ring values, is off by at most their largest est_error
    noise = float(np.max(errors))
    above = np.abs(coeffs[lo : _DEGREE + 1]) > noise
    if not np.all(above):
        k = lo + int(np.argmin(above))
        raise IllConditioned(
            f"Taylor coefficient c_{k} * rho^{k} = {abs(coeffs[k]):.3e} is not above the ring values' largest "
            f"est_error {noise:.3e}; g is too flat at this center for a radius fit at this budget"
        )
    slope = float(np.polyfit(n[lo:], np.log(used), 1)[0])
    radius = math.exp(-slope)

    predicted = min((abs(center - s) for s in fn.singularities_of_g or ()), default=margin)
    return RadiusScan(center, theta, radius, predicted, margin)


def _fit_slope(s: np.ndarray, values: np.ndarray, errors: np.ndarray) -> float:
    """Regression slope of ln values against s over the trailing half of the values above their est_errors.

    The fit takes at least 2 points; with fewer such values it is J_SLOPE_SENTINEL.
    """
    mask = values > errors
    if mask.sum() < 2:
        return J_SLOPE_SENTINEL
    s_ok, v_ok = s[mask], np.log(values[mask])
    start = min(len(s_ok) // 2, len(s_ok) - 2)
    return float(np.polyfit(s_ok[start:], v_ok[start:], 1)[0])


def _check_chord(fn: TestFunction, alpha: float, theta: float, q: complex, r: complex) -> None:
    """ValueError unless ``gamma_prime_diagnostics`` can take the chord [q, r] and its rays.

    They need a transform oracle, 0 < alpha < pi/2, |theta| < alpha, and
    pieces at least 1e-6 from every singularity of g.
    """
    if fn.transform_oracle is None:
        raise ValueError(f"entry {fn.id!r} has no transform oracle; diagnostics need exact g")
    _check_alpha(alpha)
    if not abs(theta) < alpha:
        raise ValueError(f"need |theta| < alpha for positive ray decay, got theta={theta}")
    for sing in fn.singularities_of_g or ():
        clear = min(
            _point_segment_distance(sing, q, r),
            _ray_distance(sing, r, math.pi / 2 - alpha),
            _ray_distance(sing, q, alpha - math.pi / 2),
        )
        if clear < 1e-6:
            raise ValueError(f"singularity {sing} lies on the truncated contour (distance {clear:.2e})")


def gamma_prime_diagnostics(
    fn: TestFunction,
    alpha: float,
    theta: float,
    q: complex,
    r: complex,
    budget: QuadratureBudget | None = None,
) -> GammaPrimeDiagnostics:
    """Growth rates of the chord-plus-rays pieces against the geometric bound.

    The truncated contour replaces the V by the chord [q, r] plus the outward
    rays r + i e^{-i alpha} [0, inf) and q - i e^{i alpha} [0, inf); its three
    absolute leg integrals at z = s e^{i theta} are

        J_i(s) = int |g(w)| e^{-s Re(w e^{i theta})} |dw|,

    computed at s = 4, 7, ..., 28.  Each fitted slope of ln J_i against s
    must stay at or below -inf Re(w e^{i theta}) over the truncated contour;
    an indicator strictly above that infimum therefore rules the
    representation out.  Requires a transform oracle, pieces clear of its
    singularities, and |theta| < alpha (``_check_chord``).
    """
    budget = budget or QuadratureBudget()
    q, r = complex(q), complex(r)
    _check_chord(fn, alpha, theta, q, r)
    s_grid = np.linspace(4.0, 28.0, 9)

    phase = cmath.exp(1j * theta)
    down = -1j * cmath.exp(1j * alpha)
    up = 1j * cmath.exp(-1j * alpha)
    g = fn.transform_oracle

    # Re(w e^{i theta}) is linear on the chord and increasing along both rays
    inf_proj = min((q * phase).real, (r * phase).real)

    # sampled sup|g| with headroom feeds the ray truncation; diagnostics-grade only
    probe_t = np.geomspace(1e-3, 1e3, 64)
    sup_up = 3.0 * float(np.max(np.abs(g(r + up * probe_t))))
    sup_down = 3.0 * float(np.max(np.abs(g(q + down * probe_t))))

    # one engine pass for the chord integrals J1, one for the rays: J2 on even, J3 on odd owners
    chord = r - q
    zeros, ones = np.zeros(len(s_grid)), np.ones(len(s_grid))
    chords, chord_errors, _ = _integrate_segments(
        lambda u, k: np.abs(g(q + chord * u)) * np.exp(-s_grid[k] * ((q + chord * u) * phase).real) * abs(chord),
        zeros,
        ones,
        budget,
        zeros,
    )
    j1 = np.array([abs(v) for v in chords])
    # a ray with envelope amplitude 0 (a sampled sup|g| of 0, or e^{-s Re(w e^{i theta})} underflowing) has J = 0
    rate = np.ravel([(s * math.sin(alpha - theta), s * math.sin(alpha + theta)) for s in s_grid])
    amplitude = np.ravel(
        [(sup_up * math.exp(-s * (r * phase).real), sup_down * math.exp(-s * (q * phase).real)) for s in s_grid]
    )
    live = np.flatnonzero(amplitude != 0.0)
    starts, heads = np.array([r, q] * len(s_grid))[live], np.array([up, down] * len(s_grid))[live]
    s_rays = s_grid.repeat(2)[live]
    rays, ray_errors = np.zeros(len(rate), dtype=complex), np.zeros(len(rate))
    rays[live], ray_errors[live], _, _ = _integrate_rays(
        lambda t, k: np.abs(g(starts[k] + heads[k] * t))
        * np.exp(-s_rays[k] * ((starts[k] + heads[k] * t) * phase).real),
        rate[live],
        amplitude[live],
        budget,
        np.zeros(len(live)),
    )
    j2, j3 = np.abs(rays[0::2]), np.abs(rays[1::2])

    slopes = (
        _fit_slope(s_grid, j1, np.array(chord_errors)),
        _fit_slope(s_grid, j2, ray_errors[0::2]),
        _fit_slope(s_grid, j3, ray_errors[1::2]),
    )
    return GammaPrimeDiagnostics(theta, q, r, slopes, inf_proj)


def _point_segment_distance(pt: complex, a: complex, b: complex) -> float:
    ab = b - a
    if ab == 0:
        return abs(pt - a)
    t = ((pt - a) * ab.conjugate()).real / abs(ab) ** 2
    t = min(1.0, max(0.0, t))
    return abs(pt - (a + t * ab))


def probe_report(
    fn: TestFunction,
    theta: float,
    budget: QuadratureBudget | None = None,
    g_source: str = "auto",
    center: complex | None = None,
    q: complex | None = None,
    r: complex | None = None,
    alpha: float | None = None,
) -> ProbeReport:
    """The boundary sweep, the radius scan (or the IllConditioned it raised) and, for a chord [q, r], its J diagnostics.

    ``alpha``, the diagnostics' sector half-angle, is checked even when they are not asked for, and
    a theta outside it is a ValueError; it defaults to the entry's own, at most pi/4.  A chord
    [q, r] the diagnostics cannot take (``_check_chord``) is refused before any scan.  The radius
    scan runs first, so that a ``center`` outside Omega_theta is refused before any sweep; its
    ``center`` defaults to a unit margin inward from the boundary's closest point to the origin.
    """
    if alpha is None:
        alpha = min(fn.spec.alpha, math.pi / 4)
    else:
        _check_direction(theta, _check_alpha(alpha))
    chord = q is not None and r is not None
    if chord:
        _check_chord(fn, alpha, theta, q, r)
    if center is None:
        center = (-indicator_value(fn, theta)[0] - 1.0) * cmath.exp(-1j * theta)
    try:
        radius = radius_scan(fn, center, budget=budget, theta=theta, g_source=g_source)
    except IllConditioned as exc:
        radius = exc
    scan = blowup_scan(fn, theta, budget=budget, g_source=g_source)
    diagnostics = gamma_prime_diagnostics(fn, alpha, theta, q, r, budget=budget) if chord else None
    return ProbeReport(theta, scan, radius, diagnostics)
