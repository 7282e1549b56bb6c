"""Reconstruction of f from its transform by integration over the V contour.

With the contour's increasing-parameter traversal (in along the lower leg,
out along the upper), the inversion integral splits into two ray integrals:

    f(z) =   i e^{+i alpha} int_0^inf g(p - i e^{+i alpha} u) e^{-(p - i e^{+i alpha} u) z} du
           + i e^{-i alpha} int_0^inf g(p + i e^{-i alpha} t) e^{-(p + i e^{-i alpha} t) z} dt

(the lower leg's dw/dt is +i e^{i alpha} because the contour parameter runs
opposite to the leg parameter there).  For z = |z| e^{i phi} inside the open
sector the integrand decays like e^{-u |z| sin(alpha + phi)} on the lower leg
and e^{-t |z| sin(alpha - phi)} on the upper one, which is why an angular
margin min(alpha - phi, alpha + phi) >= delta_ang = DELTA_ANG_DEFAULT is enforced.

g comes from ``laplace._g_values``: each outer integrand call gets g on
both legs as one batch, from the entry's transform oracle or from nested
numeric transforms along theta = -+ alpha with a budget 100x tighter than
the outer one.  The outer integrand hands g its leg parameters t, and g
hands ``_g_values`` each inner omega's rotated point u = omega e^{-+i alpha}
= p cos alpha -+ i (p sin alpha + t): every inner omega of a leg has the
same Re u, so a leg is one family, whose smooth factor the engine evaluates
once per seed panel, and each omega still gets the bits of its transform
alone at that u.  On each leg the kernel's rotation e^{-i Im(leg_dir z) t}
is the quadrature's carrier, and the integrand hands over the rest.  |g| is
bounded on the legs by (K / 2 pi) / -(h + p cos alpha), which feeds the
outer truncation.

``reconstruct_each`` checks a request once, then each z, and integrates every
leg of the admitted z in one engine pass (each point alone should it raise),
of which ``reconstruct`` is the one-z case: the lower legs of all its points
share one inner family per integrand call, and so do the upper ones, and each
leg still gets the bits of its pass alone.  The inner
error is part of est_error, per point and leg: with max|delta g| the
largest inner est_error on a leg of z (0 for the oracle), the leg adds

    max|delta g| int |e^{-w z}| |dw| = max|delta g| e^{-p Re z} / (|z| sin(alpha +- phi)),

the outer integral in closed form, its rate being the leg's decay rate.

``cauchy_path_check`` verifies the same identity in its pre-interchange form,

    2 pi i f(z) = int_{e^{-i alpha} ray} f(zeta) e^{p (zeta - z)} / (zeta - z) dzeta
                - int_{e^{+i alpha} ray} (same integrand) dzeta,

which exercises the boundary-ray route without any transform in the middle.
"""

import cmath
import math
from dataclasses import dataclass
from statistics import median
from typing import Optional

import numpy as np

from .catalog import ORACLE_SOURCES, TestFunction, pick_oracle, type_for
from .errors import AngularMarginTooSmall, IllConditioned, OutsideSector, SectorLapError
from .geometry import ContourGamma, SectorSpec, _ray_distance, build_gamma, sector_contains
from .indicator import indicator_value
from .laplace import DELTA_MIN_DEFAULT, _decay_rate, _g_values, _leg_points
from .laplace import _ray_transform  # noqa: F401  (unused here; bench/tracer.py wraps this binding)
from .quadrature import DecayModel, IntegralResult, QuadratureBudget, _integrate_rays, integrate_ray

__all__ = [
    "ReconstructionQuery",
    "reconstruct",
    "reconstruct_each",
    "RoundtripRow",
    "RoundtripReport",
    "roundtrip_report",
    "cauchy_path_check",
]

DELTA_ANG_DEFAULT = 0.05


@dataclass(frozen=True)
class ReconstructionQuery:
    """f(z) from g on the contour gamma; ``g_source`` is a name ``pick_oracle`` takes."""

    fn: TestFunction
    gamma: ContourGamma
    z: complex
    budget: QuadratureBudget = QuadratureBudget()
    g_source: str = "auto"

    def __post_init__(self):
        if self.g_source not in ORACLE_SOURCES:
            raise ValueError(f"g_source must be auto|oracle|numeric, got {self.g_source!r}")


def _g_evaluator(q: ReconstructionQuery, dirs: np.ndarray, n: int):
    """Vectorized (t, k) -> g at leg parameters t of integral k, leg k % 2, one ``_g_values`` batch per call.

    Leg 0 is the lower leg (theta = -alpha, direction ``dirs[0]``), leg 1 the
    upper one.  g gets each leg's omegas and their rotated points
    (``_leg_points``), so that a leg is one family, across points z too.
    Also returns an array holding, per integral k < n, the largest inner
    est_error g has returned for it so far.
    """
    fn = q.fn
    inner_err = np.zeros(n)
    inner = q.budget.tighten()
    thetas = np.array([-q.gamma.alpha, q.gamma.alpha])

    def g(ts, k):
        legs = k % 2
        omegas = (q.gamma.p + dirs[legs] * ts).ravel()
        values, errors = _g_values(
            fn, thetas[legs].repeat(ts.shape[1]), omegas, inner, q.g_source, DELTA_MIN_DEFAULT,
            _leg_points(q.gamma, ts, legs),
        )
        if errors.any():
            np.maximum.at(inner_err, k[:, 0], errors.reshape(ts.shape).max(axis=1))
        return values.reshape(ts.shape)

    return g, inner_err


def _admit(z: complex, alpha: float, p: float) -> tuple[float, float]:
    """The phase of z and the weight e^{-p Re z}, once z lies in the open sector with angular margin."""
    if not sector_contains(SectorSpec(alpha=alpha, h=0.0), z):
        raise OutsideSector(f"z={z} is not inside the open sector of half-angle {alpha}")
    phi = cmath.phase(z)
    ang = min(alpha - phi, alpha + phi)
    if not ang >= DELTA_ANG_DEFAULT:
        raise AngularMarginTooSmall(
            f"z={z} has angular margin {ang:.4f} < delta_ang={DELTA_ANG_DEFAULT}; "
            "the leg integrals would decay too slowly"
        )
    try:
        return phi, math.exp(-p * z.real)
    except OverflowError:
        return phi, math.inf  # an envelope amplitude the engine rejects with InvalidDecay


def _legs(q: ReconstructionQuery, leg_gap: float, points: list[tuple[complex, float, float]]) -> list:
    """Both legs of every point (z, phase, weight) in one engine pass: per point its result or IllConditioned.

    ``q`` is the request, read for its entry, contour, budget and g source;
    leg_gap = -(h + p cos alpha) > 0 bounds |g| on the legs.  Integral
    2 i + leg is the lower (leg 0) or upper (leg 1) leg of point i.  Raises
    the first failure the pass meets, whichever point's it is.
    """
    alpha, p = q.gamma.alpha, q.gamma.p
    g_bound = q.fn.envelope_const / (2.0 * math.pi) / leg_gap
    dirs = np.array([q.gamma.lower_direction, q.gamma.upper_direction])
    jacs = np.array([1j * cmath.exp(1j * alpha), 1j * cmath.exp(-1j * alpha)])
    rates = [abs(z) * math.sin(alpha + sign * phi) for z, phi, _ in points for sign in (1.0, -1.0)]
    amps = [g_bound * weight for _, _, weight in points for _ in dirs]
    # e^{-w(t) z} = e^{-p z - Re(leg_dir z) t} times the carrier e^{i Im(-leg_dir z) t}
    dz = (dirs * np.array([z for z, _, _ in points])[:, None]).ravel()
    pz = np.array([-p * z for z, _, _ in points]).repeat(2)
    g, inner_err = _g_evaluator(q, dirs, len(dz))

    def integrand(ts, k):
        return jacs[k % 2] * g(ts, k) * np.exp(pz[k] - dz.real[k] * ts)

    values, errors, ts, used = _integrate_rays(integrand, np.array(rates), np.array(amps), q.budget, -dz.imag)
    results = []
    for i, (z, _, weight) in enumerate(points):
        total = 0j
        err = 0.0
        for j in (2 * i, 2 * i + 1):
            total += complex(values[j])
            # g's inner error enters weighted by |e^{-wz}|, whose integral along the leg is e^{-p Re z} / rate
            err += float(errors[j]) + float(inner_err[j]) * weight / rates[j]
        if total != 0 and not err < abs(total):
            # written "not <" so that a NaN estimate fails too
            results.append(IllConditioned(
                f"z={z}: est_error {err:.3e} is not below |value| {abs(total):.3e}, so no digit of the value is certain"
            ))
        else:
            legs = slice(2 * i, 2 * i + 2)
            results.append(IntegralResult(total, err, max(0.0, *ts[legs].tolist()), int(used[legs].sum())))
    return results


def _outcomes(q: ReconstructionQuery, leg_gap: float, points: list[tuple[complex, float, float]]) -> list:
    """Per point its ``_legs`` outcome from one pass; should the pass raise, a lone point's failure, or each point alone."""
    try:
        return _legs(q, leg_gap, points) if points else []
    except SectorLapError as exc:
        return [exc] if len(points) == 1 else [out for point in points for out in _outcomes(q, leg_gap, [point])]


def reconstruct_each(
    fn: TestFunction,
    gamma: ContourGamma,
    zs,
    budget: QuadratureBudget | None = None,
    g_source: str = "auto",
) -> list[IntegralResult | SectorLapError]:
    """A list holding, per z in input order, what ``reconstruct`` gives for it: its result, or its SectorLapError.

    The request is checked once, before any point: ValueError for a g source
    the entry has no oracle for, then ``build_gamma``'s InvalidApex at the
    entry's own type, both raised.  Then each z gets its checks (``_admit``) in
    input order, and the points that pass are reconstructed in one engine pass,
    both legs of each, with the bits of their own ``reconstruct``.  Should that
    pass raise, each point is reconstructed alone and gets its own outcome.
    """
    zs = [complex(z) for z in zs]
    q = ReconstructionQuery(fn, gamma, zs[0] if zs else 0j, budget or QuadratureBudget(), g_source)  # the request
    pick_oracle(fn, "transform", g_source)
    h = type_for(fn, gamma.alpha)
    build_gamma(SectorSpec(gamma.alpha, h), gamma.p)
    points = []  # per z: (z, phase, weight), or the SectorLapError it fails its checks with
    for z in zs:
        try:
            points.append((z, *_admit(z, gamma.alpha, gamma.p)))
        except SectorLapError as exc:
            points.append(exc)
    admitted = [point for point in points if not isinstance(point, SectorLapError)]
    outcomes = iter(_outcomes(q, -(h + gamma.p * math.cos(gamma.alpha)), admitted))
    return [point if isinstance(point, SectorLapError) else next(outcomes) for point in points]


def reconstruct(q: ReconstructionQuery) -> IntegralResult:
    """f(z) from g by the two-leg contour integral, both legs in one engine pass.

    Raises ValueError when ``q.g_source`` asks for an oracle the entry lacks,
    and ``build_gamma``'s InvalidApex when the apex fails p*cos(alpha) < -h at
    the entry's own type h, which a gamma built for a smaller h can.  Raises
    IllConditioned when a nonzero value is not above its est_error: none of
    its digits, not even its sign, is certain.  A value of exactly 0 (the
    zero entry) claims no digit and is returned with its est_error.
    """
    [outcome] = reconstruct_each(q.fn, q.gamma, [q.z], q.budget, q.g_source)
    if isinstance(outcome, SectorLapError):
        raise outcome
    return outcome


@dataclass(frozen=True)
class RoundtripRow:
    """One grid point of ``roundtrip_report``: its residuals, or the SectorLapError it failed with."""

    z: complex
    expected: complex
    reconstructed: Optional[complex]
    abs_residual: float
    rel_residual: float
    est_error: float
    error: Optional[SectorLapError] = None  # the point's failure, with nan residuals and est_error


@dataclass(frozen=True)
class RoundtripReport:
    rows: tuple[RoundtripRow, ...]
    max_abs: float
    max_rel: float
    median_rel: float
    failures: int


def roundtrip_report(
    fn: TestFunction,
    spec: SectorSpec,
    p: float,
    z_grid,
    budget: QuadratureBudget | None = None,
    g_source: str = "auto",
) -> RoundtripReport:
    """Reconstruct f on a z grid and compare with direct evaluation.

    A point's failure is its row's ``error``, the SectorLapError itself, not raised; the summary
    aggregates over the successful points.  The request's own failures are raised before any
    point: InvalidApex for an apex that fails spec.h or the entry's own type, and
    ``reconstruct_each``'s ValueError for a missing g oracle.
    """
    zs = [complex(z) for z in z_grid]
    rows = []
    for z, res in zip(zs, reconstruct_each(fn, build_gamma(spec, p), zs, budget, g_source)):
        expected = complex(fn.evaluate(z))
        if isinstance(res, SectorLapError):
            rows.append(RoundtripRow(z, expected, None, math.nan, math.nan, math.nan, res))
            continue
        abs_res = abs(res.value - expected)
        rel_res = abs_res / abs(expected) if expected != 0 else abs_res
        rows.append(RoundtripRow(z, expected, res.value, abs_res, rel_res, res.est_error))
    good = [r for r in rows if r.error is None]
    return RoundtripReport(
        rows=tuple(rows),
        max_abs=max((r.abs_residual for r in good), default=math.nan),
        max_rel=max((r.rel_residual for r in good), default=math.nan),
        median_rel=median([r.rel_residual for r in good]) if good else math.nan,
        failures=len(rows) - len(good),
    )


def cauchy_path_check(
    fn: TestFunction,
    spec: SectorSpec,
    p: float,
    z: complex,
    budget: QuadratureBudget | None = None,
) -> tuple[float, float]:
    """Residual |2 pi i f(z) - (R1 - R2)| of the boundary-ray identity.

    R1 and R2 integrate f(zeta) e^{p(zeta-z)} / (zeta - z) over the lower
    (theta = -alpha) and upper (theta = +alpha) boundary rays.  Returns
    (residual, combined est_error); the residual should sit at quadrature
    tolerance for admissible (spec, p, z), which includes an angular margin
    of at least DELTA_ANG_DEFAULT from both rays.
    """
    budget = budget or QuadratureBudget()
    gamma = build_gamma(spec, p)  # validates the apex gate
    z = complex(z)
    _, weight = _admit(z, spec.alpha, p)
    total = 0j
    err = 0.0
    for sign in (-1.0, +1.0):
        theta_ray = sign * spec.alpha
        d = cmath.exp(1j * theta_ray)
        ind, exact = indicator_value(fn, theta_ray)
        rate = _decay_rate(-(ind + p * math.cos(spec.alpha)), exact)
        dist = _ray_distance(z, 0j, theta_ray)
        decay = DecayModel(rate=rate, amplitude=fn.envelope_const * weight / dist)
        epz = cmath.exp(-p * z)  # finite once the envelope is
        # e^{p zeta} = e^{p cos(theta) t} times the carrier e^{i p sin(theta) t}
        w = p * math.cos(theta_ray) * d.conjugate()

        def integrand(ts, _d=d, _epz=epz, _w=w):
            zeta = ts * _d
            return fn.weighted_eval(zeta, _w) * _epz / (zeta - z) * _d

        res = integrate_ray(integrand, decay, budget, freq=p * math.sin(theta_ray))
        total += -sign * res.value  # lower ray enters with +, upper with -
        err += res.est_error
    lhs = 2j * math.pi * complex(fn.evaluate(z))
    return abs(lhs - total), err
