"""Directional Laplace transforms and their concatenation over a fan of directions.

The directional transform along theta is

    g_theta(w) = (1/(2 pi i)) int_0^inf f(t e^{i theta}) e^{w t e^{i theta}} e^{i theta} dt,

absolutely convergent when the margin

    m(theta, w) = -I(theta) - Re(w e^{i theta})

is positive (I is the indicator).  The integrand envelope is then
(K / 2 pi) e^{-m t} with K the entry's envelope constant, which is what the
ray quadrature's analytic truncation uses.  Different admissible directions
agree on overlaps, so the concatenated transform simply evaluates along the
direction of largest margin.

Margins are computed from the indicator oracle when one exists; otherwise
from the numeric estimate, and ``_decay_rate`` then takes 10% off the decay
rate, since an estimated indicator can be slightly low.

A numeric g at many omegas along one direction (the inversion legs, the
probe scans, the contour-bound check) is one batch: ``_ray_transform_values``
puts the ray integrals of all of them in a single quadrature engine pass.
They share the direction and differ in margin and oscillation frequency, and
each omega still gets the panels, value and est_error of its transform
alone.  An entry's ``weighted_eval(z, w)`` then receives one omega per row
of points z and must broadcast over them elementwise.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import TestFunction, pick_oracle, type_for
from .errors import OutsideDomain, OutsideUnion
from .geometry import ContourGamma, GrowthCertificate
from .indicator import INDICATOR_SENTINEL, OFFSET_CAP, estimate_indicator, indicator_value
from .quadrature import DecayModel, IntegralResult, QuadratureBudget, _integrate_rays, integrate_ray

__all__ = [
    "DELTA_MIN_DEFAULT",
    "TransformQuery",
    "ConcatenatedTransform",
    "directional_transform",
    "select_direction",
    "concatenated_transform",
    "consistency_residual",
    "gamma_bound_check",
]

DELTA_MIN_DEFAULT = 1e-3
_RATE_HAIRCUT = 0.9
_GOLDEN_ITERS = 48
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TransformQuery:
    fn: TestFunction
    theta: float
    omega: complex
    budget: QuadratureBudget = QuadratureBudget()
    delta_min: float = DELTA_MIN_DEFAULT
    indicator_source: str = "auto"

    def __post_init__(self):
        if not abs(self.theta) <= self.fn.spec.alpha + 1e-12:
            raise ValueError(
                f"theta={self.theta} outside the entry's sector |theta| <= {self.fn.spec.alpha}"
            )
        if not self.delta_min > 0:
            raise ValueError(f"delta_min must be positive, got {self.delta_min}")


def _decay_rate(margin, exact_indicator: bool):
    """Decay rate of a ray integrand with this margin: 10% less when the indicator was estimated."""
    return margin if exact_indicator else _RATE_HAIRCUT * margin


def _ray_integrands(
    fn: TestFunction, theta: float, omegas, indicator: float, exact_indicator: bool, delta_min: float
):
    """The ray integrals of g_theta at a 1-D sequence of omegas, as one batch.

    Returns (integrand, rate, amplitude, osc_freq): g_theta(omegas[k]) is the
    integral of integrand(t, k) over [0, inf), with envelope
    amplitude * e^{-rate[k] t} and oscillation frequency osc_freq[k].  Raises
    OutsideDomain for the first omega, in input order, whose margin is below
    delta_min.  ``fn.weighted_eval(z, w)`` gets an array w of the omegas
    owning the points z and must broadcast over them elementwise.
    """
    om = np.asarray(omegas, dtype=complex)
    direction = cmath.exp(1j * theta)
    # Re and Im of omega * direction, written out as Python's complex product computes them
    proj_re = om.real * direction.real - om.imag * direction.imag
    proj_im = om.real * direction.imag + om.imag * direction.real
    margin = np.minimum(-indicator - proj_re, OFFSET_CAP)
    outside = ~(margin >= delta_min)
    if outside.any():
        i = int(np.argmax(outside))
        raise OutsideDomain(
            f"omega={omegas[i]} has margin {margin[i]:.3e} < delta_min={delta_min:.3e} "
            f"in Omega_theta at theta={theta}"
        )
    rate = _decay_rate(margin, exact_indicator)
    prefactor = direction / (2j * math.pi)
    integrand = lambda t, k: prefactor * fn.weighted_eval(t * direction, om[k])
    return integrand, rate, fn.envelope_const / (2.0 * math.pi), np.abs(proj_im)


def _ray_transform(
    fn: TestFunction,
    theta: float,
    omega: complex,
    budget: QuadratureBudget,
    indicator: float,
    exact_indicator: bool,
    delta_min: float,
) -> IntegralResult:
    """g_theta(omega) at one omega, with the indicator given."""
    integrand, rate, amplitude, osc = _ray_integrands(fn, theta, (omega,), indicator, exact_indicator, delta_min)
    decay = DecayModel(rate=float(rate[0]), amplitude=amplitude)
    return integrate_ray(lambda t: integrand(t, 0), decay, budget, osc_freq=float(osc[0]))


def _ray_transform_values(fn: TestFunction, theta: float, omegas, budget: QuadratureBudget, delta_min: float):
    """g_theta at a 1-D array of omegas in one engine pass: (values, est_errors).

    Each omega gets the value, est_error and panels of ``_ray_transform`` at that omega alone.
    """
    ind, exact = indicator_value(fn, theta)
    om = np.asarray(omegas, dtype=complex)
    integrand, rate, amplitude, osc = _ray_integrands(fn, theta, om, ind, exact, delta_min)
    if len(om):
        # InvalidDecay unless the envelope constant is valid; every rate is at least the smallest
        DecayModel(rate=float(rate.min()), amplitude=amplitude)
    values, errors, _, _ = _integrate_rays(integrand, rate, np.full(len(om), amplitude), budget, osc)
    return values, errors


def directional_transform(query: TransformQuery) -> IntegralResult:
    """g_theta(omega) by adaptive ray quadrature; OutsideDomain below delta_min margin."""
    ind, exact = indicator_value(query.fn, query.theta, query.indicator_source)
    return _ray_transform(
        query.fn, query.theta, query.omega, query.budget, ind, exact, query.delta_min
    )


@dataclass(frozen=True)
class ConcatenatedTransform:
    """Immutable bundle of an entry with its fan of half-planes on [-alpha, alpha].

    When the indicator source picks the entry's oracle the offsets come from
    it directly; otherwise they are interpolated from numeric estimates
    precomputed on a 65-point theta grid at construction, so the object stays
    immutable and cheap to query afterwards.
    """

    fn: TestFunction
    alpha: float
    min_margin: float = DELTA_MIN_DEFAULT
    _grid_thetas: Optional[tuple[float, ...]] = None
    _grid_offsets: Optional[tuple[float, ...]] = None

    @classmethod
    def build(
        cls,
        fn: TestFunction,
        alpha: float | None = None,
        indicator_source: str = "auto",
        min_margin: float = DELTA_MIN_DEFAULT,
    ) -> "ConcatenatedTransform":
        eff = min(alpha, fn.spec.alpha) if alpha is not None else fn.spec.alpha
        if not (0.0 < eff < math.pi / 2):
            raise ValueError(f"effective alpha must lie in (0, pi/2), got {eff}")
        if pick_oracle(fn, "indicator", indicator_source) is not None:
            return cls(fn=fn, alpha=eff, min_margin=min_margin)
        thetas = np.linspace(-eff, eff, 65)
        offsets = tuple(-estimate_indicator(fn, float(t)).value for t in thetas)
        return cls(
            fn=fn,
            alpha=eff,
            min_margin=min_margin,
            _grid_thetas=tuple(float(t) for t in thetas),
            _grid_offsets=offsets,
        )

    @property
    def exact(self) -> bool:
        return self._grid_thetas is None

    def offset(self, theta: float) -> float:
        if self.exact:
            return -max(self.fn.indicator_oracle(theta), INDICATOR_SENTINEL)
        return float(np.interp(theta, self._grid_thetas, self._grid_offsets))

    def margin(self, omega: complex, theta: float) -> float:
        return self.offset(theta) - (omega * cmath.exp(1j * theta)).real


def _golden_section_max(fun, lo: float, hi: float, iters: int) -> float:
    """Golden-section maximizer of ``fun`` over [lo, hi]; assumes a single peak inside."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def select_direction(ct: ConcatenatedTransform, omega: complex) -> float:
    """Direction of largest margin, via coarse scan plus golden-section refinement.

    Ties (within 1e-9 relative) break toward the smallest |theta|.  Raises
    OutsideUnion when even the best margin falls below ct.min_margin.
    """
    lo, hi = -ct.alpha, ct.alpha
    thetas = np.linspace(lo, hi, 65)
    if 0.0 not in thetas:
        thetas = np.sort(np.append(thetas, 0.0))
    margins = np.array([ct.margin(omega, float(t)) for t in thetas])
    best = float(np.max(margins))
    tol = 1e-9 * (1.0 + abs(best))
    tied = thetas[margins >= best - tol]
    theta0 = float(tied[np.argmin(np.abs(tied))])

    # golden-section refinement inside the bracketing coarse cells
    step = thetas[1] - thetas[0]
    a = max(lo, theta0 - step)
    b = min(hi, theta0 + step)
    theta_g = _golden_section_max(lambda t: ct.margin(omega, t), a, b, _GOLDEN_ITERS)
    m_g = ct.margin(omega, theta_g)
    m_0 = ct.margin(omega, theta0)

    theta_star, m_star = (theta_g, m_g) if m_g > m_0 + tol else (theta0, m_0)
    if abs(m_g - m_0) <= tol and abs(theta0) < abs(theta_g):
        theta_star, m_star = theta0, m_0
    if not m_star >= ct.min_margin:
        raise OutsideUnion(
            f"omega={omega} lies outside the union of half-planes: best margin "
            f"{m_star:.3e} at theta={theta_star:.6f} is below min_margin={ct.min_margin:.3e}"
        )
    return theta_star


def concatenated_transform(
    ct: ConcatenatedTransform, omega: complex, budget: QuadratureBudget | None = None
) -> IntegralResult:
    """g(omega) evaluated along the best direction of the fan."""
    budget = budget or QuadratureBudget()
    return _transform_along(ct, omega, select_direction(ct, omega), budget)


def _transform_along(
    ct: ConcatenatedTransform, omega: complex, theta: float, budget: QuadratureBudget
) -> IntegralResult:
    """g(omega) along the fan's direction theta, for a caller that already selected it."""
    return _ray_transform(
        ct.fn,
        theta,
        omega,
        budget,
        indicator=-ct.offset(theta),
        exact_indicator=ct.exact,
        delta_min=ct.min_margin,
    )


def consistency_residual(
    fn: TestFunction,
    theta1: float,
    theta2: float,
    omega: complex,
    budget: QuadratureBudget | None = None,
    delta_min: float = DELTA_MIN_DEFAULT,
) -> tuple[float, float]:
    """|g_theta1(w) - g_theta2(w)| on an overlap, with the combined error estimate.

    Well-definedness of the concatenation predicts a residual at quadrature
    tolerance; returns (residual, est_error_1 + est_error_2).
    """
    budget = budget or QuadratureBudget()
    r1 = directional_transform(TransformQuery(fn, theta1, omega, budget, delta_min))
    r2 = directional_transform(TransformQuery(fn, theta2, omega, budget, delta_min))
    return abs(r1.value - r2.value), r1.est_error + r2.est_error


def gamma_bound_check(
    fn: TestFunction,
    cert: GrowthCertificate,
    gamma: ContourGamma,
    samples: int = 200,
    budget: QuadratureBudget | None = None,
) -> float:
    """Worst excess of |g| over the uniform contour bound c_eps / -(h+eps+p cos(alpha)).

    Samples both legs of the contour at ``samples`` leg parameters spaced
    geometrically over [1e-2, 1e2], computing g numerically along the leg's
    natural direction (theta = -alpha on the lower leg, +alpha on the upper);
    a nonpositive return certifies the bound at every sample.
    """
    budget = budget or QuadratureBudget()
    h = type_for(fn, gamma.alpha)
    denom = h + cert.epsilon + gamma.p * math.cos(gamma.alpha)
    if not denom < 0.0:
        raise ValueError(
            f"bound requires h + epsilon + p*cos(alpha) < 0, got {denom!r}; "
            "tighten epsilon or move the apex left"
        )
    bound = -cert.c_epsilon / denom
    ts = np.geomspace(1e-2, 1e2, samples)
    worst = -math.inf
    for leg_theta, leg_dir in (
        (-gamma.alpha, gamma.lower_direction),
        (gamma.alpha, gamma.upper_direction),
    ):
        g, _ = _ray_transform_values(fn, leg_theta, gamma.p + leg_dir * ts, budget, DELTA_MIN_DEFAULT)
        worst = max(worst, float(np.max(np.abs(g))) - bound)
    return worst
