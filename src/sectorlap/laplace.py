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

The fan's offsets -I(theta) and margins take a float theta or an array of
directions.  With the indicator oracle the margin is a minimum of shifted
cosines, one per point of the entry's conjugate indicator diagram D, and
peaks at one of a few directions known in closed form; otherwise -I is the
numeric estimate at the 65 directions of the fan's grid, and ``_decay_rate``
takes 10% off the decay rate, since an estimated indicator can be slightly
low.  ``select_direction`` takes the best of those directions.  Between grid
directions the offset is a chord of the estimates, which can overstate the
margin, and feeds no selection and no decay rate.

On the ray theta the kernel e^{w t e^{i theta}} turns at the known rate
Im(w e^{i theta}), and f's own phase at the rate nu(theta) = Im(a* e^{i theta}),
where a* is the point of D of largest Re(a e^{i theta}), the exponent that
dominates f along theta (``_phase_rate``; nu = 0 without a diagram, or with
an empty one).  The ray integrand is handed to the quadrature as the carrier
e^{i kappa t}, kappa = Im(w e^{i theta}) + nu, times the smooth factor

    F(t) = e^{i theta} / (2 pi i) weighted_eval(t e^{i theta}, (Re(w e^{i theta}) - i nu) e^{-i theta}),

which the engine integrates against the carrier exactly, so neither
rotation costs panels.

``_g_values`` is the one primitive that turns a batch of omegas, each with
its direction, into g, for the inversion legs, the probe scans and the
contour-bound check: it returns (values, est_errors), from the entry's
transform oracle (est_errors all 0), which it evaluates at the omegas, or
numerically, as the source picks.  A numeric batch is a single quadrature
engine pass over the ray integrals of all its omegas; the indicator and nu
are computed once per distinct direction.  The numeric path works in each
direction's rotated frame, u = omega e^{i theta} = r + i s: the margin, the
rate, F's weight (r - i nu) e^{-i theta}, the carrier s + nu and the family
key (the bits of theta and of r) all come from u.  Callers that know r
exactly hand g its rotated points: every inner omega of an inversion leg
has r = p cos alpha, and every omega of one blow-up level r = offset -
delta, so a leg or a sweep level is one family, whose F the engine
evaluates once per seed panel; the others take u = omega e^{i theta}.  Each
omega still gets the panels, value and est_error of its transform alone at
the same u, bit for bit.  An entry's ``weighted_eval(z, w)`` then receives
one omega per row of points z and must broadcast over them elementwise.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .catalog import TestFunction, _rotated, pick_oracle, type_for
from .errors import OutsideDomain, OutsideUnion
from .geometry import ContourGamma, GrowthCertificate, _check_alpha
from .indicator import INDICATOR_SENTINEL, OFFSET_CAP, _check_direction, estimate_indicator, indicator_value
from .quadrature import DecayModel, IntegralResult, QuadratureBudget, _integrate_rays, integrate_ray

__all__ = [
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


@dataclass(frozen=True)
class TransformQuery:
    """g_theta(omega) along one direction.  ``indicator`` is a (value, is_exact) pair at theta,
    such as ``indicator_value(fn, theta, source)`` returns; None takes ``indicator_value(fn, theta)``."""

    fn: TestFunction
    theta: float
    omega: complex
    budget: QuadratureBudget = QuadratureBudget()
    delta_min: float = DELTA_MIN_DEFAULT
    indicator: Optional[tuple[float, bool]] = None

    def __post_init__(self):
        _check_direction(self.theta, self.fn.spec.alpha)
        _check_delta_min(self.delta_min)


def _check_delta_min(delta_min: float) -> None:
    """ValueError unless the smallest admissible margin is positive (nan is not)."""
    if not delta_min > 0:
        raise ValueError(f"delta_min must be positive, got {delta_min}")


def _decay_rate(margin, exact_indicator: bool):
    """Decay rate of a ray integrand with this margin: 10% less when the indicator was estimated."""
    return margin if exact_indicator else _RATE_HAIRCUT * margin


def _phase_rate(fn: TestFunction, theta: float) -> float:
    """nu(theta) = Im(a e^{i theta}), a the point of the entry's diagram of largest Re(a e^{i theta}); 0 without one.

    ``_ray_integrands`` moves this rotation from F into the carrier.  Any
    value gives the same integral; this one leaves F free of f's dominant
    rotation, so that F needs few panels.
    """
    if not fn.diagram:
        return 0.0
    direction = cmath.exp(1j * theta)
    return max((a * direction for a in fn.diagram), key=lambda v: v.real).imag


def _ray_integrands(fn: TestFunction, theta, omegas, indicator, nu, exact_indicator: bool, delta_min: float, u=None):
    """The ray integrals of g_theta at a 1-D sequence of omegas, as one batch.

    ``theta``, ``indicator`` and ``nu`` are scalars or hold one value per
    omega.  ``u`` holds the rotated points omega e^{i theta} = r + i s, by
    default computed from the omegas; everything below comes from u, and
    the omegas only name the first one outside the domain.  Returns
    (integrand, rate, amplitude, freq, key): g_theta(omegas[k]) is the
    integral of integrand(t, k) e^{i freq[k] t} over [0, inf), with envelope
    amplitude * e^{-rate[k] t}, and ``key`` is the bits of r, preceded by
    those of theta when it is given per omega: the family key of
    ``_integrate_rays``, bitwise so that -0.0 and 0.0 stay apart.  Raises
    OutsideDomain for the first omega, in input order, whose margin is below
    delta_min.  ``fn.weighted_eval(z, w)`` gets an array w of the omegas
    owning the points z and must broadcast over them elementwise.
    """
    th = np.asarray(theta, dtype=float)
    n = len(omegas)
    direction = np.exp(1j * th) if th.ndim else np.array([cmath.exp(1j * theta)] * n)
    u = np.asarray(omegas, dtype=complex) * direction if u is None else np.asarray(u, dtype=complex)
    margin = np.minimum(-indicator - u.real, OFFSET_CAP)
    inside = margin >= delta_min
    if np.count_nonzero(inside) < n:
        i = int(np.argmin(inside))
        raise OutsideDomain(
            f"omega={omegas[i]} has margin {margin[i]:.3e} < delta_min={delta_min:.3e} "
            f"in Omega_theta at theta={float(th[i] if th.ndim else th)}"
        )
    rate = _decay_rate(margin, exact_indicator)
    weight = (u.real - 1j * nu) * direction.conjugate()
    prefactor = direction / (2j * math.pi)
    integrand = lambda t, k: prefactor[k] * fn.weighted_eval(t * direction[k], weight[k])
    key = (th.view(np.int64), u.real.view(np.int64)) if th.ndim else (u.real.view(np.int64),)
    return integrand, rate, fn.envelope_const / (2.0 * math.pi), u.imag + nu, key


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
    integrand, rate, amplitude, freq, _ = _ray_integrands(
        fn, theta, (omega,), indicator, _phase_rate(fn, theta), exact_indicator, delta_min
    )
    decay = DecayModel(rate=float(rate[0]), amplitude=amplitude)
    return integrate_ray(lambda t: integrand(t, 0), decay, budget, freq=float(freq[0]))


def _g_values(fn: TestFunction, theta, omegas, budget: QuadratureBudget, source: str, delta_min: float, u=None):
    """g at a 1-D sequence of omegas: (values, est_errors), from the oracle ``source`` picks or numerically.

    ``theta`` is one direction for every omega or one per omega.  The
    oracle's values, at the omegas, come with est_errors of 0.  Numeric
    values are g_theta in one engine pass at the rotated points ``u``
    (``_ray_integrands``; by default omega e^{i theta}), each omega with the
    value, est_error and panels of its one-omega pass at the same u; the
    omegas of one family share the evaluations of their smooth factor on
    the seed panels.
    """
    om = np.asarray(omegas, dtype=complex)
    oracle = pick_oracle(fn, "transform", source)
    if oracle is not None:
        return np.asarray(oracle(om), dtype=complex), np.zeros(len(om))
    th = np.asarray(theta, dtype=float)
    thetas, which = np.unique(th, return_inverse=True) if th.ndim else (th[None], 0)
    per_theta = [indicator_value(fn, t) for t in thetas.tolist()]
    indicator = np.array([value for value, _ in per_theta])[which]
    nu = np.array([_phase_rate(fn, t) for t in thetas.tolist()])[which]
    exact = all(flag for _, flag in per_theta)
    integrand, rate, amplitude, freq, key = _ray_integrands(fn, th, om, indicator, nu, exact, delta_min, u)
    values, errors, _, _ = _integrate_rays(integrand, rate, np.full(len(om), amplitude), budget, freq, key)
    return values, errors


def directional_transform(query: TransformQuery) -> IntegralResult:
    """g_theta(omega) by adaptive ray quadrature; OutsideDomain below delta_min margin."""
    ind, exact = query.indicator or indicator_value(query.fn, query.theta)
    return _ray_transform(
        query.fn, query.theta, query.omega, query.budget, ind, exact, query.delta_min
    )


@dataclass(frozen=True)
class ConcatenatedTransform:
    """Immutable bundle of an entry with its fan of half-planes on [-alpha, alpha].

    ``exact`` fans take their offsets from the entry's indicator oracle;
    the others take numeric estimates on a 65-point theta grid, which
    ``_grid`` makes in one estimate call on first use, and interpolate them
    linearly between its nodes, where no selection or decay rate looks.
    ``build`` picks ``exact`` from an indicator source.
    """

    fn: TestFunction
    alpha: float
    min_margin: float = DELTA_MIN_DEFAULT
    exact: bool = True

    def __post_init__(self):
        _check_delta_min(self.min_margin)

    @classmethod
    def build(
        cls,
        fn: TestFunction,
        alpha: float | None = None,
        indicator_source: str = "auto",
        min_margin: float = DELTA_MIN_DEFAULT,
    ) -> "ConcatenatedTransform":
        eff = fn.spec.alpha if alpha is None else min(_check_alpha(alpha), fn.spec.alpha)
        return cls(fn, eff, min_margin, pick_oracle(fn, "indicator", indicator_source) is not None)

    @cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray]:
        """A numeric fan's 65 grid directions and their estimated offsets -I(theta)."""
        thetas = np.linspace(-self.alpha, self.alpha, 65)
        return thetas, -estimate_indicator(self.fn, thetas).value

    def offset(self, theta: float | np.ndarray):
        if not self.exact:
            return np.interp(theta, *self._grid)
        floor = np.maximum if isinstance(theta, np.ndarray) else max
        return -floor(self.fn.indicator_oracle(theta), INDICATOR_SENTINEL)

    def margin(self, omega: complex, theta: float | np.ndarray):
        return self.offset(theta) - _rotated(omega, theta)


def _best_direction(ct: ConcatenatedTransform, omega: complex) -> tuple[float, float]:
    """(theta, ct.margin(omega, theta)) of largest margin over the fan's candidates, in one margin call.

    With the oracle the margin is the least of the pieces c - Re(b e^{i theta}),
    one per point a of the diagram (c = 0, b = a + omega) and the sentinel's
    floor (c = 1e9, b = omega), so it peaks at +-alpha, at a piece's top
    pi - arg b, or where two cross, -arg(b_p - b_q) +- arccos((c_p - c_q) /
    |b_p - b_q|).  A numeric fan's margin is that of an estimate only at
    its grid directions, which are its candidates.
    Margins within 1e-9 (relative above 1) of the largest tie, and ties go to
    the smallest |theta|, then to the positive theta.
    """
    omega = complex(omega)
    if ct.exact:
        b = np.array([a + omega for a in ct.fn.diagram] + [omega])
        c = np.append(np.zeros(len(b) - 1), OFFSET_CAP)
        gap = np.subtract.outer(b, b).ravel()  # each pair in both orders, which name the same crossings
        with np.errstate(divide="ignore", invalid="ignore"):  # parallel pieces give nan: no candidate
            turn = np.arccos(np.subtract.outer(c, c).ravel() / np.abs(gap))
        peaks = np.concatenate((math.pi - np.angle(b), turn - np.angle(gap), -turn - np.angle(gap)))
        peaks = np.remainder(peaks + math.pi, 2.0 * math.pi) - math.pi
        thetas = np.concatenate(([0.0, ct.alpha, -ct.alpha], peaks[np.abs(peaks) <= ct.alpha]))
    else:
        thetas = ct._grid[0]
    margins = ct.margin(omega, thetas)
    best = float(np.max(margins))
    tied = np.flatnonzero(margins >= best - 1e-9 * (1.0 + abs(best)))
    i = tied[np.lexsort((-thetas[tied], np.abs(thetas[tied])))[0]]
    return float(thetas[i]), float(margins[i])


def select_direction(ct: ConcatenatedTransform, omega: complex) -> float:
    """Direction of largest margin by ``_best_direction``: in closed form, or a numeric fan's best grid direction.

    Ties within 1e-9 relative break toward the smallest |theta|, then the
    positive theta.  Raises OutsideUnion when even the best margin falls
    below ct.min_margin.
    """
    theta, margin = _best_direction(ct, omega)
    if not margin >= ct.min_margin:
        raise OutsideUnion(
            f"omega={omega} lies outside the union of half-planes: best margin "
            f"{margin:.3e} at theta={theta:.6f} is below min_margin={ct.min_margin:.3e}"
        )
    return theta


def concatenated_transform(
    ct: ConcatenatedTransform, omega: complex, budget: QuadratureBudget | None = None
) -> IntegralResult:
    """g(omega) evaluated along the best direction of the fan."""
    budget = budget or QuadratureBudget()
    return _transform_along(ct, omega, select_direction(ct, omega), budget)


def _transform_along(
    ct: ConcatenatedTransform, omega: complex, theta: float, budget: QuadratureBudget
) -> IntegralResult:
    """g(omega) along the fan's direction theta, which ``_best_direction`` gave: a numeric fan's offset is a node's."""
    return _ray_transform(ct.fn, theta, omega, budget, -ct.offset(theta), ct.exact, ct.min_margin)


def consistency_residual(
    fn: TestFunction,
    theta1: float,
    theta2: float,
    omega: complex,
    budget: QuadratureBudget | None = None,
) -> tuple[float, float]:
    """|g_theta1(w) - g_theta2(w)| on an overlap, with the combined error estimate.

    Well-definedness of the concatenation predicts a residual at quadrature
    tolerance; returns (residual, est_error_1 + est_error_2), from one numeric
    ``_g_values`` pass that gives each value the bits of its ``directional_transform``.
    """
    _check_direction([theta1, theta2], fn.spec.alpha)
    budget = budget or QuadratureBudget()
    (g1, g2), (e1, e2) = _g_values(fn, [theta1, theta2], [omega, omega], budget, "numeric", DELTA_MIN_DEFAULT)
    return abs(g1 - g2), e1 + e2


def _leg_points(gamma: ContourGamma, t, legs) -> np.ndarray:
    """The rotated points u = omega e^{-+i alpha}, flattened, at leg parameters t on legs 0 (lower) or 1 (upper).

    In its direction's frame a leg lies on the line Re u = p cos(alpha), at
    Im u = -+(p sin(alpha) + t).
    """
    r, s = gamma.p * math.cos(gamma.alpha), gamma.p * math.sin(gamma.alpha)
    return (r + np.array([-1j, 1j])[legs] * (s + t)).ravel()


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
    natural direction (theta = -alpha on the lower leg, +alpha on the upper),
    both legs in one batch; a nonpositive return certifies the bound at every sample.
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
    thetas = np.repeat([-gamma.alpha, gamma.alpha], samples)
    omegas = np.concatenate((gamma.p + gamma.lower_direction * ts, gamma.p + gamma.upper_direction * ts))
    u = _leg_points(gamma, ts, np.array([[0], [1]]))
    g, _ = _g_values(fn, thetas, omegas, budget, "numeric", DELTA_MIN_DEFAULT, u)
    return float(np.max(np.abs(g))) - bound
