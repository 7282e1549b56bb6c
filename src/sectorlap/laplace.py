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
directions, which ``select_direction`` scans in one call.  They come from the
indicator oracle when one exists; otherwise from the numeric estimate, and
``_decay_rate`` then takes 10% off the decay rate, since an estimated
indicator can be slightly low.

On the ray theta the kernel e^{w t e^{i theta}} turns at the known rate
Im(w e^{i theta}), and f's own phase at the rate nu(theta) = -Im(s* e^{i theta}),
where s* is the singularity of g with the least Re(s e^{i theta}): -s* is
the exponent that dominates f along theta, the point of Polya's conjugate
indicator diagram that supports theta (``_phase_rate``; nu = 0 for an entry
without known singularities, or with none).  The ray integrand is handed to
the quadrature as the carrier e^{i kappa t}, kappa = Im(w e^{i theta}) + nu,
times the smooth factor

    F(t) = e^{i theta} / (2 pi i) weighted_eval(t e^{i theta}, (Re(w e^{i theta}) - i nu) e^{-i theta}),

which the engine integrates against the carrier exactly, so neither
rotation costs panels.

``_g_values`` is the one primitive that turns a batch of omegas, each with
its direction, into g, for the inversion legs, the probe scans and the
contour-bound check: it returns (values, est_errors), from the entry's
transform oracle (est_errors all 0) or numerically, as the source picks.  A
numeric batch is a single quadrature engine pass over the ray integrals of
all its omegas; the indicator and nu are computed once per distinct
direction.  Omegas of one direction whose Re(w e^{i theta}) are the same
float have the same margin, rate and F, and only their carriers differ:
``_families`` groups them, and the engine evaluates each family's F once
per seed panel.  On an inversion leg or a constant-margin sweep, rounding
leaves a few dozen such families among hundreds of omegas.  Each omega
still gets the panels, value and est_error of its transform alone, bit for
bit.  An entry's ``weighted_eval(z, w)`` then receives one omega per row of
points z and must broadcast over them elementwise.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .catalog import TestFunction, _rotated, pick_oracle, type_for
from .errors import OutsideDomain, OutsideUnion
from .geometry import ContourGamma, GrowthCertificate
from .indicator import INDICATOR_SENTINEL, OFFSET_CAP, estimate_indicator, indicator_value
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
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TransformQuery:
    """g_theta(omega) along one direction.  ``indicator`` is the (value, is_exact) pair
    ``indicator_value`` returns at theta for ``indicator_source``, looked up when None."""

    fn: TestFunction
    theta: float
    omega: complex
    budget: QuadratureBudget = QuadratureBudget()
    delta_min: float = DELTA_MIN_DEFAULT
    indicator_source: str = "auto"
    indicator: Optional[tuple[float, bool]] = None

    def __post_init__(self):
        _check_direction(self.fn, self.theta)
        if not self.delta_min > 0:
            raise ValueError(f"delta_min must be positive, got {self.delta_min}")


def _check_direction(fn: TestFunction, theta: float) -> None:
    """ValueError unless theta lies in the entry's closed sector (up to 1e-12)."""
    if not abs(theta) <= fn.spec.alpha + 1e-12:
        raise ValueError(f"theta={theta} outside the entry's sector |theta| <= {fn.spec.alpha}")


def _decay_rate(margin, exact_indicator: bool):
    """Decay rate of a ray integrand with this margin: 10% less when the indicator was estimated."""
    return margin if exact_indicator else _RATE_HAIRCUT * margin


def _phase_rate(fn: TestFunction, theta: float) -> float:
    """nu(theta) = -Im(s e^{i theta}), s the singularity of g of least Re(s e^{i theta}); 0 without one.

    ``_ray_integrands`` moves this rotation from F into the carrier.  Any
    value gives the same integral; this one leaves F free of f's dominant
    rotation, so that F needs few panels.
    """
    if not fn.singularities_of_g:
        return 0.0
    direction = cmath.exp(1j * theta)
    return -min((s * direction for s in fn.singularities_of_g), key=lambda v: v.real).imag


def _ray_integrands(fn: TestFunction, theta, omegas, indicator, nu, exact_indicator: bool, delta_min: float):
    """The ray integrals of g_theta at a 1-D sequence of omegas, as one batch.

    ``theta``, ``indicator`` and ``nu`` are scalars or hold one value per
    omega.  Returns (integrand, rate, amplitude, freq, shares):
    g_theta(omegas[k]) is the integral of integrand(t, k) e^{i freq[k] t}
    over [0, inf), with envelope amplitude * e^{-rate[k] t}, and
    integrand(t, shares[k]) = integrand(t, k) (shares is None when no two
    omegas share it; see ``_families``).  Raises OutsideDomain for the first
    omega, in input order, whose margin is below delta_min.
    ``fn.weighted_eval(z, w)`` gets an array w of the omegas owning the
    points z and must broadcast over them elementwise.
    """
    om = np.asarray(omegas, dtype=complex)
    th = np.asarray(theta, dtype=float)
    direction = np.exp(1j * th) if th.ndim else np.array([cmath.exp(1j * theta)] * len(om))
    proj = om * direction
    margin = np.minimum(-indicator - proj.real, OFFSET_CAP)
    inside = margin >= delta_min
    if np.count_nonzero(inside) < len(om):
        i = int(np.argmin(inside))
        raise OutsideDomain(
            f"omega={omegas[i]} has margin {margin[i]:.3e} < delta_min={delta_min:.3e} "
            f"in Omega_theta at theta={float(th[i] if th.ndim else th)}"
        )
    rate = _decay_rate(margin, exact_indicator)
    weight = (proj.real - 1j * nu) * direction.conjugate()
    prefactor = direction / (2j * math.pi)
    integrand = lambda t, k: prefactor[k] * fn.weighted_eval(t * direction[k], weight[k])
    return integrand, rate, fn.envelope_const / (2.0 * math.pi), proj.imag + nu, _families(th, proj.real)


def _families(theta, re):
    """For each omega, the first omega with its direction and the same bits of Re(omega e^{i theta}) ``re``.

    Such omegas have the same margin, rate, nu and smooth factor F; only
    their carriers differ.  ``theta`` is one direction or one per omega.
    None for a single omega, or when every omega is alone in its family.
    """
    if len(re) < 2:
        return None
    bits = re.view(np.int64)  # bitwise equality: -0.0 and 0.0 stay apart
    order = np.argsort(bits, kind="stable") if not theta.ndim else np.lexsort((bits, theta.view(np.int64)))
    new = np.empty(len(re), dtype=bool)
    new[0] = True
    new[1:] = bits[order[1:]] != bits[order[:-1]]
    if theta.ndim:
        new[1:] |= theta[order[1:]] != theta[order[:-1]]
    if new.all():
        return None
    # a stable sort keeps each family in input order, so its first element is its first omega
    shares = np.empty(len(re), dtype=np.intp)
    shares[order] = order[new][np.cumsum(new) - 1]
    return shares


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


def _g_values(fn: TestFunction, theta, omegas, budget: QuadratureBudget, source: str, delta_min: float):
    """g at a 1-D sequence of omegas: (values, est_errors), from the oracle ``source`` picks or numerically.

    ``theta`` is one direction for every omega or one per omega.  The
    oracle's values come with est_errors of 0.  Numeric values are g_theta in
    one engine pass, each omega with the value, est_error and panels of
    ``_ray_transform`` at that omega alone; the omegas of one family
    (``_families``) share the evaluations of their smooth factor.
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
    integrand, rate, amplitude, freq, shares = _ray_integrands(fn, th, om, indicator, nu, exact, delta_min)
    values, errors, _, _ = _integrate_rays(integrand, rate, np.full(len(om), amplitude), budget, freq, shares)
    return values, errors


def directional_transform(query: TransformQuery) -> IntegralResult:
    """g_theta(omega) by adaptive ray quadrature; OutsideDomain below delta_min margin."""
    ind, exact = query.indicator or indicator_value(query.fn, query.theta, query.indicator_source)
    return _ray_transform(
        query.fn, query.theta, query.omega, query.budget, ind, exact, query.delta_min
    )


@dataclass(frozen=True)
class ConcatenatedTransform:
    """Immutable bundle of an entry with its fan of half-planes on [-alpha, alpha].

    When the indicator source picks the entry's oracle the offsets come from
    it directly; otherwise they are interpolated from numeric estimates
    precomputed on a 65-point theta grid at construction (one estimate call),
    so the object stays immutable and cheap to query afterwards.
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
        return cls(
            fn=fn,
            alpha=eff,
            min_margin=min_margin,
            _grid_thetas=tuple(thetas.tolist()),
            _grid_offsets=tuple((-estimate_indicator(fn, thetas).value).tolist()),
        )

    @property
    def exact(self) -> bool:
        return self._grid_thetas is None

    @cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The numeric grid as float arrays, built once: np.interp would convert the tuples on every call."""
        return np.array(self._grid_thetas), np.array(self._grid_offsets)

    def offset(self, theta: float | np.ndarray):
        if not self.exact:
            return np.interp(theta, *self._grid)
        floor = np.maximum if isinstance(theta, np.ndarray) else max
        return -floor(self.fn.indicator_oracle(theta), INDICATOR_SENTINEL)

    def margin(self, omega: complex, theta: float | np.ndarray):
        return self.offset(theta) - _rotated(omega, theta)


def _maximize(fun, lo: float, hi: float, tol: float, start=None) -> tuple[float, float]:
    """Brent's maximizer of ``fun`` over [lo, hi], one peak inside: (x, fun(x)), x the first best point evaluated.

    Parabolic steps through the three best points, with Brent's golden-section
    fallback (*Algorithms for Minimization without Derivatives*, 1973, ch. 5).
    It stops once the whole bracket lies within ``tol`` > 0 of x, so x is
    within ``tol`` of the peak.  No step is shorter than max(tol / 2, eps |x|),
    so a ``tol`` below rounding ends within a few ulps of x.  ``start`` is an
    optional known point (x, fun(x), fun(lo), fun(hi)) with lo < x < hi and
    fun(x) >= fun(lo), fun(hi), such as the argmax of a coarse grid between
    its neighbours: the first step is then the parabola through the three.
    """
    # Brent's minimization of -fun
    a, b = lo, hi
    if start is None:
        x = w = v = a + _GOLDEN * (b - a)
        fx = fw = fv = -fun(x)
        d = e = 0.0
    else:
        x, fx, fw, fv = start[0], -start[1], -start[2], -start[3]
        w, v = lo, hi
        if fv < fw:
            w, v, fw, fv = v, w, fv, fw
        d = e = b - a  # earlier steps as wide as the bracket admit the first parabola
    while True:
        m = 0.5 * (a + b)
        tol1 = max(0.5 * tol, _EPS * abs(x))
        tol2 = 2.0 * tol1
        if max(x - a, b - x) <= tol2:
            return x, -fx
        p = q = r = 0.0
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            u = x + d
            if u - a < tol2 or b - u < tol2:
                d = tol1 if x < m else -tol1
        else:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = -fun(u)
        if fu < fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def select_direction(ct: ConcatenatedTransform, omega: complex) -> float:
    """Direction of largest margin, via a coarse scan refined by Brent's method (``_maximize``).

    With the oracle indicator the refinement searches between the best scan
    point's neighbours, starting from the scan's three values when the best
    point tops both.  A numeric indicator's offset is interpolated linearly
    between the scan points, so the margin can bulge above the best point in
    either cell beside it: each cell is searched on its own and the larger
    peak kept, the one of smaller |theta| on ties.  The searches stop once
    the bracket lies within step * sqrt(eps) of its best point, step being
    the coarse spacing: rounding locates a smooth peak of that width no
    better.  The scan's best point stays unless a peak beats it by more than
    1e-9 relative, and ties among scan points break toward the smallest
    |theta|.  Raises OutsideUnion when even the best margin falls below
    ct.min_margin.
    """
    thetas = np.linspace(-ct.alpha, ct.alpha, 65)
    if 0.0 not in thetas:
        thetas = np.sort(np.append(thetas, 0.0))
    margins = ct.margin(omega, thetas)
    best = float(np.max(margins))
    tol = 1e-9 * (1.0 + abs(best))
    tied = np.flatnonzero(margins >= best - tol)
    i = int(tied[np.argmin(np.abs(thetas[tied]))])
    theta0, m_0 = float(thetas[i]), float(margins[i])

    if ct.exact:
        # Brent refinement inside the bracketing coarse cells, warm from the scan where theta0 is their peak
        a, b = max(i - 1, 0), min(i + 1, len(thetas) - 1)
        start = (theta0, m_0, margins[a], margins[b]) if a < i < b and m_0 >= max(margins[a], margins[b]) else None
        cells = [(a, b, start)]
    else:
        # the scan's points hold the numeric grid's, so on a cell the margin is linear minus Re(omega e^{i theta}),
        # which bends it by at most |omega|: falling by s per unit away from theta0, a cell of width h rises above
        # m_0 by at most (|omega| h / 2 - s)^2 / (2 |omega|), and only a cell where that exceeds tol is searched
        cells = []
        for c, far in ((i - 1, i - 1), (i, i + 1)):
            if 0 <= c < len(thetas) - 1:
                h = thetas[c + 1] - thetas[c]
                slack = max(0.0, abs(omega) * h / 2 - (m_0 - margins[far]) / h)
                if slack * slack > 2 * abs(omega) * tol:
                    cells.append((c, c + 1, None))
    step = thetas[1] - thetas[0]
    theta_g, m_g = theta0, -math.inf
    for a, b, start in cells:
        theta_c, m_c = _maximize(
            lambda t: ct.margin(omega, t), float(thetas[a]), float(thetas[b]), step * math.sqrt(_EPS), start
        )
        if m_c > m_g + tol or (m_c >= m_g - tol and abs(theta_c) < abs(theta_g)):
            theta_g, m_g = theta_c, m_c
    theta_star, m_star = (theta_g, m_g) if m_g > m_0 + tol else (theta0, m_0)
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
) -> tuple[float, float]:
    """|g_theta1(w) - g_theta2(w)| on an overlap, with the combined error estimate.

    Well-definedness of the concatenation predicts a residual at quadrature
    tolerance; returns (residual, est_error_1 + est_error_2).
    """
    budget = budget or QuadratureBudget()
    r1 = directional_transform(TransformQuery(fn, theta1, omega, budget))
    r2 = directional_transform(TransformQuery(fn, theta2, omega, budget))
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
    g, _ = _g_values(fn, thetas, omegas, budget, "numeric", DELTA_MIN_DEFAULT)
    return float(np.max(np.abs(g))) - bound
