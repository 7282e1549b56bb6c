"""Adaptive Gauss-Legendre quadrature for complex integrands on segments and rays.

The scheme is fixed-order Gauss-Legendre per panel with bisection refinement.
Each panel carries a two-level error estimate |GL(halves) - GL(panel)|; the
worst panel (the older one on ties) is split until the summed estimate meets

    est_error <= rel_tol * |value| + abs_floor

or the panel budget runs out (BudgetExceeded, never silent degradation).

Panels are evaluated in batches, so integrands must accept a 1-D array of
any length.  One integrand call takes the coarse, left-half and right-half
nodes of up to _CHUNK_PANELS initial panels; one call per split takes the
four half-panels of both children.  Panel state lives in numpy arrays whose
row order is creation order.  Sums are checked for finite values before they
are used: a NaN or infinite integrand value raises IllConditioned naming the
first affected panel, instead of a NaN estimate ending refinement as if it
had converged.

Ray integrals over [0, inf) are truncated analytically: given a certified
envelope |f(t)| <= A e^{-m t}, the tail beyond T is bounded by A e^{-m T}/m
and T is chosen so that this bound is at most half of abs_floor.  The tail
bound is added to est_error, so doubling T never moves the result by more
than est_error.

When the integrand's dominant oscillation frequency is known, initial panel
lengths are capped at one period so the two-level estimate cannot alias a
rapidly rotating phase into false convergence.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetExceeded, IllConditioned, InvalidDecay

__all__ = [
    "QuadratureBudget",
    "DecayModel",
    "IntegralResult",
    "integrate_segment",
    "integrate_ray",
    "cauchy_kernel_check",
]

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# initial panels per integrand call: 3 * 64 GL panels, about 3k points at order 16
_CHUNK_PANELS = 64


def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _NODE_CACHE:
        _NODE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _NODE_CACHE[order]


@dataclass(frozen=True)
class QuadratureBudget:
    rel_tol: float = 1e-10
    abs_floor: float = 1e-12
    max_panels: int = 4000
    panel_order: int = 16

    def __post_init__(self):
        if not (self.rel_tol >= 1e-14):
            raise ValueError(f"rel_tol must be >= 1e-14 (double precision floor), got {self.rel_tol}")
        if not (self.abs_floor > 0.0 and math.isfinite(self.abs_floor)):
            raise ValueError(f"abs_floor must be positive, got {self.abs_floor}")
        if not (isinstance(self.max_panels, int) and self.max_panels >= 1):
            raise ValueError(f"max_panels must be a positive integer, got {self.max_panels}")
        if not (isinstance(self.panel_order, int) and 2 <= self.panel_order <= 64):
            raise ValueError(f"panel_order must be an integer in [2, 64], got {self.panel_order}")
        if self.max_panels * self.panel_order > 10**7:
            raise ValueError(
                f"max_panels*panel_order={self.max_panels * self.panel_order} exceeds the 1e7 evaluation guard"
            )

    def tighten(self, factor: float = 100.0) -> "QuadratureBudget":
        """Budget for nested (inner) quadratures, ``factor`` times tighter."""
        return QuadratureBudget(
            rel_tol=max(1e-14, self.rel_tol / factor),
            abs_floor=max(1e-15, self.abs_floor / factor),
            max_panels=self.max_panels,
            panel_order=self.panel_order,
        )


@dataclass(frozen=True)
class DecayModel:
    """Certified envelope |f(t)| <= amplitude * e^{-rate * t} on [0, inf)."""

    rate: float
    amplitude: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise InvalidDecay(f"ray integration requires a positive decay rate, got {self.rate}")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise InvalidDecay(f"decay amplitude must be positive, got {self.amplitude}")

    def tail_bound(self, T: float) -> float:
        return self.amplitude * math.exp(-self.rate * T) / self.rate


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    est_error: float
    truncation_T: float
    panels_used: int


def _eval_vector(fn: Callable, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(fn(pts), dtype=complex)
    if vals.shape != pts.shape:
        vals = np.broadcast_to(vals, pts.shape)
    return vals


def _gl_sums(fn, a: np.ndarray, b: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """GL sums over the intervals [a[i], b[i]] from one integrand call on all their nodes."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = (mid[:, None] + half[:, None] * x).ravel()
    return half * (_eval_vector(fn, pts).reshape(len(a), len(x)) @ w)


def _check_finite(sums: np.ndarray, a, b) -> None:
    """Raise IllConditioned unless all sums are finite; column i belongs to panel [a[i], b[i]]."""
    finite = np.isfinite(sums)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=0)))
        raise IllConditioned(
            f"non-finite integrand value on [{float(a[i])!r}, {float(b[i])!r}]; "
            "the integrand overflows or is undefined there"
        )


def _adaptive(fn, breakpoints: list[float], budget: QuadratureBudget) -> tuple[complex, float, int]:
    n = len(breakpoints) - 1
    if n > budget.max_panels:
        raise BudgetExceeded(f"initial subdivision needs {n} panels, budget allows {budget.max_panels}")
    x, w = _gl_nodes(budget.panel_order)
    # Panel k spans [lo[k], hi[k]] with half-panel sums left[k], right[k].
    # Rows are appended in creation order, so the smaller index is the older
    # panel; a split panel's err is set to -1 to retire it.  The arrays grow
    # on the first split, which most integrals never make.
    edges = np.asarray(breakpoints, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    starts, ends = np.array((lo, lo, mid)), np.array((hi, mid, hi))  # rows: whole panel, left, right half
    chunks = [slice(s, s + _CHUNK_PANELS) for s in range(0, n, _CHUNK_PANELS)]
    sums = np.concatenate(
        [_gl_sums(fn, starts[:, c].ravel(), ends[:, c].ravel(), x, w).reshape(3, -1) for c in chunks], axis=1
    )
    _check_finite(sums, lo, hi)
    coarse, left, right = sums
    err = np.abs(left + right - coarse)

    count = live = n
    total = sum((left + right).tolist())
    total_err = math.fsum(err.tolist())
    while total_err > budget.rel_tol * abs(total) + budget.abs_floor:
        if live >= budget.max_panels:
            raise BudgetExceeded(
                f"panel budget {budget.max_panels} exhausted with est_error={total_err:.3e} "
                f"(target {budget.rel_tol * abs(total) + budget.abs_floor:.3e}); "
                "the integrand is harder than the budget allows"
            )
        worst = int(np.argmax(err[:count]))  # first maximum: the oldest of equally bad panels
        if err[worst] == 0.0:
            # every remaining estimate is exactly zero yet the floor is unmet;
            # nothing further to refine
            break
        if count + 2 > len(err):
            extra = max(count, 2 * _CHUNK_PANELS)
            lo, hi, left, right, err = (
                np.concatenate((v, np.empty(extra, v.dtype))) for v in (lo, hi, left, right, err)
            )
        # the children's coarse sums are the parent's half-panel sums
        a, b, coarse0, coarse1 = lo[worst].item(), hi[worst].item(), left[worst].item(), right[worst].item()
        mid = 0.5 * (a + b)
        mid0, mid1 = 0.5 * (a + mid), 0.5 * (mid + b)
        starts, ends = np.array((a, mid, mid0, mid1)), np.array((mid0, mid1, mid, b))
        sums = _gl_sums(fn, starts, ends, x, w).reshape(2, 2)  # rows: left halves, right halves
        _check_finite(sums, (a, mid), (mid, b))
        (left0, left1), (right0, right1) = sums.tolist()
        fine0, fine1 = left0 + right0, left1 + right1
        err0, err1 = abs(fine0 - coarse0), abs(fine1 - coarse1)
        kids = slice(count, count + 2)
        lo[kids] = a, mid
        hi[kids] = mid, b
        left[kids] = left0, left1
        right[kids] = right0, right1
        err[kids] = err0, err1
        total += fine0 + fine1 - (coarse0 + coarse1)
        total_err += err0 + err1 - err[worst].item()
        err[worst] = -1.0
        count += 2
        live += 1

    keep = err[:count] >= 0.0
    fine = left[:count][keep] + right[:count][keep]
    value = complex(math.fsum(fine.real.tolist()), math.fsum(fine.imag.tolist()))
    return value, math.fsum(err[:count][keep].tolist()), live


def _cap_breakpoints(breakpoints: list[float], osc_freq: float, limit: int) -> list[float]:
    """Split intervals so no initial panel exceeds one oscillation period."""
    if osc_freq <= 0.0:
        return breakpoints
    period = 2.0 * math.pi / osc_freq
    out = [breakpoints[0]]
    for a, b in zip(breakpoints, breakpoints[1:]):
        pieces = min(max(1, math.ceil((b - a) / period)), limit)
        for k in range(1, pieces + 1):
            out.append(a + (b - a) * k / pieces)
    if len(out) - 1 > limit:
        raise BudgetExceeded(
            f"oscillation cap requires {len(out) - 1} initial panels, budget allows {limit}"
        )
    return out


def integrate_segment(
    fn: Callable,
    a: float,
    b: float,
    budget: QuadratureBudget | None = None,
    osc_freq: float = 0.0,
) -> IntegralResult:
    """Integrate a complex-valued ``fn`` (vectorized over numpy arrays) on [a, b]."""
    budget = budget or QuadratureBudget()
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"segment endpoints must be finite with a <= b, got [{a}, {b}]")
    if a == b:
        return IntegralResult(0j, 0.0, 0.0, 0)
    pts = _cap_breakpoints([a, b], osc_freq, budget.max_panels)
    value, err, used = _adaptive(fn, pts, budget)
    return IntegralResult(value, err, 0.0, used)


def _ray_breakpoints(T: float, rate: float) -> list[float]:
    """Geometric seed panels: dense near 0 where the integrand lives."""
    pts = [0.0]
    step = min(1.0 / rate, T)
    t = step
    while t < T:
        pts.append(t)
        t *= 2.0
    pts.append(T)
    return pts


def integrate_ray(
    fn: Callable,
    decay: DecayModel,
    budget: QuadratureBudget | None = None,
    osc_freq: float = 0.0,
) -> IntegralResult:
    """Integrate ``fn`` on [0, inf) given a certified exponential envelope.

    The result's est_error includes both the adaptive two-level estimate and
    the analytic tail bound at the chosen truncation point.
    """
    budget = budget or QuadratureBudget()
    m, A = decay.rate, decay.amplitude
    # A e^{-m T} / m <= abs_floor / 2
    arg = 2.0 * A / (m * budget.abs_floor)
    if arg <= 1.0:
        # the whole integral is already below half the floor
        return IntegralResult(0j, A / m, 0.0, 0)
    T = math.log(arg) / m
    pts = _cap_breakpoints(_ray_breakpoints(T, m), osc_freq, budget.max_panels)
    value, err, used = _adaptive(fn, pts, budget)
    return IntegralResult(value, err + decay.tail_bound(T), T, used)


def cauchy_kernel_check(z: complex, budget: QuadratureBudget | None = None) -> IntegralResult:
    """Residual of the kernel identity 1/z = -int_0^inf e^{w z} dw for Re z < 0.

    Returns an IntegralResult whose value is the complex residual
    1/z + int_0^inf e^{w z} dw; |value| should sit at quadrature tolerance.
    """
    z = complex(z)
    if not z.real < 0.0:
        raise InvalidDecay(f"kernel identity requires Re z < 0, got Re z = {z.real}")
    res = integrate_ray(
        lambda t: np.exp(t * z),
        DecayModel(rate=-z.real, amplitude=1.0),
        budget,
        osc_freq=abs(z.imag),
    )
    return IntegralResult(1.0 / z + res.value, res.est_error, res.truncation_T, res.panels_used)
