"""Adaptive Gauss-Legendre quadrature for complex integrands on segments and rays.

The scheme is fixed-order Gauss-Legendre per panel with bisection refinement.
Each panel carries a two-level error estimate |GL(halves) - GL(panel)|.

One engine pass computes many independent integrals.  Every seed panel has
an owner, the index of the integral it belongs to, and the engine calls its
integrand as ``fn(t, k)``: ``t`` holds the Gauss-Legendre nodes of one
interval per row and the column ``k`` the owner of each row, so one call can
hold panels of many integrals.  Seeding evaluates the coarse, left-half and
right-half nodes of up to _CHUNK_PANELS panels per call, across integral
boundaries, and sums panel values and estimates per owner.  Each integral is
then checked against its own target

    est_error <= rel_tol * |value| + abs_floor

and one that misses it is refined on its own, from the panel state seeding
left: its worst panel (the older one on ties) is split, with one call for
the four half-panels of both children, until the target is met or the panel
budget runs out (BudgetExceeded, never silent degradation).  The running
estimate is updated per split; if rounding leaves it above the target after
every panel estimate has dropped to exactly 0, no panel can usefully be
split, so refinement stops there and reports the re-summed estimate, 0.

A panel's GL sums come out the same whichever panels share its integrand
call (the matrix-vector product over two or more rows computes each row on
its own), so every integral gets the same panels, values and estimates as
when integrated alone.  Integrals are seeded
in groups of consecutive owners holding about _GROUP_PANELS seed panels,
which bounds the panel state however many integrals one pass is given; a
refined integral's state lives in numpy arrays whose row order is creation
order.  Sums are checked for finite values before they are used: a NaN or
infinite integrand value raises IllConditioned naming the first affected
panel, instead of a NaN estimate ending refinement as if it had converged.
Failures surface in owner order: the integrals before a failing one are
finished first, as if the integrals were computed one after another.
``integrate_segment`` and ``integrate_ray`` are the one-integral case, and
hand their integrands a 1-D array of points.

Ray integrals over [0, inf) are truncated analytically: given a certified
envelope |f(t)| <= A e^{-m t}, the tail beyond T is bounded by A e^{-m T}/m
and T is chosen so that this bound is at most half of abs_floor.  The tail
bound is added to est_error, so doubling T never moves the result by more
than est_error.

When the integrand's dominant oscillation frequency is known, initial panel
lengths are capped at one period so the two-level estimate cannot alias a
rapidly rotating phase into false convergence.
"""

import bisect
import itertools
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
# seed panels held at once when seeding many integrals; bounds the panel state
_GROUP_PANELS = 2048


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


def _eval_vector(fn: Callable, pts: np.ndarray, owners: np.ndarray) -> np.ndarray:
    vals = np.asarray(fn(pts, owners), dtype=complex)
    if vals.shape != pts.shape:
        vals = vals.reshape(pts.shape) if vals.size == pts.size else np.broadcast_to(vals, pts.shape)
    return vals


def _gl_sums(fn, a: np.ndarray, b: np.ndarray, owners: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """GL sums over the intervals [a[i], b[i]] of integrals owners[i], from one integrand call on all their nodes.

    The call gets the nodes as rows, one interval per row, and the owners as a column.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = _eval_vector(fn, mid[:, None] + half[:, None] * x, owners[:, None])
    with np.errstate(invalid="ignore", over="ignore"):  # callers reject non-finite sums with IllConditioned
        return half * (vals @ w)


def _check_finite(sums: np.ndarray, a, b) -> None:
    """Raise IllConditioned unless all sums are finite; column i belongs to panel [a[i], b[i]]."""
    finite = np.isfinite(sums)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=0)))
        raise IllConditioned(
            f"non-finite integrand value on [{float(a[i])!r}, {float(b[i])!r}]; "
            "the integrand overflows or is undefined there"
        )


def _refine(fn, owner, lo, hi, left, right, err, total, total_err, budget) -> tuple[complex, float, int]:
    """Split the worst panel of one integral until its estimate meets the target."""
    x, w = _gl_nodes(budget.panel_order)
    # Panel k spans [lo[k], hi[k]] with half-panel sums left[k], right[k].
    # Rows are appended in creation order, so the smaller index is the older
    # panel; a split panel's err is set to -1 to retire it.  The arrays are
    # copied on the first split, which grows them.
    count = live = len(err)
    while total_err > budget.rel_tol * abs(total) + budget.abs_floor:
        if live >= budget.max_panels:
            raise BudgetExceeded(
                f"panel budget {budget.max_panels} exhausted with est_error={total_err:.3e} "
                f"(target {budget.rel_tol * abs(total) + budget.abs_floor:.3e}); "
                "the integrand is harder than the budget allows"
            )
        worst = int(np.argmax(err[:count]))  # first maximum: the oldest of equally bad panels
        if err[worst] == 0.0:
            # every remaining estimate is exactly zero: the running total is
            # rounding residue, and no split can lower it
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
        sums = _gl_sums(fn, starts, ends, np.full(4, owner), x, w).reshape(2, 2)  # rows: left halves, right halves
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


def _adaptive(fn, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray, counts: list[int], budget: QuadratureBudget):
    """Integrals over the seed panels [lo[i], hi[i]] of owner[i]; integral j owns the next counts[j] panels.

    Returns value, est_error and panels used for each integral, in order.
    """
    x, w = _gl_nodes(budget.panel_order)
    n = len(lo)
    sums = np.empty((3, n), dtype=complex)  # rows: whole panel, left half, right half
    for s in range(0, n, _CHUNK_PANELS):
        c = slice(s, s + _CHUNK_PANELS)
        a, b, k = lo[c], hi[c], owner[c]
        mid = 0.5 * (a + b)
        sums[:, c] = _gl_sums(
            fn, np.concatenate((a, a, mid)), np.concatenate((b, mid, b)), np.concatenate((k, k, k)), x, w
        ).reshape(3, -1)
    ends = list(itertools.accumulate(counts))
    done = len(counts)
    if not np.isfinite(sums).all():
        # the integrals before the first one with a non-finite panel are finished, then it is reported
        done = bisect.bisect_right(ends, int(np.isfinite(sums).all(axis=0).argmin()))
    m = ends[done - 1] if done else 0
    coarse, left, right = sums[:, :m]
    fine = left + right
    err = np.abs(fine - coarse)
    # running totals per integral, summed in panel order as for one integral alone
    run = np.arange(done).repeat(counts[:done])
    totals = zip(np.bincount(run, fine.real, done).tolist(), np.bincount(run, fine.imag, done).tolist())

    values, errors, used = [], [], []
    fine_re, fine_im, err_list = fine.real.tolist(), fine.imag.tolist(), err.tolist()
    s = 0
    for e, (total_re, total_im) in zip(ends, totals):
        total, total_err = complex(total_re, total_im), math.fsum(err_list[s:e])
        if total_err > budget.rel_tol * abs(total) + budget.abs_floor:
            value, total_err, count = _refine(
                fn, owner[s], lo[s:e], hi[s:e], left[s:e], right[s:e], err[s:e], total, total_err, budget
            )
        else:
            value, count = complex(math.fsum(fine_re[s:e]), math.fsum(fine_im[s:e])), e - s
        values.append(value)
        errors.append(total_err)
        used.append(count)
        s = e
    if done < len(counts):
        e = ends[done]
        _check_finite(sums[:, s:e], lo[s:e], hi[s:e])
    return values, errors, used


def _integrate_seeds(fn, a, b, integral, first, owners, osc_freq, budget: QuadratureBudget):
    """Integrals of fn(t, k) over seed intervals [a[i], b[i]], interval i belonging to integral[i].

    ``integral`` is sorted and ``first[j]`` is the first interval of integral j,
    which is passed to fn as ``owners[j]``.  Where its oscillation frequency
    ``osc_freq[j]`` is positive, each of its intervals is cut into equal
    panels no longer than one period.  Returns value, est_error and panels
    used for each integral, in order.
    """
    limit = budget.max_panels
    freqs = osc_freq.tolist()
    capped = np.array([w > 0.0 for w in freqs])[integral]
    # an uncapped integral has an infinite period, and so one panel per interval
    period = np.array([2.0 * math.pi / w if w > 0.0 else math.inf for w in freqs])[integral]
    span = b - a
    pieces = np.minimum(np.maximum(np.ceil(span / period), 1.0), limit).astype(np.int64)
    counts = np.add.reduceat(pieces, first).tolist()
    stop = next((j for j, count in enumerate(counts) if count > limit), len(counts))
    # groups of consecutive integrals, each closed once it holds _GROUP_PANELS seed panels
    edges, filled = [], _GROUP_PANELS
    for j, count in enumerate(counts[:stop]):
        if filled >= _GROUP_PANELS:
            edges.append(j)
            filled = 0
        filled += count
    edges.append(stop)
    bounds = first.tolist() + [len(a)]
    values, errors, used = [], [], []
    for g0, g1 in zip(edges, edges[1:]):
        i = slice(bounds[g0], bounds[g1])
        p = pieces[i]
        # interval [a, b] is cut at a + (b - a) * k / pieces, k = 1..pieces; uncapped ones keep b exactly
        k = np.arange(1, sum(counts[g0:g1]) + 1) - (p.cumsum() - p).repeat(p)
        hi = a[i].repeat(p) + span[i].repeat(p) * k / p.repeat(p)
        if not capped[i].all():
            hi = np.where(capped[i].repeat(p), hi, b[i].repeat(p))
        lo = np.empty_like(hi)
        lo[1:] = hi[:-1]
        lo[[0, *itertools.accumulate(counts[g0 : g1 - 1])]] = a[first[g0:g1]]
        group = _adaptive(fn, lo, hi, owners[g0:g1].repeat(counts[g0:g1]), counts[g0:g1], budget)
        for out, part in zip((values, errors, used), group):
            out.extend(part)
    if stop < len(counts):
        if capped[first[stop]]:
            raise BudgetExceeded(f"oscillation cap requires {counts[stop]} initial panels, budget allows {limit}")
        raise BudgetExceeded(f"initial subdivision needs {counts[stop]} panels, budget allows {limit}")
    return values, errors, used


def _integrate_segments(fn, a: np.ndarray, b: np.ndarray, budget: QuadratureBudget, osc_freq: np.ndarray):
    """Integrals j of fn(t, j) over [a[j], b[j]] (a[j] < b[j]), each with oscillation frequency osc_freq[j].

    Returns value, est_error and panels used per integral, each as
    ``integrate_segment`` computes it alone.
    """
    j = np.arange(len(a))
    return _integrate_seeds(fn, a, b, j, j, j, osc_freq, budget)


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
    (value,), (err,), (used,) = _integrate_segments(
        lambda t, k: fn(t.ravel()), np.array([a], float), np.array([b], float), budget, np.array([osc_freq])
    )
    return IntegralResult(value, err, 0.0, used)


def _ray_breakpoints(T: list[float], rate: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Geometric seed intervals of each ray [0, T[j]], dense near 0 where the integrand lives.

    Ray j gets [0, s], [s, 2s], [2s, 4s], ... up to T[j], with s = min(1/rate[j], T[j]).
    Returns the interval ends a, b, the ray of each interval and the first interval of each ray.
    """
    step = [min(1.0 / m, T_j) for T_j, m in zip(T, rate)]
    # intervals per ray: 1 + the least d with s * 2^d >= T, exactly, from binary exponents and mantissas
    frexps = zip(map(math.frexp, T), map(math.frexp, step))
    count = np.array([e_T - e_s + (m_s < m_T) + 1 for (m_T, e_T), (m_s, e_s) in frexps])
    ends = count.cumsum()
    first = ends - count
    ray = np.arange(len(T)).repeat(count)
    b = np.ldexp(np.array(step)[ray], np.arange(ends[-1]) - first[ray])
    a = 0.5 * b
    a[first] = 0.0
    b[ends - 1] = T
    return a, b, ray, first


def _integrate_rays(fn, rate: np.ndarray, amplitude: np.ndarray, budget: QuadratureBudget, osc_freq: np.ndarray):
    """Integrals j of fn(t, j) over [0, inf), given |fn(t, j)| <= amplitude[j] e^{-rate[j] t}.

    Each envelope must be one DecayModel accepts; ``osc_freq[j]`` is the
    dominant oscillation frequency of integral j.  Returns value, est_error,
    truncation_T and panels used per integral, each as ``integrate_ray``
    computes it alone.
    """
    rates, amplitudes = rate.tolist(), amplitude.tolist()
    # A e^{-m T} / m <= abs_floor / 2, in math.log and math.exp as for one integral (numpy's
    # can differ in the last bit); where arg <= 1 the whole integral is below half the floor
    args = [2.0 * A / (m * budget.abs_floor) for m, A in zip(rates, amplitudes)]
    live = [j for j, arg in enumerate(args) if arg > 1.0]
    T_live = [math.log(args[j]) / rates[j] for j in live]
    values, errors, used = [], [], []
    if live:
        a, b, ray, first = _ray_breakpoints(T_live, [rates[j] for j in live])
        owners = np.array(live)
        values, errors, used = _integrate_seeds(fn, a, b, ray, first, owners, osc_freq[owners], budget)
    # integrals below the floor: 0, with est_error A / m and no panels
    n = len(rates)
    value, err, T, panels = [0j] * n, [A / m for m, A in zip(rates, amplitudes)], [0.0] * n, [0] * n
    for j, v, e, T_j, u in zip(live, values, errors, T_live, used):
        value[j], T[j], panels[j] = v, T_j, u
        err[j] = e + amplitudes[j] * math.exp(-rates[j] * T_j) / rates[j]  # plus the tail bound
    return np.array(value, dtype=complex), np.array(err), np.array(T), np.array(panels, dtype=np.int64)


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
    value, err, T, used = _integrate_rays(
        lambda t, k: fn(t.ravel()),
        np.array([decay.rate]),
        np.array([decay.amplitude]),
        budget,
        np.array([osc_freq]),
    )
    return IntegralResult(complex(value[0]), float(err[0]), float(T[0]), int(used[0]))


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
