"""Adaptive Filon-Gauss-Legendre quadrature for complex integrands on segments and rays.

Every integral carries a signed carrier frequency kappa, and the engine
computes int F(t) e^{i kappa t} dt from values of the smooth factor F alone.
On a panel [m - h, m + h] the rule integrates the degree-15 Legendre
projection of F on the 16 Gauss-Legendre nodes against the carrier exactly
(Filon's rule, in the form of Iserles and Norsett, Proc. R. Soc. A 461, 2005):

    h e^{i kappa m} sum_n c_n M_n(kappa h),   c_n = (2n+1)/2 sum_j w_j P_n(x_j) F_j,

    M_n(x) = int_{-1}^{1} P_n(u) e^{i x u} du = 2 i^n j_n(x).

At kappa h = 0 this is the plain Gauss-Legendre sum, which such panels use
directly.  A panel's accuracy depends on how well a polynomial fits F, not
on how many periods of the carrier it spans, so a rapidly rotating carrier
costs no extra panels.  The moments come from a 40-point Gauss-Legendre rule
for |x| < 12 and from Rayleigh's closed form of j_n beyond.

Each panel carries a two-level error estimate |sum(halves) - sum(panel)|.

One engine pass computes many independent integrals.  Every seed panel has
an owner, the index of the integral it belongs to, and the engine calls its
integrand as ``fn(t, k)``: ``t`` holds the Gauss-Legendre nodes of one
interval per row and the column ``k`` the owner of each row, so one call can
hold panels of many integrals.  A segment's seed panel is the segment
itself; a ray's seed panels are geometric intervals (below).

Ray integrals may share their smooth factor: a family is a set of
integrals with one F, one rate and one amplitude, whose carriers alone
differ (the omegas of a ray transform with the same margin).  A family is
planned once (truncation point, tail bound, seed panels), and its first
integral owns its seed panels.  One kernel, ``_sums``, serves seeding and
refinement alike: it evaluates F on the nodes of up to 3 * _CHUNK_PANELS
panels per call, across family boundaries, projects the values once per
panel (vals @ project, vals @ weights), and lets each integral on the panel
apply its own carrier to those coefficients, the moments of kappa h and
e^{i kappa m}.  Seeding hands it the whole panels, left halves and right
halves of all seed panels; an integral that shares nothing is a family of
one.  Each integral is then checked against its own target

    est_error <= rel_tol * |value| + abs_floor

and one that misses it is refined on its own, from the panel state seeding
left and on its family's F.  Refinement keeps the integral's panels on a
heap, worst estimate first and the older panel on ties, and splits the top
one, with one ``_sums`` call for the four half-panels of both children,
until the target is met or it holds _MAX_PANELS panels (BudgetExceeded,
never silent degradation).  The running estimate is updated per split; if
rounding leaves it above the target once the top estimate is exactly 0, no
panel can usefully be split, so refinement stops there and reports the
re-summed estimate, 0.

A panel's sums come out the same whichever panels and integrals share its
integrand call and its coefficients (every integrand call holds at least
three panels, numpy's matrix products over two or more rows compute each
row on its own, and each row's moments depend on its own kappa h alone), so
every integral gets the same panels, values and estimates, bit for bit, as
when integrated alone.  A pass seeds all its integrals in one step, then
finishes them in input order: each takes its seed sums or is refined.  Sums
are checked for finite values before they are used: a NaN or infinite
integrand value raises IllConditioned naming the first affected panel,
instead of a NaN estimate ending refinement as if it had converged.
Failures surface in input order, as if the integrals were computed one
after another: seeding has evaluated every integral, but a bad seed sum or
an exhausted budget is raised only once the integrals before it are
finished.  ``integrate_segment`` and ``integrate_ray`` are the one-integral
case, and hand their integrands a 1-D array of points.

Ray integrals over [0, inf) are truncated analytically: given a certified
envelope |F(t)| <= A e^{-m t}, the tail beyond T is bounded by A e^{-m T}/m
and T is chosen so that this bound is at most half of abs_floor.  The tail
bound is added to est_error, so doubling T never moves the result by more
than est_error.  The seed panels of a ray are [0, s], [s, 2s], [2s, 4s],
... up to T with s = min(1/m, T), dense near 0 where the integrand lives;
as s * 2^d is computed up to 2T, a rate so small that 2T overflows is an
InvalidDecay.  T m = ln(2 A / (m abs_floor)) stays below about 2 200 for
finite doubles, so a ray seeds at most 13 panels.
"""

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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

# seed panels per integrand call: with their halves 3 * 64 panels, about 3k points
_CHUNK_PANELS = 64
# panels one integral may use; a ray seeds at most 13 and a segment 1, so only refinement reaches it
_MAX_PANELS = 4000
# seed columns (3 panel sums each) per carrier step, so that the steps' moments stay in cache
_CARRY_COLUMNS = 128

_ORDER = 16  # Gauss-Legendre nodes per panel
_RAYLEIGH_FROM = 12.0  # |kappa h| from which the moments take Rayleigh's closed form


class _Rule(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray
    project: np.ndarray
    near_nodes: np.ndarray
    near_cos: np.ndarray
    near_sin: np.ndarray
    far: np.ndarray


@functools.cache
def _rule() -> _Rule:
    """The panel rule's tables, built on first use, as importing numpy.polynomial takes milliseconds."""
    from numpy.polynomial.legendre import leggauss, legvander

    nodes, weights = leggauss(_ORDER)
    degrees = np.arange(_ORDER)
    i_powers = np.array([1, 1j, -1, -1j])[degrees % 4]
    # F at the nodes -> i^n c_n: the Legendre coefficients, with the moments' factor i^n folded in
    project = legvander(nodes, _ORDER - 1) * weights[:, None] * (degrees + 0.5) * i_powers
    # m_n(x) = M_n(x) / i^n = 2 j_n(x) is real.  Below |x| = _RAYLEIGH_FROM it is a 40-point
    # Gauss-Legendre sum folded by parity onto the 20 positive nodes u: cos(x u) for the even
    # degrees, sin(x u) for the odd ones.
    near_nodes, near_weights = (half[20:] for half in leggauss(40))
    near = legvander(near_nodes, _ORDER - 1) * 2.0 * near_weights[:, None] * (-1.0) ** (degrees // 2)
    # From there on, Rayleigh's closed form m_n(x) = Re(e^{ix} sum_k R[k, n] x^{-k-1}) with
    # R[k, n] = 2 (-i)^{n+1} (n+k)! / (k! (n-k)!) (i/2)^k, 0 for k > n; far holds Re R, then Im R.
    counts = np.array(
        [[math.comb(n + k, k) * math.perm(n, k) for n in range(_ORDER)] for k in range(_ORDER)], dtype=float
    )
    k, n = np.indices((_ORDER, _ORDER))
    rayleigh = 2.0 * 0.5**k * counts * i_powers[(3 * n + 3 + k) % 4]
    return _Rule(
        nodes,
        weights,
        project,
        near_nodes,
        np.where(degrees % 2 == 0, near, 0.0),
        np.where(degrees % 2 == 1, near, 0.0),
        np.concatenate((rayleigh.real, rayleigh.imag), axis=1),
    )


def _near_moments(x: np.ndarray) -> np.ndarray:
    rule = _rule()
    ux = np.multiply.outer(x, rule.near_nodes)
    return np.cos(ux) @ rule.near_cos + np.sin(ux) @ rule.near_sin


def _far_moments(x: np.ndarray) -> np.ndarray:
    rayleigh = np.cumprod(np.repeat((1.0 / x)[:, None], _ORDER, axis=1), axis=1) @ _rule().far
    return np.cos(x)[:, None] * rayleigh[:, :_ORDER] - np.sin(x)[:, None] * rayleigh[:, _ORDER:]


def _moments(x: np.ndarray) -> np.ndarray:
    """m_n(x) = 2 j_n(x) for n < 16, one row per x, so that int_{-1}^{1} P_n(u) e^{ixu} du = i^n m_n(x).

    Each row depends on its own x only, whichever rows share the call.
    """
    near = np.abs(x) < _RAYLEIGH_FROM
    count = np.count_nonzero(near)
    if count == len(x):
        return _near_moments(x)
    if not count:
        return _far_moments(x)
    if min(count, len(x) - count) < 2:
        # a one-row matrix product can round differently from the same row among others, so a lone
        # row of either kind is computed among all rows; the far form is discarded where x is near 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(near[:, None], _near_moments(x), _far_moments(x))
    moments = np.empty((len(x), _ORDER))
    moments[near] = _near_moments(x[near])
    far = ~near
    moments[far] = _far_moments(x[far])
    return moments


@dataclass(frozen=True)
class QuadratureBudget:
    rel_tol: float = 1e-10
    abs_floor: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol >= 1e-14):
            raise ValueError(f"rel_tol must be >= 1e-14 (double precision floor), got {self.rel_tol}")
        if not (self.abs_floor > 0.0 and math.isfinite(self.abs_floor)):
            raise ValueError(f"abs_floor must be positive, got {self.abs_floor}")

    def tighten(self) -> "QuadratureBudget":
        """Budget for nested (inner) quadratures, 100 times tighter."""
        return QuadratureBudget(
            rel_tol=max(1e-14, self.rel_tol / 100.0),
            abs_floor=max(1e-15, self.abs_floor / 100.0),
        )


@dataclass(frozen=True)
class DecayModel:
    """Certified envelope |f(t)| <= amplitude * e^{-rate * t} on [0, inf)."""

    rate: float
    amplitude: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise InvalidDecay(f"ray integration requires a finite positive decay rate, got {self.rate}")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise InvalidDecay(f"decay amplitude must be finite and positive, got {self.amplitude}")


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    est_error: float
    truncation_T: float
    panels_used: int


def _carry(coeffs, plain, x: np.ndarray, freq: np.ndarray, mid: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Sums of F e^{i freq t} over panels of midpoints mid and half-widths half, from F's projections.

    One panel per row: ``coeffs`` holds vals @ project and ``plain`` vals @
    weights, vals being F at the panel's nodes, and x = freq * half.  A
    panel's sum is the Filon sum where x != 0 and the plain Gauss-Legendre
    sum where x = 0; a projection is None where no panel needs it.  The
    caller ignores invalid and overflowing floating-point operations.
    """
    if coeffs is None:
        return half * plain
    filon = half * np.exp(1j * (freq * mid)) * (coeffs * _moments(x)).sum(axis=1)
    return filon if plain is None else np.where(x == 0.0, half * plain, filon)


def _sums(fn, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray, src, freq: np.ndarray) -> np.ndarray:
    """Sums of F e^{i freq[q] t} over the panels [lo[src[q]], hi[src[q]]], one per entry q.

    The one panel kernel of seeding and refinement.  F is fn with column
    owner[i] on panel [lo[i], hi[i]]; ``src`` None stands for src[q] = q.  F
    is evaluated (nodes as rows, owners as a column) and projected once per
    panel, up to 3 * _CHUNK_PANELS panels per integrand call, however many
    entries share the panel; the entries then apply their own carriers,
    3 * _CARRY_COLUMNS at a time.
    """
    rule = _rule()
    chunks = range(0, len(lo) + 3 * _CHUNK_PANELS, 3 * _CHUNK_PANELS)
    if src is None:
        cut = list(chunks)
    else:
        # the entries of the panels [chunks[i], chunks[i + 1]) are by_panel[cut[i]:cut[i + 1]]
        by_panel = np.argsort(src, kind="stable")
        cut = np.searchsorted(src[by_panel], chunks).tolist()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    sums = np.empty(len(freq), dtype=complex)
    for i, s in enumerate(chunks[:-1]):
        c = slice(s, s + 3 * _CHUNK_PANELS)
        m, h = mid[c], half[c]
        pts = m[:, None] + h[:, None] * rule.nodes
        vals = np.asarray(fn(pts, owner[c, None]), dtype=complex)
        if vals.shape != pts.shape:
            vals = vals.reshape(pts.shape) if vals.size == pts.size else np.broadcast_to(vals, pts.shape)
        coeffs = plain = None
        # with src None, a chunk's entries are its panels, one block as _CARRY_COLUMNS >= _CHUNK_PANELS
        for q in range(cut[i], cut[i + 1], 3 * _CARRY_COLUMNS):
            block, rows = slice(q, min(q + 3 * _CARRY_COLUMNS, cut[i + 1])), None
            block_mid, block_half = m, h
            if src is not None:
                block = by_panel[block]
                rows = src[block] - s  # the chunk row of each entry's panel
                block_mid, block_half = m[rows], h[rows]
            f = freq[block]
            x = f * block_half
            carried = np.count_nonzero(x)
            with np.errstate(invalid="ignore", over="ignore"):  # callers reject non-finite sums with IllConditioned
                if carried and coeffs is None:
                    coeffs = vals @ rule.project
                if carried < len(x) and plain is None:
                    plain = vals @ rule.weights
                block_coeffs = (coeffs if rows is None else coeffs[rows]) if carried else None
                block_plain = (plain if rows is None else plain[rows]) if carried < len(x) else None
                sums[block] = _carry(block_coeffs, block_plain, x, f, block_mid, block_half)
    return sums


def _seed(fn, a: np.ndarray, b: np.ndarray, owner: np.ndarray, src, freq: np.ndarray) -> np.ndarray:
    """Whole-panel, left-half and right-half sums of F e^{i freq[q] t} over the panels [a[src[q]], b[src[q]]].

    F is as in ``_sums``, on the seed panels [a[i], b[i]]; returns three rows of one column q each.
    """
    n, mid = len(a), 0.5 * (a + b)
    src = None if src is None else np.concatenate((src, src + n, src + 2 * n))
    lo, hi = np.concatenate((a, a, mid)), np.concatenate((b, mid, b))
    return _sums(fn, lo, hi, np.concatenate((owner,) * 3), src, np.concatenate((freq,) * 3)).reshape(3, -1)


def _check_finite(sums: np.ndarray, a, b) -> None:
    """Raise IllConditioned unless all sums are finite; column i belongs to panel [a[i], b[i]]."""
    finite = np.isfinite(sums)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=0)))
        raise IllConditioned(
            f"non-finite integrand value on [{float(a[i])!r}, {float(b[i])!r}]; "
            "the integrand overflows or is undefined there"
        )


def _refine(fn, owner, freq, lo, hi, left, right, err, total, total_err, budget) -> tuple[complex, float, int]:
    """Split the worst panel of one integral, of carrier frequency freq, until its estimate meets the target.

    Panel k spans [lo[k], hi[k]] with half-panel sums left[k], right[k] and
    estimate err[k].  The panels live on a heap of (-err, creation index, lo,
    hi, left, right), so the worst pops first and the older one on ties; a
    split gets the four half-panels of both children from one ``_sums`` call.
    """
    heap = list(zip((-err).tolist(), itertools.count(), lo.tolist(), hi.tolist(), left.tolist(), right.tolist()))
    heapq.heapify(heap)
    age = itertools.count(len(heap))
    while total_err > budget.rel_tol * abs(total) + budget.abs_floor:
        if len(heap) >= _MAX_PANELS:
            raise BudgetExceeded(
                f"panel budget {_MAX_PANELS} exhausted with est_error={total_err:.3e} "
                f"(target {budget.rel_tol * abs(total) + budget.abs_floor:.3e}); "
                "the integrand is harder than the budget allows"
            )
        if heap[0][0] == 0.0:
            # every estimate is exactly zero: the running total is rounding residue no split can lower
            break
        # the children's coarse sums are the parent's half-panel sums
        key, _, a, b, coarse0, coarse1 = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        mid0, mid1 = 0.5 * (a + mid), 0.5 * (mid + b)
        # rows: left halves, right halves
        starts, ends = np.array((a, mid, mid0, mid1)), np.array((mid0, mid1, mid, b))
        sums = _sums(fn, starts, ends, np.full(4, owner), None, np.full(4, freq)).reshape(2, 2)
        _check_finite(sums, (a, mid), (mid, b))
        (left0, left1), (right0, right1) = sums.tolist()
        fine0, fine1 = left0 + right0, left1 + right1
        err0, err1 = abs(fine0 - coarse0), abs(fine1 - coarse1)
        heapq.heappush(heap, (-err0, next(age), a, mid, left0, right0))
        heapq.heappush(heap, (-err1, next(age), mid, b, left1, right1))
        total += fine0 + fine1 - (coarse0 + coarse1)
        total_err += err0 + err1 + key  # key = -err of the split panel; adding it rounds as subtracting err

    fine = [p[4] + p[5] for p in heap]
    value = complex(math.fsum(v.real for v in fine), math.fsum(v.imag for v in fine))
    return value, math.fsum(-p[0] for p in heap), len(heap)


def _integrate_seeds(fn, a, b, first: list, owners: np.ndarray, family: list, freq: np.ndarray, budget):
    """Integrals j of fn(t, owners[f]) e^{i freq[j] t} over the seed panels of their family f = family[j].

    Family f's seed panels are [a[i], b[i]] for first[f] <= i < first[f + 1];
    ``first`` is increasing, and families are numbered in the order of
    their first integral.  Every integral is seeded in one step; then each,
    in input order, raises IllConditioned for a non-finite seed sum, takes
    its seed sums or is refined.  Returns value, est_error and panels used
    for each integral, in order.
    """
    bounds = [*first, len(a)]
    counts = [bounds[f + 1] - bounds[f] for f in family]
    ends = list(itertools.accumulate(counts))
    starts = [q - count for q, count in zip(ends, counts)]
    # column q of the sums is panel q - starts[j] of integral j, family panel src[q]; with one integral
    # per family, the columns are the family panels themselves
    src = None
    if len(family) != len(first):
        src = np.arange(ends[-1]) + np.repeat([bounds[f] - p for f, p in zip(family, starts)], counts)
    owner = owners.repeat(counts if src is None else np.diff(bounds))
    sums = _seed(fn, a, b, owner, src, freq.repeat(counts))
    finite = None if np.isfinite(sums).all() else np.isfinite(sums).all(axis=0)
    coarse, left, right = sums if finite is None else np.where(finite, sums, 0.0)
    fine = left + right
    err = np.abs(fine - coarse)
    # running totals per integral, each summed over its own panels alone
    totals = np.add.reduceat(fine, starts).tolist()
    fine_re, fine_im, err_list = fine.real.tolist(), fine.imag.tolist(), err.tolist()
    ok = [True] * len(family) if finite is None else np.logical_and.reduceat(finite, starts).tolist()

    values, errors, used = [], [], []
    for j, (p, q, total) in enumerate(zip(starts, ends, totals)):
        total_err = math.fsum(err_list[p:q])
        if ok[j] and total_err <= budget.rel_tol * abs(total) + budget.abs_floor:
            result = complex(math.fsum(fine_re[p:q]), math.fsum(fine_im[p:q])), total_err, q - p
        else:
            f = family[j]
            lo, hi = a[bounds[f] : bounds[f + 1]], b[bounds[f] : bounds[f + 1]]
            if not ok[j]:
                _check_finite(sums[:, p:q], lo, hi)
            result = _refine(fn, owners[f], freq[j], lo, hi, left[p:q], right[p:q], err[p:q], total, total_err, budget)
        for out, x in zip((values, errors, used), result):
            out.append(x)
    return values, errors, used


def _integrate_segments(fn, a: np.ndarray, b: np.ndarray, budget: QuadratureBudget, freq: np.ndarray):
    """Integrals j of fn(t, j) e^{i freq[j] t} over [a[j], b[j]] (a[j] < b[j]).

    Returns value, est_error and panels used per integral, each as
    ``integrate_segment`` computes it alone.
    """
    j = list(range(len(a)))
    return _integrate_seeds(fn, a, b, j, np.arange(len(a)), j, freq, budget)


def integrate_segment(
    fn: Callable,
    a: float,
    b: float,
    budget: QuadratureBudget | None = None,
    freq: float = 0.0,
) -> IntegralResult:
    """Integrate fn(t) e^{i freq t} on [a, b]; ``fn`` is complex-valued and vectorized over numpy arrays."""
    budget = budget or QuadratureBudget()
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"segment endpoints must be finite with a <= b, got [{a}, {b}]")
    if a == b:
        return IntegralResult(0j, 0.0, 0.0, 0)
    (value,), (err,), (used,) = _integrate_segments(
        lambda t, k: fn(t.ravel()), np.array([a], float), np.array([b], float), budget, np.array([freq])
    )
    return IntegralResult(value, err, 0.0, used)


def _ray_breakpoints(T: list[float], rate: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric seed intervals of each ray [0, T[j]], dense near 0 where the integrand lives.

    Ray j gets [0, s], [s, 2s], [2s, 4s], ... up to T[j], with s = min(1/rate[j], T[j]).
    Returns the interval ends a, b and the first interval of each ray.
    """
    step = [min(1.0 / m, T_j) for T_j, m in zip(T, rate)]
    # intervals per ray: 1 + the least d with s * 2^d >= T, exactly, from binary exponents and mantissas
    frexps = zip(map(math.frexp, T), map(math.frexp, step))
    count = np.array([e_T - e_s + (m_s < m_T) + 1 for (m_T, e_T), (m_s, e_s) in frexps])
    ends = count.cumsum()
    first = ends - count
    b = np.ldexp(np.array(step).repeat(count), np.arange(ends[-1]) - first.repeat(count))
    a = 0.5 * b
    a[first] = 0.0
    b[ends - 1] = T
    return a, b, first


def _integrate_rays(
    fn, rate: np.ndarray, amplitude: np.ndarray, budget: QuadratureBudget, freq: np.ndarray, shares=None
):
    """Integrals j of fn(t, j) e^{i freq[j] t} over [0, inf), given |fn(t, j)| <= amplitude[j] e^{-rate[j] t}.

    ``shares[j]`` is the integral whose smooth factor integral j shares (j
    itself by default): fn(t, shares[j]) = fn(t, j) for every t.  The shared
    integral comes first and shares its own, and its sharers have its rate
    and amplitude, else ValueError.  Such a family of integrals is planned,
    and its F evaluated on its seed panels, once: fn is called with the
    family's first integral as the owner.

    Validates every envelope first: for the first integral, in input order,
    whose rate or amplitude is not finite and positive, raises InvalidDecay
    with DecayModel's message.  Then every truncation point: InvalidDecay
    for the first rate so small that 2T overflows.  Returns value,
    est_error, truncation_T and panels used per integral, each as
    ``integrate_ray`` computes it alone.
    """
    n = len(rate)
    rates, amplitudes = rate.tolist(), amplitude.tolist()
    for m, A in zip(rates, amplitudes):
        if not (0.0 < m < math.inf and 0.0 < A < math.inf):
            DecayModel(rate=m, amplitude=A)  # raises InvalidDecay
    if shares is None:
        leaders = family = range(n)
    else:
        shares, index = np.asarray(shares), np.arange(n)
        if not (np.all((shares >= 0) & (shares <= index)) and np.array_equal(shares[shares], shares)):
            raise ValueError("an integral must share the smooth factor of itself or of an earlier one sharing its own")
        if not (np.array_equal(rate[shares], rate) and np.array_equal(amplitude[shares], amplitude)):
            raise ValueError("integrals that share a smooth factor must have the same rate and amplitude")
        leaders = np.flatnonzero(shares == index)
        family = np.searchsorted(leaders, shares).tolist()
        leaders = leaders.tolist()
        rates, amplitudes = [rates[j] for j in leaders], [amplitudes[j] for j in leaders]
    # per family, A e^{-m T} / m <= abs_floor / 2, in math.log and math.exp as for one integral (numpy's can
    # differ in the last bit).  Where arg <= 1 the whole integral is below half the floor: value 0, with
    # est_error A / m and no panels; the others add their tail bound to est_error.
    T, bound, live = [0.0] * len(rates), [A / m for m, A in zip(rates, amplitudes)], []
    for f, (m, A) in enumerate(zip(rates, amplitudes)):
        arg = 2.0 * A / d if (d := m * budget.abs_floor) > 0.0 else math.inf
        if arg > 1.0:
            # where the quotient overflows (a huge A), its logarithm term by term
            T[f] = (math.log(arg) if arg < math.inf else
                    math.log(2.0) + math.log(A) - math.log(m) - math.log(budget.abs_floor)) / m
            if not 2.0 * T[f] < math.inf:  # the seed intervals reach up to 2T
                raise InvalidDecay(f"decay rate {m!r} is too small: the truncation point T overflows")
            bound[f] = A * math.exp(-m * T[f]) / m
            live.append(f)
    value, err, panels = [0j] * n, [bound[f] for f in family], [0] * n
    if live:
        a, b, first = _ray_breakpoints([T[f] for f in live], [rates[f] for f in live])
        renumber = dict(zip(live, itertools.count()))
        mine = [j for j, f in enumerate(family) if f in renumber]
        values, errors, used = _integrate_seeds(
            fn,
            a,
            b,
            first.tolist(),
            np.array([leaders[f] for f in live]),
            [renumber[family[j]] for j in mine],
            freq if len(mine) == n else freq[mine],
            budget,
        )
        for j, v, e, u in zip(mine, values, errors, used):
            value[j], err[j], panels[j] = v, e + err[j], u
    return (
        np.array(value, dtype=complex),
        np.array(err),
        np.array([T[f] for f in family]),
        np.array(panels, dtype=np.int64),
    )


def integrate_ray(
    fn: Callable,
    decay: DecayModel,
    budget: QuadratureBudget | None = None,
    freq: float = 0.0,
) -> IntegralResult:
    """Integrate fn(t) e^{i freq t} on [0, inf) given a certified envelope |fn(t)| <= decay's.

    The result's est_error includes both the adaptive two-level estimate and
    the analytic tail bound at the chosen truncation point.
    """
    budget = budget or QuadratureBudget()
    value, err, T, used = _integrate_rays(
        lambda t, k: fn(t.ravel()),
        np.array([decay.rate]),
        np.array([decay.amplitude]),
        budget,
        np.array([freq]),
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
    res = integrate_ray(lambda t: np.exp(t * z.real), DecayModel(rate=-z.real, amplitude=1.0), budget, freq=z.imag)
    return IntegralResult(1.0 / z + res.value, res.est_error, res.truncation_T, res.panels_used)
