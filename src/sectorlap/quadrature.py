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
costs no extra panels.  For |x| < 24 the moments are degree-15 Taylor
series in x - c about the nearest integer c, from a 49 x 16 x 16 table of
their derivatives at c = -24..24.  From 24 on they follow the forward
recurrence m_{n+1} = (2n+1) m_n / x - m_{n-1} of m_n = M_n / i^n from
m_0 = 2 sin(x) / x and m_1 = (m_0 - 2 cos(x)) / x, which is stable for
n < |x| (Gautschi, SIAM Review 9, 1967).

A panel is carried as m and h, its halves as m -+ h/2 with half-width h/2
exactly, and it has a two-level error estimate |sum(halves) - sum(panel)|.

One engine pass computes many independent integrals.  Every seed panel has
an owner, the index of the integral it belongs to, and the engine calls its
integrand as ``fn(t, k)``: ``t`` holds the Gauss-Legendre nodes of one
interval per row and the column ``k`` the owner of each row, so one call can
hold panels of many integrals.  A segment's seed panel is the segment
itself; a ray's seed panels are geometric intervals (below).  A family is a
set of ray integrals with one F, one rate and one amplitude, whose carriers
alone differ (the omegas of a ray transform with the same margin), named by
equal keys (``_integrate_rays``); it is planned once (truncation point, tail
bound, seed panels), and its first integral owns its seed panels.

One kernel, ``_sums``, serves seeding (the whole panels, left halves and
right halves of all seed panels) and refinement.  It evaluates F on up to
3 * _CHUNK_PANELS panels per integrand call, across family boundaries, and
projects every panel of the call once (vals @ project, vals @ weights) as
the call returns.  Then each entry, one integral on one panel, applies its
carrier: the dot product of the panel's coefficients with the moments of
its kappa h, times h e^{i kappa m}, in input order.  The moments are
computed once per distinct kappa h of a call, split into near and far rows
once, for the rows that ``_seed_rows`` finds from the panels' structure: as
a ray's seed panels double in width, an integral of d seed panels takes
d + 1 rows, not 3d.  Each integral is then checked against its own target

    est_error <= rel_tol * |value| + abs_floor

and those that miss it are refined from the panel state seeding left, each
on its family's F.  Every integral keeps its panels on its own heap, worst
estimate first and the older panel on ties.  Refinement goes in rounds:
each round pops the top panel of every integral still above its target and
computes the four half-panels of both children of all of them, of one
width per split and so of one moment row, in one ``_sums`` call; integrals
of one family that split the same panel evaluate F on it once.  An
integral's running value and estimate are updated per split as if it were
refined alone, until its target is met or it holds _MAX_PANELS panels
(BudgetExceeded, naming the integral and its worst panel: never silent
degradation).  If rounding leaves the estimate above the target once the
top estimate is exactly 0, no panel can usefully be split, so refinement
stops there and reports the re-summed estimate, 0.

A panel's sums come out the same whichever panels and integrals share its
integrand call (every call holds at least three panels, numpy's matrix
products over two or more rows compute each row on its own, each moment
row depends on its own kappa h alone, and each entry's dot product is its
own), so every integral gets the same panels, values and estimates, bit for
bit, as when integrated alone.  A pass seeds all its integrals in one step;
those that meet their target take their plain seed sums, and the sums'
rounding bound n eps sum |panel sum| over their n panels is added to
est_error after the check; the others are refined.  A NaN or infinite seed
or refinement sum is an IllConditioned failure naming the first affected
panel, instead of a NaN estimate ending refinement as if it had converged;
so are seed sums that are all exactly 0 where F at the start is not
negligible, as F then underflows at every node (``_check_blank``).  Each
integral's failure is recorded, and the integrals after a failed one are
refined no further; after the rounds, in input order, the blank checks run
and the first failure is raised, as if the integrals were computed one
after another.  One exception surfaces otherwise: an exception raised by
the integrand itself propagates from the round it is raised in, possibly
ahead of an earlier integral's failure in a later round.
``integrate_segment`` and ``integrate_ray`` are the one-integral case, and
hand their integrands a 1-D array of points.

The carrier step works in memory kept from one ``_sums`` call to the next,
one set per thread (``_WorkMemory``): the moment rows of a call, grown to
the most rows any call has had, and, for one block of 3 * _CARRY_COLUMNS
rows or entries, the gathered Taylor tables, the near rows and the
entries' dot products and phases.  Allocated anew in every call, these
arrays (the Taylor tables alone take 768 KB) would go back to the system
after each call and be faulted in again by the next.  F may itself run a
quadrature (a numeric g inside an inversion) whose ``_sums`` calls use the
same memory, so a call touches it only after its last integrand call, and
allocates what it returns afresh.

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

import cmath
import functools
import heapq
import itertools
import math
import threading
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
# 3 * 128 near moment rows per stacked product, and entries per block of carrier dot products: a near row
# gathers a 16 x 16 Taylor table and an entry its panel's coefficients and its row's moments, so bounded blocks
# keep what they gather in cache and out of peak memory
_CARRY_COLUMNS = 128

_ORDER = 16  # Gauss-Legendre nodes per panel
_FAR_FROM = 24.0  # |kappa h| from which the moments take the forward recurrence


class _Rule(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray
    project: np.ndarray
    taylor: np.ndarray


@functools.cache
def _rule() -> _Rule:
    """The panel rule's tables, built on first use, as importing numpy.polynomial takes milliseconds."""
    from numpy.polynomial.legendre import leggauss, legvander

    nodes, weights = leggauss(_ORDER)
    degrees = np.arange(_ORDER)
    i_powers = np.array([1, 1j, -1, -1j])[degrees % 4]
    # F at the nodes -> i^n c_n: the Legendre coefficients, with the moments' factor i^n folded in, as a real
    # matrix from F's real and imaginary parts, interleaved, to the real parts of i^n c_n, then the imaginary ones
    p = legvander(nodes, _ORDER - 1) * weights[:, None] * (degrees + 0.5) * i_powers
    project = np.array([[p.real, p.imag], [-p.imag, p.real]]).transpose(2, 0, 1, 3).reshape(2 * _ORDER, 2 * _ORDER)
    # m_n(x) = M_n(x) / i^n = 2 j_n(x) is real.  Below |x| = _FAR_FROM it is a Taylor series in x - c
    # about the nearest integer c: taylor[c, k, n] = m_n^{(k)}(c) / k!, rows c = 0..24 then -24..-1, so that
    # c indexes them.  Miller's backward recurrence j_{l-1} = (2l+1) j_l / c - j_{l+1} from l = 60, scaled
    # by sum (2l+1) j_l^2 = 1 and the sign of j_0(c) = sin(c) / c, gives j_l(c) for c = 1..24 within 4.4e-16;
    # m_l(0) = 2 [l = 0] and m_l(-c) = (-1)^l m_l(c).
    c = np.arange(1.0, _FAR_FROM + 1.0)
    j = [np.zeros(len(c)), np.ones(len(c))]
    for ell in range(60, 0, -1):
        j.append((2 * ell + 1) / c * j[-1] - j[-2])
    j = np.array(j[:0:-1])  # j_0 ... j_60
    j *= np.sign(j[0] * np.sin(c)) / np.sqrt(((2 * np.arange(len(j)) + 1)[:, None] * j**2).sum(axis=0))
    ells = np.arange(2 * _ORDER - 1)
    m = np.concatenate(([2.0 * (ells == 0)], 2.0 * j[: len(ells)].T, 2.0 * j[: len(ells), ::-1].T * (-1.0) ** ells))
    # the derivatives by (2l+1) m_l' = l m_{l-1} - (l+1) m_{l+1}, exact for k + n < 31 without m_31
    derive = (np.diag(ells[1:], 1) - np.diag(ells[1:], -1)) / (2 * ells + 1)
    taylor = np.empty((len(m), _ORDER, _ORDER))
    for k in range(_ORDER):
        taylor[:, k], m = m[:, :_ORDER], m @ derive / (k + 1)
    return _Rule(nodes, weights, project, taylor)


class _WorkMemory(threading.local):
    """The carrier step's work arrays, one set per thread, kept from one ``_sums`` call to the next."""

    def __init__(self):
        self.arrays = {}

    def array(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """The work array ``name`` as a view of this shape, grown only when a call needs more than it holds."""
        size = math.prod(shape)
        kept = self.arrays.get(name)
        if kept is None or len(kept) < size:
            kept = self.arrays[name] = np.empty(size, dtype)
        return kept[:size].reshape(shape)


_work = _WorkMemory()


def _moments(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """m_n(x) = 2 j_n(x) for n < 16, one row per x, so that int_{-1}^{1} P_n(u) e^{ixu} du = i^n m_n(x).

    The rows go to ``out`` (len(x) x 16) when given, else to a new array.
    The rows are split into near and far ones once.  A near row is the
    stacked product sum_k (x - c)^k taylor[c, k], 3 * _CARRY_COLUMNS rows at
    a time, each block's Taylor tables gathered into the thread's work
    memory; the far rows follow the forward recurrence.  Each row depends on
    its own x only.
    """
    moments = np.empty((len(x), _ORDER)) if out is None else out
    near = np.abs(x) < _FAR_FROM
    split = np.count_nonzero(near) < len(x)
    at = np.flatnonzero(near) if split else None
    x_near = x[at] if split else x
    step = 3 * _CARRY_COLUMNS
    block = min(step, len(x_near))
    tables = _work.array("taylor", (block, _ORDER, _ORDER))
    staged = _work.array("near", (block, _ORDER)) if split else None
    for s in range(0, len(x_near), step):
        c = np.rint(x_near[s : s + step])
        powers = np.repeat((x_near[s : s + step] - c)[:, None], _ORDER, axis=1)
        powers[:, 0] = 1.0
        np.multiply.accumulate(powers, axis=1, out=powers)
        # into the work array directly, which the default mode="raise" would not; "wrap" reads the rows
        # -24..-1 of negative c as indexing does
        np.take(_rule().taylor, c.astype(np.intp), axis=0, out=tables[: len(c)], mode="wrap")
        rows = moments[s : s + step] if not split else staged[: len(c)]
        np.matmul(powers[:, None, :], tables[: len(c)], out=rows[:, None, :])
        if split:
            moments[at[s : s + step]] = rows
    if not split:
        return moments
    x_far = x[~near]
    far = np.empty((_ORDER, len(x_far)))
    far[0] = 2.0 * np.sin(x_far) / x_far
    far[1] = (far[0] - 2.0 * np.cos(x_far)) / x_far
    for n in range(1, _ORDER - 1):
        np.subtract((2 * n + 1) * far[n] / x_far, far[n - 1], out=far[n + 1])
    moments[~near] = far.T
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


def _sums(fn, mid: np.ndarray, half: np.ndarray, owner: np.ndarray, src, freq: np.ndarray, x, row) -> np.ndarray:
    """Sums of F e^{i freq[q] t} over the panels of midpoint mid[src[q]] and half-width half[src[q]], one per entry q.

    F is fn with column owner[i] on panel i; ``src`` None stands for src[q] =
    q.  F is evaluated (nodes as rows, owners as a column) on up to
    3 * _CHUNK_PANELS panels per integrand call, and every panel projected,
    before any entry is carried.  Entry q takes the moments of x[row[q]] =
    freq[q] * half[src[q]], computed once per row of x: its sum is the Filon
    sum where x != 0, the plain Gauss-Legendre sum where x = 0.  The entries
    go in input order, 3 * _CARRY_COLUMNS at a time, in the thread's work
    memory, which fn, called only before it, may use in turn.
    """
    rule = _rule()
    carried = np.count_nonzero(x)  # rows x != 0, whose entries take the Filon sum
    # per panel, the real parts of i^n c_n, then their imaginary parts
    coeffs = np.empty((len(mid), 2, _ORDER)) if carried else None
    plain = np.empty(len(mid), dtype=complex) if carried < len(x) else None
    for s in range(0, len(mid), 3 * _CHUNK_PANELS):
        c = slice(s, s + 3 * _CHUNK_PANELS)
        pts = mid[c, None] + half[c, None] * rule.nodes
        v = np.ascontiguousarray(fn(pts, owner[c, None]), dtype=complex)
        if v.shape != pts.shape:
            v = v.reshape(pts.shape) if v.size == pts.size else np.ascontiguousarray(np.broadcast_to(v, pts.shape))
        with np.errstate(invalid="ignore", over="ignore"):  # callers reject non-finite sums with IllConditioned
            if carried:
                np.matmul(v.view(float), rule.project, out=coeffs[c].reshape(-1, 2 * _ORDER))
            if plain is not None:
                np.matmul(v, rule.weights, out=plain[c])
    # fn is called no more: from here on the thread's work memory is this call's alone
    with np.errstate(invalid="ignore", over="ignore"):
        if plain is not None:
            plain = half * plain if src is None else half[src] * plain[src]
            if not carried:
                return plain
        # per entry, the dot product of its panel's coefficients with its row's moments, times h e^{i freq m},
        # in blocks that keep what they gather in cache
        sums = np.empty(len(freq), dtype=complex)
        moments = _moments(x, _work.array("moments", (len(x), _ORDER)))
        step = 3 * _CARRY_COLUMNS
        dots = _work.array("dots", (min(step, len(freq)),), complex)
        filon = _work.array("filon", dots.shape, complex)
        for q in range(0, len(freq), step):
            block = slice(q, q + step)
            panel = block if src is None else src[block]
            n = min(step, len(freq) - q)
            d, f = dots[:n], filon[:n]
            np.einsum("ikn,in->ik", coeffs[panel], moments[row[block]], out=d.view(float).reshape(-1, 2))
            np.multiply(1j, np.multiply(freq[block], mid[panel]), out=f)
            np.exp(f, out=f)
            np.multiply(f, half[panel], out=f)
            np.multiply(f, d, out=sums[block])
    if plain is not None:
        np.copyto(sums, plain, where=x[row] == 0.0)
    return sums


def _seed_rows(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The moment row of each of ``_seed``'s entries, and an entry of each row, for integrals of count[j] panels.

    Integral j's panels are one panel or a ray's [0, s], [s, 2s], [2s, 4s],
    ... up to T from ``_ray_breakpoints``.  A panel's halves share a row,
    right before its own; panels 0 and 1 have one half-width (b - a) / 2,
    and the halves of panel d + 1 that of panel d, bit for bit, as the ends
    double.  Only the last panel, ending at T, needs rows of its own.
    """
    ends = count.cumsum()
    last = ends - 1
    d = np.arange(ends[-1]) - (ends - count).repeat(count)  # each panel's place in its integral
    whole = np.maximum(d, 1)  # rows 0 and 1 for the halves and wholes of panels 0 and 1
    whole[last] = count + (count == 2)
    size = whole[last] + 1
    whole += (size.cumsum() - size).repeat(count)
    row = np.concatenate((whole, whole - 1, whole - 1))
    first = np.empty(int(whole[-1]) + 1, dtype=np.intp)
    first[row] = np.arange(len(row))  # an entry of each row
    return row, first


@functools.lru_cache(maxsize=16)
def _one_seed_rows(count: int) -> tuple[np.ndarray, np.ndarray]:
    """``_seed_rows`` of one integral, kept for the one-integral passes of probes and the CLI; read only."""
    return _seed_rows(np.array([count]))


# the half-widths of a seed panel and its halves in units of its own, and their midpoints' offsets in units of theirs
_SEED_SCALE = np.array([[1.0], [0.5], [0.5]])
_SEED_SHIFT = np.array([[0.0], [-1.0], [1.0]])


def _seed(fn, a: np.ndarray, b: np.ndarray, owner: np.ndarray, src, freq: np.ndarray, count) -> np.ndarray:
    """Whole-panel, left-half and right-half sums of F e^{i freq[q] t} over the seed panel [a[src[q]], b[src[q]]].

    F is as in ``_sums``, on the seed panels [a[i], b[i]] of midpoint a + h
    and half-width h = (b - a) / 2.  Integral j's columns q are count[j]
    consecutive ones, and the entries share the moment rows of
    ``_seed_rows``.  Returns three rows of one column q each.
    """
    n, half = len(a), 0.5 * (b - a)
    # rows: whole panels, left halves, right halves
    halves = _SEED_SCALE * half
    mids = ((a + half) + _SEED_SHIFT * halves).ravel()
    halves = halves.ravel()
    if src is not None:
        src = np.concatenate((src, src + n, src + 2 * n))
    freq = np.concatenate((freq,) * 3)
    row, first = _one_seed_rows(int(count[0])) if len(count) == 1 else _seed_rows(count)
    x = (freq * (halves if src is None else halves[src]))[first]
    return _sums(fn, mids, halves, np.concatenate((owner,) * 3), src, freq, x, row).reshape(3, -1)


def _non_finite(sums: np.ndarray, a, b) -> IllConditioned:
    """IllConditioned naming the first panel [a[i], b[i]] whose column i of sums is not all finite."""
    i = int(np.argmin(np.isfinite(sums).all(axis=0)))
    return IllConditioned(
        f"non-finite integrand value on [{float(a[i])!r}, {float(b[i])!r}]; "
        "the integrand overflows or is undefined there"
    )


def _check_blank(fn, owner, lo: np.ndarray, hi: np.ndarray, freq: float, abs_floor: float) -> None:
    """Raise IllConditioned where F's sums on the seed panels [lo[k], hi[k]] are all exactly 0 but F(lo[0]) is not.

    The first panel's first node lies 0.0053 panel widths from a = lo[0]:
    F(a) times that gap above abs_floor means that F underflowed at every
    node rather than vanished.
    """
    a = float(lo[0])
    start = complex(np.asarray(fn(np.array([[a]]), np.array([[owner]])), dtype=complex).ravel()[0])
    if not abs(start) * 0.5 * (hi[0] - a) * (1.0 + _rule().nodes[0]) <= abs_floor:
        raise IllConditioned(
            f"the integral of carrier frequency {float(freq)!r} over [{a!r}, {float(hi[-1])!r}] has every seed "
            f"panel sum exactly 0, but its integrand is {start!r} at t = {a!r}: it underflows at every node"
        )


def _heap(lo: np.ndarray, hi: np.ndarray, left: np.ndarray, right: np.ndarray, err: np.ndarray) -> list:
    """One integral's panels [lo[k], hi[k]], with half-panel sums left[k], right[k] and estimates err[k], as a heap.

    Its entries are (-err, creation index, midpoint, half-width, left, right),
    so the worst panel pops first, and the older one on ties.
    """
    half = 0.5 * (hi - lo)  # as in _seed
    mid = lo + half
    heap = list(zip((-err).tolist(), itertools.count(), mid.tolist(), half.tolist(), left.tolist(), right.tolist()))
    heapq.heapify(heap)
    return heap


def _finish(heap: list) -> tuple[complex, float, int]:
    """Value, est_error and panels of an integral from its heap, each sum by math.fsum."""
    fine = [p[4] + p[5] for p in heap]
    value = complex(math.fsum(v.real for v in fine), math.fsum(v.imag for v in fine))
    return value, math.fsum(-p[0] for p in heap), len(heap)


def _refine(fn, owner: list, freq: list, span: list, heaps: list, total: list, total_err: list, budget) -> list:
    """Split the worst panel of every pending integral, in rounds, until each estimate meets its target.

    Integral i is that of fn(t, owner[i]) e^{i freq[i] t} over the seed
    interval span[i] = (a, b), with its panels in heaps[i] (``_heap``) and
    its running value and estimate in total[i] and total_err[i], which are
    updated in place.  Each round pops the worst panel of every integral
    still above its target and computes the four half-panels of both
    children of all of them in one ``_sums`` call, one moment row per split;
    splits of one owner, midpoint and half-width evaluate F once.  An
    integral leaves the rounds once its target is met or its top estimate is
    exactly 0, and fails at _MAX_PANELS panels (BudgetExceeded) or on a
    non-finite sum (IllConditioned).  Returns per integral (value,
    est_error, panels) or the error it failed with; the integrals after a
    failed one are dropped, with None, as their results can no longer
    surface.  An exception of fn propagates at once.
    """
    results = [None] * len(heaps)
    age = itertools.count(max(map(len, heaps)))  # creation indices, increasing within every heap
    live = range(len(heaps))
    while live:
        splits, panels, mids, halves, owners, freqs, x = [], {}, [], [], [], [], []
        for i in live:
            heap = heaps[i]
            target = budget.rel_tol * abs(total[i]) + budget.abs_floor
            if not total_err[i] > target:
                results[i] = _finish(heap)
                continue
            if len(heap) >= _MAX_PANELS:
                key, _, m, h, _, _ = heap[0]
                a, b = span[i]
                results[i] = BudgetExceeded(
                    f"panel budget {_MAX_PANELS} exhausted with est_error={total_err[i]:.3e} (target {target:.3e}) "
                    f"by the integral of carrier frequency {freq[i]!r} over [{a!r}, {b!r}]; its worst panel "
                    f"[{m - h!r}, {m + h!r}] has estimate {-key:.3e}: the integrand is harder than the budget allows"
                )
                break
            if heap[0][0] == 0.0:
                # every estimate is exactly zero: the running total is rounding residue no split can lower
                results[i] = _finish(heap)
                continue
            popped = heapq.heappop(heap)
            _, _, m, h, _, _ = popped
            quarter = 0.25 * h
            if panels.setdefault((owner[i], m, h), len(panels)) == len(mids) // 4:
                child = 0.5 * h
                mid0, mid1 = m - child, m + child
                # per split: left halves, then right halves, of both children
                mids += (mid0 - quarter, mid1 - quarter, mid0 + quarter, mid1 + quarter)
                halves += (quarter,) * 4
                owners += (owner[i],) * 4
            splits.append((i, popped))
            freqs += (freq[i],) * 4
            x.append(freq[i] * quarter)
        if not splits:
            break
        src = None
        if len(panels) < len(splits):  # the four half-panels of each split's panel
            src = (4 * np.array([panels[owner[i], p[2], p[3]] for i, p in splits])[:, None] + np.arange(4)).ravel()
        row = _ONE_ROW if len(splits) == 1 else np.arange(len(splits)).repeat(4)
        sums = _sums(fn, np.array(mids), np.array(halves), np.array(owners), src, np.array(freqs), np.array(x), row)
        live = []
        # per split, rows left and right halves, columns its children, whose coarse sums are the split panel's halves
        for (i, (key, _, m, h, coarse0, coarse1)), child_sums in zip(splits, sums.reshape(-1, 2, 2).tolist()):
            (left0, left1), (right0, right1) = child_sums
            fine0, fine1 = left0 + right0, left1 + right1
            err0, err1 = abs(fine0 - coarse0), abs(fine1 - coarse1)
            # a non-finite half-panel sum makes an estimate non-finite; the integrals after it no longer matter
            if not math.isfinite(err0 + err1) and not all(map(cmath.isfinite, (left0, left1, right0, right1))):
                results[i] = _non_finite(np.array(child_sums), (m - h, m), (m, m + h))
                break
            heap, child = heaps[i], 0.5 * h
            heapq.heappush(heap, (-err0, next(age), m - child, child, left0, right0))
            heapq.heappush(heap, (-err1, next(age), m + child, child, left1, right1))
            total[i] += fine0 + fine1 - (coarse0 + coarse1)
            total_err[i] += err0 + err1 + key  # key = -err of the split panel; adding it rounds as subtracting err
            live.append(i)
    return results


# the moment row of each half-panel of a round of one split
_ONE_ROW = np.zeros(4, dtype=np.intp)


def _integrate_seeds(fn, a, b, count: np.ndarray, owners: np.ndarray, family, freq: np.ndarray, budget):
    """Integrals j of fn(t, owners[f]) e^{i freq[j] t} over the seed panels of their family f = family[j].

    Family f's seed panels are count[f] consecutive panels [a[i], b[i]],
    after those of the families before it, a ray's from ``_ray_breakpoints``
    or a single panel (see ``_seed_rows``); families are numbered in the
    order of their first integral.  Every integral is seeded in one step;
    those whose seed sums are finite and meet their target take their plain
    sums, off by less than n eps sum |panel sum| over their n panels (Higham,
    Accuracy and Stability of Numerical Algorithms, section 4.2), which
    est_error includes.  The others fail for a non-finite seed sum or are
    refined in rounds (``_refine``), and those whose seed sums are all
    exactly 0 are checked by ``_check_blank`` after the rounds.  Failures
    surface in input order: the blank checks run in input order and the first
    failing integral's error is raised.  Only an exception of fn itself
    propagates from the round in which fn raises it.  Returns value,
    est_error and panels used per integral.
    """
    # column q of the sums is panel q - starts[j] of integral j, family panel src[q]; with one integral
    # per family, family[j] = j and the columns are the family panels themselves
    shared = len(family) != len(count)  # a family of more than one integral
    counts = count[family] if shared else count
    starts = counts.cumsum() - counts
    src = None
    if shared:
        src = np.arange(starts[-1] + counts[-1]) + np.repeat((count.cumsum() - count)[family] - starts, counts)
    sums = _seed(fn, a, b, owners.repeat(count), src, freq.repeat(counts), counts)
    finite = np.isfinite(sums)
    finite = None if np.count_nonzero(finite) == finite.size else finite.all(axis=0)
    coarse, left, right = sums if finite is None else np.where(finite, sums, 0.0)
    fine = left + right
    err = np.abs(fine - coarse)
    # per integral, each over its own panels alone: the plain sum, its estimate and sum |fine|
    values, total_errs, sizes = (np.add.reduceat(v, starts) for v in (fine, err, np.abs(fine)))
    done = total_errs <= budget.rel_tol * np.abs(values) + budget.abs_floor
    if finite is not None:
        done &= np.logical_and.reduceat(finite, starts)
    errors, used = total_errs + counts * math.ulp(1.0) * sizes, counts  # ulp(1) = eps
    pending = [] if np.count_nonzero(done) == len(done) else np.flatnonzero(~done).tolist()
    if np.count_nonzero(values) < len(values):
        pending = sorted(pending + np.flatnonzero(done & (values == 0)).tolist())
    if not pending:
        return values, errors, used

    blank, outcome = {}, {}
    refined, owner, freqs, span, heaps, total, total_err = [], [], [], [], [], [], []
    for j in pending:
        p, q = int(starts[j]), int(starts[j] + counts[j])
        seeds = slice(p, q) if src is None else slice(int(src[p]), int(src[p]) + q - p)  # its family's seed panels
        lo, hi = a[seeds], b[seeds]
        if done[j]:
            if not sums[:, p:q].any():
                blank[j] = lo, hi
            continue
        if finite is not None and not finite[p:q].all():
            outcome[j] = _non_finite(sums[:, p:q], lo, hi)
            break  # the integrals after it can no longer fail first
        refined.append(j)
        owner.append(int(owners[family[j]]))
        freqs.append(float(freq[j]))
        span.append((float(lo[0]), float(hi[-1])))
        heaps.append(_heap(lo, hi, left[p:q], right[p:q], err[p:q]))
        total.append(complex(values[j]))
        total_err.append(float(total_errs[j]))
    if refined:
        outcome.update(zip(refined, _refine(fn, owner, freqs, span, heaps, total, total_err, budget)))
    # failures surface in input order: the first integral that failed seeding or refinement, or fails its blank check
    for j in pending:
        result = outcome.get(j)
        if isinstance(result, Exception):
            raise result
        if result is not None:
            values[j], errors[j], used[j] = result
        elif j in blank:
            _check_blank(fn, owners[family[j]], *blank[j], freq[j], budget.abs_floor)
    return values, errors, used


def _integrate_segments(fn, a: np.ndarray, b: np.ndarray, budget: QuadratureBudget, freq: np.ndarray):
    """Integrals j of fn(t, j) e^{i freq[j] t} over [a[j], b[j]] (a[j] < b[j]).

    Returns value, est_error and panels used per integral, each as
    ``integrate_segment`` computes it alone.
    """
    j = np.arange(len(a))
    return _integrate_seeds(fn, a, b, np.ones(len(a), dtype=np.intp), j, j, freq, budget)


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
    value, err, used = (r.item() for r in _integrate_segments(
        lambda t, k: fn(t.ravel()), np.array([a], float), np.array([b], float), budget, np.array([freq])
    ))
    return IntegralResult(value, err, 0.0, used)


def _ray_breakpoints(T: list[float], rate: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric seed intervals of each ray [0, T[j]], dense near 0 where the integrand lives.

    Ray j gets [0, s], [s, 2s], [2s, 4s], ... up to T[j], with s = min(1/rate[j], T[j]).
    Returns the interval ends a, b and the number of intervals of each ray.
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
    return a, b, count


def _check_envelopes(rates: list[float], amplitudes: list[float]) -> None:
    """Raise DecayModel's InvalidDecay for the first rate or amplitude that is not finite and positive."""
    for m, A in zip(rates, amplitudes):
        if not (0.0 < m < math.inf and 0.0 < A < math.inf):
            DecayModel(rate=m, amplitude=A)


def _integrate_rays(fn, rate: np.ndarray, amplitude: np.ndarray, budget: QuadratureBudget, freq: np.ndarray, key=None):
    """Integrals j of fn(t, j) e^{i freq[j] t} over [0, inf), given |fn(t, j)| <= amplitude[j] e^{-rate[j] t}.

    ``key`` is a tuple of 1-D int64 arrays, one value per integral in each.
    Integrals whose key values are bitwise equal form a family: the caller
    promises that they have one F, and they must have one rate and
    amplitude, else ValueError.  A family is planned, and its F evaluated on
    its seed panels, once: fn is called with its first integral as the owner.

    Validates every envelope first (InvalidDecay with DecayModel's message
    for the first bad one in input order), the families next, and then every
    truncation point: InvalidDecay for the first rate so small that 2T
    overflows.  Returns value, est_error, truncation_T and panels used per
    integral, each as ``integrate_ray`` computes it alone.
    """
    n = len(rate)
    family = None  # integral j's family, where families are not the integrals themselves
    if key is not None and n > 1:
        order = np.lexsort(key[::-1])  # stable: each family in input order
        new = np.concatenate(([True], np.any([c[order[1:]] != c[order[:-1]] for c in key], axis=0)))
        if not new.all():
            leaders = np.sort(order[new])  # each family's first integral: families are numbered in their order
            family = np.empty(n, dtype=np.intp)
            family[order] = np.searchsorted(leaders, order[new])[np.cumsum(new) - 1]
            first = leaders[family]
            if not (np.array_equal(rate[first], rate) and np.array_equal(amplitude[first], amplitude)):
                _check_envelopes(rate.tolist(), amplitude.tolist())  # a bad envelope is reported first
                raise ValueError("integrals that share a smooth factor must have the same rate and amplitude")
            rate, amplitude = rate[leaders], amplitude[leaders]
    # sharers have their family's envelope, so the first bad family holds the first bad integral
    rates, amplitudes = rate.tolist(), amplitude.tolist()
    _check_envelopes(rates, amplitudes)
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
    value, panels = np.zeros(n, dtype=complex), np.zeros(n, dtype=np.intp)
    err = np.array(bound) if family is None else np.array(bound)[family]
    if live:
        a, b, count = _ray_breakpoints([T[f] for f in live], [rates[f] for f in live])
        mine, renumbered = slice(None), range(n) if family is None else family
        if len(live) < len(rates):  # the integrals of live families, and those families numbered among them
            renumbered = np.full(len(rates), -1)
            renumbered[live] = np.arange(len(live))
            renumbered = renumbered if family is None else renumbered[family]
            mine = np.flatnonzero(renumbered >= 0)
            renumbered = renumbered[mine]
        owners = np.array(live) if family is None else leaders[live]
        values, errors, used = _integrate_seeds(fn, a, b, count, owners, renumbered, freq[mine], budget)
        value[mine], err[mine], panels[mine] = values, errors + err[mine], used
    return value, err, np.array(T) if family is None else np.array(T)[family], panels


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
    return IntegralResult(*(r.item() for r in (value, err, T, used)))


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
