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

One engine pass computes many independent integrals, family by family.  A
family is a set of integrals with one F on one seed interval, whose carriers
alone differ: the omegas of a ray transform with one margin, named by equal
keys (``_integrate_rays``), or a loner, an integral alone in its family.  It
is planned once (truncation point, tail bound, seed panels), and its first
integral owns its seed panels: the engine calls its integrand as
``fn(t, k)``, where ``t`` holds the Gauss-Legendre nodes of one interval per
row and the column ``k`` the owner of each row, so one call can hold panels
of many families.  A segment's seed panel is the segment itself; a ray's
seed panels are geometric intervals (below).  From planning through seeding
to refinement a pass holds its integrals in one order, family-major:
families in the order of their first integral, each family's integrals in
input order.

One kernel, ``_sums``, serves seeding (the whole panels, left halves and
right halves of all seed panels) and refinement.  It evaluates F on up to
3 * _CHUNK_PANELS panels per integrand call, across family boundaries, and
projects every panel of the call once (vals @ project, vals @ weights) as
the call returns.  Then it applies the carriers in one of two layouts.  A
call with a grid of carriers by panels has blocks: the whole panels of a
family, its left halves and its right halves are each a block of the
family's kappas by those panels, and in a refinement round where splits
share a panel, the four half-panels of its children are a block of the
carriers that split it.  Each cell's sum is the dot product of its panel's
coefficients with the moments of its kappa h, times h e^{i kappa m}.  The
moments are computed once per moment row of a call, split into near and far
rows once.  As a ray's seed panels double in width, a family of K integrals
of d seed panels takes K (d + 1) rows, not 3 K d (``_seed_rows``), ordered
by half-width class and contiguous in kappa, so that a panel's cells read
the K rows of its class as one slice: one einsum per panel against its
2 x 16 coefficients and one e^{i outer(kappa, m)} per block, with no gather
per cell, whatever the block's size.  A call without a grid (loners only,
or a round whose splits share no panel) has one cell per panel and is
carried cell by cell, 3 * _CARRY_COLUMNS cells at a time, each gathering its
panel's coefficients and its row.  Each integral is then checked against
its own target

    est_error <= rel_tol * |value| + abs_floor

and those that miss it are refined from the panel state seeding left, each
on its family's F.  Every integral keeps its panels on its own heap, worst
estimate first and the older panel on ties.  Refinement goes in rounds: each
round pops the top panel of every integral still above its target and
computes the four half-panels of both children of all of them, of one width
per split and so of one moment row, in one ``_sums`` call; integrals of one
family that split the same panel evaluate F on it once, as a block of their
carriers by its four half-panels.  An integral's running value and estimate
are updated per split as if it were refined alone, until its target is met
or it holds _MAX_PANELS panels (BudgetExceeded, naming the integral and its
worst panel: never silent degradation).  If rounding leaves the estimate
above the target once the top estimate is exactly 0, no panel can usefully
be split, so refinement stops there and reports the re-summed estimate, 0.

A panel's sums come out the same whichever panels and integrals share its
integrand call (every call holds at least three panels, numpy's matrix
products over two or more rows compute each row on its own, each moment row
depends on its own kappa h alone, and each cell's dot product is its own,
summed by einsum in one order whether it is carried panel by panel or cell
by cell), so every integral gets the same panels, values and estimates, bit
for bit, as when integrated alone.  A pass seeds all its integrals in one
step; those that meet their target take their plain seed sums, and the sums'
rounding bound n eps sum |panel sum| over their n panels is added to
est_error after the check; the others are refined.  A pass raises the first
failure it meets, visiting the integrals family by family: right after
seeding, a NaN or infinite seed sum (naming the first affected panel, where
a NaN estimate would end refinement as if converged), then seed sums that
are all exactly 0 where F at the start is not negligible, as F then
underflows at every node (``_check_blank``), both IllConditioned; then, in
the round it comes in, a refinement's BudgetExceeded, non-finite sum or
exception of the integrand.  So where integrals of two families interleave
in the input and both fail in one step, the one raised is the first in the
family-major order, not in input order.
``integrate_segment`` and ``integrate_ray`` are the one-integral case, and
hand their integrands a 1-D array of points.

The carrier step works in memory kept from one ``_sums`` call to the next,
one set per thread (``_WorkMemory``), each array grown to the power of two
at or above the most any call has needed: the moment rows of a call, the
gathered Taylor tables and near rows of 3 * _CARRY_COLUMNS rows, the far
rows' recurrence (16 x 8 bytes a row, about 200 KB in an inversion's inner
pass), and the dot products, phases and kappa m of a grid block, or of
3 * _CARRY_COLUMNS cells carried one by one.  Allocated anew in every call,
these arrays (the Taylor tables alone take 768 KB) would go back to the
system after each call and be faulted in again by the next.  F may itself
run a quadrature (a numeric g inside an inversion) whose ``_sums`` calls use
the same memory, so a call touches it only after its last integrand call,
and allocates what it returns afresh.

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
# 3 * 128 near moment rows per stacked product, and cells carried one by one per block of dot products: a near row
# gathers a 16 x 16 Taylor table and such a cell its row's moments, so bounded blocks keep what they gather in cache
# and out of peak memory
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
        """The work array ``name`` as a view of this shape, grown only when a call needs more than it holds.

        It grows to the power of two at or above what the call needs, so that
        calls of slowly rising size do not each take a fresh array, whose
        pages the system faults in anew; pages no call reaches stay untouched.
        """
        size = math.prod(shape)
        kept = self.arrays.get(name)
        if kept is None or len(kept) < size:
            kept = self.arrays[name] = np.empty(1 << (size - 1).bit_length(), dtype)
        return kept[:size].reshape(shape)


_work = _WorkMemory()


def _moments(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """m_n(x) = 2 j_n(x) for n < 16, one row per x, so that int_{-1}^{1} P_n(u) e^{ixu} du = i^n m_n(x).

    The rows go to ``out`` (len(x) x 16) when given, else to a new array.
    The rows are split into near and far ones once.  A near row is the
    stacked product sum_k (x - c)^k taylor[c, k], 3 * _CARRY_COLUMNS rows at
    a time, each block's Taylor tables gathered into the thread's work
    memory; the far rows follow the forward recurrence, there too.  Each row
    depends on its own x only.
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
    far = _work.array("far", (_ORDER, len(x_far)))
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
        if not (1e-14 <= self.rel_tol < math.inf):
            raise ValueError(f"rel_tol must be finite and >= 1e-14 (double precision floor), got {self.rel_tol}")
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


def _sums(fn, mid: np.ndarray, half: np.ndarray, owner: np.ndarray, grid, freq: np.ndarray, x, row) -> np.ndarray:
    """Sums of F e^{i kappa t} over panels of midpoint mid[i] and half-width half[i], one per cell of a grid.

    F is fn with column owner[i] on panel i.  ``grid`` None makes one cell
    per panel, cell i on panel i with carrier freq[i].  Otherwise ``grid``
    is (kappas, widths): block b is a grid of kappas[b] carriers by
    widths[b] panels, its panels following those of block b - 1 and its
    cells those of block b - 1, carrier-major, so that cell (j, p) of a
    block holds carrier j on panel p, freq giving the carrier of every cell.
    Cell (j, p) takes the moments of x[row[p] + j] = kappa_j half[p]: its
    sum is the Filon sum where x != 0, the plain Gauss-Legendre sum where
    x = 0.  F is evaluated (nodes as rows, owners as a column) on up to
    3 * _CHUNK_PANELS panels per integrand call, and every panel projected,
    before any cell is carried, in the thread's work memory, which fn,
    called only before it, may use in turn.  With a grid, every block takes
    one dot product of its rows per panel; without one, the cells are
    carried one by one, 3 * _CARRY_COLUMNS at a time.
    """
    rule = _rule()
    carried = np.count_nonzero(x)  # rows x != 0, whose cells take the Filon sum
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
    # per cell, its panel (None: cell i on panel i) and its moment row, for the plain sums
    panel, rows = None, row
    if grid is not None and plain is not None:
        kappas, widths = grid
        panel = _ranges((widths.cumsum() - widths).repeat(kappas), widths.repeat(kappas))
        rows = row[panel] + _ranges(np.zeros_like(kappas), kappas).repeat(widths.repeat(kappas))
    with np.errstate(invalid="ignore", over="ignore"):
        if plain is not None:
            plain *= half
            if not carried:
                return plain if panel is None else plain[panel]
        sums = np.empty(len(freq), dtype=complex)
        moments = _moments(x, _work.array("moments", (len(x), _ORDER)))
        if grid is not None:
            kappas, widths = grid
            size = kappas * widths
            blocks = (kappas, widths, widths.cumsum() - widths, size.cumsum() - size)
            for k, w, p, start in zip(*(v.tolist() for v in blocks)):
                # k carriers by w panels: per panel, the dot products of its coefficients with the k rows of its
                # class, then h e^{i kappa m} for all cells at once
                panels = slice(p, p + w)
                f, kappa_m = _work.array("filon", (k, w), complex), _work.array("phase", (k, w))
                np.multiply.outer(freq[start : start + k * w : w], mid[panels], out=kappa_m)
                np.multiply(1j, kappa_m, out=f)
                np.exp(f, out=f)
                np.multiply(f, half[panels], out=f)
                d = _work.array("dots", (w, k), complex)
                for i, r in enumerate(row[panels].tolist()):
                    np.einsum("jn,kn->jk", moments[r : r + k], coeffs[p + i], out=d[i].view(float).reshape(k, 2))
                np.multiply(f, d.T, out=sums[start : start + k * w].reshape(k, w))
        else:
            # cell by cell: the dot product of its panel's coefficients with its row's moments, times h e^{i kappa m},
            # in blocks that keep what they gather in cache
            step = 3 * _CARRY_COLUMNS
            dots = _work.array("dots", (min(step, len(freq)),), complex)
            filon = _work.array("filon", dots.shape, complex)
            for q in range(0, len(freq), step):
                cells = slice(q, q + step)
                d, f = dots[: len(freq) - q], filon[: len(freq) - q]
                np.einsum("ikn,in->ik", coeffs[cells], moments[row[cells]], out=d.view(float).reshape(-1, 2))
                np.multiply(1j, np.multiply(freq[cells], mid[cells]), out=f)
                np.exp(f, out=f)
                np.multiply(f, half[cells], out=f)
                np.multiply(f, d, out=sums[cells])
    if plain is not None:
        np.copyto(sums, plain if panel is None else plain[panel], where=x[rows] == 0.0)
    return sums


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]), one after another."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + lengths).repeat(lengths)


def _seed_rows(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The half-width class of each of ``_seed``'s panels, and a panel of each class, for families of count[f] panels.

    Family f's panels are one panel or a ray's [0, s], [s, 2s], [2s, 4s],
    ... up to T from ``_ray_breakpoints``, whole panels, then left halves,
    then right halves.  A panel's halves share a class, right before its
    own; panels 0 and 1 have one half-width (b - a) / 2, and the halves of
    panel d + 1 that of panel d, bit for bit, as the ends double.  Only the
    last panel, ending at T, needs classes of its own, so d panels take
    d + 1 classes (4 for d = 2), numbered family by family.  They are the
    moment rows of one carrier per family; ``_seed`` gives each class as
    many rows as its family has carriers.
    """
    ends = count.cumsum()
    last = ends - 1
    d = np.arange(ends[-1]) - (ends - count).repeat(count)  # each panel's place in its family
    whole = np.maximum(d, 1)  # rows 0 and 1 for the halves and wholes of panels 0 and 1
    whole[last] = count + (count == 2)
    size = whole[last] + 1
    whole += (size.cumsum() - size).repeat(count)
    row = np.concatenate((whole, whole - 1, whole - 1))
    first = np.empty(int(whole[-1]) + 1, dtype=np.intp)
    first[row] = np.arange(len(row))  # a panel of each class
    return row, first


@functools.lru_cache(maxsize=16)
def _one_seed_rows(count: int) -> tuple[np.ndarray, np.ndarray]:
    """``_seed_rows`` of one family, kept for the one-family passes of probes, the CLI and inversion legs; read only."""
    return _seed_rows(np.array([count]))


# the half-widths of a seed panel and its halves in units of its own, and their midpoints' offsets in units of theirs
_SEED_SCALE = np.array([[1.0], [0.5], [0.5]])
_SEED_SHIFT = np.array([[0.0], [-1.0], [1.0]])


def _seed(fn, a: np.ndarray, b: np.ndarray, owner: np.ndarray, count: np.ndarray, kappas: np.ndarray, freq):
    """Whole-panel, left-half and right-half sums of F e^{i kappa t} over the seed panels of families of integrals.

    Family f has count[f] consecutive seed panels [a[i], b[i]] of midpoint
    a + h and half-width h = (b - a) / 2, F as in ``_sums`` with column
    owner[i] on them, and kappas[f] consecutive carriers of freq.  Where
    every family is a loner, of one carrier, each panel is one cell of
    ``_sums``, carried cell by cell.  Otherwise each kind of panel (whole,
    left half, right half) of a family is a block of ``_sums``' grid, its
    carriers by its panels; the rows of one carrier from ``_seed_rows``
    become kappas[f] rows each, so that a family's rows go by half-width
    class and then carrier.  Returns three rows, one per kind, of one column
    per integral and panel: family by family, each integral's count[f]
    panels in turn.
    """
    half = 0.5 * (b - a)
    # rows: whole panels, left halves, right halves
    halves = _SEED_SCALE * half
    mids = ((a + half) + _SEED_SHIFT * halves).ravel()
    halves = halves.ravel()
    row, first = _one_seed_rows(int(count[0])) if len(count) == 1 else _seed_rows(count)
    owner = np.concatenate((owner,) * 3)
    cells = np.concatenate((freq.repeat(count.repeat(kappas)),) * 3)
    if len(freq) == len(count):  # one carrier per family: cell i on panel i
        return _sums(fn, mids, halves, owner, None, cells, (cells * halves)[first], row).reshape(3, -1)
    # each row of one carrier, of family f, as kappas[f] rows: its half-width times each of f's carriers
    family = np.concatenate((np.arange(len(count)).repeat(count),) * 3)[first]
    n = kappas[family]
    x = halves[first].repeat(n) * freq[_ranges((kappas.cumsum() - kappas)[family], n)]
    grid = (np.concatenate((kappas,) * 3), np.concatenate((count,) * 3))
    return _sums(fn, mids, halves, owner, grid, cells, x, (n.cumsum() - n)[row]).reshape(3, -1)


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
    exactly 0.  Returns per integral (value, est_error, panels).  Raises the
    first failure it meets, in the round it comes in: BudgetExceeded for an
    integral at _MAX_PANELS panels, IllConditioned for a non-finite sum, or
    an exception of fn.
    """
    results = [None] * len(heaps)
    age = itertools.count(max(map(len, heaps), default=0))  # creation indices, increasing within every heap
    live = range(len(heaps))
    while live:
        splits, which, panels, mids, halves, owners, freqs, x = [], [], {}, [], [], [], [], []
        for i in live:
            heap = heaps[i]
            target = budget.rel_tol * abs(total[i]) + budget.abs_floor
            if not total_err[i] > target:
                results[i] = _finish(heap)
                continue
            if len(heap) >= _MAX_PANELS:
                key, _, m, h, _, _ = heap[0]
                a, b = span[i]
                raise BudgetExceeded(
                    f"panel budget {_MAX_PANELS} exhausted with est_error={total_err[i]:.3e} (target {target:.3e}) "
                    f"by the integral of carrier frequency {freq[i]!r} over [{a!r}, {b!r}]; its worst panel "
                    f"[{m - h!r}, {m + h!r}] has estimate {-key:.3e}: the integrand is harder than the budget allows"
                )
            if heap[0][0] == 0.0:
                # every estimate is exactly zero: the running total is rounding residue no split can lower
                results[i] = _finish(heap)
                continue
            popped = heapq.heappop(heap)
            _, _, m, h, _, _ = popped
            quarter = 0.25 * h
            which.append(panels.setdefault((owner[i], m, h), len(panels)))
            if which[-1] == len(mids) // 4:
                child = 0.5 * h
                mid0, mid1 = m - child, m + child
                # per split: left halves, then right halves, of both children
                mids += (mid0 - quarter, mid1 - quarter, mid0 + quarter, mid1 + quarter)
                halves += (quarter,) * 4
                owners += (owner[i],) * 4
            splits.append((i, popped))
            freqs.append(freq[i])
            x.append(freq[i] * quarter)
        if not splits:
            break
        freqs, x, grid = np.array(freqs), np.array(x), None
        row = np.arange(len(splits)).repeat(4)
        if len(panels) < len(splits):
            # the four half-panels of a panel that several splits share are a block, with their carriers in turn
            order = np.argsort(which, kind="stable")
            kappas = np.bincount(which)
            grid, row = (kappas, np.full(len(kappas), 4)), (kappas.cumsum() - kappas).repeat(4)
            freqs, x = freqs[order], x[order]
        sums = _sums(fn, np.array(mids), np.array(halves), np.array(owners), grid, freqs.repeat(4), x, row)
        if grid is not None:
            sums = sums.reshape(-1, 4)[np.argsort(order)]  # in split order
        live = []
        # per split, rows left and right halves, columns its children, whose coarse sums are the split panel's halves
        for (i, (key, _, m, h, coarse0, coarse1)), child_sums in zip(splits, sums.reshape(-1, 2, 2).tolist()):
            (left0, left1), (right0, right1) = child_sums
            fine0, fine1 = left0 + right0, left1 + right1
            err0, err1 = abs(fine0 - coarse0), abs(fine1 - coarse1)
            # a non-finite half-panel sum makes an estimate non-finite
            if not math.isfinite(err0 + err1) and not all(map(cmath.isfinite, (left0, left1, right0, right1))):
                raise _non_finite(np.array(child_sums), (m - h, m), (m, m + h))
            heap, child = heaps[i], 0.5 * h
            heapq.heappush(heap, (-err0, next(age), m - child, child, left0, right0))
            heapq.heappush(heap, (-err1, next(age), m + child, child, left1, right1))
            total[i] += fine0 + fine1 - (coarse0 + coarse1)
            total_err[i] += err0 + err1 + key  # key = -err of the split panel; adding it rounds as subtracting err
            live.append(i)
    return results


def _integrate_seeds(fn, a, b, count: np.ndarray, owners: np.ndarray, kappas: np.ndarray, freq: np.ndarray, budget):
    """Integrals of fn(t, owners[f]) e^{i kappa t} over the seed panels of families f, kappas[f] carriers each.

    Family f's seed panels are count[f] consecutive panels [a[i], b[i]],
    after those of the families before it, a ray's from ``_ray_breakpoints``
    or a single panel (see ``_seed_rows``), and its integrals are kappas[f]
    consecutive carriers of freq, after those of the families before it.
    Every integral is seeded in one step; those whose seed sums meet their
    target take their plain sums, off by less than n eps sum |panel sum|
    over their n panels (Higham, Accuracy and Stability of Numerical
    Algorithms, section 4.2), which est_error includes, and the others are
    refined in rounds (``_refine``).  Raises the first failure it meets, in
    the integrals' order, family by family: right after seeding, a
    non-finite seed sum, then ``_check_blank`` where all seed sums are
    exactly 0; then one of the rounds.  Returns value, est_error and panels
    used per integral, in the order of freq.
    """
    counts, seeds = count.repeat(kappas), (count.cumsum() - count).repeat(kappas)  # per integral: panels, first
    sums = _seed(fn, a, b, owners.repeat(count), count, kappas, freq)
    if np.count_nonzero(np.isfinite(sums)) < sums.size:  # name the first integral's panel
        src = _ranges(seeds, counts)
        raise _non_finite(sums, a[src], b[src])
    coarse, left, right = sums
    fine = left + right
    err = np.abs(np.subtract(fine, coarse, out=coarse))  # a zero panel stays zero in all three rows
    # per integral, each over its own panels alone: the plain sum, its estimate and sum |fine|
    starts = counts.cumsum() - counts
    values, total_errs, sizes = (np.add.reduceat(v, starts) for v in (fine, err, np.abs(fine)))
    done = total_errs <= budget.rel_tol * np.abs(values) + budget.abs_floor
    errors, used = total_errs + counts * math.ulp(1.0) * sizes, counts  # ulp(1) = eps
    pending = [] if np.count_nonzero(done) == len(done) else np.flatnonzero(~done).tolist()
    if np.count_nonzero(values) < len(values):
        pending = sorted(pending + np.flatnonzero(done & (values == 0)).tolist())
    if not pending:
        return values, errors, used

    refined, owner, freqs, span, heaps, total, total_err = [], [], [], [], [], [], []
    owned = owners.repeat(kappas)
    for j in pending:
        p, q, first = int(starts[j]), int(starts[j] + counts[j]), int(seeds[j])
        lo, hi = a[first : first + q - p], b[first : first + q - p]  # its family's seed panels
        if done[j]:
            if not sums[:, p:q].any():
                _check_blank(fn, owned[j], lo, hi, freq[j], budget.abs_floor)
            continue
        refined.append(j)
        owner.append(int(owned[j]))
        freqs.append(float(freq[j]))
        span.append((float(lo[0]), float(hi[-1])))
        heaps.append(_heap(lo, hi, left[p:q], right[p:q], err[p:q]))
        total.append(complex(values[j]))
        total_err.append(float(total_errs[j]))
    for j, result in zip(refined, _refine(fn, owner, freqs, span, heaps, total, total_err, budget)):
        values[j], errors[j], used[j] = result
    return values, errors, used


def _integrate_segments(fn, a: np.ndarray, b: np.ndarray, budget: QuadratureBudget, freq: np.ndarray):
    """Integrals j of fn(t, j) e^{i freq[j] t} over [a[j], b[j]] (a[j] < b[j]).

    Returns value, est_error and panels used per integral, each as
    ``integrate_segment`` computes it alone.
    """
    ones = np.ones(len(a), dtype=np.intp)
    return _integrate_seeds(fn, a, b, ones, np.arange(len(a)), ones, freq, budget)


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
    amplitude, else ValueError.  Without a key every integral is a loner, a
    family of one.  Families are numbered in the order of their first
    integral; each is planned, and its F evaluated on its seed panels, once:
    fn is called with its first integral as the owner.  A family whose whole
    integral lies below half the floor takes value 0 and no panels; the
    integrals of the others go to ``_integrate_seeds`` family by family.

    Validates every envelope first (InvalidDecay with DecayModel's message
    for the first bad one in input order), the families next, and then every
    truncation point: InvalidDecay for the first rate so small that 2T
    overflows.  Returns value, est_error, truncation_T and panels used per
    integral, each as ``integrate_ray`` computes it alone.
    """
    n = len(rate)
    # integral j's family, each family's first integral, and the integrals family by family: the identity for loners
    family = leaders = order = np.arange(n)
    if key is not None and n > 1:
        lex = np.lexsort(key[::-1])  # stable: each family in input order
        new = np.concatenate(([True], np.any([c[lex[1:]] != c[lex[:-1]] for c in key], axis=0)))
        if not new.all():
            # families are numbered in the order of their first integral
            leaders, family = np.sort(lex[new]), np.empty(n, dtype=np.intp)
            family[lex] = np.searchsorted(leaders, lex[new])[np.cumsum(new) - 1]
            first = leaders[family]
            if not (np.array_equal(rate[first], rate) and np.array_equal(amplitude[first], amplitude)):
                _check_envelopes(rate.tolist(), amplitude.tolist())  # a bad envelope is reported first
                raise ValueError("integrals that share a smooth factor must have the same rate and amplitude")
            rate, amplitude = rate[leaders], amplitude[leaders]
            order = np.argsort(family, kind="stable")
    kappas = np.bincount(family)  # integrals per family
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
    value, err, panels = np.zeros(n, dtype=complex), np.array(bound)[family], np.zeros(n, dtype=np.intp)
    if live:
        a, b, count = _ray_breakpoints([T[f] for f in live], [rates[f] for f in live])
        if len(live) < len(rates):  # seed the integrals of live families alone, still family by family
            order = order[np.bincount(live, minlength=len(rates)).repeat(kappas) > 0]
            leaders, kappas = leaders[live], kappas[live]
        values, errors, used = _integrate_seeds(fn, a, b, count, leaders, kappas, freq[order], budget)
        value[order], err[order], panels[order] = values, errors + err[order], used
    return value, err, np.array(T)[family], panels


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
