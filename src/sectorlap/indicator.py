"""Growth-rate (indicator) estimation along rays of the sector.

The indicator I(theta) = limsup_{s -> inf} ln|f(s e^{i theta})| / s is estimated
from samples on a geometric radius grid, at a float theta or at an array of
them (one call of f on the directions x radii grid).  Zeros and underflowed
samples (|f| below 1e-300) are skipped; if every sample of a direction underflows, its
indicator is certified to lie below a -1e9 sentinel (the identically-zero
case).  The limsup surrogate is the maximum of sliding-window means of the
per-sample slopes r_k = ln|f(s_k e^{i theta})| / s_k, restricted to the
trailing half of the windows; their spread doubles as a crude confidence width,
infinite when that half holds a single window (1 to 9 kept samples).
"""

from dataclasses import dataclass

import numpy as np

from .catalog import TestFunction, pick_oracle

__all__ = [
    "IndicatorEstimate",
    "estimate_indicator",
    "indicator_value",
    "INDICATOR_SENTINEL",
]

INDICATOR_SENTINEL = -1e9
OFFSET_CAP = 1e9
_UNDERFLOW = 1e-300
_WINDOW = 8
S_GRID = np.geomspace(1.0, 2.0**16, 64)  # the radius grid of an estimate given none
S_GRID.flags.writeable = False


@dataclass(frozen=True)
class IndicatorEstimate:
    theta: float
    value: float
    ci_width: float
    s_max: float


def _check_direction(theta, alpha: float) -> None:
    """ValueError naming the first of theta (a float or an array) outside the closed sector |theta| <= alpha + 1e-12."""
    th = np.asarray(theta, dtype=float)
    outside = th[~(np.abs(th) <= alpha + 1e-12)].tolist()
    if outside:
        raise ValueError(f"theta={outside[0]} outside the sector |theta| <= {alpha}")


def estimate_indicator(fn: TestFunction, theta, s_grid: np.ndarray | None = None) -> IndicatorEstimate:
    """Numeric indicator estimate at direction theta, from sliding windows of _WINDOW slopes.

    Requires |theta| <= fn.spec.alpha and an increasing radius grid of at least
    3*_WINDOW points.  For an array theta every field is an array of its shape.
    """
    _check_direction(theta, fn.spec.alpha)
    th = np.asarray(theta, dtype=float)
    s = S_GRID if s_grid is None else np.asarray(s_grid, dtype=float)
    if s.ndim != 1 or len(s) < 3 * _WINDOW:
        raise ValueError(f"s_grid needs at least 3*window={3 * _WINDOW} increasing points, got {len(s)}")
    if s_grid is not None and not (np.all(np.diff(s) > 0) and s[0] > 0):
        raise ValueError("s_grid must be positive and strictly increasing")

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # one row of samples per direction
        mags = np.abs(np.asarray(fn.evaluate(s * np.exp(1j * th.reshape(-1, 1))), dtype=complex))
        keep = np.isfinite(mags) & (mags >= _UNDERFLOW)
        kept = keep.sum(axis=1)
        w = np.minimum(kept, _WINDOW)[:, None]  # fewer than _WINDOW samples make one window of them all
        weighted = np.where(keep, np.log(mags) / s * (1.0 / w), 0.0)
    # window means as np.convolve rounds them: the kept slopes times 1/w, moved to the front, summed in order
    width = len(s) - _WINDOW + 1
    r = np.take_along_axis(weighted, np.argsort(~keep, kind="stable"), axis=1)
    means = sum(r[:, j : j + width] for j in range(_WINDOW))
    windows = kept[:, None] - w + 1
    tail = (np.arange(width) >= windows // 2) & (np.arange(width) < windows)
    hi = np.max(means, axis=1, where=tail, initial=-np.inf)  # a row with no sample has one window of zeros
    ci = hi - np.min(means, axis=1, where=tail, initial=np.inf)
    ci[(kept > 0) & (tail.sum(axis=1) == 1)] = np.inf  # a trailing half of one window has no spread to measure
    fields = (np.where(kept > 0, hi, INDICATOR_SENTINEL), ci, np.max(keep * s, axis=1))
    return IndicatorEstimate(theta, *(field.reshape(th.shape) if th.ndim else float(field[0]) for field in fields))


def indicator_value(fn: TestFunction, theta: float, source: str = "auto") -> tuple[float, bool]:
    """Indicator at theta with its provenance: (value, is_exact).

    source: "auto" prefers the oracle, "oracle" requires it, "numeric"
    forces estimation.  Values are floored at the -1e9 sentinel.
    """
    oracle = pick_oracle(fn, "indicator", source)
    if oracle is not None:
        return max(oracle(theta), INDICATOR_SENTINEL), True
    return estimate_indicator(fn, theta).value, False

