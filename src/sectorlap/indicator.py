"""Growth-rate (indicator) estimation along rays of the sector.

The indicator I(theta) = limsup_{s -> inf} ln|f(s e^{i theta})| / s is
estimated from samples on a geometric radius grid.  Zeros and underflowed
samples (|f| below 1e-300) are skipped; if every sample underflows, the
indicator is certified to lie below a -1e9 sentinel (the identically-zero
case).  The limsup surrogate is the maximum of sliding-window means of the
per-sample slopes r_k = ln|f(s_k e^{i theta})| / s_k, restricted to the
trailing half of the windows; their spread doubles as a crude confidence
width.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .catalog import TestFunction, pick_oracle

__all__ = [
    "IndicatorEstimate",
    "estimate_indicator",
    "default_s_grid",
    "INDICATOR_SENTINEL",
    "OFFSET_CAP",
]

INDICATOR_SENTINEL = -1e9
OFFSET_CAP = 1e9
_UNDERFLOW = 1e-300
_WINDOW = 8


def default_s_grid(s_min: float = 1.0, s_max: float = 2.0**16, count: int = 64) -> np.ndarray:
    return np.geomspace(s_min, s_max, count)


@dataclass(frozen=True)
class IndicatorEstimate:
    theta: float
    value: float
    ci_width: float
    s_max: float


def estimate_indicator(fn: TestFunction, theta: float, s_grid: np.ndarray | None = None) -> IndicatorEstimate:
    """Numeric indicator estimate at direction theta, from sliding windows of _WINDOW slopes.

    Requires |theta| <= fn.spec.alpha and an increasing radius grid of at
    least 3*_WINDOW points.
    """
    if not abs(theta) <= fn.spec.alpha + 1e-12:
        raise ValueError(f"direction theta={theta} outside the closed sector |theta| <= {fn.spec.alpha}")
    s = np.asarray(default_s_grid() if s_grid is None else s_grid, dtype=float)
    if s.ndim != 1 or len(s) < 3 * _WINDOW:
        raise ValueError(f"s_grid needs at least 3*window={3 * _WINDOW} increasing points, got {len(s)}")
    if not (np.all(np.diff(s) > 0) and s[0] > 0):
        raise ValueError("s_grid must be positive and strictly increasing")

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mags = np.abs(np.asarray(fn.evaluate(s * cmath.exp(1j * theta)), dtype=complex))
    keep = np.isfinite(mags) & (mags >= _UNDERFLOW)
    s_ok = s[keep]
    if len(s_ok) == 0:
        return IndicatorEstimate(theta=theta, value=INDICATOR_SENTINEL, ci_width=0.0, s_max=0.0)
    r = np.log(mags[keep]) / s_ok

    w = min(_WINDOW, len(r))
    means = np.convolve(r, np.ones(w) / w, mode="valid")
    tail = means[len(means) // 2 :]
    value = float(np.max(tail))
    ci = float(np.max(tail) - np.min(tail))
    return IndicatorEstimate(theta=theta, value=value, ci_width=ci, s_max=float(s_ok[-1]))


def indicator_value(fn: TestFunction, theta: float, source: str = "auto") -> tuple[float, bool]:
    """Indicator at theta with its provenance: (value, is_exact).

    source: "auto" prefers the oracle, "oracle" requires it, "numeric"
    forces estimation.  Values are floored at the -1e9 sentinel.
    """
    oracle = pick_oracle(fn, "indicator", source)
    if oracle is not None:
        return max(oracle(theta), INDICATOR_SENTINEL), True
    return estimate_indicator(fn, theta).value, False

