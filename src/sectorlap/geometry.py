"""Sectors, growth certificates, and the V-shaped inversion contour.

Conventions used throughout the package:

* angles are radians, arg is taken in (-pi, pi]
* a sector with half-angle alpha in (0, pi/2) is {z != 0 : |arg z| < alpha};
  its closure adds the two boundary rays and the origin
* the half-plane attached to direction theta is
  Omega(theta, offset) = {w : Re(w e^{i theta}) < offset}
* the inversion contour is the V with apex p on the real axis and legs

      lower:  w(u) = p - i e^{+i alpha} u,   u >= 0
      upper:  w(t) = p + i e^{-i alpha} t,   t >= 0

  traversed with increasing contour parameter (in along the lower leg,
  out along the upper one).  The apex is admissible iff p*cos(alpha) < -h
  for the exponential type h at hand; both legs then keep a uniformly
  positive transform margin.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidApex

__all__ = [
    "SectorSpec",
    "GrowthCertificate",
    "ContourGamma",
    "sector_contains",
    "build_gamma",
]


@dataclass(frozen=True)
class SectorSpec:
    """Open sector of half-angle ``alpha`` carrying functions of type <= ``h``."""

    alpha: float
    h: float = 0.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (self.h >= 0.0 and math.isfinite(self.h)):
            raise ValueError(f"exponential type h must be finite and >= 0, got {self.h}")


def _check_alpha(alpha: float) -> float:
    """alpha itself, or ValueError unless 0 < alpha < pi/2 (nan is not)."""
    if not (0.0 < alpha < math.pi / 2):
        raise ValueError(f"sector half-angle must satisfy 0 < alpha < pi/2, got {alpha}")
    return alpha


@dataclass(frozen=True)
class GrowthCertificate:
    """Witness pair (epsilon, c_epsilon) for |f(z)| <= c_epsilon * e^{(h+epsilon)|z|}."""

    epsilon: float
    c_epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.c_epsilon >= 0.0 and math.isfinite(self.c_epsilon)):
            raise ValueError(f"c_epsilon must be finite and >= 0, got {self.c_epsilon}")


@dataclass(frozen=True)
class ContourGamma:
    """The V contour with apex ``p`` and legs at angles -+ (pi/2 - alpha) off the real axis.

    Use :func:`build_gamma` to construct one; direct construction skips the
    apex admissibility gate.
    """

    p: float
    alpha: float

    @property
    def lower_direction(self) -> complex:
        """Displacement direction of the lower leg (points away from the apex)."""
        return -1j * cmath.exp(1j * self.alpha)

    @property
    def upper_direction(self) -> complex:
        return 1j * cmath.exp(-1j * self.alpha)


def sector_contains(spec: SectorSpec, z: complex) -> bool:
    """Membership of z in the open sector, which holds neither the origin nor the boundary rays.

    arg is taken in (-pi, pi], so the negative real axis never belongs.
    """
    return z != 0 and -spec.alpha < cmath.phase(z) < spec.alpha


def _ray_distance(pt: complex, start: complex, theta: float) -> float:
    """Distance from pt to the ray start + e^{i theta} [0, inf)."""
    rel = pt - start
    phi = cmath.phase(rel * cmath.exp(-1j * theta))
    if abs(phi) >= math.pi / 2:
        return abs(rel)
    return abs(rel) * abs(math.sin(phi))


def build_gamma(spec: SectorSpec, p: float) -> ContourGamma:
    """Validated contour constructor.

    Raises InvalidApex unless p is finite and p*cos(alpha) < -h; that
    inequality is exactly what keeps the transform margin positive along
    both legs.
    """
    if not math.isfinite(p):
        raise InvalidApex(f"invalid apex p={p!r}: the apex must be finite")
    gate = p * math.cos(spec.alpha)
    if not gate < -spec.h:
        raise InvalidApex(
            f"invalid apex p={p!r}: requires p*cos(alpha) < -h, "
            f"got p*cos(alpha)={gate!r} >= {-spec.h!r}"
        )
    return ContourGamma(p=p, alpha=spec.alpha)
