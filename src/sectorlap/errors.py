"""Exception taxonomy shared by all modules.

Every failure that carries mathematical meaning gets its own class so callers
(and the CLI exit-code mapping) can tell configuration mistakes apart from
numerical trouble. Messages are expected to name the violated constraint.
"""

__all__ = [
    "SectorLapError",
    "InvalidApex",
    "BudgetExceeded",
    "InvalidDecay",
    "OutsideDomain",
    "OutsideUnion",
    "OutsideSector",
    "AngularMarginTooSmall",
    "IllConditioned",
]


class SectorLapError(Exception):
    """Base class for all library errors."""


class InvalidApex(SectorLapError):
    """Contour apex fails the admissibility gate p*cos(alpha) < -h."""


class BudgetExceeded(SectorLapError):
    """Adaptive quadrature hit its panel budget before reaching tolerance."""


class InvalidDecay(SectorLapError):
    """A ray integral was requested without a positive decay rate."""


class OutsideDomain(SectorLapError):
    """Transform evaluation point lies outside (or too close to) Omega_theta."""


class OutsideUnion(SectorLapError):
    """No admissible direction: the point is outside the union of half-planes."""


class OutsideSector(SectorLapError):
    """Evaluation point is not in the open sector."""


class AngularMarginTooSmall(SectorLapError):
    """Evaluation point is too close to the sector boundary rays."""


class IllConditioned(SectorLapError):
    """A fit or expansion lost too much precision to be trusted."""
