"""Acceptance checks with pinned tolerances.

Each criterion is a standalone function returning (passed, detail); the
registry runs them in order, printing one PASS/FAIL line per criterion.
The CLI ``selftest`` command and the acceptance test module both call into
this file so there is a single source of truth for the thresholds.
"""

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .catalog import make_exp, make_sum, trig_decay, zero_function
from .errors import InvalidApex
from .geometry import GrowthCertificate, SectorSpec, build_gamma
from .indicator import estimate_indicator, indicator_value
from .inversion import ReconstructionQuery, cauchy_path_check, reconstruct, roundtrip_report
from .laplace import TransformQuery, directional_transform, gamma_bound_check
from .probe import blowup_scan, gamma_prime_diagnostics, radius_scan
from .quadrature import QuadratureBudget, cauchy_kernel_check

__all__ = ["CriterionResult", "CRITERIA", "run_criteria"]

_SEED = 20260814
_ALPHA = math.pi / 4


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _z_grid(alpha: float = _ALPHA):
    """Nine points spread over the open sector: 3 radii x 3 angles."""
    return [
        radius * cmath.exp(1j * angle)
        for radius in (0.5, 1.0, 2.0)
        for angle in (-alpha / 2, 0.0, alpha / 2)
    ]


_ROUNDTRIP_CASES = (
    (make_exp(-1), -1.0),
    (make_exp(1), -2.0),
    (make_sum([(1, -1), (2, -2)]), -1.0),
)


def _c01_kernel_identity():
    budget = QuadratureBudget(rel_tol=1e-12, abs_floor=5e-14)
    tol = 1e-10
    worst = 0.0
    for re in np.linspace(-4.0, -0.01, 5):
        for im in np.linspace(-2.0, 2.0, 5):
            res = cauchy_kernel_check(complex(re, im), budget)
            worst = max(worst, abs(res.value))
    return worst <= tol, f"worst kernel residual {worst:.3e} (tol {tol:.0e}) over 25 grid points"


def _c02_transform_oracle():
    rng = np.random.default_rng(_SEED)
    budget = QuadratureBudget(rel_tol=1e-10, abs_floor=1e-13)
    tol = 1e-8
    worst = 0.0
    for a in (-1, 1, -1 + 1j, 2):
        fn = make_exp(a)
        for _ in range(50):
            theta = rng.uniform(-_ALPHA, _ALPHA)
            m = rng.uniform(0.3, 3.0)
            tau = rng.uniform(-3.0, 3.0)
            offset = -fn.indicator_oracle(theta)
            omega = (offset - m + 1j * tau) * cmath.exp(-1j * theta)
            num = directional_transform(TransformQuery(fn, theta, omega, budget)).value
            exact = fn.transform_oracle(omega)
            worst = max(worst, abs(num - exact) / abs(exact))
    return worst <= tol, f"worst relative error {worst:.3e} (tol {tol:.0e}) over 200 samples"


def _c03_direction_consistency():
    from .laplace import consistency_residual

    rng = np.random.default_rng(_SEED + 3)
    budget = QuadratureBudget(rel_tol=1e-10, abs_floor=1e-12)
    entries = [make_exp(-1), make_exp(1), make_exp(-1 + 1j), trig_decay(),
               make_sum([(1, -1), (2, -2)]), zero_function()]
    worst_ratio = 0.0
    for k in range(100):
        fn = entries[k % len(entries)]
        t1 = rng.uniform(-_ALPHA, _ALPHA)
        t2 = rng.uniform(-_ALPHA, _ALPHA)
        mid, spread = 0.5 * (t1 + t2), 0.5 * abs(t1 - t2)
        # sentinel indicators (identically-zero entry) would push omega out to
        # the offset cap; any moderate s keeps both margins comfortable there
        demand = max(indicator_value(fn, t1)[0], indicator_value(fn, t2)[0], -10.0)
        s = (demand + 0.3 + rng.uniform(0.0, 3.0)) / math.cos(spread)
        omega = -s * cmath.exp(-1j * mid)
        residual, combined = consistency_residual(fn, t1, t2, omega, budget)
        if residual > 0:
            worst_ratio = max(worst_ratio, residual / combined)
    ok = worst_ratio <= 2.0
    return ok, f"worst residual/est_error ratio {worst_ratio:.3f} (must be <= 2) over 100 triples"


def _c04_roundtrip():
    grids = _z_grid()
    worst_oracle = 0.0
    worst_numeric = 0.0
    for fn, p in _ROUNDTRIP_CASES:
        spec = SectorSpec(alpha=_ALPHA, h=fn.type_oracle(_ALPHA))
        rep = roundtrip_report(fn, spec, p, grids, QuadratureBudget(1e-9, 1e-12), g_source="oracle")
        if rep.failures:
            return False, f"oracle-g roundtrip raised on {rep.failures} points for {fn.id}"
        worst_oracle = max(worst_oracle, rep.max_rel)
        rep_n = roundtrip_report(fn, spec, p, grids, QuadratureBudget(1e-7, 1e-10), g_source="numeric")
        if rep_n.failures:
            return False, f"numeric-g roundtrip raised on {rep_n.failures} points for {fn.id}"
        worst_numeric = max(worst_numeric, rep_n.max_rel)
    ok = worst_oracle <= 1e-6 and worst_numeric <= 1e-4
    return ok, (
        f"max relative residual {worst_oracle:.3e} oracle-g (tol 1e-06), "
        f"{worst_numeric:.3e} numeric-g (tol 1e-04), 27 points"
    )


def _c05_cauchy_path():
    budget = QuadratureBudget(rel_tol=1e-11, abs_floor=5e-13)
    tol = 1e-8
    worst = 0.0
    for fn, p in _ROUNDTRIP_CASES:
        spec = SectorSpec(alpha=_ALPHA, h=fn.type_oracle(_ALPHA))
        for z in _z_grid():
            residual, _ = cauchy_path_check(fn, spec, p, z, budget)
            worst = max(worst, residual / abs(2j * math.pi * complex(fn.evaluate(z))))
    return worst <= tol, f"worst relative residual {worst:.3e} (tol {tol:.0e}) over 27 points"


def _c06_apex_invariance():
    budget = QuadratureBudget(rel_tol=1e-9, abs_floor=1e-12)
    worst_slack = -math.inf
    for fn, p in _ROUNDTRIP_CASES:
        spec = SectorSpec(alpha=_ALPHA, h=fn.type_oracle(_ALPHA))
        g1 = build_gamma(spec, p)
        g2 = build_gamma(spec, p - 1.0)
        for z in _z_grid():
            r1 = reconstruct(ReconstructionQuery(fn, g1, z, budget, "oracle"))
            r2 = reconstruct(ReconstructionQuery(fn, g2, z, budget, "oracle"))
            slack = abs(r1.value - r2.value) - (r1.est_error + r2.est_error)
            worst_slack = max(worst_slack, slack)
    ok = worst_slack <= 0.0
    return ok, f"worst |difference| - combined est_error = {worst_slack:.3e} (must be <= 0)"


def _c07_gamma_bound():
    budget = QuadratureBudget(rel_tol=1e-9, abs_floor=1e-12)
    cert = GrowthCertificate(epsilon=0.1, c_epsilon=1.0)
    worst = -math.inf
    for fn, p in ((make_exp(-1), -1.0), (make_exp(1), -2.0)):
        spec = SectorSpec(alpha=_ALPHA, h=fn.type_oracle(_ALPHA))
        gamma = build_gamma(spec, p)
        worst = max(worst, gamma_bound_check(fn, cert, gamma, samples=200, budget=budget))
    return worst <= 0.0, f"worst |g| excess over the contour bound {worst:.3e} (must be <= 0)"


def _c08_indicator():
    tol = 0.02
    worst = 0.0
    for a in (1, -1, 1j):
        fn = make_exp(a)
        for theta in np.linspace(-_ALPHA, _ALPHA, 9):
            est = estimate_indicator(fn, float(theta))
            exact = (a * cmath.exp(1j * theta)).real
            worst = max(worst, abs(est.value - exact))
    return worst <= tol, f"worst indicator deviation {worst:.3e} (tol {tol}) over 27 samples"


def _c09_singularity_probes():
    loc_tol, exp_tol, rad_tol = 1e-3, 0.1, 0.05
    worst_loc = 0.0
    worst_exp = 0.0
    for a in (1, -1, -1 + 1j):
        fn = make_exp(a)
        scan = blowup_scan(fn, 0.0)
        if not scan.detected:
            return False, f"no blow-up detected for {fn.id} at theta=0"
        worst_loc = max(worst_loc, abs(scan.boundary_point - (-complex(a))))
        worst_exp = max(worst_exp, abs(scan.blowup_exponent - (-1.0)))
    fn = make_exp(1)
    worst_rad = 0.0
    for center, dist in ((-2.0, 1.0), (-3.0, 2.0)):
        rs = radius_scan(fn, center)
        worst_rad = max(worst_rad, abs(rs.radius_estimate - dist) / dist)
    ok = worst_loc <= loc_tol and worst_exp <= exp_tol and worst_rad <= rad_tol
    return ok, (
        f"singularity location off by {worst_loc:.2e} (tol {loc_tol}), exponent off by "
        f"{worst_exp:.2e} (tol {exp_tol}), radius off by {worst_rad:.2%} (tol {rad_tol:.0%})"
    )


def _c10_truncated_contour():
    fn = make_exp(1)
    diag = gamma_prime_diagnostics(fn, _ALPHA, 0.0, q=-0.5 - 1.2j, r=-0.5 + 1.2j)
    bound = -diag.inf_projection + 0.02
    worst = max(diag.slopes)
    ok = worst <= bound
    return ok, (
        f"J slopes {tuple(round(s, 4) for s in diag.slopes)} vs bound {bound:.4f}; "
        f"indicator 1.0 exceeds attainable rate {-diag.inf_projection:.2f}"
    )


def _c11_apex_gate():
    rng = np.random.default_rng(_SEED + 11)
    mismatches = 0
    for _ in range(100):
        alpha = rng.uniform(0.05, math.pi / 2 - 0.05)
        h = rng.uniform(0.0, 3.0)
        p = rng.uniform(-6.0, 1.0)
        should_pass = p * math.cos(alpha) < -h
        try:
            build_gamma(SectorSpec(alpha=alpha, h=h), p)
            did_pass = True
        except InvalidApex:
            did_pass = False
        if did_pass != should_pass:
            mismatches += 1
    return mismatches == 0, f"{mismatches} gate mismatches over 100 randomized apex cases"


CRITERIA: tuple[tuple[int, str, Callable], ...] = (
    (1, "kernel-identity", _c01_kernel_identity),
    (2, "transform-oracle-match", _c02_transform_oracle),
    (3, "direction-consistency", _c03_direction_consistency),
    (4, "roundtrip", _c04_roundtrip),
    (5, "boundary-ray-identity", _c05_cauchy_path),
    (6, "apex-invariance", _c06_apex_invariance),
    (7, "contour-bound", _c07_gamma_bound),
    (8, "indicator-accuracy", _c08_indicator),
    (9, "singularity-probes", _c09_singularity_probes),
    (10, "truncated-contour-slopes", _c10_truncated_contour),
    (11, "apex-gate", _c11_apex_gate),
)


def run_criteria(numbers: Optional[Iterable[int]] = None) -> list[CriterionResult]:
    """Run the criteria numbered ``numbers`` (all when None), printing one line per criterion."""
    wanted = set(numbers) if numbers is not None else None
    results = []
    for number, name, func in CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CriterionResult(number, name, passed, detail, elapsed))
        status = "PASS" if passed else "FAIL"
        print(f"{status} criterion {number:02d} [{name}]: {detail} ({elapsed:.1f}s)")
    return results
