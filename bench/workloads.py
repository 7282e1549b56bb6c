"""Seeded input generators and per-operation correctness checks.

Each workload is an endless stream of operations for one closed-loop caller.
A generator takes the seed and yields ``Op`` objects; ``Op.run`` calls the
program through its public API (or its CLI, in process) with nothing but
the generated inputs, and ``Op.check`` compares the output against the
catalog oracles at the acceptance tolerances.  Inputs follow a fixed cycle
of operation kinds and entries; the seed draws every continuous parameter.

All program calls go through module attributes (``inversion.reconstruct``,
``cli.main``, ...) so that the tracer's wrappers see them.
"""

import cmath
import contextlib
import csv
import io
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

import sectorlap.catalog as catalog
import sectorlap.cli as cli
import sectorlap.inversion as inversion
import sectorlap.laplace as laplace
import sectorlap.probe as probe
from sectorlap.geometry import GrowthCertificate, SectorSpec, build_gamma
from sectorlap.quadrature import QuadratureBudget, cauchy_kernel_check

ALPHA = math.pi / 4
EXP_M1 = "exp:a=-1"
EXP_P1 = "exp:a=1"
EXP_C = "exp:a=-1+1i"
SUM = "sum:a1=-1,c1=1,a2=-2,c2=2"
TRIG = "trig"
RATIONAL = "rational"

# contour apex per entry (the acceptance tests' choice where they have one)
APEX = {EXP_M1: -1.0, EXP_P1: -2.0, EXP_C: -1.0, SUM: -1.0, TRIG: -2.0, RATIONAL: -1.0}
# the pole of g that lies on the boundary of every admissible half-plane
BOUNDARY_POLE = {EXP_M1: 1.0, EXP_P1: -1.0, EXP_C: 1 - 1j, SUM: 1.0, TRIG: -1j}

NESTED_BUDGET = QuadratureBudget(1e-7, 1e-10)  # criterion 4, numeric g
CHECK_BUDGET = QuadratureBudget(1e-9, 1e-12)  # criterion 7; also the CLI's default --rel-tol/--abs-floor
INVERSION_TOL = 1e-4  # criterion 4, numeric g
ORACLE_INVERSION_TOL = 1e-6  # criterion 4, oracle g
TRANSFORM_TOL = 1e-8  # criterion 2
INDICATOR_TOL = 0.02  # criterion 8
LOCATION_TOL, EXPONENT_TOL, RADIUS_TOL = 1e-3, 0.1, 0.05  # criterion 9
SLOPE_SLACK = 0.02  # criterion 10


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when correct, else the reason


# bound at import, before any tracer runs: checks never touch wrapped entries
_resolve = catalog.resolve
_ORACLES: dict = {}


def _oracle_entry(fn_id: str):
    """Unwrapped entry for checks, resolved once per id."""
    if fn_id not in _ORACLES:
        _ORACLES[fn_id] = _resolve(fn_id)
    return _ORACLES[fn_id]


def _rel(value: complex, exact: complex) -> float:
    return abs(value - exact) / abs(exact)


def _sector(fn) -> SectorSpec:
    return SectorSpec(alpha=ALPHA, h=catalog.type_for(fn, ALPHA))


# -- nested-inversion ---------------------------------------------------------

NESTED_ENTRIES = (EXP_M1, EXP_P1, EXP_C, SUM, TRIG, RATIONAL)
# A cycle of 12 points, two per entry, each in its own radius stratum and
# angle stratum (12 equal strata of [0.5, 2] and of [-alpha/2, alpha/2]);
# the seed places each point inside its strata.  One point costs 0.5-10 s,
# so a run sees only about one cycle: the fixed assignment gives every run
# the same spread of costs, interleaved cheap and dear, and the seed moves
# each cost by a few percent instead of reshuffling the mix.
NESTED_RADIUS_STRATA = (4, 1, 0, 8, 11, 10, 5, 2, 3, 6, 9, 7)
NESTED_ANGLE_STRATA = (11, 5, 1, 2, 10, 3, 7, 4, 9, 0, 6, 8)


def nested_inversion(seed: int, workdir: str) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    cycle = len(NESTED_RADIUS_STRATA)
    for k in itertools.count():
        fn_id = NESTED_ENTRIES[k % len(NESTED_ENTRIES)]
        u_r = (NESTED_RADIUS_STRATA[k % cycle] + rng.random()) / cycle
        u_a = (NESTED_ANGLE_STRATA[k % cycle] + rng.random()) / cycle
        z = (0.5 + 1.5 * u_r) * cmath.exp(1j * ALPHA * (u_a - 0.5))
        yield reconstruct_op(fn_id, APEX[fn_id], complex(z))


def reconstruct_op(fn_id: str, p: float, z: complex) -> Op:
    expected = complex(_oracle_entry(fn_id).evaluate(z))

    def run():
        fn = catalog.resolve(fn_id)
        gamma = build_gamma(_sector(fn), p)
        return inversion.reconstruct(
            inversion.ReconstructionQuery(fn, gamma, z, NESTED_BUDGET, g_source="numeric")
        )

    def check(res):
        rel = _rel(res.value, expected)
        return None if rel <= INVERSION_TOL else f"relative residual {rel:.3e} > {INVERSION_TOL:g}"

    return Op(f"reconstruct {fn_id} z={z:.4f}", run, check)


# -- cli-closed-form ----------------------------------------------------------

ORACLE_ENTRIES = (EXP_M1, EXP_P1, EXP_C, SUM, TRIG)
INDICATOR_ENTRIES = (EXP_P1, EXP_M1, TRIG, EXP_C)
PROBE_ENTRIES = (EXP_P1, EXP_M1, EXP_C)
CLI_KINDS = (
    "transform-theta",
    "transform-select",
    "transform-select-numeric",
    "invert",
    "roundtrip",
    "indicator",
    "probe",
)
_TRANSFORM_BUDGET = ["--rel-tol", "1e-10", "--abs-floor", "1e-13"]  # criterion 2


def _num(x: float) -> str:
    return repr(float(x))


def _cplx(c: complex) -> str:
    c = complex(c)
    return f"{c.real!r}{c.imag:+.17g}i"


def _join(values, fmt) -> str:
    return ",".join(fmt(v) for v in values)


def cli_closed_form(seed: int, workdir: str) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    out = os.path.join(workdir, "out.csv")
    for k in itertools.count():
        kind = CLI_KINDS[k % len(CLI_KINDS)]
        turn = k // len(CLI_KINDS)
        if kind == "indicator":
            fn_id = INDICATOR_ENTRIES[turn % len(INDICATOR_ENTRIES)]
        elif kind == "probe":
            fn_id = PROBE_ENTRIES[turn % len(PROBE_ENTRIES)]
        else:
            fn_id = ORACLE_ENTRIES[turn % len(ORACLE_ENTRIES)]
        yield _CLI_BUILDERS[kind](rng, fn_id, out)


def _omegas(rng, fn, thetas):
    """Points of Omega_theta with margin in [0.3, 3], as criterion 2 draws them."""
    return [
        complex((-fn.indicator_oracle(t) - rng.uniform(0.3, 3.0) + 1j * rng.uniform(-3.0, 3.0)) * cmath.exp(-1j * t))
        for t in thetas
    ]


def _transform_op(rng, fn_id, out, mode):
    fn = _oracle_entry(fn_id)
    argv = ["transform", "--fn", fn_id] + _TRANSFORM_BUDGET
    if mode == "theta":
        theta = rng.uniform(-ALPHA, ALPHA)
        omegas = _omegas(rng, fn, [theta] * 3)
        argv += ["--theta", _num(theta)]
    else:
        omegas = _omegas(rng, fn, rng.uniform(-ALPHA, ALPHA, 3))
        argv += ["--alpha", _num(ALPHA)]
        if mode == "numeric":
            argv += ["--indicator-source", "numeric"]
    argv += ["--omega", _join(omegas, _cplx)]

    def check(rows):
        if len(rows) != len(omegas):
            return f"{len(rows)} rows for {len(omegas)} points"
        for omega, row in zip(omegas, rows):
            rel = _rel(_row_complex(row, "value"), fn.transform_oracle(omega))
            if not rel <= TRANSFORM_TOL:
                return f"omega={omega:.4f}: relative error {rel:.3e} > {TRANSFORM_TOL:g}"
        return None

    return _cli_op(f"cli transform[{mode}] {fn_id}", argv, out, check)


def _invert_op(rng, fn_id, out):
    fn = _oracle_entry(fn_id)
    radii, angles = rng.uniform(0.5, 2.0, 2), rng.uniform(-ALPHA / 2, ALPHA / 2, 2)
    zs = [complex(r * cmath.exp(1j * a)) for r, a in zip(radii, angles)]
    argv = ["invert", "--fn", fn_id, "--p", _num(APEX[fn_id]), "--z", _join(zs, _cplx), "--g-source", "oracle"]

    def check(rows):
        if len(rows) != len(zs):
            return f"{len(rows)} rows for {len(zs)} points"
        for z, row in zip(zs, rows):
            rel = _rel(_row_complex(row, "value"), complex(fn.evaluate(z)))
            if not rel <= ORACLE_INVERSION_TOL:
                return f"z={z:.4f}: relative residual {rel:.3e} > {ORACLE_INVERSION_TOL:g}"
        return None

    return _cli_op(f"cli invert {fn_id}", argv, out, check)


def _roundtrip_op(rng, fn_id, out):
    fn = _oracle_entry(fn_id)
    radii = np.sort(rng.uniform(0.5, 2.0, 2))
    argv = ["roundtrip", "--fn", fn_id, "--p", _num(APEX[fn_id]), "--radii", _join(radii, _num), "--g-source", "oracle"]

    def check(rows):
        if len(rows) != 6:
            return f"{len(rows)} rows for 6 grid points"
        for row in rows:
            z = _row_complex(row, "z")
            rel = _rel(_row_complex(row, "value"), complex(fn.evaluate(z)))
            if not rel <= ORACLE_INVERSION_TOL:
                return f"z={z:.4f}: relative residual {rel:.3e} > {ORACLE_INVERSION_TOL:g}"
        return None

    return _cli_op(f"cli roundtrip {fn_id}", argv, out, check)


def _indicator_op(rng, fn_id, out):
    fn = _oracle_entry(fn_id)
    thetas = np.sort(rng.uniform(-ALPHA, ALPHA, 5))
    argv = ["indicator", "--fn", fn_id, "--alpha", _num(ALPHA), "--thetas", _join(thetas, _num)]

    def check(rows):
        if len(rows) != len(thetas):
            return f"{len(rows)} rows for {len(thetas)} directions"
        for theta, row in zip(thetas, rows):
            dev = abs(float(row["estimate"]) - fn.indicator_oracle(theta))
            if not dev <= INDICATOR_TOL:
                return f"theta={theta:.4f}: deviation {dev:.3e} > {INDICATOR_TOL}"
        return None

    return _cli_op(f"cli indicator {fn_id}", argv, out, check)


def _probe_op(rng, fn_id, out):
    fn = _oracle_entry(fn_id)
    pole = BOUNDARY_POLE[fn_id]
    theta = rng.uniform(-0.7, 0.7)
    x, y_lo, y_hi = rng.uniform(0.3, 0.7), rng.uniform(0.8, 1.6), rng.uniform(0.8, 1.6)
    # chord left of the pole, so that J at the largest s stays far above the
    # quadrature floor (see DIAGNOSTICS_DEFECT)
    q, r = pole - x - 1j * y_lo, pole - x + 1j * y_hi
    argv = ["probe", "--fn", fn_id, "--theta", _num(theta), "--q", _cplx(q), "--r", _cplx(r), "--g-source", "oracle"]
    # the CLI's radius scan expands at unit margin inside the boundary point nearest the origin
    center = (-fn.indicator_oracle(theta) - 1.0) * cmath.exp(-1j * theta)
    distance = abs(center - pole)
    phase = cmath.exp(1j * theta)
    slope_bound = -min((q * phase).real, (r * phase).real) + SLOPE_SLACK

    def check(rows):
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        row = rows[0]
        if row["detected"] != "true":
            return "no blow-up detected"
        found = complex(float(row["singularity_re"]), float(row["singularity_im"]))
        reason = _scan_reason(found, float(row["blowup_exponent"]), pole)
        if reason:
            return reason
        if not row["radius_estimate"]:
            return "radius scan gave no estimate"
        rel = abs(float(row["radius_estimate"]) - distance) / distance
        if not rel <= RADIUS_TOL:
            return f"radius off by {rel:.2%} > {RADIUS_TOL:.0%}"
        slopes = [float(row[k]) for k in ("j_slope_chord", "j_slope_upper", "j_slope_lower")]
        if not max(slopes) <= slope_bound:
            return f"J slope {max(slopes):.4f} above bound {slope_bound:.4f}"
        return None

    return _cli_op(f"cli probe {fn_id}", argv, out, check)


_CLI_BUILDERS = {
    "transform-theta": lambda rng, fn_id, out: _transform_op(rng, fn_id, out, "theta"),
    "transform-select": lambda rng, fn_id, out: _transform_op(rng, fn_id, out, "auto"),
    "transform-select-numeric": lambda rng, fn_id, out: _transform_op(rng, fn_id, out, "numeric"),
    "invert": _invert_op,
    "roundtrip": _roundtrip_op,
    "indicator": _indicator_op,
    "probe": _probe_op,
}


def _row_complex(row, prefix) -> complex:
    return complex(float(row[f"{prefix}_re"]), float(row[f"{prefix}_im"]))


def _cli_op(label, argv, out, check_rows) -> Op:
    """One in-process ``sectorlap`` invocation; the check reads its CSV back."""

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", out])
        return code, err.getvalue()

    def check(result):
        code, stderr = result
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        try:
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
        return check_rows(rows)

    return Op(label, run, check)


# -- numeric-probes -----------------------------------------------------------

# (operation, entry) cycle; blow-up directions stay where the scan resolves the
# pole within its panel budget, the rest are measured by known_defect_scans()
PROBE_CYCLE = (
    ("blowup", EXP_M1),
    ("radius", EXP_P1),
    ("gamma", EXP_M1),
    ("blowup", EXP_P1),
    ("radius", EXP_C),
    ("gamma", EXP_P1),
    ("blowup", EXP_C),
    ("radius", TRIG),
    ("gamma", TRIG),
    ("blowup", SUM),
    ("radius", SUM),
    ("gamma", EXP_C),
)
BLOWUP_THETAS = {EXP_M1: (-ALPHA, ALPHA), EXP_P1: (-ALPHA, ALPHA), EXP_C: (0.3, ALPHA), SUM: (-0.05, 0.05)}
# directions where numeric blow-up scans fail in sectorlap 0.1.0: the
# oscillation cap of an off-axis pole needs more initial panels than the
# budget allows, and the sum entry's second pole biases the located one
KNOWN_DEFECT_THETAS = ((EXP_C, (-ALPHA, 0.1)), (TRIG, (-0.6, 0.6)), (SUM, (0.3, ALPHA)))


def numeric_probes(seed: int, workdir: str) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    for k in itertools.count():
        kind, fn_id = PROBE_CYCLE[k % len(PROBE_CYCLE)]
        u = _stratified(rng, k // len(PROBE_CYCLE))
        if kind == "blowup":
            lo, hi = BLOWUP_THETAS[fn_id]
            yield _blowup_op(fn_id, lo + (hi - lo) * u)
        elif kind == "radius":
            radius, phi = 0.5 + 1.5 * u, rng.uniform(-ALPHA / 2, ALPHA / 2)
            yield radius_op(fn_id, BOUNDARY_POLE[fn_id] - radius * cmath.exp(1j * phi))
        else:
            yield _gamma_op(fn_id, APEX[fn_id] - u)


# A run makes about seven passes over PROBE_CYCLE; pass j draws each step's
# main parameter from stratum _PASS_STRATA[j % 6] of six, so every run
# spreads its directions, distances and apexes alike.
_PASS_STRATA = (0, 3, 1, 4, 2, 5)


def _stratified(rng, visit: int) -> float:
    return (_PASS_STRATA[visit % len(_PASS_STRATA)] + rng.random()) / len(_PASS_STRATA)


# (entry, theta, q, r) where the fitted J slope of gamma_prime_diagnostics
# exceeds the criterion-10 bound: J at s = 28 (about 1e-20) lies far below
# the quadrature's absolute floor, so its last points are noise
DIAGNOSTICS_DEFECT = (
    EXP_C,
    0.39529476793467855,
    1.696501998511685 - 2.5084983623913182j,
    1.696501998511685 - 0.079196479679239151j,
)


def known_defect_scans(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for fn_id, (lo, hi) in KNOWN_DEFECT_THETAS:
        theta = rng.uniform(lo, hi)
        ops.append(_blowup_op(fn_id, -theta if fn_id == SUM and rng.random() < 0.5 else theta))
    ops.append(_diagnostics_op(*DIAGNOSTICS_DEFECT))
    return ops


def _diagnostics_op(fn_id, theta, q, r) -> Op:
    def run():
        return probe.gamma_prime_diagnostics(catalog.resolve(fn_id), ALPHA, theta, q, r, budget=CHECK_BUDGET)

    def check(diag):
        bound = -diag.inf_projection + SLOPE_SLACK
        worst = max(diag.slopes)
        return None if worst <= bound else f"J slope {worst:.4f} above bound {bound:.4f}"

    return Op(f"gamma_prime_diagnostics {fn_id} theta={theta:.4f}", run, check)


def _scan_reason(found: complex, exponent: float, pole: complex) -> Optional[str]:
    off = abs(found - pole)
    if not off <= LOCATION_TOL:
        return f"singularity off by {off:.2e} > {LOCATION_TOL:g}"
    if not abs(exponent + 1.0) <= EXPONENT_TOL:
        return f"blow-up exponent {exponent:.4f} not within {EXPONENT_TOL} of -1"
    return None


def _blowup_op(fn_id, theta) -> Op:
    pole = BOUNDARY_POLE[fn_id]

    def run():
        return probe.blowup_scan(catalog.resolve(fn_id), float(theta), g_source="numeric")

    def check(scan):
        if not scan.detected:
            return "no blow-up detected"
        return _scan_reason(scan.boundary_point, scan.blowup_exponent, pole)

    return Op(f"blowup_scan {fn_id} theta={theta:.4f}", run, check)


def radius_op(fn_id, center) -> Op:
    distance = min(abs(center - s) for s in _oracle_entry(fn_id).singularities_of_g)

    def run():
        return probe.radius_scan(catalog.resolve(fn_id), complex(center), g_source="numeric")

    def check(scan):
        rel = abs(scan.radius_estimate - distance) / distance
        return None if rel <= RADIUS_TOL else f"radius off by {rel:.2%} > {RADIUS_TOL:.0%}"

    return Op(f"radius_scan {fn_id} center={center:.4f}", run, check)


def _gamma_op(fn_id, p) -> Op:
    def run():
        fn = catalog.resolve(fn_id)
        gamma = build_gamma(_sector(fn), float(p))
        cert = GrowthCertificate(epsilon=0.1, c_epsilon=fn.envelope_const)
        return laplace.gamma_bound_check(fn, cert, gamma, budget=CHECK_BUDGET)

    def check(excess):
        return None if excess <= 0.0 else f"|g| exceeds the contour bound by {excess:.3e}"

    return Op(f"gamma_bound_check {fn_id} p={p:.4f}", run, check)


# -- registry -----------------------------------------------------------------


def _warm_quadrature(workdir):
    cauchy_kernel_check(-1 + 0.5j)


def _warm_cli(workdir):
    out = os.path.join(workdir, "warmup.csv")
    cli.main(["indicator", "--fn", EXP_P1, "--theta-grid", "3", "--out", out])
    os.remove(out)


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int, str], Iterator[Op]]
    warmup: Callable[[str], None]
    # reported tail percentile: the highest with ten samples above it in a run
    # of the parent program (12 or 24, about 4000, and 84 or 96 timed operations)
    tail_percentile: float
    # operations after which the mix of kinds, entries and strata repeats
    cycle: int


# the CLI kinds turn with period 7; their entries with the lcm of the entry lists
CLI_CYCLE = len(CLI_KINDS) * math.lcm(len(ORACLE_ENTRIES), len(INDICATOR_ENTRIES), len(PROBE_ENTRIES))

WORKLOADS = {
    "nested-inversion": Workload(nested_inversion, _warm_quadrature, 50.0, len(NESTED_RADIUS_STRATA)),
    "cli-closed-form": Workload(cli_closed_form, _warm_cli, 99.0, CLI_CYCLE),
    "numeric-probes": Workload(numeric_probes, _warm_quadrature, 75.0, len(PROBE_CYCLE)),
}


def first_inputs(name: str, seed: int, count: int = 64) -> list:
    """The inputs a run starts from; set-up time covers generating these."""
    return list(itertools.islice(WORKLOADS[name].generate(seed, "."), count))
