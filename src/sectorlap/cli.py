"""Command line front end.

Every subcommand writes CSV (UTF-8, LF line endings, one header row, complex
quantities split into _re/_im columns, floats at 17 significant digits) either
to --out or to stdout.  Exit codes: 0 success, 2 configuration or usage error,
3 numeric failure (a sample point outside the admissible domain, an exhausted
quadrature budget, a non-finite integrand value or integrand envelope, a
reconstructed value that is not above its own est_error, or a residual above
the configured threshold).
"""

import argparse
import cmath
import contextlib
import csv
import functools
import math
import sys
from typing import Optional

import numpy as np

from .catalog import ORACLE_SOURCES, parse_complex, resolve, type_for
from .errors import (
    AngularMarginTooSmall,
    BudgetExceeded,
    IllConditioned,
    InvalidApex,
    InvalidDecay,
    OutsideDomain,
    OutsideSector,
    OutsideUnion,
    SectorLapError,
)
from .geometry import GrowthCertificate, SectorSpec, _check_alpha, build_gamma
from .indicator import _WINDOW, _check_direction, estimate_indicator, indicator_value
from .inversion import reconstruct_each, roundtrip_report
from .inversion import reconstruct  # noqa: F401  (unused here; bench/tracer.py wraps this binding)
from .laplace import (
    ConcatenatedTransform,
    DELTA_MIN_DEFAULT,
    TransformQuery,
    _transform_along,
    directional_transform,
    gamma_bound_check,
    select_direction,
)
from .laplace import concatenated_transform  # noqa: F401  (unused here; bench/tracer.py wraps this binding)
from .probe import probe_report
from .quadrature import QuadratureBudget
from .selftest import run_criteria

__all__ = ["main", "console_main", "build_parser"]

# per-sample domain violations and ray envelopes that are not finite count as
# numeric failures (exit 3); config problems caught up front (bad ids,
# ranges, apex gate) exit 2
_SKIPPABLE = (OutsideDomain, OutsideUnion, OutsideSector, AngularMarginTooSmall)
_NUMERIC_ERRORS = (BudgetExceeded, IllConditioned, InvalidDecay) + _SKIPPABLE
_REQUEST_ERRORS = (InvalidApex, ValueError)
_BOOL_KEYS = {"skip_invalid", "check_bound"}
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {text!r}")
    return value


def _parts(text: str) -> list[str]:
    """The values of a comma separated list flag; a usage error when it names none."""
    if not text.replace(",", " ").strip():
        raise argparse.ArgumentTypeError(f"expected at least one comma separated value, got {text!r}")
    return [part for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [_finite(part) for part in _parts(text)]


def _complex_list(text: str) -> list[complex]:
    return [parse_complex(part) for part in _parts(text)]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in _parts(text)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(out: Optional[str], header: list[str], rows: list[list]) -> None:
    formatted = [[_fmt(cell) if not isinstance(cell, str) else cell for cell in row] for row in rows]
    with (contextlib.nullcontext(sys.stdout) if out in (None, "-")
          else open(out, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(formatted)


def _load_config(path: str) -> dict[str, str]:
    """Flat key=value pairs; blank lines and full-line # comments ignored."""
    pairs = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def _config_tokens(path: str, command: str, sp) -> list[str]:
    """A config file as ``--flag=value`` tokens for ``sp``, checked by argparse like the flags.

    A true bool key becomes the bare flag, a false one nothing.  ValueError
    for a malformed line, then a bad bool, then keys that are not flags of ``sp``.
    """
    pairs = _load_config(path)
    for key, value in pairs.items():
        if key in _BOOL_KEYS and value.lower() not in _TRUE + _FALSE:
            raise ValueError(f"config key {key!r} expects a boolean, got {value!r}")
    flags = {a.dest: a.option_strings[0] for a in sp._actions if a.dest not in ("help", "config")}
    unknown = set(pairs) - set(flags)
    if unknown:
        raise ValueError(f"unknown config key(s) for {command}: {', '.join(sorted(unknown))}")
    return [
        flags[key] if key in _BOOL_KEYS else f"{flags[key]}={value}"
        for key, value in pairs.items()
        if key not in _BOOL_KEYS or value.lower() in _TRUE
    ]


def _budget(args) -> QuadratureBudget:
    abs_floor = args.abs_floor if args.abs_floor is not None else max(1e-15, args.rel_tol * 1e-3)
    return QuadratureBudget(rel_tol=args.rel_tol, abs_floor=abs_floor)


def _require_fn(args, parser):
    if args.fn is None:
        parser.error(f"{args.command}: --fn is required (flag or config)")
    return resolve(args.fn)


def _cmd_transform(args, parser) -> int:
    fn = _require_fn(args, parser)
    if not args.omega:
        parser.error("transform: --omega is required (comma separated complex values)")
    budget = _budget(args)
    header = [
        "theta", "omega_re", "omega_im", "value_re", "value_im",
        "est_error", "margin", "truncation_T", "panels",
    ]
    ct = ConcatenatedTransform.build(
        fn, alpha=args.alpha, indicator_source=args.indicator_source, min_margin=args.delta_min
    )
    if args.theta is not None:
        _check_direction(args.theta, ct.alpha)
        known = indicator_value(fn, args.theta, args.indicator_source)  # theta is fixed for every omega
        ind = known[0]

    def row(omega):
        if args.theta is not None:
            theta = args.theta
            margin = -ind - (omega * cmath.exp(1j * theta)).real
            res = directional_transform(
                TransformQuery(fn, theta, omega, budget, args.delta_min, known)
            )
        else:
            theta = select_direction(ct, omega)
            margin = ct.margin(omega, theta)
            res = _transform_along(ct, omega, theta, budget)
        return [theta, omega.real, omega.imag, res.value.real, res.value.imag,
                res.est_error, margin, res.truncation_T, res.panels_used]

    return _per_point(args, "omega", args.omega, header, row)


def _per_point(args, name: str, points: list, header: list[str], row) -> int:
    """Write row(point) for each point as CSV; under --skip-invalid a domain violation skips its point on stderr."""
    rows = []
    for point in points:
        try:
            rows.append(row(point))
        except _SKIPPABLE as exc:
            if not args.skip_invalid:
                raise
            print(f"skipping {name}={point}: {exc}", file=sys.stderr)
    _write_csv(args.out, header, rows)
    if len(rows) < len(points):
        print(f"{args.command}: skipped {len(points) - len(rows)} of {len(points)} points", file=sys.stderr)
    return 0


def _sector_for(args, fn) -> SectorSpec:
    # contour commands need a strict-interior opening: at the entry's own cap
    # (near pi/2 for wide entries) the V-contour degenerates into a line
    alpha = args.alpha if args.alpha is not None else min(fn.spec.alpha, math.pi / 4)
    return SectorSpec(alpha=alpha, h=type_for(fn, alpha))


def _preflight_bound(args, fn, gamma) -> None:
    cert = GrowthCertificate(epsilon=args.epsilon, c_epsilon=fn.envelope_const)
    excess = gamma_bound_check(fn, cert, gamma, samples=50, budget=_budget(args))
    status = "holds" if excess <= 0 else "VIOLATED"
    print(
        f"contour bound (epsilon={args.epsilon}) {status}: worst |g| excess {excess:.3e}",
        file=sys.stderr,
    )


def _cmd_invert(args, parser) -> int:
    fn = _require_fn(args, parser)
    if not args.z:
        parser.error("invert: --z is required (comma separated complex values)")
    spec = _sector_for(args, fn)
    gamma = build_gamma(spec, args.p)
    budget = _budget(args)
    if args.check_bound:
        _preflight_bound(args, fn, gamma)
    header = [
        "z_re", "z_im", "value_re", "value_im", "expected_re", "expected_im",
        "abs_residual", "est_error", "truncation_T", "panels",
    ]

    outcomes = reconstruct_each(fn, gamma, args.z, budget, args.g_source)

    def row(z):
        res = next(outcomes)  # _per_point asks for the rows of the points in input order
        if isinstance(res, SectorLapError):
            raise res
        expected = complex(fn.evaluate(z))
        return [z.real, z.imag, res.value.real, res.value.imag, expected.real, expected.imag,
                abs(res.value - expected), res.est_error, res.truncation_T, res.panels_used]

    return _per_point(args, "z", args.z, header, row)


def _cmd_roundtrip(args, parser) -> int:
    fn = _require_fn(args, parser)
    if args.max_rel < 0.0:  # no residual is below it, so the whole grid would be reconstructed to fail
        parser.error(f"roundtrip: --max-rel must be at least 0, got {args.max_rel}")
    spec = _sector_for(args, fn)
    gamma = build_gamma(spec, args.p)  # fail fast on a bad apex before any quadrature
    if args.check_bound:
        _preflight_bound(args, fn, gamma)
    angles = args.angles if args.angles is not None else [-spec.alpha / 2, 0.0, spec.alpha / 2]
    grid = [radius * cmath.exp(1j * angle) for radius in args.radii for angle in angles]
    report = roundtrip_report(fn, spec, args.p, grid, _budget(args), args.g_source)

    # --skip-invalid skips domain violations only; any other per-point failure still exits 3
    skip = _SKIPPABLE if args.skip_invalid else ()
    bad = [row for row in report.rows if row.error is not None and not issubclass(row.error_class, skip)]
    if bad:
        # reconstruct's messages name the point themselves when it is at fault; name it once
        row = bad[0]
        where = "" if f"z={row.z}" in row.error else f"z={row.z}: "
        print(f"error: {where}{row.error}", file=sys.stderr)
        return 3

    header = [
        "z_re", "z_im", "expected_re", "expected_im", "value_re", "value_im",
        "abs_residual", "rel_residual", "est_error",
    ]
    rows = [
        [row.z.real, row.z.imag, row.expected.real, row.expected.imag,
         row.reconstructed.real, row.reconstructed.imag,
         row.abs_residual, row.rel_residual, row.est_error]
        for row in report.rows
        if row.error is None
    ]
    _write_csv(args.out, header, rows)
    print(
        f"roundtrip {fn.id}: max_abs={report.max_abs:.3e} max_rel={report.max_rel:.3e} "
        f"median_rel={report.median_rel:.3e} skipped={report.failures}",
        file=sys.stderr,
    )
    # written "not <=" so an all-skipped grid (max_rel = nan) still fails
    if not report.max_rel <= args.max_rel:
        print(
            f"roundtrip {fn.id}: max_rel {report.max_rel:.3e} exceeds --max-rel {args.max_rel:.3e}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_indicator(args, parser) -> int:
    fn = _require_fn(args, parser)
    count = len(args.thetas) if args.thetas is not None else args.theta_grid
    if count < 1:  # --thetas names at least one direction
        parser.error(f"indicator: --theta-grid must be at least 1, got {count}")
    if args.s_points < 3 * _WINDOW:  # estimate_indicator's least grid
        parser.error(f"indicator: --s-points must be at least {3 * _WINDOW}, got {args.s_points}")
    if count * args.s_points > 10**7:
        parser.error(f"indicator: {count} directions x {args.s_points} s-points exceed 1e7 evaluations")
    if not args.s_max > 1.0:  # np.geomspace would warn on a grid from 1 down to it
        parser.error(f"indicator: --s-max must exceed 1, got {args.s_max}")
    alpha = fn.spec.alpha if args.alpha is None else _check_alpha(args.alpha)
    thetas = np.array(args.thetas) if args.thetas is not None else np.linspace(-alpha, alpha, args.theta_grid)
    _check_direction(thetas, alpha)
    est = estimate_indicator(fn, thetas, s_grid=np.geomspace(1.0, args.s_max, args.s_points))
    exact = fn.indicator_oracle(thetas)
    deviation = np.abs(est.value - exact)
    header = ["theta", "estimate", "ci_width", "s_max", "oracle", "deviation"]
    _write_csv(args.out, header, list(zip(thetas, est.value, est.ci_width, est.s_max, exact, deviation)))
    return 0


def _cmd_probe(args, parser) -> int:
    fn = _require_fn(args, parser)
    if (args.q is None) != (args.r is None):
        parser.error("probe: --q and --r must be given together")
    rep = probe_report(
        fn,
        args.theta,
        budget=_budget(args),
        g_source=args.g_source,
        center=args.center,
        q=args.q,
        r=args.r,
        alpha=args.alpha,
    )
    header = [
        "theta", "detected", "singularity_re", "singularity_im", "blowup_exponent",
        "radius_estimate", "predicted_distance", "j_slope_chord", "j_slope_upper", "j_slope_lower",
    ]
    point = rep.boundary_point
    slopes = rep.J_slopes if rep.J_slopes is not None else (None, None, None)
    rows = [[
        rep.theta, rep.detected,
        None if point is None else point.real,
        None if point is None else point.imag,
        rep.blowup_exponent, rep.radius_estimate, rep.predicted_distance,
        slopes[0], slopes[1], slopes[2],
    ]]
    _write_csv(args.out, header, rows)
    return 0


def _cmd_selftest(args, parser) -> int:
    results = run_criteria(args.only)
    if args.only and not results:
        parser.error(f"selftest: no criteria match --only {args.only}")
    failed = [r for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed in {total:.2f}s")
    return 1 if failed else 0


def _add_output_flags(sp, budget=True, skip=True, check_bound=False):
    if check_bound:
        sp.add_argument("--epsilon", type=float, default=0.1,
                        help="growth slack for --check-bound")
        sp.add_argument("--check-bound", dest="check_bound", action="store_true",
                        help="verify the uniform |g| bound on the contour before inverting")
    sp.add_argument("--config", help="flat key=value file; explicit flags override it")
    if budget:
        sp.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-9,
                        help="relative quadrature tolerance (default 1e-9)")
        sp.add_argument("--abs-floor", dest="abs_floor", type=float, default=None,
                        help="absolute quadrature floor (default rel-tol/1000)")
    sp.add_argument("--out", default="-", help="CSV output path, '-' for stdout")
    if skip:
        sp.add_argument("--skip-invalid", dest="skip_invalid", action="store_true",
                        help="skip points that violate domain constraints instead of aborting")


def _add_fn_flags(sp, contour=False):
    sp.add_argument("--fn", help="catalog id, e.g. exp:a=-1 | sum:a1=-1,c1=1,a2=-2,c2=2 "
                                 "| zero | rational | trig")
    sp.add_argument("--alpha", type=float, default=None,
                    help="sector half-opening in (0, pi/2); defaults to the entry's own")
    if contour:
        sp.add_argument("--p", type=float, default=None, help="contour apex (real)")


def _add_g_source_flag(sp):
    sp.add_argument("--g-source", dest="g_source", choices=ORACLE_SOURCES, default="auto")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sectorlap",
        description="Directional Laplace transforms on a sector, contour inversion, "
                    "and analyticity probes.",
    )
    # no prefix matching: a flag a subcommand lacks is an error, not another flag (--h is not --help)
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)

    sp = sub.add_parser("transform", help="evaluate the transform g at given omega points")
    _add_fn_flags(sp)
    sp.add_argument("--theta", type=float, default=None,
                    help="fixed direction; omitted means best direction per omega")
    sp.add_argument("--omega", type=_complex_list, default=None,
                    help="comma separated complex points, e.g. -2+0i,-1.5+0.3i")
    sp.add_argument("--delta-min", dest="delta_min", type=_finite, default=DELTA_MIN_DEFAULT,
                    help="smallest admissible margin to the half-plane boundary")
    sp.add_argument("--indicator-source", dest="indicator_source", choices=ORACLE_SOURCES, default="auto")
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_transform)

    sp = sub.add_parser("invert", help="reconstruct f from g over the unbounded contour")
    _add_fn_flags(sp, contour=True)
    sp.add_argument("--z", type=_complex_list, default=None,
                    help="comma separated evaluation points inside the sector")
    _add_g_source_flag(sp)
    _add_output_flags(sp, check_bound=True)
    sp.set_defaults(func=_cmd_invert)

    sp = sub.add_parser("roundtrip", help="transform then invert on a polar grid, with residuals")
    _add_fn_flags(sp, contour=True)
    # a tuple: the parser and so its defaults are shared by every call in the process
    sp.add_argument("--radii", type=_float_list, default=(0.5, 1.0, 2.0),
                    help="comma separated grid radii")
    sp.add_argument("--angles", type=_float_list, default=None,
                    help="comma separated grid angles (default -alpha/2,0,alpha/2)")
    _add_g_source_flag(sp)
    sp.add_argument("--max-rel", dest="max_rel", type=_finite, default=1e-4,
                    help="largest acceptable relative residual; exceeding it exits 3")
    _add_output_flags(sp, check_bound=True)
    sp.set_defaults(func=_cmd_roundtrip)

    sp = sub.add_parser("indicator", help="estimate the directional growth indicator")
    _add_fn_flags(sp)
    sp.add_argument("--thetas", type=_float_list, default=None,
                    help="comma separated directions; overrides --theta-grid")
    sp.add_argument("--theta-grid", dest="theta_grid", type=int, default=9,
                    help="count of equispaced directions over [-alpha, alpha]")
    sp.add_argument("--s-max", dest="s_max", type=_finite, default=2.0**16,
                    help="largest radius sampled along each ray")
    sp.add_argument("--s-points", dest="s_points", type=int, default=64,
                    help="geometric sample count per ray")
    _add_output_flags(sp, budget=False, skip=False)
    sp.set_defaults(func=_cmd_indicator)

    sp = sub.add_parser("probe", help="boundary blow-up sweep, radius scan, slope diagnostics")
    _add_fn_flags(sp)
    sp.add_argument("--theta", type=float, default=0.0, help="probed direction")
    sp.add_argument("--center", type=parse_complex, default=None,
                    help="Taylor expansion center for the radius scan")
    sp.add_argument("--q", type=parse_complex, default=None,
                    help="chord start for truncated-contour diagnostics")
    sp.add_argument("--r", type=parse_complex, default=None,
                    help="chord end for truncated-contour diagnostics")
    _add_g_source_flag(sp)
    _add_output_flags(sp, skip=False)
    sp.set_defaults(func=_cmd_probe)

    sp = sub.add_parser("selftest", help="run the acceptance criteria")
    sp.add_argument("--only", type=_int_list, default=None,
                    help="comma separated criterion numbers, e.g. 1,4,11")
    sp.set_defaults(func=_cmd_selftest)

    return parser, sub.choices  # subcommand name -> its parser


@functools.cache
def _shared_parser():
    """The one (parser, registry) pair of the process; parsing never changes it."""
    return build_parser()


# flags whose values are often negative numbers, which bare argparse would
# misread as option strings; their values get joined with '='
_VALUE_FLAGS = {
    "--omega", "--z", "--center", "--q", "--r", "--theta", "--thetas",
    "--angles", "--radii", "--alpha", "--p", "--epsilon", "--delta-min",
}


def _normalize_argv(argv) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
            continue
        out.append(token)
        i += 1
    return out


def main(argv=None) -> int:
    argv = _normalize_argv(list(sys.argv[1:] if argv is None else argv))
    parser, registry = _shared_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            tokens = _config_tokens(args.config, args.command, registry[args.command])
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # right after the subcommand: argparse keeps an option's last value, so explicit flags win
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + tokens + argv[at:])

    if args.command in ("invert", "roundtrip") and args.p is None:
        parser.error(f"{args.command}: --p is required (flag or config)")
    try:
        return args.func(args, parser)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _REQUEST_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
