"""End-to-end CLI behavior through main(); no subprocesses needed."""

import ast
import cmath
import contextlib
import csv
import io
import math
import pathlib
import warnings

import pytest

from sectorlap import cli, indicator, inversion, laplace, probe
from sectorlap.cli import main


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_transform_writes_csv(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["transform", "--fn", "exp:a=-1", "--theta", "0", "--omega", "0+0i,-2+0i",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 2
    # -i/(2 pi), printed at 17 significant digits
    assert math.isclose(float(rows[0]["value_im"]), -0.15915494309189535, rel_tol=1e-8)
    assert float(rows[0]["value_re"]) == 0.0
    assert math.isclose(float(rows[1]["value_im"]), -0.05305164769729845, rel_tol=1e-8)
    assert float(rows[0]["margin"]) == 1.0


def test_transform_lf_line_endings(tmp_path):
    out = tmp_path / "g.csv"
    main(["transform", "--fn", "exp:a=-1", "--theta", "0", "--omega", "0+0i", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0].startswith("theta,omega_re,omega_im,value_re")


def test_transform_auto_direction(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["transform", "--fn", "exp:a=1", "--omega", "-2+0i", "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert math.isclose(float(row["theta"]), 0.0, abs_tol=1e-9)
    assert math.isclose(float(row["margin"]), 1.0, rel_tol=1e-9)


def test_transform_domain_rejection_exit_code(capsys):
    # a point outside the admissible half-plane is a numeric failure, not a
    # config error: exit 3
    rc = main(["transform", "--fn", "exp:a=1", "--theta", "0", "--omega", "0+0i"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "OutsideDomain" in err and "margin" in err


def test_transform_skip_invalid(tmp_path, capsys):
    out = tmp_path / "g.csv"
    rc = main(["transform", "--fn", "exp:a=1", "--theta", "0",
               "--omega", "0+0i,-2+0i", "--skip-invalid", "--out", str(out)])
    assert rc == 0
    assert len(read_csv(out)) == 1
    assert "skipped 1 of 2" in capsys.readouterr().err


def test_transform_numeric_failure_exit_code(capsys):
    # a second exponential rotating at 30000 relative to the dominant one: the carrier removes only one
    # rotation, and resolving the other on the ray takes more panels than the budget allows
    rc = main(["transform", "--fn", "sum:a1=-1,c1=1,a2=-1.001+30000i,c2=1", "--theta", "0", "--omega", "-1+0i"])
    assert rc == 3
    assert "BudgetExceeded" in capsys.readouterr().err


def test_unknown_entry_exit_code(capsys):
    rc = main(["transform", "--fn", "gauss", "--theta", "0", "--omega", "-1+0i"])
    assert rc == 2


def test_invert_far_point_is_a_numeric_failure(capsys):
    # e^{-p Re z} = e^{1000} overflows the leg envelope: a typed numeric failure, not a traceback
    rc = main(["invert", "--fn", "exp:a=-1", "--p", "-1", "--z", "1000"])
    assert rc == 3
    assert "InvalidDecay: decay amplitude must be finite and positive, got inf" in capsys.readouterr().err
    rc = main(["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "1000"])
    assert rc == 3
    assert "InvalidDecay" in capsys.readouterr().err


@pytest.mark.parametrize("z", ["5.5e-306", "7e-306"])
def test_invert_near_the_origin_is_an_invalid_decay(z, capsys):
    # the leg rates shrink with |z|: T overflows at 5.5e-306, and 2T, where the seed intervals end, at 7e-306
    assert main(["invert", "--fn", "exp:a=-1", "--p", "-1", "--z", z]) == 3
    assert "InvalidDecay: decay rate" in capsys.readouterr().err


def test_invert_fails_where_a_huge_leg_envelope_leaves_no_certain_digit(tmp_path, capsys):
    # e^{-p Re z} = e^{700} is finite, and the truncation quotient 2 A / (m abs_floor) overflows without an
    # InvalidDecay; but f(z) = e^{-700} drowns in the cancellation of the legs, whose est_error exceeds |value|
    out = tmp_path / "f.csv"
    rc = main(["invert", "--fn", "exp:a=-1", "--p", "-1", "--z", "700", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: IllConditioned: z=(700+0j): est_error ") and "is not below |value|" in err
    assert not out.exists()
    # roundtrip records the point as a failure, which exits 3 like any other
    assert main(["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "700", "--angles", "0"]) == 3
    assert "IllConditioned" in capsys.readouterr().err


def test_invert_and_apex_rejection(tmp_path, capsys):
    out = tmp_path / "f.csv"
    rc = main(["invert", "--fn", "exp:a=-1", "--p", "-1", "--z", "1+0i", "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert math.isclose(float(row["value_re"]), math.exp(-1.0), rel_tol=1e-8)
    assert float(row["abs_residual"]) <= 1e-8

    rc = main(["invert", "--fn", "exp:a=-1", "--p", "1", "--z", "1+0i"])
    assert rc == 2
    assert "InvalidApex" in capsys.readouterr().err


def test_invert_check_bound_reports(capsys, tmp_path):
    out = tmp_path / "f.csv"
    rc = main(["invert", "--fn", "exp:a=-1", "--p", "-1", "--z", "1+0i",
               "--check-bound", "--epsilon", "0.1", "--out", str(out)])
    assert rc == 0
    assert "contour bound" in capsys.readouterr().err


def test_roundtrip_summary(tmp_path, capsys):
    out = tmp_path / "rt.csv"
    rc = main(["roundtrip", "--fn", "exp:a=1", "--p", "-2", "--radii", "0.5,1",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 6  # 2 radii x 3 default angles
    assert all(float(r["rel_residual"]) <= 1e-6 for r in rows)
    assert "max_rel" in capsys.readouterr().err


def test_indicator_csv(tmp_path):
    out = tmp_path / "ind.csv"
    rc = main(["indicator", "--fn", "exp:a=1", "--thetas", "0,0.39269908169872414",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert math.isclose(float(rows[0]["estimate"]), 1.0, abs_tol=1e-6)
    assert math.isclose(float(rows[1]["oracle"]), math.cos(0.39269908169872414), rel_tol=1e-12)
    assert float(rows[1]["deviation"]) <= 0.02


def test_indicator_theta_grid(tmp_path):
    out = tmp_path / "ind.csv"
    rc = main(["indicator", "--fn", "exp:a=1", "--theta-grid", "9", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 9
    for row in rows:
        assert math.isclose(float(row["estimate"]), math.cos(float(row["theta"])), abs_tol=0.02)


def test_transform_zero_entry(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["transform", "--fn", "zero", "--theta", "0", "--omega", "-1+0i",
               "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert float(row["value_re"]) == 0.0 and float(row["value_im"]) == 0.0


def test_roundtrip_max_rel_gate(tmp_path, capsys):
    out = tmp_path / "rt.csv"
    rc = main(["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "1",
               "--max-rel", "1e-30", "--out", str(out)])
    assert rc == 3
    assert "exceeds --max-rel" in capsys.readouterr().err


def test_invert_skip_invalid_skips_points_outside_the_sector(tmp_path, capsys):
    # z = e^{0.8i} lies outside the sector of half-angle pi/4; the points around it are written
    out = tmp_path / "f.csv"
    argv = ["invert", "--fn", "exp:a=-1", "--p", "-1", "--z", "1+0i,0.6967067093471654+0.7173560908995228i,2+0i",
            "--out", str(out)]
    assert main(argv) == 3
    assert "OutsideSector" in capsys.readouterr().err
    assert main(argv + ["--skip-invalid"]) == 0
    rows = read_csv(out)
    assert [float(row["z_re"]) for row in rows] == [1.0, 2.0]
    assert all(float(row["abs_residual"]) <= 1e-8 for row in rows)
    err = capsys.readouterr().err
    assert err.startswith("skipping z=(0.6967067093471654+0.7173560908995228j): ")
    assert err.endswith("invert: skipped 1 of 3 points\n")


def _one_by_one(fn, gamma, zs, budget=None, g_source="auto", each=inversion.reconstruct_each):
    """The per-point loop that a request's joint pass replaces: each z's outcome alone, when it is reached."""
    for z in zs:
        yield from each(fn, gamma, [z], budget, g_source)


def _outputs(argv, out):
    """Exit code, stdout, stderr and the CSV bytes (None where none was written) of one in-process main call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


_SMALL_MARGIN = cmath.exp(0.77j)  # 0.015 from the upper boundary of the sector of half-angle pi/4
INVERT_FAILURES = {
    "outside-sector": (["--z", "1+0i,0.6967067093471654+0.7173560908995228i,2+0i"], 3, 0),
    "small-angular-margin": (["--z", f"0.5+0.2i,{_SMALL_MARGIN.real!r}+{_SMALL_MARGIN.imag!r}i,1+0i"], 3, 0),
    "ill-conditioned-second": (["--z", "1+0i,700"], 3, 3),
    # the third point's domain failure is never reached: no skip message either
    "ill-conditioned-before-outside-sector": (["--z", "1+0i,700,-1+0i"], 3, 3),
    "numeric-g-outside-sector": (
        ["--z", "0.8+0.1i,-1+0i,1.2-0.2i", "--g-source", "numeric", "--rel-tol", "1e-7"], 3, 0
    ),
}


@pytest.mark.parametrize("skip", [False, True], ids=["abort", "skip-invalid"])
@pytest.mark.parametrize("case", sorted(INVERT_FAILURES))
def test_invert_failures_read_as_the_per_point_loop(case, skip, monkeypatch, tmp_path):
    # a request's points share one engine pass; its CSV, stderr and exit code are those of the per-point loop
    extra, code, skipped_code = INVERT_FAILURES[case]
    argv = ["invert", "--fn", "exp:a=-1", "--p", "-1"] + extra + (["--skip-invalid"] if skip else [])
    got = _outputs(argv, tmp_path / "joint.csv")
    monkeypatch.setattr(cli, "reconstruct_each", _one_by_one)
    assert got == _outputs(argv, tmp_path / "alone.csv")
    assert got[0] == (skipped_code if skip else code)
    assert (got[3] is None) == (got[0] != 0)


@pytest.mark.parametrize(
    "argv, integrals",
    [
        (["invert", "--fn", "exp:a=-1", "--p", "-1", "--z", "1+0i,0.5+0.2i,2-0.3i"], 6),
        (["roundtrip", "--fn", "exp:a=1", "--p", "-2", "--radii", "0.5,1"], 12),
        (["roundtrip", "--fn", "rational", "--p", "-1", "--radii", "1", "--g-source", "numeric",
          "--rel-tol", "1e-7"], 6),
    ],
    ids=["invert", "roundtrip", "roundtrip-numeric-g"],
)
def test_invert_and_roundtrip_make_one_outer_pass(argv, integrals, monkeypatch, tmp_path):
    # both legs of every point in one _integrate_rays call; a numeric g's inner passes are laplace's own
    passes, integrate_rays = [], inversion._integrate_rays
    counted = lambda *args: passes.append(len(args[1])) or integrate_rays(*args)
    monkeypatch.setattr(inversion, "_integrate_rays", counted)
    assert main(argv + ["--out", str(tmp_path / "f.csv")]) == 0
    assert passes == [integrals]


def test_roundtrip_skip_invalid_skips_domain_violations(tmp_path, capsys):
    # angle 0.8 puts both points outside the sector of half-angle pi/4
    out = tmp_path / "rt.csv"
    argv = ["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "1,2", "--angles", "0,0.8", "--out", str(out)]
    assert main(argv) == 3
    assert "OutsideSector" in capsys.readouterr().err
    assert main(argv + ["--skip-invalid"]) == 0
    assert len(read_csv(out)) == 2
    assert "skipped=2" in capsys.readouterr().err


def test_roundtrip_skip_invalid_keeps_numeric_failures(tmp_path, capsys):
    # at z = 800 the leg envelope's amplitude e^{800} overflows: InvalidDecay, which no flag skips
    out = tmp_path / "rt.csv"
    argv = ["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "1,800", "--angles", "0", "--out", str(out)]
    for extra in ([], ["--skip-invalid"]):
        assert main(argv + extra) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: z=(800+0j): InvalidDecay: decay amplitude must be finite and positive")


def test_roundtrip_names_a_failing_point_once(capsys):
    # IllConditioned names z itself, as invert prints it; roundtrip adds no second copy
    assert main(["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "1,700"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: IllConditioned: z=(") and err.count("z=") == 1
    assert ": est_error " in err and "is not below |value|" in err


def test_probe_csv(tmp_path):
    out = tmp_path / "probe.csv"
    rc = main(["probe", "--fn", "exp:a=1", "--theta", "0",
               "--q", "-0.5-1.2i", "--r", "-0.5+1.2i", "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert row["detected"] == "true"
    assert math.isclose(float(row["singularity_re"]), -1.0, abs_tol=1e-6)
    assert math.isclose(float(row["radius_estimate"]), 1.0, rel_tol=5e-3)
    assert math.isclose(float(row["j_slope_chord"]), 0.5, abs_tol=1e-6)


def test_a_failed_radius_scan_leaves_its_columns_empty_and_says_why(capsys):
    # the center is so far inside Omega_0 that rho^24 overflows: the radius scan raises IllConditioned, and the
    # row keeps the blow-up scan's columns, the same as at the default center, and leaves the radius columns empty
    outputs = []
    for center in ([], ["--center", "-1e100"]):
        assert main(["probe", "--fn", "exp:a=1", "--theta", "0"] + center) == 0
        outputs.append(capsys.readouterr())
    [near], [far] = (list(csv.DictReader(io.StringIO(out.out))) for out in outputs)
    assert outputs[0].err == ""
    assert far["radius_estimate"] == far["predicted_distance"] == ""
    assert near["radius_estimate"] != ""
    radius_columns = ("radius_estimate", "predicted_distance")
    assert {k: v for k, v in far.items() if k not in radius_columns} == {
        k: v for k, v in near.items() if k not in radius_columns
    }
    assert outputs[1].err.startswith("probe: no radius estimate: IllConditioned: rho^n overflows: ")
    assert outputs[1].err.count("\n") == 1


def test_probe_chord_of_length_zero_gets_the_slope_sentinel(tmp_path):
    out = tmp_path / "probe.csv"
    assert main(["probe", "--fn", "exp:a=1", "--q", "-0.5+0i", "--r", "-0.5+0i", "--out", str(out)]) == 0
    row = read_csv(out)[0]
    assert float(row["j_slope_chord"]) == probe.J_SLOPE_SENTINEL
    assert math.isclose(float(row["j_slope_upper"]), 0.45737907228341412, rel_tol=1e-9)
    assert row["j_slope_lower"] == row["j_slope_upper"]


def test_probe_rejects_a_direction_outside_the_sector(capsys):
    rc = main(["probe", "--fn", "rational", "--theta", "3", "--g-source", "numeric"])
    assert rc == 2
    assert "ValueError: theta=3.0 outside the sector" in capsys.readouterr().err
    # an infinite theta, before the default centre is computed from it
    assert main(["probe", "--fn", "exp:a=1", "--theta", "inf"]) == 2
    assert capsys.readouterr().err == "error: ValueError: theta=inf outside the sector |theta| <= 1.5707963267933258\n"


def test_a_direction_outside_the_sector_reads_the_same_from_either_indicator_source(capsys):
    argv = ["transform", "--fn", "exp:a=1", "--theta", "3", "--omega", "-2+0i"]
    errs = []
    for source in ("oracle", "numeric"):
        assert main(argv + ["--indicator-source", source]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "error: ValueError: theta=3.0 outside the sector |theta| <= 1.5707963267933258\n"


ALPHA_COMMANDS = {
    "transform": ["transform", "--fn", "exp:a=1", "--omega", "-2+0i"],
    "transform-theta": ["transform", "--fn", "exp:a=1", "--theta", "0", "--omega", "-2+0i"],
    "invert": ["invert", "--fn", "exp:a=-1", "--p", "-1", "--z", "1+0i"],
    "roundtrip": ["roundtrip", "--fn", "exp:a=-1", "--p", "-1"],
    "indicator": ["indicator", "--fn", "exp:a=1"],
    "probe": ["probe", "--fn", "exp:a=1"],
    "probe-q-r": ["probe", "--fn", "exp:a=1", "--q", "-0.5-1.2i", "--r", "-0.5+1.2i"],
}


@pytest.mark.parametrize("alpha", ["2", "0"])
@pytest.mark.parametrize("name", sorted(ALPHA_COMMANDS))
def test_an_alpha_outside_the_open_quarter_turn_is_one_usage_error(name, alpha, capsys):
    # checked before the entry's own alpha clamps it, and by every subcommand, also where it would go unused
    assert main(ALPHA_COMMANDS[name] + ["--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: sector half-angle must satisfy 0 < alpha < pi/2, got {float(alpha)}\n"


@pytest.mark.parametrize(
    "command", [["transform", "--theta", "0.5", "--omega", "-2+0i"], ["indicator", "--thetas", "0,0.5"]]
)
def test_a_direction_outside_the_alpha_fan_is_a_usage_error(command, capsys):
    assert main(command[:1] + ["--fn", "exp:a=1", "--alpha", "0.1"] + command[1:]) == 2
    assert capsys.readouterr().err == "error: ValueError: theta=0.5 outside the sector |theta| <= 0.1\n"


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reconstruction\nfn = exp:a=-1\np = -1\nz = 1+0i\nrel-tol = 1e-8\n",
        encoding="utf-8",
    )
    out = tmp_path / "f.csv"
    rc = main(["invert", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert math.isclose(float(read_csv(out)[0]["value_re"]), math.exp(-1.0), rel_tol=1e-7)


def test_config_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fn = exp:a=-1\np = -1\nz = 1+0i\n", encoding="utf-8")
    out = tmp_path / "f.csv"
    rc = main(["invert", "--config", str(cfg), "--z", "2+0i", "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert math.isclose(float(row["expected_re"]), math.exp(-2.0), rel_tol=1e-12)


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("fn = exp:a=-1\nnonsense = 1\n", encoding="utf-8")
    assert main(["invert", "--config", str(bad), "--p", "-1", "--z", "1+0i"]) == 2
    assert "nonsense" in capsys.readouterr().err
    assert main(["invert", "--config", str(tmp_path / "missing.cfg"), "--p", "-1",
                 "--z", "1+0i"]) == 2
    broken = tmp_path / "broken.cfg"
    broken.write_text("just some words\n", encoding="utf-8")
    assert main(["invert", "--config", str(broken), "--p", "-1", "--z", "1+0i"]) == 2


def test_config_values_get_the_flags_choices_check(tmp_path, capsys):
    cases = (
        ("probe", "fn = exp:a=1\ng-source = bogus\n"),
        ("transform", "fn = exp:a=1\nomega = -2+0i\nindicator-source = bogus\n"),
    )
    for command, text in cases:
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_parser_is_built_once_per_process(monkeypatch, tmp_path):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._shared_parser.cache_clear()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fn = exp:a=-1\nrel-tol = 1e-8\n", encoding="utf-8")
    for extra in ([], ["--config", str(cfg)], []):
        rc = main(["transform", "--fn", "exp:a=-1", "--theta", "0", "--omega", "-1+0i",
                   "--out", str(tmp_path / "g.csv")] + extra)
        assert rc == 0
    assert len(builds) == 1


def test_config_values_do_not_outlive_their_run(tmp_path):
    out = str(tmp_path / "f.csv")
    cfg = tmp_path / "invert.cfg"
    cfg.write_text("fn = exp:a=-1\np = -1\nz = 1+0i\n", encoding="utf-8")
    assert main(["invert", "--config", str(cfg), "--out", out]) == 0
    with pytest.raises(SystemExit) as exc:  # --z is required again
        main(["invert", "--fn", "exp:a=-1", "--p", "-1", "--out", out])
    assert exc.value.code == 2
    cfg = tmp_path / "transform.cfg"
    cfg.write_text("skip-invalid = true\n", encoding="utf-8")
    argv = ["transform", "--fn", "exp:a=1", "--theta", "0", "--omega", "0+0i,-2+0i", "--out", out]
    assert main(argv + ["--config", str(cfg)]) == 0
    assert main(argv) == 3  # 0+0i lies outside the domain and is no longer skipped


@pytest.mark.parametrize(
    ("value", "rc", "message"),
    [
        ("yes", 0, "skipped 1 of 2"),
        ("no", 3, "OutsideDomain"),
        ("maybe", 2, "config key 'skip_invalid' expects a boolean, got 'maybe'"),
    ],
)
def test_config_booleans(tmp_path, capsys, value, rc, message):
    cfg = tmp_path / "transform.cfg"
    cfg.write_text(
        f"fn = exp:a=1\ntheta = 0\nomega = 0+0i,-2+0i\nskip-invalid = {value}\n", encoding="utf-8"
    )
    assert main(["transform", "--config", str(cfg), "--out", str(tmp_path / "g.csv")]) == rc
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("source", ["auto", "numeric"])
def test_transform_selects_each_direction_once(monkeypatch, tmp_path, source):
    omegas = []
    real = laplace.select_direction
    counting = lambda ct, omega: omegas.append(omega) or real(ct, omega)
    monkeypatch.setattr(laplace, "select_direction", counting)
    monkeypatch.setattr(cli, "select_direction", counting)
    rc = main(["transform", "--fn", "exp:a=1", "--omega", "-2+0i,-3+0i,-1.5+0.5i",
               "--indicator-source", source, "--out", str(tmp_path / "g.csv")])
    assert rc == 0
    assert omegas == [-2, -3, -1.5 + 0.5j]


def test_transform_at_fixed_theta_estimates_the_indicator_once(monkeypatch, tmp_path):
    thetas = []
    real = indicator.estimate_indicator
    monkeypatch.setattr(indicator, "estimate_indicator", lambda fn, theta: thetas.append(theta) or real(fn, theta))
    rc = main(["transform", "--fn", "exp:a=1", "--theta", "0.3", "--omega", "-2+0i,-3+0i,-1.5+0.5i,-2-1i",
               "--indicator-source", "numeric", "--out", str(tmp_path / "g.csv")])
    assert rc == 0
    # the margin column and every omega's transform use the one estimate
    assert thetas == [0.3]


def test_missing_required_pieces_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--fn", "exp:a=-1", "--z", "1+0i"])  # no --p anywhere
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--theta", "0", "--omega", "-1+0i"])  # no --fn
    assert exc.value.code == 2
    for argv, message in [
        (["transform", "--fn", "exp:a=1"], "transform: --omega is required"),
        (["probe", "--fn", "exp:a=1", "--q", "-0.5-1.2i"], "probe: --q and --r must be given together"),
        (["selftest", "--only", "99"], "selftest: no criteria match --only [99]"),
        # an empty list or count is refused before any output
        (["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", ","], "argument --radii: expected at least one"),
        (["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--angles", ","], "argument --angles: expected at least one"),
        (["indicator", "--fn", "exp:a=1", "--thetas", ","], "argument --thetas: expected at least one"),
        (["indicator", "--fn", "exp:a=1", "--theta-grid", "0"], "indicator: --theta-grid must be at least 1"),
        (["indicator", "--fn", "exp:a=1", "--theta-grid", "-2"], "indicator: --theta-grid must be at least 1"),
        (["indicator", "--fn", "exp:a=1", "--s-points", "0"], "indicator: --s-points must be at least 24, got 0"),
        (["indicator", "--fn", "exp:a=1", "--s-points", "10"], "indicator: --s-points must be at least 24, got 10"),
        (["indicator", "--fn", "exp:a=1", "--s-points", "-1"], "indicator: --s-points must be at least 24, got -1"),
        # a threshold no residual can meet is refused before any quadrature
        (["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--max-rel", "-1"], "roundtrip: --max-rel must be at least 0"),
        (["selftest", "--only", ","], "argument --only: expected at least one"),
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert message in err and out == ""


def test_selftest_subcommand(capsys):
    rc = main(["selftest", "--only", "1,11"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS criterion 01" in out
    assert "PASS criterion 11" in out
    assert "2/2 criteria passed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "inf"],
        ["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "1", "--angles", "nan"],
        ["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "1", "--max-rel", "nan"],
        ["indicator", "--fn", "exp:a=1", "--s-max", "inf"],
        ["transform", "--fn", "exp:a=1", "--omega", "nan+0i"],
        ["transform", "--fn", "exp:a=1", "--omega", "-2", "--rel-tol", "inf", "--abs-floor", "1e-12"],
        ["transform", "--fn", "exp:a=1", "--omega", "-2", "--rel-tol", "inf"],
        ["transform", "--fn", "exp:a=1", "--omega", "-2", "--abs-floor", "inf"],
    ],
)
def test_non_finite_values_are_usage_errors(argv, monkeypatch, capsys):
    # rejected while parsing, before any transform or estimate
    monkeypatch.setattr(cli, "roundtrip_report", None)
    monkeypatch.setattr(cli, "estimate_indicator", None)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be finite, got" in err and "invalid _" not in err


@pytest.mark.parametrize("theta", [[], ["--theta", "0"]], ids=["selected", "fixed-theta"])
@pytest.mark.parametrize("delta_min", ["nan", "0", "-1", "inf"])
def test_a_delta_min_that_is_not_positive_and_finite_is_a_usage_error(delta_min, theta, capsys):
    argv = ["transform", "--fn", "exp:a=1", "--omega", "-2+0i", "--delta-min", delta_min] + theta
    try:
        rc = main(argv)
    except SystemExit as exc:  # nan and inf are refused while parsing
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    if delta_min in ("nan", "inf"):
        assert f"argument --delta-min: value must be finite, got '{delta_min}'" in err
    else:
        assert "delta_min must be positive" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transform", "--fn", "exp:a=1", "--omega", "-2+0i", "--delta-min", "inf"],
         "argument --delta-min: value must be finite, got 'inf'"),
        (["transform", "--fn", "exp:a=1", "--omega", "abc"],
         "argument --omega: cannot parse complex value 'abc'; expected e.g. '-1+0.5i'"),
        (["probe", "--fn", "exp:a=1", "--center", "abc"],
         "argument --center: cannot parse complex value 'abc'; expected e.g. '-1+0.5i'"),
        (["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "x"],
         "argument --radii: could not convert string to float: 'x'"),
        (["selftest", "--only", "x"], "argument --only: invalid literal for int() with base 10: 'x'"),
    ],
    ids=["delta-min", "omega", "center", "radii", "only"],
)
def test_a_value_the_parser_refuses_is_named_by_its_own_check(argv, message, capsys):
    # argparse would say "invalid <helper name> value" for a ValueError; the check's own message says what is wrong
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and "invalid _" not in err and "invalid parse_complex" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transform", "--fn", "exp:a=1", "--omega", "-2", "--rel-tol", "-1e-9"],
         "error: ValueError: rel_tol must be finite and >= 1e-14 (double precision floor), got -1e-09"),
        (["transform", "--fn", "exp:a=1", "--omega", "-2", "--abs-floor", "-1e-12"],
         "error: ValueError: abs_floor must be positive, got -1e-12"),
        (["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--max-rel", "-1e-3"],
         "roundtrip: --max-rel must be at least 0, got -0.001"),
    ],
    ids=["rel-tol", "abs-floor", "max-rel"],
)
def test_every_flag_that_takes_a_value_takes_a_negative_one(argv, message, capsys):
    # the value reaches the flag's own check instead of argparse's "expected one argument"
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and "expected one argument" not in err


def test_a_flag_followed_by_another_flag_misses_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--fn", "exp:a=1", "--theta", "--omega", "-2"])
    assert exc.value.code == 2
    assert "argument --theta: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transform", "--fn", "exp:a", "--omega", "-2+0i"], "malformed parameter 'a'; expected key=value"),
        (["transform", "--fn", "exp:a=1", "--alpha", "0", "--omega", "-2+0i"],
         "sector half-angle must satisfy 0 < alpha < pi/2, got 0.0"),
        (["invert", "--fn", "exp:a=-1", "--p", "-1", "--z", "1+0i", "--check-bound", "--epsilon", "0"],
         "epsilon must be positive, got 0.0"),
        (["probe", "--fn", "exp:a=1", "--q", "-0.5-1.2i", "--r", "-0.5+1.2i", "--alpha", "2"],
         "sector half-angle must satisfy 0 < alpha < pi/2, got 2.0"),
        (["probe", "--fn", "exp:a=1", "--center", "5+0i"], "center (5+0j) lies outside Omega_theta at theta=0.0"),
    ],
    ids=["malformed-fn", "transform-alpha", "check-bound-epsilon", "probe-alpha", "probe-center-outside"],
)
def test_invalid_values_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: ValueError: {message}" in captured.err


@pytest.mark.parametrize(
    "argv, message, radius_scans",
    [(["--fn", "exp:a=1", "--g-source", "numeric", "--center", "5+0i"],
      "center (5+0j) lies outside Omega_theta at theta=0.0", 1),
     (["--fn", "exp:a=1", "--g-source", "numeric", "--alpha", "0.3", "--theta", "0.5"],
      "theta=0.5 outside the sector |theta| <= 0.3", 0),
     (["--fn", "rational", "--q", "-0.5-1.2i", "--r", "-0.5+1.2i"],
      "entry 'rational' has no transform oracle; diagnostics need exact g", 0),
     (["--fn", "exp:a=1", "--theta", "0.7853981633974483", "--q", "-0.5-1.2i", "--r", "-0.5+1.2i"],
      "need |theta| < alpha for positive ray decay, got theta=0.7853981633974483", 0),
     (["--fn", "exp:a=1", "--q", "-1-0.5i", "--r", "-1+0.5i"],
      "singularity (-1-0j) lies on the truncated contour (distance 0.00e+00)", 0)],
    ids=["outside-center", "outside-alpha", "chord-without-oracle", "chord-theta-at-alpha", "chord-through-pole"],
)
def test_probe_refuses_its_request_before_any_blowup_scan(argv, message, radius_scans, monkeypatch, capsys):
    # a numeric blow-up scan takes many ray transforms; a center outside Omega_theta, or a theta outside the
    # --alpha the request sets, as transform and indicator refuse it, never gets to one.  The radius scan refuses
    # the center before its ring; a chord the J diagnostics cannot take is refused before the radius scan too
    scans, radii, radius_scan = [], [], probe.radius_scan
    monkeypatch.setattr(probe, "blowup_scan", lambda *args, **kwargs: scans.append(args))
    monkeypatch.setattr(probe, "radius_scan", lambda *args, **kw: radii.append(args) or radius_scan(*args, **kw))
    assert main(["probe"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: ValueError: {message}" in err and scans == [] and len(radii) == radius_scans


def test_oversized_indicator_request_is_a_usage_error(monkeypatch, capsys):
    # 9 directions x 1e15 s-points: refused before any grid exists, as np.geomspace could not allocate it
    monkeypatch.setattr(cli, "estimate_indicator", None)
    with pytest.raises(SystemExit) as exc:
        main(["indicator", "--fn", "exp:a=1", "--s-points", str(10**15)])
    assert exc.value.code == 2
    assert "exceed 1e7 evaluations" in capsys.readouterr().err


@pytest.mark.parametrize("s_max", ["-1", "0", "0.5", "1"])
def test_indicator_s_max_at_most_one_is_a_usage_error(s_max, capsys):
    # refused before np.geomspace builds a grid from 1 down to it, which warns from numpy's own code
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            main(["indicator", "--fn", "exp:a=1", "--s-max", s_max])
    assert exc.value.code == 2
    assert "--s-max must exceed 1" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    ("command", "flag"),
    [("transform", "--h"), ("indicator", "--h"), ("indicator", "--rel-tol"), ("indicator", "--abs-floor"),
     ("indicator", "--skip-invalid"), ("probe", "--h"), ("probe", "--skip-invalid")],
)
def test_flags_a_subcommand_would_ignore_are_unknown(command, flag, tmp_path, capsys):
    # each of these runs, and exits 0, without the flag
    argv = [command, "--fn", "exp:a=1", "--out", str(tmp_path / "out.csv")]
    if command == "transform":
        argv += ["--theta", "0", "--omega", "-2+0i"]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ([flag] if flag == "--skip-invalid" else [flag, "1"]))
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = 1\n", encoding="utf-8")
    assert main(argv + ["--config", str(cfg)]) == 2
    assert f"unknown config key(s) for {command}: {flag[2:].replace('-', '_')}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "--z", "-1+0i,1+0i"],
        ["invert", "--z", "1+0i,-1+0i"],
        ["invert", "--z", "-1+0i", "--skip-invalid"],
        ["roundtrip", "--radii", "1", "--angles", "2", "--skip-invalid"],
    ],
    ids=["invert-outside-first", "invert-outside-second", "invert-all-skipped", "roundtrip-all-skipped"],
)
def test_a_missing_g_oracle_exits_2_whatever_the_points(argv, capsys):
    # the request is checked before any of its points: no point's failure, skip or CSV comes first
    assert main(argv[:1] + ["--fn", "rational", "--p", "-1", "--g-source", "oracle"] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "ValueError: entry 'rational' has no transform oracle" in err


@pytest.mark.parametrize(
    "command", [["invert", "--z", "1+0i"], ["roundtrip", "--radii", "1"]], ids=["invert", "roundtrip"]
)
def test_a_missing_g_oracle_exits_2_before_the_contour_bound_check(command, capsys):
    # --check-bound runs its own quadrature; a request the g source rejects never gets to it
    argv = command[:1] + ["--fn", "rational", "--p", "-1", "--g-source", "oracle", "--check-bound"] + command[1:]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "contour bound" not in err
    assert "ValueError: entry 'rational' has no transform oracle" in err


@pytest.mark.parametrize(
    "argv",
    [["invert", "--fn", "exp:a=1", "--p", "-0.5", "--z", "1+0i"],
     ["roundtrip", "--fn", "exp:a=1", "--p", "-0.5", "--radii", "1"],
     ["invert", "--fn", "exp:a=-1", "--p", "-inf", "--z", "1"],
     ["roundtrip", "--fn", "exp:a=-1", "--p", "-inf"]],
)
def test_the_contour_takes_the_entry_own_type_and_no_h_flag(argv, capsys):
    # p = -0.5 fails p cos(alpha) < -h at the entry's own type h = cos(pi/4), and no flag can lower h; p = -inf
    # passes it, but is no apex, and is refused before any quadrature
    assert main(argv) == 2
    assert "InvalidApex" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--h", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --h" in capsys.readouterr().err


@pytest.mark.parametrize("fn", ["sum:a1=1,c1=0,a2=-1,c2=1", "sum:a1=800,c1=0,a2=-1,c2=1"])
@pytest.mark.parametrize(
    "argv",
    [["invert", "--p", "-1", "--z", "1+0i"], ["transform", "--theta", "0", "--omega", "-0.5+0i"],
     ["transform", "--theta", "0", "--omega", "-0.5+0i", "--indicator-source", "numeric"]],
    ids=["invert", "transform", "transform-numeric-indicator"],
)
def test_a_zero_coefficient_term_does_not_count(fn, argv, capsys):
    # each entry is e^{-z}: the apex and the margin see the type and indicator of exp:a=-1, and no
    # evaluation sees 0 * e^{800 z}, which is nan once e^{800 z} overflows
    assert main(argv + ["--fn", "exp:a=-1"]) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--fn", fn]) == 0
    assert capsys.readouterr() == plain


def _reads_and_passes():
    """For each function of cli.py: the args.<name> it reads, and the cli functions it passes ``args`` to."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    reads, passes = {}, {}
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        reads[func.name], passes[func.name] = set(), set()
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
                reads[func.name].add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "getattr" and isinstance(node.args[0], ast.Name) and node.args[0].id == "args":
                    reads[func.name].add(node.args[1].value)
                elif any(isinstance(arg, ast.Name) and arg.id == "args" for arg in node.args):
                    passes[func.name].add(node.func.id)
    return reads, passes


def test_every_flag_is_read_by_its_subcommand():
    reads, passes = _reads_and_passes()
    _, registry = cli.build_parser()
    unread = []
    for command, sp in registry.items():
        seen, todo = set(), [sp.get_default("func").__name__, "main"]
        while todo:
            name = todo.pop()
            if name in reads and name not in seen:
                seen.add(name)
                todo.extend(passes[name])
        read = set().union(*(reads[name] for name in seen))
        unread += [f"{command} {a.option_strings[0]}" for a in sp._actions if a.option_strings and a.dest != "help"
                   and a.dest not in read]
    assert unread == []
