import cmath
import math

import numpy as np
import pytest

from sectorlap import (
    AngularMarginTooSmall,
    OutsideSector,
    QuadratureBudget,
    ReconstructionQuery,
    SectorSpec,
    build_gamma,
    cauchy_path_check,
    make_exp,
    make_sum,
    rational_function,
    reconstruct,
    roundtrip_report,
    zero_function,
)
from sectorlap import inversion

BUDGET = QuadratureBudget(rel_tol=1e-10, abs_floor=1e-13)
SPEC = SectorSpec(alpha=math.pi / 4, h=0.0)


def test_reconstruct_decaying_exponential():
    gamma = build_gamma(SPEC, -1.0)
    res = reconstruct(ReconstructionQuery(make_exp(-1), gamma, 1.0, BUDGET, "oracle"))
    np.testing.assert_allclose(res.value, math.exp(-1.0), rtol=1e-10)
    assert abs(res.value - math.exp(-1.0)) <= res.est_error


def test_reconstruct_growing_exponential_off_axis():
    spec = SectorSpec(alpha=math.pi / 4, h=1.0)
    gamma = build_gamma(spec, -2.0)
    z = cmath.exp(1j * math.pi / 8)
    res = reconstruct(ReconstructionQuery(make_exp(1), gamma, z, BUDGET, "oracle"))
    np.testing.assert_allclose(res.value, cmath.exp(z), rtol=1e-9)


def test_reconstruct_zero_entry():
    gamma = build_gamma(SPEC, -1.0)
    res = reconstruct(ReconstructionQuery(zero_function(), gamma, 1.0, BUDGET, "oracle"))
    assert abs(res.value) <= 1e-10


def test_reconstruct_with_numeric_transform():
    # inner transforms run at a 100x tightened budget; the roundtrip should
    # still sit well inside the outer tolerance
    gamma = build_gamma(SPEC, -1.0)
    res = reconstruct(
        ReconstructionQuery(make_exp(-1), gamma, 1.0, QuadratureBudget(1e-7, 1e-10), "numeric")
    )
    np.testing.assert_allclose(res.value, math.exp(-1.0), rtol=1e-6)


def test_reconstruct_rejects_bad_points():
    gamma = build_gamma(SPEC, -1.0)
    with pytest.raises(OutsideSector):
        reconstruct(ReconstructionQuery(make_exp(-1), gamma, -1.0, BUDGET))
    with pytest.raises(OutsideSector):
        reconstruct(ReconstructionQuery(make_exp(-1), gamma, 0.0, BUDGET))
    edge = cmath.exp(1j * (math.pi / 4 - 0.01))
    with pytest.raises(AngularMarginTooSmall, match="angular margin"):
        reconstruct(ReconstructionQuery(make_exp(-1), gamma, edge, BUDGET))


def test_query_validation():
    gamma = build_gamma(SPEC, -1.0)
    with pytest.raises(ValueError, match=r"^g_source must be auto\|oracle\|numeric, got 'guess'$"):
        ReconstructionQuery(make_exp(-1), gamma, 1.0, BUDGET, "guess")
    with pytest.raises(ValueError, match=r"^entry 'rational' has no transform oracle$"):
        reconstruct(ReconstructionQuery(rational_function(), gamma, 1.0, BUDGET, "oracle"))


def test_apex_choice_does_not_matter():
    fn = make_exp(-1)
    z = 1.2 + 0.3j
    r1 = reconstruct(ReconstructionQuery(fn, build_gamma(SPEC, -1.0), z, BUDGET, "oracle"))
    r2 = reconstruct(ReconstructionQuery(fn, build_gamma(SPEC, -2.5), z, BUDGET, "oracle"))
    assert abs(r1.value - r2.value) <= r1.est_error + r2.est_error


def test_cauchy_path_identity():
    residual, est = cauchy_path_check(make_exp(-1), SPEC, -1.0, 1.0, BUDGET)
    assert residual <= max(1e-9, 2.0 * est)
    spec1 = SectorSpec(alpha=math.pi / 4, h=1.0)
    residual, est = cauchy_path_check(make_exp(1), spec1, -2.0, 0.5 + 0.2j, BUDGET)
    assert residual <= max(1e-9, 2.0 * est)


def test_cauchy_path_zero_entry():
    residual, _ = cauchy_path_check(zero_function(), SPEC, -1.0, 1.0, BUDGET)
    assert residual == 0.0


def test_roundtrip_report_aggregates():
    fn = make_exp(-1)
    grid = [0.5, 1.0, 1 + 0.4j]
    report = roundtrip_report(fn, SPEC, -1.0, grid, BUDGET, "oracle")
    assert report.failures == 0
    assert report.max_rel <= 1e-8
    assert report.median_rel <= report.max_rel
    assert len(report.rows) == 3
    assert all(row.error is None for row in report.rows)


def test_roundtrip_report_records_bad_points():
    fn = make_exp(-1)
    report = roundtrip_report(fn, SPEC, -1.0, [1.0, -1.0], BUDGET, "oracle")
    assert report.failures == 1
    assert report.rows[1].error is not None
    assert "OutsideSector" in report.rows[1].error
    # aggregates come from the good rows only
    assert report.max_rel <= 1e-8


def test_roundtrip_sum_entry():
    fn = make_sum([(1, -1), (2, -2)])
    report = roundtrip_report(fn, SPEC, -1.0, [0.5, 1.0, 2.0], BUDGET, "oracle")
    assert report.failures == 0
    assert report.max_rel <= 1e-8


def test_numeric_g_est_error_counts_the_inner_error(monkeypatch):
    fn = make_exp(-1)
    gamma = build_gamma(SPEC, -1.0)
    budget = QuadratureBudget(rel_tol=1e-7, abs_floor=1e-10)
    zs = [0.5, 0.8 + 0.2j, 1.2 - 0.3j]
    with_inner = [reconstruct(ReconstructionQuery(fn, gamma, z, budget, "numeric")) for z in zs]
    # the same reconstruction with every inner est_error reported as 0
    values = inversion._ray_transform_values
    monkeypatch.setattr(
        inversion, "_ray_transform_values", lambda *args: (values(*args)[0], np.zeros(len(args[2])))
    )
    outer_only = [reconstruct(ReconstructionQuery(fn, gamma, z, budget, "numeric")) for z in zs]
    for z, new, old in zip(zs, with_inner, outer_only):
        assert new.value == old.value
        assert new.est_error > old.est_error
        assert abs(new.value - cmath.exp(-z)) <= new.est_error
