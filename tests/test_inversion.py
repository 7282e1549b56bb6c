import cmath
import dataclasses
import math

import numpy as np
import pytest

from sectorlap import (
    AngularMarginTooSmall,
    IllConditioned,
    InvalidApex,
    InvalidDecay,
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


def test_reconstruct_checks_the_apex_at_the_entry_own_type():
    # a gamma built for h = 0 passes build_gamma at p = -0.5, but exp:a=1 has type cos(pi/4) there
    gamma = build_gamma(SPEC, -0.5)
    with pytest.raises(InvalidApex, match=r"p\*cos\(alpha\) < -h for this entry"):
        reconstruct(ReconstructionQuery(make_exp(1), gamma, 1.0, BUDGET, "oracle"))


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
    # the leg envelope g_bound e^{-p Re z} overflows
    with pytest.raises(InvalidDecay, match="got inf"):
        reconstruct(ReconstructionQuery(make_exp(-1), gamma, 1000.0, BUDGET))


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


def test_cauchy_path_far_point_is_invalid_decay():
    # e^{-p Re z} = e^{1000} overflows the ray envelope, as in reconstruct
    with pytest.raises(InvalidDecay, match="got inf"):
        cauchy_path_check(make_exp(-1), SPEC, -1.0, 1000.0)


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


def test_roundtrip_report_raises_an_invalid_apex_once():
    # p = -0.5 passes the h = 0 spec but not the type cos(pi/4) of exp:a=1: no point could be reconstructed
    with pytest.raises(InvalidApex, match="invalid apex p=-0.5"):
        roundtrip_report(make_exp(1), SPEC, -0.5, [0.5, 1.0])


def test_roundtrip_report_records_bad_points():
    fn = make_exp(-1)
    report = roundtrip_report(fn, SPEC, -1.0, [1.0, -1.0], BUDGET, "oracle")
    assert report.failures == 1
    assert report.rows[1].error is not None
    assert "OutsideSector" in report.rows[1].error
    # aggregates come from the good rows only
    assert report.max_rel <= 1e-8


def test_a_value_within_its_est_error_of_zero_is_ill_conditioned():
    # f(z) = e^{-700} drowns in the cancellation of the legs, whose est_error exceeds the value
    gamma = build_gamma(SPEC, -1.0)
    with pytest.raises(IllConditioned, match=r"z=\(700\+0j\): est_error .* is not below \|value\|"):
        reconstruct(ReconstructionQuery(make_exp(-1), gamma, 700.0, BUDGET, "oracle"))
    # a roundtrip records the point as a failure, with its class
    report = roundtrip_report(make_exp(-1), SPEC, -1.0, [1.0, 700.0], BUDGET, "oracle")
    assert report.failures == 1 and report.rows[1].error_class is IllConditioned
    assert report.max_rel <= 1e-8


def test_roundtrip_sum_entry():
    fn = make_sum([(1, -1), (2, -2)])
    report = roundtrip_report(fn, SPEC, -1.0, [0.5, 1.0, 2.0], BUDGET, "oracle")
    assert report.failures == 0
    assert report.max_rel <= 1e-8


@pytest.mark.parametrize("source", ["oracle", "numeric"])
def test_one_g_batch_per_outer_integrand_call(monkeypatch, source):
    gamma = build_gamma(SPEC, -1.0)
    calls = {"g": 0, "outer": 0}
    g_values, integrate_rays = inversion._g_values, inversion._integrate_rays

    def counted_g(fn, thetas, omegas, *rest):
        calls["g"] += 1
        assert set(np.unique(thetas).tolist()) <= {-gamma.alpha, gamma.alpha}
        return g_values(fn, thetas, omegas, *rest)

    def counted_rays(integrand, *rest):
        def outer(t, k):
            calls["outer"] += 1
            return integrand(t, k)

        return integrate_rays(outer, *rest)

    monkeypatch.setattr(inversion, "_g_values", counted_g)
    monkeypatch.setattr(inversion, "_integrate_rays", counted_rays)
    res = reconstruct(ReconstructionQuery(make_exp(-1), gamma, 0.8 + 0.2j, BUDGET, source))
    assert calls["g"] == calls["outer"] > 0
    assert abs(res.value - cmath.exp(-(0.8 + 0.2j))) <= res.est_error


def test_numeric_g_est_error_counts_the_inner_error(monkeypatch):
    fn = make_exp(-1)
    gamma = build_gamma(SPEC, -1.0)
    budget = QuadratureBudget(rel_tol=1e-7, abs_floor=1e-10)
    zs = [0.5, 0.8 + 0.2j, 1.2 - 0.3j]
    with_inner = [reconstruct(ReconstructionQuery(fn, gamma, z, budget, "numeric")) for z in zs]
    # the same reconstruction with every inner est_error reported as 0
    values = inversion._g_values
    monkeypatch.setattr(
        inversion, "_g_values", lambda *args: (values(*args)[0], np.zeros(len(args[2])))
    )
    outer_only = [reconstruct(ReconstructionQuery(fn, gamma, z, budget, "numeric")) for z in zs]
    for z, new, old in zip(zs, with_inner, outer_only):
        assert new.value == old.value
        assert new.est_error > old.est_error
        assert abs(new.value - cmath.exp(-z)) <= new.est_error


# weighted_eval points of this reconstruction when every inner integral evaluated its own smooth factor
PER_INTEGRAL_POINTS = 165_888


def test_numeric_g_evaluates_each_smooth_factor_once_per_family():
    points = []
    fn = make_exp(-1)
    weighted_eval = fn.weighted_eval
    counted = dataclasses.replace(fn, weighted_eval=lambda z, w: points.append(np.size(z)) or weighted_eval(z, w))
    budget = QuadratureBudget(rel_tol=1e-7, abs_floor=1e-10)
    res = reconstruct(ReconstructionQuery(counted, build_gamma(SPEC, -1.0), 0.8 + 0.2j, budget, "numeric"))
    assert abs(res.value - cmath.exp(-(0.8 + 0.2j))) <= res.est_error
    # the omegas of a leg that share Re(omega e^{i theta}) share F and its seed panels
    assert sum(points) <= PER_INTEGRAL_POINTS / 4
