import cmath
import dataclasses
import math
import sys
import threading

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
    builtin_catalog,
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
    with pytest.raises(InvalidApex, match="invalid apex p=-0.5"):
        reconstruct(ReconstructionQuery(make_exp(1), gamma, 1.0, BUDGET, "oracle"))
    # the apex fails the request once, before any point gets its checks
    with pytest.raises(InvalidApex, match="invalid apex p=-0.5"):
        inversion.reconstruct_each(make_exp(1), gamma, [-1.0, 1.0])


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
    assert isinstance(report.rows[1].error, OutsideSector)
    # aggregates come from the good rows only
    assert report.max_rel <= 1e-8
    # e^z overflows at z = 1e308, where the legs' envelope is infinite: the point fails in its row, without the
    # overflow warning that tier-1 makes an error
    report = roundtrip_report(make_exp(1), SPEC, -2.0, [1e308, 1.0], BUDGET, "oracle")
    assert type(report.rows[0].error) is InvalidDecay and report.rows[1].error is None
    assert report.failures == 1 and report.max_rel <= 1e-8


def test_a_value_within_its_est_error_of_zero_is_ill_conditioned():
    # f(z) = e^{-700} drowns in the cancellation of the legs, whose est_error exceeds the value
    gamma = build_gamma(SPEC, -1.0)
    with pytest.raises(IllConditioned, match=r"z=\(700\+0j\): est_error .* is not below \|value\|"):
        reconstruct(ReconstructionQuery(make_exp(-1), gamma, 700.0, BUDGET, "oracle"))
    # a roundtrip records the point as a failure, its IllConditioned itself
    report = roundtrip_report(make_exp(-1), SPEC, -1.0, [1.0, 700.0], BUDGET, "oracle")
    assert report.failures == 1 and type(report.rows[1].error) is IllConditioned
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


def _one_by_one(fn, gamma, zs, budget=None, g_source="auto", each=inversion.reconstruct_each):
    """The per-point loop that a request's joint pass replaces: each z's outcome alone, when it is reached."""
    for z in zs:
        yield from each(fn, gamma, [z], budget, g_source)


ALPHA = math.pi / 4
# every built-in entry with a transform oracle, and rational, which has none, with a numeric g
REQUEST_CASES = [(fn, "oracle") for fn in builtin_catalog() if fn.transform_oracle is not None]
REQUEST_CASES.append((rational_function(), "numeric"))


@pytest.mark.parametrize("fn, source", REQUEST_CASES, ids=lambda case: getattr(case, "id", case))
def test_each_z_of_a_request_gets_the_bits_of_its_own_reconstruct(fn, source):
    h = fn.type_oracle(ALPHA)
    gamma = build_gamma(SectorSpec(ALPHA, h), -h / math.cos(ALPHA) - 1.0)
    budget = QuadratureBudget(rel_tol=1e-7, abs_floor=1e-10) if source == "numeric" else BUDGET
    zs = [0.5, 0.8 + 0.2j, 1.2 - 0.3j, 1.7 + 0.5j, 0.6 - 0.45j]
    together = list(inversion.reconstruct_each(fn, gamma, zs, budget, source))
    alone = [reconstruct(ReconstructionQuery(fn, gamma, z, budget, source)) for z in zs]
    # value, est_error (with its inner part per point and leg), truncation_T and panels, bit for bit
    assert together == alone
    assert all(isinstance(res, inversion.IntegralResult) for res in together)


def test_a_request_is_one_outer_pass(monkeypatch):
    passes, integrate_rays = [], inversion._integrate_rays
    counted = lambda *args: passes.append(len(args[1])) or integrate_rays(*args)
    monkeypatch.setattr(inversion, "_integrate_rays", counted)
    gamma = build_gamma(SPEC, -1.0)
    results = list(inversion.reconstruct_each(make_exp(-1), gamma, [0.5, 1.0, -1.0, 1 + 0.4j], BUDGET, "oracle"))
    # the point outside the sector fails its checks and takes no part: both legs of three points
    assert passes == [6]
    assert isinstance(results[2], OutsideSector) and [type(r) for r in results].count(inversion.IntegralResult) == 3


@pytest.mark.parametrize(
    "grid, failed",
    [
        # a point outside the sector and one whose value is not above its est_error: the joint pass holds
        ([1.0, -1.0, 0.5 + 0.3j, 700.0, 2.0], [OutsideSector, IllConditioned]),
        # an envelope that overflows fails the joint pass, and every point is reconstructed alone
        ([1.0, 1000.0, cmath.exp(0.77j), 0.5 + 0.3j, 700.0], [InvalidDecay, AngularMarginTooSmall, IllConditioned]),
    ],
    ids=["joint-pass", "point-by-point"],
)
def test_a_roundtrip_with_failing_points_matches_the_per_point_loop(grid, failed, monkeypatch):
    fn = make_exp(-1)
    report = roundtrip_report(fn, SPEC, -1.0, grid, BUDGET, "oracle")
    monkeypatch.setattr(inversion, "reconstruct_each", _one_by_one)
    reference = roundtrip_report(fn, SPEC, -1.0, grid, BUDGET, "oracle")
    assert [type(row.error) for row in report.rows if row.error] == failed
    assert report.failures == len(failed) and report.max_rel <= 1e-8
    # rows (z, values, residuals, est_errors, errors with their messages) and summary, bit for bit
    assert repr(report) == repr(reference)


def test_numeric_reconstructions_in_threads_get_the_bits_of_one_after_another():
    # each thread keeps its own work memory, which inner and outer passes re-enter: four threads on two or
    # more points each, switching every microsecond, give the bits of the calls made one after another
    fn, gamma = rational_function(), build_gamma(SPEC, -1.0)
    budget = QuadratureBudget(rel_tol=1e-7, abs_floor=1e-10)
    work = [[0.5, 1.2 - 0.3j], [0.8 + 0.2j, 0.6], [1.7 + 0.5j, 0.9 - 0.1j], [1.1 + 0.35j, 1.4]]
    queries = [[ReconstructionQuery(fn, gamma, z, budget, "numeric") for z in zs] for zs in work]
    alone = [[reconstruct(q) for q in qs] for qs in queries]
    got = [None] * len(work)
    start = threading.Barrier(len(work))

    def run(i):
        start.wait(timeout=60)
        got[i] = [reconstruct(q) for q in queries[i]]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == alone
