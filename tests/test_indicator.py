import math

import pytest

from sectorlap import (
    INDICATOR_SENTINEL,
    estimate_indicator,
    indicator_value,
    make_exp,
    rational_function,
    trig_decay,
    zero_function,
)


def test_exp_indicator_matches_cosine():
    fn = make_exp(1)
    est = estimate_indicator(fn, math.pi / 8)
    # cos(pi/8), from the half-angle identity sqrt((1+cos(pi/4))/2)
    assert math.isclose(est.value, 0.9238795325112867, abs_tol=1e-9)
    assert est.ci_width <= 1e-6
    est0 = estimate_indicator(fn, 0.0)
    assert math.isclose(est0.value, 1.0, abs_tol=1e-9)


def test_decaying_direction_is_negative():
    fn = make_exp(-1)
    est = estimate_indicator(fn, 0.0)
    assert math.isclose(est.value, -1.0, abs_tol=1e-6)


def test_fast_growth_survives_overflow():
    # e^{2s} overflows float64 beyond s ~ 355; the estimator must keep the
    # finite window and still land on the rate
    est = estimate_indicator(make_exp(2), 0.0)
    assert math.isclose(est.value, 2.0, abs_tol=0.02)
    assert est.s_max < 1000.0


def test_zero_entry_sentinel():
    est = estimate_indicator(zero_function(), 0.1)
    assert est.value == INDICATOR_SENTINEL
    assert est.s_max == 0.0


def test_bounded_entries_near_zero():
    assert abs(estimate_indicator(rational_function(), 0.0).value) <= 0.02
    assert abs(estimate_indicator(trig_decay(), 0.0).value) <= 1e-9


def test_estimate_validation():
    import numpy as np

    fn = make_exp(1)
    with pytest.raises(ValueError, match="theta"):
        estimate_indicator(fn, 2.0)
    with pytest.raises(ValueError):
        estimate_indicator(fn, 0.0, s_grid=np.array([1.0, 2.0, 3.0]))  # < 3 windows


def test_indicator_value_sources():
    fn = make_exp(-1)
    exact, is_exact = indicator_value(fn, 0.0, "oracle")
    assert is_exact and math.isclose(exact, -1.0)
    numeric, is_exact_n = indicator_value(fn, 0.0, "numeric")
    assert not is_exact_n
    assert math.isclose(numeric, -1.0, abs_tol=0.02)
    with pytest.raises(ValueError, match=r"^indicator source must be auto\|oracle\|numeric, got 'sometimes'$"):
        indicator_value(fn, 0.0, "sometimes")


def test_indicator_value_without_oracle():
    import numpy as np

    from sectorlap import SectorSpec, TestFunction

    bare = TestFunction(
        id="bare", evaluate=lambda z: np.exp(-z), spec=SectorSpec(alpha=math.pi / 4, h=0.0)
    )
    with pytest.raises(ValueError, match="oracle"):
        indicator_value(bare, 0.0, "oracle")
    value, is_exact = indicator_value(bare, 0.0, "auto")  # falls back to numeric
    assert not is_exact
    assert math.isclose(value, -1.0, abs_tol=0.02)

