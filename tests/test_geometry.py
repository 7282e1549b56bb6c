import cmath
import math

import pytest
from hypothesis import given, strategies as st

from sectorlap import (
    ContourGamma,
    GrowthCertificate,
    InvalidApex,
    SectorSpec,
    build_gamma,
    sector_contains,
)


def test_sector_spec_validation():
    with pytest.raises(ValueError):
        SectorSpec(alpha=0.0)
    with pytest.raises(ValueError):
        SectorSpec(alpha=math.pi / 2)
    with pytest.raises(ValueError):
        SectorSpec(alpha=math.pi / 4, h=-0.5)
    with pytest.raises(ValueError):
        SectorSpec(alpha=math.pi / 4, h=math.inf)


def test_growth_certificate_validation():
    with pytest.raises(ValueError, match="epsilon must be positive"):
        GrowthCertificate(0.0, 1.0)
    with pytest.raises(ValueError, match="c_epsilon must be finite and >= 0"):
        GrowthCertificate(0.1, -1.0)


def test_sector_membership_open_vs_closed():
    spec = SectorSpec(alpha=math.pi / 4)
    assert sector_contains(spec, 1.0)
    assert sector_contains(spec, 0.5 - 0.2j)
    assert not sector_contains(spec, -1.0)
    assert not sector_contains(spec, 2j)
    # the origin does not belong to the open sector
    assert not sector_contains(spec, 0.0)


def test_sector_boundary_point_exact_phase():
    # atan2(1, 1) reproduces the phase of 1+1j bit for bit, so the open
    # sector must exclude it
    spec = SectorSpec(alpha=math.atan2(1.0, 1.0))
    assert not sector_contains(spec, 1 + 1j)


def test_build_gamma_legs():
    gamma = build_gamma(SectorSpec(alpha=math.pi / 4, h=0.0), -1.0)
    assert cmath.isclose(gamma.lower_direction, -1j * cmath.exp(1j * math.pi / 4))
    assert cmath.isclose(gamma.upper_direction, 1j * cmath.exp(-1j * math.pi / 4))


def test_build_gamma_rejects_shallow_apex():
    spec = SectorSpec(alpha=math.pi / 4, h=1.0)
    with pytest.raises(InvalidApex, match=r"p\*cos\(alpha\)"):
        build_gamma(spec, -1.0)  # -cos(pi/4) = -0.707 is not < -1
    # equality is rejected too: the admissible set is open
    p_edge = -1.0 / math.cos(spec.alpha)
    if p_edge * math.cos(spec.alpha) == -1.0:
        with pytest.raises(InvalidApex):
            build_gamma(spec, p_edge)


@given(
    alpha=st.floats(0.05, math.pi / 2 - 0.05),
    h=st.floats(0.0, 4.0),
    p=st.floats(-8.0, 2.0),
)
def test_apex_gate_matches_inequality(alpha, h, p):
    spec = SectorSpec(alpha=alpha, h=h)
    admissible = p * math.cos(alpha) < -h
    if admissible:
        gamma = build_gamma(spec, p)
        assert isinstance(gamma, ContourGamma)
        assert gamma.p == p
    else:
        with pytest.raises(InvalidApex):
            build_gamma(spec, p)
