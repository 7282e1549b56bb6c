import cmath
import math

import numpy as np
import pytest

from sectorlap import (
    ConcatenatedTransform,
    GrowthCertificate,
    SectorSpec,
    blowup_scan,
    builtin_catalog,
    format_complex,
    make_exp,
    make_sum,
    parse_complex,
    radius_scan,
    rational_function,
    resolve,
    trig_decay,
    type_for,
    zero_function,
)
from sectorlap.catalog import pick_oracle

# residue of -1/(2 pi i (w + a)) at distance 1 from the pole
MINUS_I_OVER_2PI = -0.15915494309189535j


def test_complex_text_round_trip():
    for text, want in (
        ("-1.5+0.5i", -1.5 + 0.5j),
        ("2", 2 + 0j),
        ("-3i", -3j),
        ("0.25-0.75i", 0.25 - 0.75j),
    ):
        assert parse_complex(text) == want
    for value in (1 - 0.5j, -2 + 0j, 0.125j):
        assert parse_complex(format_complex(value)) == value


def test_parse_complex_rejects_junk():
    with pytest.raises(ValueError):
        parse_complex("abc")
    with pytest.raises(ValueError):
        parse_complex("inf+1i")


def test_exp_entry_oracles():
    fn = make_exp(-1)
    # int_0^infty e^{-t} dt = 1, so g(0) = 1/(2 pi i) = -i/(2 pi)
    assert cmath.isclose(fn.transform_oracle(0.0), MINUS_I_OVER_2PI, rel_tol=1e-15)
    # int_0^infty e^{-3t} dt = 1/3
    assert cmath.isclose(fn.transform_oracle(-2.0), MINUS_I_OVER_2PI / 3.0, rel_tol=1e-15)
    assert fn.singularities_of_g == (1.0,)
    assert math.isclose(fn.indicator_oracle(0.0), -1.0)
    assert math.isclose(fn.indicator_oracle(math.pi / 3), -0.5, abs_tol=1e-15)

    up = make_exp(1)
    assert cmath.isclose(up.transform_oracle(-2.0), MINUS_I_OVER_2PI, rel_tol=1e-15)
    assert up.singularities_of_g == (-1.0,)


def test_weighted_eval_matches_product():
    fn = make_exp(-1 + 1j)
    for z in (0.5, 1 + 0.3j, 2.0 - 0.5j):
        for w in (0.0, -1.5 + 0.25j):
            direct = fn.evaluate(z) * cmath.exp(w * z)
            assert cmath.isclose(fn.weighted_eval(z, w), direct, rel_tol=1e-13)


def test_sum_entry():
    fn = make_sum([(1, -1), (2, -2)])
    z = 0.3
    assert cmath.isclose(fn.evaluate(z), math.exp(-0.3) + 2 * math.exp(-0.6), rel_tol=1e-15)
    assert fn.singularities_of_g == (1.0, 2.0)
    assert fn.envelope_const == 3.0
    # transform is the weighted sum of the one-term transforms
    w = -0.5
    want = -1.0 / (2j * math.pi * (w - 1)) - 2.0 / (2j * math.pi * (w - 2))
    assert cmath.isclose(fn.transform_oracle(w), want, rel_tol=1e-15)


def test_sum_rejects_duplicate_exponents():
    with pytest.raises(ValueError, match="distinct"):
        make_sum([(1, -1), (2, -1)])


def test_sum_rejects_a_sum_with_no_nonzero_term():
    for terms in ([], [(0, 1), (0, -1)]):
        with pytest.raises(ValueError, match="needs a term with a nonzero coefficient"):
            make_sum(terms)


def test_entire_evaluations_satisfy_cauchy_formula():
    # 64-point trapezoid on a circle reproduces f at the center to machine
    # precision for entire functions; a failure here means the evaluator
    # is not actually analytic
    fn = make_exp(-1 + 1j)
    z0, rho = 1 + 0.2j, 0.5
    nodes = z0 + rho * np.exp(2j * math.pi * np.arange(64) / 64)
    mean = np.mean([complex(fn.evaluate(zeta)) for zeta in nodes])
    assert cmath.isclose(mean, fn.evaluate(z0), rel_tol=1e-12)


def test_resolve_ids():
    assert resolve("exp:a=-1").id == "exp:a=-1"
    fn = resolve("sum:a1=-1,c1=1,a2=-2,c2=2")
    assert fn.singularities_of_g == (1.0, 2.0)
    assert resolve("zero").transform_oracle(1j) == 0.0
    assert resolve("rational").transform_oracle is None
    assert cmath.isclose(resolve("trig").evaluate(1.0), cmath.exp(1j), rel_tol=1e-15)


def test_resolve_rejects_unknown():
    with pytest.raises(ValueError, match="unknown catalog entry"):
        resolve("gauss")
    with pytest.raises(ValueError, match="parameter a"):
        resolve("exp:b=1")
    with pytest.raises(ValueError, match="unknown exp parameters"):
        resolve("exp:a=1,b=2")
    with pytest.raises(ValueError, match="sum parameters"):
        resolve("sum:c1=1")
    with pytest.raises(ValueError, match="a1"):
        resolve("sum:")
    with pytest.raises(ValueError, match="no parameters"):
        resolve("zero:a=1")
    # an omitted weight defaults to 1
    fn = resolve("sum:a1=1,c1=1,a2=2")
    assert fn.singularities_of_g == (-1.0, -2.0)


def test_a_zero_coefficient_term_is_not_in_the_diagram():
    # e^{-z} written with a term 0 * e^{z}: its growth is that of exp:a=-1
    fn, plain = resolve("sum:a1=1,c1=0,a2=-1,c2=1"), make_exp(-1)
    assert fn.diagram == plain.diagram == (-1.0,) and fn.singularities_of_g == plain.singularities_of_g
    thetas = np.linspace(-1.5, 1.5, 31)
    assert np.array_equal(fn.indicator_oracle(thetas), plain.indicator_oracle(thetas))
    assert fn.indicator_oracle(0.4) == plain.indicator_oracle(0.4)
    for alpha in (0.3, math.pi / 4, 1.5):
        assert fn.type_oracle(alpha) == plain.type_oracle(alpha)
    assert fn.spec == plain.spec


def test_the_diagram_is_the_one_source_of_growth():
    from sectorlap import TestFunction  # imported here so that pytest does not collect it as a test class

    # zero: the empty diagram, indicator -inf, type 0; rational: {0} and no singularities without a transform
    assert zero_function().diagram == () and zero_function().singularities_of_g == ()
    assert zero_function().type_oracle(1.0) == 0.0 and zero_function().spec.h == 0.0
    assert rational_function().diagram == (0,) and rational_function().singularities_of_g is None
    assert trig_decay().diagram == (1j,)
    assert make_exp(2).spec.h == 2.0 and make_exp(2).type_oracle(0.5) == 2.0
    with pytest.raises(ValueError, match="without a diagram needs a spec and no indicator or type oracle"):
        TestFunction(id="loose", evaluate=np.exp, spec=SectorSpec(alpha=0.5), indicator_oracle=math.cos)
    with pytest.raises(ValueError, match="without a diagram needs a spec and no indicator or type oracle"):
        TestFunction(id="loose", evaluate=np.exp, spec=SectorSpec(alpha=0.5), type_oracle=lambda alpha: 1.0)
    with pytest.raises(ValueError, match="without a diagram needs a spec"):
        TestFunction(id="bare", evaluate=np.exp)


def test_type_values():
    assert math.isclose(type_for(make_exp(1), math.pi / 4), 1.0)
    assert type_for(make_exp(-1), math.pi / 4) == 0.0  # decaying on the whole sector
    assert math.isclose(type_for(trig_decay(), math.pi / 4), math.cos(math.pi / 4))
    assert type_for(zero_function(), 0.5) == 0.0
    assert type_for(rational_function(), 0.5) == 0.0


def test_growth_certificates_hold_on_sector():
    grid = [r * cmath.exp(1j * t) for r in (0.1, 1.0, 5.0, 25.0) for t in (-0.7, 0.0, 0.7)]
    for fn in (make_exp(1), make_exp(-1), trig_decay(), rational_function()):
        cert = GrowthCertificate(epsilon=0.1, c_epsilon=fn.envelope_const)
        rate = fn.spec.h + cert.epsilon
        ratio = max(abs(complex(fn.evaluate(z))) / (cert.c_epsilon * math.exp(rate * abs(z))) for z in grid)
        assert ratio <= 1.0 + 1e-12


def test_builtin_catalog_distinct_ids():
    cat = builtin_catalog()
    ids = [fn.id for fn in cat]
    assert len(ids) == len(set(ids))
    assert len(cat) == 8


def test_pick_oracle_selects_or_rejects():
    fn, rational = make_exp(-1), rational_function()
    assert pick_oracle(fn, "transform", "auto") is fn.transform_oracle
    assert pick_oracle(fn, "indicator", "oracle") is fn.indicator_oracle
    assert pick_oracle(fn, "transform", "numeric") is None
    assert pick_oracle(rational, "transform", "auto") is None
    with pytest.raises(ValueError, match=r"^entry 'rational' has no transform oracle$"):
        pick_oracle(rational, "transform", "oracle")
    with pytest.raises(ValueError, match=r"^indicator source must be auto\|oracle\|numeric, got 'bogus'$"):
        pick_oracle(fn, "indicator", "bogus")


@pytest.mark.parametrize(
    "call",
    [
        lambda fn: ConcatenatedTransform.build(fn, indicator_source="bogus"),
        lambda fn: blowup_scan(fn, 0.0, g_source="bogus"),
        lambda fn: radius_scan(fn, -2.0, g_source="bogus"),
    ],
    ids=["fan", "blowup_scan", "radius_scan"],
)
def test_unknown_source_names_are_rejected(call):
    with pytest.raises(ValueError, match=r"source must be auto\|oracle\|numeric, got 'bogus'$"):
        call(make_exp(1))
