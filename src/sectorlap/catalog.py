"""Built-in test functions with known growth, transforms, and singularities.

Each entry bundles an evaluator with whatever exact side information exists:
the indicator oracle I(theta) = limsup ln|f(s e^{i theta})|/s, the transform
oracle g(w), and the singularities of g.  For f(z) = e^{a z},

    g(w) = -1 / (2 pi i (w + a)),   I(theta) = Re(a e^{i theta}),

with the single pole of g at w = -a sitting exactly on the boundary of every
admissible half-plane.  Entries also carry an envelope constant K with
|f(t e^{i theta})| <= K e^{I(theta) t} for all |theta| <= alpha and t >= 0;
the quadrature truncation bounds rely on it.

Entries are addressable by id string from the CLI: ``exp:a=-1``, ``zero``,
``rational``, ``trig``, ``sum:a1=-1,c1=1,a2=-2,c2=2``.  Complex parameter
values use the form ``re+imi``, e.g. ``-1+0.5i``.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import SectorSpec

__all__ = [
    "TestFunction",
    "make_exp",
    "make_sum",
    "zero_function",
    "rational_function",
    "trig_decay",
    "builtin_catalog",
    "resolve",
    "parse_complex",
    "format_complex",
    "type_for",
    "ORACLE_SOURCES",
    "pick_oracle",
]

# entries that are analytic on every sub-pi/2 sector declare (just under) the cap
ALPHA_CAP = math.pi / 2 * (1.0 - 1e-12)
# where an indicator or a transform comes from: pick_oracle says what each name selects
ORACLE_SOURCES = ("auto", "oracle", "numeric")


@dataclass(frozen=True)
class TestFunction:
    """A catalog entry: evaluator plus whatever oracles are known exactly.

    ``transform_oracle`` maps w to the concatenated transform g(w); it does
    not depend on the direction used to compute g, so it takes w alone.
    ``singularities_of_g`` is None when unknown, a (possibly empty) tuple
    when known.  ``weighted_eval(z, w)`` returns f(z)*e^{w z} in a form that
    cannot overflow when f itself grows exponentially.
    """

    id: str
    evaluate: Callable
    spec: SectorSpec
    indicator_oracle: Optional[Callable[[float], float]] = None
    transform_oracle: Optional[Callable[[complex], complex]] = None
    singularities_of_g: Optional[tuple[complex, ...]] = None
    envelope_const: float = 1.0
    weighted_eval: Callable = field(default=None, repr=False)
    type_oracle: Optional[Callable[[float], float]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.weighted_eval is None:
            ev = self.evaluate
            object.__setattr__(self, "weighted_eval", lambda z, w: ev(z) * np.exp(w * z))


def format_complex(c: complex) -> str:
    """Canonical ``re+imi`` rendering used in catalog ids."""
    c = complex(c)
    if c.imag == 0.0:
        return f"{c.real:g}"
    if c.real == 0.0:
        return f"{c.imag:g}i"
    return f"{c.real:g}{c.imag:+g}i"


def parse_complex(text: str) -> complex:
    """Parse ``re+imi`` (also plain reals and ``j`` notation)."""
    cleaned = text.strip().replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise ValueError(f"cannot parse complex value {text!r}; expected e.g. '-1+0.5i'") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"complex value must be finite, got {text!r}")
    return value


def _exp_growth(a: complex, alpha: float) -> float:
    """max over |theta| <= alpha of Re(a e^{i theta}); may be negative."""
    if a == 0:
        return 0.0
    beta = abs(cmath.phase(a))
    return abs(a) * math.cos(max(beta - alpha, 0.0))


def make_exp(a: complex, id: str | None = None) -> TestFunction:
    """f(z) = e^{a z}: entire, type max(0, Re(a e^{i theta}) over the sector)."""
    a = complex(a)
    two_pi_i = 2j * math.pi
    return TestFunction(
        id=id or f"exp:a={format_complex(a)}",
        evaluate=lambda z: np.exp(a * z),
        spec=SectorSpec(alpha=ALPHA_CAP, h=max(0.0, _exp_growth(a, ALPHA_CAP))),
        indicator_oracle=lambda theta: (a * cmath.exp(1j * theta)).real,
        transform_oracle=lambda w: -1.0 / (two_pi_i * (w + a)),
        singularities_of_g=(-a,),
        envelope_const=1.0,
        weighted_eval=lambda z, w: np.exp((a + w) * z),
        type_oracle=lambda alpha: max(0.0, _exp_growth(a, alpha)),
    )


def make_sum(terms: Sequence[tuple[complex, complex]], id: str | None = None) -> TestFunction:
    """f(z) = sum_k c_k e^{a_k z} with distinct exponents a_k.

    The indicator is max_k Re(a_k e^{i theta}) and the transform is the
    matching linear combination of simple poles; both assume the a_k are
    distinct so no leading term can cancel.
    """
    pairs = tuple((complex(c), complex(a)) for c, a in terms)
    if not pairs:
        raise ValueError("sum entry needs at least one (coefficient, exponent) term")
    if len({a for _, a in pairs}) != len(pairs):
        raise ValueError("sum entry exponents must be distinct")
    two_pi_i = 2j * math.pi
    if id is None:
        bits = [f"a{k}={format_complex(a)},c{k}={format_complex(c)}" for k, (c, a) in enumerate(pairs, 1)]
        id = "sum:" + ",".join(bits)
    return TestFunction(
        id=id,
        evaluate=lambda z: sum(c * np.exp(a * z) for c, a in pairs),
        spec=SectorSpec(
            alpha=ALPHA_CAP,
            h=max(0.0, max(_exp_growth(a, ALPHA_CAP) for _, a in pairs)),
        ),
        indicator_oracle=lambda theta: max((a * cmath.exp(1j * theta)).real for _, a in pairs),
        transform_oracle=lambda w: sum(-c / (two_pi_i * (w + a)) for c, a in pairs),
        singularities_of_g=tuple(-a for c, a in pairs if c != 0),
        envelope_const=float(sum(abs(c) for c, _ in pairs)),
        weighted_eval=lambda z, w: sum(c * np.exp((a + w) * z) for c, a in pairs),
        type_oracle=lambda alpha: max(0.0, max(_exp_growth(a, alpha) for _, a in pairs)),
    )


def zero_function() -> TestFunction:
    """f identically zero: transform zero, indicator -inf (reported as a capped sentinel)."""
    return TestFunction(
        id="zero",
        evaluate=lambda z: 0.0 * z,
        spec=SectorSpec(alpha=ALPHA_CAP, h=0.0),
        indicator_oracle=lambda theta: -math.inf,
        transform_oracle=lambda w: 0.0 * w,
        singularities_of_g=(),
        envelope_const=1.0,
        weighted_eval=lambda z, w: 0.0 * z * w,
        type_oracle=lambda alpha: 0.0,
    )


def rational_function() -> TestFunction:
    """f(z) = 1/(z+1): type 0, indicator identically 0, no closed-form transform.

    The pole at z = -1 lies outside every closed sub-pi/2 sector, and
    |f| <= 1 there, so the unit envelope constant is exact.
    """
    return TestFunction(
        id="rational",
        evaluate=lambda z: 1.0 / (z + 1.0),
        spec=SectorSpec(alpha=ALPHA_CAP, h=0.0),
        indicator_oracle=lambda theta: 0.0,
        transform_oracle=None,
        singularities_of_g=None,
        envelope_const=1.0,
        type_oracle=lambda alpha: 0.0,
    )


def trig_decay() -> TestFunction:
    """f(z) = e^{i z}: bounded on the closed right half-plane, indicator -sin(theta)."""
    return make_exp(1j, id="trig")


def builtin_catalog() -> list[TestFunction]:
    return [
        make_exp(-1),
        make_exp(1),
        make_exp(-1 + 1j),
        make_exp(2),
        trig_decay(),
        zero_function(),
        rational_function(),
        make_sum([(1, -1), (2, -2)]),
    ]


def _parse_params(params: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not params:
        return out
    for item in params.split(","):
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"malformed parameter {item!r}; expected key=value")
        out[key.strip()] = value.strip()
    return out


def resolve(spec_str: str) -> TestFunction:
    """Build a catalog entry from an id string like ``exp:a=-1`` or ``sum:a1=-1,c1=2``."""
    name, _, params = spec_str.strip().partition(":")
    name = name.strip().lower()
    kv = _parse_params(params)
    if name == "exp":
        if "a" not in kv:
            raise ValueError("exp entry requires parameter a, e.g. exp:a=-1")
        extra = set(kv) - {"a"}
        if extra:
            raise ValueError(f"unknown exp parameters: {sorted(extra)}")
        return make_exp(parse_complex(kv["a"]))
    if name == "sum":
        terms = []
        k = 1
        while f"a{k}" in kv:
            a = parse_complex(kv.pop(f"a{k}"))
            c = parse_complex(kv.pop(f"c{k}", "1"))
            terms.append((c, a))
            k += 1
        if kv:
            raise ValueError(f"unknown or out-of-order sum parameters: {sorted(kv)}")
        if not terms:
            raise ValueError("sum entry requires a1=..., e.g. sum:a1=-1,c1=1,a2=-2,c2=2")
        return make_sum(terms)
    simple = {"zero": zero_function, "rational": rational_function, "trig": trig_decay}
    if name in simple:
        if kv:
            raise ValueError(f"{name} entry takes no parameters, got {sorted(kv)}")
        return simple[name]()
    raise ValueError(f"unknown catalog entry {name!r}; known: exp, sum, zero, rational, trig")


def type_for(fn: TestFunction, alpha: float) -> float:
    """Exponential type of fn on the sub-sector of half-angle alpha (exact when known)."""
    if fn.type_oracle is not None:
        return fn.type_oracle(alpha)
    return fn.spec.h


def pick_oracle(fn: TestFunction, kind: str, source: str) -> Optional[Callable]:
    """The entry's ``kind`` oracle ("indicator" or "transform") that ``source`` selects.

    "auto" takes the oracle when the entry has one, "oracle" requires it and
    "numeric" never takes it; None means the value is computed numerically.
    ValueError for a source outside ORACLE_SOURCES, or for "oracle" when the
    entry has no such oracle.
    """
    if source not in ORACLE_SOURCES:
        raise ValueError(f"{kind} source must be auto|oracle|numeric, got {source!r}")
    oracle = getattr(fn, f"{kind}_oracle")
    if source == "oracle" and oracle is None:
        raise ValueError(f"entry {fn.id!r} has no {kind} oracle")
    return None if source == "numeric" else oracle
