"""Fuzz the ring spec parser: every string yields a ring or a RingError."""

import pytest

st = pytest.importorskip("hypothesis.strategies")

from hypothesis import given, settings  # noqa: E402

from mwkit.finring import (  # noqa: E402
    ELEMENT_BOUND,
    MAX_SPEC_NESTING,
    Ring,
    RingError,
    parse_ring_spec,
)

# small primes, small numbers, numbers above the element bound, and digit
# runs longer than int() converts; exponents stay small enough that a parser
# which builds p^k or a dense polynomial before checking the bound still ends
SMALL = st.one_of(
    st.sampled_from(["2", "3", "5", "7"]),
    st.integers(0, 20).map(str),
    st.integers(0, 300).map(str),
    st.integers(0, 2 * ELEMENT_BOUND).map(str),
    st.integers(4301, 5000).map(lambda n: "9" * n),
)
NUMBERS = st.one_of(SMALL, st.integers(0, 10**30).map(str))


@st.composite
def polynomials(draw):
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "+", "-"]))
        coef = draw(st.one_of(st.just(""), NUMBERS))
        power = draw(st.one_of(st.just(""), st.just("x"),
                               SMALL.map(lambda n: "x^" + n)))
        terms.append(sign + coef + power)
    return "+".join(terms)


@st.composite
def specs(draw, depth=0):
    kind = draw(st.sampled_from(["Z", "GF", "GFq", "GR", "GRpe", "prod"] if depth < 2
                                else ["Z", "GF", "GFq", "GR", "GRpe"]))
    n = draw(NUMBERS)
    if kind == "Z":
        return f"Z/{n}"
    if kind == "prod":
        factors = draw(st.lists(specs(depth + 1), min_size=1, max_size=3))
        return "prod(" + ",".join(factors) + ")"
    poly = draw(st.one_of(st.just(""), polynomials().map(lambda f: ";" + f)))
    if kind == "GF":
        return f"GF({n}^{draw(SMALL)}{poly})"
    if kind == "GFq":
        return f"GF({n}{poly})"
    if kind == "GR":
        return f"GR({n},{draw(SMALL)}{poly})"
    return f"GR({n}^{draw(SMALL)},{draw(SMALL)}{poly})"


@st.composite
def nested(draw):
    """A spec wrapped in one-factor products, up to past the nesting bound."""
    levels = draw(st.one_of(st.integers(0, MAX_SPEC_NESTING + 4), st.just(400)))
    return "prod(" * levels + draw(specs()) + ")" * levels


SPEC_TEXT = st.one_of(
    specs(),
    nested(),
    st.text(alphabet="ZGFRprod/()^,;x+-*0123456789 ²", max_size=30),
)


@settings(max_examples=300)
@given(SPEC_TEXT)
def test_ring_spec_yields_ring_or_ring_error(spec):
    try:
        ring = parse_ring_spec(spec)
    except RingError:
        return
    assert isinstance(ring, Ring) and ring.card <= ELEMENT_BOUND
    assert parse_ring_spec(ring.spec_string()) == ring
