"""Fuzz the identity parser: every text yields an Identity or a ParseError,
and every identity it yields renders to text that parses back to it."""

import pytest

st = pytest.importorskip("hypothesis.strategies")

from hypothesis import given, settings  # noqa: E402

from mwkit.kmwterm import Identity  # noqa: E402
from mwkit.termparse import (  # noqa: E402
    MAX_EXPONENT,
    MAX_INT_BITS,
    MAX_NESTING,
    MAX_WORD_LENGTH,
    ParseError,
    parse_identity,
)

# an exponent is at or above a bound in one draw out of four
EXPONENTS = st.integers(0, 11).map(
    lambda i: str(i if i < 9 else [MAX_WORD_LENGTH + 1, MAX_EXPONENT + 1, 10**6][i - 9]))
INTEGERS = st.sampled_from(["0", "1", "2", "3", "12", str(2**MAX_INT_BITS)])


def _unit_op(op, x, y, n):
    if op == "^":
        return f"{x}^{n}"
    if op == "^-":
        return f"{x}^-{n}"
    if op == "neg":
        return f"-{x}"
    if op == "()":
        return f"({x})"
    return f"{x}{op}{y}"


UNIT_TEXT = st.recursive(
    st.sampled_from(["a", "b", "c", "1", "2", "3", "12"]),
    lambda parts: st.builds(_unit_op, st.sampled_from(["+", "-", "*", "/", "^", "^-", "neg", "()"]),
                            parts, parts, EXPONENTS),
    max_leaves=5,
)
# what no unit may be: 0, a sum that cancels, an integer or exponent above its bound
BAD_UNIT_TEXT = st.one_of(
    st.just("0"),
    UNIT_TEXT.map(lambda u: f"({u})-({u})"),
    UNIT_TEXT.map(lambda u: f"({u})*{2**MAX_INT_BITS}"),
    UNIT_TEXT.map(lambda u: f"({u})^{MAX_EXPONENT + 1}"),
)
# a sum at the top in half of the units (a sum parses only under a
# unit(...) hypothesis), and one unit in eight is bad
UNITS = st.integers(0, 7).flatmap(
    lambda i: BAD_UNIT_TEXT if i == 0 else
    UNIT_TEXT if i < 4 else
    st.builds(_unit_op, st.sampled_from(["+", "-"]), UNIT_TEXT, UNIT_TEXT, st.just("")))


def _term_op(op, x, y, n):
    if op == "^":
        return f"({x})^{n}"
    if op == "neg":
        return f"(-{x})"
    if op == " ":
        return f"{x} {y}"
    return f"{x} {op} {y}"


@st.composite
def identities(draw):
    """An identity over a few unit expressions, and a hypothesis clause
    declaring some of them."""
    units = draw(st.lists(UNITS, min_size=1, max_size=3))
    unit = st.sampled_from(units)
    atom = st.one_of(
        st.sampled_from(["eta", "eps", "h"]),
        INTEGERS,
        unit.map(lambda u: f"<{u}>"),
        unit.map(lambda u: f"[{u}]"),
    )
    term = st.recursive(
        atom,
        lambda parts: st.builds(_term_op, st.sampled_from([" ", "+", "-", "^", "neg"]),
                                parts, parts, EXPONENTS),
        max_leaves=5,
    )
    declared = draw(st.one_of(st.just(units), st.lists(unit, max_size=3, unique=True)))
    return f"{draw(term)} = {draw(term)}", ",".join(f"unit({u})" for u in declared)


@st.composite
def nested(draw):
    """Parentheses, brackets and minus signs nested up to past the bound."""
    text, hyps = draw(identities())
    lhs, rhs = text.split(" = ", 1)
    n = draw(st.one_of(st.integers(MAX_NESTING - 2, MAX_NESTING + 2), st.just(3000)))
    shape = draw(st.sampled_from(["()", "-()", "[()]", "[-]"]))
    if shape == "()":
        return "(" * n + lhs + ")" * n + " = " + rhs, hyps
    if shape == "-()":
        return "-(" * n + lhs + ")" * n + " = " + rhs, hyps
    if shape == "[()]":
        return "[" + "(" * n + "a" + ")" * n + "] = [a]", ""
    return "[" + "-" * n + "a] = [a]", ""


TEXT = st.one_of(
    st.just("0"),
    UNIT_TEXT.map(lambda u: f"({u})-({u})"),
    UNIT_TEXT.map(lambda u: f"({u})*{2**MAX_INT_BITS}"),
    UNIT_TEXT.map(lambda u: f"({u})^{MAX_EXPONENT + 1}"),
)
# a sum at the top in half of the units (a sum parses only under a
# unit(...) hypothesis), and one unit in eight is bad
UNITS = st.integers(0, 7).flatmap(
    lambda i: BAD_UNIT_TEXT if i == 0 else
    UNIT_TEXT if i < 4 else
    st.builds(_unit_op, st.sampled_from(["+", "-"]), UNIT_TEXT, UNIT_TEXT, st.just("")))


def _term_op(op, x, y, n):
    if op == "^":
        return f"({x})^{n}"
    if op == "neg":
        return f"(-{x})"
    if op == " ":
        return f"{x} {y}"
    return f"{x} {op} {y}"


@st.composite
def identities(draw):
    """An identity over a few unit expressions, and a hypothesis clause
    declaring some of them."""
    units = draw(st.lists(UNITS, min_size=1, max_size=3))
    unit = st.sampled_from(units)
    atom = st.one_of(
        st.sampled_from(["eta", "eps", "h"]),
        INTEGERS,
        unit.map(lambda u: f"<{u}>"),
        unit.map(lambda u: f"[{u}]"),
    )
    term = st.recursive(
        atom,
        lambda parts: st.builds(_term_op, st.sampled_from([" ", "+", "-", "^", "neg"]),
                                parts, parts, EXPONENTS),
        max_leaves=5,
    )
    declared = draw(st.one_of(st.just(units), st.lists(unit, max_size=3, unique=True)))
    return f"{draw(term)} = {draw(term)}", ",".join(f"unit({u})" for u in declared)


@st.composite
def nested(draw):
    """An identity whose left side sits in brackets or behind minus signs,
    up to past the nesting bound."""
    text, hyps = draw(identities())
    levels = draw(st.one_of(st.integers(MAX_NESTING - 2, MAX_NESTING + 2), st.just(3000)))
    opener, closer = draw(st.sampled_from([("(", ")"), ("[(", ")]"), ("[-", "]"), ("-(", ")")]))
    lhs, rhs = text.split(" = ", 1)
    lhs = opener[0] + opener[1:] * levels + lhs + closer[:-1] * levels + closer[-1]
    return f"{lhs} = {rhs}", hyps


TEXT = st.one_of(
    identities(),
    nested(),
    st.tuples(st.text(alphabet="etapsh<>[]()+-*/^= 0123456789abc", max_size=30), st.just("")),
)


@settings(max_examples=300)
@given(TEXT)
def test_identity_text_yields_identity_or_parse_error(case):
    text, hyps = case
    try:
        identity = parse_identity(text, hyps)
    except ParseError:
        return
    assert isinstance(identity, Identity)
    again = parse_identity(str(identity), hyps)
    assert (again.lhs, again.rhs) == (identity.lhs, identity.rhs)
