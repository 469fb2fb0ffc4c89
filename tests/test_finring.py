import copy
import hashlib
import os
import pickle
import random
import re
import subprocess
import sys
from itertools import product
from math import isqrt
from pathlib import Path

import pytest
import ring_oracle as oracle
from conftest import RING_SPECS
from test_gwring import FULL_SCAN_SPECS

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis comes with the `test` extra
    st = None

import mwkit
from mwkit import finring
from mwkit.finring import (
    ELEMENT_BOUND,
    MAX_SPEC_NESTING,
    GaloisField,
    GaloisRing,
    ProductRing,
    Ring,
    RingElement,
    RingError,
    RingSpecError,
    Zmod,
    _is_prime,
    _parse_prime_power,
    _slot_bytes,
    elementary_factorization,
    make_ring,
    mat2_mul,
    parse_ring_spec,
    smallest_irreducible,
)
from mwkit.gwring import GroupRingVector


def test_zmod_basics():
    r = Zmod(12)
    assert r.card == 12
    assert [str(u) for u in r.units()] == ["1", "5", "7", "11"]
    assert (r.from_int(7) * r.from_int(7)).coords == 1
    assert r.from_int(5).inverse() == r.from_int(5)


def test_zmod_4_and_gf_units():
    assert [u.coords for u in Zmod(4).units()] == [1, 3]
    f4 = GaloisField(2, 2)
    assert f4.card == 4
    assert len(f4.units()) == 3


def test_galois_field_canonical_moduli():
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2+1
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)  # x^3+x+1
    assert GaloisField(3, 2).modulus == (1, 0, 1)


def test_galois_field_explicit_modulus_checked():
    f9 = GaloisField(3, 2, (1, 0, 1))
    assert f9.card == 9
    with pytest.raises(RingError, match="reducible"):
        GaloisField(3, 2, (2, 0, 1))  # x^2+2 = (x+1)(x+2) over Z/3
    with pytest.raises(RingError, match="monic"):
        GaloisField(3, 2, (1, 1))


def test_galois_ring_tests_only_a_given_modulus(monkeypatch):
    # the canonical modulus is irreducible as found, so only a modulus the
    # caller gives is tested again; the refusals keep their texts
    calls = []
    irreducible = finring._poly_is_irreducible

    def counted(mod, p):
        calls.append(tuple(mod))
        return irreducible(mod, p)

    monkeypatch.setattr(finring, "_poly_is_irreducible", counted)
    for cls, args in ((GaloisField, (2, 12)), (GaloisRing, (3, 2, 3)), (GaloisField, (5, 1))):
        calls.clear()
        ring = cls(*args)
        found = calls[:]
        calls.clear()
        assert ring.modulus == smallest_irreducible(args[0], args[-1])
        assert found == calls and found[-1] == ring.modulus
        calls.clear()
        assert cls(*args, ring.modulus) == ring and calls == [ring.modulus]
    for cls, args, text in (
            (GaloisField, (3, 2, (2, 0, 1)), "GF(3^2): reducible modulus x^2+2"),
            (GaloisField, (3, 2, (1, 1)), "GF(3^2): modulus must be monic of degree 2"),
            (GaloisRing, (3, 2, 2, (2, 0, 1)), "GR(3^2,2): reducible modulus x^2+2 mod 3"),
            (GaloisRing, (2, 2, 2, (1, 0, 1)), "GR(2^2,2): reducible modulus x^2+1 mod 2")):
        with pytest.raises(RingError) as info:
            cls(*args)
        assert str(info.value) == text


def test_construction_errors():
    with pytest.raises(RingError, match="at least 2"):
        Zmod(1)
    with pytest.raises(RingError, match="bound"):
        Zmod(1 << 17)
    with pytest.raises(RingError, match="bound"):
        GaloisField(2, 17)
    with pytest.raises(RingError, match="not prime"):
        GaloisField(6, 1)
    # each ring kind takes exactly ELEMENT_BOUND elements; the next ring up
    # of each kind is in test_large_prime_power_refused
    for spec in ("Z/65536", "GF(2^16)", "GR(2^16,1)", "GR(4,8)", "prod(GF(2^8),Z/256)"):
        assert parse_ring_spec(spec).card == ELEMENT_BOUND == 65536
    with pytest.raises(RingError, match="Z/65537 exceeds the element bound 65536"):
        Zmod(65537)


def test_galois_ring_structure():
    gr = GaloisRing(2, 2, 2)  # Z/4[x]/(x^2+x+1)
    assert gr.card == 16
    assert gr.modulus == (1, 1, 1)
    assert len(gr.units()) == 12
    # residue map onto GF(4)
    f4 = oracle.residue_field(gr)
    assert f4.card == 4
    x = oracle.gen(gr)
    assert oracle.residue(x) == oracle.gen(f4)
    assert oracle.residue(gr.from_int(2)) == f4.zero
    # x^2 = -x-1 = 3x+3 and (x^2)^2 = x
    x2 = x * x
    assert x2.coords == (3, 3)
    assert (x2 * x2) == x


def test_galois_ring_inverses():
    gr = GaloisRing(2, 2, 3)
    assert gr.card == 64
    for u in gr.units():
        assert u * u.inverse() == gr.one
    for el in gr.elements():
        if not el.is_unit():
            assert gr.inverse_or_none(el) is None


def test_ring_axioms_exhaustive(ring_family):
    for ring in ring_family:
        assert ring.card <= 256
        els = list(ring.elements())
        for a, b in product(els, repeat=2):
            assert a + b == b + a
            assert a * b == b * a
        for a, b, c in product(els, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_units_match_brute_force(ring_family):
    for ring in ring_family:
        els = list(ring.elements())
        brute = {x for x in els if any(x * y == ring.one for y in els)}
        assert set(ring.units()) == brute


def test_unit_squares(ring_family):
    assert {u.coords for u in Zmod(8).unit_squares()} == {1}
    assert {u.coords for u in Zmod(4).unit_squares()} == {1}
    assert {u.coords for u in Zmod(3).unit_squares()} == {1}
    for ring in ring_family:
        squares = ring.unit_squares()
        units = set(ring.units())
        assert squares <= units
        for s, t in product(squares, repeat=2):
            assert s * t in squares


def test_elementary_factorization_examples():
    z12 = Zmod(12)
    word = elementary_factorization(z12, z12.from_int(5))
    prod_m = ((z12.one, z12.zero), (z12.zero, z12.one))
    for m in word:
        prod_m = mat2_mul(prod_m, m)
    assert prod_m == ((z12.from_int(5), z12.zero), (z12.zero, z12.from_int(5)))

    f7 = Zmod(7)
    word = elementary_factorization(f7, f7.from_int(3))
    prod_m = ((f7.one, f7.zero), (f7.zero, f7.one))
    for m in word:
        prod_m = mat2_mul(prod_m, m)
    assert prod_m == ((f7.from_int(3), f7.zero), (f7.zero, f7.from_int(5)))


def test_elementary_factorization_identity_case():
    f5 = Zmod(5)
    word = elementary_factorization(f5, f5.one)
    prod_m = ((f5.one, f5.zero), (f5.zero, f5.one))
    for m in word:
        prod_m = mat2_mul(prod_m, m)
    assert prod_m == ((f5.one, f5.zero), (f5.zero, f5.one))


def test_elementary_factorization_rejects_non_units():
    with pytest.raises(RingError):
        elementary_factorization(Zmod(12), Zmod(12).from_int(4))


def test_product_ring():
    r = ProductRing([Zmod(4), Zmod(3)])
    assert r.card == 12
    assert len(r.units()) == 4
    a = r.one + r.one
    assert str(a) == "(2,2)"
    assert r.spec_string() == "prod(Z/4,Z/3)"


def test_parse_ring_spec():
    assert parse_ring_spec("Z/12").spec_string() == "Z/12"
    assert parse_ring_spec("GF(3^2)").card == 9
    assert parse_ring_spec("GF(9)").card == 9
    assert parse_ring_spec("GF(3^2;x^2+1)").modulus == (1, 0, 1)
    # a degree-one term is c*x, cx or x
    assert parse_ring_spec("GF(3^2;x^2+2*x+2)").modulus == (2, 2, 1)
    assert parse_ring_spec("GF(3^2;x^2+2x+2)").modulus == (2, 2, 1)
    assert parse_ring_spec("GF(3^2;x^2+x+2)").modulus == (2, 1, 1)
    assert parse_ring_spec("GR(4,2)").spec_string() == "GR(2^2,2)"
    assert parse_ring_spec("GR(2^2,2)").card == 16
    assert parse_ring_spec("prod(Z/4,Z/3)").card == 12
    assert parse_ring_spec(" Z/7 ").card == 7


def test_make_ring_refuses_a_non_spec_and_an_empty_product():
    with pytest.raises(RingError, match="cannot build a ring from 42"):
        make_ring(42)
    with pytest.raises(RingError, match="product ring needs at least one factor"):
        ProductRing([])


def test_parse_ring_spec_errors_carry_token():
    with pytest.raises(RingSpecError) as exc:
        parse_ring_spec("GF(6^2)")
    assert "6" in exc.value.token
    with pytest.raises(RingSpecError):
        parse_ring_spec("Q/4")
    with pytest.raises(RingSpecError):
        parse_ring_spec("Z/x")


@pytest.mark.parametrize("spec", [
    "GF(3^2;x^a+1)", "GF(3^2;ax^2+1)", "GF(3^2;x^+1)", "GF(3^2;x*x+1)",
    "GR(4,2;x^2+x+a)", "Z/\u00b2", "GF(3^\u00b2)", "Z/--5",
    # a coefficient takes at most one star, and only after a digit run
    "GF(3^2;x^2+2**x+2)", "GF(3^2;x^2+2***x+2)", "GF(3^2;x^2+*x+2)",
    # more digits than int() converts
    pytest.param("Z/" + "9" * 5000, id="Z/<5000 nines>"),
    pytest.param("GF(3^2;x^2+" + "1" * 5000 + ")", id="GF(3^2;x^2+<5000 ones>)"),
    pytest.param("GF(3^2;x^" + "9" * 5000 + "+1)", id="GF(3^2;x^<5000 nines>+1)"),
    pytest.param("GF(2^" + "9" * 5000 + ")", id="GF(2^<5000 nines>)"),
    pytest.param("GR(4," + "9" * 5000 + ")", id="GR(4,<5000 nines>)"),
])
def test_malformed_numbers_raise_spec_error(spec, capsys):
    from mwkit.cli import main

    with pytest.raises(RingSpecError):
        parse_ring_spec(spec)
    assert main(["ringinfo", "--ring", spec]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and not captured.out


@pytest.mark.parametrize("spec", ["GF(2^2;)", "GR(4,2;)", "GF(2^2; )", "GR(4,2; )"])
def test_empty_modulus_refused(spec, capsys):
    # a ';' with nothing after it once fell back to the default modulus
    from mwkit.cli import main

    with pytest.raises(RingSpecError, match="empty polynomial"):
        parse_ring_spec(spec)
    assert main(["ringinfo", "--ring", spec]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and not captured.out


@pytest.mark.parametrize("spec, empty", [
    ("prod()", 1), ("prod(,Z/3)", 1), ("prod(Z/3,)", 2), ("prod(Z/3,,Z/5)", 2),
])
def test_empty_product_factor_named(spec, empty, capsys):
    # an empty factor was once parsed on its own, so the error read
    # "unrecognized ring spec ''" and named neither the factor nor the spec
    from mwkit.cli import main

    with pytest.raises(RingSpecError, match=re.escape(f"empty factor {empty} in {spec!r}")):
        parse_ring_spec(spec)
    assert main(["ringinfo", "--ring", spec]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: empty factor {empty} in {spec!r}\n" and not captured.out


@pytest.mark.parametrize("spec, same", [
    ("GF(2^2;x^2+x+1+2x^3)", "GF(2^2;x^2+x+1)"),
    ("GF(2^2;x^3+x^2+x+1-x^3)", "GF(2^2;x^2+x+1)"),
    ("GR(4,2;x^2+x+1+4x^3)", "GR(4,2;x^2+x+1)"),
])
def test_modulus_with_top_coefficients_zero_mod_q_accepted(spec, same):
    # these moduli are monic of degree 2 once reduced mod q, and were
    # refused as not monic of degree 2
    ring = parse_ring_spec(spec)
    assert ring == parse_ring_spec(same)
    assert ring.modulus == (1, 1, 1)


@pytest.mark.parametrize("spec", ["GF(2^2;0)", "GF(2^2;x^2-x^2)"])
def test_zero_modulus_refused(spec, capsys):
    from mwkit.cli import main

    with pytest.raises(RingError, match="monic of degree 2"):
        parse_ring_spec(spec)
    assert main(["ringinfo", "--ring", spec]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and not captured.out


def test_enumeration_order_is_stable():
    f9 = GaloisField(3, 2)
    first = [el.coords for el in f9.elements()]
    second = [el.coords for el in f9.elements()]
    assert first == second
    assert first[0] == (0, 0)
    assert len(first) == 9


def test_coerce_accepts_structurally_equal_ring():
    first, second = parse_ring_spec("Z/5"), parse_ring_spec("Z/5")
    a, b = first.from_int(2), second.from_int(4)
    assert a + b == first.from_int(1)
    assert a * b == second.from_int(3)
    assert second.coerce(a).ring is second
    p1, p2 = parse_ring_spec("prod(GF(3^2),Z/4)"), parse_ring_spec("prod(GF(3^2),Z/4)")
    assert p1.units()[3] * p2.units()[5] == p1.units()[3] * p1.units()[5]


def _from_int_by_loop(ring, n):
    out = ring.zero
    step = ring.one if n >= 0 else -ring.one
    for _ in range(abs(n)):
        out = out + step
    return out


def test_from_int_matches_repeated_addition(ring_family):
    rings = list(ring_family) + [ProductRing([Zmod(4), GaloisField(3, 2)])]
    for ring in rings:
        for n in range(-40, 41):
            assert ring.from_int(n) == _from_int_by_loop(ring, n), (ring, n)
        big = 2_000_000 * ring.characteristic() + 7
        assert ring.from_int(big) == ring.from_int(7)
        assert ring.from_int(-big) == ring.from_int(-7)


def test_product_ring_characteristic():
    assert ProductRing([Zmod(4), GaloisField(3, 2), Zmod(6)]).characteristic() == 12


def test_cross_instance_element_equality():
    a = parse_ring_spec("Z/7").from_int(3)
    b = parse_ring_spec("Z/7").from_int(3)
    assert a == b and hash(a) == hash(b)
    c = Zmod(5).from_int(3)
    assert a != c
    with pytest.raises(RingError, match="mismatch"):
        a + c


def _trial_division_prime_power(q):
    """The first prime dividing q, tried in increasing order, and its exponent."""
    for p in range(2, q + 1):
        if q % p == 0 and all(p % d for d in range(2, isqrt(p) + 1)):
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return (p, k) if q == 1 else None
    return None


def test_parse_prime_power_matches_trial_division():
    for q in range(2001):
        expected = _trial_division_prime_power(q)
        if expected is None:
            with pytest.raises(RingSpecError):
                _parse_prime_power(str(q))
        else:
            assert _parse_prime_power(str(q)) == expected, q


def _parsed_or_refused(text):
    try:
        return _parse_prime_power(text)
    except RingSpecError as exc:
        return str(exc)


def test_prime_power_parsing_and_primality_match_sympy():
    sympy = pytest.importorskip("sympy")
    for q in range(ELEMENT_BOUND + 2):
        assert _is_prime(q) == sympy.isprime(q), q
        factors = sympy.factorint(q)
        if q > ELEMENT_BOUND:
            # above the bound q comes back untested
            expected = (q, 1)
        elif q >= 2 and len(factors) == 1:
            expected = next(iter(factors.items()))
        else:
            expected = f"'{q}' is not a prime power"
        assert _parsed_or_refused(str(q)) == expected, q


@pytest.mark.parametrize("spec", [
    "GF(1000003)", "GR(1000003,1)",
    # refused on size before the prime is tested or the power is built
    "GF(100000000000000000039)", "GF(100000000000000000039^1)",
    "GR(100000000000000000039,1)", "GF(3^20000000)", "GR(3^20000000,1)",
    # refused before a coefficient tuple of that length is spelled out
    "GF(2^2;x^1000000+1)",
    # the next ring up from one of ELEMENT_BOUND elements, in each kind
    "Z/65537", "GF(2^17)", "GR(2^17,1)", "GR(4,9)", "prod(GF(2^8),Z/257)",
])
def test_large_prime_power_refused(spec):
    with pytest.raises(RingError, match="bound"):
        parse_ring_spec(spec)


def _nested(levels: int, leaf: str) -> str:
    return "prod(" * levels + leaf + ")" * levels


def test_deeply_nested_product_refused(capsys):
    from mwkit.cli import main

    # 400 levels ended in a RecursionError traceback
    for spec in (_nested(400, "Z/2"), _nested(MAX_SPEC_NESTING + 1, "Z/2"),
                 _nested(MAX_SPEC_NESTING, "GF(2^2)"), "prod(Z/2," + _nested(100, "Z/3") + ")"):
        with pytest.raises(RingSpecError, match="nest"):
            parse_ring_spec(spec)
        assert main(["ringinfo", "--ring", spec]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and not captured.out
    # the deepest allowed nest is a ring like any other
    ring = parse_ring_spec(_nested(MAX_SPEC_NESTING, "Z/3"))
    assert ring.spec_string() == _nested(MAX_SPEC_NESTING, "Z/3")
    assert len(ring.units()) == 2 and ring.characteristic() == 3
    assert parse_ring_spec(_nested(MAX_SPEC_NESTING - 1, "GF(2^2)")).card == 4


def test_unit_index_survives_copies():
    # a GaloisField is its own residue field, so its copies hold a cycle; the
    # square map, the square classes, the unit sums and the table of unit
    # products are left behind with the units and rebuilt equal, also on a
    # q = 2 field and on a product
    for spec in ("GR(4,2)", "GF(3^2)", "GF(2^4)", "prod(Z/4,GF(2^2))"):
        ring = parse_ring_spec(spec)
        units = ring.units()
        squares, classes = ring.unit_square_map(), ring.square_classes()
        sums = ring.unit_sum_classes()
        every = GroupRingVector(ring, dict.fromkeys(units, 1))
        square = every * every
        assert sum(map(len, ring.unit_products().values())) == len(units) ** 2
        assert [ring.unit_index(u) for u in units] == list(range(len(units)))
        for clone in (copy.deepcopy(ring), pickle.loads(pickle.dumps(ring))):
            assert clone == ring
            assert clone._square_map is None and clone._square_classes is None
            assert clone._unit_sums is None and clone._unit_products is None
            assert clone.unit_index_by_coords() == ring.unit_index_by_coords()
            assert [clone.unit_index(u) for u in units] == list(range(len(units)))
            assert clone.unit_square_map() == squares
            assert clone.square_classes() == classes
            assert clone.unit_sum_classes() == sums
            again = GroupRingVector(clone, dict.fromkeys(clone.units(), 1))
            assert list((again * again).coeffs.items()) == list(square.coeffs.items())
            assert clone.unit_products() == ring.unit_products()


# the test rings, the gw full-scan rings, every q = 2 Galois ring up to 2^12
# elements, GaloisField or not, one with a modulus other than the default,
# on which the q = 2 square map depends, and products nesting factors of
# characteristic 2
UNIT_TABLE_SPECS = list(dict.fromkeys(
    RING_SPECS + FULL_SCAN_SPECS
    + [f"GF(2^{k})" for k in range(1, 13)] + [f"GR(2,{k})" for k in range(1, 13)]
    + ["GR(2,3;x^3+x^2+1)", "prod(GF(2^3;x^3+x^2+1),Z/3)"]
    + ["prod(GR(4,2),prod(Z/3,GF(2^2)))", "prod(GF(2^6),Z/61)", "prod(Z/3,Z/5,Z/7)",
       "prod(prod(GF(2^2),Z/4),GR(2,3))", "prod(Z/2,prod(GR(8,2),Z/9))"]))


@pytest.mark.parametrize("spec", UNIT_TABLE_SPECS)
def test_unit_tables_match_per_unit_products(spec):
    ring = parse_ring_spec(spec)
    coords = oracle.unit_coords(ring)
    assert [u.coords for u in ring.units()] == coords
    assert ring.unit_index_by_coords() == {c: i for i, c in enumerate(coords)}
    assert ring.unit_square_map() == oracle.square_map(ring)
    assert ring.square_classes() == oracle.square_classes(ring)
    assert ring.unit_squares() == {ring.units()[i] for i in oracle.square_map(ring)}
    sums = ring.unit_sum_classes()
    assert sums == oracle.unit_sum_classes(ring)
    classes, count = ring.square_classes()
    if isinstance(ring, ProductRing):
        # the composed numbering is the one the walk over the product's units gives
        assert (classes, count) == Ring._build_square_classes(ring)
    if len(coords) > 512:
        return
    # the XOR law, and the defining property of the unit sums: the classes
    # of the unit sums a + b, for a of class A and b of class B, are the
    # A ^ d for d in D[A ^ B]
    index = ring.unit_index_by_coords()
    reached = {}
    for a, b in product(range(len(coords)), repeat=2):
        assert classes[index[ring._mul(coords[a], coords[b])]] == classes[a] ^ classes[b]
        k = index.get(ring._add(coords[a], coords[b]))
        if k is not None:
            reached.setdefault((classes[a], classes[b]), set()).add(classes[k])
    for x, y in product(range(count), repeat=2):
        assert reached.get((x, y), set()) == {x ^ d for d in sums[x ^ y]}, (x, y)


# the largest rings of each kind, and a modulus with four prime factors
CAP_SPECS = ["GF(2^16)", "GR(4,8)", "GR(27,3)", "Z/65536", "Z/65535", "Z/65521",
             "prod(GF(2^8),Z/251)"]


@pytest.mark.parametrize("spec", UNIT_TABLE_SPECS + CAP_SPECS)
def test_unit_masks_and_texts_match_the_oracle(spec):
    # the units come from each ring's structural mask, and a Galois ring's
    # texts are built one degree at a time: both against enumerate-then-filter
    # and formatting each unit on its own
    ring = parse_ring_spec(spec)
    assert list(ring.unit_index_by_coords()) == oracle.unit_coords(ring)
    units = ring.units()
    assert ring.unit_texts() == [oracle.format_element(u) for u in units] == list(map(str, units))


@pytest.mark.parametrize("spec,terms", [("prod(GF(2^6),Z/61)", 6),
                                        ("prod(GR(4,2),prod(Z/3,GF(2^2)))", 3 * 2 + 1 * 2),
                                        ("prod(GF(2^8),Z/251)", 8)])
def test_product_unit_texts_format_each_factor_unit_once(spec, terms, monkeypatch):
    # a count, not a time: a product composes its unit texts from its
    # factors', and a Galois factor formats no unit on its own, only its
    # q - 1 nonzero terms in each of k degrees
    ring = parse_ring_spec(spec)
    seen, polys = [], []
    poly_term, poly_str = finring._poly_term, finring._poly_str
    monkeypatch.setattr(finring, "_poly_term", lambda d, c: seen.append(1) or poly_term(d, c))
    monkeypatch.setattr(finring, "_poly_str", lambda c: polys.append(1) or poly_str(c))
    texts = ring.unit_texts()
    assert (len(seen), len(polys)) == (terms, 0)
    assert len(texts) == len(ring.units())


@pytest.mark.parametrize("spec", ["GF(2^12)", "GR(2,12)", "prod(GF(2^6),Z/61)"])
def test_square_tables_take_few_products(spec, monkeypatch):
    # a count, not a time: squaring is F_2-linear when q = 2, so the map
    # takes one Galois product per basis element, k where squaring each
    # unit takes 2^k - 1; a product composes its tables from its factors'
    # and never multiplies in the product ring
    ring = parse_ring_spec(spec)
    ring.units()
    galois = [f for f in getattr(ring, "factors", (ring,)) if isinstance(f, GaloisRing)]
    muls, product_muls = [], []
    for f in galois:
        mul = f._mul
        monkeypatch.setattr(f, "_mul", lambda a, b, mul=mul: muls.append(1) or mul(a, b))
    product_mul = ProductRing._mul
    monkeypatch.setattr(ProductRing, "_mul",
                        lambda self, a, b: product_muls.append(1) or product_mul(self, a, b))
    ring.unit_square_map()
    ring.square_classes()
    assert 0 < len(muls) <= sum(f.k for f in galois)
    assert not product_muls


@pytest.mark.parametrize("spec", ["GF(2^8)", "GR(4,3)"])
def test_unit_sums_take_no_coordinate_sums(spec, monkeypatch):
    # a count, not a time: 1 + u changes the constant coefficient alone, so
    # the unit sum table takes one _plus_one per unit and no _add, which
    # sums all k coefficients
    ring = parse_ring_spec(spec)
    ring.square_classes()
    adds = []
    add = GaloisRing._add
    monkeypatch.setattr(GaloisRing, "_add", lambda self, a, b: adds.append(1) or add(self, a, b))
    sums = ring.unit_sum_classes()
    assert not adds
    monkeypatch.undo()
    assert sums == oracle.unit_sum_classes(ring)


def test_unit_index_checks_the_ring_before_the_coordinates():
    z7 = Zmod(7)
    assert z7.unit_index(z7.coerce(3)) == 2
    # 3 of Z/11 has coordinates that index a unit of Z/7, but is not one
    for key in (Zmod(11).coerce(3), 3, z7.zero, z7.coerce(0)):
        with pytest.raises(RingError):
            z7.unit_index(key)
    # an element of a structurally equal ring handle is a unit of this ring
    twin = Zmod(7)
    assert [z7.unit_index(u) for u in twin.units()] == list(range(6))
    for spec in ("GF(3^2)", "prod(Z/4,GF(2^2))"):
        ring, twin = parse_ring_spec(spec), parse_ring_spec(spec)
        assert [ring.unit_index(u) for u in twin.units()] == list(range(len(ring.units())))
        with pytest.raises(RingError):
            ring.unit_index(ring.zero)


def test_is_unit_agrees_with_inverse(ring_family):
    rings = list(ring_family) + [parse_ring_spec("prod(Z/4,GF(2^2))"), parse_ring_spec("GR(9,2)")]
    for ring in rings:
        for x in ring.elements():
            has_inverse = ring._inverse_or_none(x.coords) is not None
            assert ring._is_unit(x.coords) == has_inverse == x.is_unit(), (ring, x)


@pytest.mark.parametrize("spec", ["Z/9", "GR(4,2)", "GF(2^3)", "prod(Z/4,GF(2^2))"])
def test_pow_is_the_repeated_product(spec, monkeypatch):
    ring = parse_ring_spec(spec)
    for x in ring.elements():
        power = oracle.one(ring)
        for n in range(10):
            assert ring._pow(x.coords, n) == power.coords, (x, n)
            power = oracle.mul(power, x)
        for n in range(-3, 0):
            if x.is_unit():
                assert x**n == x.inverse() ** -n, (x, n)
            else:
                with pytest.raises(RingError):
                    x**n
    # a^1 takes no product, so the many eval letters of exponent 1 cost
    # one product each, with the accumulator
    calls = []
    mul = ring._mul
    monkeypatch.setattr(ring, "_mul", lambda a, b: calls.append(1) or mul(a, b))
    assert [ring._pow(x.coords, 1) for x in ring.elements()] == [x.coords for x in ring.elements()]
    assert not calls


def test_elements_are_immutable():
    for spec in ("Z/7", "GF(3^2)", "GR(4,2)", "prod(Z/4,GF(2^2))"):
        ring = parse_ring_spec(spec)
        x = ring.units()[-1]
        before = (x.ring, x.coords, hash(x))
        for name, value in (("ring", Zmod(5)), ("coords", ring.one.coords), ("_hash", 0)):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
        assert (x.ring, x.coords, hash(x)) == before


def test_element_copies_equal_and_hash_alike():
    # one ring of each kind, and products whose coordinates are tuples of
    # factor coordinates, one of them nesting another product
    for spec in ("Z/12", "GF(3^2)", "GR(9,2)", "prod(Z/4,GF(2^2))",
                 "prod(GR(4,2),prod(Z/3,GF(2^2)))"):
        ring = parse_ring_spec(spec)
        for x in ring.elements():
            for clone in (copy.deepcopy(x), pickle.loads(pickle.dumps(x)), copy.copy(x)):
                assert type(clone) is RingElement
                assert clone == x and hash(clone) == hash(x)
                assert clone * clone == x * x and clone.is_unit() == x.is_unit()


_LOOKUP_IN_FRESH_PROCESS = """
import copy, pickle, sys
from mwkit.finring import make_ring
for ring, units in pickle.loads(sys.stdin.buffer.read()):
    fresh = make_ring(ring.spec_string())
    index = {u: i for i, u in enumerate(fresh.units())}
    print(hash(ring) == hash(fresh),
          all(u in index for u in units),
          all(len({u, v}) == 1 and hash(u) == hash(v) for u, v in zip(units, fresh.units())),
          ring.unit_index_by_coords() == fresh.unit_index_by_coords())
    # products from the loaded ring and from a deep copy of it, whose
    # Galois kernels are rebuilt here, find their fresh twins
    for clone in (ring, copy.deepcopy(ring)):
        products = [x * y for x in clone.units() for y in units]
        print(all(p in index for p in products),
              products == [x * y for x in fresh.units() for y in fresh.units()])
"""


def _galois_kernels(ring):
    """The product kernel slot of every Galois ring in ring, factors included."""
    if isinstance(ring, ProductRing):
        return [k for f in ring.factors for k in _galois_kernels(f)]
    return [ring._mul_kernel] if isinstance(ring, GaloisRing) else []


def test_pickled_ring_and_units_rehash_under_another_hash_seed():
    payload = []
    for spec in ("GF(3^2)", "Z/7", "prod(Z/4,GF(2^2))"):
        ring = parse_ring_spec(spec)
        payload.append((ring, ring.units()))  # the ring's unit caches are filled
    for spec in ("GF(3^2)", "prod(Z/4,GF(2^2))"):
        ring = parse_ring_spec(spec)
        units = ring.units()
        assert units[-1] * units[-1] in units  # the kernel is built
        assert all(_galois_kernels(ring))
        for clone in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
            assert not any(_galois_kernels(clone))
            assert clone == ring and hash(clone) == hash(ring)
            products = [x * y for x in clone.units() for y in units]
            assert all(_galois_kernels(clone))  # rebuilt by the first product
            assert products == [x * y for x in units for y in units]
            assert [hash(p) for p in products] == [hash(x * y) for x in units for y in units]
        payload.append((ring, units))
    env = dict(os.environ, PYTHONPATH=str(Path(mwkit.__file__).resolve().parents[1]))
    for seed in ("12345", "54321"):  # at least one differs from this process's seed
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run([sys.executable, "-c", _LOOKUP_IN_FRESH_PROCESS],
                             input=pickle.dumps(payload), capture_output=True, env=env,
                             timeout=60, check=True)
        assert out.stdout.split() == [b"True"] * 8 * len(payload), out.stderr


_PRODUCT_IN_FRESH_PROCESS = """
import copy, pickle, sys
from mwkit.gwring import GroupRingVector
for ring, coeffs, square in pickle.loads(sys.stdin.buffer.read()):
    for clone in (ring, copy.deepcopy(ring)):
        print(clone._unit_index is None)
        x = GroupRingVector(clone, coeffs)
        print(list((x * x).coeffs.items()) == square)
"""


def test_cloned_rings_drop_the_unit_index_and_multiply_alike():
    # units() builds the unit index; a pickled or copied ring leaves it
    # behind and rebuilds it, here and in a process with another hash
    # seed, and its products keep their keys and order
    payload = []
    for spec in ("Z/7", "GF(3^2)", "GR(4,2)", "prod(Z/4,GF(2^2))"):
        ring = parse_ring_spec(spec)
        coeffs = {u: i % 5 - 2 for i, u in enumerate(ring.units())}
        square = list((GroupRingVector(ring, coeffs) * GroupRingVector(ring, coeffs)).coeffs.items())
        assert ring._unit_index is not None
        for clone in (copy.deepcopy(ring), pickle.loads(pickle.dumps(ring))):
            assert clone == ring and clone._unit_index is None
            x = GroupRingVector(clone, {u: i % 5 - 2 for i, u in enumerate(clone.units())})
            assert list((x * x).coeffs.items()) == square
            assert clone.unit_index_by_coords() == ring.unit_index_by_coords()
        payload.append((ring, coeffs, square))
    env = dict(os.environ, PYTHONPATH=str(Path(mwkit.__file__).resolve().parents[1]))
    for seed in ("12345", "54321"):  # at least one differs from this process's seed
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run([sys.executable, "-c", _PRODUCT_IN_FRESH_PROCESS],
                             input=pickle.dumps(payload), capture_output=True, env=env,
                             timeout=60, check=True)
        assert out.stdout.split() == [b"True"] * 4 * len(payload), out.stderr


# sha256 of each ring's element order, + and * tables, inverses, spec,
# characteristic and is_field, recorded when GaloisField and GaloisRing were
# still two separate copies of the arithmetic
GALOIS_TABLE_DIGESTS = {
    "GF(2^1)": "17c4075f4d12e7749295ad6f02e7917220534f184f0eea344d87a2941f31bc53",
    "GF(2^2)": "00fd14a936bcff0e5cce683ff35b7d5a802cb7e8eae06bd1f44a97016f3e7356",
    "GF(2^3)": "4369f83cddc61cf3fe06db8ec7d86bf2529eacab6919d64ccd4ef9568b52bc8c",
    "GF(2^5)": "7b4f75956c0bada33e259f24d02e562e321efcf91987776e1c669277888b1538",
    "GF(3^2)": "65d2c5772c1ae34d15a3788a45cb717cd11f8903196d09d0cbcb483bb023d50a",
    "GF(3^3)": "fec5b813f50031621d0889309329571b2b78bacd66c3b04a40795816063d9ed9",
    "GF(5^2)": "5be18955c3d3cc51ea61e896ac5d1b2245a5056f81cc2ff6e9365fd610a8201b",
    "GF(7^2)": "14fb366d25dcef8aca2795f402b80ff8ef3cbac00eb79e5a630f1becc7a64866",
    "GF(3^2;x^2+x+2)": "e4d93946b2baf51c289f8e475f183f165ba845016ddcb7e0c35a778f313c95f0",
    "GR(4,2)": "84402bebbab185aa33da1cd81e528b9851339acc2372ec19bc7c7112e44ae807",
    "GR(4,3)": "6b300cd196db27cd76177ebc0e270ac5727be0b6e2b8e387154610f6f9a826bb",
    "GR(8,2)": "1b1d99c6606a439d4be87d352681ce64bb67f644c9d23d38de126b2d97164348",
    "GR(9,2)": "0516586f8c3a6843049b74394ec23e32bdefece02efddd8d2c16d29831ac72a6",
    "GR(25,1)": "0a33e6d7eeab182d50926fb46a89f042220805981c45222387c6058b2949213f",
    "GR(3,2)": "4ec3053b411aa1d4ccf640f436a5cba79435c43c5244947530c68223f27d6ea5",
    "prod(GF(2^2),GR(4,2))": "6c03c96ba83bac6d845871c02f41fba8280ebcef0f227ce9652e4eb657496305",
}


def _table_digest(ring):
    els = list(ring.elements())
    index = {x: i for i, x in enumerate(els)}
    h = hashlib.sha256()
    h.update(repr((ring.spec_string(), ring.characteristic(), ring.is_field,
                   [str(x) for x in els])).encode())
    for a in els:
        inv = ring.inverse_or_none(a)
        h.update(repr(([index[a + b] for b in els], [index[a * b] for b in els],
                       -1 if inv is None else index[inv])).encode())
    return h.hexdigest()


@pytest.mark.parametrize("spec", list(GALOIS_TABLE_DIGESTS))
def test_galois_tables_match_parent(spec):
    assert _table_digest(parse_ring_spec(spec)) == GALOIS_TABLE_DIGESTS[spec]


def test_galois_field_is_the_unramified_case():
    field, ring = parse_ring_spec("GF(3^2)"), parse_ring_spec("GR(3^1,2)")
    assert field != ring
    assert isinstance(field, GaloisRing) and oracle.residue_field(field) is field
    assert isinstance(oracle.residue_field(ring), GaloisField)
    assert oracle.residue_field(ring) == oracle.residue_field(field)
    assert ring.is_field and ring.spec_string() == "GR(3^1,2)"


# ---------------------------------------------------------------------------
# the coordinate kernels against the arithmetic they replaced (ring_oracle)

ORACLE_SPECS = sorted(
    {s for s in RING_SPECS if not s.startswith("Z/")} | set(GALOIS_TABLE_DIGESTS)
    | {"prod(Z/4,GF(2^2))", "prod(Z/5,GF(2^4))", "prod(Z/2,prod(Z/3,GR(4,2)))",
       "GR(27,1)", "GR(2,3)"})


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_arithmetic_matches_oracle_on_all_pairs(spec):
    ring = parse_ring_spec(spec)
    assert ring.card <= 256
    els = list(ring.elements())
    assert els == oracle.elements(ring)
    assert [str(x) for x in els] == [oracle.format_element(x) for x in els]
    assert (ring.zero, ring.one) == (oracle.zero(ring), oracle.one(ring))
    one = oracle.one(ring)
    for x in els:
        assert -x == oracle.neg(x)
        assert ring._plus_one(x.coords) == oracle.add(one, x).coords
        inverse = None
        for y in els:
            assert x + y == oracle.add(x, y)
            xy = oracle.mul(x, y)
            assert x * y == xy, (x, y)
            if xy == one:
                inverse = y
        assert ring.inverse_or_none(x) == inverse
        assert x.is_unit() == (inverse is not None)
    for n in range(-3 * ring.characteristic(), 3 * ring.characteristic() + 1):
        assert ring.from_int(n) == oracle.from_int(ring, n)


RANDOM_PAIR_SPECS = ["GF(2^12)", "GF(2^16)", "GF(5^4)", "GR(16,2)", "GR(9,2)", "GF(251^2)",
                     "GF(65521)"]


def test_random_pairs_cover_every_slot_width():
    # every Galois ring GR(q, k) with k >= 2 within the bound takes 1, 2 or 4
    # bytes, and the random pairs below reach each width
    every = {_slot_bytes(q, k)
             for q in range(2, isqrt(ELEMENT_BOUND) + 1) if _trial_division_prime_power(q)
             for k in range(2, ELEMENT_BOUND.bit_length()) if q**k <= ELEMENT_BOUND}
    rings = [parse_ring_spec(s) for s in RANDOM_PAIR_SPECS]
    assert {_slot_bytes(r.q, r.k) for r in rings if r.k > 1} == every == {1, 2, 4}


@pytest.mark.parametrize("spec", RANDOM_PAIR_SPECS)
def test_galois_product_matches_schoolbook_on_random_pairs(spec):
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    # the extremes first: all zero, all q - 1
    pairs = [((0,) * ring.k, (ring.q - 1,) * ring.k), ((ring.q - 1,) * ring.k,) * 2]
    for _ in range(2000):
        pairs.append(tuple(tuple(rng.randrange(ring.q) for _ in range(ring.k)) for _ in "ab"))
    for a, b in pairs:
        assert ring._mul(a, b) == oracle.schoolbook_mul(ring, a, b), (a, b)


def _is_canonical(ring, coords) -> bool:
    if isinstance(ring, ProductRing):
        return (type(coords) is tuple and len(coords) == len(ring.factors)
                and all(map(_is_canonical, ring.factors, coords)))
    if isinstance(ring, GaloisRing):
        return (type(coords) is tuple and len(coords) == ring.k
                and all(type(c) is int and 0 <= c < ring.q for c in coords))
    return type(coords) is int and 0 <= coords < ring.m


CANONICAL_SPECS = ["GF(2^12)", "GF(251^2)", "GF(65521)", "GR(16,2)", "GR(9,2)", "GR(4,3)",
                   "GF(3^2;x^2+x+2)", "prod(GF(2^6),Z/61)", "prod(Z/4,GF(2^2))",
                   "prod(GR(4,2),prod(Z/3,GF(2^2)))"]


def _coords(ring):
    """A strategy for canonical coordinates of ring."""
    if isinstance(ring, ProductRing):
        return st.tuples(*map(_coords, ring.factors))
    if isinstance(ring, GaloisRing):
        return st.tuples(*[st.integers(0, ring.q - 1)] * ring.k)
    return st.integers(0, ring.m - 1)


def _galois_parts(x):
    """x's factor elements in every Galois factor, nested products included."""
    if isinstance(x.ring, ProductRing):
        return [g for f in oracle.factor_elements(x) for g in _galois_parts(f)]
    return [x] if isinstance(x.ring, GaloisRing) else []


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_every_operation_returns_canonical_coordinates():
    rings = {spec: parse_ring_spec(spec) for spec in CANONICAL_SPECS}

    @settings(max_examples=300)
    @given(st.data())
    def check(data):
        spec = data.draw(st.sampled_from(CANONICAL_SPECS))
        ring = rings[spec]
        x, y = (RingElement(ring, data.draw(_coords(ring))) for _ in "xy")
        n = data.draw(st.integers(-(1 << 70), 1 << 70))
        made = [x + y, -x, x - y, x * y, x * x * y, y ** 3, ring.from_int(n), n * x, x + n,
                ring.coerce(n), parse_ring_spec(spec).coerce(x), ring.zero, ring.one,
                ring.minus_one()]
        inv = ring.inverse_or_none(x)
        if inv is not None:
            made += [inv, x.inverse(), x ** -3]
        for g in _galois_parts(x):
            made += [oracle.residue(g), oracle.gen(g.ring), g * oracle.gen(g.ring)]
        for el in made:
            assert _is_canonical(el.ring, el.coords), (spec, el.coords)

    check()
