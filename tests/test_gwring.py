import copy
import gc
import operator
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import mwkit
from conftest import GW_SPECS
from gw_oracle import (
    oracle_class_equal,
    oracle_compare,
    oracle_eval_in_ring,
    oracle_eval_unit,
    oracle_has_unit_sums,
    oracle_invert_two_split,
    oracle_orderings,
    oracle_pair_rows,
    oracle_presentation,
    oracle_product,
    oracle_relation_lattice,
    oracle_relations,
    oracle_scale,
    oracle_spin_up_lattice,
    oracle_sum,
    oracle_torsion_exponent,
    oracle_unit_generators,
)
try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis comes with the `test` extra
    st = None

from mwkit import gwring, kmwterm as km
from mwkit.finring import GaloisRing, ProductRing, Ring, RingElement, Zmod, parse_ring_spec
from mwkit.gwring import (
    GroupRingVector,
    GwPresentedRing,
    PresentationKind,
    SplitReport,
    _dense,
    _has_unit_sums,
    _presented_rows,
    build_relations,
    compare_presentations,
    mul,
)
from mwkit.presab import ZLattice
from mwkit.sumsq import unit_square_closure
from presab_oracle import oracle_quotient

# the presentation family plus two products; the comparison fails on Z/16
# (witness <9> - <1>) and on prod(Z/4,GF(2^2))
ORACLE_SPECS = GW_SPECS + ["prod(Z/3,Z/5)", "prod(Z/4,GF(2^2))"]


def angle(ring, x):
    return GroupRingVector.angle(ring, ring.coerce(x))


# ---------------------------------------------------------------------------
# relation lattices


def test_build_relations_z4_reduced_empty():
    z4 = Zmod(4)
    # independent enumeration: all family instances must degenerate
    units = z4.units()
    for a in units:
        assert {a * b * b for b in units} == {a}  # family (i) rows vanish
        row_ii = sorted([str(a), str(-a)]) == sorted([str(z4.one), str(-z4.one)])
        assert row_ii  # family (ii) rows vanish
    for a in units:
        for b in units:
            assert not (a + b).is_unit()  # family (iii) has no instances
    assert build_relations(z4, "reduced") == []


def test_build_relations_f3_hopf_span():
    rows = build_relations(Zmod(3), "hopf")
    lat = ZLattice(2, rows)
    expected = ZLattice(2, [[2, -2]])
    assert lat.spans_same(expected)


def test_build_relations_f2_empty():
    assert build_relations(Zmod(2), "hopf") == []
    assert build_relations(Zmod(2), "reduced") == []


@pytest.mark.parametrize("kind", ["hopf", "reduced"])
@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_relation_lattice_matches_oracle(spec, kind):
    ring = parse_ring_spec(spec)
    lattice = gwring.present(ring, kind).lattice
    oracle = ZLattice(len(ring.units()), oracle_relations(ring, kind))
    assert lattice.spans_same(oracle)
    assert build_relations(ring, kind) == lattice.basis()


# the oracle family, three more rings with residue field F_2, where family
# (iii) is empty, then larger rings where it is not
FULL_SCAN_SPECS = ORACLE_SPECS + ["Z/32", "Z/64", "prod(Z/16,Z/5)", "Z/61", "GF(2^6)",
                                  "GF(3^4)", "GR(16,2)", "Z/127"]


@pytest.mark.parametrize("spec", FULL_SCAN_SPECS + ["GF(2^3)", "Z/19", "GR(8,2)"])
def test_equal_lattices_have_equal_bases(spec):
    # the reduced lattice contains the hopf one, so they are equal exactly
    # when the comparison holds, and then their reduced Hermite bases and
    # their presentations agree: `table` reads the hopf columns off the
    # reduced presentation whenever the comparison holds
    ring = parse_ring_spec(spec)
    same = build_relations(ring, "hopf") == build_relations(ring, "reduced")
    assert same == compare_presentations(ring).extra_relations_implied
    hopf, reduced = gwring.present(ring, "hopf"), gwring.present(ring, "reduced")
    if same:
        assert (hopf.rank, hopf.torsion) == (reduced.rank, reduced.torsion)


@pytest.mark.parametrize("kind", ["hopf", "reduced"])
@pytest.mark.parametrize("spec", FULL_SCAN_SPECS)
def test_relation_lattice_matches_full_scan(spec, kind):
    lattice = gwring.present(parse_ring_spec(spec), kind).lattice
    oracle = oracle_relation_lattice(parse_ring_spec(spec), kind)
    assert lattice.basis() == oracle.basis()
    assert lattice.spans_same(oracle)


def _units_sum_to_a_unit(ring) -> bool:
    """Whether family (iii) has an instance, by the element-level pair scan."""
    units = ring.units()
    return any((a + b).is_unit() for a in units for b in units)


@pytest.mark.parametrize("spec", FULL_SCAN_SPECS)
def test_hopf_lattice_dichotomy(spec):
    # with some a + b a unit the hopf lattice is the reduced one; without,
    # it is the span of the rows f(a) = <a> + <-a> - <1> - <-1>, with no
    # translates, and differs from the reduced lattice exactly when family
    # (i) has a nonzero row, i.e. when some unit square is not 1
    ring = parse_ring_spec(spec)
    units = ring.units()
    hopf, reduced = gwring.present(ring, "hopf").lattice, gwring.present(ring, "reduced").lattice
    assert hopf.spans_same(oracle_spin_up_lattice(parse_ring_spec(spec), "hopf"))
    assert reduced.spans_same(oracle_spin_up_lattice(parse_ring_spec(spec), "reduced"))
    if _units_sum_to_a_unit(ring):
        assert hopf.spans_same(reduced), spec
    else:
        index = {u: i for i, u in enumerate(units)}
        rows = []
        for a in units:
            row = [0] * len(units)
            for sign, u in ((1, a), (1, -a), (-1, ring.one), (-1, ring.minus_one())):
                row[index[u]] += sign
            rows.append(row)
        assert hopf.spans_same(ZLattice(len(units), rows)), spec
        assert hopf.spans_same(reduced) == all(u * u == ring.one for u in units), spec


@pytest.mark.parametrize("spec", ["Z/127", "GR(4,3)", "prod(Z/5,Z/7)"])
def test_present_and_compare_stay_off_the_units(spec, monkeypatch):
    # a count, not a time: no residue field of these rings is F_2, so both
    # kinds present on the square classes and the comparison is answered
    # without a lattice of dimension |U|
    ring = parse_ring_spec(spec)
    n = len(ring.units())
    dims = []
    insert = ZLattice._insert

    def counting_insert(self, v):
        dims.append(self.n)
        return insert(self, v)

    monkeypatch.setattr(ZLattice, "_insert", counting_insert)
    for kind in ("hopf", "reduced"):
        gwring.present(ring, kind).report()
    assert compare_presentations(ring).extra_relations_implied is True
    assert dims and n not in dims, set(dims)


@pytest.mark.parametrize("spec", ["Z/128", "Z/1024", "prod(Z/2,Z/61)"])
def test_compare_builds_no_lattice_on_f2_residue_rings(spec, monkeypatch):
    # a count, not a time: with a residue field F_2 the comparison is read
    # off the unit squares, so it builds no lattice, and the reduced report
    # presents on the square classes only (the |U| / 2 rows f(a) went into
    # a lattice of dimension |U| when the comparison read the hopf lattice).
    # The hopf kind is left out: it still presents in dimension |U|
    ring = parse_ring_spec(spec)
    n = len(ring.units())
    dims, built = [], []
    insert, init = ZLattice._insert, ZLattice.__init__

    def counting_insert(self, v):
        dims.append(self.n)
        return insert(self, v)

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ZLattice, "_insert", counting_insert)
    monkeypatch.setattr(ZLattice, "__init__", counting_init)
    assert compare_presentations(ring).extra_relations_implied is False
    assert not built and not dims, (len(built), set(dims))
    report = gwring.present(ring, "reduced").report()
    assert report["presentation_comparison"] is False
    assert dims and n not in dims, set(dims)


@pytest.mark.parametrize("kind", ["hopf", "reduced"])
@pytest.mark.parametrize("spec", ["Z/127", "Z/257", "Z/128"])
def test_family_rows_make_linearly_many_additions(spec, kind, monkeypatch):
    # a count, not a time: the seeds take one sum per unit for the unit-sum
    # table, and the test for unit sums none, as it reads the ring's kind
    # (a sum 1 + u is a _plus_one, any other an _add),
    # where the first unit of each class summed with every unit took
    # (C + 1) |U| and the pair scan |U|^2 / 2; the hopf kind of Z/128, with
    # residue field F_2, builds no unit-sum table.  The products are those of the square
    # map and the class map, at most 2 |U| + C, where a C x C class table
    # took C^2 more (689 on Z/127 with two products per family (iii) pair)
    ring = parse_ring_spec(spec)
    units = ring.units()
    classes = len(units) // len(ring.unit_squares())
    adds, muls = [], []
    add, plus_one, mul = ring._add, ring._plus_one, ring._mul
    monkeypatch.setattr(ring, "_add", lambda a, b: adds.append(1) or add(a, b))
    monkeypatch.setattr(ring, "_plus_one", lambda a: adds.append(1) or plus_one(a))
    monkeypatch.setattr(ring, "_mul", lambda a, b: muls.append(1) or mul(a, b))
    gwring.present(ring, kind).lattice
    assert len(adds) == (0 if (spec, kind) == ("Z/128", "hopf") else len(units))
    assert len(muls) <= 2 * len(units) + classes


@pytest.mark.parametrize("spec", FULL_SCAN_SPECS + ["Z/25", "Z/12", "Z/128", "GR(4,3)", "Z/257",
                                                   "GR(4,5)", "GR(8,4)", "prod(Z/15,Z/24)",
                                                   "prod(Z/2,prod(GR(8,2),Z/9))"])
def test_family_rows_match_pair_scan(spec):
    # the presented rows span the lattice of the scan with a family (ii) row
    # per unit and two products per family (iii) pair; the reduced rows are
    # generator rows, fewer than the scan's, and the hopf rows of a ring
    # with residue field F_2 are the scan's rows, each once
    ring = parse_ring_spec(spec)
    classes, count = ring.square_classes()
    firsts: dict = {}
    for i, c in enumerate(classes):
        firsts.setdefault(c, i)
    for kind in PresentationKind:
        rep, m, rows = _presented_rows(ring, kind)
        if kind is PresentationKind.HOPF and not _has_unit_sums(ring):
            pair_rows = oracle_pair_rows(ring, rep, ())
            assert len(set(rows)) == len(rows)
            assert sorted(rows) == sorted(pair_rows)
        else:
            assert rep == classes
            pair_rows = oracle_pair_rows(ring, classes, firsts.values())
        assert ZLattice(m, (_dense(m, key) for key in rows)).spans_same(
            ZLattice(m, (_dense(m, key) for key in pair_rows)))


@pytest.mark.parametrize("spec", ["GR(4,6)", "prod(Z/3,Z/3,Z/3,Z/3,Z/3,Z/3,Z/3,Z/3,Z/3,Z/3)"])
def test_reduced_rows_are_generator_rows(spec):
    # a count: for each class t at most log2 C classes h and C/2 cosets of
    # <t, h>, where a row for each class and each pair of the unit-sum
    # table gave 32,736 rows on GR(4,6) (C = 64, bound 24,960)
    ring = parse_ring_spec(spec)
    _, count, rows = _presented_rows(ring, PresentationKind.REDUCED)
    log = count.bit_length() - 1
    assert len(rows) <= count * count * log + count * log


@pytest.mark.parametrize("spec", ["Z/127", "GR(4,4)", "prod(Z/3,Z/3,Z/3,Z/3,Z/3)",
                                  "prod(Z/15,Z/24)"])
def test_rows_and_class_sums_make_no_ring_products(spec, monkeypatch):
    # a count, not a time: once the ring's tables are built, the rows and
    # the sum-of-squares fixpoint read class products as XORs of class
    # numbers, where a C x C class table took C^2 products
    ring = parse_ring_spec(spec)
    ring.unit_sum_classes()  # builds the square map and the classes first
    muls = []
    mul = ring._mul
    monkeypatch.setattr(ring, "_mul", lambda a, b: muls.append(1) or mul(a, b))
    for kind in PresentationKind:
        gwring._presented_rows(ring, kind)
    unit_square_closure(ring)
    assert not muls


@pytest.mark.parametrize("spec", ["prod(Z/3,Z/3,Z/3,Z/3,Z/3)", "prod(Z/15,Z/24)",
                                  "prod(Z/2,prod(GR(8,2),Z/9))"])
def test_product_rows_make_no_product_ring_products(spec, monkeypatch):
    # a count, not a time: a product composes its unit tables from its
    # factors', so neither they nor the rows nor the fixpoint multiply in
    # the product ring (1,048,576 calls on ten Z/3's for the class table)
    muls = []
    mul = ProductRing._mul
    monkeypatch.setattr(ProductRing, "_mul",
                        lambda self, a, b: muls.append(1) or mul(self, a, b))
    ring = parse_ring_spec(spec)
    for kind in PresentationKind:
        gwring._presented_rows(ring, kind)
    unit_square_closure(ring)
    assert not muls


@pytest.mark.parametrize("spec", ORACLE_SPECS + ["Z/61", "GR(9,2)", "prod(GF(2^2),Z/7)"])
def test_unit_generators_match_element_oracle(spec):
    # the spin-up oracles close their seeds under oracle_unit_generators,
    # which gives the ideal only if the units it multiplies by generate R^x
    ring = parse_ring_spec(spec)
    one = ring.unit_index_by_coords()[ring.one.coords]
    perms = oracle_unit_generators(ring)
    reached, frontier = {one}, [one]
    while frontier:
        i = frontier.pop()
        for perm in perms:
            if perm[i] not in reached:
                reached.add(perm[i])
                frontier.append(perm[i])
    assert len(reached) == len(ring.units())


@pytest.mark.parametrize("spec", ["Z/127", "GR(4,3)", "prod(Z/5,Z/7)"])
def test_unit_loops_build_almost_no_ring_elements(spec, monkeypatch):
    # a count, not a time: the unit loops run on coordinates and unit
    # indices, so once the units are built each call below constructs at
    # most a few elements (the element-level loops built 755 to 2268 on Z/127)
    ring = parse_ring_spec(spec)
    ring.units()
    built = []
    init = RingElement.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(RingElement, "__init__", counting)
    calls = [("hopf", lambda: gwring.present(ring, "hopf").lattice),
             ("reduced", lambda: gwring.present(ring, "reduced").lattice),
             ("sumsq", lambda: unit_square_closure(ring)),
             ("report", lambda: GwPresentedRing(ring, PresentationKind.REDUCED).report())]
    for name, call in calls:
        built.clear()
        call()
        assert len(built) <= 4, (name, len(built))


def test_present_examples(presented):
    p = presented(Zmod(2), "reduced")
    assert (p.rank, p.torsion) == (1, ())
    p = presented(Zmod(4), "reduced")
    assert (p.rank, p.torsion) == (2, ())
    p = presented(Zmod(7), "reduced")
    assert (p.rank, p.torsion) == (1, (2,))


# ---------------------------------------------------------------------------
# group ring arithmetic


def test_mul_examples():
    f7 = Zmod(7)
    assert mul(angle(f7, 3), angle(f7, 5)) == angle(f7, 1)
    x = angle(f7, 3) + 2 * angle(f7, 5)
    assert mul(GroupRingVector.one(f7), x) == x
    assert mul(x, GroupRingVector.one(f7)) == x
    a, b, c = angle(f7, 2), angle(f7, 3), angle(f7, 5)
    assert mul(a + b, c) == mul(a, c) + mul(b, c)


def test_vector_text():
    f5 = Zmod(5)
    x = GroupRingVector(f5, {f5.coerce(1): 2, f5.coerce(3): -1})
    assert str(x) == "2<1> - 1<3>"
    assert str(GroupRingVector(f5, {})) == "0"


def test_mul_ring_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        mul(angle(Zmod(7), 3), angle(Zmod(5), 3))
    f7 = Zmod(7)
    with pytest.raises(ValueError, match="mismatch"):  # a key of another ring
        GroupRingVector(f7, {Zmod(5).coerce(3): 1})


@pytest.mark.parametrize("op,other", [(operator.add, 1), (operator.sub, "a"),
                                      (operator.mul, 1.5)])
def test_vector_operators_refuse_a_foreign_operand(op, other):
    # each raised AttributeError on the operand's missing ring; a vector of
    # an unequal ring is still a ring mismatch
    x = angle(Zmod(5), 2)
    with pytest.raises(TypeError, match="unsupported operand"):
        op(x, other)
    with pytest.raises(ValueError, match="ring mismatch"):
        op(x, angle(Zmod(8), 3))


def test_mul_refuses_keys_that_are_not_units():
    # construction checks every key, before or after a good one and with a
    # zero coefficient too, so no product meets a bad key
    z8 = Zmod(8)
    one = GroupRingVector.one(z8)
    for coeffs, message in (({0: 1}, "<0> requires a unit of Z/8, got a key of type int"),
                            ({1: 1}, "<1> requires a unit of Z/8, got a key of type int"),
                            ({z8.coerce(2): 1}, "<2> requires a unit, got a non-unit of Z/8"),
                            ({Zmod(5).coerce(3): 1}, "ring mismatch")):
        (key, c), = coeffs.items()
        for bad in ({key: c, z8.one: 1}, {z8.one: 1, key: c}, {key: 0}):
            with pytest.raises(ValueError) as info:
                GroupRingVector(z8, bad)
            assert str(info.value) == message
    # a sum, a negation or a scalar multiple can no longer keep the non-unit 2
    with pytest.raises(ValueError, match="<2> requires a unit, got a non-unit of Z/8"):
        GroupRingVector(Zmod(8), {Zmod(8).coerce(2): 1}) + GroupRingVector.one(Zmod(8))
    # a key of a structurally equal ring handle is a unit of this ring
    twin = Zmod(8)
    x = GroupRingVector(z8, {twin.coerce(3): 2, twin.coerce(5): -1})
    assert mul(x, one) == mul(one, x) == 2 * angle(z8, 3) - angle(z8, 5)
    assert mul(x, x) == 5 * angle(z8, 1) - 4 * angle(z8, 7)


@pytest.mark.parametrize("coeff", [1.5, "2", None])
def test_vector_refuses_a_coefficient_that_is_not_an_integer(coeff):
    # a float was kept (its torsion exponent read None), a string failed
    # only inside a class query, and None made the zero vector
    f7 = Zmod(7)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        GroupRingVector(f7, {f7.coerce(3): coeff})


def test_vector_stores_a_bool_coefficient_as_its_int():
    f7 = Zmod(7)
    x = GroupRingVector(f7, {f7.coerce(3): True, f7.coerce(5): False})
    assert x == angle(f7, 3)
    assert [type(c) for c in x.coeffs.values()] == [int]


def test_mul_commutative_associative_exhaustive(gw_family):
    for ring in gw_family:
        units = ring.units()
        if len(units) > 20:
            continue
        basis = [angle(ring, u) for u in units]
        for x, y in product(basis, repeat=2):
            assert mul(x, y) == mul(y, x)
        for x, y, z in product(basis, repeat=3):
            assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_minus_one_squares_to_one_exactly(gw_family):
    for ring in gw_family:
        s = angle(ring, ring.minus_one())
        assert mul(s, s) == GroupRingVector.one(ring)


def test_idempotent_identities_exact(gw_family):
    # 2e+ = 1 + <-1> and 2e- = 1 - <-1> satisfy the idempotent laws
    # exactly at the doubled level: x^2 = 2x, y^2 = 2y, xy = 0, x + y = 2.
    for ring in gw_family:
        one = GroupRingVector.one(ring)
        s = angle(ring, ring.minus_one())
        x = one + s
        y = one - s
        assert mul(x, x) == 2 * x
        assert mul(y, y) == 2 * y
        assert mul(x, y) == GroupRingVector.zero(ring)
        assert x + y == 2 * one


# ---------------------------------------------------------------------------
# classes in the quotient


def test_class_equal_examples(presented):
    f5 = Zmod(5)
    p = presented(f5, "reduced")
    assert p.class_equal(angle(f5, 4), angle(f5, 1))
    z4 = Zmod(4)
    p4 = presented(z4, "reduced")
    assert not p4.class_equal(angle(z4, 3), angle(z4, 1))
    x = angle(z4, 3) + 2 * angle(z4, 1)
    assert p4.class_equal(x, x)


def test_torsion_exponent_examples(presented):
    f3 = Zmod(3)
    p = presented(f3, "reduced")
    assert p.torsion_exponent(angle(f3, 2) - angle(f3, 1)) == 2
    z4 = Zmod(4)
    p4 = presented(z4, "reduced")
    assert p4.torsion_exponent(angle(z4, 3) - angle(z4, 1)) is None
    assert p4.torsion_exponent(GroupRingVector.zero(z4)) == 1


def test_queries_refuse_a_vector_of_another_ring(presented):
    z8, z5 = Zmod(8), Zmod(5)  # both have four units
    p = presented(z8, "reduced")
    x, y = angle(z5, 2), angle(z5, 3)
    with pytest.raises(ValueError, match="ring mismatch"):
        p.class_equal(x, y)
    with pytest.raises(ValueError, match="ring mismatch"):
        p.class_equal(angle(z8, 3), y)
    with pytest.raises(ValueError, match="ring mismatch"):
        p.torsion_exponent(x - y)


def test_queries_refuse_a_non_unit_basis_vector(presented):
    # no vector holds a non-unit, so no query reads one
    z4 = Zmod(4)
    p = presented(z4, "reduced")
    with pytest.raises(ValueError, match="<0> requires a unit"):
        GroupRingVector(z4, {z4.zero: 1})
    with pytest.raises(ValueError, match="<2> requires a unit"):
        GroupRingVector(z4, {z4.coerce(2): 1})
    with pytest.raises(ValueError, match="<2> requires a unit"):
        p.angle(2)


def test_queries_accept_a_structurally_equal_ring(presented):
    z7 = Zmod(7)
    p = presented(z7, "reduced")
    twin = Zmod(7)
    assert twin is not z7
    assert p.class_equal(angle(twin, 4), angle(twin, 2))  # 4 = 2^2 * 1, 2 = 3^2 * 1
    assert p.class_equal(angle(twin, 3), angle(z7, 5))
    assert not p.class_equal(angle(twin, 3), angle(z7, 4))
    assert p.torsion_exponent(angle(twin, 3) - angle(twin, 1)) == 2


def test_every_key_reader_refuses_the_same_keys(presented):
    # the constructor holds the one key check, so each kind of bad key is
    # refused there with one text, and products, class queries and to_dense
    # never meet it
    z7 = Zmod(7)
    p = presented(z7, "reduced")
    one = GroupRingVector.one(z7)
    for key, message in ((3, "<3> requires a unit of Z/7, got a key of type int"),
                         (z7.zero, "<0> requires a unit, got a non-unit of Z/7"),
                         (Zmod(11).coerce(3), "ring mismatch")):
        with pytest.raises(ValueError) as info:
            GroupRingVector(z7, {key: 1, z7.one: 1})
        assert str(info.value) == message
    # a key of a structurally equal ring handle is a unit of this ring
    twin = Zmod(7)
    x = GroupRingVector(z7, {twin.coerce(3): 2, twin.coerce(5): -1})
    y = 2 * angle(z7, 3) - angle(z7, 5)
    assert x * one == y
    assert p.class_equal(x, y)
    assert p.torsion_exponent(x) == p.torsion_exponent(y)
    assert x.to_dense() == y.to_dense() == (0, 0, 2, 0, -1, 0)


def _random_vector(rng, ring, units):
    """Seeded coefficients on a random support of 1 to |U| units."""
    support = rng.sample(units, rng.randint(1, len(units)))
    return GroupRingVector(ring, {u: rng.choice((-3, -2, -1, 1, 2, 3)) for u in support})


def _random_relation(rng, p):
    """A small integer combination of the lattice basis, as a group-ring vector."""
    coeffs: dict = {}
    for row in p.lattice.basis():
        c = rng.randint(-2, 2)
        for u, x in zip(p.units, row):
            if c and x:
                coeffs[u] = coeffs.get(u, 0) + c * x
    return GroupRingVector(p.ring, coeffs)


@pytest.mark.parametrize("kind", ["hopf", "reduced"])
@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_class_queries_match_dense_oracles(presented, spec, kind):
    ring = parse_ring_spec(spec)
    p = presented(ring, kind)
    units = p.units
    rng = random.Random(f"queries {spec} {kind}")
    answers = set()
    for _ in range(40):
        x = _random_vector(rng, ring, units)
        inside = x + _random_relation(rng, p)
        outside = inside + angle(ring, rng.choice(units))
        for y in (inside, outside, _random_vector(rng, ring, units)):
            want = oracle_class_equal(p, x, y)
            assert p.class_equal(x, y) == want, (x, y)
            answers.add(want)
        assert p.class_equal(x, inside)
        assert p.torsion_exponent(x) == oracle_torsion_exponent(p, x), x
        # augmentation 0 makes a torsion class whenever the rank is 1
        z = x - x.augmentation() * angle(ring, rng.choice(units))
        assert p.torsion_exponent(z) == oracle_torsion_exponent(p, z), z
    assert answers == {True, False}


def test_class_queries_read_dense_only_when_the_supports_cover_ambient(presented, monkeypatch):
    # hopf Z/256 keeps one coordinate per unit, so a few keys, or one key
    # short of ambient, read sparsely and a full support reads one dense
    # row; both agree with the oracles.  A sum on one coordinate, which
    # itemgetter would return as a bare entry, reads sparsely too
    ring = Zmod(256)
    p = presented(ring, "hopf")
    units = p.units
    assert p.presentation.ambient == len(units) == 128
    rng = random.Random("dense or sparse Z/256")
    full = GroupRingVector(ring, {u: rng.choice((-2, -1, 1, 2)) for u in units})
    short = GroupRingVector(ring, {u: 1 for u in units[:127]})
    relation = _random_relation(rng, p)
    while len(relation.coeffs) < len(units):
        relation = relation + _random_relation(rng, p)
    cases = [
        ("class_equal", (angle(ring, 3), angle(ring, 5)), "sparse"),
        ("class_equal", (angle(ring, 3) + angle(ring, -3), angle(ring, 1) + angle(ring, -1)),
         "sparse"),
        ("torsion_exponent", (angle(ring, 3) - angle(ring, 1),), "sparse"),
        ("torsion_exponent", (angle(ring, 3),), "sparse"),
        ("class_equal", (angle(ring, 3), angle(ring, 3)), "sparse"),
        ("torsion_exponent", (short,), "sparse"),
        ("class_equal", (short, short - angle(ring, 1) + angle(ring, -1)), "dense"),
        ("torsion_exponent", (full,), "dense"),
        ("torsion_exponent", (relation,), "dense"),
        ("class_equal", (full, full + relation), "dense"),
        ("class_equal", (full, relation), "dense"),
    ]
    oracles = {"class_equal": oracle_class_equal, "torsion_exponent": oracle_torsion_exponent}
    wants = [oracles[name](p, *args) for name, args, _ in cases]
    assert wants == [False, True, None, None, True, None, False, None, 1, True, False]
    # projections that record how they are read: whole (a dense row) or
    # entry by entry (the coordinates a sparse sum met)
    sides = set()

    class Column(tuple):
        def __iter__(self):
            sides.add("dense")
            return super().__iter__()

        def __getitem__(self, i):
            sides.add("sparse")
            return super().__getitem__(i)

    free, torsion = p.presentation._columns
    monkeypatch.setitem(vars(p.presentation), "_columns",
                        (tuple(map(Column, free)), tuple((Column(c), d) for c, d in torsion)))
    for (name, args, side), want in zip(cases, wants):
        sides.clear()
        assert getattr(p, name)(*args) == want, (name, args)
        assert sides == {side}, (name, args)


def _flat(keys, vals) -> tuple:
    """The flat (key, coefficient, ...) tuple of a vector given as keys and values."""
    return tuple(item for pair in zip(keys, vals) for item in pair)


def _sparse_cases(rng, n, m):
    """(keys, vals, keys2, vals2) over n unit indices, m the presentation's ambient.

    Keys are drawn with repeats, so a coordinate is met more than once even
    on one key per coordinate; the sizes reach either side of m, so that
    both the sparse and the dense read run.
    """
    def side(size):
        keys = tuple(rng.randrange(n) for _ in range(size))
        return keys, tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in keys)

    k = rng.randrange(n)
    cases = [
        ((), (), (), ()),
        ((k,), (2,), (), ()),  # one coordinate, the padded read
        ((k, k), (1, 1), (k,), (5,)),  # one coordinate met three times
        ((), ()) + side(1),  # y alone
        ((), ()) + side(3),
    ]
    for size in (1, 2, 3, max(m - 1, 0), m, m + 2):
        cases += [side(size) + side(rng.randrange(3)), side(rng.randrange(4)) + side(size)]
    return cases


@pytest.mark.parametrize("spec,kind", [(s, k) for s in GW_SPECS for k in ("hopf", "reduced")]
                         + [("Z/1024", "hopf")])
def test_class_order_matches_dense_readers_on_sparse_vectors(presented, spec, kind):
    # x - y, given on unit indices, has the order that the dense element_order
    # reads off its class sums, and that the dense Smith oracle reads off its
    # vector on the units; hopf Z/1024 keeps one coordinate per unit, 512
    p = presented(parse_ring_spec(spec), kind)
    pres, classes, n = p.presentation, p.classes, len(p.classes)
    dense = oracle_presentation(p)
    rng = random.Random(f"class_order {spec} {kind}")
    orders = set()
    for keys, vals, keys2, vals2 in _sparse_cases(rng, n, pres.ambient) * 4:
        on_units = [0] * n
        for k, c in zip(keys, vals):
            on_units[k] += c
        for k, c in zip(keys2, vals2):
            on_units[k] -= c
        sums = [0] * pres.ambient
        for c, x in zip(classes, on_units):
            sums[c] += x
        want = dense.element_order(on_units)
        x, y = _flat(keys, vals), _flat(keys2, vals2)
        assert pres.class_order(classes, x, y) == want, (keys, vals, keys2, vals2)
        assert pres.element_order(sums) == want
        orders.add(want)
    assert 1 in orders and (pres.rank == 0 or None in orders)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_product_matches_element_oracle(spec):
    # each product on a cold table, on the table it warmed, and on a
    # pickled and a copied clone, whose rings hold no table
    ring = parse_ring_spec(spec)
    units = ring.units()
    rng = random.Random(f"product {spec}")
    for _ in range(30):
        x, y = _random_vector(rng, ring, units), _random_vector(rng, ring, units)
        want = list(oracle_product(x, y).coeffs.items())
        ring._unit_products = None
        for side in ("cold", "warm"):
            assert list((x * y).coeffs.items()) == want, (side, x, y)
        for clone in (pickle.loads(pickle.dumps((x, y))), copy.deepcopy((x, y))):
            assert clone[0].ring._unit_products is None
            assert list((clone[0] * clone[1]).coeffs.items()) == want, ("clone", x, y)


def _table_pairs(ring) -> set:
    return {(i, j) for i, row in ring.unit_products().items() for j in row}


@pytest.mark.parametrize("spec", ["Z/29", "GR(4,2)", "GF(2^4)", "prod(Z/5,Z/7)"])
def test_product_multiplies_each_pair_of_units_once(spec, monkeypatch):
    # the first product of a pair of units is one coordinate product, read
    # from the table by every later product; the table holds the pairs
    # multiplied, each once, with the index of their product
    ring = parse_ring_spec(spec)
    units = ring.units()
    calls = []
    coord_mul = type(ring)._mul

    def counted(self, a, b):
        calls.append(1)
        return coord_mul(self, a, b)

    monkeypatch.setattr(type(ring), "_mul", counted)
    rng = random.Random(f"table {spec}")
    seen: set = set()
    for _ in range(12):
        x, y = _random_vector(rng, ring, units), _random_vector(rng, ring, units)
        pairs = set(product(x._items[::2], y._items[::2]))
        calls.clear()
        first = x * y
        assert len(calls) == len(pairs - seen)
        seen |= pairs
        assert _table_pairs(ring) == seen
        calls.clear()
        assert list((x * y).coeffs.items()) == list(first.coeffs.items())
        assert calls == [] and _table_pairs(ring) == seen
    table = ring.unit_products()
    assert all(units[k] == units[i] * units[j] for i, row in table.items() for j, k in row.items())


@pytest.mark.parametrize("spec", ["Z/7", "GF(3^2)", "GR(4,2)", "prod(Z/3,Z/5)"])
def test_reports_leave_the_product_table_empty(spec, monkeypatch, capsys):
    # every report reads presentations, classes and unit maps; none
    # multiplies vectors, so no ring of theirs makes a product table
    from mwkit import cli

    made = []

    def recorded(arg):
        made.append(parse_ring_spec(arg))
        return made[-1]

    monkeypatch.setattr(cli, "make_ring", recorded)
    for command in ("gw", "compare", "sumsq", "ringinfo", "validate"):
        cli.main([command, "--ring", spec])
    cli.main(["gw", "--ring", spec, "--kind", "hopf"])
    capsys.readouterr()
    assert len(made) == 6
    ring = parse_ring_spec(spec)
    for kind in ("hopf", "reduced"):
        gwring.present(ring, kind).report()
    for ring in made + [ring]:
        assert ring._unit_products is None, ring


def _oracle_rings(gw_family):
    """Every presentation-family ring with at most 20 units (GR(4,2) among them), plus Z/29."""
    rings = [r for r in gw_family if len(r.units()) <= 20] + [parse_ring_spec("Z/29")]
    assert parse_ring_spec("GR(4,2)") in rings
    return rings


def _draw_vector(data, ring):
    units = ring.units()
    support = data.draw(st.lists(st.integers(0, len(units) - 1), max_size=len(units)))
    # repeated units and zero coefficients test the constructor's clean-up
    return GroupRingVector(ring, {units[i]: data.draw(st.integers(-3, 3)) for i in support})


def _draw_letter(data):
    """A unit monomial in a, b and c, with a sign and an integer content."""
    u = km.uint(data.draw(st.sampled_from((1, 1, 1, 2, 3))))
    for name in "abc":
        u = u * km.uvar(name) ** data.draw(st.integers(-2, 2))
    return -u if data.draw(st.booleans()) else u


def _draw_term(data):
    """A sum of one to four words: products of angles, eta[u] and eps, and
    now and then a degree-1 symbol, which evaluation refuses."""
    term = km.zero()
    for _ in range(data.draw(st.integers(1, 4))):
        word = km.integer(data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))
        for _ in range(data.draw(st.integers(0, 4))):
            kind = data.draw(st.sampled_from(("angle",) * 12 + ("eta", "eta", "eps", "symbol")))
            if kind == "angle":
                word = word * km.angle(_draw_letter(data))
            elif kind == "eta":
                word = word * km.eta() * km.bracket(_draw_letter(data))
            elif kind == "eps":
                word = word * km.epsilon()
            else:
                word = word * km.bracket(_draw_letter(data))
        term = term + word
    return term


def _outcome(fn, *args):
    """fn's result as a dict of coefficients, or the EvalError it raised."""
    try:
        return fn(*args).coeffs
    except km.EvalError as exc:
        return ("EvalError", str(exc))


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_sum_matches_rebuilding_oracle(gw_family):
    rings = _oracle_rings(gw_family)

    @settings(max_examples=300)
    @given(st.data())
    def check(data):
        ring = data.draw(st.sampled_from(rings))
        x, y = _draw_vector(data, ring), _draw_vector(data, ring)
        for a, b in ((x, y), (x, -x), (x, y - x)):
            # the same items in the same order
            assert list((a + b).coeffs.items()) == list(oracle_sum(a, b).coeffs.items()), (a, b)
        # a mixed sequence on unit indices keeps the items and order of the
        # same sequence on RingElement keys
        got = want = x
        ops = st.sampled_from(("add", "sub", "neg", "scale", "mul"))
        for op in data.draw(st.lists(ops, min_size=1, max_size=6)):
            if op == "neg":
                got, want = -got, oracle_scale(-1, want)
            elif op == "scale":
                k = data.draw(st.integers(-3, 3))
                got, want = k * got, oracle_scale(k, want)
            else:
                y = _draw_vector(data, ring)
                if op == "add":
                    got, want = got + y, oracle_sum(want, y)
                elif op == "sub":
                    got, want = got - y, oracle_sum(want, oracle_scale(-1, y))
                else:
                    got, want = got * y, oracle_product(want, y)
            assert list(got.coeffs.items()) == list(want.coeffs.items()), op

    check()


def test_vector_arithmetic_hashes_no_element(presented, monkeypatch):
    # a vector works on unit indices: only building one from a {unit: c}
    # dict and reading .coeffs touch RingElement keys, and of those two only
    # .coeffs hashes them
    calls = []
    element_hash = RingElement.__hash__

    def counted(self):
        calls.append(self)
        return element_hash(self)

    for spec in ("Z/29", "GR(4,2)"):
        ring = parse_ring_spec(spec)
        units = ring.units()
        rng = random.Random(f"no hash {spec}")
        ps = [presented(ring, kind) for kind in ("hopf", "reduced")]
        coeffs = [{u: rng.choice((-2, -1, 1, 2)) for u in rng.sample(units, rng.randint(1, len(units)))}
                  for _ in range(4)]
        monkeypatch.setattr(RingElement, "__hash__", counted)
        x, y, z, w = (GroupRingVector(ring, c) for c in coeffs)
        assert calls == []
        s = x + y - z
        for v in (s, -s, 3 * s, s * -2, 0 * s, x * y, mul(s, w), s + (-s)):
            for p in ps:
                p.class_equal(v, w)
                p.torsion_exponent(v)
            assert v == v and v.augmentation() == sum(v.to_dense())
        a, b = GroupRingVector.one(ring), GroupRingVector.angle(ring, units[-1])
        assert hash(a + b) == hash(b + a) and (s + (-s)).is_zero()
        assert calls == []
        assert list(x.coeffs) == list(coeffs[0]) and len(calls) == len(coeffs[0])
        monkeypatch.setattr(RingElement, "__hash__", element_hash)
        calls.clear()


def test_a_vector_holds_one_flat_tuple():
    # every way to make a vector gives it the ring, its class and one tuple
    # (k0, c0, k1, c1, ...) of distinct unit indices, each with a nonzero
    # int coefficient, and nothing else
    ring = parse_ring_spec("GR(4,2)")
    units = ring.units()
    rng = random.Random("one flat tuple")
    a = km.uvar("a")
    term = km.angle(a) * km.angle(-a) - 2 * km.angle(a) + km.integer(1)
    for _ in range(20):
        x, y = _random_vector(rng, ring, units), _random_vector(rng, ring, units)
        evaluated = km.eval_in_ring(term, ring, {"a": rng.choice(units)})
        vectors = (x, -x, 3 * x, x * -2, x + x, x - 2 * x, x * y, evaluated,
                   GroupRingVector.zero(ring), GroupRingVector.one(ring),
                   GroupRingVector.angle(ring, rng.choice(units)))
        for v in vectors:
            referents = gc.get_referents(v)
            assert len(referents) == 3 and any(r is ring for r in referents), v
            items, = (r for r in referents if r is not ring and r is not GroupRingVector)
            assert type(items) is tuple, v
            keys, vals = items[::2], items[1::2]
            assert len(keys) == len(vals) == len(set(keys)), v
            assert all(type(k) is int and 0 <= k < len(units) for k in keys), v
            assert all(type(c) is int and c for c in vals), v
        zero = GroupRingVector.zero(ring)
        assert x + zero is x and zero + x is x and x - zero is x
        assert (x - x).is_zero() and (0 * x).is_zero()


def test_sums_commute_with_equal_hashes():
    # the item order of a sum follows its left operand; equality and the
    # hash read the pairs only
    for spec in ("Z/29", "GR(4,2)", "prod(Z/3,Z/5)"):
        ring = parse_ring_spec(spec)
        units = ring.units()
        rng = random.Random(f"commute {spec}")
        for _ in range(50):
            a, b = _random_vector(rng, ring, units), _random_vector(rng, ring, units)
            for x, y in ((a, b), (a, -a), (a, a - b)):
                assert x + y == y + x and hash(x + y) == hash(y + x), (x, y)
                assert x - y == -(y - x) and hash(x - y) == hash(-(y - x)), (x, y)


def test_a_full_vector_takes_one_small_tuple():
    # the instance and its one flat tuple of 8-byte slots: 536 bytes on
    # 64-bit CPython 3.11 for the 28 units of Z/29; a {unit index: c} dict
    # of the same 28 keys takes 1,168 bytes on its own
    ring = parse_ring_spec("Z/29")
    units = ring.units()
    x = GroupRingVector(ring, {u: i % 5 - 2 or 3 for i, u in enumerate(units)})
    assert len(x.coeffs) == len(units) == 28
    size = sys.getsizeof(x) + sys.getsizeof(x._items)
    assert size <= 16 * len(units) + 96


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_str_and_to_dense_read_the_coefficients_by_unit(spec):
    # the text sorts the terms by the text of their units, and the dense
    # row lists the coefficients in unit order, as read off ``coeffs``
    ring = parse_ring_spec(spec)
    units = ring.units()
    rng = random.Random(f"text {spec}")
    for x in [GroupRingVector.zero(ring)] + [_random_vector(rng, ring, units) for _ in range(20)]:
        terms = sorted(x.coeffs.items(), key=lambda t: str(t[0]))
        text = " ".join(f"{'+' if c >= 0 else '-'} {abs(c)}<{u}>" for u, c in terms) or "0"
        assert str(x) == repr(x) == text.removeprefix("+ ")
        assert x.to_dense() == tuple(x.coeffs.get(u, 0) for u in units)


@pytest.mark.parametrize("spec", ["Z/65521", "GF(2^16)"])
def test_str_and_to_dense_build_no_unit_list(spec):
    # a vector on a ring at the element bound prints and densifies without
    # building the ring's 65,520 or 65,535 unit elements
    ring = parse_ring_spec(spec)
    index = ring.unit_index_by_coords()
    u = RingElement(ring, list(index)[5])
    x = GroupRingVector.angle(ring, u) - 2 * GroupRingVector.one(ring)
    row = x.to_dense()
    assert len(row) == len(index) and (row[5], row[index[ring.one.coords]]) == (1, -2)
    assert str(x) == (f"1<{u}> - 2<1>" if str(u) < "1" else f"- 2<1> + 1<{u}>")
    assert ring._units is None


_VECTOR_IN_FRESH_PROCESS = """
import copy, pickle, sys
from mwkit.finring import parse_ring_spec
from mwkit.gwring import GroupRingVector
for spec, items, x in pickle.loads(sys.stdin.buffer.read()):
    ring = parse_ring_spec(spec)
    units = ring.units()
    fresh = GroupRingVector(ring, {units[i]: c for i, c in items})
    for clone in (x, copy.deepcopy(x)):
        print(clone == fresh, hash(clone) == hash(fresh), {clone: 1}.get(fresh) == 1,
              [(units.index(u), c) for u, c in clone.coeffs.items()] == items)
"""


def test_pickled_vector_is_equal_and_hashes_alike_under_another_hash_seed():
    # a vector pickled, or deep-copied, here or in a process with another
    # PYTHONHASHSEED equals the vector built there from the same items, in
    # the same order, and has its hash
    payload = []
    for spec in ("Z/7", "GF(3^2)", "GR(4,2)", "prod(Z/4,GF(2^2))"):
        ring = parse_ring_spec(spec)
        units = ring.units()
        rng = random.Random(f"pickle {spec}")
        x = _random_vector(rng, ring, units) - angle(ring, units[0])
        items = [(units.index(u), c) for u, c in x.coeffs.items()]
        for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert clone == x and hash(clone) == hash(x)
            assert list(clone.coeffs.items()) == list(x.coeffs.items())
        payload.append((spec, items, x))
    env = dict(os.environ, PYTHONPATH=str(Path(mwkit.__file__).resolve().parents[1]))
    for seed in ("12345", "54321"):  # at least one differs from this process's seed
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run([sys.executable, "-c", _VECTOR_IN_FRESH_PROCESS],
                             input=pickle.dumps(payload), capture_output=True, env=env,
                             timeout=60, check=True)
        assert out.stdout.split() == [b"True"] * 8 * len(payload), out.stderr


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_mul_and_eval_match_element_oracles(gw_family):
    rings = _oracle_rings(gw_family)

    @settings(max_examples=300)
    @given(st.data())
    def check(data):
        ring = data.draw(st.sampled_from(rings))
        x, y = _draw_vector(data, ring), _draw_vector(data, ring)
        got, want = mul(x, y), oracle_product(x, y)
        assert list(got.coeffs.items()) == list(want.coeffs.items()), (x, y)
        units = ring.units()
        values = {v: units[data.draw(st.integers(0, len(units) - 1))] for v in "abc"}
        term = _draw_term(data)
        # key order may differ: the oracle orders keys by its vector sums
        assert (_outcome(km.eval_in_ring, term, ring, values)
                == _outcome(oracle_eval_in_ring, term, ring, values)), (term, values)

    check()


def _eval_outcome(u, ring, values, evaluate):
    try:
        return evaluate(u, ring, values)
    except km.EvalError as exc:
        return ("EvalError", str(exc))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_eval_unit_matches_element_oracle(seed):
    # the letters of the benchmark's query eval cases (one or two of a, b, c
    # to the power +-1, negated three times in ten) on its rings, with
    # higher powers, contents, sums 1 - x, non-unit and missing values
    # mixed in so that every EvalError text is met
    seen = set()
    for spec in ("Z/13", "GR(4,2)", "Z/25", "prod(Z/5,Z/7)", "Z/29"):
        ring = parse_ring_spec(spec)
        units, elements = ring.units(), list(ring.elements())
        rng = random.Random(f"{seed}:{spec}")
        for _ in range(300):
            values = {v: rng.choice(units) for v in "abc"}
            if rng.random() < 0.1:
                values["a"] = rng.choice(elements)
            u = km.UNIT_ONE
            for v in rng.sample("abc", rng.randint(1, 2)):
                u = u * km.uvar(v) ** rng.choice((1, -1, 1, -1, 2, -3))
            if rng.random() < 0.3:
                u = -u
            if rng.random() < 0.3:
                u = u * km.uint(rng.choice((2, 3, 5, 7))) ** rng.choice((1, -1))
            if rng.random() < 0.2:
                u = u * km.one_minus(km.uvar(rng.choice("abc"))) ** rng.choice((1, -1))
            if rng.random() < 0.05:
                u = u * km.uvar("d")
            got = _eval_outcome(u, ring, values, km.eval_unit)
            assert got == _eval_outcome(u, ring, values, oracle_eval_unit), (spec, str(u), values)
            seen.add(got[1].split()[1] if isinstance(got, tuple) else "value")
    assert seen == {"value", "divides", "maps", "is"}, seen


def test_field_reduced_presentations_split_off_augmentation(presented, odd_fields):
    for field in odd_fields:
        p = presented(field, "reduced")
        assert p.rank == 1
        for row in p.lattice.basis():
            assert sum(row) == 0  # augmentation kills every relation
        assert angle(field, field.one).augmentation() == 1


# ---------------------------------------------------------------------------
# eigenspace splitting, checked against an independent coinvariant oracle


def coinvariant_invariants(p, sign):
    """Rank and odd torsion of Z^n / (L + rows of (S -+ I)).

    These are the invariants of the +-1 eigenpiece after inverting 2,
    computed by a route (coinvariants of the involution on the ambient
    presentation, through the dense Smith oracle) that shares nothing with
    the production code path.
    """
    n = len(p.units)
    minus_one = p.ring.minus_one()
    index = {u: i for i, u in enumerate(p.units)}
    rows = [list(r) for r in p.lattice.basis()]
    for i, u in enumerate(p.units):
        row = [0] * n
        row[i] += 1
        row[index[minus_one * u]] -= sign
        rows.append(row)
    pres = oracle_quotient(n, rows)
    odd = []
    for d in pres.torsion:
        while d % 2 == 0:
            d //= 2
        if d >= 3:
            odd.append(d)
    return pres.rank, tuple(sorted(odd))


def test_invert_two_split_examples(presented):
    split = presented(Zmod(3), "reduced").invert_two_split()
    assert (split.plus_rank, split.minus_rank) == (1, 0)
    split = presented(Zmod(4), "reduced").invert_two_split()
    assert (split.plus_rank, split.minus_rank) == (1, 1)
    split = presented(Zmod(2), "reduced").invert_two_split()
    assert (split.plus_rank, split.minus_rank) == (1, 0)


# besides the presentation family: 2 = 0 with torsion, two rings with
# several orderings, and three odd factors
SPLIT_ORACLE_SPECS = ["prod(Z/2,GF(2^2))", "Z/32", "prod(Z/4,Z/8)", "prod(Z/3,Z/5,Z/7)"]


def test_invert_two_split_matches_coinvariant_oracle(presented, gw_family):
    # the closed form (1, rank - 1, (), ()) against the coinvariants and the
    # eigen-split of the dense presentation
    for ring in gw_family + [parse_ring_spec(s) for s in SPLIT_ORACLE_SPECS]:
        for kind in ("hopf", "reduced"):
            p = presented(ring, kind)
            split = p.invert_two_split()
            plus_rank, plus_odd = coinvariant_invariants(p, +1)
            minus_rank, minus_odd = coinvariant_invariants(p, -1)
            assert split.plus_rank == plus_rank, (ring.spec_string(), kind)
            assert split.minus_rank == minus_rank, (ring.spec_string(), kind)
            assert tuple(sorted(split.plus_torsion_odd)) == plus_odd
            assert tuple(sorted(split.minus_torsion_odd)) == minus_odd
            assert split.plus_rank + split.minus_rank == p.rank
            assert (split.plus_rank, split.minus_rank, split.plus_torsion_odd,
                    split.minus_torsion_odd) == oracle_invert_two_split(p)


# the rings of the CLI ladder goldens
LADDER_SPECS = ["Z/127", "GF(2^7)", "Z/64", "prod(Z/16,Z/5)", "GR(16,2)", "Z/257", "GF(2^8)",
                "Z/509", "Z/1021", "GF(2^10)", "Z/1024"]


@pytest.mark.parametrize("spec", GW_SPECS + LADDER_SPECS)
def test_minus_part_vanishes_exactly_when_minus_one_is_a_sum_of_squares(presented, spec):
    # the finite-ring form of the paper's <-1> criterion, read off two
    # layers that share no code: the eigen-split of the reduced quotient and
    # the sum-of-squares closure
    ring = parse_ring_spec(spec)
    split = presented(ring, "reduced").invert_two_split()
    reachable = unit_square_closure(ring).exponent(ring.minus_one()) is not None
    assert (split.minus_rank == 0 and split.minus_torsion_odd == ()) == reachable, split


# small rings and products beside GW_SPECS and the ladder: odd and even
# moduli, fields, Galois rings, products with 0 to 8 orderings, and
# products with a factor of residue field F_2
ORDERING_SPECS = [
    "Z/15", "Z/17", "Z/21", "Z/24", "Z/27", "Z/32", "Z/35", "Z/40", "Z/45", "Z/48", "Z/49",
    "Z/60", "Z/63", "Z/105", "GF(2^3)", "GF(3^3)", "GF(5^2)", "GR(8,2)", "GR(9,2)",
    "prod(Z/2,Z/7)", "prod(Z/2,GF(2^2))", "prod(Z/3,Z/3)", "prod(Z/3,Z/5)", "prod(Z/3,Z/3,Z/3)",
    "prod(Z/3,Z/5,Z/7)", "prod(Z/5,Z/13)", "prod(Z/4,Z/8)", "prod(Z/4,Z/9)", "prod(Z/8,Z/5)",
    "prod(Z/16,Z/3)", "prod(Z/4,Z/4,Z/3)", "prod(Z/9,GF(2^2))", "prod(GF(3^2),Z/7)",
    "prod(GF(2^2),Z/5)", "prod(Z/25,Z/3)", "prod(GR(4,2),Z/5)", "prod(GR(9,2),Z/4)",
    "prod(Z/7,Z/11)", "prod(Z/8,Z/8)", "prod(Z/13,Z/17)",
]


@pytest.mark.parametrize("spec", GW_SPECS + LADDER_SPECS + ORDERING_SPECS)
def test_reduced_split_counts_orderings(presented, spec):
    # README's proof: after inverting 2 the reduced quotient is Z[1/2] on
    # the trivial character and on each ordering of R^x / (R^x)^2, with
    # <-1> acting by chi(-1); the orderings are counted off the units
    ring = parse_ring_spec(spec)
    p = presented(ring, "reduced")
    orderings = oracle_orderings(ring)
    assert p.rank == 1 + orderings
    assert p.invert_two_split() == SplitReport(1, orderings, (), ())
    assert all(d & (d - 1) == 0 for d in p.torsion), p.torsion
    # -1 reachable => no ordering is proved, the converse only measured (README)
    reachable = unit_square_closure(ring).exponent(ring.minus_one()) is not None
    assert reachable == (orderings == 0)


@pytest.mark.parametrize("spec", ["Z/2", "Z/4", "Z/8", "Z/12", "Z/64", "prod(Z/2,Z/7)",
                                  "prod(Z/2,GF(2^2))", "prod(Z/2,GF(2^3))", "prod(Z/4,Z/9)"])
def test_hopf_closed_form_without_unit_sums(presented, spec):
    # no unit sum: L is spanned by s_O(a) - s_O(1), s_O = <u> + <-u> over the
    # orbits O of u -> -u; the quotient is free of rank |U|/2 + 1 when
    # 2 != 0, and Z + (Z/2)^(|U| - 1) when 2 = 0, where -u = u
    ring = parse_ring_spec(spec)
    assert not _has_unit_sums(ring)
    p, n = presented(ring, "hopf"), len(ring.units())
    if ring.from_int(2).is_zero():
        assert (p.rank, p.torsion) == (1, (2,) * (n - 1))
    else:
        assert (p.rank, p.torsion) == (n // 2 + 1, ())
    assert p.invert_two_split() == SplitReport(1, p.rank - 1, (), ())


# the presentation family and larger rings: a 2-power cyclic unit group, a
# Galois ring, products, a reduced core of 1 x 2, and two rings whose
# quotient has both torsion and a -1 eigenpiece of the free part
DENSE_SPECS = GW_SPECS + ["Z/64", "GR(16,2)", "prod(Z/16,Z/5)", "Z/127", "prod(Z/3,Z/5)", "Z/105"]


@pytest.mark.parametrize("kind", ["hopf", "reduced"])
@pytest.mark.parametrize("spec", DENSE_SPECS)
def test_presentation_matches_dense_smith_oracle(presented, spec, kind):
    # p.presentation presents Z^m / L', so a vector on the units is read
    # through the class map
    p = presented(parse_ring_spec(spec), kind)
    pres, dense = p.presentation, oracle_presentation(p)
    assert (pres.rank, pres.torsion) == (dense.rank, dense.torsion)
    firsts: dict = {}
    for i, c in enumerate(p.classes):
        firsts.setdefault(c, i)
    assert sorted(firsts) == list(range(pres.ambient))

    def sums(vec):
        out = [0] * pres.ambient
        for c, x in zip(p.classes, vec):
            out[c] += x
        return out

    rng = random.Random(f"dense {spec} {kind}")
    n = len(p.units)
    relations = [row for row in p.lattice.basis() if rng.random() < 0.5]
    for _ in range(30):
        vec = [rng.choice((0, 0, -2, -1, 1, 3)) for _ in range(n)]
        inside = [x + sum(r[k] for r in relations) for k, x in enumerate(vec)]
        # vec less a vector of its free coordinates has finite order
        torsion_part = [a - b for a, b in zip(vec, dense.from_canonical(
            ((0,) * len(dense.torsion), dense.to_canonical(vec)[1])))]
        for v in (vec, inside, torsion_part):
            assert pres.element_order(sums(v)) == dense.element_order(v)
            assert pres.class_is_zero(sums(v)) == dense.class_is_zero(v)
        assert pres.to_canonical(sums(vec)) == pres.to_canonical(sums(inside))
    split = p.invert_two_split()
    assert (split.plus_rank, split.minus_rank, split.plus_torsion_odd,
            split.minus_torsion_odd) == oracle_invert_two_split(p)


# ---------------------------------------------------------------------------
# presentation comparison


def test_compare_presentations_known_fields():
    assert compare_presentations(Zmod(5)).extra_relations_implied is True
    assert compare_presentations(Zmod(3)).extra_relations_implied is True


def test_compare_presentations_deterministic_on_z16_and_z4():
    for spec in ("Z/16", "Z/4"):
        first = compare_presentations(parse_ring_spec(spec))
        second = compare_presentations(parse_ring_spec(spec))
        assert isinstance(first.extra_relations_implied, bool)
        assert first.extra_relations_implied == second.extra_relations_implied
        assert first.witness == second.witness
        if not first.extra_relations_implied:
            assert first.witness is not None
            hopf = ZLattice(len(first.witness), build_relations(parse_ring_spec(spec), "hopf"))
            assert not hopf.contains(first.witness)


# the oracle family, the rings with a residue field F_2 that FULL_SCAN_SPECS
# adds to it, and five more such rings, where the answer is read off the
# unit squares
@pytest.mark.parametrize("spec", ORACLE_SPECS + ["Z/32", "Z/64", "prod(Z/16,Z/5)", "Z/10", "Z/26",
                                                 "Z/50", "Z/128", "prod(Z/2,Z/5)"])
def test_compare_matches_oracle_scan(spec):
    ring = parse_ring_spec(spec)
    report = compare_presentations(ring)
    assert (report.extra_relations_implied, report.witness) == oracle_compare(ring)


_SMALL_FACTORS = ["Z/2", "Z/3", "Z/4", "Z/6", "GF(2^1)", "GF(2^2)", "GR(4,1)", "GR(4,2)", "Z/5",
                  "GF(3^2)"]
# the presentation family, every Z/m up to 100, Galois fields and rings of up
# to 256 elements (GR(q,1) and GF(p^1) included), every product of two small
# factors, and products of three, nested; each spec once
_UNIT_SUM_SPECS = list(dict.fromkeys(
    GW_SPECS + [f"Z/{m}" for m in range(2, 101)]
    + [f"GF({p}^{k})" for p, top in ((2, 8), (3, 5), (5, 3), (7, 2), (11, 2), (13, 2))
       for k in range(1, top + 1)]
    + ["GR(4,1)", "GR(4,4)", "GR(8,1)", "GR(8,2)", "GR(16,1)", "GR(16,2)", "GR(9,1)", "GR(9,2)",
       "GR(27,1)", "GR(25,1)", "GR(49,1)", "GR(32,1)", "GR(64,1)", "GR(128,1)", "GR(256,1)"]
    + [f"prod({x},{y})" for x in _SMALL_FACTORS for y in _SMALL_FACTORS]
    + ["prod(Z/3,prod(GF(2^2),Z/2))", "prod(Z/5,Z/3,GR(4,2))", "prod(Z/3,Z/3,Z/3)",
       "prod(GF(2^2),prod(Z/9,GR(4,1)))"]
))


def test_unit_sums_read_off_the_ring_kind_match_the_scan():
    # some residue field is F_2 exactly for Z/m with m even, GR(2^e,1) and
    # a product with such a factor; the scan adds one to every unit
    kinds = set()
    for spec in _UNIT_SUM_SPECS:
        ring = parse_ring_spec(spec)
        assert _has_unit_sums(ring) == oracle_has_unit_sums(ring), spec
        kinds.add((type(ring).__name__, _has_unit_sums(ring)))
    assert len(_UNIT_SUM_SPECS) == 242
    # both answers on every ring kind
    assert kinds == {(kind, answer) for answer in (True, False)
                     for kind in ("Zmod", "GaloisRing", "GaloisField", "ProductRing")}


@pytest.mark.parametrize("spec,unit_tables", [("prod(Z/2,GF(2^15))", 3), ("GR(4,8)", 0)])
def test_compare_adds_one_to_no_unit(spec, unit_tables, monkeypatch):
    # whether family (iii) is empty is read off the ring's kind, with no
    # sum: GR(4,8) has unit sums and reads no unit; prod(Z/2,GF(2^15)) has
    # none, and builds its unit table (from the two factors' tables) only
    # for the witness, which names two units
    calls = Counter()
    for cls in (Zmod, GaloisRing, ProductRing):
        monkeypatch.setattr(cls, "_plus_one", lambda self, a, plus_one=cls._plus_one:
                            calls.update(["plus_one"]) or plus_one(self, a))
    index = Ring.unit_index_by_coords

    def counted_index(self):
        calls["unit_tables"] += self._unit_index is None
        return index(self)

    monkeypatch.setattr(Ring, "unit_index_by_coords", counted_index)
    report = compare_presentations(parse_ring_spec(spec))
    assert report.extra_relations_implied == (unit_tables == 0)
    assert (calls["plus_one"], calls["unit_tables"]) == (0, unit_tables), calls


def test_multiplication_descends(presented, gw_family):
    # u * g stays in the lattice for every unit u and every generator g;
    # checking a lattice basis settles every generating row by linearity,
    # and small rings are also checked against the oracle's raw rows
    for ring in gw_family:
        units = ring.units()
        for kind in ("hopf", "reduced"):
            p = presented(ring, kind)
            gens = [g for g in p.lattice.basis()]
            if len(units) <= 8:
                gens.extend(oracle_relations(ring, kind))
            for g in gens:
                vec = GroupRingVector(ring, dict(zip(units, g)))
                for u in units:
                    translated = GroupRingVector(ring, {u: 1}) * vec
                    assert p.lattice.contains(translated.to_dense()), (
                        ring.spec_string(), kind)


def test_lemma_unit_sum_small(presented):
    ring = Zmod(9)
    p = presented(ring, "reduced")
    closure = unit_square_closure(ring)
    for u in ring.units():
        n = closure.exponent(u)
        assert n is not None
        order = p.torsion_exponent(angle(ring, u) - angle(ring, ring.one))
        assert order is not None and (2**n) % order == 0


def test_report_schema(presented):
    report = presented(Zmod(4), "reduced").report()
    assert set(report) == {
        "ring", "kind", "n_units", "rank", "torsion",
        "minus_one_is_one", "split", "presentation_comparison",
    }
    assert set(report["split"]) == {
        "plus_rank", "minus_rank", "plus_torsion_odd", "minus_torsion_odd",
    }
    assert report["rank"] == 2
    assert report["minus_one_is_one"] is False
    assert report["kind"] == "reduced"


def test_kind_coercion():
    assert PresentationKind.coerce("HOPF") is PresentationKind.HOPF
    assert PresentationKind.coerce(PresentationKind.REDUCED) is PresentationKind.REDUCED
    with pytest.raises(ValueError):
        PresentationKind.coerce("witt")
