from itertools import chain, combinations_with_replacement, product

import pytest

from conftest import RING_SPECS
from mwkit.finring import GaloisField, GaloisRing, ProductRing, Zmod, parse_ring_spec
from mwkit.gwring import GroupRingVector, present
from mwkit.sumsq import minus_one_exponent, unit_square_closure
from ring_oracle import gen
from sumsq_oracle import oracle_unit_square_closure


def test_f2_everything_is_a_square():
    res = unit_square_closure(Zmod(2))
    assert res.exponent(Zmod(2).one) == 0
    assert not res.unreachable


def test_z4_minus_one_unreachable():
    z4 = Zmod(4)
    res = unit_square_closure(z4)
    assert res.exponent(z4.one) == 0
    assert res.unreachable == frozenset({z4.from_int(3)})
    assert minus_one_exponent(z4) is None


def test_f3_two_has_exponent_one():
    f3 = Zmod(3)
    res = unit_square_closure(f3)
    assert res.exponent(f3.from_int(2)) == 1
    assert res.witnesses[f3.from_int(2)] == (f3.one, f3.one)


def test_power_of_two_moduli_die_out_generically():
    for m in (8, 16):
        ring = Zmod(m)
        res = unit_square_closure(ring)
        assert res.exponent(ring.one) == 0
        assert minus_one_exponent(ring) is None
        # nothing beyond the squares is ever reached: 1 + 1 is not a unit
        assert {u for u in ring.units() if res.exponent(u) is not None} == set(
            ring.unit_squares()
        )


def test_odd_prime_fields_reach_minus_one():
    for p in (3, 5, 7, 11, 13):
        exp = minus_one_exponent(Zmod(p))
        assert exp is not None and exp <= 2


def test_galois_ring_42_example():
    gr = GaloisRing(2, 2, 2)
    res = unit_square_closure(gr)
    m1 = gr.minus_one()
    assert res.exponent(m1) == 1
    b, c = res.witnesses[m1]
    # witness is a pair of unit squares summing to -1; x and x^2 here
    assert b + c == m1
    assert res.exponent(b) == 0 and res.exponent(c) == 0
    x = gen(gr)
    assert {b, c} == {x, x * x}


def test_galois_ring_43_reaches_minus_one_at_exponent_two():
    gr = GaloisRing(2, 2, 3)
    res = unit_square_closure(gr)
    m1 = gr.minus_one()
    # the seven Teichmueller units are the squares, no pair of them sums to
    # -1, and pairs of exponent-1 elements do; hence exactly 2
    squares = gr.unit_squares()
    assert len(squares) == 7
    assert all(b + c != m1 for b, c in product(squares, repeat=2))
    assert res.exponent(m1) == 2


@pytest.mark.parametrize("spec", RING_SPECS + ["Z/61", "GR(9,2)", "prod(Z/5,GF(2^2))",
                                  "GF(2^8)", "Z/127"])
def test_witnesses_are_lexicographically_least(spec):
    ring = parse_ring_spec(spec)
    res = unit_square_closure(ring)
    units = ring.units()
    index = {u: i for i, u in enumerate(units)}
    for s, (b, c) in res.witnesses.items():
        n = res.exponent(s)
        candidates = [
            (index[x], index[y])
            for x in units
            for y in units
            if res.exponent(x) is not None and res.exponent(x) < n
            and res.exponent(y) is not None and res.exponent(y) < n
            and x + y == s
        ]
        assert (index[b], index[c]) == min(candidates)


@pytest.mark.parametrize("spec", RING_SPECS + ["Z/61", "GR(9,2)", "prod(Z/5,GF(2^2))",
                                  "prod(GF(2^2),Z/7)", "GR(27,2)", "prod(GF(2^3),Z/7)",
                                  "prod(GR(4,2),GR(8,2))", "GR(4,4)", "prod(Z/5,Z/13,Z/3)",
                                  "prod(Z/3,Z/3,Z/3,Z/3,Z/3)"])
def test_closure_matches_element_oracle(spec):
    # the oracle squares every unit and scans every pair of reached units;
    # prod(GR(4,2),GR(8,2)) takes three rounds, and the last three rings
    # have 8 to 32 square classes
    res = unit_square_closure(parse_ring_spec(spec))
    oracle = oracle_unit_square_closure(parse_ring_spec(spec))
    # the dicts are compared with their order, which is the order reached
    assert list(res.exponent_of.items()) == list(oracle.exponent_of.items())
    assert list(res.witnesses.items()) == list(oracle.witnesses.items())
    assert res.unreachable == oracle.unreachable
    assert res.rounds == oracle.rounds
    assert res.to_json() == oracle.to_json()


def test_exponent_zero_stratum_is_exactly_unit_squares(ring_family):
    for ring in ring_family:
        res = unit_square_closure(ring)
        zero_stratum = {u for u, n in res.exponent_of.items() if n == 0}
        assert zero_stratum == set(ring.unit_squares())


def test_fixpoint_round_bound(ring_family):
    for ring in ring_family:
        res = unit_square_closure(ring)
        assert res.rounds <= len(ring.units())


def test_frobenius_invariance_on_galois_fields():
    for field in (GaloisField(3, 2), GaloisField(2, 2), GaloisField(2, 3)):
        res = unit_square_closure(field)
        p = field.p
        for u in field.units():
            assert res.exponent(u) == res.exponent(u**p)


def test_cross_module_lemma_unit_sum(presented):
    for spec in ("Z/3", "Z/5", "GF(3^2)", "Z/9", "GR(4,2)"):
        ring = parse_ring_spec(spec)
        pres = presented(ring, "reduced")
        res = unit_square_closure(ring)
        one_vec = GroupRingVector.angle(ring, ring.one)
        for u in ring.units():
            n = res.exponent(u)
            if n is None:
                continue
            order = pres.torsion_exponent(GroupRingVector.angle(ring, u) - one_vec)
            assert order is not None and (2**n) % order == 0


def test_cross_module_minus_part_vanishes(presented):
    for spec in ("Z/3", "Z/5", "Z/7", "GF(3^2)", "Z/9", "Z/25", "GR(4,2)"):
        ring = parse_ring_spec(spec)
        if minus_one_exponent(ring) is None:
            continue
        split = presented(ring, "reduced").invert_two_split()
        assert split.minus_rank == 0
        assert split.minus_torsion_odd == ()


# the local rings of the sweep with at most 64 elements, none with a
# residue field F_2; the sweep takes them, every product of two with at most
# 27 elements each and every product of three with at most 9 elements each
SWEEP_LOCAL = (["Z/3", "Z/5", "Z/7", "Z/9", "Z/11", "Z/13", "Z/17", "Z/19", "Z/23", "Z/25",
                "Z/27", "Z/29", "Z/31", "Z/37", "Z/41", "Z/43", "Z/47", "Z/49", "Z/53", "Z/59",
                "Z/61"]
               + ["GF(2^2)", "GF(2^3)", "GF(2^4)", "GF(2^5)", "GF(2^6)", "GF(3^2)", "GF(3^3)",
                  "GF(5^2)", "GF(7^2)", "GR(4,2)", "GR(4,3)", "GR(8,2)", "GR(9,2)"])


def test_minus_one_reachable_exactly_without_orderings_on_a_sweep():
    # unit_square_closure reaches -1 exactly when the reduced rank,
    # 1 + #orderings, is 1; then the <-1> split has no minus part, so the
    # rational conditions hold automatically.  One direction is proved
    # (README); the converse is only measured, here on 289 rings, 19 of
    # them with an ordering
    local = [parse_ring_spec(s) for s in SWEEP_LOCAL]
    pairs = combinations_with_replacement([r for r in local if r.card <= 27], 2)
    triples = combinations_with_replacement([r for r in local if r.card <= 9], 3)
    rings = local + [ProductRing(list(f)) for f in chain(pairs, triples)]
    assert len(rings) == 289
    seen = set()
    for ring in rings:
        reachable = minus_one_exponent(ring) is not None
        p = present(ring, "reduced")
        assert reachable == (p.rank == 1), ring.spec_string()
        if reachable:
            assert p.invert_two_split().minus_rank == 0, ring.spec_string()
        seen.add((reachable, p.rank))
    assert seen == {(True, 1), (False, 2), (False, 3)}
    # Z/15 is in the sweep: each of Z/3 and Z/5 reaches -1, their product
    # does not, and it has one ordering
    z15 = present(parse_ring_spec("prod(Z/3,Z/5)"), "reduced")
    assert minus_one_exponent(z15.ring) is None
    assert (z15.rank, z15.invert_two_split().minus_rank) == (2, 1)


def test_json_report_schema():
    report = unit_square_closure(Zmod(4)).to_json()
    assert set(report) >= {"ring", "minus_one_exponent", "exponents", "witnesses"}
    assert report["ring"] == "Z/4"
    assert report["minus_one_exponent"] is None
    assert report["exponents"] == {"1": 0}
    assert report["unreachable"] == ["3"]
