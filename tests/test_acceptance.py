"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every assertion is exact equality; the stated
wall-clock budgets are asserted as well.  Run with ``pytest -s`` to see the
per-criterion lines as they complete.
"""

import time
from itertools import product

from mwkit import kmwterm as km
from mwkit.finring import elementary_factorization, mat2_mul, parse_ring_spec
from mwkit.gwring import GroupRingVector, compare_presentations
from mwkit.qform import cross_validate
from mwkit.sumsq import unit_square_closure
from mwkit.termparse import parse_identity

from conftest import GW_SPECS, RING_SPECS

PROVER_CORPUS = [
    ("eta eps = eta", "hopf", ""),
    ("eps eta = eta", "hopf", ""),
    ("eps^2 = 1", "hopf", ""),
    ("<a*b> = <a><b>", "hopf", ""),
    ("<a> + <-a> = <1> + <-1>", "hopf", ""),
    ("eta h = 0", "hopf", ""),
    ("<-1> h = h", "hopf", ""),
    ("h^2 = 2 h", "hopf", ""),
    ("<a> + <1-a> = 1 + <a*(1-a)>", "hopf-steinberg", "unit(a),unit(1-a)"),
    ("<a*b^2> = <a>", "reduced", ""),
]


def report(number, name, elapsed, budget):
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def angle(ring, u):
    return GroupRingVector.angle(ring, ring.coerce(u))


def test_criterion_1_sum_of_squares_anchors():
    slowest = 0.0
    for spec, check in [
        ("Z/4", lambda e: e is None),
        ("Z/3", lambda e: e is not None),
        ("Z/5", lambda e: e is not None),
        ("Z/7", lambda e: e is not None),
        ("Z/11", lambda e: e is not None),
        ("Z/13", lambda e: e is not None),
        ("GR(4,2)", lambda e: e is not None),
        ("GR(4,3)", lambda e: e is not None),
    ]:
        t0 = time.perf_counter()
        ring = parse_ring_spec(spec)
        res = unit_square_closure(ring)
        exp = res.exponent(ring.minus_one())
        slowest = max(slowest, time.perf_counter() - t0)
        assert check(exp), f"{spec}: minus-one exponent {exp}"
    report(1, "sum-of-squares anchors, slowest ring", slowest, 1.0)


def test_criterion_2_unit_sum_torsion_bound(presented):
    t0 = time.perf_counter()
    for spec in ("Z/3", "Z/5", "Z/7", "GF(3^2)", "Z/11", "Z/13", "Z/9", "Z/25", "GR(4,2)"):
        ring = parse_ring_spec(spec)
        pres = presented(ring, "reduced")
        closure = unit_square_closure(ring)
        one_vec = angle(ring, ring.one)
        for u in ring.units():
            n = closure.exponent(u)
            if n is None:
                continue
            order = pres.torsion_exponent(angle(ring, u) - one_vec)
            assert order is not None, (spec, str(u))
            assert (2**n) % order == 0, (spec, str(u), n, order)
    report(2, "2^n (<a> - 1) = 0", time.perf_counter() - t0, 30.0)


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    for spec in ("Z/3", "Z/5", "Z/7", "GF(3^2)", "Z/11", "Z/13"):
        cv = cross_validate(parse_ring_spec(spec))
        assert cv.lattices_equal is True, spec
        assert cv.gw_invariants == (1, (2,)), (spec, cv.gw_invariants)
    report(3, "quadratic form oracle equivalence", time.perf_counter() - t0, 60.0)


def test_criterion_4_presentation_comparison():
    t0 = time.perf_counter()
    for spec in ("GF(2^2)", "Z/5", "Z/7", "GF(3^2)", "Z/11", "Z/13"):
        assert compare_presentations(parse_ring_spec(spec)).extra_relations_implied is True, spec
    for spec in ("Z/16", "Z/4"):
        first = compare_presentations(parse_ring_spec(spec)).extra_relations_implied
        second = compare_presentations(parse_ring_spec(spec)).extra_relations_implied
        assert isinstance(first, bool) and first == second, spec
    report(4, "presentation comparison", time.perf_counter() - t0, 10.0)


def test_criterion_5_eigenspace_splitting(presented):
    t0 = time.perf_counter()
    for spec in GW_SPECS:
        ring = parse_ring_spec(spec)
        closure = unit_square_closure(ring)
        split = presented(ring, "reduced").invert_two_split()
        if closure.exponent(ring.minus_one()) is not None:
            assert split.minus_rank == 0, spec
            assert split.minus_torsion_odd == (), spec
    z4_split = presented(parse_ring_spec("Z/4"), "reduced").invert_two_split()
    assert (z4_split.plus_rank, z4_split.minus_rank) == (1, 1)
    report(5, "eigenspace splitting", time.perf_counter() - t0, 5.0)


def test_criterion_6_prover_regression_corpus():
    t0 = time.perf_counter()
    config = km.ProveConfig(max_depth=12)
    for text, mode, hyp in PROVER_CORPUS:
        t1 = time.perf_counter()
        ident = parse_identity(text, hyp)
        proof = km.prove(ident, mode, config)
        assert proof is not None, f"Unknown: {text!r}"
        check = km.check_proof(proof)
        assert bool(check), (text, check.message)
        assert time.perf_counter() - t1 < 10.0, text
    report(6, "prover regression corpus", time.perf_counter() - t0, 100.0)


def test_criterion_7_degree_zero_cross_check(presented):
    t0 = time.perf_counter()
    for spec in ("Z/5", "Z/7"):
        field = parse_ring_spec(spec)
        pres = presented(field, "reduced")
        units = field.units()
        for text, mode, hyp in PROVER_CORPUS:
            ident = parse_identity(text, hyp)
            if ident.degree() != 0:
                continue
            names = ident.variables()
            for values in product(units, repeat=len(names)):
                assign = dict(zip(names, values))
                try:
                    if any(not km.eval_unit(h, field, assign).is_unit()
                           for h in ident.hypotheses):
                        continue
                    lhs = km.eval_in_ring(ident.lhs, field, assign)
                    rhs = km.eval_in_ring(ident.rhs, field, assign)
                except km.EvalError:
                    continue
                assert pres.class_equal(lhs, rhs), (text, spec, assign)
    report(7, "degree-0 numeric cross-check", time.perf_counter() - t0, 30.0)


def test_criterion_8_elementary_matrix_identity():
    t0 = time.perf_counter()
    for spec in RING_SPECS:
        ring = parse_ring_spec(spec)
        for a in ring.units():
            word = elementary_factorization(ring, a)
            prod_m = ((ring.one, ring.zero), (ring.zero, ring.one))
            for m in word:
                prod_m = mat2_mul(prod_m, m)
            assert prod_m == ((a, ring.zero), (ring.zero, a.inverse())), (spec, str(a))
    report(8, "diag(a, 1/a) elementary factorization", time.perf_counter() - t0, 1.0)


def test_criterion_9_multiplication_descends(presented):
    t0 = time.perf_counter()
    for spec in GW_SPECS:
        ring = parse_ring_spec(spec)
        units = ring.units()
        for kind in ("hopf", "reduced"):
            pres = presented(ring, kind)
            for g in pres.lattice.basis():
                vec = GroupRingVector(ring, dict(zip(units, g)))
                for u in units:
                    shifted = GroupRingVector(ring, {u: 1}) * vec
                    assert pres.lattice.contains(shifted.to_dense()), (spec, kind, str(u))
    report(9, "multiplication descends to the quotient", time.perf_counter() - t0, 30.0)
