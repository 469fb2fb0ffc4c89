from itertools import product

import pytest

from mwkit import gwring
from mwkit.finring import GaloisField, Zmod, parse_ring_spec
from mwkit.gwring import PresentationKind
from mwkit.presab import ZLattice
from mwkit.qform import (
    CrossValidation,
    DiagForm,
    QformError,
    _orbit,
    _rank2_classes,
    _tables,
    cross_validate,
    isometric,
    oracle_lattice,
)
from qform_oracle import (
    oracle_isometric_rank2,
    oracle_pair_lattice,
    oracle_rank2_classes,
    oracle_table_orbit,
)

ORACLE_FIELDS = ["Z/3", "Z/5", "Z/7", "Z/11", "Z/13", "GF(3^2)"]


def form(field, *entries):
    return DiagForm(field, tuple(field.coerce(e) for e in entries))


def test_rank1_square_scaling():
    for spec in ("Z/3", "Z/5", "Z/7", "GF(3^2)"):
        field = parse_ring_spec(spec)
        for a in field.units():
            for b in field.units():
                assert isometric(DiagForm(field, (a,)), DiagForm(field, (a * b * b,)))


def test_rank1_nonsquare_distinction():
    f5 = Zmod(5)
    assert not isometric(form(f5, 1), form(f5, 2))


def test_rank2_f3_example():
    f3 = Zmod(3)
    assert isometric(form(f3, 1, 1), form(f3, 2, 2))
    assert not isometric(form(f3, 1, 1), form(f3, 1, 2))


def test_isometric_is_an_equivalence_on_small_fields():
    for field in (Zmod(3), Zmod(5)):
        units = field.units()
        rank1 = [DiagForm(field, (a,)) for a in units]
        rank2 = [DiagForm(field, (a, b)) for a in units for b in units]
        for f in rank1 + rank2:
            assert isometric(f, f)
        for f, g in product(rank2, repeat=2):
            assert isometric(f, g) == isometric(g, f)
        # transitivity spot-check
        for f, g, h in product(rank2[: len(units) * 2], repeat=3):
            if isometric(f, g) and isometric(g, h):
                assert isometric(f, h)


@pytest.mark.parametrize("spec", ORACLE_FIELDS)
def test_rank2_classes_match_oracle(spec):
    field = parse_ring_spec(spec)
    assert _rank2_classes(field) == oracle_rank2_classes(field)


@pytest.mark.parametrize("spec", ["Z/3", "Z/5", "Z/7"])
def test_rank2_isometric_matches_oracle(spec):
    field = parse_ring_spec(spec)
    units = field.units()
    forms = [DiagForm(field, (a, b)) for a in units for b in units]
    for f, g in product(forms, repeat=2):
        assert isometric(f, g) == oracle_isometric_rank2(f, g), (f, g)


@pytest.mark.parametrize("spec", ORACLE_FIELDS)
def test_orbit_matches_the_table_scan(spec):
    # the solved second column yields the scan's (c, d) in the scan's order
    field = parse_ring_spec(spec)
    t = _tables(field)
    firsts = range(field.card) if field.card <= 7 else []
    for a, b in product(t.units, repeat=2):
        for first in [None, *firsts]:
            assert list(_orbit(t, a, b, first)) == list(oracle_table_orbit(t, a, b, first)), \
                (a, b, first)


@pytest.mark.parametrize("spec", ORACLE_FIELDS)
def test_oracle_lattice_spans_the_pair_lattice(spec):
    field = parse_ring_spec(spec)
    n = len(field.units())
    star = ZLattice(n, oracle_lattice(field))
    assert star.spans_same(ZLattice(n, oracle_pair_lattice(field)))


@pytest.mark.parametrize("spec", ORACLE_FIELDS)
def test_oracle_lattice_has_a_star_of_rows(spec):
    # a row from the first form of each class to each other member; a row
    # for every isometric pair had 1,191 on Z/13
    n = len(parse_ring_spec(spec).units())
    assert len(oracle_lattice(spec)) <= (n - 1) + (n * (n + 1) // 2 - 1)


def test_unsupported_inputs():
    f4 = GaloisField(2, 2)
    with pytest.raises(QformError, match="characteristic"):
        DiagForm(f4, (f4.one,))
    f3 = Zmod(3)
    with pytest.raises(QformError, match="rank"):
        isometric(form(f3, 1, 1, 1), form(f3, 1, 1, 1))
    with pytest.raises(QformError, match="equal rank"):
        isometric(form(f3, 1), form(f3, 1, 1))
    with pytest.raises(QformError, match="different fields"):
        isometric(form(f3, 1), form(Zmod(5), 1))
    with pytest.raises(QformError, match="exceeds"):
        cross_validate(Zmod(17))
    with pytest.raises(QformError, match="not a field"):
        cross_validate(Zmod(9))
    with pytest.raises(QformError, match="units"):
        DiagForm(f3, (f3.zero,))


def test_oracle_lattice_f3():
    rows = oracle_lattice(Zmod(3))
    lat = ZLattice(2, rows)
    assert lat.contains([2, -2])
    assert not lat.contains([1, -1])


def test_oracle_lattice_f5_square_row():
    f5 = Zmod(5)
    rows = oracle_lattice(f5)
    units = f5.units()
    idx = {u.coords: i for i, u in enumerate(units)}
    row = [0] * 4
    row[idx[4]] += 1
    row[idx[1]] -= 1
    assert ZLattice(4, rows).contains(row)


def test_cross_validate_f3_f5():
    for spec, expect in (("Z/3", (1, (2,))), ("Z/5", (1, (2,)))):
        cv = cross_validate(parse_ring_spec(spec))
        assert isinstance(cv, CrossValidation)
        assert cv.lattices_equal is True
        assert cv.gw_invariants == expect
        payload = cv.to_json()
        assert payload["lattices_equal"] is True
        assert payload["rank"] == 1
        assert payload["torsion"] == [2]


def test_cross_validate_builds_the_reduced_lattice_once(monkeypatch):
    # present builds the presented lattice, and reading its lattice lifts
    # that one, so the relation rows are made once
    calls = []
    build = gwring._presented_rows

    def counted(ring, kind):
        calls.append(PresentationKind.coerce(kind))
        return build(ring, kind)

    monkeypatch.setattr(gwring, "_presented_rows", counted)
    assert cross_validate(Zmod(5)).lattices_equal is True
    assert calls == [PresentationKind.REDUCED]
