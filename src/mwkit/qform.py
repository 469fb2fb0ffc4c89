"""Brute-force classification of small diagonal quadratic forms.

Diagonal unimodular forms of rank 1 and 2 over a finite field of odd
characteristic and order at most 13 are compared by exhaustively searching
for an invertible change of basis P with P^T diag(f) P = diag(g).  The
isometry classes feed a relation lattice on Z^{units} that cross-validates
the presented Grothendieck-Witt style rings computed by :mod:`mwkit.gwring`
along an entirely independent code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from .finring import Ring, RingElement, make_ring
from .gwring import PresentationKind, present
from .presab import ZLattice

MAX_FIELD_ORDER = 13


class QformError(ValueError):
    """Unsupported field or form for the brute-force oracle."""


def _check_field(field: Ring) -> Ring:
    if not field.is_field:
        raise QformError(f"{field.spec_string()} is not a field")
    if field.characteristic() == 2:
        raise QformError("even characteristic is not supported")
    if field.card > MAX_FIELD_ORDER:
        raise QformError(f"field order {field.card} exceeds {MAX_FIELD_ORDER}")
    return field


@dataclass(frozen=True)
class DiagForm:
    """Diagonal form <a_1, ..., a_n> over a small odd-order field."""

    field: Ring
    entries: tuple

    def __post_init__(self):
        _check_field(self.field)
        if not self.entries:
            raise QformError("forms must have rank at least 1")
        for a in self.entries:
            if not (isinstance(a, RingElement) and a.ring == self.field and a.is_unit()):
                raise QformError("form entries must be units of the field")

    @property
    def rank(self) -> int:
        return len(self.entries)


def isometric(f: DiagForm, g: DiagForm) -> bool:
    """Exhaustively decide P^T diag(f) P = diag(g) over invertible P."""
    if f.field != g.field:
        raise QformError("forms live over different fields")
    if f.rank != g.rank:
        raise QformError("forms must have equal rank")
    if f.rank > 2:
        raise QformError("only ranks 1 and 2 are supported")
    field = _check_field(f.field)
    if f.rank == 1:
        a, b = f.entries[0], g.entries[0]
        return any(p * p * a == b for p in field.units())
    a, b = f.entries
    c, d = g.entries
    elements = list(field.elements())
    zero = field.zero
    for x1 in elements:
        for y1 in elements:
            if a * x1 * x1 + b * y1 * y1 != c:
                continue
            for x2 in elements:
                for y2 in elements:
                    if x1 * y2 - x2 * y1 == zero:
                        continue  # singular P
                    if a * x1 * x2 + b * y1 * y2 != zero:
                        continue
                    if a * x2 * x2 + b * y2 * y2 == d:
                        return True
    return False


def _rank2_classes(field: Ring) -> list[set[tuple]]:
    """Partition unordered diagonal rank-2 forms into isometry classes.

    For each still-unclassified form the full orbit under GL_2 is computed
    by enumerating all invertible matrices columnwise; forms landing in the
    orbit join the class, so later forms reuse earlier enumerations.
    """
    units = field.units()
    elements = list(field.elements())
    zero = field.zero
    forms = []
    for i, a in enumerate(units):
        for b in units[i:]:
            forms.append((a, b))
    classified: dict[tuple, int] = {}
    classes: list[set[tuple]] = []
    for form in forms:
        if form in classified:
            continue
        a, b = form
        orbit = set()
        for x1 in elements:
            for y1 in elements:
                c = a * x1 * x1 + b * y1 * y1
                if c == zero or not c.is_unit():
                    continue
                for x2 in elements:
                    for y2 in elements:
                        if x1 * y2 - x2 * y1 == zero:
                            continue
                        if a * x1 * x2 + b * y1 * y2 != zero:
                            continue
                        d = a * x2 * x2 + b * y2 * y2
                        if not d.is_unit():
                            continue
                        key = (c, d) if field.unit_index(c) <= field.unit_index(d) else (d, c)
                        orbit.add(key)
        orbit.add(form)
        idx = len(classes)
        classes.append(orbit)
        for member in orbit:
            classified[member] = idx
    return classes


def oracle_lattice(field) -> list[tuple[int, ...]]:
    """Rows <a> - <c> and <a> + <b> - <c> - <d> for isometric form pairs."""
    field = _check_field(make_ring(field))
    units = field.units()
    index = field.unit_index_map()
    n = len(units)
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def emit(signed):
        row = [0] * n
        for sign, u in signed:
            row[index[u]] += sign
        row = tuple(row)
        if any(row) and row not in seen:
            seen.add(row)
            rows.append(row)

    # rank 1: isometric pairs by exhaustive scaling search
    for a in units:
        for c in units:
            if isometric(DiagForm(field, (a,)), DiagForm(field, (c,))):
                emit(((1, a), (-1, c)))

    # rank 2: within-class pairs from the orbit partition
    for cls in _rank2_classes(field):
        members = sorted(cls, key=lambda fm: (index[fm[0]], index[fm[1]]))
        for i, (a, b) in enumerate(members):
            for (c, d) in members[i + 1 :]:
                emit(((1, a), (1, b), (-1, c), (-1, d)))
    return rows


@dataclass(frozen=True)
class CrossValidation:
    ring_spec: str
    lattices_equal: bool
    gw_invariants: tuple  # (rank, torsion tuple)

    def to_json(self) -> dict:
        return {
            "ring": self.ring_spec,
            "lattices_equal": self.lattices_equal,
            "rank": self.gw_invariants[0],
            "torsion": list(self.gw_invariants[1]),
        }


def cross_validate(field) -> CrossValidation:
    """Mutual containment of the oracle lattice and the reduced relations."""
    field = _check_field(make_ring(field))
    pres = present(field, PresentationKind.REDUCED)
    equal = ZLattice(len(pres.units), oracle_lattice(field)).spans_same(pres.lattice)
    return CrossValidation(field.spec_string(), equal, (pres.rank, pres.torsion))
