"""Brute-force classification of small diagonal quadratic forms.

Diagonal unimodular forms of rank 1 and 2 over a finite field of odd
characteristic and order at most 13 are compared by exhaustively searching
for an invertible change of basis P with P^T diag(f) P = diag(g).  The
isometry classes feed a relation lattice on Z^{units} that cross-validates
the presented Grothendieck-Witt style rings computed by :mod:`mwkit.gwring`
along an entirely independent code path.

The search runs on integer tables: each field's elements are numbered in
``field.elements()`` order, and + and * become tables of those positions,
filled once per field by the field's own operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .finring import Ring, RingElement, make_ring
from .gwring import PresentationKind, present
from .presab import ZLattice

MAX_FIELD_ORDER = 13


class QformError(InputError):
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


class _Tables:
    """A field's elements by position in ``field.elements()``, with +, * and
    negation as tables of positions, filled by the field's own operations."""

    def __init__(self, field: Ring):
        self.elements = elements = list(field.elements())
        self.position = position = {x: i for i, x in enumerate(elements)}
        self.add = [[position[x + y] for y in elements] for x in elements]
        self.mul = [[position[x * y] for y in elements] for x in elements]
        self.neg = [position[-x] for x in elements]
        self.zero = position[field.zero]
        self.is_unit = [x.is_unit() for x in elements]
        # units() filters elements() in order, so unit order is position order
        self.units = [i for i, unit in enumerate(self.is_unit) if unit]


_tables = lru_cache(maxsize=16)(_Tables)


def _orbit(t: _Tables, a: int, b: int, first=None):
    """Yield (c, d) for every invertible P = [[x1, x2], [y1, y2]] taking
    diag(a, b) to P^T diag(a, b) P = diag(c, d) with c and d units, all as
    positions; when ``first`` is given, only the P with c == first.

    The second column must make a*x1*x2 + b*y1*y2 vanish.  When y1 != 0,
    y2 -> b*y1*y2 permutes the field, so each x2 has exactly one y2, read
    from that permutation's inverse; when y1 == 0, only an x2 with
    a*x1*x2 == 0 has any, and then every y2 is tried.  The P come in the
    order of a scan over (x1, y1, x2, y2), in n^3 steps instead of n^4.
    """
    add, mul, neg, zero, is_unit = t.add, t.mul, t.neg, t.zero, t.is_unit
    n = len(t.elements)
    a_sq = [mul[a][mul[x][x]] for x in range(n)]
    b_sq = [mul[b][mul[y][y]] for y in range(n)]
    # solve[y1][v] is the y2 with b*y1*y2 == -v, for each y1 != 0
    solve = [None] * n
    for y1 in range(n):
        if y1 != zero:
            solve[y1] = inverse = [0] * n
            for y2, v in enumerate(mul[mul[b][y1]]):
                inverse[neg[v]] = y2
    for x1 in range(n):
        ax1 = mul[mul[a][x1]]
        mul_x1 = mul[x1]
        for y1 in range(n):
            c = add[a_sq[x1]][b_sq[y1]]
            if not is_unit[c] or (first is not None and c != first):
                continue
            if y1 == zero:
                columns = [(x2, y2) for x2 in range(n) if ax1[x2] == zero for y2 in range(n)]
            else:
                columns = enumerate(map(solve[y1].__getitem__, ax1))
            for x2, y2 in columns:
                if mul_x1[y2] == mul[x2][y1]:
                    continue  # singular P
                d = add[a_sq[x2]][b_sq[y2]]
                if is_unit[d]:
                    yield c, d


def isometric(f: DiagForm, g: DiagForm) -> bool:
    """Exhaustively decide P^T diag(f) P = diag(g) over invertible P."""
    if f.field != g.field:
        raise QformError("forms live over different fields")
    if f.rank != g.rank:
        raise QformError("forms must have equal rank")
    if f.rank > 2:
        raise QformError("only ranks 1 and 2 are supported")
    t = _tables(_check_field(f.field))
    pos = t.position
    if f.rank == 1:
        a, b = pos[f.entries[0]], pos[g.entries[0]]
        return any(t.mul[t.mul[p][p]][a] == b for p in t.units)
    (a, b), (c, d) = ([pos[x] for x in h.entries] for h in (f, g))
    return any(reached == d for _, reached in _orbit(t, a, b, c))


def _rank2_classes(field: Ring) -> list[set[tuple]]:
    """Partition unordered diagonal rank-2 forms into isometry classes.

    For each still-unclassified form the full orbit under GL_2 is computed
    by enumerating each unit-valued first column and solving for the second
    columns that make the image diagonal; forms landing in the orbit join
    the class, so later forms reuse earlier enumerations.
    """
    t = _tables(field)
    els = t.elements
    forms = [(a, b) for i, a in enumerate(t.units) for b in t.units[i:]]
    classified: set[tuple] = set()
    classes: list[set[tuple]] = []
    for form in forms:
        if form in classified:
            continue
        orbit = {(c, d) if c <= d else (d, c) for c, d in _orbit(t, *form)}
        orbit.add(form)
        classified |= orbit
        classes.append({(els[c], els[d]) for c, d in orbit})
    return classes


def oracle_lattice(field) -> list[tuple[int, ...]]:
    """Rows <a> - <c> and <a> + <b> - <c> - <d> from the first form of each
    isometry class to each other member.

    Isometry is an equivalence and f_i - f_j = (f_0 - f_j) - (f_0 - f_i),
    so this star out of each class spans the lattice of all isometric
    pairs, with at most (|U| - 1) + (#rank-2 forms - 1) rows.
    """
    field = _check_field(make_ring(field))
    t = _tables(field)
    mul, pos = t.mul, t.position
    # units are in position order, so sorted positions are in unit order
    index = {u: i for i, u in enumerate(t.units)}
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def emit(signed):
        row = [0] * len(index)
        for sign, u in signed:
            row[index[u]] += sign
        row = tuple(row)
        if row not in seen:
            seen.add(row)
            rows.append(row)

    # rank 1: the class of a is {a p^2 : p a unit}, by exhaustive scaling
    squares = {mul[p][p] for p in t.units}
    classified: set[int] = set()
    for a in t.units:
        if a not in classified:
            members = {mul[a][s] for s in squares}
            classified |= members
            for c in sorted(members - {a}):
                emit(((1, a), (-1, c)))

    # rank 2: the orbit partition
    for cls in _rank2_classes(field):
        (a, b), *rest = sorted((pos[c], pos[d]) for c, d in cls)
        for c, d in rest:
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
    equal = ZLattice(len(pres.classes), oracle_lattice(field)).spans_same(pres.lattice)
    return CrossValidation(field.spec_string(), equal, (pres.rank, pres.torsion))
