"""Degree-zero presented rings Z[R^x]/I for a finite commutative ring R.

Basis vectors of the group ring Z[R^x] are written <a> for units a.  Two
presentations are built from the Grothendieck-Witt relation families

    (i)    <a b^2> = <a>
    (ii)   <a> + <-a> = <1> + <-1>
    (iii)  <a> + <b> = <a+b> + <(a+b) a b>     (a + b a unit)

The "hopf" kind imposes the ideal generated by families (ii) and (iii); the
"reduced" kind also imposes family (i).

The relation lattice is the subgroup generated by the *ideal* the families
generate, i.e. it is closed under multiplication by units.  Both kinds are
presented in the dimension of the invariants, not of the units:

* reduced: family (i) identifies the units of each square class, so the
  quotient is Z^C / L' for the C = |R^x / (R^x)^2| square classes, and L'
  is the ideal of Z[R^x / (R^x)^2] that the family (ii) and (iii) rows
  generate when read through the classes.  It is spanned by generator
  rows [g](1 + [t])(1 - [h]), at most C log2 C for each class t (see
  :func:`_presented_rows`).
* hopf: if no residue field of R is F_2, the hopf ideal already holds
  every family (i) row, and the reduced presentation serves both kinds.
  If some residue field is F_2, family (iii) is empty and the hopf lattice
  is spanned by the |U| family (ii) rows, with no unit translates.

:func:`present` is the one builder of a presented ring, and
``GwPresentedRing.lattice`` the one lattice in Z^{units}: it is lifted
from L' through the class map only when it is read.  README ("Presented
rings") proves both cases above.

:func:`compare_presentations` builds no lattice: the two kinds agree when
family (iii) is non-empty, and otherwise exactly when every unit squares
to 1, which its docstring proves from the rows f(a) of the hopf case.

:meth:`GwPresentedRing.invert_two_split` reads no lattice either: after
inverting 2 every presentation splits as (1, rank - 1), with no odd
torsion, which README ("Presented rings") proves for both kinds.  The
odd-torsion fields of :class:`SplitReport` are always empty and stay only
for the output format.

:meth:`GwPresentedRing.class_equal` and :meth:`GwPresentedRing.torsion_exponent`
check the ring and pass a vector's flat tuple of unit indices and
coefficients, read through ``classes``, to ``SnfPresentation.class_order``,
the one reader of a presented class; a query runs in those two frames.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from operator import mul as _times  # gwring.mul is the group ring product
from typing import Collection, Mapping, Optional

from .finring import GaloisRing, ProductRing, Ring, RingElement, make_ring
from .presab import SnfPresentation, ZLattice


class PresentationKind(str, enum.Enum):
    HOPF = "hopf"
    REDUCED = "reduced"

    @classmethod
    def coerce(cls, kind) -> "PresentationKind":
        if isinstance(kind, cls):
            return kind
        return cls(str(kind).lower())


def _non_unit(ring: Ring, u) -> ValueError:
    return ValueError(f"<{u}> requires a unit, got a non-unit of {ring.spec_string()}")


def _checked_items(ring: Ring, coeffs: Mapping) -> tuple:
    """The flat (index, coefficient, ...) tuple of a {unit: c} dict, in its order, zeros dropped.

    This is the one key check of a vector: a ValueError unless every key is
    a unit of ring.  Every key is checked before any coefficient.  A key of
    a structurally equal ring handle is accepted, as ``RingElement``
    equality accepts it.  Each coefficient passes through
    ``operator.index``, so a float, a string or None raises TypeError and a
    bool is kept as the int it equals.
    """
    index = ring.unit_index_by_coords()
    keys: list = []
    append = keys.append
    for u in coeffs:
        if type(u) is not RingElement:
            raise ValueError(f"<{u!r}> requires a unit of {ring.spec_string()}, "
                             f"got a key of type {type(u).__name__}")
        if u.ring is not ring and u.ring != ring:
            raise ValueError("ring mismatch")
        k = index.get(u.coords)
        if k is None:
            raise _non_unit(ring, u)
        append(k)
    return _flat(keys, list(map(operator.index, coeffs.values())))


def _flat(keys: Collection, vals: Collection) -> tuple:
    """The flat tuple (k0, c0, k1, c1, ...) of keys and coefficients, zeros dropped."""
    if not all(vals):
        keys, vals = list(compress(keys, vals)), list(filter(None, vals))
    items = [0] * (2 * len(keys))
    items[::2] = keys
    items[1::2] = vals
    return tuple(items)


class GroupRingVector:
    """Finitely supported integer combination of unit basis vectors <u>.

    A vector is immutable, and stored as one flat tuple ``_items`` =
    (k0, c0, k1, c1, ...): the index k of each unit of its support in
    ``ring.units()``, followed by its nonzero integer coefficient c.  Every
    operation builds the one tuple of its result and shares none; a sum or
    difference with the zero vector is the other operand (or its
    negation).  The constructor takes {unit: integer} and refuses a key
    that is not a unit of ring; ``coeffs`` gives the same dict back, keyed
    by the ring's own units, without zero coefficients.
    """

    __slots__ = ("ring", "_items")

    def __init__(self, ring: Ring, coeffs: Optional[dict] = None):
        self.ring = ring
        self._items = _checked_items(ring, coeffs) if coeffs else ()

    @classmethod
    def _of(cls, ring: Ring, items: tuple) -> "GroupRingVector":
        """The vector of the flat tuple ``items``: distinct unit indices, each
        followed by its nonzero coefficient."""
        x = cls.__new__(cls)
        x.ring = ring
        x._items = items
        return x

    @classmethod
    def _of_sums(cls, ring: Ring, acc: dict) -> "GroupRingVector":
        """The vector of an {index: coefficient} accumulator, in its order, zeros dropped."""
        return cls._of(ring, _flat(acc, acc.values()))

    @property
    def coeffs(self) -> dict:
        """{unit: coefficient}, a new dict in the vector's key order."""
        units = self.ring.units()
        it = iter(self._items)
        return {units[k]: next(it) for k in it}

    @classmethod
    def angle(cls, ring: Ring, u: RingElement) -> "GroupRingVector":
        u = ring.coerce(u)
        k = ring.unit_index_by_coords().get(u.coords)
        if k is None:
            raise _non_unit(ring, u)
        return cls._of(ring, (k, 1))

    @classmethod
    def zero(cls, ring: Ring) -> "GroupRingVector":
        return cls._of(ring, ())

    @classmethod
    def one(cls, ring: Ring) -> "GroupRingVector":
        return cls._of(ring, (ring.unit_index_by_coords()[ring.one.coords], 1))

    def _check(self, other: "GroupRingVector"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")

    def _plus(self, ys: tuple) -> "GroupRingVector":
        """x plus the flat tuple ``ys``, in one pass over ys.

        The keys of x come first in their order, less those that cancel,
        then the new keys of ys in theirs.  When no key of ys is a key of x,
        that is the two flat tuples joined; otherwise x is indexed in a
        dict and ys added into it.
        """
        xs = self._items
        if frozenset(ys[::2]).isdisjoint(xs[::2]):
            return GroupRingVector._of(self.ring, xs + ys)
        it = iter(xs)
        acc = dict(zip(it, it))
        get = acc.get
        it = iter(ys)
        for k in it:
            acc[k] = get(k, 0) + next(it)
        return GroupRingVector._of_sums(self.ring, acc)

    def __add__(self, other: "GroupRingVector") -> "GroupRingVector":
        if not isinstance(other, GroupRingVector):
            return NotImplemented
        self._check(other)
        if not other._items:
            return self
        if not self._items:
            return other
        return self._plus(other._items)

    def __sub__(self, other: "GroupRingVector") -> "GroupRingVector":
        if not isinstance(other, GroupRingVector):
            return NotImplemented
        self._check(other)
        if not other._items:
            return self
        if not self._items:
            return -other
        return self._plus(_scaled(other._items, -1))

    def __neg__(self) -> "GroupRingVector":
        return GroupRingVector._of(self.ring, _scaled(self._items, -1))

    def __rmul__(self, scalar: int) -> "GroupRingVector":
        if not isinstance(scalar, int):
            return NotImplemented
        return GroupRingVector._of(self.ring, _scaled(self._items, scalar) if scalar else ())

    def __mul__(self, other) -> "GroupRingVector":
        if isinstance(other, int):
            return self.__rmul__(other)
        if not isinstance(other, GroupRingVector):
            return NotImplemented
        self._check(other)
        # read each product of units from the ring's table, multiplying
        # coordinates for an entry it is missing, and accumulate on unit
        # indices, in first-occurrence order; a miss is filled here rather
        # than by a __missing__ row, which costs a Python call per entry
        # (README, "Group-ring arithmetic on unit indices")
        ring = self.ring
        table = ring.unit_products()
        coords, index, coord_mul = table.coords, ring.unit_index_by_coords(), ring._mul
        it = iter(other._items)
        ys = list(zip(it, it))
        acc: dict = {}
        get = acc.get
        it = iter(self._items)
        for i, cu in zip(it, it):
            row = table[i]
            product = row.get
            for j, cv in ys:
                k = product(j)
                if k is None:
                    k = row[j] = index[coord_mul(coords[i], coords[j])]
                acc[k] = get(k, 0) + cu * cv
        return GroupRingVector._of_sums(ring, acc)

    def __eq__(self, other):
        if not isinstance(other, GroupRingVector):
            return NotImplemented
        if len(self._items) != len(other._items) or self.ring != other.ring:
            return False
        xs, ys = iter(self._items), iter(other._items)
        return dict(zip(xs, xs)) == dict(zip(ys, ys))

    def __hash__(self):
        it = iter(self._items)
        return hash((self.ring, frozenset(zip(it, it))))

    def is_zero(self) -> bool:
        return not self._items

    def augmentation(self) -> int:
        return sum(self._items[1::2])

    def to_dense(self) -> tuple[int, ...]:
        """Coefficients in the unit order of the ring."""
        row = [0] * len(self.ring.unit_index_by_coords())
        it = iter(self._items)
        for k in it:
            row[k] = next(it)
        return tuple(row)

    def __str__(self):
        """The terms sorted by the text of their units; only the vector's own units are built."""
        if not self._items:
            return "0"
        ring = self.ring
        coords = ring.unit_products().coords
        it = iter(self._items)
        terms = sorted(((str(RingElement(ring, coords[k])), next(it)) for k in it),
                       key=itemgetter(0))
        text = " ".join(f"{'+' if c >= 0 else '-'} {abs(c)}<{u}>" for u, c in terms)
        return text[2:] if text.startswith("+ ") else text

    __repr__ = __str__


def _scaled(items: tuple, scalar: int) -> tuple:
    """The flat tuple ``items`` with every coefficient times a nonzero ``scalar``."""
    scaled = list(items)
    scaled[1::2] = map(_times, items[1::2], repeat(scalar))
    return tuple(scaled)


def _sparse_key(signed) -> tuple:
    """Nonzero (index, coefficient) pairs of a signed index list, sorted."""
    coeffs: dict = {}
    for sign, i in signed:
        coeffs[i] = coeffs.get(i, 0) + sign
    return tuple(sorted((i, c) for i, c in coeffs.items() if c))


def _dense(n: int, key: tuple) -> tuple[int, ...]:
    row = [0] * n
    for i, c in key:
        row[i] = c
    return tuple(row)


def _has_unit_sums(ring: Ring) -> bool:
    """Whether family (iii) has an instance: some 1 + c is a unit.

    a + b is a unit exactly when 1 + b/a is, so this is false exactly when
    no two units sum to a unit, which is when some residue field of R is
    F_2.  That is read off the ring's kind, with no ring operation: the
    residue fields of Z/m are the Z/p with p | m, that of GR(p^e, k) (GF(p^k)
    included) is GF(p^k), and those of a product are its factors'.
    """
    if isinstance(ring, ProductRing):
        return all(map(_has_unit_sums, ring.factors))
    if isinstance(ring, GaloisRing):
        return not (ring.p == 2 and ring.k == 1)
    return ring.m % 2 == 1  # Z/m, the remaining kind


def _presented_rows(ring: Ring, kind: PresentationKind) -> tuple[list[int], int, list[tuple]]:
    """(classes, m, rows): the presented lattice L' of the chosen kind.

    L' lies in Z^m, and unit i is read through coordinate classes[i].  rows
    are sparse keys over the coordinates that span L'.  Z^{units} modulo
    the relation lattice is Z^m / L' through e_i -> e_{classes[i]}.

    With a residue field F_2 the hopf kind keeps one coordinate per unit
    and its rows are the distinct family (ii) rows.  Every other
    presentation is the reduced one, on the C square classes, spanned by
    the rows [g](1 + [t])(1 - [h]), which README ("Presented rings")
    derives from families (ii) and (iii) read through the classes: for each
    class t, h runs over the classes of D[t] that are independent over F_2
    of t and of the h before them, and g over the least class of each coset
    of <t, h>, whose other classes give the same row up to sign.  Classes
    are numbered by their F_2 coordinates (``Ring.square_classes``), so the
    row is [g] + [g ^ t] - [g ^ h] - [g ^ t ^ h], and no ring product runs.
    """
    index = ring.unit_index_by_coords()
    neg, one = ring._neg, ring.one.coords
    if kind is PresentationKind.HOPF and not _has_unit_sums(ring):
        n = len(index)
        e, f = index[one], index[neg(one)]
        rows = {_sparse_key(((1, i), (1, index[neg(a)]), (-1, e), (-1, f))): None
                for i, a in enumerate(index)}
        rows.pop((), None)
        return list(range(n)), n, list(rows)
    classes, count = ring.square_classes()
    gens: list = list(ring.unit_sum_classes())
    gens[classes[index[neg(one)]]] = range(count)  # family (ii): H = G
    rows = []
    for t, ds in enumerate(gens):
        span = [t] if t else []  # reduced, by decreasing leading bit
        for h in ds:
            r = h
            for b in span:
                r = min(r, r ^ b)
            if not r:
                continue
            span = sorted(span + [r], reverse=True)
            rows += [_sparse_key(((1, g), (1, g ^ t), (-1, g ^ h), (-1, g ^ t ^ h)))
                     for g in range(count) if g == min(g, g ^ t, g ^ h, g ^ t ^ h)]
    return classes, count, rows


@dataclass(frozen=True)
class SplitReport:
    """Invariants of the two eigenpieces after inverting 2.

    The odd-torsion fields are always empty: no presentation has odd
    torsion (README, "Presented rings").  They stay for the output format.
    """

    plus_rank: int
    minus_rank: int
    plus_torsion_odd: tuple[int, ...]
    minus_torsion_odd: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "plus_rank": self.plus_rank,
            "minus_rank": self.minus_rank,
            "plus_torsion_odd": list(self.plus_torsion_odd),
            "minus_torsion_odd": list(self.minus_torsion_odd),
        }


class GwPresentedRing:
    """The quotient Z[R^x] / (relation lattice) in canonical coordinates.

    The quotient is presented as Z^m / L' (see :func:`_presented_rows`):
    ``classes[i]`` is the coordinate of Z^m that unit i is read through, and
    ``presentation`` presents Z^m / L', and reads the order of each class.
    Build one with :func:`present`.
    """

    def __init__(self, ring: Ring, kind: PresentationKind):
        self.ring = ring
        self.kind = kind
        self.classes, m, rows = _presented_rows(ring, kind)
        self._presented = ZLattice(m)
        for key in rows:
            self._presented._insert(dict(key))
        self.presentation: SnfPresentation = self._presented.quotient()
        self._lattice: Optional[ZLattice] = None

    @property
    def units(self) -> list:
        """The ring's units as elements, in the order of ``classes``; built
        on first read, not by the presentation."""
        return self.ring.units()

    @property
    def lattice(self) -> ZLattice:
        """The relation lattice in Z^{units}, lifted from L' on first read.

        It is the vectors whose class sums lie in L': the kernel of the
        class sum, spanned by e_u - e_last(u) for each unit u other than the
        last unit last(u) of its class, plus the basis rows of L' placed on
        the last units.  Those go in first: then a kernel row meets no basis
        entry at its pivot u, which no other row touches.
        """
        if self._lattice is None:
            classes = self.classes
            last = {c: i for i, c in enumerate(classes)}
            lattice = ZLattice(len(classes))
            for row in self._presented.basis():
                lattice._insert({last[c]: x for c, x in enumerate(row) if x})
            for i, c in enumerate(classes):
                if last[c] != i:
                    lattice._insert({i: 1, last[c]: -1})
            self._lattice = lattice
        return self._lattice

    @property
    def rank(self) -> int:
        return self.presentation.rank

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.presentation.torsion

    def angle(self, u) -> GroupRingVector:
        return GroupRingVector.angle(self.ring, u)

    def class_equal(self, x: GroupRingVector, y: GroupRingVector) -> bool:
        """Whether x and y have one class: the class of x - y has order 1.

        Unit k is read through coordinate ``classes[k]`` by
        ``SnfPresentation.class_order``, the one reader of a class.
        """
        ring = self.ring
        if (x.ring is not ring and x.ring != ring) or (y.ring is not ring and y.ring != ring):
            raise ValueError("ring mismatch")
        return self.presentation.class_order(self.classes, x._items, y._items) == 1

    def torsion_exponent(self, x: GroupRingVector) -> Optional[int]:
        """Additive order of the class of x; None means infinite order."""
        if x.ring is not self.ring and x.ring != self.ring:
            raise ValueError("ring mismatch")
        return self.presentation.class_order(self.classes, x._items)

    def minus_one_is_one(self) -> bool:
        return self.class_equal(self.angle(self.ring.minus_one()), self.angle(self.ring.one))

    def invert_two_split(self) -> SplitReport:
        """Split the presentation after inverting 2 by the <-1> involution.

        After inverting 2 the quotient is free, with no odd torsion, and
        <-1> fixes a line of it and negates a complement, so the split is
        (1, rank - 1).  README, "Presented rings", proves this for both
        kinds.
        """
        return SplitReport(1, self.rank - 1, (), ())

    def report(self) -> dict:
        return {
            "ring": self.ring.spec_string(),
            "kind": self.kind.value,
            "n_units": len(self.classes),
            "rank": self.rank,
            "torsion": list(self.torsion),
            "minus_one_is_one": self.minus_one_is_one(),
            "split": self.invert_two_split().to_json(),
            "presentation_comparison": compare_presentations(self.ring).extra_relations_implied,
        }


def present(ring, kind) -> GwPresentedRing:
    """Quotient Z^{R^x} by the chosen relation lattice."""
    return GwPresentedRing(make_ring(ring), PresentationKind.coerce(kind))


def build_relations(ring, kind) -> list[tuple[int, ...]]:
    """Reduced Hermite basis of the relation lattice of the chosen kind in Z^{units}.

    The rows of ``present(ring, kind).lattice``, listed by increasing pivot;
    the empty list means the lattice is zero.  The basis depends only on
    the lattice, so equal lattices give equal lists.
    """
    return present(ring, kind).lattice.basis()


def mul(x: GroupRingVector, y: GroupRingVector) -> GroupRingVector:
    """Group ring product, the bilinear extension of <a><b> = <ab>."""
    return x * y


@dataclass(frozen=True)
class ComparisonReport:
    """Does the hopf lattice already contain every reduced-only relation?

    ``names`` are the texts of the units at the nonzero entries of
    ``witness``, in unit order.
    """

    ring_spec: str
    extra_relations_implied: bool
    witness: Optional[tuple[int, ...]]
    names: tuple[str, ...]

    def witness_sparse(self) -> Optional[dict]:
        if self.witness is None:
            return None
        return dict(zip(self.names, filter(None, self.witness)))

    def to_json(self) -> dict:
        return {
            "ring": self.ring_spec,
            "extra_relations_implied": self.extra_relations_implied,
            "witness": self.witness_sparse(),
        }


def compare_presentations(ring) -> ComparisonReport:
    """Check whether each reduced relation row lies in the hopf lattice.

    The reduced lattice is the hopf lattice H plus the family (i) rows
    <a b^2> - <a>.  When no residue field of R is F_2 the two lattices are
    equal (README, "Presented rings", proves it), and the answer is True.

    Otherwise H is spanned by the rows f(a) = <a> + <-a> - <1> - <-1>, so
    every vector of H has equal coefficients at u and -u, and even ones
    when 2 = 0 in R, where -u = u and f(a) = 2<a> - 2<1>.  A nonzero row
    <a b^2> - <a> has coefficient -1 at a.  If -a = a that is odd; if not,
    its coefficient at -a is 1 when a b^2 = -a and 0 otherwise, either way
    not -1.  So no nonzero family (i) row lies in H, and the answer is True
    exactly when every unit squares to 1.  The witness, the first row in
    (a, b) order outside H, is then the first nonzero one: a is the first
    unit and b the first unit whose square is not 1.  Both are read off
    the ring's square map, with one coordinate product, and no lattice is
    read.
    """
    ring = make_ring(ring)
    witness, names = None, ()
    if not _has_unit_sums(ring):
        index, mul = ring.unit_index_by_coords(), ring._mul
        one = index[ring.one.coords]
        square = next((s for s in ring.unit_square_map() if s != one), None)
        if square is not None:
            coords = list(index)  # the witness's two units are named, not built
            key = _sparse_key(((1, index[mul(coords[0], coords[square])]), (-1, 0)))
            witness = _dense(len(coords), key)
            names = tuple(ring._format(coords[i]) for i, _ in key)
    return ComparisonReport(ring.spec_string(), witness is None, witness, names)
