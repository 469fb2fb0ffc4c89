"""Degree-zero presented rings Z[R^x]/I for a finite commutative ring R.

Basis vectors of the group ring Z[R^x] are written <a> for units a.  Two
presentations are built from the Grothendieck-Witt relation families

    (i)    <a b^2> = <a>
    (ii)   <a> + <-a> = <1> + <-1>
    (iii)  <a> + <b> = <a+b> + <(a+b) a b>     (a + b a unit)

The "hopf" kind imposes the ideal generated by families (ii) and (iii); the
"reduced" kind also imposes family (i).

The relation lattice is the subgroup generated by the *ideal* the families
generate, i.e. it is closed under multiplication by units.  Families (i) and
(ii) instance sets are already closed under unit translation, and for the
reduced kind family (iii) is as well (the translate of a (iii) row differs
from another (iii) row by an (i) row).  For the hopf kind the unit
translates of family (iii) genuinely enlarge the lattice; without them
multiplication would not descend to the quotient.  They are reached by
spinning the untranslated rows up under a generating set of the unit group.

Neither kind scans all unit pairs.  The hopf lattice is the spin-up of the
family (ii) rows and the (iii) rows with a = 1, about 2|U| rows.  The
reduced kind lets a range over the representatives of the square classes,
C |U| pairs for C classes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from . import presab
from .finring import Ring, RingElement, make_ring
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


def _unit_indices(ring: Ring, keys) -> list[int]:
    """Position in ``units()`` of each key, in order; ValueError unless every key is a unit of ring.

    This is the one key check of group-ring products, class queries and
    ``to_dense``.  A key of a structurally equal ring handle is accepted,
    as ``RingElement`` equality accepts it.
    """
    index = ring.unit_index_by_coords()
    out = []
    for u in keys:
        if type(u) is not RingElement:
            raise ValueError(f"<{u!r}> requires a unit of {ring.spec_string()}, "
                             f"got a key of type {type(u).__name__}")
        if u.ring is not ring and u.ring != ring:
            raise ValueError("ring mismatch")
        k = index.get(u.coords)
        if k is None:
            raise _non_unit(ring, u)
        out.append(k)
    return out


class GroupRingVector:
    """Finitely supported integer combination of unit basis vectors <u>.

    ``coeffs`` maps units (``RingElement`` keys) to nonzero integers.  The
    constructor drops zero coefficients and checks nothing else about the
    keys; a product, ``to_dense`` and the class queries of
    ``GwPresentedRing`` refuse a key that is not a unit of the vector's ring.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Optional[dict] = None):
        self.ring = ring
        self.coeffs = {u: c for u, c in coeffs.items() if c} if coeffs else {}

    @classmethod
    def _of(cls, ring: Ring, coeffs: dict) -> "GroupRingVector":
        """A vector on ``coeffs`` as given: a dict no one else holds, with no zero coefficient."""
        x = cls.__new__(cls)
        x.ring = ring
        x.coeffs = coeffs
        return x

    @classmethod
    def angle(cls, ring: Ring, u: RingElement) -> "GroupRingVector":
        u = ring.coerce(u)
        if not u.is_unit():
            raise _non_unit(ring, u)
        return cls._of(ring, {u: 1})

    @classmethod
    def zero(cls, ring: Ring) -> "GroupRingVector":
        return cls._of(ring, {})

    @classmethod
    def one(cls, ring: Ring) -> "GroupRingVector":
        return cls._of(ring, {ring.one: 1})

    def _check(self, other: "GroupRingVector"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other: "GroupRingVector") -> "GroupRingVector":
        self._check(other)
        # zeroed keys are dropped in place: rebuilding the sum would hash
        # every key again through RingElement.__hash__
        out = dict(self.coeffs)
        get = out.get
        for u, c in other.coeffs.items():
            t = get(u, 0) + c
            if t:
                out[u] = t
            else:
                out.pop(u, None)
        return GroupRingVector._of(self.ring, out)

    def __neg__(self) -> "GroupRingVector":
        return GroupRingVector._of(self.ring, {u: -c for u, c in self.coeffs.items()})

    def __sub__(self, other: "GroupRingVector") -> "GroupRingVector":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "GroupRingVector":
        if not isinstance(scalar, int):
            return NotImplemented
        if not scalar:
            return GroupRingVector._of(self.ring, {})
        return GroupRingVector._of(self.ring, {u: scalar * c for u, c in self.coeffs.items()})

    def __mul__(self, other) -> "GroupRingVector":
        if isinstance(other, int):
            return self.__rmul__(other)
        self._check(other)
        # multiply coordinates and accumulate on unit indices, in
        # first-occurrence order; the keys are the ring's own units
        ring = self.ring
        units, index, coord_mul = ring.units(), ring.unit_index_by_coords(), ring._mul
        ys = [(units[j].coords, cv)
              for j, cv in zip(_unit_indices(ring, other.coeffs), other.coeffs.values())]
        acc: dict = {}
        get = acc.get
        for i, cu in zip(_unit_indices(ring, self.coeffs), self.coeffs.values()):
            uc = units[i].coords
            for vc, cv in ys:
                k = index[coord_mul(uc, vc)]
                acc[k] = get(k, 0) + cu * cv
        return GroupRingVector._of(ring, {units[k]: c for k, c in acc.items() if c})

    def __eq__(self, other):
        if not isinstance(other, GroupRingVector):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def augmentation(self) -> int:
        return sum(self.coeffs.values())

    def to_dense(self) -> tuple[int, ...]:
        """Coefficients in the unit order of the ring."""
        row = [0] * len(self.ring.units())
        for k, c in zip(_unit_indices(self.ring, self.coeffs), self.coeffs.values()):
            row[k] += c
        return tuple(row)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for u, c in sorted(self.coeffs.items(), key=lambda t: str(t[0])):
            parts.append(f"{'+' if c >= 0 else '-'} {abs(c)}<{u}>")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    __repr__ = __str__


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


def _family_rows(ring: Ring, rep: Sequence[int], firsts: Sequence[int]) -> list[tuple]:
    """Distinct nonzero rows of families (ii) and (iii) as sparse keys.

    Every unit index i is replaced by rep[i].  Rows come in a fixed order:
    family (ii) over units, then family (iii) over the pairs (a, b) with a
    the unit of an index in ``firsts`` and b any unit.  Sums and products
    run on coordinates.
    """
    index = ring.unit_index_by_coords()
    coords = [u.coords for u in ring.units()]
    add, neg, mul = ring._add, ring._neg, ring._mul
    one_c = ring.one.coords
    one, minus_one = rep[index[one_c]], rep[index[neg(one_c)]]
    rows: dict = {}
    for i, a in enumerate(coords):
        key = _sparse_key(((1, rep[i]), (1, rep[index[neg(a)]]), (-1, one), (-1, minus_one)))
        if key:
            rows.setdefault(key)
    for i in firsts:
        a = coords[i]
        for j, b in enumerate(coords):
            s = add(a, b)
            k = index.get(s)  # a + b is a unit exactly when it is indexed
            if k is None:
                continue
            m = index[mul(mul(s, a), b)]
            key = _sparse_key(((1, rep[i]), (1, rep[j]), (-1, rep[k]), (-1, rep[m])))
            if key:
                rows.setdefault(key)
    return list(rows)


def _unit_generators(ring: Ring) -> list[list[int]]:
    """Multiplication permutations of a greedy generating set of R^x.

    A unit joins the set, in unit order, when the units chosen before it do
    not generate it.  perm[i] is the index of g * units[i].  The list is
    built once per ring and kept with its unit index; it is shared, do not
    modify it.
    """
    if ring._unit_generator_perms is not None:
        return ring._unit_generator_perms
    index = ring.unit_index_by_coords()
    coords = [u.coords for u in ring.units()]
    mul = ring._mul
    subgroup = {index[ring.one.coords]}
    perms = []
    for i, g in enumerate(coords):
        if i in subgroup:
            continue
        perm = [index[mul(g, u)] for u in coords]
        perms.append(perm)
        # <H, g> is the union of the cosets g^k H, k below the order of g mod H
        coset = list(subgroup)
        while True:
            coset = [perm[j] for j in coset]
            if coset[0] in subgroup:
                break
            subgroup.update(coset)
    ring._unit_generator_perms = perms
    return perms


def relation_lattice(ring, kind) -> ZLattice:
    """The relation lattice of the chosen kind, built from unit-group structure.

    hopf: with r(a,b) = <a> + <b> - <a+b> - <(a+b)ab> the family (iii) row,

        r(a,b) = <a> r(1, b/a) + <(a+b)b/a> (1 - <a^2>).

    The family (ii) rows and the rows r(1,c), 1 + c a unit, are closed
    under multiplication by a generating set of R^x; a Z-submodule closed
    under the generators of a finite group is closed under the whole group,
    so this is the ideal J they generate.  J is the hopf ideal.  If some
    residue field of R is F_2, no sum of two units is a unit, family (iii)
    is empty and J is the ideal of family (ii).  Otherwise J holds every
    1 - <c^2> with 1 + c a unit: r(c,1) = r(1,c) and 1 + 1/c is a unit, so

        <(c+1)/c> (1 - <c^2>) = r(1,c) - <c> r(1, 1/c).

    Every unit a is c1 c2 z with 1 + c1 and 1 + c2 units and z^2 = 1 (in
    each local factor, c1 with residue away from -1 and -a if the residue
    field has 4 or more elements, c1 = 1 and z = +-1 if it is F_3), so J holds
    1 - <a^2> = (1 - <c1^2>) + <c1^2> (1 - <c2^2>) for every unit a, and by
    the identity above every r(a,b).

    reduced: the family (i) span is the span of the rows <u> - <rep(u)>,
    rep(u) the first unit of u's square class, and modulo it the ideal of
    families (ii) and (iii) is spanned by their untranslated rows with
    every unit replaced by its representative.  Such a row does not change
    when (a, b) becomes (sa, sb) for a square s, so a ranges over the
    representatives only.
    """
    ring = make_ring(ring)
    kind = PresentationKind.coerce(kind)
    n = len(ring.units())
    index = ring.unit_index_by_coords()
    lattice = ZLattice(n)
    # rows stay sparse (index, coefficient) pairs, and each enters the
    # lattice as a dict of its own, which the lattice may keep
    if kind is PresentationKind.HOPF:
        # spin-up: the rows that enlarged the lattice span it, so closing them
        # under the generators closes the lattice.  They are translated rather
        # than the echelon basis because they keep their small entries.
        queue = [key for key in _family_rows(ring, range(n), (index[ring.one.coords],))
                 if lattice._insert(dict(key))]
        perms = _unit_generators(ring)
        while queue:
            row = queue.pop()
            for perm in perms:
                image = [(perm[i], c) for i, c in row]
                if lattice._insert(dict(image)):
                    queue.append(image)
        return lattice
    coords = [u.coords for u in ring.units()]
    mul = ring._mul
    rep = list(range(n))
    squares = {mul(c, c) for c in coords}
    for i, c in enumerate(coords):
        if rep[i] == i:
            for q in squares:
                rep[index[mul(c, q)]] = i
    for i in range(n):
        if rep[i] != i:
            lattice._insert({rep[i]: -1, i: 1})
    for key in _family_rows(ring, rep, [i for i in range(n) if rep[i] == i]):
        lattice._insert(dict(key))
    return lattice


def build_relations(ring, kind) -> list[tuple[int, ...]]:
    """Reduced Hermite basis of the relation lattice of the chosen kind in Z^{units}.

    See :func:`relation_lattice`; the basis rows are listed by increasing
    pivot, and the empty list means the lattice is zero.  The basis depends
    only on the lattice, so equal lattices give equal lists.
    """
    return relation_lattice(ring, kind).basis()


@dataclass(frozen=True)
class SplitReport:
    """Invariants of the two eigenpieces after inverting 2."""

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


def _odd_part(d: int) -> int:
    while d % 2 == 0:
        d //= 2
    return d


class GwPresentedRing:
    """The quotient Z[R^x] / (relation lattice) in canonical coordinates."""

    def __init__(self, ring: Ring, kind: PresentationKind):
        self.ring = ring
        self.kind = kind
        self.units = ring.units()
        self.lattice = relation_lattice(ring, kind)
        self.presentation: SnfPresentation = self.lattice.quotient()

    @property
    def rank(self) -> int:
        return self.presentation.rank

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.presentation.torsion

    def angle(self, u) -> GroupRingVector:
        return GroupRingVector.angle(self.ring, self.ring.coerce(u))

    def _indices(self, x: GroupRingVector) -> list[int]:
        """Unit index of each basis vector of x, in the order of ``x.coeffs``."""
        if x.ring is not self.ring and x.ring != self.ring:
            raise ValueError("ring mismatch")
        return _unit_indices(self.ring, x.coeffs)

    def class_equal(self, x: GroupRingVector, y: GroupRingVector) -> bool:
        # x - y on unit indices; a unit in both supports is listed twice,
        # which the class, being linear, adds up
        indices = self._indices(x) + self._indices(y)
        values = [*x.coeffs.values(), *(-c for c in y.coeffs.values())]
        return self.presentation.sparse_order(indices, values) == 1

    def torsion_exponent(self, x: GroupRingVector) -> Optional[int]:
        """Additive order of the class of x; None means infinite order."""
        return self.presentation.sparse_order(self._indices(x), x.coeffs.values())

    def minus_one_is_one(self) -> bool:
        return self.class_equal(self.angle(self.ring.minus_one()), self.angle(self.ring.one))

    def invert_two_split(self) -> SplitReport:
        """Split the presentation after inverting 2 by the <-1> involution.

        The free part splits by the trace of the induced involution; torsion
        is first reduced to its odd part (2-power invariant factors are
        discarded) and then split by the idempotents (1 +- <-1>)/2, which are
        defined once 2 is invertible.
        """
        pres = self.presentation
        index, neg = self.ring.unit_index_by_coords(), self.ring._neg
        a = pres.induced_matrix([index[neg(u.coords)] for u in self.units])  # <-1><u> = <-u>
        t = len(pres.torsion)  # canonical coordinates: torsion, then free
        trace = sum(a[i][i] for i in range(t, t + pres.rank))
        rank = pres.rank
        if (rank + trace) % 2:
            raise RuntimeError("involution trace parity violated")
        plus_rank = (rank + trace) // 2
        minus_rank = (rank - trace) // 2

        odd_idx = [i for i, d in enumerate(pres.torsion) if _odd_part(d) >= 3]
        odd_mod = [_odd_part(pres.torsion[i]) for i in odd_idx]
        if not odd_idx:
            return SplitReport(plus_rank, minus_rank, (), ())
        b = [[a[i][j] % odd_mod[jj] for jj, j in enumerate(odd_idx)]
             for i in odd_idx]
        plus_tors = self._odd_eigen_torsion(b, odd_mod, sign=+1)
        minus_tors = self._odd_eigen_torsion(b, odd_mod, sign=-1)
        return SplitReport(plus_rank, minus_rank, plus_tors, minus_tors)

    @staticmethod
    def _odd_eigen_torsion(b, mods, sign) -> tuple[int, ...]:
        """Invariant factors of T_odd/(1 -+ sigma), the +-1 eigenpiece."""
        t = len(mods)
        rows = []
        for j in range(t):
            row = [0] * t
            row[j] = mods[j]
            rows.append(row)
        for i in range(t):
            row = [(-sign) * b[i][j] for j in range(t)]
            row[i] += 1
            rows.append(row)
        pres = presab.quotient(t, rows)
        if pres.rank:
            raise RuntimeError("eigenpiece of a finite group must be finite")
        return pres.torsion

    def report(self, include_comparison: bool = True) -> dict:
        split = self.invert_two_split()
        out = {
            "ring": self.ring.spec_string(),
            "kind": self.kind.value,
            "n_units": len(self.units),
            "rank": self.rank,
            "torsion": list(self.torsion),
            "minus_one_is_one": self.minus_one_is_one(),
            "split": split.to_json(),
        }
        if include_comparison:
            hopf = self.lattice if self.kind is PresentationKind.HOPF else None
            out["presentation_comparison"] = compare_presentations(
                self.ring, hopf).extra_relations_implied
        return out


def present(ring, kind) -> GwPresentedRing:
    """Quotient Z^{R^x} by the chosen relation lattice."""
    return GwPresentedRing(make_ring(ring), PresentationKind.coerce(kind))


def mul(x: GroupRingVector, y: GroupRingVector) -> GroupRingVector:
    """Group ring product, the bilinear extension of <a><b> = <ab>."""
    return x * y


def class_equal(p: GwPresentedRing, x: GroupRingVector, y: GroupRingVector) -> bool:
    return p.class_equal(x, y)


def torsion_exponent(p: GwPresentedRing, x: GroupRingVector) -> Optional[int]:
    return p.torsion_exponent(x)


def invert_two_split(p: GwPresentedRing) -> SplitReport:
    return p.invert_two_split()


@dataclass(frozen=True)
class ComparisonReport:
    """Does the hopf lattice already contain every reduced-only relation?"""

    ring_spec: str
    extra_relations_implied: bool
    witness: Optional[tuple[int, ...]]
    units: tuple

    def witness_sparse(self) -> Optional[dict]:
        if self.witness is None:
            return None
        return {str(u): c for u, c in zip(self.units, self.witness) if c}

    def to_json(self) -> dict:
        return {
            "ring": self.ring_spec,
            "extra_relations_implied": self.extra_relations_implied,
            "witness": self.witness_sparse(),
        }


def compare_presentations(ring, hopf: Optional[ZLattice] = None) -> ComparisonReport:
    """Check whether each reduced relation row lies in the hopf lattice.

    ``hopf`` is the hopf relation lattice of ``ring`` when the caller has
    already built it.  The hopf lattice is an ideal and <a b^2> - <a> =
    <a>(<b^2> - 1), so every reduced row lies in it exactly when <g^2> - 1
    does for each generator g of R^x.  Only when that test fails are the
    rows scanned in (a, b) order for the first one outside, the witness.
    """
    ring = make_ring(ring)
    units = ring.units()
    index = ring.unit_index_by_coords()
    if hopf is None:
        hopf = relation_lattice(ring, PresentationKind.HOPF)
    one, mul = index[ring.one.coords], ring._mul
    gens = (units[perm[one]].coords for perm in _unit_generators(ring))  # g * 1 = g
    implied = all(hopf.contains(_dense(len(units), _sparse_key(((1, index[mul(g, g)]), (-1, one)))))
                  for g in gens)
    witness = None if implied else _first_outside(hopf, ring)
    return ComparisonReport(ring.spec_string(), implied, witness, tuple(units))


def _first_outside(lattice: ZLattice, ring: Ring) -> Optional[tuple[int, ...]]:
    """First nonzero row <a b^2> - <a>, in (a, b) order, outside the lattice."""
    index, mul = ring.unit_index_by_coords(), ring._mul
    coords = [u.coords for u in ring.units()]
    for i, a in enumerate(coords):
        for b in coords:
            key = _sparse_key(((1, index[mul(mul(a, b), b)]), (-1, i)))
            if key:
                row = _dense(len(coords), key)
                if not lattice.contains(row):
                    return row
    return None
