"""Finitely presented abelian groups over the integers.

A subgroup of Z^n is kept as a :class:`ZLattice` in reduced Hermite normal
form, for fast membership tests.  :meth:`ZLattice.quotient` presents Z^n
modulo it: the pivot-1 rows of that basis are eliminated first, and the
Smith normal form D = U C V of the small block C that remains gives the
invariant factors, and its column transform V the canonical coordinates
of the quotient.  Only D and V are computed; no reader needs U or V^-1.
:meth:`SnfPresentation.class_order` is the one reader of the order of a
class in those coordinates.

All arithmetic is exact; matrices are plain lists of Python ints so that
pivot growth during elimination can never overflow.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import index, itemgetter, mul
from typing import Iterable, Optional, Sequence

IntMatrix = Sequence[Sequence[int]]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class ZLattice:
    """Subgroup of Z^n spanned by integer row vectors.

    The basis is kept in reduced Hermite normal form: one row per pivot
    column, pivots strictly increasing and positive, zeros left of each
    pivot, and every entry above a pivot d in [0, d).  That basis is unique:
    it depends only on the lattice, not on the rows inserted or their order.
    Each row is a dict of its nonzero entries, so an elimination step
    touches only the support of the pivot row.
    """

    def __init__(self, n: int, rows: Iterable[Sequence[int]] = ()):
        self.n = n
        self._rows: dict[int, dict[int, int]] = {}  # pivot column -> row
        for row in rows:
            self.add(row)

    def _sparse(self, vec: Sequence[int]) -> dict[int, int]:
        if len(vec) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(vec)}")
        # compress finds the nonzero entries in C; most rows are mostly zero
        return {k: index(vec[k]) for k in compress(range(self.n), vec)}

    def add(self, vec: Sequence[int]) -> bool:
        """Insert a vector; return True when the lattice grew."""
        return self._insert(self._sparse(vec))

    def _insert(self, v: dict[int, int]) -> bool:
        """Insert the sparse vector ``v``; return True when the lattice grew.

        ``v`` maps columns in range(n) to nonzero ints, as ``_sparse``
        returns them; the lattice takes the dict over and may keep it as a
        basis row, so the caller passes one that no one else holds.
        """
        rows = self._rows
        grew = False
        while v:
            j = min(v)
            row = rows.get(j)
            if row is None:
                if v[j] < 0:
                    v = {k: -x for k, x in v.items()}
                rows[j] = v
                self._restore(j)
                return True
            a, b = row[j], v[j]
            if b % a == 0:
                _addmul(v, row, -(b // a))
                continue
            # replace the pivot row by x row + y v, whose pivot is gcd(a, b),
            # and go on with the combination that clears column j
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            shrunk, rest = {}, {}
            for k in row.keys() | v.keys():
                rk, vk = row.get(k, 0), v.get(k, 0)
                t = x * rk + y * vk
                if t:
                    shrunk[k] = t
                t = ag * vk - bg * rk
                if t:
                    rest[k] = t
            rows[j] = shrunk
            self._restore(j)
            v = rest
            grew = True
        return grew

    def _restore(self, j: int) -> None:
        """Make the basis reduced again after the row at pivot j changed.

        That row is reduced against the later pivots; then each earlier row
        with an entry outside [0, d) at column j is reduced there, and at
        every later pivot column the subtraction reaches.
        """
        rows = self._rows
        row = rows[j]
        self._reduce(row, [k for k in row if k > j and k in rows])
        d = row[j]
        later = [k for k in row if k > j and k in rows]
        for p, above in rows.items():
            x = above.get(j)
            if p < j and x is not None and not 0 < x < d:
                _addmul(above, row, -(x // d))
                self._reduce(above, later)

    def _reduce(self, row: dict[int, int], cols: Iterable[int]) -> None:
        """Bring the entries of ``row`` at the pivot columns ``cols`` into [0, pivot).

        Columns are taken in increasing order; subtracting the row of pivot
        p changes entries right of p only, so a later pivot column that the
        subtraction reaches is queued and reduced in its turn.
        """
        rows = self._rows
        pending = sorted(cols)
        i, last = 0, -1
        while i < len(pending):
            p = pending[i]
            i += 1
            if p == last:
                continue
            last = p
            x = row.get(p)
            pivot_row = rows[p]
            d = pivot_row[p]
            if x is None or 0 < x < d:
                continue
            q = x // d
            for k, s in pivot_row.items():
                t = row.get(k, 0) - q * s
                if t:
                    row[k] = t
                else:
                    del row[k]
                if k != p and k in rows:
                    insort(pending, k, i)

    def contains(self, vec: Sequence[int]) -> bool:
        v = self._sparse(vec)
        rows = self._rows
        while v:
            j = min(v)
            row = rows.get(j)
            if row is None:
                return False
            q, r = divmod(v[j], row[j])
            if r:
                return False
            _addmul(v, row, -q)
        return True

    def basis(self) -> list[tuple[int, ...]]:
        """The reduced Hermite basis as dense rows, by increasing pivot."""
        out = []
        for p in sorted(self._rows):
            dense = [0] * self.n
            for k, x in self._rows[p].items():
                dense[k] = x
            out.append(tuple(dense))
        return out

    def quotient(self) -> "SnfPresentation":
        """Present Z^n modulo this lattice.

        In the reduced Hermite basis a row of pivot 1 at column p is
        e_p + r_p, r_p zero at every pivot-1 column, and no other row has an
        entry at p; a row of pivot d >= 2 is zero at every pivot-1 column.  So
        the quotient is Z^K / C, K the other columns and C the rows of pivot
        >= 2 on K, through the projection e_p -> -r_p, e_k -> e_k for k in K.
        The Smith form runs on C only (eliminating the unit pivots first, as in
        Dumas, Saunders and Villard, JSC 2001); with U C V = D, kept coordinate
        i projects by column i of V after that projection.
        """
        n, rows = self.n, self._rows
        unit_pivots = [p for p in sorted(rows) if rows[p][p] == 1]
        cols = sorted(set(range(n)).difference(unit_pivots))  # K
        core = [[rows[p].get(k, 0) for k in cols] for p in sorted(rows) if rows[p][p] > 1]
        # a zero row when C is empty: its Smith form is the identity on K
        d, v = _smith(core or [[0] * len(cols)])
        diag = [d[i][i] if i < len(d) else 0 for i in range(len(cols))]
        kept = [i for i, x in enumerate(diag) if x >= 2] + [i for i, x in enumerate(diag) if x == 0]
        projections = []
        for i in kept:
            proj = [0] * n
            for k, v_row in zip(cols, v):
                proj[k] = v_row[i]
            for p in unit_pivots:
                proj[p] = -sum([x * proj[k] for k, x in rows[p].items() if k != p])
            projections.append(tuple(proj))
        return SnfPresentation(
            ambient=n,
            rank=diag.count(0),
            torsion=tuple(diag[i] for i in kept if diag[i]),
            _projections=tuple(projections),
        )

    def rank(self) -> int:
        return len(self._rows)

    def spans_same(self, other: "ZLattice") -> bool:
        # the reduced Hermite basis is unique, so equal lattices store equal rows
        return self.n == other.n and self._rows == other._rows


def _addmul(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src on sparse rows, q nonzero; zeroed entries are dropped."""
    for k, s in src.items():
        t = dst.get(k, 0) + q * s
        if t:
            dst[k] = t
        else:
            del dst[k]


def _smith(m: IntMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Return (D, V), D = U*M*V in Smith normal form for some unimodular U.

    The diagonal of D is nonnegative and satisfies d1 | d2 | ... with any
    zero entries at the end.  U is not built: row operations act on M only,
    column operations on M and V.
    """
    r = len(m)
    n = len(m[0]) if r else 0
    a = [list(row) for row in m]
    v = mat_identity(n)

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        # row[dst] += q * row[src]
        arow, srow = a[dst], a[src]
        for k in range(n):
            arow[k] += q * srow[k]

    def addmul_col(dst, src, q):
        # col[dst] += q * col[src]
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    limit = min(r, n)
    while t < limit:
        # minimal absolute nonzero entry of the trailing block becomes the pivot
        best = None
        for i in range(t, r):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        d = a[t][t]
        dirty = False
        for i in range(t + 1, r):
            if a[i][t]:
                q = a[i][t] // d
                addmul_row(i, t, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // d
                addmul_col(j, t, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce the divisibility chain before moving on
        offender = None
        for i in range(t + 1, r):
            row = a[i]
            for j in range(t + 1, n):
                if row[j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(t, offender, 1)
            continue
        t += 1
    return a, v


@dataclass(frozen=True)
class SnfPresentation:
    """Canonical coordinates for Z^n modulo an integer relation lattice.

    ``rank`` is the free rank, ``torsion`` the invariant factors >= 2 in
    divisibility order.  The canonical coordinates are numbered torsion
    first, then free.  ``to_canonical`` maps an ambient vector to its class
    (torsion residues, then free coordinates).

    Only the kept coordinates are stored, each as a projection: a length-n
    vector whose dot product with v is that coordinate of v's class, before
    the torsion residue is taken.  A vector lies in the relation lattice
    exactly when each torsion projection is divisible by its invariant
    factor and each free projection is zero.

    :meth:`class_order` is the one reader of a class's order: it takes a
    sparse vector, read through a map of its keys to coordinates.
    ``element_order`` and ``class_is_zero`` pass it a dense length-n vector
    through the identity map, and ``GwPresentedRing.class_equal`` and
    ``torsion_exponent`` pass it group-ring vectors through the unit
    classes.  ``to_canonical`` dots each projection with all of a dense
    vector.
    """

    ambient: int
    rank: int
    torsion: tuple[int, ...]
    _projections: tuple[tuple[int, ...], ...]

    @cached_property
    def _columns(self) -> tuple[tuple, tuple]:
        """(free projections, (torsion projection, invariant factor) pairs).

        Split on first read and kept beside the fields, not among them, so
        that no class query slices or zips the projections again.
        """
        t = len(self.torsion)
        return self._projections[t:], tuple(zip(self._projections[:t], self.torsion))

    def _check(self, vec: Sequence[int]) -> None:
        if len(vec) != self.ambient:
            raise ValueError("vector has wrong ambient dimension")

    def to_canonical(self, vec: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        self._check(vec)
        free, torsion = self._columns
        return (tuple(sum(map(mul, col, vec)) % d for col, d in torsion),
                tuple(sum(map(mul, col, vec)) for col in free))

    def class_is_zero(self, vec: Sequence[int]) -> bool:
        return self.element_order(vec) == 1

    def element_order(self, vec: Sequence[int]) -> Optional[int]:
        """Additive order of the class of ``vec``, a length-``ambient`` list; None means infinite."""
        self._check(vec)
        identity = range(self.ambient)
        return self.class_order(identity, identity, vec)

    def class_order(self, coordinate: Sequence[int], keys: Sequence[int], vals: Sequence[int],
                    keys2: Sequence[int] = (), vals2: Sequence[int] = ()) -> Optional[int]:
        """Additive order of the class of the sparse vector x - y; None means infinite.

        x is sum vals[i] e_{coordinate[keys[i]]} and y is
        sum vals2[i] e_{coordinate[keys2[i]]}: key k is read through
        coordinate ``coordinate[k]`` of Z^ambient, and a coordinate may be
        met more than once.  Every order of a class is read here.

        x is summed with += and y with -= into the coordinates.  When the
        keys number at least ``ambient``, the sum goes into a dense list of
        ``ambient`` entries and each projection is dotted with all of it;
        otherwise it goes into a dict of the coordinates met and each
        projection is read at those coordinates only, by one ``itemgetter``.
        Either dot runs in C, and costs no more steps than there are keys.
        The free projections are read first, and the first nonzero one ends
        the reading; then the (torsion projection, invariant factor) pairs
        give the order.
        """
        dense = self.ambient <= len(keys) + len(keys2)
        acc = [0] * self.ambient if dense else defaultdict(int)
        # a running index into the coefficients costs less per query than
        # a zip of the two sequences
        i = 0
        for k in keys:
            acc[coordinate[k]] += vals[i]
            i += 1
        i = 0
        for k in keys2:
            acc[coordinate[k]] -= vals2[i]
            i += 1
        free, torsion = self._columns
        if dense:
            for col in free:
                if sum(map(mul, col, acc)):
                    return None
            order = 1
            for col, d in torsion:
                order = lcm(order, d // gcd(d, sum(map(mul, col, acc))))
            return order
        coords, vals = tuple(acc), tuple(acc.values())
        if len(coords) < 2:  # itemgetter of one coordinate returns a bare entry
            coords, vals = coords + (0, 0), vals + (0, 0)
        read = itemgetter(*coords)
        for col in free:
            if sum(map(mul, read(col), vals)):
                return None
        order = 1
        for col, d in torsion:
            order = lcm(order, d // gcd(d, sum(map(mul, read(col), vals))))
        return order

def quotient(ambient_rank: int, relations: IntMatrix) -> SnfPresentation:
    """Present Z^ambient_rank modulo the row span of ``relations``.

    The rows go into one :class:`ZLattice`, whose :meth:`ZLattice.quotient`
    is returned.
    """
    lat = ZLattice(ambient_rank)
    for row in relations:
        if len(row) != ambient_rank:
            raise ValueError("relation rows must have ambient_rank entries")
        lat.add(row)
    return lat.quotient()
