"""Finitely presented abelian groups over the integers.

A subgroup of Z^n is handled in two forms: as a :class:`ZLattice` kept in
row echelon (Hermite) form for fast membership tests, and through the Smith
normal form of a relation matrix, which exposes the invariant factors of the
quotient Z^n / rowspan(relations).

All arithmetic is exact; matrices are plain lists of Python ints so that
pivot growth during elimination can never overflow.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, lcm
from typing import Collection, Iterable, Optional, Sequence

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


def mat_mul(a: IntMatrix, b: IntMatrix) -> list[list[int]]:
    rows_b = len(b)
    cols_b = len(b[0]) if rows_b else 0
    out = []
    for row in a:
        acc = [0] * cols_b
        for k, av in enumerate(row):
            if av:
                brow = b[k]
                for j in range(cols_b):
                    acc[j] += av * brow[j]
        out.append(acc)
    return out


def mat_vec(v: Sequence[int], m: IntMatrix) -> list[int]:
    """Row vector times matrix."""
    cols = len(m[0]) if m else 0
    out = [0] * cols
    for i, vi in enumerate(v):
        if vi:
            row = m[i]
            for j in range(cols):
                out[j] += vi * row[j]
    return out


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


class ZLattice:
    """Subgroup of Z^n spanned by integer row vectors.

    The basis is kept in echelon form with strictly increasing, positive
    pivots, so membership of a vector reduces to a single elimination pass.
    """

    def __init__(self, n: int, rows: Iterable[Sequence[int]] = ()):
        self.n = n
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []
        for row in rows:
            self.add(row)

    def add(self, vec: Sequence[int]) -> bool:
        """Insert a vector; return True when the lattice grew."""
        if len(vec) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(vec)}")
        v = list(vec)
        grew = False
        while True:
            j = next((k for k, x in enumerate(v) if x), None)
            if j is None:
                return grew
            pos = bisect_left(self._pivots, j)
            if pos == len(self._pivots) or self._pivots[pos] != j:
                if v[j] < 0:
                    v = [-x for x in v]
                self._rows.insert(pos, v)
                self._pivots.insert(pos, j)
                return True
            row = self._rows[pos]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for k in range(j, self.n):
                    v[k] -= q * row[k]
            else:
                g, x, y = xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, self.n):
                    rk, vk = row[k], v[k]
                    row[k] = x * rk + y * vk
                    v[k] = -bg * rk + ag * vk
                grew = True

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(vec)}")
        v = list(vec)
        # v[k] == 0 for every k < lead; elimination at pivot j only changes
        # entries k >= j, so the leading nonzero index only moves right
        lead = 0
        for pos, j in enumerate(self._pivots):
            while lead < j and not v[lead]:
                lead += 1
            if lead < j:
                return False
            if v[j] == 0:
                continue
            row = self._rows[pos]
            if v[j] % row[j]:
                return False
            q = v[j] // row[j]
            for k in range(j, self.n):
                v[k] -= q * row[k]
        return not any(v)

    def basis(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self._rows]

    def rank(self) -> int:
        return len(self._rows)

    def spans_same(self, other: "ZLattice") -> bool:
        if self.n != other.n:
            return False
        return all(other.contains(r) for r in self._rows) and all(
            self.contains(r) for r in other._rows
        )


def contains(relations: IntMatrix, v: Sequence[int]) -> bool:
    """Decide whether v lies in the integer row span of ``relations``."""
    n = len(v)
    lat = ZLattice(n)
    for row in relations:
        if len(row) != n:
            raise ValueError("relation rows and vector must have equal length")
        lat.add(row)
    return lat.contains(v)


def _smith(m: IntMatrix) -> tuple[list[list[int]], list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V, Vinv) with U*M*V = D in Smith normal form."""
    r = len(m)
    n = len(m[0]) if r else 0
    a = [list(row) for row in m]
    u = mat_identity(r)
    v = mat_identity(n)
    vinv = mat_identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def addmul_row(dst, src, q):
        # row[dst] += q * row[src]
        arow, srow = a[dst], a[src]
        for k in range(n):
            arow[k] += q * srow[k]
        urow, usrc = u[dst], u[src]
        for k in range(r):
            urow[k] += q * usrc[k]

    def addmul_col(dst, src, q):
        # col[dst] += q * col[src]; Vinv gets the inverse op on rows
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        vdst, vsrc = vinv[dst], vinv[src]
        for k in range(n):
            vsrc[k] -= q * vdst[k]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

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
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)
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
    return u, a, v, vinv


def smith_normal_form(m: IntMatrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix: U*M*V = D with U, V unimodular.

    The diagonal of D is nonnegative and satisfies d1 | d2 | ... with any
    zero entries at the end.
    """
    u, d, v, _ = _smith(m)
    return u, d, v


def _dot(column: Sequence[int], indices: Sequence[int], values: Iterable[int]) -> int:
    """Entry of v V at one coordinate, v given by values[k] at indices[k]."""
    return sum([c * column[i] for i, c in zip(indices, values)])


@dataclass(frozen=True)
class SnfPresentation:
    """Canonical coordinates for Z^n modulo an integer relation lattice.

    ``rank`` is the free rank, ``torsion`` the invariant factors >= 2 in
    divisibility order.  ``to_canonical`` maps an ambient vector to its class
    (torsion residues followed by free coordinates); ``from_canonical`` is a
    section of it.

    A vector v lies in the relation lattice exactly when y = v V is divisible
    by d_i at each torsion coordinate and zero at each free one; coordinates
    with d_i = 1 carry nothing.  The class readers therefore use only the
    columns of V at the torsion and the free coordinates.
    """

    ambient: int
    rank: int
    torsion: tuple[int, ...]
    _diag: tuple[int, ...]
    _v: tuple[tuple[int, ...], ...]
    _vinv: tuple[tuple[int, ...], ...]
    _torsion_idx: tuple[int, ...]
    _free_idx: tuple[int, ...]
    _torsion_columns: tuple[tuple[int, ...], ...]  # V at _torsion_idx
    _free_columns: tuple[tuple[int, ...], ...]  # V at _free_idx

    @property
    def basis_change(self) -> tuple[tuple[int, ...], ...]:
        """Unimodular V with ambient_vector @ V = canonical coordinates."""
        return self._v

    @property
    def basis_change_inv(self) -> tuple[tuple[int, ...], ...]:
        return self._vinv

    @property
    def diagonal(self) -> tuple[int, ...]:
        """Full diagonal in canonical coordinates (0 marks a free coordinate)."""
        return self._diag

    @property
    def torsion_coords(self) -> tuple[int, ...]:
        return self._torsion_idx

    @property
    def free_coords(self) -> tuple[int, ...]:
        return self._free_idx

    def canonical_vector(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.ambient:
            raise ValueError("vector has wrong ambient dimension")
        return mat_vec(vec, self._v)

    def sparse_order(self, indices: Sequence[int], values: Collection[int]) -> Optional[int]:
        """Additive order of the class of values[k] at indices[k]; None means infinite.

        Indices lie in range(ambient), a repeated index adds its values and
        an absent one is zero; both sequences are read once per column used.
        The free coordinates are read first, and the first nonzero one ends
        the reading.
        """
        for col in self._free_columns:
            if _dot(col, indices, values):
                return None
        order = 1
        for col, d in zip(self._torsion_columns, self.torsion):
            order = lcm(order, d // gcd(d, _dot(col, indices, values)))
        return order

    def _support(self, vec: Sequence[int]) -> tuple[list[int], list[int]]:
        if len(vec) != self.ambient:
            raise ValueError("vector has wrong ambient dimension")
        indices = [i for i, c in enumerate(vec) if c]
        return indices, [vec[i] for i in indices]

    def to_canonical(self, vec: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        indices, values = self._support(vec)
        tor = tuple(_dot(col, indices, values) % d
                    for col, d in zip(self._torsion_columns, self.torsion))
        return tor, tuple(_dot(col, indices, values) for col in self._free_columns)

    def from_canonical(self, cls: tuple[Sequence[int], Sequence[int]]) -> list[int]:
        tor, free = cls
        if len(tor) != len(self._torsion_idx) or len(free) != len(self._free_idx):
            raise ValueError("canonical class has wrong shape")
        y = [0] * self.ambient
        for val, i in zip(tor, self._torsion_idx):
            y[i] = val
        for val, i in zip(free, self._free_idx):
            y[i] = val
        return mat_vec(y, self._vinv)

    def class_is_zero(self, vec: Sequence[int]) -> bool:
        return self.sparse_order(*self._support(vec)) == 1

    def element_order(self, vec: Sequence[int]) -> Optional[int]:
        """Additive order of the class of ``vec``; None means infinite."""
        return self.sparse_order(*self._support(vec))


def _presentation(n: int, diag: Sequence[int], v: IntMatrix, vinv: IntMatrix) -> SnfPresentation:
    torsion_idx = tuple(i for i, x in enumerate(diag) if x >= 2)
    free_idx = tuple(i for i, x in enumerate(diag) if x == 0)
    return SnfPresentation(
        ambient=n,
        rank=len(free_idx),
        torsion=tuple(diag[i] for i in torsion_idx),
        _diag=tuple(diag),
        _v=tuple(tuple(row) for row in v),
        _vinv=tuple(tuple(row) for row in vinv),
        _torsion_idx=torsion_idx,
        _free_idx=free_idx,
        _torsion_columns=tuple(tuple(row[j] for row in v) for j in torsion_idx),
        _free_columns=tuple(tuple(row[j] for row in v) for j in free_idx),
    )


def quotient(ambient_rank: int, relations: IntMatrix) -> SnfPresentation:
    """Present Z^ambient_rank modulo the row span of ``relations``."""
    lat = ZLattice(ambient_rank)
    for row in relations:
        if len(row) != ambient_rank:
            raise ValueError("relation rows must have ambient_rank entries")
        lat.add(row)
    basis = lat.basis()
    n = ambient_rank
    if not basis:
        ident = mat_identity(n)
        return _presentation(n, [0] * n, ident, ident)
    _, d, v, vinv = _smith(basis)
    diag = [0] * n
    for i in range(min(len(basis), n)):
        diag[i] = d[i][i]
    return _presentation(n, diag, v, vinv)


def element_order(pres: SnfPresentation, vec: Sequence[int]) -> Optional[int]:
    return pres.element_order(vec)
