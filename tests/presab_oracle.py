"""Dense paths that ``mwkit.presab`` replaced, kept for tests only.

``EchelonLattice`` is the dense echelon lattice that ``ZLattice``
replaced.  It stores every basis row as a dense list and never reduces the
entries above its pivots, so its basis depends on the order of insertion
and its entries grow without bound; the lattice it spans, its growth
answers and its membership answers are those of ``ZLattice``.  The class
is the earlier ``ZLattice`` unchanged but for its name.

``oracle_smith`` is the Smith form ``mwkit.presab._smith`` computed while
it still kept U and V^-1 beside D and V: it returns (U, D, V, V^-1) with
U M V = D.  ``mwkit.presab._smith`` makes the same pivot choices and
column operations and returns its D and V, so the tests check U M V = D
and V V^-1 = 1 here and compare the two routines' D and V.

``oracle_quotient`` is the presentation ``mwkit.presab.quotient`` built
before it eliminated the unit pivots: the Smith form of the whole reduced
Hermite basis by ``oracle_smith``, V and V^-1 kept as n x n matrices,
every reader a full product with them, and the n x n matrix of a
permutation's action.  Its canonical coordinates are those of its own
Smith basis, so only basis-free answers (ranks, invariant factors, orders,
which vectors share a class) can be compared with ``quotient``'s.

``mat_mul``, ``mat_vec`` and ``det`` are the dense matrix helpers that
no code under ``mwkit`` calls any more; the tests use them to check
Smith forms.
"""

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from mwkit.presab import IntMatrix, ZLattice, mat_identity, xgcd


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


def oracle_smith(m: IntMatrix) -> tuple[list[list[int]], list[list[int]], list[list[int]], list[list[int]]]:
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


@dataclass(frozen=True)
class DensePresentation:
    """Z^n modulo a lattice in the coordinates y = v V of one Smith form U B V = D."""

    ambient: int
    rank: int
    torsion: tuple[int, ...]
    diagonal: tuple[int, ...]  # full diagonal in canonical coordinates, 0 marks a free one
    basis_change: tuple[tuple[int, ...], ...]  # V
    basis_change_inv: tuple[tuple[int, ...], ...]  # V^-1
    torsion_coords: tuple[int, ...]
    free_coords: tuple[int, ...]

    def canonical_vector(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.ambient:
            raise ValueError("vector has wrong ambient dimension")
        return mat_vec(vec, self.basis_change)

    def to_canonical(self, vec: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        y = self.canonical_vector(vec)
        return (tuple(y[i] % self.diagonal[i] for i in self.torsion_coords),
                tuple(y[i] for i in self.free_coords))

    def from_canonical(self, cls: tuple[Sequence[int], Sequence[int]]) -> list[int]:
        tor, free = cls
        y = [0] * self.ambient
        for val, i in zip(tor, self.torsion_coords):
            y[i] = val
        for val, i in zip(free, self.free_coords):
            y[i] = val
        return mat_vec(y, self.basis_change_inv)

    def element_order(self, vec: Sequence[int]) -> Optional[int]:
        y = self.canonical_vector(vec)
        if any(y[i] for i in self.free_coords):
            return None
        order = 1
        for i in self.torsion_coords:
            d = self.diagonal[i]
            order = lcm(order, d // gcd(d, y[i]))
        return order

    def class_is_zero(self, vec: Sequence[int]) -> bool:
        return self.element_order(vec) == 1

    def action_matrix(self, perm: Sequence[int]) -> list[list[int]]:
        """V^-1 S V, S the matrix of e_k -> e_perm[k], on all n canonical coordinates."""
        n = self.ambient
        s = [[0] * n for _ in range(n)]
        for k in range(n):
            s[k][perm[k]] = 1
        return mat_mul(mat_mul([list(r) for r in self.basis_change_inv], s),
                       [list(r) for r in self.basis_change])


def oracle_quotient(ambient_rank: int, relations: IntMatrix) -> DensePresentation:
    """Present Z^ambient_rank modulo the row span of ``relations`` by the dense route."""
    n = ambient_rank
    basis = ZLattice(n, relations).basis()
    if basis:
        _, d, v, vinv = oracle_smith(basis)
    else:
        d, v, vinv = [], mat_identity(n), mat_identity(n)
    diag = [d[i][i] if i < len(d) else 0 for i in range(n)]
    torsion_coords = tuple(i for i, x in enumerate(diag) if x >= 2)
    free_coords = tuple(i for i, x in enumerate(diag) if x == 0)
    return DensePresentation(
        ambient=n,
        rank=len(free_coords),
        torsion=tuple(diag[i] for i in torsion_coords),
        diagonal=tuple(diag),
        basis_change=tuple(tuple(row) for row in v),
        basis_change_inv=tuple(tuple(row) for row in vinv),
        torsion_coords=torsion_coords,
        free_coords=free_coords,
    )


class EchelonLattice:
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

    def spans_same(self, other: "EchelonLattice") -> bool:
        if self.n != other.n:
            return False
        return all(other.contains(r) for r in self._rows) and all(
            self.contains(r) for r in other._rows
        )
