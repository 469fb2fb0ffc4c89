"""The dense echelon lattice that ``mwkit.presab.ZLattice`` replaced, kept for tests only.

It stores every basis row as a dense list and never reduces the entries
above its pivots, so its basis depends on the order of insertion and its
entries grow without bound; the lattice it spans, its growth answers and
its membership answers are those of ``ZLattice``.  The class is the
earlier ``ZLattice`` unchanged but for its name.
"""

from bisect import bisect_left
from typing import Iterable, Sequence

from mwkit.presab import xgcd


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
