"""Unit sums of squares in a finite ring, by monotone fixpoint.

A unit is a sum of squares of exponent 0 when it is the square of a unit,
and of exponent n >= 1 when it is b + c for units b, c of exponent at most
n - 1.  Each stratum is a union of square classes, so over a finite ring
the strata stabilize after at most C = |R^x / (R^x)^2| rounds, and a
breadth-first fixpoint on the classes computes the minimal exponent of
every reachable unit.  Nothing is special-cased: rings where the search
dies out (for example Z/2^k with k >= 2, where unit + unit is never a
unit) simply report those units as unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .finring import Ring, RingElement, make_ring


@dataclass(frozen=True)
class SumSquareResult:
    ring: Ring
    exponent_of: dict  # unit -> minimal exponent
    witnesses: dict  # unit -> (b, c) for exponent >= 1, lexicographically least
    unreachable: frozenset
    rounds: int

    def exponent(self, u: RingElement) -> Optional[int]:
        return self.exponent_of.get(u)

    def to_json(self) -> dict:
        minus_one = self.ring.minus_one()
        exp = self.exponent_of.get(minus_one)
        return {
            "ring": self.ring.spec_string(),
            "minus_one_exponent": exp,
            "exponents": {str(u): self.exponent_of[u]
                          for u in self.ring.units() if u in self.exponent_of},
            "witnesses": {str(u): [str(b), str(c)]
                          for u, (b, c) in sorted(self.witnesses.items(),
                                                  key=lambda t: str(t[0]))},
            "unreachable": sorted(str(u) for u in self.unreachable),
        }


def unit_square_closure(ring) -> SumSquareResult:
    """Least fixpoint of S0 = unit squares, S_{k+1} = S_k + {b+c in R^x}.

    Let E_n be the units of exponent at most n.  For a unit square t,
    t(b + c) = tb + tc, so each E_n is a union of square classes, and the
    fixpoint runs on the classes.  x + y = x(1 + y/x), and each class is
    its own inverse, so the classes that K_a + K_b reaches are a D[ab], for
    D of ``Ring.unit_sum_classes``.  Classes are numbered by their F_2
    coordinates (``Ring.square_classes``), so those are the a ^ d for d in
    D[a ^ b]: no sum and no product of units.  A unit s of exponent n then
    gets as witness the first b of E_{n-1}, in unit order, such that
    c = s - b lies in E_{n-1} no earlier than b: the pair that a scan of
    all pairs b <= c of E_{n-1} meets first, and so the lexicographically
    least (b + c = c + b).  Round 0 enters the squares in the order the units
    square to them, and each later round enters its units in the order of
    their witnesses, as that scan would.  The result's dicts are keyed by
    elements of ``units()``.
    """
    ring = make_ring(ring)
    units = ring.units()
    index = ring.unit_index_by_coords()
    add, neg = ring._add, ring._neg
    coords = list(index)
    classes, count = ring.square_classes()
    members: list = [[] for _ in range(count)]  # class -> its units, in unit order
    for i, c in enumerate(classes):
        members[c].append(i)
    exponent: dict = {}  # unit index -> exponent, in the order reached
    witnesses: dict = {}  # unit index -> (index of b, index of c)
    squares = ring.unit_square_map()
    for s in squares:
        exponent.setdefault(s, 0)

    in_e = [False] * count  # class -> its units are in E_rounds
    new = [classes[squares[0]]]
    reached: list = []
    sums: set = set()  # the classes of sums of two units of reached classes
    rounds = 0
    while len(exponent) < len(units):
        # K_b + K_a = K_a + K_b, so the pairs with a new and b reached are
        # the ones not summed yet
        unit_sums = ring.unit_sum_classes()  # cached; unused when every unit is a square
        reached += new
        for a in new:
            in_e[a] = True
            for b in reached:
                sums.update(a ^ d for d in unit_sums[a ^ b])
        new = [c for c in sums if not in_e[c]]
        if not new:
            break
        candidates = [(i, neg(coords[i])) for i, c in enumerate(classes) if in_e[c]]
        found = []
        for c in new:
            for s in members[c]:
                sc = coords[s]
                for b, minus_b in candidates:  # E_rounds in unit order
                    k = index.get(add(sc, minus_b))
                    if k is not None and k >= b and in_e[classes[k]]:
                        found.append((b, k, s))
                        break
        found.sort()
        for b, k, s in found:
            exponent[s] = rounds + 1
            witnesses[s] = (b, k)
        rounds += 1

    unreachable = frozenset(u for k, u in enumerate(units) if k not in exponent)
    return SumSquareResult(ring, {units[k]: n for k, n in exponent.items()},
                           {units[s]: (units[j], units[k]) for s, (j, k) in witnesses.items()},
                           unreachable, rounds)


def minus_one_exponent(ring) -> Optional[int]:
    """Minimal sum-of-squares exponent of -1, or None when unreachable."""
    ring = make_ring(ring)
    return unit_square_closure(ring).exponent(ring.minus_one())
