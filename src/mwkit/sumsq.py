"""Unit sums of squares in a finite ring, by monotone fixpoint.

A unit is a sum of squares of exponent 0 when it is the square of a unit,
and of exponent n >= 1 when it is b + c for units b, c of exponent at most
n - 1.  Over a finite ring the strata stabilize after at most |R^x| rounds,
so a breadth-first fixpoint computes the minimal exponent of every
reachable unit.  Nothing is special-cased: rings where the search dies out
(for example Z/2^k with k >= 2, where unit + unit is never a unit) simply
report those units as unreachable.
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

    The fixpoint runs on unit indices and coordinates; the result's dicts
    are keyed by elements of ``units()``, each entered when first reached.
    """
    ring = make_ring(ring)
    units = ring.units()
    index = ring.unit_index_by_coords()
    add, mul = ring._add, ring._mul
    coords = [u.coords for u in units]
    exponent: dict = {}  # unit index -> exponent, in the order reached
    witnesses: dict = {}  # unit index -> (index of b, index of c)
    for c in coords:
        exponent.setdefault(index[mul(c, c)], 0)

    rounds = 0
    while len(exponent) < len(units):
        reached = [(k, c) for k, c in enumerate(coords) if k in exponent]
        grew = False
        for i, (j, b) in enumerate(reached):
            # b + c = c + b, so the pairs with c before b were scanned already
            for k, c in reached[i:]:
                s = index.get(add(b, c))
                if s is None or s in exponent:
                    continue
                # reached lists the units of exponent at most rounds in unit
                # order, so the first pair found is the lexicographically
                # least one that certifies the exponent rounds + 1 of s
                exponent[s] = rounds + 1
                witnesses[s] = (j, k)
                grew = True
        if not grew:
            break
        rounds += 1

    unreachable = frozenset(u for k, u in enumerate(units) if k not in exponent)
    return SumSquareResult(ring, {units[k]: n for k, n in exponent.items()},
                           {units[s]: (units[j], units[k]) for s, (j, k) in witnesses.items()},
                           unreachable, rounds)


def minus_one_exponent(ring) -> Optional[int]:
    """Minimal sum-of-squares exponent of -1, or None when unreachable."""
    ring = make_ring(ring)
    return unit_square_closure(ring).exponent(ring.minus_one())
