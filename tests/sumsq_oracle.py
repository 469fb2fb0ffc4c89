"""Reference sum-of-squares fixpoint on ring elements, kept for tests only.

``oracle_unit_square_closure`` is the fixpoint that ``mwkit.sumsq``
replaced with one on unit indices and coordinates: every square and every
pair sum is a ``RingElement``.  It is quadratic in the number of units per
round, so the tests run it on small rings.
"""

from mwkit.finring import make_ring
from mwkit.sumsq import SumSquareResult


def oracle_unit_square_closure(ring) -> SumSquareResult:
    """Least fixpoint of S0 = unit squares, S_{k+1} = S_k + {b+c in R^x}."""
    ring = make_ring(ring)
    units = ring.units()
    exponent: dict = {}
    witnesses: dict = {}
    for u in units:
        sq = u * u
        if sq not in exponent:
            exponent[sq] = 0

    rounds = 0
    index = ring.unit_index_by_coords()
    while len(exponent) < len(units):
        reached = [u for u in units if u in exponent]
        grew = False
        for i, b in enumerate(reached):
            for c in reached[i:]:
                s = b + c
                if s in exponent or s.coords not in index:
                    continue
                exponent[s] = rounds + 1
                witnesses[s] = (b, c)
                grew = True
        if not grew:
            break
        rounds += 1

    unreachable = frozenset(u for u in units if u not in exponent)
    return SumSquareResult(ring, exponent, witnesses, unreachable, rounds)
