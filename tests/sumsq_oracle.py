"""Reference sum-of-squares fixpoint by pair scan, kept for tests only.

``oracle_unit_square_closure`` is the fixpoint that ``mwkit.sumsq``
replaced with one on the square-class table: it squares every unit with
the ring product and, each round, sums every pair of reached units, on
unit indices and coordinates.  It is quadratic in the number of units per
round, so the tests run it on small rings.
"""

from mwkit.finring import make_ring
from mwkit.sumsq import SumSquareResult


def oracle_unit_square_closure(ring) -> SumSquareResult:
    """Least fixpoint of S0 = unit squares, S_{k+1} = S_k + {b+c in R^x}."""
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
