"""The ring arithmetic that the coordinate kernels replaced, kept as an oracle.

* ``schoolbook_mul``: the Galois product as ``_poly_mul`` then
  ``_poly_rem_monic`` on coefficient tuples, before Kronecker substitution.
  The oracle owns ``_poly_mul``, the schoolbook product of two coefficient
  tuples; ``mwkit`` has no use for it.
* Element-wise product arithmetic: a product element is taken apart into
  factor elements, every factor operation builds a factor element, and the
  result is put together from their coordinates, as when product
  coordinates were tuples of factor elements.  Galois factors multiply by
  ``schoolbook_mul`` and nested products recurse, so no result here comes
  from the kernels under test; ``Z/m`` keeps its one modular operation.

* Unit tables by ring products on every unit: ``unit_coords`` keeps the
  units of the whole element enumeration, and ``square_map`` squares each
  unit with the ring product, as the rings did before they built these
  tables from their structure.  ``square_classes`` numbers the classes by
  their F_2 coordinates by brute force: a unit u is of class m when u
  times a unit of class m is a square, tried for every m numbered so far.
  ``unit_sum_classes`` adds one to every unit with the element-wise sum
  above.

* The residue map of a Galois ring: ``residue_field`` builds GF(p^k) on
  the modulus reduced mod p (a ``GaloisField`` is its own), ``residue``
  reduces an element's coefficients mod p, and ``gen`` is the class of x.
  mwkit reads none of them.

Every other function takes and returns ``RingElement`` values, except
``schoolbook_mul``, which works on coordinates.
"""

from __future__ import annotations

import itertools

from mwkit.finring import (
    GaloisField,
    GaloisRing,
    ProductRing,
    RingElement,
    _digits,
    _poly_rem_monic,
    _poly_str,
    _poly_trim,
)


def _poly_mul(a, b, m):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim([v % m for v in out])


def schoolbook_mul(ring: GaloisRing, a, b):
    prod = _poly_mul(_poly_trim(list(a)), _poly_trim(list(b)), ring.q)
    return ring._pad(_poly_rem_monic(prod, ring.modulus, ring.q))


def factor_elements(x: RingElement) -> list[RingElement]:
    return [RingElement(f, c) for f, c in zip(x.ring.factors, x.coords)]


def _assemble(ring: ProductRing, parts) -> RingElement:
    return RingElement(ring, tuple(p.coords for p in parts))


def add(x: RingElement, y: RingElement) -> RingElement:
    ring = x.ring
    if isinstance(ring, ProductRing):
        return _assemble(ring, map(add, factor_elements(x), factor_elements(y)))
    if isinstance(ring, GaloisRing):
        return RingElement(ring, tuple((a + b) % ring.q for a, b in zip(x.coords, y.coords)))
    return RingElement(ring, (x.coords + y.coords) % ring.m)


def neg(x: RingElement) -> RingElement:
    ring = x.ring
    if isinstance(ring, ProductRing):
        return _assemble(ring, map(neg, factor_elements(x)))
    if isinstance(ring, GaloisRing):
        return RingElement(ring, tuple((-a) % ring.q for a in x.coords))
    return RingElement(ring, (-x.coords) % ring.m)


def mul(x: RingElement, y: RingElement) -> RingElement:
    ring = x.ring
    if isinstance(ring, ProductRing):
        return _assemble(ring, map(mul, factor_elements(x), factor_elements(y)))
    if isinstance(ring, GaloisRing):
        return RingElement(ring, schoolbook_mul(ring, x.coords, y.coords))
    return RingElement(ring, x.coords * y.coords % ring.m)


def zero(ring) -> RingElement:
    if isinstance(ring, ProductRing):
        return _assemble(ring, map(zero, ring.factors))
    if isinstance(ring, GaloisRing):
        return RingElement(ring, (0,) * ring.k)
    return RingElement(ring, 0)


def one(ring) -> RingElement:
    if isinstance(ring, ProductRing):
        return _assemble(ring, map(one, ring.factors))
    if isinstance(ring, GaloisRing):
        return RingElement(ring, (1,) + (0,) * (ring.k - 1))
    return RingElement(ring, 1 % ring.m)


def from_int(ring, n: int) -> RingElement:
    """n times the identity, by double-and-add on n mod the characteristic."""
    if isinstance(ring, ProductRing):
        return _assemble(ring, (from_int(f, n) for f in ring.factors))
    n %= ring.characteristic()
    out, step = zero(ring), one(ring)
    while n:
        if n & 1:
            out = add(out, step)
        step = add(step, step)
        n >>= 1
    return out


def elements(ring) -> list[RingElement]:
    """Every element in enumeration order: base-q digit order, first factor fastest."""
    if isinstance(ring, ProductRing):
        columns = [elements(f) for f in reversed(ring.factors)]
        return [_assemble(ring, t[::-1]) for t in itertools.product(*columns)]
    if isinstance(ring, GaloisRing):
        return [RingElement(ring, _digits(i, ring.q, ring.k)) for i in range(ring.card)]
    return [RingElement(ring, i) for i in range(ring.m)]


def format_element(x: RingElement) -> str:
    ring = x.ring
    if isinstance(ring, ProductRing):
        return "(" + ",".join(format_element(f) for f in factor_elements(x)) + ")"
    if isinstance(ring, GaloisRing):
        return _poly_str(x.coords)
    return str(x.coords)


def unit_coords(ring) -> list:
    """The coordinates of the units, by enumerating every element and keeping the units."""
    return [c for c in ring._enumerate_coords() if ring._is_unit(c)]


def square_map(ring) -> list[int]:
    """Position in unit_coords of the square of each unit, one product each."""
    coords = unit_coords(ring)
    index = {c: i for i, c in enumerate(coords)}
    return [index[ring._mul(c, c)] for c in coords]


def square_classes(ring) -> tuple[list[int], int]:
    """(classes, C) with the C classes numbered by their F_2 coordinates.

    rep[m] is a unit of class m.  Every class is its own inverse, so u is of
    class m exactly when u rep[m] is a square.  A unit of no class so far
    is the next basis vector g, of number C, and the classes m + C, for
    m < C, are the classes of g rep[m].
    """
    coords = unit_coords(ring)
    squares = {ring._mul(c, c) for c in coords}
    rep = [ring._one_coords()]
    classes = []
    for c in coords:
        m = next((m for m, r in enumerate(rep) if ring._mul(c, r) in squares), None)
        if m is None:
            m = len(rep)
            rep += [ring._mul(c, r) for r in rep]
        classes.append(m)
    return classes, len(rep)


def unit_sum_classes(ring) -> list[list[int]]:
    """D[t]: the classes of the units 1 + u, for u of class t, each once, in the order of its first u."""
    coords = unit_coords(ring)
    index = {c: i for i, c in enumerate(coords)}
    classes, count = square_classes(ring)
    sums: list = [[] for _ in range(count)]
    for i, c in enumerate(coords):
        k = index.get(add(one(ring), RingElement(ring, c)).coords)
        if k is not None and classes[k] not in sums[classes[i]]:
            sums[classes[i]].append(classes[k])
    return sums


def residue_field(ring: GaloisRing) -> GaloisField:
    """GF(p^k) on the modulus of ring reduced mod p; a GaloisField is its own."""
    if isinstance(ring, GaloisField):
        return ring
    return GaloisField(ring.p, ring.k, tuple(c % ring.p for c in ring.modulus))


def residue(x: RingElement) -> RingElement:
    """Image of a Galois ring element in the residue field."""
    ring = x.ring
    return RingElement(residue_field(ring), tuple(c % ring.p for c in x.coords))


def gen(ring: GaloisRing) -> RingElement:
    """The class of x."""
    return RingElement(ring, ring._pad(_poly_rem_monic((0, 1), ring.modulus, ring.q)))
