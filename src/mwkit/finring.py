"""Exact arithmetic for small finite commutative rings.

Supported ring kinds:

* ``Zmod(m)``, the integers mod m,
* ``GaloisRing(p, e, k, modulus)``, the local ring Z/p^e[x] modulo a monic
  lift of an irreducible polynomial, with residue field GF(p^k),
* ``GaloisField(p, k, modulus)``, the field with p^k elements: the Galois
  ring with e = 1, Z/p[x] modulo a monic irreducible polynomial,
* ``ProductRing(rings)``, finite products.

Every ring enumerates its elements in a fixed canonical order, so unit
indices, reports and downstream lattices are reproducible across runs.
Rings are immutable after construction and all operations are pure.

When no modulus is given, the lexicographically smallest monic irreducible
of the requested degree is chosen (coefficient tuples compared from the
leading coefficient down, i.e. enumeration by the base-p integer value of
the non-leading coefficients).  Galois ring moduli are the coefficientwise
lifts of that choice to {0, ..., p-1}.
"""

from __future__ import annotations

import itertools
import struct
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputError

ELEMENT_BOUND = 1 << 16
# parentheses in a ring spec nest at most this deep; parsing, spec strings
# and element enumeration recurse once or more per product level
MAX_SPEC_NESTING = 16


class RingError(InputError):
    """Invalid ring construction or an operation on incompatible elements."""


class RingSpecError(RingError):
    """A ring spec string failed to parse; carries the offending token."""

    def __init__(self, message: str, token: str = ""):
        super().__init__(message)
        self.token = token


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 0, in increasing order: none for 0 and 1."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# polynomial helpers over Z/m (coefficient tuples, index = degree)


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_rem_monic(a, mod, m):
    """Remainder of a modulo a monic polynomial, coefficients in Z/m."""
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        lead = a[-1] % m
        if lead:
            shift = len(a) - 1 - d
            for i in range(d):
                a[shift + i] = (a[shift + i] - lead * mod[i]) % m
        a.pop()
    return _poly_trim([v % m for v in a])


def _digits(idx: int, base: int, n: int) -> tuple[int, ...]:
    """The n lowest base-`base` digits of idx, least significant first."""
    out = []
    for _ in range(n):
        idx, d = divmod(idx, base)
        out.append(d)
    return tuple(out)


def _poly_is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree <= k/2."""
    k = len(mod) - 1
    if k < 1:
        return False
    for deg in range(1, k // 2 + 1):
        for idx in range(p**deg):
            if not _poly_rem_monic(mod, _digits(idx, p, deg) + (1,), p):
                return False
    return True


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over Z/p."""
    for idx in range(p**k):
        # idx counts with the constant term fastest, which is exactly
        # lexicographic order on (a_{k-1}, ..., a_0)
        coeffs = _digits(idx, p, k) + (1,)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise RingError(f"no irreducible polynomial of degree {k} over Z/{p}")


def _poly_term(deg: int, c: int) -> str:
    """The text of the term c x^deg, for c nonzero."""
    if deg == 0:
        return str(c)
    power = "x" if deg == 1 else f"x^{deg}"
    return power if c == 1 else f"{c}{power}"


def _poly_str(coeffs: Sequence[int]) -> str:
    terms = [_poly_term(deg, c) for deg, c in reversed(list(enumerate(coeffs))) if c]
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Galois products by Kronecker substitution: each coefficient tuple is packed
# into one integer with w-byte slots, the two integers are multiplied once,
# and the k - 1 slots above degree k - 1 fold back onto the low k slots
# through packed rows of x^j mod f

_STRUCT_CODES = {1: "B", 2: "H", 4: "I"}


def _slot_bytes(q: int, k: int) -> int:
    """Bytes per slot, so no slot of a product or of its fold can carry.

    A product slot is a sum of at most k terms below q^2, and the fold adds
    to each low slot k - 1 such sums, each times a row entry below q.  Every
    Galois ring within ``ELEMENT_BOUND`` fits in 1, 2 or 4 bytes.
    """
    bound = k * (q - 1) ** 2 * (1 + (k - 1) * (q - 1))
    return next(w for w in _STRUCT_CODES if bound >> (8 * w) == 0)


def _galois_mul_kernel(q: int, k: int, modulus: Sequence[int]):
    """The product of two canonical coordinate tuples of Z/q[x]/(modulus).

    Exact only on canonical coordinates: k entries, each in [0, q).
    """
    if k == 1:
        return lambda a, b: (a[0] * b[0] % q,)
    w = _slot_bytes(q, k)
    from_bytes = int.from_bytes
    low_bits, low_bytes, high_bytes = 8 * k * w, k * w, (k - 1) * w
    low_mask = (1 << low_bits) - 1
    # x^j mod f for j = k .. 2k - 2, each from the last by one shift
    rows = []
    row = [(-c) % q for c in modulus[:k]]
    for _ in range(k - 1):
        rows.append(row)
        top = row[-1]
        row = [(c - top * m) % q for c, m in zip([0] + row[:-1], modulus)]
    low_slots = struct.Struct(f"<{k}{_STRUCT_CODES[w]}")
    pack, unpack_low = low_slots.pack, low_slots.unpack
    unpack_high = struct.Struct(f"<{k - 1}{_STRUCT_CODES[w]}").unpack
    packed = [from_bytes(pack(*r), "little") for r in rows]

    def mul(a, b):
        c = from_bytes(pack(*a), "little") * from_bytes(pack(*b), "little")
        high = unpack_high((c >> low_bits).to_bytes(high_bytes, "little"))
        c &= low_mask
        for h, r in zip(high, packed):
            c += h * r
        return tuple([v % q for v in unpack_low(c.to_bytes(low_bytes, "little"))])

    return mul


# ---------------------------------------------------------------------------
# elements


class RingElement:
    """Immutable element of a finite ring, identified by canonical coords.

    Coordinates are canonical: a residue in [0, m) for ``Z/m``, a tuple of
    k entries in [0, p^e) for a Galois ring, and a tuple of the factors'
    canonical coordinates for a product.  Every ring operation returns
    canonical coordinates, and the Galois product is exact only on them.
    Elements of two structurally equal rings (same kind, parameters and
    modulus) compare and hash alike even when the handles are distinct.
    The three slots are written once, by the constructor; assigning any
    attribute raises ``AttributeError``.  Pickles and copies rebuild an
    element through the constructor, so its hash is recomputed in the
    process that loads it.
    """

    __slots__ = ("ring", "coords", "_hash")

    def __init__(self, ring: "Ring", coords):
        _set_ring(self, ring)
        _set_coords(self, coords)
        _set_hash(self, hash((hash(ring), coords)))

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def __reduce__(self):
        return (RingElement, (self.ring, self.coords))

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            return False
        return self.coords == other.coords

    def __hash__(self):
        return self._hash

    # an operand of the same ring needs no coerce; Ring.add, Ring.neg and
    # Ring.mul still build every result

    def __add__(self, other):
        ring = self.ring
        if type(other) is not RingElement or other.ring is not ring:
            other = ring.coerce(other)
        return ring.add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return self.ring.neg(self)

    def __sub__(self, other):
        ring = self.ring
        if type(other) is not RingElement or other.ring is not ring:
            other = ring.coerce(other)
        return ring.add(self, ring.neg(other))

    def __mul__(self, other):
        ring = self.ring
        if type(other) is not RingElement or other.ring is not ring:
            other = ring.coerce(other)
        return ring.mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        base = self.inverse() if n < 0 else self
        return RingElement(self.ring, self.ring._pow(base.coords, abs(n)))

    def is_unit(self) -> bool:
        return self.ring._is_unit(self.coords)

    def inverse(self) -> "RingElement":
        inv = self.ring.inverse_or_none(self)
        if inv is None:
            raise RingError(f"{self} is not a unit in {self.ring.spec_string()}")
        return inv

    def is_zero(self) -> bool:
        return self == self.ring.zero

    def __str__(self):
        return self.ring.format_element(self)

    def __repr__(self):
        return f"<{self} in {self.ring.spec_string()}>"


# setters of the element slots, for the one write each gets in the constructor
_set_ring = RingElement.ring.__set__
_set_coords = RingElement.coords.__set__
_set_hash = RingElement._hash.__set__

# per-ring caches: they hold elements, which rebuild through their
# constructor and so need a complete ring, hashes, which differ between
# processes, a Galois ring's product kernel, a closure, which does not
# pickle, and the unit index, square map, square classes, unit sums and
# table of unit products, which are rebuilt when first asked; a pickled or
# copied ring leaves them behind
_RING_CACHES = ("_units", "_unit_index", "_zero", "_one", "_hash_cache", "_mul_kernel",
                "_square_map", "_square_classes", "_unit_sums", "_unit_products")


class _UnitProducts(dict):
    """A ring's table of unit products on unit indices: row i maps j to the
    index of u_i u_j.

    A row is an empty dict, made on its first read.  ``coords`` lists the
    unit coordinates in unit order, for the products a row is missing and
    for ``GroupRingVector.__str__``, which builds the units of its keys.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: list):
        super().__init__()
        self.coords = coords

    def __missing__(self, i):
        row = self[i] = {}
        return row


class Ring:
    """Common interface for the concrete ring kinds."""

    card: int

    def __init__(self):
        self._units: Optional[list[RingElement]] = None
        self._unit_index: Optional[dict] = None
        self._zero: Optional[RingElement] = None
        self._one: Optional[RingElement] = None
        self._hash_cache: Optional[int] = None
        self._square_map: Optional[list[int]] = None
        self._square_classes: Optional[tuple[list[int], int]] = None
        self._unit_sums: Optional[list[list[int]]] = None
        self._unit_products: Optional[_UnitProducts] = None

    # subclasses implement, on coordinates: _add, _plus_one (one added to
    # the constant coordinate alone), _neg, _mul, _is_unit,
    # _inverse_or_none, _from_int, _enumerate_coords, _zero_coords,
    # _one_coords, _format; _unit_mask, a byte per element in element order,
    # 1 at the units, or else _unit_coords; unit_texts, str(u) for each unit
    # in unit order; and spec_string, characteristic.  Each builds its unit
    # tables from its structure, and may replace _build_square_map and
    # _build_square_classes with builders that use it

    @property
    def zero(self) -> RingElement:
        if self._zero is None:
            self._zero = RingElement(self, self._zero_coords())
        return self._zero

    @property
    def one(self) -> RingElement:
        if self._one is None:
            self._one = RingElement(self, self._one_coords())
        return self._one

    def coerce(self, x) -> RingElement:
        if isinstance(x, RingElement):
            if x.ring is self:
                return x
            if x.ring != self:
                raise RingError("ring mismatch")
            return RingElement(self, x.coords)
        if isinstance(x, int):
            return self.from_int(x)
        raise RingError(f"cannot coerce {x!r} into {self.spec_string()}")

    def from_int(self, n: int) -> RingElement:
        """n times the identity."""
        return RingElement(self, self._from_int(n))

    def add(self, a: RingElement, b: RingElement) -> RingElement:
        return RingElement(self, self._add(a.coords, b.coords))

    def neg(self, a: RingElement) -> RingElement:
        return RingElement(self, self._neg(a.coords))

    def mul(self, a: RingElement, b: RingElement) -> RingElement:
        return RingElement(self, self._mul(a.coords, b.coords))

    def _pow(self, a, n: int):
        """a^n on coordinates for n >= 0, by square-and-multiply through ``_mul``.

        a^0 is one, and a^1 is a itself, with no product.
        """
        mul, acc = self._mul, None
        while True:
            if n & 1:
                acc = a if acc is None else mul(acc, a)
            n >>= 1
            if not n:
                return self._one_coords() if acc is None else acc
            a = mul(a, a)

    def inverse_or_none(self, a: RingElement) -> Optional[RingElement]:
        coords = self._inverse_or_none(a.coords)
        return None if coords is None else RingElement(self, coords)

    def elements(self) -> Iterable[RingElement]:
        for coords in self._enumerate_coords():
            yield RingElement(self, coords)

    def units(self) -> list[RingElement]:
        """The units as elements, in the order of ``unit_index_by_coords()``.

        Built from the unit index on the first call.  Shared, do not modify.
        """
        if self._units is None:
            self._units = [RingElement(self, c) for c in self.unit_index_by_coords()]
        return self._units

    def _unit_coords(self) -> list:
        """The coordinates of the units, in element order."""
        return list(itertools.compress(self._enumerate_coords(), self._unit_mask()))

    def unit_index_by_coords(self) -> Mapping:
        """Map from each unit's coordinates to its position in ``units()``.

        The ring's unit table, in element order: it is built first, with no
        element, and ``units()`` is built from it.

        Shared, do not modify.  Coordinates are ints or tuples, so a lookup
        hashes in C, with no call to ``RingElement.__hash__``.  Coordinates
        alone do not name a ring: check a key's ring before looking it up.
        """
        if self._unit_index is None:
            coords = self._unit_coords()
            self._unit_index = dict(zip(coords, range(len(coords))))
        return self._unit_index

    def unit_index(self, u: RingElement) -> int:
        """Position of the unit u in ``units()``; RingError unless u is a unit of this ring."""
        if type(u) is not RingElement or (u.ring is not self and u.ring != self):
            raise RingError(f"{u!r} is not an element of {self.spec_string()}")
        k = self.unit_index_by_coords().get(u.coords)
        if k is None:
            raise RingError(f"{u} is not a unit of {self.spec_string()}")
        return k

    def unit_square_map(self) -> list[int]:
        """sq with sq[i] the position of ``units()[i]`` squared in ``units()``.

        Shared, do not modify.  Built once per ring from its structure: see
        ``_build_square_map``.
        """
        if self._square_map is None:
            self._square_map = self._build_square_map()
        return self._square_map

    def _build_square_map(self) -> list[int]:
        # one coordinate product per unit
        index, mul = self.unit_index_by_coords(), self._mul
        return [index[mul(c, c)] for c in index]

    def square_classes(self) -> tuple[list[int], int]:
        """(classes, C): classes[i] is the number of the square class of unit
        i, and C = |R^x / (R^x)^2| the number of classes.

        The group of classes is an F_2-vector space, and a class is numbered
        by its coordinates over F_2, so cls(uv) = cls(u) ^ cls(v) and the
        numbers are 0 .. C - 1, class 0 the squares.  The basis is read off
        the units in unit order: the first unit whose class has no number
        becomes basis vector j, of number 2^j.  Shared, do not modify.
        """
        if self._square_classes is None:
            self._square_classes = self._build_square_classes()
        return self._square_classes

    def _build_square_classes(self) -> tuple[list[int], int]:
        # the squares are class 0, read from the square map; basis vector j
        # times the units numbered so far, of classes m < 2^j, gives the
        # units of the classes m | 2^j, one coordinate product per non-square
        index, mul = self.unit_index_by_coords(), self._mul
        coords = list(index)
        numbered = list(set(self.unit_square_map()))
        classes: list = [None] * len(coords)
        for k in numbered:
            classes[k] = 0
        count = 1
        for i, c in enumerate(coords):
            if classes[i] is None:
                times = [index[mul(c, coords[k])] for k in numbered]
                for k, m in zip(times, numbered):
                    classes[k] = classes[m] | count
                numbered += times
                count *= 2
        return classes, count

    def unit_sum_classes(self) -> list[list[int]]:
        """D with D[t] the square classes of 1 + u, over the units u of class
        t with 1 + u a unit, each class once, in the order of its first u.

        One ``_plus_one`` per unit, which changes the constant coordinate
        alone.  Shared, do not modify.
        """
        if self._unit_sums is None:
            classes, count = self.square_classes()
            index, plus_one = self.unit_index_by_coords(), self._plus_one
            sums: list = [{} for _ in range(count)]  # dicts as ordered sets
            for c, t in zip(index, classes):
                k = index.get(plus_one(c))
                if k is not None:
                    sums[t].setdefault(classes[k])
            self._unit_sums = [list(d) for d in sums]
        return self._unit_sums

    def unit_products(self) -> _UnitProducts:
        """The ring's table of unit products: ``unit_products()[i][j]`` is
        the position of ``units()[i] * units()[j]`` in ``units()``, where
        row i holds j.

        The table starts empty and holds only the pairs that
        ``GroupRingVector.__mul__``, the one reader of its rows, has
        multiplied: that product fills each missing entry with one
        coordinate product on its first read.  So it holds at most |U|^2
        entries, each paid for by one coordinate product.  Shared; nothing
        else writes it.  ``GroupRingVector.__str__`` reads its ``coords``.
        """
        if self._unit_products is None:
            self._unit_products = _UnitProducts(list(self.unit_index_by_coords()))
        return self._unit_products

    def unit_squares(self) -> frozenset[RingElement]:
        """The squares of the units, as elements of ``units()``; read from the square map."""
        units = self.units()
        return frozenset(units[k] for k in set(self.unit_square_map()))

    def minus_one(self) -> RingElement:
        return self.neg(self.one)

    @property
    def is_field(self) -> bool:
        return False

    def _eq_key(self):
        return (type(self).__name__, self.spec_string())

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Ring) and self._eq_key() == other._eq_key()

    def __hash__(self):
        cached = self._hash_cache
        if cached is None:
            cached = self._hash_cache = hash(self._eq_key())
        return cached

    def format_element(self, el: RingElement) -> str:
        return self._format(el.coords)

    def __getstate__(self):
        return {**self.__dict__, **dict.fromkeys(self.__dict__.keys() & _RING_CACHES)}

    def __repr__(self):
        return self.spec_string()


class Zmod(Ring):
    """Integers modulo m, m >= 2; elements are residues 0..m-1."""

    def __init__(self, m: int):
        super().__init__()
        if m < 2:
            raise RingError(f"Z/{m}: modulus must be at least 2")
        if m > ELEMENT_BOUND:
            raise RingError(f"Z/{m} exceeds the element bound {ELEMENT_BOUND}")
        self.m = m
        self.card = m

    def _zero_coords(self):
        return 0

    def _one_coords(self):
        return 1 % self.m

    def _add(self, a, b):
        return (a + b) % self.m

    def _plus_one(self, a):
        return (a + 1) % self.m

    def _neg(self, a):
        return (-a) % self.m

    def _mul(self, a, b):
        return (a * b) % self.m

    def _is_unit(self, a):
        return gcd(a, self.m) == 1

    def _inverse_or_none(self, a):
        return pow(a, -1, self.m) if self._is_unit(a) else None

    def _from_int(self, n):
        return n % self.m

    def _enumerate_coords(self):
        return range(self.m)

    def _unit_mask(self):
        # every multiple of a prime factor of m is crossed out
        m = self.m
        mask = bytearray(b"\x01") * m
        for p in _prime_factors(m):
            mask[::p] = bytes(len(range(0, m, p)))
        return mask

    def unit_texts(self) -> list[str]:
        return list(map(str, self.unit_index_by_coords()))

    @property
    def is_field(self) -> bool:
        return _is_prime(self.m)

    def characteristic(self) -> int:
        return self.m

    def _format(self, a):
        return str(a)

    def spec_string(self) -> str:
        return f"Z/{self.m}"


class GaloisRing(Ring):
    """GR(p^e, k) = Z/p^e[x] / (monic lift of an irreducible over Z/p).

    Elements are coefficient tuples with entries in 0..p^e-1.  The e = 1
    case is the field GF(p^k), built by the subclass ``GaloisField``.
    """

    # wording of two construction errors; GaloisField words them for e = 1
    _positive = "exponent and degree must be positive"
    _reducible_suffix = " mod {p}"

    def __init__(self, p: int, e: int, k: int, modulus: Optional[Sequence[int]] = None):
        super().__init__()
        self.p = p
        self.e = e
        self.k = k
        label = self._label()
        if e < 1 or k < 1:
            raise RingError(f"{label}: {self._positive}")
        # with p >= 2, an e*k above the bound's bit length exceeds it: refuse
        # before building the power or testing a huge p for primality
        if p > 1 and (e * k > ELEMENT_BOUND.bit_length() or p ** (e * k) > ELEMENT_BOUND):
            raise RingError(f"{label} exceeds the element bound {ELEMENT_BOUND}")
        if not _is_prime(p):
            raise RingError(f"{label}: {p} is not prime")
        self.q = p**e
        self._canonical_modulus = modulus is None
        if modulus is None:
            # irreducible by construction, with entries below p; the lift is
            # coefficientwise
            modulus = smallest_irreducible(p, k)
        else:
            modulus = _poly_trim([c % self.q for c in modulus])
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise RingError(f"{label}: modulus must be monic of degree {k}")
            if not _poly_is_irreducible(tuple(c % p for c in modulus), p):
                raise RingError(f"{label}: reducible modulus {_poly_str(modulus)}"
                                + self._reducible_suffix.format(p=p))
        self.modulus = modulus
        self.card = self.q**k
        self._mul_kernel = None

    def _label(self, tail: str = "") -> str:
        return f"GR({self.p}^{self.e},{self.k}{tail})"

    def _pad(self, coeffs):
        return tuple(coeffs) + (0,) * (self.k - len(coeffs))

    def _zero_coords(self):
        return (0,) * self.k

    def _one_coords(self):
        return self._pad((1,))

    def _add(self, a, b):
        q = self.q
        return tuple([(x + y) % q for x, y in zip(a, b)])

    def _plus_one(self, a):
        return ((a[0] + 1) % self.q,) + a[1:]

    def _neg(self, a):
        q = self.q
        return tuple([(-x) % q for x in a])

    def _mul(self, a, b):
        kernel = self._mul_kernel
        if kernel is None:
            kernel = self._mul_kernel = _galois_mul_kernel(self.q, self.k, self.modulus)
        return kernel(a, b)

    def _from_int(self, n):
        return self._pad((n % self.q,))

    def _is_unit(self, a):
        # the units of this local ring are the elements outside (p)
        p = self.p
        return any(c % p for c in a)

    def _inverse_or_none(self, a):
        # the unit group has card - card/p^k elements, so a unit's inverse
        # is its power to that order minus one
        if not self._is_unit(a):
            return None
        return self._pow(a, self.card - self.card // self.p**self.k - 1)

    def _enumerate_coords(self):
        # the constant term varies fastest: index order of the base-q digits
        return (t[::-1] for t in itertools.product(range(self.q), repeat=self.k))

    def _unit_mask(self):
        # a unit has some coefficient not divisible by p.  The elements of
        # degree below j + 1 are q blocks, one per coefficient c of x^j, each
        # running over the elements of degree below j: block c is all units
        # when p does not divide c, and repeats the mask of degree below j
        # when it does.  Below degree 0 is the zero polynomial alone
        p, mask = self.p, b"\x00"
        for _ in range(self.k):
            units = b"\x01" * len(mask)
            mask = b"".join(units if c % p else mask for c in range(self.q))
        return mask

    def unit_texts(self) -> list[str]:
        # the texts of all elements, in the same blocks as _unit_mask: block
        # c of degree j writes the term c x^j before each lower text, as
        # _poly_str writes the highest term first.  The zero element's text
        # stays "", since zero is never a unit
        texts = [""]
        for deg in range(self.k):
            tails = ["", *map("+".__add__, itertools.islice(texts, 1, None))]
            blocks = [texts] + [list(map(_poly_term(deg, c).__add__, tails))
                                for c in range(1, self.q)]
            texts = list(itertools.chain.from_iterable(blocks))
        return list(itertools.compress(texts, self._unit_mask()))

    def _build_square_map(self) -> list[int]:
        """With q = 2, squaring is F_2-linear on the coordinate bits.

        Element e has coordinate bits e, and unit i is element i + 1.  The
        k products x^j * x^j give the images of the basis; the square of
        every element follows by XOR, the top bit of e at a time, so the
        map takes k products where the generic one takes |U|.
        """
        if self.q != 2:
            return super()._build_square_map()
        squares = [0]  # element index -> element index of its square
        for j in range(self.k):
            basis = (0,) * j + (1,) + (0,) * (self.k - j - 1)
            image = sum(bit << b for b, bit in enumerate(self._mul(basis, basis)))
            squares += [s ^ image for s in squares]
        return [s - 1 for s in squares[1:]]

    @property
    def is_field(self) -> bool:
        return self.e == 1

    def characteristic(self) -> int:
        return self.q

    def _format(self, a):
        return _poly_str(a)

    def _eq_key(self):
        return ("GaloisRing", self.p, self.e, self.k, self.modulus)

    def spec_string(self) -> str:
        return self._label("" if self._canonical_modulus else ";" + _poly_str(self.modulus))


class GaloisField(GaloisRing):
    """GF(p^k) = Z/p[x] / (modulus), the Galois ring GR(p^1, k); its own residue field."""

    _positive = "degree must be positive"
    _reducible_suffix = ""

    def __init__(self, p: int, k: int, modulus: Optional[Sequence[int]] = None):
        super().__init__(p, 1, k, modulus)

    def _label(self, tail: str = "") -> str:
        return f"GF({self.p}^{self.k}{tail})"

    def _eq_key(self):
        return ("GaloisField", self.p, self.k, self.modulus)


class ProductRing(Ring):
    """Finite product of rings; coordinates are tuples of factor coordinates.

    Every operation runs factor-wise on coordinates, through the factors'
    coordinate methods, so no factor element is built.
    """

    def __init__(self, factors: Sequence[Ring]):
        super().__init__()
        if not factors:
            raise RingError("product ring needs at least one factor")
        card = 1
        for f in factors:
            card *= f.card
        if card > ELEMENT_BOUND:
            raise RingError(f"product ring exceeds the element bound {ELEMENT_BOUND}")
        self.factors = tuple(factors)
        self.card = card

    def _zero_coords(self):
        return tuple(f._zero_coords() for f in self.factors)

    def _one_coords(self):
        return tuple(f._one_coords() for f in self.factors)

    def _add(self, a, b):
        return tuple([f._add(x, y) for f, x, y in zip(self.factors, a, b)])

    def _plus_one(self, a):
        return tuple([f._plus_one(x) for f, x in zip(self.factors, a)])

    def _neg(self, a):
        return tuple([f._neg(x) for f, x in zip(self.factors, a)])

    def _mul(self, a, b):
        return tuple([f._mul(x, y) for f, x, y in zip(self.factors, a, b)])

    def _is_unit(self, a):
        return all(f._is_unit(x) for f, x in zip(self.factors, a))

    def _inverse_or_none(self, a):
        out = []
        for f, x in zip(self.factors, a):
            inv = f._inverse_or_none(x)
            if inv is None:
                return None
            out.append(inv)
        return tuple(out)

    def _from_int(self, n):
        return tuple(f._from_int(n) for f in self.factors)

    def _enumerate_coords(self):
        # first factor varies fastest, matching the base-q digit orders above
        columns = [list(f._enumerate_coords()) for f in reversed(self.factors)]
        return (t[::-1] for t in itertools.product(*columns))

    # a unit of the product is a tuple of factor units, so its tables are
    # those of the factors, composed: with the first factor fastest, the
    # unit (u_1, u_2, ...) has position i_1 + n_1 i_2 + ..., where i_j is
    # the position of u_j among the n_j units of factor j

    def _unit_coords(self) -> list:
        coords = [()]
        for f in self.factors:
            coords = [c + (x,) for x in f.unit_index_by_coords() for c in coords]
        return coords

    def _build_square_map(self) -> list[int]:
        squares, n = [0], 1
        for f in self.factors:
            factor = f.unit_square_map()
            squares = [x + n * y for y in factor for x in squares]
            n *= len(factor)
        return squares

    def _build_square_classes(self) -> tuple[list[int], int]:
        # the square classes of the product are the tuples of factor classes,
        # and (x, y), with x of the factors before and y of the next one, is
        # numbered x + C y.  That is the number the walk of Ring gives: every
        # factor lists 1 first, so the units (u, 1) come first and find the
        # C classes (x, 0), and each later basis vector is a first unit
        # (1, v) whose factor class y is a new basis vector of that factor
        classes, count = [0], 1
        for f in self.factors:
            f_classes, f_count = f.square_classes()
            classes = [x + count * y for y in f_classes for x in classes]
            count *= f_count
        return classes, count

    def unit_texts(self) -> list[str]:
        # each factor formats its units once; the texts are composed in the
        # order of _unit_coords
        texts = [()]
        for f in self.factors:
            texts = [t + (x,) for x in f.unit_texts() for t in texts]
        return ["(" + ",".join(t) + ")" for t in texts]

    def characteristic(self) -> int:
        return lcm(*(f.characteristic() for f in self.factors))

    def _format(self, a):
        return "(" + ",".join(f._format(x) for f, x in zip(self.factors, a)) + ")"

    def spec_string(self) -> str:
        return "prod(" + ",".join(f.spec_string() for f in self.factors) + ")"


# ---------------------------------------------------------------------------
# the 2x2 elementary matrix identity


def mat2_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def elementary_factorization(ring: Ring, a: RingElement):
    """Write diag(a, a^-1) as an explicit product of elementary matrices.

    Expanding the commutator of diag(a, 1) with w = e12(1) e21(-1) e12(1)
    gives the word

        e12(a) e21(-a^-1) e12(a) e12(-1) e21(1) e12(-1),

    whose product is diag(a, a^-1).  The product is verified before the
    factor list is returned.
    """
    a = ring.coerce(a)
    ainv = a.inverse()
    one = ring.one
    zero = ring.zero

    def e12(t):
        return ((one, t), (zero, one))

    def e21(t):
        return ((one, zero), (t, one))

    word = [e12(a), e21(-ainv), e12(a), e12(-one), e21(one), e12(-one)]
    prod = ((one, zero), (zero, one))
    for m in word:
        prod = mat2_mul(prod, m)
    expected = ((a, zero), (zero, ainv))
    if prod != expected:
        raise RingError("elementary factorization failed verification")
    return word


# ---------------------------------------------------------------------------
# ring spec mini-language:
#   Z/<m>   GF(<p>^<k>)   GF(<p>^<k>;<poly>)   GR(<p>^<e>,<k>)   prod(...)


def _is_digits(text: str) -> bool:
    """True for a nonempty run of ASCII digits, the only numbers specs take."""
    return text.isascii() and text.isdigit()


def _spec_int(digits: str) -> int:
    """The value of a checked digit run; one too long for ``int()`` is a spec error."""
    try:
        return int(digits)
    except ValueError:
        raise RingSpecError(f"number of {len(digits)} digits is too long", digits) from None


def _parse_poly(text: str, token_context: str) -> tuple[int, ...]:
    text = text.replace(" ", "")
    if not text:
        raise RingSpecError("empty polynomial", token_context)
    coeffs: dict[int, int] = {}
    # split into signed terms
    terms = []
    cur = ""
    for ch in text:
        if ch in "+-" and cur:
            terms.append(cur)
            cur = ch if ch == "-" else ""
        else:
            cur += ch
    if cur:
        terms.append(cur)
    for term in terms:
        t = term
        sign = 1
        if t.startswith("-"):
            sign = -1
            t = t[1:]
        elif t.startswith("+"):
            t = t[1:]
        if not t:
            raise RingSpecError(f"bad polynomial term {term!r}", term)
        if "x" in t:
            coef_s, _, exp_s = t.partition("x")
            # c*x reads as cx; a star with no digit run before it stays and is refused
            if len(coef_s) > 1 and coef_s.endswith("*"):
                coef_s = coef_s[:-1]
            if exp_s == "":
                exp_s = "^1"
            if not (exp_s.startswith("^") and _is_digits(exp_s[1:])
                    and (coef_s == "" or _is_digits(coef_s))):
                raise RingSpecError(f"bad polynomial term {term!r}", term)
            coef = _spec_int(coef_s) if coef_s else 1
            exp = _spec_int(exp_s[1:])
            # a ring within the bound has p^k >= 2^k elements, so a larger
            # degree names none; refuse it before spelling out its coefficients
            if exp > ELEMENT_BOUND.bit_length():
                raise RingSpecError(
                    f"degree of {term!r} exceeds the element bound {ELEMENT_BOUND}", term)
        else:
            if not _is_digits(t):
                raise RingSpecError(f"bad polynomial term {term!r}", term)
            coef = _spec_int(t)
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
    deg = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(deg + 1))


def _split_top_commas(text: str) -> list[str]:
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return parts


def _parse_prime_power(text: str) -> tuple[int, int]:
    """Parse 'p^k' or a plain prime power q, returning (p, k).

    A p or q above ``ELEMENT_BOUND`` comes back untested, as (p, k) or (q, 1):
    every ring over it exceeds the bound, and the ring constructors refuse
    it on size before any primality test.
    """
    base_s, caret, k_s = text.partition("^")
    base_s, k_s = base_s.strip(), k_s.strip()
    if not (_is_digits(base_s) and (not caret or _is_digits(k_s))):
        raise RingSpecError(f"bad prime power {text!r}", text)
    q = _spec_int(base_s)
    if q > ELEMENT_BOUND:
        return q, _spec_int(k_s) if caret else 1
    if caret:
        if not _is_prime(q):
            raise RingSpecError(f"{q} is not prime in {text!r}", base_s)
        return q, _spec_int(k_s)
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise RingSpecError(f"{text!r} is not a prime power", text)
    p, k = primes[0], 0
    while q > 1:
        q //= p
        k += 1
    return p, k


def _nesting(text: str) -> int:
    """The deepest nesting of parentheses in text."""
    depth = most = 0
    for ch in text:
        if ch == "(":
            depth += 1
            most = max(most, depth)
        elif ch == ")":
            depth -= 1
    return most


def parse_ring_spec(spec: str) -> Ring:
    """Parse the ring spec mini-language into a ring handle."""
    s = spec.strip()
    if _nesting(s) > MAX_SPEC_NESTING:
        raise RingSpecError(f"parentheses nest more than {MAX_SPEC_NESTING} deep", s)
    if s.startswith("Z/"):
        body = s[2:].strip()
        if not _is_digits(body.removeprefix("-")):
            raise RingSpecError(f"bad modulus {body!r} in {spec!r}", body)
        return Zmod(_spec_int(body))
    if s.startswith("GF(") and s.endswith(")"):
        body = s[3:-1]
        head, semicolon, poly = body.partition(";")
        p, k = _parse_prime_power(head.strip())
        modulus = _parse_poly(poly, spec) if semicolon else None
        return GaloisField(p, k, modulus)
    if s.startswith("GR(") and s.endswith(")"):
        body = s[3:-1]
        head, semicolon, poly = body.partition(";")
        parts = _split_top_commas(head)
        if len(parts) != 2:
            raise RingSpecError(f"GR spec needs two arguments in {spec!r}", head)
        p, e = _parse_prime_power(parts[0].strip())
        if not _is_digits(parts[1].strip()):
            raise RingSpecError(f"bad degree {parts[1]!r} in {spec!r}", parts[1])
        k = _spec_int(parts[1].strip())
        modulus = _parse_poly(poly, spec) if semicolon else None
        return GaloisRing(p, e, k, modulus)
    if s.startswith("prod(") and s.endswith(")"):
        parts = _split_top_commas(s[5:-1])
        for i, part in enumerate(parts, 1):
            if not part.strip():
                raise RingSpecError(f"empty factor {i} in {spec!r}", part)
        return ProductRing([parse_ring_spec(part) for part in parts])
    raise RingSpecError(f"unrecognized ring spec {spec!r}", s)


def make_ring(spec) -> Ring:
    """Accept a ring handle or a spec string and return a ring handle."""
    if isinstance(spec, Ring):
        return spec
    if isinstance(spec, str):
        return parse_ring_spec(spec)
    raise RingError(f"cannot build a ring from {spec!r}")
