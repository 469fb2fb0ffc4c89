"""Reference paths of ``mwkit.gwring``, kept for tests only.

The relation-lattice builders are the direct enumerations that
``mwkit.gwring`` replaced: every family instance as a dense row (with all
unit translates of family (iii) for the hopf kind).  ``oracle_compare`` is
the definition of the comparison, the all-pairs scan of the reduced-only
rows against that hopf lattice, which ``compare_presentations`` answers
from the unit squares alone.  They are cubic in the number of units, so
the tests run them on small rings only.

``oracle_relation_lattice`` is the builder that seeded both kinds from all
unordered unit pairs of families (ii) and (iii), the hopf kind then spun up
under a generating set of R^x.  It is quadratic in the number of units, so
it runs on rings of up to a few hundred units.  ``oracle_spin_up_lattice``
is the builder that ``mwkit.gwring`` used next: in dimension |U|, the hopf
kind spun up from O(|U|) seed rows under the generators of
``oracle_unit_generators``, and the reduced kind with a row
<u> - <rep(u)> for each unit u that is not the first unit rep(u) of its
square class.  Both read their seed rows from
``oracle_pair_rows``, the row builder ``mwkit.gwring`` used then: a family
(ii) row per unit and two coordinate products per family (iii) pair.  The
reduced ``gwring._presented_rows`` emits generator rows
[g](1 + [t])(1 - [h]) instead, with h over an F_2-basis of the classes of
the unit sums of t, which span the same lattice; its F_2-residue hopf rows
are the rows of ``oracle_pair_rows``, each once.

The query oracles answer on dense vectors and ring elements, where
``GwPresentedRing`` reads sparse vectors against a few projections and
multiplies coordinates: membership of the dense difference in the lattice,
the order of a class from the full product x V of the dense Smith
presentation, the split from its n x n action of <-1>, and the group-ring
product with one element product per pair.  ``oracle_orderings`` counts
the orderings of R^x / (R^x)^2, on which README proves the split, off
``RingElement`` sums of units rather than ``Ring.unit_sum_classes``.  ``oracle_eval_in_ring`` is the
term evaluation that ``kmwterm.eval_in_ring`` replaced: one group-ring
product per bracket of every word.  ``oracle_eval_unit`` is the letter
evaluation that ``kmwterm.eval_unit`` replaced, with one ``RingElement``
per power and per partial product.

``oracle_unit_generators`` gives the multiplication permutations of a
greedy generating set of R^x, each product a ``RingElement``; only the
spin-up builders above read it.  ``oracle_sum`` is the vector sum that
rebuilds its dict, which ``gwring`` replaced with a sum that drops zeroed
keys in place; with ``oracle_scale`` it sums and scales on dicts keyed by
``RingElement``, where ``GroupRingVector`` works on unit indices.
``oracle_has_unit_sums`` is the scan that ``gwring._has_unit_sums``
replaced with a reading of the ring's kind: one added to every unit until
a sum is a unit.
"""

from functools import lru_cache
from typing import Sequence

from mwkit.finring import Ring, make_ring
from mwkit.gwring import GroupRingVector, PresentationKind, _dense, _sparse_key
from mwkit.kmwterm import VAR, EvalError, Unit, render_unit
from mwkit.presab import ZLattice
from presab_oracle import oracle_quotient


def _dense_row(index, signed_units):
    row = [0] * len(index)
    for sign, u in signed_units:
        row[index[u]] += sign
    return tuple(row)


def oracle_relations(ring, kind):
    """Generating rows of the relation lattice in Z^{units}, deduplicated.

    Rows are emitted in a fixed order: family (ii) over units, family (iii)
    over unordered unit pairs (with, for the hopf kind, all unit translates
    of each instance), then family (i) over ordered unit pairs for the
    reduced kind.  Zero rows and exact duplicates are dropped.
    """
    ring = make_ring(ring)
    hopf = PresentationKind.coerce(kind) is PresentationKind.HOPF
    units = ring.units()
    index = {u: i for i, u in enumerate(units)}
    one = ring.one
    minus_one = ring.minus_one()

    rows = []
    seen = set()

    def emit(signed_units):
        row = _dense_row(index, signed_units)
        if any(row) and row not in seen:
            seen.add(row)
            rows.append(row)

    for a in units:
        emit(((1, a), (1, -a), (-1, one), (-1, minus_one)))

    for i, a in enumerate(units):
        for b in units[i:]:
            s = a + b
            if not s.is_unit():
                continue
            sab = s * a * b
            if hopf:
                for u in units:
                    emit(((1, u * a), (1, u * b), (-1, u * s), (-1, u * sab)))
            else:
                emit(((1, a), (1, b), (-1, s), (-1, sab)))

    if not hopf:
        for a in units:
            for b in units:
                emit(((1, a * b * b), (-1, a)))

    return rows


def oracle_family_rows(ring: Ring, rep: Sequence[int]) -> list[tuple]:
    """Distinct nonzero rows of families (ii) and (iii) as sparse keys.

    Every unit index i is replaced by rep[i].  Rows come in a fixed order:
    family (ii) over units, then family (iii) over unordered unit pairs.
    """
    units = ring.units()
    index = {u: i for i, u in enumerate(units)}
    one, minus_one = index[ring.one], index[ring.minus_one()]
    rows: dict = {}
    for i, a in enumerate(units):
        key = _sparse_key(((1, rep[i]), (1, rep[index[-a]]), (-1, rep[one]), (-1, rep[minus_one])))
        if key:
            rows.setdefault(key)
    for i, a in enumerate(units):
        for j in range(i, len(units)):
            b = units[j]
            s = a + b
            k = index.get(s)  # a + b is a unit exactly when it is indexed
            if k is None:
                continue
            key = _sparse_key(((1, rep[i]), (1, rep[j]), (-1, rep[k]), (-1, rep[index[s * a * b]])))
            if key:
                rows.setdefault(key)
    return list(rows)


def oracle_pair_rows(ring: Ring, rep: Sequence[int], firsts: Sequence[int]) -> list[tuple]:
    """Distinct nonzero rows of families (ii) and (iii) as sparse keys.

    Every unit index i is replaced by rep[i].  Rows come in a fixed order:
    family (ii) over units, then family (iii) over the pairs (a, b) with a
    the unit of an index in ``firsts`` and b any unit.  Sums and products
    run on coordinates.
    """
    index = ring.unit_index_by_coords()
    coords = [u.coords for u in ring.units()]
    add, neg, mul = ring._add, ring._neg, ring._mul
    one_c = ring.one.coords
    one, minus_one = rep[index[one_c]], rep[index[neg(one_c)]]
    rows: dict = {}
    for i, a in enumerate(coords):
        key = _sparse_key(((1, rep[i]), (1, rep[index[neg(a)]]), (-1, one), (-1, minus_one)))
        if key:
            rows.setdefault(key)
    for i in firsts:
        a = coords[i]
        for j, b in enumerate(coords):
            s = add(a, b)
            k = index.get(s)  # a + b is a unit exactly when it is indexed
            if k is None:
                continue
            m = index[mul(mul(s, a), b)]
            key = _sparse_key(((1, rep[i]), (1, rep[j]), (-1, rep[k]), (-1, rep[m])))
            if key:
                rows.setdefault(key)
    return list(rows)


def oracle_relation_lattice(ring, kind) -> ZLattice:
    """The relation lattice of the chosen kind, seeded from all unit pairs.

    hopf: the untranslated family (ii) and (iii) rows, closed under
    multiplication by a generating set of R^x.  A Z-submodule closed under
    the generators of a finite group is closed under the whole group, so
    this is the ideal the families generate.

    reduced: the family (i) span is the span of the rows <u> - <rep(u)>,
    rep(u) the first unit of u's square class, and modulo it the ideal of
    families (ii) and (iii) is spanned by their untranslated rows with
    every unit replaced by its representative.
    """
    ring = make_ring(ring)
    kind = PresentationKind.coerce(kind)
    units = ring.units()
    n = len(units)
    index = {u: i for i, u in enumerate(units)}
    lattice = ZLattice(n)
    if kind is PresentationKind.HOPF:
        # spin-up: the rows that enlarged the lattice span it, so closing them
        # under the generators closes the lattice.  They are translated rather
        # than the echelon basis because they keep their small entries.
        queue = []
        for key in oracle_family_rows(ring, range(n)):
            row = _dense(n, key)
            if lattice.add(row):
                queue.append(row)
        perms = oracle_unit_generators(ring)
        while queue:
            vec = queue.pop()
            for perm in perms:
                image = [0] * n
                for i, c in enumerate(vec):
                    if c:
                        image[perm[i]] = c
                if lattice.add(image):
                    queue.append(image)
        return lattice
    rep = list(range(n))
    squares = {u * u for u in units}
    for i, u in enumerate(units):
        if rep[i] == i:
            for q in squares:
                rep[index[u * q]] = i
    for i in range(n):
        if rep[i] != i:
            lattice.add(_dense(n, ((rep[i], -1), (i, 1))))
    for key in oracle_family_rows(ring, rep):
        lattice.add(_dense(n, key))
    return lattice


def oracle_spin_up_lattice(ring, kind) -> ZLattice:
    """The relation lattice of the chosen kind in Z^{units}, built from unit-group structure.

    hopf: with r(a,b) = <a> + <b> - <a+b> - <(a+b)ab> the family (iii) row,

        r(a,b) = <a> r(1, b/a) + <(a+b)b/a> (1 - <a^2>).

    The family (ii) rows and the rows r(1,c), 1 + c a unit, are closed
    under multiplication by a generating set of R^x; a Z-submodule closed
    under the generators of a finite group is closed under the whole group,
    so this is the ideal J they generate.  J is the hopf ideal.  If some
    residue field of R is F_2, no sum of two units is a unit, family (iii)
    is empty and J is the ideal of family (ii).  Otherwise J holds every
    1 - <c^2> with 1 + c a unit: r(c,1) = r(1,c) and 1 + 1/c is a unit, so

        <(c+1)/c> (1 - <c^2>) = r(1,c) - <c> r(1, 1/c).

    Every unit a is c1 c2 z with 1 + c1 and 1 + c2 units and z^2 = 1 (in
    each local factor, c1 with residue away from -1 and -a if the residue
    field has 4 or more elements, c1 = 1 and z = +-1 if it is F_3), so J holds
    1 - <a^2> = (1 - <c1^2>) + <c1^2> (1 - <c2^2>) for every unit a, and by
    the identity above every r(a,b).

    reduced: the family (i) span is the span of the rows <u> - <rep(u)>,
    rep(u) the first unit of u's square class, and modulo it the ideal of
    families (ii) and (iii) is spanned by their untranslated rows with
    every unit replaced by its representative.  Such a row does not change
    when (a, b) becomes (sa, sb) for a square s, so a ranges over the
    representatives only.
    """
    ring = make_ring(ring)
    kind = PresentationKind.coerce(kind)
    n = len(ring.units())
    index = ring.unit_index_by_coords()
    lattice = ZLattice(n)
    # rows stay sparse (index, coefficient) pairs, and each enters the
    # lattice as a dict of its own, which the lattice may keep
    if kind is PresentationKind.HOPF:
        # spin-up: the rows that enlarged the lattice span it, so closing them
        # under the generators closes the lattice.  They are translated rather
        # than the echelon basis because they keep their small entries.
        queue = [key for key in oracle_pair_rows(ring, range(n), (index[ring.one.coords],))
                 if lattice._insert(dict(key))]
        perms = oracle_unit_generators(ring)
        while queue:
            row = queue.pop()
            for perm in perms:
                image = [(perm[i], c) for i, c in row]
                if lattice._insert(dict(image)):
                    queue.append(image)
        return lattice
    coords = [u.coords for u in ring.units()]
    mul = ring._mul
    rep = list(range(n))
    squares = {mul(c, c) for c in coords}
    for i, c in enumerate(coords):
        if rep[i] == i:
            for q in squares:
                rep[index[mul(c, q)]] = i
    for i in range(n):
        if rep[i] != i:
            lattice._insert({rep[i]: -1, i: 1})
    for key in oracle_pair_rows(ring, rep, [i for i in range(n) if rep[i] == i]):
        lattice._insert(dict(key))
    return lattice


def oracle_unit_generators(ring):
    """Permutations perm[i] = index of g * units[i] over the greedy generators g
    of R^x, each product a ``RingElement``."""
    units = ring.units()
    index = ring.unit_index_by_coords()
    subgroup = {index[ring.one.coords]}
    perms = []
    for i, g in enumerate(units):
        if i in subgroup:
            continue
        perm = [index[(g * u).coords] for u in units]
        perms.append(perm)
        coset = list(subgroup)
        while True:
            coset = [perm[j] for j in coset]
            if coset[0] in subgroup:
                break
            subgroup.update(coset)
    return perms


def oracle_sum(x, y):
    """x + y with the sum's zero coefficients filtered out of a rebuilt dict."""
    out = dict(x.coeffs)
    for u, c in y.coeffs.items():
        out[u] = out.get(u, 0) + c
    return GroupRingVector(x.ring, {u: c for u, c in out.items() if c})


def oracle_scale(n, x):
    """n x, scaled on x's dict of ``RingElement`` keys and rebuilt."""
    return GroupRingVector(x.ring, {u: n * c for u, c in x.coeffs.items()})


def oracle_has_unit_sums(ring: Ring) -> bool:
    """Whether some 1 + c with c a unit is a unit, by trying every unit."""
    index, plus_one = ring.unit_index_by_coords(), ring._plus_one
    return any(plus_one(c) in index for c in index)


def oracle_compare(ring):
    """(implied, witness): the first row <a b^2> - <a>, in (a, b) order,
    outside the hopf lattice, or (True, None) when there is none."""
    ring = make_ring(ring)
    units = ring.units()
    index = {u: i for i, u in enumerate(units)}
    hopf = ZLattice(len(units), oracle_relations(ring, "hopf"))
    for a in units:
        for b in units:
            row = _dense_row(index, ((1, a * b * b), (-1, a)))
            if any(row) and not hopf.contains(row):
                return False, row
    return True, None


def oracle_class_equal(p, x, y):
    """Whether the dense difference x - y lies in the relation lattice."""
    return p.lattice.contains((x - y).to_dense())


@lru_cache(maxsize=None)
def oracle_presentation(p):
    """The dense Smith presentation of p's relation lattice; p is hashed by identity."""
    return oracle_quotient(len(p.units), p.lattice.basis())


def oracle_torsion_exponent(p, x):
    """Order of the class of x read from y = x V in full; None if infinite."""
    return oracle_presentation(p).element_order(x.to_dense())


def _odd_part(d):
    while d % 2 == 0:
        d //= 2
    return d


def _oracle_eigen_torsion(b, mods, sign):
    """Invariant factors of T_odd/(1 -+ sigma), presented by the dense route."""
    t = len(mods)
    rows = [[mods[j] if k == j else 0 for k in range(t)] for j in range(t)]
    for i in range(t):
        row = [(-sign) * b[i][j] for j in range(t)]
        row[i] += 1
        rows.append(row)
    pres = oracle_quotient(t, rows)
    assert pres.rank == 0
    return pres.torsion


def oracle_invert_two_split(p):
    """(plus_rank, minus_rank, plus_torsion_odd, minus_torsion_odd) from the
    n x n action V^-1 S V of <-1> on the dense Smith coordinates."""
    pres = oracle_presentation(p)
    minus_one = p.ring.minus_one()
    index = {u: i for i, u in enumerate(p.units)}
    a = pres.action_matrix([index[minus_one * u] for u in p.units])
    trace = sum(a[i][i] for i in pres.free_coords)
    plus_rank, minus_rank = (pres.rank + trace) // 2, (pres.rank - trace) // 2
    odd_idx = [i for i in pres.torsion_coords if _odd_part(pres.diagonal[i]) >= 3]
    if not odd_idx:
        return plus_rank, minus_rank, (), ()
    odd_mod = [_odd_part(pres.diagonal[i]) for i in odd_idx]
    b = [[a[i][j] % odd_mod[jj] for jj, j in enumerate(odd_idx)] for i in odd_idx]
    return (plus_rank, minus_rank, _oracle_eigen_torsion(b, odd_mod, +1),
            _oracle_eigen_torsion(b, odd_mod, -1))


def oracle_orderings(ring):
    """The number of orderings of G = R^x / (R^x)^2.

    An ordering is a character chi: G -> {+-1} with chi(-1) = -1 such that
    chi(t) = 1 implies chi(d) = 1 for each pair (t, d) = (class of u,
    class of 1 + u), u a unit with 1 + u a unit.  Each unit gets its
    coordinates on a greedy F_2-basis of G, a bit mask, with one
    ``RingElement`` product per unit and basis element; the pairs are read
    with one ``RingElement`` sum per unit; and all 2^k characters, each a
    mask of values on the basis, are tried.
    """
    ring = make_ring(ring)
    units = ring.units()
    mask = {u * u: 0 for u in units}  # the squares, the unit of G
    k = 0
    for u in units:
        if u in mask:
            continue
        # u lies outside the subgroup that mask covers, so u times it is new
        for w, m in list(mask.items()):
            mask[u * w] = m | 1 << k
        k += 1
    pairs = set()
    for u in units:
        s = ring.one + u
        if s.is_unit():
            pairs.add((mask[u], mask[s]))

    def negative(chi, m):
        return bin(chi & m).count("1") % 2 == 1

    minus_one = mask[ring.minus_one()]
    return sum(1 for chi in range(1 << k)
               if negative(chi, minus_one)
               and not any(negative(chi, d) for t, d in pairs if not negative(chi, t)))


def oracle_product(x, y):
    """Group-ring product with one ``RingElement`` product per pair of units."""
    out = {}
    for u, cu in x.coeffs.items():
        for v, cv in y.coeffs.items():
            w = u * v
            out[w] = out.get(w, 0) + cu * cv
    return GroupRingVector(x.ring, out)


def oracle_eval_unit(u, ring, assignment):
    """The value of u in ring, with one ``RingElement`` per power and per
    partial product; EvalError when u divides by a non-unit."""
    num, den = u.content.numerator, u.content.denominator
    acc = ring.from_int(num)
    parts = [(ring.from_int(den), -1)] if den != 1 else []
    parts += [(_oracle_eval_atom(atom, ring, assignment), e) for atom, e in u.factors]
    for x, e in parts:
        if e < 0 and not x.is_unit():
            raise EvalError(f"{render_unit(u)} divides by {x}, a non-unit of {ring.spec_string()}")
        acc = acc * x**e
    return acc


def _oracle_eval_atom(atom, ring, assignment):
    if atom[0] == VAR:
        name = atom[1]
        if name not in assignment:
            raise EvalError(f"assignment is missing the unit variable {name!r}")
        val = ring.coerce(assignment[name])
        if not val.is_unit():
            raise EvalError(f"assignment maps {name!r} to the non-unit {val}")
        return val
    total = ring.zero
    for c, f in atom[1]:
        total = total + oracle_eval_unit(Unit(c, f), ring, assignment)
    return total


def oracle_eval_in_ring(t, ring, assignment):
    """Evaluate a degree-0 term into Z[R^x] via eta[u] = <u> - <1>, word by
    word, each bracket evaluated where it stands and multiplied in with
    ``oracle_product``."""
    acc = GroupRingVector.zero(ring)
    one_vec = GroupRingVector.one(ring)
    for (e, brs), c in t.words.items():
        if e != len(brs):
            raise EvalError("term is not in the degree-0 span of angle generators")
        prod = one_vec
        for u in brs:
            val = oracle_eval_unit(u, ring, assignment)
            if not val.is_unit():
                raise EvalError(f"symbol argument {render_unit(u)} evaluates to the non-unit {val}")
            prod = oracle_product(prod, GroupRingVector.angle(ring, val) - one_vec)
        acc = acc + c * prod
    return acc
