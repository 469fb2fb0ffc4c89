"""Reference builders for the relation lattices, kept for tests only.

These are the direct enumerations that ``mwkit.gwring`` replaced: every
family instance as a dense row (with all unit translates of family (iii)
for the hopf kind), and the all-pairs scan of the reduced-only rows
against the hopf lattice.  They are cubic in the number of units, so the
tests run them on small rings only.
"""

from mwkit.finring import make_ring
from mwkit.gwring import PresentationKind
from mwkit.presab import ZLattice


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
