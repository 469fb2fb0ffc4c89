"""Reference quadratic form searches, kept for tests only.

These are the searches that ``mwkit.qform`` replaced:

- the rank-2 isometry test and the GL_2 orbit partition, both written with
  ``RingElement`` arithmetic, which integer tables replaced;
- the table orbit that scanned every second column (x2, y2), which solving
  for y2 replaced;
- the lattice with a row for every isometric pair of forms, which a star of
  rows out of each class's first member replaced.

They are quartic in the field order, so the tests run them on fields of
order at most 13.
"""

from mwkit.finring import make_ring
from mwkit.qform import DiagForm, _check_field, _rank2_classes, isometric


def oracle_isometric_rank2(f, g):
    """Exhaustively decide P^T diag(f) P = diag(g) for rank-2 forms."""
    field = f.field
    a, b = f.entries
    c, d = g.entries
    elements = list(field.elements())
    zero = field.zero
    for x1 in elements:
        for y1 in elements:
            if a * x1 * x1 + b * y1 * y1 != c:
                continue
            for x2 in elements:
                for y2 in elements:
                    if x1 * y2 - x2 * y1 == zero:
                        continue  # singular P
                    if a * x1 * x2 + b * y1 * y2 != zero:
                        continue
                    if a * x2 * x2 + b * y2 * y2 == d:
                        return True
    return False


def oracle_rank2_classes(field):
    """Partition unordered diagonal rank-2 forms into isometry classes,
    computing the GL_2 orbit of each still-unclassified form."""
    units = field.units()
    elements = list(field.elements())
    zero = field.zero
    forms = []
    for i, a in enumerate(units):
        for b in units[i:]:
            forms.append((a, b))
    classified: dict[tuple, int] = {}
    classes: list[set[tuple]] = []
    for form in forms:
        if form in classified:
            continue
        a, b = form
        orbit = set()
        for x1 in elements:
            for y1 in elements:
                c = a * x1 * x1 + b * y1 * y1
                if c == zero or not c.is_unit():
                    continue
                for x2 in elements:
                    for y2 in elements:
                        if x1 * y2 - x2 * y1 == zero:
                            continue
                        if a * x1 * x2 + b * y1 * y2 != zero:
                            continue
                        d = a * x2 * x2 + b * y2 * y2
                        if not d.is_unit():
                            continue
                        key = (c, d) if field.unit_index(c) <= field.unit_index(d) else (d, c)
                        orbit.add(key)
        orbit.add(form)
        idx = len(classes)
        classes.append(orbit)
        for member in orbit:
            classified[member] = idx
    return classes


def oracle_table_orbit(t, a, b, first=None):
    """Yield (c, d) for every invertible P = [[x1, x2], [y1, y2]] taking
    diag(a, b) to P^T diag(a, b) P = diag(c, d) with c and d units, all as
    positions; when ``first`` is given, only the P with c == first."""
    add, mul, zero, is_unit = t.add, t.mul, t.zero, t.is_unit
    n = len(t.elements)
    a_sq = [mul[a][mul[x][x]] for x in range(n)]
    b_sq = [mul[b][mul[y][y]] for y in range(n)]
    for x1 in range(n):
        ax1 = mul[mul[a][x1]]
        mul_x1 = mul[x1]
        for y1 in range(n):
            c = add[a_sq[x1]][b_sq[y1]]
            if not is_unit[c] or (first is not None and c != first):
                continue
            by1 = mul[mul[b][y1]]
            for x2 in range(n):
                for y2 in range(n):
                    if mul_x1[y2] == mul[x2][y1]:
                        continue  # singular P
                    if add[ax1[x2]][by1[y2]] != zero:
                        continue
                    d = add[a_sq[x2]][b_sq[y2]]
                    if is_unit[d]:
                        yield c, d


def oracle_pair_lattice(field):
    """Rows <a> - <c> and <a> + <b> - <c> - <d> for isometric form pairs."""
    field = _check_field(make_ring(field))
    units = field.units()
    index = field.unit_index_by_coords()
    n = len(units)
    rows = []
    seen = set()

    def emit(signed):
        row = [0] * n
        for sign, u in signed:
            row[index[u.coords]] += sign
        row = tuple(row)
        if any(row) and row not in seen:
            seen.add(row)
            rows.append(row)

    # rank 1: isometric pairs by exhaustive scaling search
    for a in units:
        for c in units:
            if isometric(DiagForm(field, (a,)), DiagForm(field, (c,))):
                emit(((1, a), (-1, c)))

    # rank 2: within-class pairs from the orbit partition
    for cls in _rank2_classes(field):
        members = sorted(cls, key=lambda fm: (index[fm[0].coords], index[fm[1].coords]))
        for i, (a, b) in enumerate(members):
            for (c, d) in members[i + 1 :]:
                emit(((1, a), (1, b), (-1, c), (-1, d)))
    return rows
