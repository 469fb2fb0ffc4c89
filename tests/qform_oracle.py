"""Reference quadratic form searches on ring elements, kept for tests only.

These are the searches that ``mwkit.qform`` replaced with integer tables:
the rank-2 isometry test and the GL_2 orbit partition, both written with
``RingElement`` arithmetic.  They are quartic in the field order, so the
tests run them on fields of order at most 13.
"""


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
