import ast
import random
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import GW_SPECS
from presab_oracle import EchelonLattice, det, mat_mul, oracle_quotient, oracle_smith

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis comes with the `test` extra
    st = None

from mwkit import gwring, presab
from mwkit.finring import parse_ring_spec
from mwkit.presab import (
    SnfPresentation,
    ZLattice,
    _smith,
    mat_identity,
    quotient,
)


def assert_snf_valid(m):
    u, d, v, _ = oracle_smith(m)
    assert mat_mul(mat_mul(u, [list(r) for r in m]), v) == d
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        assert diag[i] >= 0
    for i in range(len(d)):
        for j in range(len(d[0]) if d else 0):
            if i != j:
                assert d[i][j] == 0
    return u, d, v


def test_snf_single_row():
    d, _ = _smith([[2, -2]])
    assert d == [[2, 0]]


def test_snf_zero_matrix():
    u, d, v, _ = oracle_smith([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]
    assert u == mat_identity(2)
    assert v == mat_identity(2)


def test_snf_diag_2_3():
    u, d, v = assert_snf_valid([[2, 0], [0, 3]])
    assert d == [[1, 0], [0, 6]]


def test_snf_random_matrices():
    rng = random.Random(20240817)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        assert_snf_valid(m)


def _sample_matrices():
    """Seeded small matrices, with zero, repeated and dependent rows mixed in."""
    rng = random.Random(31)
    out = [[[0]], [[0, 0, 0]], [[5], [0], [-10]], [[2, 4], [4, 8]], [[0, 0], [0, 7]]]
    for _ in range(80):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-12, 13) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            q = rng.randrange(-3, 4)
            m[-1] = [q * x for x in m[0]]
        out.append(m)
    return out


def test_smith_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    for m in _sample_matrices():
        d, _ = _smith(m)
        expected = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        assert d == [[int(x) for x in expected.row(i)] for i in range(expected.rows)], m


def _matrices(max_entry):
    """Integer matrices of 1 to 5 rows and 1 to 5 columns."""
    shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))
    return shapes.flatmap(lambda rc: st.lists(
        st.lists(st.integers(-max_entry, max_entry), min_size=rc[1], max_size=rc[1]),
        min_size=rc[0], max_size=rc[0]))


def _check_smith(m):
    u, d, v, vinv = oracle_smith(m)
    rows, cols = len(m), len(m[0])
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert mat_mul(v, vinv) == mat_identity(cols)
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    assert all(x >= 0 for x in diag)
    # d1 | d2 | ...: every entry divides the next, so zeros come last
    assert all(diag[i + 1] % diag[i] == 0 if diag[i] else diag[i + 1] == 0
               for i in range(len(diag) - 1))


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_smith_properties_on_random_matrices():
    @settings(max_examples=300)
    @given(_matrices(30))
    def check(m):
        _check_smith(m)

    check()


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_class_readers_match_their_dense_definitions():
    # the dense oracle reads every class through the full product vec V of
    # its own Smith basis; orders and which vectors share a class do not
    # depend on the basis
    @settings(max_examples=300)
    @given(_matrices(30), st.data())
    def check(m, data):
        n = len(m[0])
        p, dense = quotient(n, m), oracle_quotient(n, m)
        vec = data.draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
        cls = p.to_canonical(vec)
        assert (p.rank, p.torsion) == (dense.rank, dense.torsion)
        assert all(0 <= x < d for x, d in zip(cls[0], p.torsion)) and len(cls[1]) == p.rank
        assert p.class_is_zero(vec) == dense.class_is_zero(vec)
        assert p.class_is_zero(vec) == (not any(cls[0]) and not any(cls[1]))
        assert p.element_order(vec) == dense.element_order(vec)
        for bad in (vec[:-1], vec + [0]):
            for reader in (p.to_canonical, p.class_is_zero, p.element_order):
                with pytest.raises(ValueError):
                    reader(bad)

    check()


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_lattice_membership_matches_smith_coordinates():
    # two independent membership tests: echelon elimination and the Smith
    # coordinates of the quotient
    @settings(max_examples=300)
    @given(_matrices(6), st.data())
    def check(m, data):
        n = len(m[0])
        lat, p = ZLattice(n, m), quotient(n, m)
        assert p == lat.quotient()
        weights = data.draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
        inside = [sum(w * row[k] for w, row in zip(weights, m)) for k in range(n)]
        noise = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        for vec in (inside, [a + b for a, b in zip(inside, noise)]):
            assert lat.contains(vec) == p.class_is_zero(vec), (m, vec)
        assert lat.contains(inside)

    check()


def _mixed_pivot_matrices():
    """Rows whose Hermite form mixes pivots 1 with larger ones, plus dependent rows.

    Each chosen column gets one row with its pivot there and random entries
    to its right; the rows are then mixed by row operations, so the input is
    not yet in Hermite form.
    """
    pivots = st.sampled_from([1, 1, 1, 2, 3, 4, 5, 6, 9])

    def rows(n):
        return st.lists(st.tuples(pivots, st.lists(st.integers(-20, 20), min_size=n, max_size=n)),
                        min_size=n, max_size=n).flatmap(lambda spec: _mix(n, spec))

    return st.integers(1, 6).flatmap(rows)


def _mix(n, spec):
    chosen = [(c, d, tail) for c, (d, tail) in enumerate(spec) if tail[0] % 3]
    base = [[0] * c + [d] + tail[c + 1:] for c, d, tail in chosen] or [[0] * n]
    ops = st.lists(st.tuples(st.integers(0, len(base) - 1), st.integers(0, len(base) - 1),
                             st.integers(-3, 3)), max_size=6)

    def apply(steps):
        m = [list(r) for r in base]
        for i, j, q in steps:
            if i != j:
                m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        return m + [[a + b for a, b in zip(m[0], m[-1])]]

    return ops.map(apply)


def _check_against_dense_oracle(m, vecs):
    n = len(m[0])
    p, dense = quotient(n, m), oracle_quotient(n, m)
    assert (p.rank, p.torsion) == (dense.rank, dense.torsion)
    assert len(p._projections) == p.rank + len(p.torsion)
    for v in vecs:
        assert p.element_order(v) == dense.element_order(v), (m, v)
        for w in vecs:
            diff = [a - b for a, b in zip(v, w)]
            assert (p.to_canonical(v) == p.to_canonical(w)) == dense.class_is_zero(diff), (m, v, w)


@pytest.mark.skipif(st is None, reason="needs hypothesis")
@pytest.mark.parametrize("matrices", ["random", "mixed pivots"])
def test_quotient_matches_dense_smith_oracle(matrices):
    strategy = _matrices(30) if matrices == "random" else _mixed_pivot_matrices()

    @settings(max_examples=300)
    @given(strategy, st.data())
    def check(m, data):
        n = len(m[0])
        vec = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
        vecs = data.draw(st.lists(vec, min_size=1, max_size=4))
        # a vector and its translate by a lattice vector share a class
        weights = data.draw(st.lists(st.integers(-2, 2), min_size=len(m), max_size=len(m)))
        vecs.append([x + sum(w * r[k] for w, r in zip(weights, m)) for k, x in enumerate(vecs[0])])
        _check_against_dense_oracle(m, vecs)

    check()


def test_presentation_stores_only_kept_coordinates():
    assert [f.name for f in fields(SnfPresentation)] == [
        "ambient", "rank", "torsion", "_projections"]
    p = quotient(4, [[1, 2, 0, 5], [0, 0, 3, 0]])
    assert (p.rank, p.torsion) == (2, (3,))
    assert len(p._projections) == 3
    assert all(len(vec) == 4 for vec in p._projections)
    p = quotient(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (p.rank, p.torsion, p._projections) == (0, (), ())
    assert p.class_is_zero([4, -1, 7])


def test_only_presab_reads_the_projections():
    # a class is read by SnfPresentation.class_order, and no other module
    # reaches into the stored projections or their split
    src = Path(presab.__file__).parent
    readers = {(path.relative_to(src).as_posix(), node.attr)
               for path in sorted(src.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in ("_columns", "_projections")}
    assert readers == {("presab.py", "_columns"), ("presab.py", "_projections")}


@pytest.mark.parametrize("spec", ["Z/127", "Z/257", "GF(2^8)"])
def test_smith_runs_on_the_core_block_only(spec, monkeypatch):
    # every pivot of these reduced bases but at most one is 1, so the Smith
    # form sees at most one row; the whole basis is 125 x 126 and larger
    shapes = []
    smith = presab._smith

    def recording(m):
        shapes.append((len(m), len(m[0])))
        return smith(m)

    monkeypatch.setattr(presab, "_smith", recording)
    gwring.present(spec, "reduced")
    assert shapes and all(rows <= 1 and cols <= 2 for rows, cols in shapes), shapes


def _assert_smith_matches_oracle(m):
    # _smith keeps only D and V; with the oracle's pivot choices and column
    # operations they equal the oracle's, for which U M V = D is checked
    _, d, v, _ = oracle_smith(m)
    assert _smith(m) == (d, v), m


def test_smith_matches_the_oracle_on_sample_matrices():
    for m in _sample_matrices():
        _assert_smith_matches_oracle(m)


@pytest.mark.skipif(st is None, reason="needs hypothesis")
@pytest.mark.parametrize("matrices", ["random", "mixed pivots"])
def test_smith_matches_the_oracle_on_random_matrices(matrices):
    strategy = _matrices(30) if matrices == "random" else _mixed_pivot_matrices()

    @settings(max_examples=300)
    @given(strategy)
    def check(m):
        _assert_smith_matches_oracle(m)

    check()


@pytest.mark.parametrize("kind", ["hopf", "reduced"])
def test_smith_matches_the_oracle_on_presentation_cores(kind, monkeypatch):
    # the cores quotient() hands to _smith; eight Z/3's give a 128 x 129 core
    cores = []
    smith = presab._smith

    def recording(m):
        cores.append([list(row) for row in m])
        return smith(m)

    monkeypatch.setattr(presab, "_smith", recording)
    for spec in GW_SPECS + ["prod(" + ",".join(["Z/3"] * k) + ")" for k in (5, 8)]:
        gwring.present(spec, kind)
    monkeypatch.undo()
    assert max(len(m) for m in cores) == 128
    for m in cores:
        _assert_smith_matches_oracle(m)


@pytest.mark.parametrize("kind", ["hopf", "reduced"])
@pytest.mark.parametrize("spec", ["Z/9", "GF(2^2)", "Z/13", "GR(4,2)"])
def test_present_builds_one_lattice(spec, kind, monkeypatch):
    # the presentation is read off the presented lattice itself; inserting
    # its basis into a second lattice raised the peak memory of reduced
    # present() on Z/4093 from 18.6 MB to 147.2 MB
    # relation rows enter through ZLattice._insert, which ZLattice.add also
    # calls, so counting there sees every row either way.  No residue field
    # of these rings is F_2, so both kinds present on the C square classes,
    # and the lattice property lifts the basis of L' to Z^{units} in one
    # lattice, adding one kernel row per unit that is not the last of its
    # class.
    built, inserts = [], []
    init, insert = ZLattice.__init__, ZLattice._insert

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    def counting_insert(self, v):
        inserts.append(self.n)
        return insert(self, v)

    monkeypatch.setattr(ZLattice, "__init__", counting_init)
    monkeypatch.setattr(ZLattice, "_insert", counting_insert)
    ring = parse_ring_spec(spec)
    n = len(ring.units())
    classes = n // len(ring.unit_squares())
    p = gwring.present(ring, kind)
    presented = list(built), list(inserts)
    built.clear()
    inserts.clear()
    p.lattice
    assert presented[0] == [classes] < [n] and built == [n]
    assert presented[1] == [classes] * len(presented[1])  # none on GF(2^2), where C = 1
    assert inserts and inserts == [n] * (len(p._presented.basis()) + n - classes)


def random_unimodular(rng, n, steps=12):
    m = mat_identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randrange(-3, 4)
        for k in range(n):
            m[i][k] += q * m[j][k]
    return m


def test_invariants_stable_under_unimodular_premultiplication():
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        base = quotient(cols, m)
        w = random_unimodular(rng, rows)
        twisted = quotient(cols, mat_mul(w, m))
        assert twisted.rank == base.rank
        assert twisted.torsion == base.torsion


def test_quotient_examples():
    p = quotient(2, [[2, -2]])
    assert (p.rank, p.torsion) == (1, (2,))
    p = quotient(2, [])
    assert (p.rank, p.torsion) == (2, ())
    assert p.to_canonical([3, -1]) == ((), (3, -1))
    assert p.element_order([0, 0]) == 1 and p.element_order([0, 1]) is None
    p = quotient(1, [[0]])
    assert (p.rank, p.torsion) == (1, ())
    assert p.rank + len(p.torsion) <= 1


def test_quotient_rejects_bad_width():
    with pytest.raises(ValueError):
        quotient(3, [[1, 2]])


def test_contains_examples():
    assert ZLattice(2, [[2, -2]]).contains([4, -4]) is True
    assert ZLattice(2, [[2, -2]]).contains([1, -1]) is False
    assert ZLattice(2, []).contains([0, 0]) is True


def test_contains_every_relation_row():
    rng = random.Random(11)
    for _ in range(20):
        cols = rng.randrange(1, 5)
        rows = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rng.randrange(1, 5))]
        for r in rows:
            assert ZLattice(cols, rows).contains(r)


def test_element_order_examples():
    p = quotient(2, [[2, -2]])
    assert p.element_order([1, -1]) == 2
    assert p.element_order([0, 0]) == 1
    assert p.element_order([1, 0]) is None


def test_canonical_class_additivity():
    rng = random.Random(7)
    p = quotient(3, [[2, 0, -2], [0, 4, 0]])
    for _ in range(50):
        v = [rng.randrange(-8, 9) for _ in range(3)]
        w = [rng.randrange(-8, 9) for _ in range(3)]
        tv, fv = p.to_canonical(v)
        tw, fw = p.to_canonical(w)
        ts, fs = p.to_canonical([a + b for a, b in zip(v, w)])
        assert fs == tuple(a + b for a, b in zip(fv, fw))
        assert ts == tuple((a + b) % d for a, b, d in zip(tv, tw, p.torsion))
    assert p.torsion == oracle_quotient(3, [[2, 0, -2], [0, 4, 0]]).torsion


def test_zlattice_membership_and_growth():
    lat = ZLattice(3)
    assert lat.contains([0, 0, 0])
    assert lat.add([2, 0, -2]) is True
    assert lat.add([4, 0, -4]) is False
    assert lat.contains([6, 0, -6])
    assert not lat.contains([1, 0, -1])
    lat.add([0, 1, 1])
    assert lat.contains([2, 3, 1])
    other = ZLattice(3, [[0, 1, 1], [2, 0, -2]])
    assert lat.spans_same(other)


def test_det_values():
    assert det([[3]]) == 3
    assert det([[1, 2], [3, 4]]) == -2
    assert det(mat_identity(4)) == 1
    assert det([[0, 1], [1, 0]]) == -1


def test_entries_must_be_integers():
    # a float or a str entry was kept as it was: quotient(1, [[2.5]]) had
    # torsion (2.5,) and [1.5, 0] spanned a lattice holding [3, 0]
    for bad in (2.5, "3", 1.0):
        with pytest.raises(TypeError):
            quotient(1, [[bad]])
        with pytest.raises(TypeError):
            ZLattice(2, [[bad, 0]])
        with pytest.raises(TypeError):
            ZLattice(2).contains([0, bad])
        with pytest.raises(TypeError):
            ZLattice(2, [[1, 0]]).contains([bad, 0])
    with pytest.raises(TypeError):
        ZLattice(2, [[1.5, 0]]).contains([3, 0])
    # zeros are never read, and bools are stored as the ints they equal
    assert ZLattice(2, [[0.0, 2]]).basis() == [(0, 2)]
    lat = ZLattice(2, [[True, False]])
    assert [tuple(map(type, row)) for row in lat.basis()] == [(int, int)]
    assert lat.basis() == [(1, 0)] and lat.contains([False, False])


def _check_against_echelon(n, rows, rng):
    """add answers, contains answers and the span agree with the dense echelon oracle."""
    lat, oracle = ZLattice(n), EchelonLattice(n)
    assert [lat.add(r) for r in rows] == [oracle.add(r) for r in rows]
    assert lat.rank() == oracle.rank()
    for _ in range(8):
        weights = [rng.randrange(-3, 4) for _ in rows]
        member = [sum(w * r[k] for w, r in zip(weights, rows)) for k in range(n)]
        perturbed = list(member)
        perturbed[rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
        for vec in (member, perturbed):
            assert lat.contains(vec) == oracle.contains(vec), (rows, vec)
        assert lat.contains(member)
    assert all(oracle.contains(r) for r in lat.basis())
    assert all(lat.contains(r) for r in oracle.basis())
    assert lat.spans_same(ZLattice(n, oracle.basis()))


def _row_lists(max_entry, max_rows=8, max_cols=6):
    """Lists of 0 to max_rows integer rows of one width, often sparse."""
    entries = st.one_of(st.just(0), st.integers(-max_entry, max_entry))
    return st.integers(1, max_cols).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), max_size=max_rows).map(lambda rows: (n, rows)))


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_lattice_matches_echelon_oracle_on_random_rows():
    @settings(max_examples=300)
    @given(_row_lists(12), st.randoms(use_true_random=False))
    def check(shape, rng):
        _check_against_echelon(*shape, rng)

    check()


@pytest.mark.parametrize("kind", ["hopf", "reduced"])
@pytest.mark.parametrize("spec", GW_SPECS)
def test_lattice_matches_echelon_oracle_on_relation_rows(spec, kind, monkeypatch):
    rows = []  # the rows the lift to Z^{units} inserts, in order, densified

    class Recording(ZLattice):
        # relation rows enter sparse through _insert, which add also calls
        def _insert(self, v):
            row = [0] * self.n
            for k, x in v.items():
                row[k] = x
            rows.append(row)
            return super()._insert(v)

    monkeypatch.setattr(gwring, "ZLattice", Recording)
    ring = parse_ring_spec(spec)
    p = gwring.present(ring, kind)
    rows.clear()  # those of L', in the dimension of the presentation
    lattice = p.lattice
    # the rows span the lattice, so a row that skipped _insert shows here
    assert len(rows) >= lattice.rank(), "relation rows went in unrecorded"
    _check_against_echelon(len(ring.units()), rows, random.Random(spec + kind))


def _pivots(basis):
    return [next(k for k, x in enumerate(row) if x) for row in basis]


def _assert_reduced_hermite(basis):
    pivots = _pivots(basis)
    assert pivots == sorted(set(pivots))
    for row, p in zip(basis, pivots):
        assert row[p] > 0
        for other, q in zip(basis, pivots):
            if q > p:
                assert 0 <= row[q] < other[q], (basis, p, q)


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_basis_is_the_unique_reduced_hermite_form():
    @settings(max_examples=300)
    @given(_row_lists(30), st.randoms(use_true_random=False))
    def check(shape, rng):
        n, rows = shape
        basis = ZLattice(n, rows).basis()
        _assert_reduced_hermite(basis)
        for _ in range(4):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert ZLattice(n, shuffled).basis() == basis
        # the basis spans the same lattice, so it is its own reduced form
        assert ZLattice(n, basis).basis() == basis

    check()


def test_hopf_basis_of_gf64_is_reduced():
    # the dense echelon basis of this lattice had 300-digit entries
    basis = gwring.present("GF(2^6)", "hopf").lattice.basis()
    assert basis
    _assert_reduced_hermite(basis)


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_pivots_of_a_full_rank_square_input_multiply_to_its_determinant():
    square = st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=n, max_size=n))

    @settings(max_examples=300)
    @given(square.filter(det))
    def check(m):
        basis = ZLattice(len(m), m).basis()
        product = 1
        for row, p in zip(basis, _pivots(basis)):
            product *= row[p]
        assert len(basis) == len(m) and product == abs(det(m))

    check()
