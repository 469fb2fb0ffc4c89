import random
from math import gcd, lcm

import pytest

from conftest import GW_SPECS
from presab_oracle import EchelonLattice

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis comes with the `test` extra
    st = None

from mwkit import gwring
from mwkit.finring import parse_ring_spec
from mwkit.presab import (
    ZLattice,
    _smith,
    contains,
    det,
    element_order,
    mat_identity,
    mat_mul,
    mat_vec,
    quotient,
    smith_normal_form,
)


def assert_snf_valid(m):
    u, d, v = smith_normal_form(m)
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
    _, d, _ = smith_normal_form([[2, -2]])
    assert d == [[2, 0]]


def test_snf_zero_matrix():
    u, d, v = smith_normal_form([[0, 0], [0, 0]])
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
        _, d, _, _ = _smith(m)
        expected = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        assert d == [[int(x) for x in expected.row(i)] for i in range(expected.rows)], m


def _matrices(max_entry):
    """Integer matrices of 1 to 5 rows and 1 to 5 columns."""
    shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))
    return shapes.flatmap(lambda rc: st.lists(
        st.lists(st.integers(-max_entry, max_entry), min_size=rc[1], max_size=rc[1]),
        min_size=rc[0], max_size=rc[0]))


def _check_smith(m):
    u, d, v, vinv = _smith(m)
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


def _dense_class(p, vec):
    """to_canonical by its definition: the full product y = vec V."""
    y = mat_vec(vec, p.basis_change)
    return (tuple(y[i] % p.diagonal[i] for i in p.torsion_coords),
            tuple(y[i] for i in p.free_coords))


def _dense_order(p, vec):
    y = mat_vec(vec, p.basis_change)
    if any(y[i] for i in p.free_coords):
        return None
    order = 1
    for i in p.torsion_coords:
        order = lcm(order, p.diagonal[i] // gcd(p.diagonal[i], y[i]))
    return order


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_class_readers_match_their_dense_definitions():
    @settings(max_examples=300)
    @given(_matrices(30), st.data())
    def check(m, data):
        n = len(m[0])
        p = quotient(n, m)
        vec = data.draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
        cls = _dense_class(p, vec)
        assert p.to_canonical(vec) == cls
        assert p.class_is_zero(vec) == (not any(cls[0]) and not any(cls[1]))
        assert p.element_order(vec) == _dense_order(p, vec)
        assert p.to_canonical(p.from_canonical(cls)) == cls
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
        weights = data.draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
        inside = [sum(w * row[k] for w, row in zip(weights, m)) for k in range(n)]
        noise = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        for vec in (inside, [a + b for a, b in zip(inside, noise)]):
            assert lat.contains(vec) == p.class_is_zero(vec), (m, vec)
        assert lat.contains(inside)

    check()


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
    assert contains([[2, -2]], [4, -4]) is True
    assert contains([[2, -2]], [1, -1]) is False
    assert contains([], [0, 0]) is True


def test_contains_every_relation_row():
    rng = random.Random(11)
    for _ in range(20):
        cols = rng.randrange(1, 5)
        rows = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rng.randrange(1, 5))]
        for r in rows:
            assert contains(rows, r)


def test_element_order_examples():
    p = quotient(2, [[2, -2]])
    assert p.element_order([1, -1]) == 2
    assert p.element_order([0, 0]) == 1
    assert p.element_order([1, 0]) is None
    assert element_order(p, [1, -1]) == 2


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
        assert ts == tuple(
            (a + b) % d for a, b, d in zip(tv, tw, [p.diagonal[i] for i in p.torsion_coords])
        )


def test_from_canonical_is_a_section():
    p = quotient(3, [[2, 0, -2], [0, 4, 0]])
    rng = random.Random(13)
    for _ in range(50):
        tor = tuple(rng.randrange(d) for d in p.torsion)
        free = tuple(rng.randrange(-5, 6) for _ in range(p.rank))
        vec = p.from_canonical((tor, free))
        assert p.to_canonical(vec) == (tor, free)


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
            contains([[1, 0]], [bad, 0])
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
    rows = []  # the rows relation_lattice inserts, in order

    class Recording(ZLattice):
        def add(self, vec):
            rows.append(list(vec))
            return super().add(vec)

    monkeypatch.setattr(gwring, "ZLattice", Recording)
    ring = parse_ring_spec(spec)
    gwring.relation_lattice(ring, kind)
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
    basis = gwring.relation_lattice("GF(2^6)", "hopf").basis()
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
