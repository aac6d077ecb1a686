import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import dense_det, dense_kernel, dense_mul, reference_anticommutator_scalar, run_optimized
from nilrad import exactlin as el
from nilrad.exactlin import Matrix


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows).map(Matrix.from_rows)


def test_rational_string_round_trip():
    assert el.rat_str(F(3, 4)) == "3/4"
    assert el.rat_str(F(-7, 1)) == "-7"
    assert el.rat("3/4") == F(3, 4)
    assert el.rat("-7") == F(-7)


def test_nullspace_identity_is_trivial():
    assert el.nullspace(Matrix.identity(2)) == []


def test_nullspace_single_equation():
    ker = el.nullspace(Matrix.from_rows([[1, -1]]))
    assert len(ker) == 1
    assert ker[0][0] == ker[0][1] != 0


def test_nullspace_zero_matrix_is_everything():
    assert len(el.nullspace(Matrix.zeros(3, 3))) == 3


def test_rank_basics():
    assert el.rank(Matrix.identity(5)) == 5
    assert el.rank(Matrix.zeros(4, 4)) == 0
    assert el.rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_solve_and_inverse():
    m = Matrix.from_rows([[2, 1], [1, 3]])
    x = el.solve(m, [F(5), F(10)])
    assert el.mat_vec(m, x) == (F(5), F(10))
    assert m * el.inverse(m) == Matrix.identity(2)
    assert el.solve(Matrix.from_rows([[1, 1], [1, 1]]), [F(0), F(1)]) is None


def test_determinant_and_positive_definite():
    assert el.is_positive_definite(Matrix.from_rows([[2, 1], [1, 3]]))
    assert not el.is_positive_definite(Matrix.from_rows([[1, 2], [2, 1]]))
    assert not el.is_positive_definite(Matrix.from_rows([[0, 1], [1, 0]]))


@settings(max_examples=60, deadline=None)
@given(small_matrix(4, 5))
def test_rank_nullity(m):
    assert el.rank(m) + len(el.nullspace(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(small_matrix(4, 5))
def test_nullspace_exact_substitution(m):
    for v in el.nullspace(m):
        assert all(x == 0 for x in el.mat_vec(m, v))


@settings(max_examples=40, deadline=None)
@given(small_matrix(3, 3), st.lists(rationals, min_size=3, max_size=3))
def test_solve_residual_exactly_zero(m, rhs):
    x = el.solve(m, rhs)
    if x is not None:
        assert list(el.mat_vec(m, x)) == [el.rat(b) for b in rhs]


def sparse(rows):
    return [[(j, x) for j, x in enumerate(r) if x] for r in rows]


_seeded = random.Random(3)
SEEDED_SYSTEM = (9, sparse([[_seeded.randint(-4, 4) for _ in range(9)] for _ in range(6)]))
WORD_PRIMES = (2147483647, 2147483629)


@st.composite
def sparse_systems(draw):
    """(ncols, rows of (column, value) pairs): mostly one- and two-term rows
    and chains of doubletons, columns may repeat within a row, some
    coefficients near 10^9 and some rows scaled by a word-size prime."""
    n = draw(st.integers(min_value=1, max_value=10))
    term = st.tuples(st.integers(0, n - 1),
                     st.one_of(st.integers(-9, 9), st.integers(-10**9, 10**9)))
    short = st.lists(term, min_size=1, max_size=2)
    rows = draw(st.lists(st.one_of(short, short, st.lists(term, max_size=n + 2)),
                         max_size=10))
    if n > 1 and draw(st.booleans()):
        lo = draw(st.integers(0, n - 2))
        hi = draw(st.integers(lo + 1, n - 1))
        rows += [[(c, draw(term)[1] or 1), (c + 1, draw(term)[1] or 1)]
                 for c in range(lo, hi)]
    scales = draw(st.lists(st.sampled_from((1, 1, 1) + WORD_PRIMES),
                           min_size=len(rows), max_size=len(rows)))
    rows = [[(c, x * s) for c, x in r] for r, s in zip(rows, scales)]
    return n, draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
@example(SEEDED_SYSTEM)
def test_structured_kernel_is_the_echelon_basis(system):
    ncols, rows = system
    got = el.nullspace_int_rows(rows, ncols)
    assert got == dense_kernel(rows, ncols)
    dense = [[sum(x for c, x in r if c == j) for j in range(ncols)] for r in rows]
    assert len(got) == ncols - el.rank(Matrix.from_rows(dense or [[0] * ncols]))
    for v in got:
        assert all(isinstance(x, int) for x in v)
        assert math.gcd(*v) == 1 and next(x for x in v if x) > 0
        assert all(sum(x * v[c] for c, x in r) == 0 for r in rows)


@st.composite
def block_systems(draw):
    """(ncols, rows) whose residual splits into blocks: two to four blocks of
    rows with three or more terms, each on a shuffled column set that
    interleaves with the others and with fewer rows than columns, so every
    block has a kernel; one-term rows on further columns, rows lying wholly
    inside those, rows meeting them and a block, and columns no row holds."""
    sizes = draw(st.lists(st.integers(3, 6), min_size=2, max_size=4))
    nsingle, nspare = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    ncols = sum(sizes) + nsingle + nspare
    cols = draw(st.permutations(range(ncols)))
    coef = st.one_of(st.integers(-5, 5), st.integers(-10**9, 10**9)).filter(bool)
    rows, off = [], 0
    for size in sizes:
        block = cols[off:off + size]
        off += size
        for _ in range(draw(st.integers(1, size - 1))):
            support = draw(st.lists(st.sampled_from(block), min_size=3, max_size=size,
                                    unique=True))
            rows.append([(c, draw(coef)) for c in support])
    singles = cols[off:off + nsingle]
    rows += [[(c, draw(coef))] for c in singles]
    if singles:
        inside = st.lists(st.sampled_from(singles), min_size=1, max_size=3)
        rows += [[(c, draw(coef)) for c in draw(inside)]
                 for _ in range(draw(st.integers(0, 2)))]
        rows += [[(c, draw(coef)) for c in draw(inside) + draw(
                     st.lists(st.sampled_from(cols[:off]), min_size=1, max_size=3))]
                 for _ in range(draw(st.integers(0, 2)))]
    return ncols, draw(st.permutations(rows))


# blocks on columns {0, 3, 5, 7} and {1, 2, 6, 8}, whose free columns 5, 6,
# 7, 8 interleave; columns 4 and 10 have one-term rows, a block row meets 4,
# one row lies wholly inside {4, 10}, and column 9 is held by no row
INTERLEAVED_BLOCKS = (11, [
    [(0, 1), (3, 2), (5, -1)], [(3, 1), (5, 1), (7, 3), (4, 2)],
    [(1, 2), (2, -3), (6, 1)], [(2, 1), (6, 4), (8, -1)],
    [(4, 7)], [(10, -2)], [(4, 1), (10, 3)]])


@settings(max_examples=150, deadline=None)
@given(block_systems())
@example(INTERLEAVED_BLOCKS)
def test_block_residual_kernel_is_the_echelon_basis(system):
    # the residual is reduced block by block; the merged vectors must be the
    # dense echelon basis of the whole system, in the same order
    ncols, rows = system
    assert el.nullspace_int_rows(rows, ncols) == dense_kernel(rows, ncols)


def _row_primitive(row):
    """Reference: the content normaliser `_int_rref` used before `_primitive`; it
    divides by the content and leaves the sign alone."""
    g = 0
    for x in row:
        if x:
            g = math.gcd(g, x)
            if g == 1:
                return row
    return [x // g for x in row] if g > 1 else row


def _sign_flip_rref(rows):
    """Reference: the integer RREF with `_row_primitive` and a hand-written
    sign flip of each new or updated pivot row."""
    work = [_row_primitive(list(r)) for r in rows if any(r)]
    pivots, prows = [], []
    for r in work:
        for c, p in zip(pivots, prows):
            if r[c]:
                g = math.gcd(p[c], r[c])
                a, b = p[c] // g, r[c] // g
                r = [a * x - b * y for x, y in zip(r, p)]
        if not any(r):
            continue
        c = next(j for j, x in enumerate(r) if x)
        r = _row_primitive(r)
        if r[c] < 0:
            r = [-x for x in r]
        for k, p in enumerate(prows):
            if p[c]:
                g = math.gcd(r[c], p[c])
                a, b = r[c] // g, p[c] // g
                pnew = _row_primitive([a * x - b * y for x, y in zip(p, r)])
                if pnew[pivots[k]] < 0:
                    pnew = [-x for x in pnew]
                prows[k] = pnew
        pos = sum(1 for q in pivots if q < c)
        pivots.insert(pos, c)
        prows.insert(pos, r)
    return pivots, prows


# rows with a common factor and either sign, so that content and sign both need fixing
scaled_int_rows = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
              st.sampled_from([1, -1, 2, -3, 6, -12])).map(lambda rk: [rk[1] * x for x in rk[0]]),
    max_size=6))


@settings(max_examples=200, deadline=None)
@given(scaled_int_rows)
@example([[-2, 4, 6], [0, -3, 9]])
def test_int_rref_pivot_rows_are_primitive_with_positive_pivots(rows):
    before = [list(r) for r in rows]
    pivots, prows = el._int_rref(rows)
    assert rows == before
    assert (pivots, prows) == _sign_flip_rref(rows)
    for c, p in zip(pivots, prows):
        assert math.gcd(*p) == 1 and next(x for x in p if x) == p[c] > 0
        assert all(q[c] == 0 for q in prows if q is not p)


def test_kernel_of_rows_scaled_by_word_size_primes():
    # rows 0 and 1 vanish modulo the first and the second prime; the kernel
    # is the echelon basis of the integer system all the same
    p0, p1 = WORD_PRIMES
    rng = random.Random(5)
    base = [[rng.randint(-4, 4) for _ in range(8)] for _ in range(5)]
    assert el.rank(Matrix.from_rows(base)) == 5
    rows = sparse([[p0 * x for x in base[0]], [p1 * x for x in base[1]]] + base[2:])
    got = el.nullspace_int_rows(rows, 8)
    assert len(got) == 3
    assert got == dense_kernel(rows, 8)


def test_doubleton_chain_back_substitutes_large_entries():
    # p x0 + q x1 = 0 and p x1 + q x2 = 0: the kernel (q^2, -pq, p^2) needs
    # integer scaling at each back-substitution step
    p, q = 10**9 + 7, 10**9 + 9
    rows = [[(1, p), (2, q)], [(0, p), (1, q)]]
    assert el.nullspace_int_rows(rows, 3) == [[q * q, -p * q, p * p]]
    assert el.nullspace_int_rows(rows, 3) == dense_kernel(rows, 3)


def test_verify_kernel_is_exact():
    rows = sparse([[1, 2, -1], [0, 3, 3]])
    v = [3, -1, 1]
    assert el.verify_kernel(rows, [v])
    assert el.verify_kernel(rows, [[-2 * x for x in v], [F(x, 7) for x in v]])
    for k in range(3):
        off = list(v)
        off[k] += 1
        assert not el.verify_kernel(rows, [v, off])


def test_verify_kernel_of_no_vector_reads_no_row():
    class Unread(list):
        def __iter__(self):
            raise AssertionError("a row was read with no vector to check")

    rows = sparse([[1, 2, -1], [0, 3, 3]])
    assert el.verify_kernel(rows, []) is True
    assert el.verify_kernel(Unread(rows), []) is True


def test_kernel_certification_survives_optimize_flag():
    # a wrong kernel from the residual echelon form must raise even when
    # asserts are compiled away, also when only one block's basis is wrong
    proc = run_optimized("""
        import sys
        from nilrad import exactlin as el
        if __debug__:
            sys.exit(2)
        rows = [[(0, 1), (1, 1), (2, 1)], [(0, 1), (1, 2), (3, 1)],
                [(1, 1), (2, 3), (3, 1)]]
        if len(el.nullspace_int_rows(rows, 4)) != 1:
            sys.exit(3)
        # the three-term rows all reach the residual echelon form
        right = el._nullspace_from_rref
        el._nullspace_from_rref = lambda pivots, prows, ncols: [[1] * ncols]
        try:
            el.nullspace_int_rows(rows, 4)
        except ArithmeticError:
            pass
        else:
            sys.exit(1)
        # two blocks, on columns 0-3 and on 4-7: the first keeps its basis,
        # the second gets a wrong one
        rows += [[(c + 4, x) for c, x in r] for r in rows]
        calls = []

        def second_wrong(pivots, prows, ncols):
            calls.append(ncols)
            basis = right(pivots, prows, ncols)
            return basis if len(calls) == 1 else [[1] * ncols]

        el._nullspace_from_rref = right
        if len(el.nullspace_int_rows(rows, 8)) != 2:
            sys.exit(4)
        el._nullspace_from_rref = second_wrong
        try:
            el.nullspace_int_rows(rows, 8)
        except ArithmeticError:
            sys.exit(0 if calls == [4, 4] else 5)
        sys.exit(1)
    """)
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: small_matrix(n, n)))
def test_inverse_two_sided_or_singular(m):
    n = m.rows
    if el.rank(m) == n:
        inv = el.inverse(m)
        assert m * inv == inv * m == Matrix.identity(n)
    else:
        with pytest.raises(ValueError):
            el.inverse(m)


def test_minimal_polynomial_and_roots():
    m = Matrix.diagonal([1, 4, 4])
    coeffs = el.minimal_polynomial(m)
    assert coeffs == [F(4), F(-5), F(1)]          # (x-1)(x-4)
    assert el.rational_roots(coeffs) == [F(1), F(4)]


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)), min_size=1, max_size=4),
       st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
       st.booleans())
@example([(0, 1), (0, 3), (6, 4), (-6, 4)], F(1), False)
def test_rational_roots_of_a_product_of_linear_factors(factors, scale, irreducible):
    # scale * prod (q_i x - p_i), optionally times x^2 + 2, which has no rational root
    coeffs = [scale]
    for p, q in factors:
        coeffs = _poly_mul(coeffs, [F(-p), F(q)])
    if irreducible:
        coeffs = _poly_mul(coeffs, [F(2), F(0), F(1)])
    assert el.rational_roots(coeffs) == sorted({F(p, q) for p, q in factors})


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                          st.integers(1, 3)), max_size=4),
       st.lists(st.fractions(min_value=0, max_value=6, max_denominator=4).filter(bool),
                max_size=2),
       st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))
@example([(F(1), 2), (F(-1, 3), 3)], [F(2), F(2)], F(1))
@example([], [F(1, 4)], F(-1))
def test_real_root_count_counts_distinct_real_roots(factors, offsets, scale):
    # scale * prod (x - r)^m * prod (x^2 + c), c > 0: the real roots are the r
    coeffs = [scale]
    for r, m in factors:
        for _ in range(m):
            coeffs = _poly_mul(coeffs, [-r, F(1)])
    for c in offsets:
        coeffs = _poly_mul(coeffs, [c, F(0), F(1)])
    assert el.real_root_count(coeffs) == len({r for r, _ in factors})


def test_real_root_count_of_the_irrational_pencil():
    # (t^2 - 2)^2 has the two real roots +-sqrt(2), each twice, and no rational one
    coeffs = [F(4), F(0), F(-4), F(0), F(1)]
    assert el.real_root_count(coeffs) == 2 and el.rational_roots(coeffs) == []


def shaped(rows, cols):
    """Matrices of exactly rows x cols, empty shapes included."""
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: Matrix(rows, cols, tuple(map(tuple, data))))


product_pairs = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(shaped(s[0], s[1]), shaped(s[1], s[2])))


@settings(max_examples=60, deadline=None)
@given(product_pairs)
@example((Matrix.zeros(0, 3), Matrix.zeros(3, 2)))
@example((Matrix.zeros(2, 0), Matrix.zeros(0, 3)))
@example((Matrix.from_rows([["1/2", "2/3"], ["-3/4", "5/6"]]),
          Matrix.from_rows([["7/5", 0, "1/9"], ["-1/7", "3/2", 0]])))
def test_sparse_mul_matches_matrix_product(pair):
    a, b = pair
    want = dense_mul(a, b)
    assert a * b == want
    (da, ra), (db, rb) = el.scaled_sparse(a), el.scaled_sparse(b)
    prod = el.sparse_mul(ra, rb)
    assert len(prod) == a.rows
    assert all(r == sorted(r) and all(x for _, x in r) for r in prod)
    assert [[F(dict(r).get(j, 0), da * db) for j in range(b.cols)] for r in prod] == \
        [list(r) for r in want.data]


def test_anticommutator_scalar_refuses_a_change_of_one_third():
    # X = [[0, -1], [1, 0]] and Y = diag(1, -1) anticommute, and X^2 = -I; replacing Y by
    # Y + E_00 / 3 changes X Y + Y X by X / 3, which is no scalar.  The rows hold 3 X, 3 Y
    # and 3 Y + E_00, whose anticommutators are 9 times those of X, Y and Y + E_00 / 3.
    x, y, y3 = [[(1, -3)], [(0, 3)]], [[(0, 3)], [(1, -3)]], [[(0, 4)], [(1, -3)]]
    assert el.anticommutator_scalar(x, y) == 0
    assert el.anticommutator_scalar(x, x) == -18
    assert el.anticommutator_scalar(y, y) == 18
    assert el.anticommutator_scalar(x, y3) is None
    xm, ym = (Matrix.from_rows([[F(dict(r).get(j, 0), 3) for j in range(2)] for r in m])
              for m in (x, y3))
    assert xm * ym + ym * xm == xm.scale(F(1, 3))


def _sparse_rows(n):
    """n sparse integer rows in n columns, repeated columns and zero terms included."""
    entry = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(-3, 3))
    return st.lists(st.lists(entry, max_size=4), min_size=n, max_size=n)


def _scalar_rows(n):
    """c Id in n sparse rows, each diagonal entry split in two terms of its column
    around a zero term."""
    return st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, max(n - 1, 0))).map(
        lambda t: [[(i, t[1]), (t[2], 0), (i, t[0] - t[1])] for i in range(n)])


def _dense(rows):
    """The matrix of sparse rows, a repeated column adding up."""
    n = len(rows)
    m = [[0] * n for _ in range(n)]
    for i, r in enumerate(rows):
        for j, x in r:
            m[i][j] += x
    return Matrix(n, n, tuple(map(tuple, m)))


square_pairs = st.integers(0, 6).flatmap(lambda n: st.tuples(
    *(st.one_of(_sparse_rows(n), _scalar_rows(n)) for _ in range(2))))


@settings(max_examples=300, deadline=None)
@given(square_pairs)
def test_anticommutator_scalar_matches_the_block_product(pair):
    a, b = pair
    got = el.anticommutator_scalar(a, b)
    assert got == reference_anticommutator_scalar(a, b)
    am, bm = _dense(a), _dense(b)
    ab = am * bm + bm * am
    s = ab[0, 0] if a else 0
    assert got == (s if ab == Matrix.identity(len(a)).scale(s) else None)


def _ident(n, c):
    return [[(i, c)] for i in range(n)]


def test_anticommutator_scalar_cases():
    x, y = [[(1, -1)], [(0, 1)]], [[(0, 1)], [(1, -1)]]
    cases = [
        (x, x, -2), (x, y, 0), ([], [], 0),
        (_ident(3, 2), _ident(3, 5), 20),
        # the zero matrix: two cancelling terms in row 0 and a zero term in row 1
        ([[(0, 2), (0, -2)], [(1, 0)]], _ident(2, 1), 0),
        # diag(1, 2) against Id: the non-scalar diagonal diag(2, 4)
        ([[(0, 1)], [(1, 2)]], _ident(2, 1), None),
        # Id against Id + E_30: 2 Id plus one off-diagonal residue in the last row
        (_ident(4, 1), _ident(3, 1) + [[(3, 1), (0, 1)]], None),
        # Id against Id + E_33 as a repeated column: the last diagonal entry is 4, not 2
        (_ident(4, 1), _ident(3, 1) + [[(3, 1), (3, 1)]], None),
        (_ident(4, 1), _ident(3, 1) + [[(3, 1), (0, 0)]], 2),
    ]
    for a, b, want in cases:
        assert el.anticommutator_scalar(a, b) == want
        assert el.anticommutator_scalar(b, a) == want
        assert reference_anticommutator_scalar(a, b) == want


def test_product_rejects_a_shape_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(2) * Matrix.identity(3)


def leading_minors_positive(m):
    return all(dense_det(Matrix.from_rows([list(r[:k]) for r in m.data[:k]])) > 0
               for k in range(1, m.rows + 1))


@st.composite
def symmetric_matrices(draw):
    """Symmetric rationals up to 5x5; half of them Gram matrices B^t B."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        b = draw(shaped(draw(st.integers(1, 5)), n))
        return dense_mul(b.transpose(), b)
    m = draw(shaped(n, n))
    return m + m.transpose()


@settings(max_examples=120, deadline=None)
@given(symmetric_matrices())
@example(Matrix.from_rows([[0, 1], [1, 0]]))
@example(Matrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
@example(Matrix.from_rows([[1, 0], [0, 0]]))
@example(Matrix.from_rows([["1/3", "1/2"], ["1/2", "7/5"]]))
def test_positive_definite_is_sylvesters_criterion(m):
    assert el.is_positive_definite(m) == leading_minors_positive(m)


def test_positive_definite_edge_cases():
    # a zero leading minor with positive later ones, a semidefinite matrix,
    # a non-symmetric one whose symmetric part is definite, and 0x0
    assert not el.is_positive_definite(Matrix.from_rows([[0, 1], [1, 0]]))
    assert not el.is_positive_definite(Matrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
    assert not el.is_positive_definite(Matrix.from_rows([[1, 0], [0, 0]]))
    assert not el.is_positive_definite(Matrix.from_rows([[2, 1], [0, 2]]))
    assert not el.is_positive_definite(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))
    assert el.is_positive_definite(Matrix.zeros(0, 0))
    assert el.is_positive_definite(Matrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))


def test_positive_definite_identity_512_is_quadratic():
    # a diagonal gram leaves every row untouched; the leading-minor loop took about 4 s
    start = time.perf_counter()
    assert el.is_positive_definite(Matrix.identity(512))
    assert time.perf_counter() - start < 1


def characteristic_polynomial(m):
    """det(x I - m), lowest degree first, by the Faddeev-LeVerrier recursion in Fractions."""
    n = m.rows
    coeffs, mk = [F(1)], Matrix.zeros(n, n)
    for k in range(1, n + 1):
        mk = dense_mul(m, mk) + Matrix.identity(n).scale(coeffs[-1])
        coeffs.append(-sum((dense_mul(m, mk)[i, i] for i in range(n)), F(0)) / k)
    return coeffs[::-1]


def descartes_inertia(m):
    """(positive, negative) eigenvalue counts of a symmetric m: its characteristic polynomial
    has only real roots, so Descartes' rule of signs counts them exactly, on p(x) and p(-x)."""
    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    p = characteristic_polynomial(m)
    return changes(p), changes([c if k % 2 == 0 else -c for k, c in enumerate(p)])


@st.composite
def congruent_pairs(draw):
    """(m, P^t m P) for a symmetric m and a random invertible rational P."""
    m = draw(symmetric_matrices())
    p = draw(shaped(m.rows, m.rows))
    assume(el.rank(p) == m.rows)
    return m, dense_mul(dense_mul(p.transpose(), m), p)


@settings(max_examples=120, deadline=None)
@given(congruent_pairs())
@example((Matrix.from_rows([[0, 1], [1, 0]]), Matrix.from_rows([[2, 1], [1, 0]])))
def test_inertia_is_invariant_under_congruence(pair):
    m, moved = pair
    assert el.inertia(m) == el.inertia(moved) == descartes_inertia(m)


@st.composite
def symmetric_with_sparse_zeros(draw):
    """Symmetric matrices up to 6x6, mostly zero, zero diagonals among them, with rows
    over different denominators."""
    n = draw(st.integers(0, 6))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2), F(1, 3), F(-2, 5)])
    diag = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or diag:
                rows[i][j] = rows[j][i] = draw(entries)
    return Matrix(n, n, tuple(map(tuple, rows)))


@settings(max_examples=200, deadline=None)
@given(symmetric_with_sparse_zeros())
def test_inertia_counts_the_eigenvalue_signs(m):
    assert el.inertia(m) == descartes_inertia(m)


@settings(max_examples=120, deadline=None)
@given(symmetric_matrices())
def test_inertia_is_jacobis_sign_change_count(m):
    # with every leading minor D_k nonzero, the negative eigenvalues are the sign changes of
    # 1, D_1, .., D_n
    minors = [F(1)] + [dense_det(Matrix.from_rows([list(r[:k]) for r in m.data[:k]]))
                       for k in range(1, m.rows + 1)]
    assume(all(minors))
    negative = sum((a > 0) != (b > 0) for a, b in zip(minors, minors[1:]))
    assert el.inertia(m) == (m.rows - negative, negative)


def test_inertia_of_null_and_zero_pivot_cases():
    assert el.inertia(Matrix.from_rows([[0, 1], [1, 0]])) == (1, 1)
    assert el.inertia(Matrix.zeros(0, 0)) == (0, 0)
    assert el.inertia(Matrix.zeros(4, 4)) == (0, 0)
    # row 1 is zero only after pivot 0, then row 2 is a null direction
    assert el.inertia(Matrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 2]])) == (2, 0)
    assert el.inertia(Matrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, -1]])) == (1, 1)
    # pivot 0 leaves the zero-diagonal block [[0, 1], [1, 0]]
    assert el.inertia(Matrix.from_rows([[1, 1, 1], [1, 1, 2], [1, 2, 1]])) == (2, 1)
    # t = +1 would give a_kk = 2 a_kj + a_jj = 0, so the repair takes t = -1
    assert el.inertia(Matrix.from_rows([[0, 1], [1, -2]])) == (1, 1)
    assert el.inertia(Matrix.from_rows([[0, "1/2"], ["1/2", -1]])) == (1, 1)
    assert el.inertia(Matrix.from_rows([[0, 0, 1], [0, 0, 0], [1, 0, "-2/3"]])) == (1, 1)
    # rows over the denominators 3 and 15: the repair must add d_k row j to d_j row k
    assert el.inertia(Matrix.from_rows([[0, "1/3"], ["1/3", "-2/5"]])) == (1, 1)
    assert el.inertia(Matrix.from_rows([[0, 0, 0, "1/3"], [0, 0, 1, 0], [0, 1, 0, -1],
                                        ["1/3", 0, -1, 0]])) == (2, 2)


integer_squares = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)).map(Matrix.from_rows)


def _monic_dependency(powers, deg):
    """Solve x^deg + sum_{k<deg} c_k x^k = 0 over the given powers, or None."""
    n = powers[0].rows
    flat = [[p[i, j] for i in range(n) for j in range(n)] for p in powers]
    rows = [[flat[k][e] for k in range(deg)] for e in range(n * n)]
    return el.solve(Matrix.from_rows(rows), [-flat[deg][e] for e in range(n * n)])


@settings(max_examples=60, deadline=None)
@given(integer_squares)
@example(Matrix.identity(3).scale(2))
@example(Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
def test_minimal_polynomial_is_the_lowest_monic_annihilator(m):
    coeffs = el.minimal_polynomial(m)
    n, deg = m.rows, len(coeffs) - 1
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    assert 1 <= deg <= n and coeffs[-1] == 1
    value = Matrix.zeros(n, n)
    for c, p in zip(coeffs, powers):
        value = value + p.scale(c)
    assert value.is_zero()
    assert _monic_dependency(powers, deg - 1) is None


def reference_minimal_polynomial(m):
    """`minimal_polynomial` before its integer Krylov form: all n Fraction
    powers, and the first free column of one n^2 x (n + 1) kernel."""
    n = m.rows
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    cols = Matrix(n * n, n + 1, tuple(tuple(p.data[i][j] for p in powers)
                                      for i in range(n) for j in range(n)))
    v = el.nullspace(cols)[0]
    deg = max(k for k, c in enumerate(v) if c)
    return [F(c, v[deg]) for c in v[:deg + 1]]


def reference_divisors(n):
    """`_divisors` before its isqrt range; its cap of 2^20 divisors is left
    out, since no n up to 10^12 has that many."""
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def reference_rational_roots(coeffs):
    """`rational_roots` before its closed forms: the divisor search at every degree,
    capped at 10^12 from degree 3 up."""
    cs = [el.rat(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return None
    lcm = math.lcm(*(c.denominator for c in cs))
    ics = [int(c * lcm) for c in cs]
    roots = []
    while ics and ics[0] == 0:
        if not roots or roots[-1] != 0:
            roots.append(F(0))
        ics = ics[1:]
    if len(ics) <= 1:
        return roots
    a0, an = ics[0], ics[-1]
    deg = len(ics) - 1
    if deg >= 3 and (abs(a0) > 10**12 or abs(an) > 10**12):
        return None
    d0 = reference_divisors(a0)
    dn = reference_divisors(an)
    for p, q in ((p, q) for p in d0 for q in dn if math.gcd(p, q) == 1):
        for s in (p, -p):
            if sum(c * s ** k * q ** (deg - k) for k, c in enumerate(ics)) == 0:
                roots.append(F(s, q))
    return sorted(roots)


def _block_diagonal(blocks):
    n = sum(b.rows for b in blocks)
    rows = [[F(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            rows[off + i][off:off + b.rows] = b.data[i]
        off += b.rows
    return Matrix.from_rows(rows)


@st.composite
def spectral_squares(draw):
    """P J P^-1 for a Jordan matrix J and a rational P = L U (unit triangular
    factors, so invertible): eigenvalues drawn from a small set, so scalar,
    nilpotent, derogatory and repeated-eigenvalue matrices are all common."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    eig = st.sampled_from([F(0), F(1), F(-2), F(1, 2)])
    blocks = []
    for size in sizes:
        lam = draw(eig)
        blocks.append(Matrix.from_rows([[lam if i == j else F(int(j == i + 1))
                                         for j in range(size)] for i in range(size)]))
    j = _block_diagonal(blocks)
    n = j.rows
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    low = Matrix.from_rows([[draw(entries) if c < r else F(int(c == r)) for c in range(n)]
                            for r in range(n)])
    p = low * low.transpose()
    return p * j * el.inverse(p)


@settings(max_examples=80, deadline=None)
@given(st.one_of(spectral_squares(), integer_squares,
                 st.integers(1, 4).flatmap(lambda n: small_matrix(n, n))))
@example(Matrix.zeros(0, 0))                    # minimal polynomial 1
@example(Matrix.identity(4).scale(F(-3, 2)))
@example(Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
@example(Matrix.diagonal([2, 2, 3, 3]))
@example(_block_diagonal([Matrix.from_rows([[1, 1], [0, 1]]), Matrix.identity(1)]))
def test_minimal_polynomial_matches_the_fraction_reference(m):
    assert el.minimal_polynomial(m) == reference_minimal_polynomial(m)


def per_degree_minimal_polynomial(m):
    """`minimal_polynomial` before its doubling trials: the Krylov system is
    solved again at every degree k = 1, 2, 3, .., and the first kernel, one
    vector, holds the coefficients."""
    n = m.rows
    if n == 0:
        return [F(1)]
    d, a = el.scaled_sparse(m)
    powers = [[[(i, 1)] for i in range(n)]]
    kernel = []
    while not kernel:
        powers.append(el.sparse_mul(powers[-1], a))
        k = len(powers) - 1
        rows = [[] for _ in range(n * n)]
        for j, p in enumerate(powers):
            s = d ** (k - j)
            for i, r in enumerate(p):
                for c, x in r:
                    rows[i * n + c].append((j, x * s))
        kernel = el.nullspace_int_rows(rows, k + 1)
    v = kernel[0]
    return [F(c, v[-1]) for c in v]


def _companion(coeffs):
    """The companion matrix of the monic x^k + coeffs[k-1] x^(k-1) + .. + coeffs[0]."""
    k = len(coeffs)
    return Matrix.from_rows([[F(int(j == i - 1)) if j < k - 1 else -coeffs[i]
                              for j in range(k)] for i in range(k)])


@st.composite
def companion_blocks(draw):
    """Block-diagonal companion matrices, times a rational scalar: the minimal
    polynomial is the lcm of the blocks' polynomials, of degree up to 12."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4).filter(
        lambda s: sum(s) <= 12))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    blocks = [_companion(draw(st.lists(coeff, min_size=k, max_size=k))) for k in sizes]
    if len(blocks) > 1 and draw(st.booleans()):
        blocks.append(blocks[0])               # a repeated block: a derogatory matrix
    return _block_diagonal(blocks).scale(draw(st.sampled_from([1, -1, F(2, 3)])))


@settings(max_examples=60, deadline=None)
@given(companion_blocks())
@example(_companion([F(k - 5) for k in range(11)]))         # degree 11 in one block
@example(_block_diagonal([_companion([F(1), F(0), F(-2)]), _companion([F(3)] * 4),
                          _companion([F(-1), F(1)])]))    # degrees 3 + 4 + 2
def test_minimal_polynomial_matches_the_per_degree_route(m):
    assert el.minimal_polynomial(m) == per_degree_minimal_polynomial(m)


@st.composite
def root_polynomials(draw):
    """Rational multiples of products of linear factors, some doubled, some x
    (zero roots), optionally times x^2 + b x + c (negative, zero, square or
    non-square discriminant), with trailing zero coefficients at times."""
    coeffs = [draw(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))]
    for _ in range(draw(st.integers(0, 3))):
        factor = [F(-draw(st.integers(-6, 6))), F(draw(st.integers(1, 6)))]
        for _ in range(draw(st.integers(1, 2))):
            coeffs = _poly_mul(coeffs, factor)
    if draw(st.booleans()):
        coeffs = _poly_mul(coeffs, [F(draw(st.integers(-6, 6))), F(draw(st.integers(-6, 6))),
                                    F(draw(st.integers(1, 3)))])
    return coeffs + [F(0)] * draw(st.integers(0, 1))


@settings(max_examples=200, deadline=None)
@given(st.one_of(root_polynomials(), st.lists(st.integers(-40, 40), max_size=5)))
@example([F(-2), F(0), F(1)])                   # x^2 - 2: non-square discriminant
@example([F(1), F(0), F(1)])                    # x^2 + 1: negative discriminant
@example([F(9), F(-6), F(1)])                   # (x - 3)^2: a double root
@example([F(0), F(0), F(4), F(-4), F(1)])       # x^2 (x - 2)^2
@example([F(0), F(3), F(-7, 2)])                # zero root and a degree-1 rest
@example([F(10**13), F(1)])                     # degree 1 above the cap: -10^13
@example([F(1), F(0), F(10**13)])               # degree 2 above the cap: no root
@example([F(0), F(-1), F(0), F(10**13)])        # a zero root, then degree 2 above the cap
@example([F(10**13), F(0), F(0), F(1)])         # degree 3 above the cap: no rational root
@example([F(-1), F(0), F(10**12)])              # at the cap: +-1/10^6
@example([F(1, 10**13), F(-1, 10**13)])         # large denominators clear to 1, -1
@example([])
@example([F(0)])
@example([F(5)])
def test_rational_roots_match_the_divisor_search(coeffs):
    if not any(coeffs):
        with pytest.raises(ValueError, match="zero polynomial"):
            el.rational_roots(coeffs)
        return
    roots, want = el.rational_roots(coeffs), reference_rational_roots(coeffs)
    # past the reference's cap, every root found is checked by substitution
    assert roots == want if want is not None else not any(
        sum(c * r ** k for k, c in enumerate(coeffs)) for r in roots)


def test_rational_roots_cap_only_the_divisor_search():
    assert el.rational_roots([F(10**13), F(1)]) == [-10**13]
    assert el.rational_roots([F(1), F(0), F(10**13)]) == []
    assert el.rational_roots([F(0), F(-1), F(0), F(10**13)]) == [0]
    assert el.rational_roots([F(-(1001**4)), F(1)]) == [1001**4]
    assert el.rational_roots([F(10**13), F(0), F(0), F(1)]) == []
    cubic = _poly_mul(_poly_mul([F(-100000), F(1)], [F(-100001), F(1)]), [F(-100002), F(1)])
    assert el.rational_roots(cubic) == [100000, 100001, 100002]


@st.composite
def large_root_polynomials(draw):
    """(coeffs, roots): a rational multiple of linear factors q x - p with |p| past
    10^12, some doubled, of degree 3 to 8 in all, times up to two quadratics
    x^2 + b x + c with b^2 < 4c, which have no rational root."""
    coeffs = [draw(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))]
    roots, degree = set(), draw(st.integers(3, 8))
    while len(coeffs) <= degree:
        p = draw(st.integers(10**12, 10**15)) * draw(st.sampled_from([1, -1]))
        q = draw(st.integers(1, 50))
        for _ in range(min(draw(st.integers(1, 2)), degree + 1 - len(coeffs))):
            coeffs = _poly_mul(coeffs, [F(-p), F(q)])
        roots.add(F(p, q))
    for _ in range(draw(st.integers(0, 2))):
        b = draw(st.integers(-10**6, 10**6))
        coeffs = _poly_mul(coeffs, [F(b * b // 4 + draw(st.integers(1, 10**6))), F(b), F(1)])
    return coeffs, sorted(roots)


@settings(max_examples=60, deadline=None)
@given(large_root_polynomials())
@example((_poly_mul(_poly_mul([F(-(10**13 + 7)), F(1)], [F(1), F(0), F(1)]),
                    [F(2), F(0), F(1)]), [10**13 + 7]))    # degree 5, one root
def test_rational_roots_find_every_root_past_the_old_cap(case):
    coeffs, roots = case
    assert el.rational_roots(coeffs) == roots


def test_rational_sqrt():
    assert el.rational_sqrt(F(9, 4)) == F(3, 2)
    assert el.rational_sqrt(F(2)) is None
    assert el.rational_sqrt(F(-1)) is None
    assert el.rational_sqrt(F(0)) == 0


def test_nullspace_entries_beyond_one_prime():
    # kernel vector (q, -1) with q a ratio of two ten-digit integers
    q = F(10**9 + 7, 10**9 + 9)
    m = Matrix.from_rows([[F(1), q]])
    ker = el.nullspace(m)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] * 1 + v[1] * q == 0


# ---------------------------------------------------------------------------
# Entry types: an int for an integer, a Fraction otherwise
# ---------------------------------------------------------------------------

# a JSON-like entry: an int, an integer or rational string, or a Fraction
mixed_entries = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(str),
                          rationals, rationals.map(el.rat_str))


def mixed_rows(rows, cols):
    return st.lists(st.lists(mixed_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def fraction_matrix(rows, r, c):
    """The Fraction reference of raw rows: every entry read by `Fraction`."""
    return Matrix(r, c, tuple(tuple(F(x) for x in row) for row in rows))


def exact_entries(values):
    """Every value is an int or a Fraction: never a float or a bool."""
    return all(type(x) is int or type(x) is F for x in values)


def int_when_integral(values):
    """Every integral value is an int, every other one a Fraction."""
    return exact_entries(values) and all((type(x) is int) == (F(x).denominator == 1)
                                         for x in values)


def entries(m):
    return [x for r in m.data for x in r]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    mixed_rows(n, n), mixed_rows(n, n), st.lists(mixed_entries, min_size=n, max_size=n),
    mixed_entries)))
@example(([[2, "0"], ["0", "2"]], [["1/2", 0], [0, " -3 "]], ["4", 1], "2"))
@example(([[1, 1], [1, 1]], [[F(3), "1/2"], ["-0", 5]], ["1/3", 0], F(1, 2)))
def test_matrix_entries_stay_int_or_fraction(case):
    raw, raw2, vec, c = case
    n = len(raw)
    m, m2 = Matrix.from_rows(raw), Matrix.from_rows(raw2)
    ref, ref2 = fraction_matrix(raw, n, n), fraction_matrix(raw2, n, n)
    # from_rows keeps ints, reads integer strings as ints, and leaves Fractions be
    assert m == ref and exact_entries(entries(m))
    assert all((type(x) is int) == (type(r) is int or (type(r) is str and F(r).denominator == 1))
               for x, r in zip(entries(m), [r for row in raw for r in row]))
    assert Matrix.identity(n) == fraction_matrix([[int(i == j) for j in range(n)]
                                                  for i in range(n)], n, n)
    assert all(type(x) is int for x in entries(Matrix.identity(n)) + entries(Matrix.zeros(n, 3)))
    assert Matrix.zeros(n, 3) == Matrix(n, 3, ((F(0),) * 3,) * n)
    diag = Matrix.diagonal(vec)
    assert diag == Matrix(n, n, tuple(tuple(F(vec[i]) if i == j else F(0) for j in range(n))
                                      for i in range(n)))
    assert exact_entries(entries(diag))
    prod = m * m2
    assert prod == dense_mul(ref, ref2) and int_when_integral(entries(prod))
    assert m.scale(c) == Matrix(n, n, tuple(tuple(F(c) * x for x in r) for r in ref.data))
    assert exact_entries(entries(m.scale(c)))
    # a scalar factor goes through `scale`: `*` takes a Matrix on both sides
    with pytest.raises(TypeError):
        m * c
    with pytest.raises(TypeError):
        c * m
    assert m.transpose() == ref.transpose() and exact_entries(entries(m.transpose()))
    if el.rank(ref) == n:
        inv = el.inverse(m)
        assert dense_mul(ref, inv) == Matrix.identity(n) and int_when_integral(entries(inv))
    x = el.solve(m, [F(v) for v in vec])
    if x is not None:
        assert exact_entries(x) and el.mat_vec(ref, x) == tuple(F(v) for v in vec)
    for v in el.nullspace(m):
        assert exact_entries(v) and not any(el.mat_vec(ref, v))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 6), st.data())
def test_from_sparse_reads_rows_over_a_denominator(nrows, ncols, d, data):
    dense = [[data.draw(st.integers(-7, 7)) for _ in range(ncols)] for _ in range(nrows)]
    rows = [data.draw(st.permutations([(j, x) for j, x in enumerate(r) if x])) for r in dense]
    m = Matrix.from_sparse(rows, ncols, d)
    assert m.shape == (nrows, ncols) and int_when_integral(entries(m))
    assert m == fraction_matrix([[F(x, d) for x in r] for r in dense], nrows, ncols)


def test_from_sparse_divides_only_the_nonzero_entries(monkeypatch):
    calls, real = [], el.quotient
    monkeypatch.setattr(el, "quotient", lambda x, d: calls.append(x) or real(x, d))
    m = Matrix.from_sparse([[(2, 6)], [], [(0, -3), (1, 4)]], 3, 2)
    assert calls == [6, -3, 4]
    assert m == Matrix.from_rows([[0, 0, 3], [0, 0, 0], ["-3/2", 2, 0]])
    calls.clear()
    assert Matrix.from_rows([[1, 0], [0, 0]]) * Matrix.from_rows([["1/2", 0], [0, 3]]) \
        == Matrix.from_rows([["1/2", 0], [0, 0]])
    assert calls == [1]


# strings around the integer grammar: signs, whitespace (Unicode too), rationals,
# decimals, exponents, underscores, non-ASCII digits and over-long digit runs
entry_strings = st.lists(st.sampled_from(
    ["", " ", "\t", "\n", "\x1c", " ", "　", "+", "-", "0", "3", "12", "/", "1/0",
     "/2", "1.5", ".", "e", "1e3", "_", "x", "٣", "７", "²", "1" * 4400]),
    max_size=5).map("".join)


@settings(max_examples=300, deadline=None)
@given(entry_strings)
@example(" 3 ")
@example("+3")
@example("-0")
@example("1/0")
@example("1.5")
@example("1e3")
@example("1_000")
@example("٣٠")
@example("²")
@example("1" * 5000)
@example("-" + "9" * 4300)
def test_from_rows_reads_exactly_the_strings_rat_reads(s):
    # two reads, the second through the memo: the same outcome, value and type
    # (int or Fraction) as the reader without its memo; the examples "1" * 5000,
    # "1_000", "٣٠", "1e3" and "1/0" must be rejected on both reads
    def outcome(read):
        try:
            x = read(s)
        except ValueError:
            return "rejected", None, None
        return "value", F(x), type(x)
    first, second = (outcome(lambda t: Matrix.from_rows([[t]])[0, 0]) for _ in range(2))
    assert first == second == outcome(el._str_scalar.__wrapped__)
    assert first[:2] == outcome(el.rat)[:2]


def test_a_repeated_string_is_read_once():
    el._str_scalar.cache_clear()
    rows = [["1", "-1", "0", "1/2"], ["0", "1", "-1", "1/2"]]
    assert Matrix.from_rows(rows) == Matrix.from_rows(rows)
    info = el._str_scalar.cache_info()
    assert (info.misses, info.hits) == (4, 12)
    assert type(Matrix.from_rows(rows)[0, 0]) is int


def _echelon_inverse(m):
    """Reference: m^{-1} read off `_int_rref` of [m | I], as `inverse` does for a
    matrix that is not diagonal."""
    n = m.rows
    pivots, prows = el._int_rref(el._int_rows(Matrix.from_rows(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m.data)])))
    assert pivots == list(range(n))
    return [[el.quotient(x, p[i]) for x in p[n:]] for i, p in enumerate(prows)]


diagonal_entries = st.one_of(
    st.integers(-30, 30), st.sampled_from([1, -1]),
    st.fractions(min_value=-6, max_value=6, max_denominator=9)).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.lists(diagonal_entries, min_size=1, max_size=6))
@example([1, -1, F(1), F(-1, 3), F(5, 2), F(-1, 1), 7])
def test_diagonal_inverse_matches_the_echelon_route(entries):
    m = Matrix.diagonal(entries)
    got, want = el.inverse(m).to_rows(), _echelon_inverse(m)
    assert got == want
    assert [[type(x) for x in r] for r in got] == [[type(x) for x in r] for r in want]


def test_diagonal_with_a_zero_is_singular():
    for entries in ([0], [2, 0, F(1, 3)], [F(0), -1]):
        with pytest.raises(ValueError, match="matrix is singular"):
            el.inverse(Matrix.diagonal(entries))


@settings(max_examples=80, deadline=None)
@given(st.lists(diagonal_entries, min_size=2, max_size=5), st.data())
def test_one_off_diagonal_nonzero_takes_the_echelon_route(entries, data):
    n = len(entries)
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ij: ij[0] != ij[1]))
    rows = Matrix.diagonal(entries).to_rows()
    rows[i][j] = data.draw(diagonal_entries)
    m = Matrix.from_rows(rows)
    inv = el.inverse(m)
    assert m * inv == inv * m == Matrix.identity(n)
    assert inv.to_rows() == _echelon_inverse(m) and inv[i, j] != 0
