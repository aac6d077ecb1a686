import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run_optimized
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
    assert el.det(Matrix.from_rows([[2, 1], [1, 3]])) == 5
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

# sparse integer systems: (ncols, rows of (column, value) pairs), entries
# mostly small so the modular route succeeds, sometimes too big for it
sparse_systems = st.integers(min_value=1, max_value=9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.one_of(st.integers(-9, 9), st.integers(-10**9, 10**9)),
        max_size=n).map(lambda d: sorted(d.items())), max_size=8)))


@settings(max_examples=80, deadline=None)
@given(sparse_systems)
@example(SEEDED_SYSTEM)
def test_modular_path_agrees_with_exact(system):
    ncols, rows = system
    exact = el.nullspace_int_rows(rows, ncols, prefilter=False)
    fast = el.nullspace_int_rows(rows, ncols, prefilter=True)
    assert fast == exact
    dense = [[dict(r).get(j, 0) for j in range(ncols)] for r in rows]
    assert len(fast) == ncols - el.rank(Matrix.from_rows(dense or [[0] * ncols]))
    for v in fast:
        assert all(isinstance(x, int) for x in v)
        assert math.gcd(*v) == 1 and next(x for x in v if x) > 0
        assert all(sum(x * v[c] for c, x in r) == 0 for r in rows)


def test_modular_kernel_supersedes_primes_that_lose_rank():
    # rows 0 and 1 vanish modulo the first and second prime, so those primes
    # see rank 4; the third prime sees rank 5 and must supersede both
    p0, p1 = el._PRIMES[:2]
    rng = random.Random(5)
    base = [[rng.randint(-4, 4) for _ in range(8)] for _ in range(5)]
    assert el.rank(Matrix.from_rows(base)) == 5
    rows = sparse([[p0 * x for x in base[0]], [p1 * x for x in base[1]]] + base[2:])
    exact = el.nullspace_int_rows(rows, 8, prefilter=False)
    fast = el._nullspace_modular(rows, 8)
    assert len(exact) == 3
    assert fast == exact
    assert el.nullspace_int_rows(rows, 8, prefilter=True) == exact


def test_verify_kernel_is_exact():
    rows = sparse([[1, 2, -1], [0, 3, 3]])
    v = [3, -1, 1]
    assert el._verify_kernel(rows, [v])
    assert el._verify_kernel(rows, [[-2 * x for x in v], [F(x, 7) for x in v]])
    for k in range(3):
        off = list(v)
        off[k] += 1
        assert not el._verify_kernel(rows, [v, off])


def test_kernel_certification_survives_optimize_flag():
    # a wrong exact kernel must raise even when asserts are compiled away
    proc = run_optimized("""
        import sys
        from fractions import Fraction
        from nilrad import exactlin as el
        if __debug__:
            sys.exit(2)
        el._nullspace_from_rref = lambda pivots, prows, ncols: [[Fraction(1)] * ncols]
        try:
            el.nullspace_int_rows([[(0, 1), (1, 1)]], 2, prefilter=False)
        except ArithmeticError:
            sys.exit(0)
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


def test_sym_eigen_diagonal():
    evals, _ = el.sym_eigen(Matrix.diagonal([1, 4]), 128)
    assert sorted(round(float(e)) for e in evals) == [1, 4]


def test_sym_eigen_exchange_matrix():
    evals, _ = el.sym_eigen(Matrix.from_rows([[0, 1], [1, 0]]), 128)
    assert sorted(round(float(e)) for e in evals) == [-1, 1]


def test_sym_eigen_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        el.sym_eigen(Matrix.from_rows([[0, 1], [2, 0]]), 128)


def test_sym_eigen_rejects_low_precision():
    with pytest.raises(ValueError):
        el.sym_eigen(Matrix.identity(2), 32)


@settings(max_examples=15, deadline=None)
@given(small_matrix(4, 4))
def test_sym_eigen_reconstruction(m):
    sym = m + m.transpose()
    evals, vecs = el.sym_eigen(sym, 128)
    n = sym.rows
    with mpmath.workprec(160):
        tol = mpmath.mpf(2) ** -64
        for i in range(n):
            for j in range(n):
                got = sum(evals[k] * vecs[k][i] * vecs[k][j] for k in range(n))
                want = mpmath.mpf(sym[i, j].numerator) / sym[i, j].denominator
                assert abs(got - want) <= tol


def test_minimal_polynomial_and_roots():
    m = Matrix.diagonal([1, 4, 4])
    coeffs = el.minimal_polynomial(m)
    assert coeffs == [F(4), F(-5), F(1)]          # (x-1)(x-4)
    assert el.rational_roots(coeffs) == [F(1), F(4)]


def test_rational_sqrt():
    assert el.rational_sqrt(F(9, 4)) == F(3, 2)
    assert el.rational_sqrt(F(2)) is None
    assert el.rational_sqrt(F(-1)) is None
    assert el.rational_sqrt(F(0)) == 0


def test_rational_reconstruction_round_trip():
    p = 2147483647
    for q in (F(1, 2), F(-3, 7), F(22, 17), F(0), F(-255)):
        residue = q.numerator * pow(q.denominator, p - 2, p) % p
        assert el._rational_reconstruct(residue, p) == (q.numerator, q.denominator)


def test_rational_reconstruction_fails_on_large_fractions():
    p = 2147483647
    q = F(10**9 + 7, 10**9 + 9)      # numerator * denominator >> p
    residue = q.numerator * pow(q.denominator, p - 2, p) % p
    got = el._rational_reconstruct(residue, p)
    assert got != (q.numerator, q.denominator)   # too big for one prime, caller must CRT


def test_crt_pair():
    x, m = el._crt_pair(3, 7, 4, 11)
    assert m == 77 and x % 7 == 3 and x % 11 == 4


def test_nullspace_entries_beyond_one_prime():
    # kernel vector (q, -1) with q needing two primes to reconstruct
    q = F(10**9 + 7, 10**9 + 9)
    m = Matrix.from_rows([[F(1), q]])
    ker = el.nullspace(m)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] * 1 + v[1] * q == 0
