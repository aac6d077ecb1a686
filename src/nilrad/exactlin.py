"""Exact rational linear algebra kernel.

Scalars are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator), matrices are small immutable dense arrays of
rationals.  Everything that the rest of the package proves is proved
here by exact elimination; floating point enters only through
`sym_eigen`, which wraps an arbitrary-precision symmetric
eigendecomposition for the one computation where square roots are
unavoidable.

Every exact answer (rank, solve, inverse, nullspace) is read off one
fraction-free integer echelon form of the denominator-cleared rows;
`solve` and `inverse` reduce the augmented matrices [m | rhs] and
[m | I].  Kernels work on sparse integer rows and return primitive
integer vectors; `Fraction` enters only when `nullspace` hands them back
as coordinates.  Kernels of big systems first try a modular prefilter:
reduce modulo word-size primes, lift the modular echelon form back to an
integer one by CRT plus rational reconstruction, and read the candidate
kernel off it as on the exact path.  Both routes certify every vector
by exact integer substitution into every original row.  If
certification fails the exact path runs instead, so the modular route
can never change a result, only speed it up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath
import numpy as np

Rational = Fraction

MIN_PRECISION = 64
DEFAULT_PRECISION = 128

# primes just under 2**31 so that (p-1)**2 fits comfortably in int64
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
    2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
)


def rat(x) -> Fraction:
    """Coerce int (not bool) / str ("p/q" or "p") / Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(q: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    q = rat(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Tuple[Tuple[Fraction, ...], ...]):
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(tuple(rat(x) for x in r) for r in rows)
        if not data:
            return cls(0, 0, ())
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(len(data), ncols, data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        zero = Fraction(0)
        return cls(r, c, tuple(tuple(zero for _ in range(c)) for _ in range(r)))

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Matrix":
        es = [rat(e) for e in entries]
        n = len(es)
        return cls(n, n, tuple(
            tuple(es[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)))

    @classmethod
    def column(cls, vec: Sequence) -> "Matrix":
        return cls.from_rows([[v] for v in vec])

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> Tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(r[j] for r in self.data)

    def to_rows(self) -> List[List[Fraction]]:
        return [list(r) for r in self.data]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.shape == other.shape
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._expect_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._expect_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(
            tuple(-a for a in r) for r in self.data))

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix(self.rows, self.cols, tuple(
            tuple(c * a for a in r) for r in self.data))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
            bt = other.transpose().data
            return Matrix(self.rows, other.cols, tuple(
                tuple(sum(a * b for a, b in zip(ra, cb) if a) for cb in bt)
                for ra in self.data))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(
            tuple(self.data[i][j] for i in range(self.rows))
            for j in range(self.cols)))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def is_zero(self) -> bool:
        return all(not x for r in self.data for x in r)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols))

    def max_abs(self) -> Fraction:
        m = Fraction(0)
        for r in self.data:
            for x in r:
                a = -x if x < 0 else x
                if a > m:
                    m = a
        return m

    def _expect_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    return tuple(sum(a * b for a, b in zip(r, v) if a) for r in m.data)


# ---------------------------------------------------------------------------
# Exact answers from the integer echelon form
# ---------------------------------------------------------------------------

def rank(m: Matrix) -> int:
    """Exact rank over the rationals."""
    return len(_int_rref(_int_rows(m))[0])


def nullspace(m: Matrix) -> List[Tuple[Fraction, ...]]:
    """Basis of the right kernel of m, as coordinate vectors.

    Column-matrix views are available through `Matrix.column`.  Large
    systems take the modular-prefilter route; results are always
    certified by exact substitution.
    """
    if m.cols == 0:
        return []
    rows = [[(j, x) for j, x in enumerate(r) if x] for r in _int_rows(m)]
    return [tuple(Fraction(x) for x in v) for v in nullspace_int_rows(rows, m.cols)]


def solve(m: Matrix, rhs: Sequence[Fraction]) -> Optional[Tuple[Fraction, ...]]:
    """One solution of m x = rhs (free variables zero), or None when inconsistent."""
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug = Matrix.from_rows([list(r) + [b] for r, b in zip(m.data, rhs)])
    pivots, prows = _int_rref(_int_rows(aug))
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for c, p in zip(pivots, prows):
        x[c] = Fraction(p[m.cols], p[c])
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = Matrix.from_rows([list(m.data[i]) + [1 if j == i else 0 for j in range(n)]
                            for i in range(n)])
    pivots, prows = _int_rref(_int_rows(aug))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(n, n, tuple(tuple(Fraction(x, p[i]) for x in p[n:])
                              for i, p in enumerate(prows)))


def det(m: Matrix) -> Fraction:
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    a = m.to_rows()
    n = m.rows
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def is_positive_definite(m: Matrix) -> bool:
    """Exact leading-principal-minor test; requires symmetry."""
    if not m.is_symmetric():
        return False
    for k in range(1, m.rows + 1):
        sub = Matrix.from_rows([list(m.data[i][:k]) for i in range(k)])
        if det(sub) <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Integer kernel with modular prefilter
# ---------------------------------------------------------------------------

SparseRow = Sequence[Tuple[int, int]]


def clear_denominators(values: Sequence[Fraction]) -> List[int]:
    """The values times the lcm of their denominators, as ints."""
    lcm = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (lcm // x.denominator) for x in values]


def scaled_sparse(m: Matrix) -> Tuple[int, List[List[Tuple[int, int]]]]:
    """(d, rows) with m = rows / d: one common denominator and sparse integer rows."""
    d = math.lcm(*(x.denominator for r in m.data for x in r))
    return d, [[(j, x.numerator * (d // x.denominator)) for j, x in enumerate(r) if x]
               for r in m.data]


def sparse_mul(a: Sequence[SparseRow], b: Sequence[SparseRow]
               ) -> List[List[Tuple[int, int]]]:
    """Product of two matrices given as sparse rows, in Python ints; result rows
    are sorted by column and hold no zeros, so equal products are equal lists."""
    out = []
    for r in a:
        acc: dict = {}
        for k, x in r:
            for j, y in b[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(sorted((j, v) for j, v in acc.items() if v))
    return out


def _int_rows(m: Matrix) -> List[List[int]]:
    """Clear denominators row by row (each row times the lcm of its denominators)."""
    return [clear_denominators(r) for r in m.data]


def _row_primitive(row: List[int]) -> List[int]:
    g = 0
    for x in row:
        if x:
            g = math.gcd(g, x)
            if g == 1:
                return row
    if g > 1:
        return [x // g for x in row]
    return row


def _int_rref(rows: List[List[int]]) -> Tuple[List[int], List[List[int]]]:
    """Fraction-free RREF of integer rows (each pivot row made primitive).

    Returns (pivot_columns, reduced_pivot_rows).  Pivot rows end up with
    positive pivots and zeros above/below each pivot.
    """
    work = [_row_primitive(list(r)) for r in rows if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: List[int] = []
    prows: List[List[int]] = []
    for r in work:
        # reduce against existing pivot rows
        for (c, p) in zip(pivots, prows):
            if r[c]:
                pv, rv = p[c], r[c]
                g = math.gcd(pv, rv)
                a, b = pv // g, rv // g
                r = [a * x - b * y for x, y in zip(r, p)]
        if not any(r):
            continue
        c = next(j for j, x in enumerate(r) if x)
        r = _row_primitive(r)
        if r[c] < 0:
            r = [-x for x in r]
        # clear the new pivot column in earlier rows
        for k, p in enumerate(prows):
            if p[c]:
                pv, rv = r[c], p[c]
                g = math.gcd(pv, rv)
                a, b = pv // g, rv // g
                pnew = [a * x - b * y for x, y in zip(p, r)]
                pnew = _row_primitive(pnew)
                if pnew[pivots[k]] < 0:
                    pnew = [-x for x in pnew]
                prows[k] = pnew
        pos = 0
        while pos < len(pivots) and pivots[pos] < c:
            pos += 1
        pivots.insert(pos, c)
        prows.insert(pos, r)
    return pivots, prows


def _nullspace_from_rref(pivots: List[int], prows: List[List[int]],
                         ncols: int) -> List[List[int]]:
    """Kernel basis of an integer RREF (positive pivots) as primitive int vectors.

    One vector per free column f, with v[f] > 0 and v[c] / v[f] = -p[f] / p[c]
    for the pivot row p of column c; entries coprime, first nonzero positive.
    """
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        terms = [(c, p[f], p[c]) for c, p in zip(pivots, prows) if p[f]]
        lcm = math.lcm(*(d for _, _, d in terms))
        v = [0] * ncols
        v[f] = lcm
        for c, n, d in terms:
            v[c] = -n * (lcm // d)
        g = math.gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        basis.append([x // g for x in v] if g != 1 else v)
    return basis


def _mod_rref(rows_np: np.ndarray, p: int) -> Tuple[List[int], np.ndarray]:
    """RREF mod p via numpy; returns (pivot columns, reduced pivot rows)."""
    a = rows_np % p
    nr, nc = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = (a[r, c:] * inv) % p
        col_all = a[:, c].copy()
        col_all[r] = 0
        nzr = np.nonzero(col_all)[0]
        if nzr.size:
            # row r is zero left of c, so only columns c.. change
            a[nzr, c:] = (a[nzr, c:] - np.outer(col_all[nzr], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots, a[:len(pivots)]


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> Tuple[int, int]:
    m = m1 * m2
    x = (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % m
    return x, m


def _rational_reconstruct(a: int, m: int) -> Optional[Tuple[int, int]]:
    """Wang-style reconstruction (numerator, denominator > 0) of a residue mod m."""
    a %= m
    bound = math.isqrt(m // 2)
    old_r, r = m, a
    old_s, s = 0, 1
    while r > bound:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    den = abs(s)
    if den == 0 or den > bound or math.gcd(r, den) != 1:
        return None
    return (r if s >= 0 else -r), den


def _verify_kernel(rows: Sequence[SparseRow], vecs: Sequence[Sequence[int]]) -> bool:
    """True when every vector satisfies every sparse row, by exact substitution."""
    for v in vecs:
        for r in rows:
            if sum([x * v[c] for c, x in r]):
                return False
    return True


def nullspace_int_rows(rows: Sequence[SparseRow], ncols: int,
                       prefilter: Optional[bool] = None) -> List[List[int]]:
    """Kernel basis of sparse integer rows, as primitive int vectors.

    Each row lists its entries as (column, value) pairs; a repeated
    column adds up.  prefilter None picks the modular route when the
    dense system would exceed 50,000 entries.  Every returned vector is
    certified against every input row by exact integer substitution.
    """
    rows = [r for r in rows if r]
    if not rows:
        return [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    if prefilter is None:
        prefilter = len(rows) * ncols > 50000
    if prefilter:
        basis = _nullspace_modular(rows, ncols)
        if basis is not None:
            return basis
    dense = []
    for r in rows:
        d = [0] * ncols
        for c, x in r:
            d[c] += x
        dense.append(d)
    basis = _nullspace_from_rref(*_int_rref(dense), ncols)
    if not _verify_kernel(rows, basis):
        raise ArithmeticError("exact kernel failed certification by substitution")
    return basis


def _nullspace_modular(rows: Sequence[SparseRow], ncols: int
                       ) -> Optional[List[List[int]]]:
    """Candidate kernel from CRT over word-size primes, exactly certified."""
    max_primes = 8
    at = ([i for i, r in enumerate(rows) for _ in r], [c for r in rows for c, _ in r])
    vals = [x for r in rows for _, x in r]
    residues: List[Tuple[int, List[int], np.ndarray]] = []
    pivots_ref: Optional[List[int]] = None
    for p in _PRIMES[:max_primes]:
        arr = np.zeros((len(rows), ncols), dtype=np.int64)
        np.add.at(arr, at, [x % p for x in vals])
        piv, pr = _mod_rref(arr, p)
        if pivots_ref is None or len(piv) > len(pivots_ref):
            # a prime seeing higher rank supersedes lower-rank (unlucky) ones
            residues = [(p, piv, pr)]
            pivots_ref = piv
        elif piv == pivots_ref:
            residues.append((p, piv, pr))
        # try reconstruction once we have k primes accumulated
        prows = _reconstruct_rref(residues, ncols)
        if prows is not None:
            cand = _nullspace_from_rref(pivots_ref, prows, ncols)
            if _verify_kernel(rows, cand):
                return cand
    return None


def _reconstruct_rref(residues: List[Tuple[int, List[int], np.ndarray]],
                      ncols: int) -> Optional[List[List[int]]]:
    """Integer RREF rows lifted from the modular RREFs by CRT and rational
    reconstruction; each row is scaled by the lcm of its denominators, so
    its pivot is positive.  None when some entry does not reconstruct.
    """
    modulus = 1
    merged: Optional[List[List[int]]] = None
    for p, _, pr in residues:
        cur = pr.tolist()
        if merged is None:
            merged, modulus = cur, p
        else:
            merged = [[_crt_pair(a, modulus, b, p)[0] for a, b in zip(ra, rb)]
                      for ra, rb in zip(merged, cur)]
            modulus *= p
    prows = []
    for c, row in zip(residues[0][1], merged):
        entries = []
        for f, a in enumerate(row):
            if a and f != c:
                q = _rational_reconstruct(a, modulus)
                if q is None:
                    return None
                entries.append((f, q))
        lcm = math.lcm(*(d for _, (_, d) in entries))
        out = [0] * ncols
        out[c] = lcm
        for f, (n, d) in entries:
            out[f] = n * (lcm // d)
        prows.append(out)
    return prows


# ---------------------------------------------------------------------------
# Minimal polynomial, rational spectra
# ---------------------------------------------------------------------------

def minimal_polynomial(m: Matrix) -> List[Fraction]:
    """Monic minimal polynomial coefficients, lowest degree first."""
    if m.rows != m.cols:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    # columns vec(m^0) .. vec(m^n); the first free column is the lowest degree
    # with a dependency, and its kernel vector is supported on columns 0..deg
    cols = Matrix(n * n, n + 1, tuple(tuple(p.data[i][j] for p in powers)
                                      for i in range(n) for j in range(n)))
    v = nullspace(cols)[0]
    deg = max(k for k, c in enumerate(v) if c)
    return [c / v[deg] for c in v[:deg + 1]]


def _divisors(n: int, cap: int = 1 << 20) -> Optional[List[int]]:
    n = abs(n)
    if n == 0:
        return [0]
    out = []
    d = 1
    while d * d <= n:
        if len(out) > cap:
            return None
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """All rational roots of the polynomial (low-first coefficients).

    Returns None when the divisor search is abandoned as too large.
    """
    cs = [rat(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return None
    lcm = math.lcm(*(c.denominator for c in cs))
    ics = [int(c * lcm) for c in cs]
    roots: List[Fraction] = []
    # strip zero roots
    while ics and ics[0] == 0:
        if not roots or roots[-1] != 0:
            roots.append(Fraction(0))
        ics = ics[1:]
    if len(ics) <= 1:
        return roots
    a0, an = ics[0], ics[-1]
    if abs(a0) > 10**12 or abs(an) > 10**12:
        return None
    d0 = _divisors(a0)
    dn = _divisors(an)
    if d0 is None or dn is None:
        return None
    # each candidate +-p/q in lowest terms once; it is a root exactly when
    # q^deg f(p/q) = sum_k a_k p^k q^(deg-k) vanishes, a sum in ints
    deg = len(ics) - 1
    for p, q in ((p, q) for p in d0 for q in dn if math.gcd(p, q) == 1):
        for s in (p, -p):
            if sum(c * s ** k * q ** (deg - k) for k, c in enumerate(ics)) == 0:
                roots.append(Fraction(s, q))
    return sorted(roots)


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None if irrational/negative."""
    q = rat(q)
    if q < 0:
        return None
    ns = math.isqrt(q.numerator)
    ds = math.isqrt(q.denominator)
    if ns * ns == q.numerator and ds * ds == q.denominator:
        return Fraction(ns, ds)
    return None


# ---------------------------------------------------------------------------
# High-precision symmetric eigendecomposition
# ---------------------------------------------------------------------------

def _to_mp(m: Matrix) -> mpmath.matrix:
    out = mpmath.matrix(m.rows, m.cols)
    for i in range(m.rows):
        for j in range(m.cols):
            x = m.data[i][j]
            out[i, j] = mpmath.mpf(x.numerator) / x.denominator
    return out


def sym_eigen(m: Matrix, precision: int = DEFAULT_PRECISION
              ) -> Tuple[List[mpmath.mpf], List[List[mpmath.mpf]]]:
    """Eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    Computed at `precision` bits (>= 64) and verified by `verified_eigsy`.
    Vectors are returned as rows.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
    if not m.is_symmetric():
        raise ValueError("sym_eigen requires a symmetric matrix")
    n = m.rows
    with mpmath.workprec(precision + 32):
        evals, q = verified_eigsy(_to_mp(m), precision)
        return ([+e for e in evals],
                [[+q[i, j] for i in range(n)] for j in range(n)])


def verified_eigsy(a: mpmath.matrix, precision: int
                   ) -> Tuple[mpmath.matrix, mpmath.matrix]:
    """Symmetric eigendecomposition at the working precision, checked.

    Each pair must satisfy ``|a v - lambda v| <= 2**(-precision/2)`` and
    the eigenvector columns must be orthonormal to the same tolerance;
    otherwise ArithmeticError is raised.
    """
    n = a.rows
    evals, q = mpmath.eigsy(a)
    tol = mpmath.mpf(2) ** (-(precision // 2))
    for j in range(n):
        v = [q[i, j] for i in range(n)]
        res = [sum(a[i, k] * v[k] for k in range(n)) - evals[j] * v[i]
               for i in range(n)]
        if max((abs(x) for x in res), default=mpmath.mpf(0)) > tol:
            raise ArithmeticError("eigenpair residual exceeds tolerance")
    for j in range(n):
        for k in range(j, n):
            g = sum(q[i, j] * q[i, k] for i in range(n))
            target = 1 if j == k else 0
            if abs(g - target) > tol:
                raise ArithmeticError("eigenvectors not orthonormal within tolerance")
    return evals, q
