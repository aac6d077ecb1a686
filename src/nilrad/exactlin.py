"""Exact rational linear algebra kernel.

Scalars are Python ints when integral and `fractions.Fraction` otherwise
(arbitrary precision, always reduced, positive denominator); matrices
are small immutable dense arrays of rationals.  An integral entry stays
an int from the JSON file (`scalar`) through every product and inverse.
`scalar` reads each distinct string once (an LRU memo of 4,096 texts): the
ints and Fractions it shares are immutable, and a rejected string raises
again on every read.
Everything that the rest of the package proves is proved here by exact
elimination; there is no floating point.

Arithmetic runs in Python ints.  A product clears each operand to one
common denominator and sparse integer rows (`scaled_sparse`),
multiplies those (`sparse_mul`) and reads the product back through
`Matrix.from_sparse`, which divides only its nonzero entries (`quotient`).
The Clifford test `anticommutator_scalar` forms no product: it sums each row
of A B + B A from the rows of A and B and stops at the first row that is
not s e_i.  rank, solve and inverse are read off the one kernel below, each
row cleared of denominators on its own: `rank` is the columns less the kernel's
dimension, and `solve` and `inverse` read the kernel vectors of [m | rhs] and
[m | -I] at their last columns, so every answer is certified by substitution
(an invertible diagonal m needs no kernel: `inverse` reads 1/x_i off the diagonal).
`inertia` counts the pivot signs of one symmetric elimination, and
`is_positive_definite` asks it for (n, 0).  Kernels work on sparse integer rows and
return primitive integer vectors; `Fraction` enters only when
`nullspace` hands them back as coordinates.  A kernel is one sparse
elimination for every size: the columns of the one-term rows are zeroed
before the rows are indexed, structured elimination drains the rows with
one or two nonzeros, each leftover row is reduced in place at its smallest
column, and one back-substitution per free column, pushing each new entry
to the pivots that read it and taking them largest column first, recovers
the echelon-form basis of the whole system.  A pivot that divides the entry
it eliminates reduces the row with no scaling and no content gcd.  Every
vector is certified by exact integer substitution into every original row.
Polynomials are read off one Sturm chain in ints: `real_root_count` counts
their distinct real roots, and `rational_roots` isolates them by bisection
and finds every rational root, with no cap on the coefficients.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
from collections import deque
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Rational = Fraction


# "p" or "p/q" in ASCII digits, signed, with surrounding ASCII whitespace: no
# exponent (a "1e30000000" would build a 30-million-digit int), decimal point,
# underscore or non-ASCII digit, so every supported Python reads the same strings
_RAT_STR = re.compile(r"\s*[+-]?\d+(?:/\d+)?\s*\Z", re.ASCII)


def rat(x) -> Fraction:
    """Coerce int (not bool) / str ("p/q" or "p") / Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if not _RAT_STR.match(x):
            raise ValueError(f"cannot read {x!r} as a rational \"p\" or \"p/q\"")
        p, _, q = x.partition("/")
        try:
            return Fraction(int(p), int(q or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as a rational")


def scalar(x):
    """An int for an int (not bool) or an integer string, else `rat(x)`."""
    if type(x) is int:
        return x
    return _str_scalar(x) if type(x) is str else rat(x)


@functools.lru_cache(maxsize=4096)
def _str_scalar(s: str):
    """`scalar` of a string, memoised; an exception is never cached, so a bad text raises again."""
    return int(s) if "/" not in s and _RAT_STR.match(s) else rat(s)


def quotient(x: int, d: int):
    """x / d for ints, d > 0: an int when d divides x, else a Fraction."""
    if d == 1:
        return x
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


def rat_str(q: Fraction) -> str:
    """Serialize a rational (a Fraction or an int) as "p/q", or "p" when the denominator is 1."""
    q = q if type(q) is int else rat(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Matrix:
    """Immutable dense matrix of rationals, row-major: each entry is an int when it
    is integral and a Fraction otherwise, except where a caller passes Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Tuple[Tuple[Fraction, ...], ...]):
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(tuple(scalar(x) for x in r) for r in rows)
        if not data:
            return cls(0, 0, ())
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(len(data), ncols, data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls(r, c, tuple(tuple(0 for _ in range(c)) for _ in range(r)))

    @classmethod
    def from_sparse(cls, rows: Sequence[Sequence[Tuple[int, int]]], ncols: int,
                    d: int = 1) -> "Matrix":
        """The matrix rows / d of sparse integer rows that repeat no column, d > 0; only
        the nonzero entries are divided, each by `quotient`."""
        data = [[0] * ncols for _ in rows]
        for row, r in zip(data, rows):
            for j, x in r:
                row[j] = quotient(x, d)
        return cls(len(data), ncols, tuple(map(tuple, data)))

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Matrix":
        es = [scalar(e) for e in entries]
        n = len(es)
        return cls(n, n, tuple(
            tuple(es[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

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
        c = scalar(c)
        return Matrix(self.rows, self.cols, tuple(
            tuple(c * a for a in r) for r in self.data))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        (da, a), (db, b) = scaled_sparse(self), scaled_sparse(other)
        return Matrix.from_sparse(sparse_mul(a, b), other.cols, da * db)

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
# Exact answers read off the kernel
# ---------------------------------------------------------------------------

def _int_row(values: Sequence, cols: Optional[Sequence[int]] = None) -> List[Tuple[int, int]]:
    """The values times the lcm of their denominators, as one sparse integer row;
    value k sits at column cols[k] (column k when cols is None)."""
    return [(j, x) for j, x in zip(range(len(values)) if cols is None else cols,
                                   clear_denominators(values)) if x]


def rank(m: Matrix) -> int:
    """Exact rank over the rationals: the columns less the kernel's dimension."""
    return m.cols - len(nullspace_int_rows([_int_row(r) for r in m.data], m.cols))


def nullspace(m: Matrix) -> List[Tuple[Fraction, ...]]:
    """Basis of the right kernel of m, as coordinate vectors.

    The basis is the one the reduced echelon form gives, computed by
    `nullspace_int_rows` and certified by exact substitution.
    """
    rows = [_int_row(r) for r in m.data]
    return [tuple(Fraction(x) for x in v) for v in nullspace_int_rows(rows, m.cols)]


def solve(m: Matrix, rhs: Sequence[Fraction]) -> Optional[Tuple[Fraction, ...]]:
    """One solution of m x = rhs (free variables zero), or None when inconsistent.

    Only the kernel vector of [m | rhs] for the free column n = m.cols can be
    nonzero at n, and it is c (x, -1); with n a pivot column there is none."""
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    n = m.cols
    kernel = nullspace_int_rows([_int_row([*r, scalar(b)]) for r, b in zip(m.data, rhs)], n + 1)
    if not kernel or not kernel[-1][n]:
        return None
    return tuple(Fraction(x, -kernel[-1][n]) for x in kernel[-1][:n])


def inverse(m: Matrix) -> Matrix:
    """m^{-1}: diag(1/x_i) for an invertible diagonal m, else read off the kernel of [m | -I].

    That kernel has one vector per column n + i when m is invertible, (c m^{-1} e_i, c e_i),
    nonzero at n + i; when m is singular, the first vector is zero from column n on."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    diag = [r[i] for i, r in enumerate(m.data)]
    if all(diag) and not any(any(r[:i]) or any(r[i + 1:]) for i, r in enumerate(m.data)):
        return Matrix.diagonal([quotient(x.denominator, x.numerator) if x > 0
                                else -quotient(x.denominator, -x.numerator) for x in diag])
    kernel = nullspace_int_rows([_int_row([*r, -1], [*range(n), n + i])
                                 for i, r in enumerate(m.data)], 2 * n)
    if len(kernel) != n or not all(v[n + i] for i, v in enumerate(kernel)):
        raise ValueError("matrix is singular")
    cols = []
    for i, v in enumerate(kernel):
        c = v[n + i]
        cols.append([quotient(x, c) if c > 0 else quotient(-x, -c) for x in v[:n]])
    return Matrix(n, n, tuple(zip(*cols)))


def inertia(m: Matrix) -> Tuple[int, int]:
    """(positive, negative) eigenvalue counts of a symmetric m (unchecked): the pivot signs of
    one symmetric elimination on rows a_i / d_i in ints, d_i > 0.  Pivot k leaves a row with
    a_ik = 0 untouched (a diagonal m costs O(n^2)); a zero row is null; a zero pivot with some
    a_kj != 0 takes row/col k += t row/col j, t = +-1 such that 2 t a_kj + a_jj != 0."""
    d = [math.lcm(*(x.denominator for x in r)) for r in m.data]
    a = [[x.numerator * (di // x.denominator) for x in r] for r, di in zip(m.data, d)]
    signs, n = [0, 0], m.rows
    for k in range(n):
        if not a[k][k]:
            j = next((j for j in range(k + 1, n) if a[k][j]), None)
            if j is None:
                continue
            t = 1 if a[j][j] * d[k] + 2 * a[k][j] * d[j] else -1
            a[k], d[k] = [d[j] * x + t * d[k] * y for x, y in zip(a[k], a[j])], d[k] * d[j]
            for i in range(k, n):
                a[i][k] += t * a[i][j]
        p = a[k][k]
        signs[p < 0] += 1
        for i in range(k + 1, n):
            if x := a[i][k]:
                row, di = [p * y - x * z for y, z in zip(a[i], a[k])], d[i] * p
                g = math.gcd(di, *row) * (1 if di > 0 else -1)     # lowest terms, d_i > 0
                a[i], d[i] = [y // g for y in row], di // g
    return signs[0], signs[1]


def is_positive_definite(m: Matrix) -> bool:
    """m is symmetric and its inertia is (n, 0)."""
    return m.is_symmetric() and inertia(m) == (m.rows, 0)


# ---------------------------------------------------------------------------
# Integer kernel by structured elimination
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


def anticommutator_scalar(a: List[SparseRow], b: List[SparseRow]) -> Optional[int]:
    """s with A B + B A = s I for square matrices in sparse integer rows, else None (0
    for n = 0; a column repeated in a row adds up).  Row i of A B + B A is summed in one
    dict from a[i] against the rows of B and b[i] against the rows of A; it must hold
    row 0's diagonal s at i and nothing else, and the first row that does not gives None."""
    s = 0
    for i, (ra, rb) in enumerate(zip(a, b)):
        acc: dict = {}
        for row, other in ((ra, b), (rb, a)):
            for k, x in row:
                for j, y in other[k]:
                    acc[j] = acc.get(j, 0) + x * y
        d = acc.pop(i, 0)
        if i == 0:
            s = d
        if d != s or any(acc.values()):
            return None
    return s


def _primitive(v: List[int]) -> List[int]:
    """A nonzero int vector divided by its content, first nonzero positive (v if already so)."""
    g = 0
    for x in v:
        if x:
            g = math.gcd(g, x)
            if g == 1:
                break
    if next(x for x in v if x) < 0:
        g = -g
    return [x // g for x in v] if g != 1 else v


def verify_kernel(rows: Sequence[SparseRow], vecs: Sequence[Sequence[int]]) -> bool:
    """True when every vector satisfies every sparse row, by exact substitution.

    A row holding no column of a vector's support vanishes on it, so each
    vector is substituted into the rows that meet its support.  With no
    vector there is nothing to substitute, and no column index is built.
    """
    if not vecs:
        return True
    holds: dict = {}
    for k, r in enumerate(rows):
        for c, _ in r:
            holds.setdefault(c, []).append(k)
    for v in vecs:
        meet = set()
        for c, x in enumerate(v):
            if x and c in holds:
                meet.update(holds[c])
        for k in meet:
            if sum([x * v[c] for c, x in rows[k]]):
                return False
    return True


def nullspace_int_rows(rows: Sequence[SparseRow], ncols: int) -> List[List[int]]:
    """Kernel basis of sparse integer rows, as primitive int vectors.

    Each row lists its entries as (column, value) pairs; a repeated
    column adds up.  The columns of the one-term rows are zero in every
    kernel vector, so they are taken out before the rows are indexed, and
    a row that lies wholly inside them is not stored.  Structured
    elimination then drains the rows with one or two nonzeros: a
    singleton a x_c = 0 sets x_c = 0, and a doubleton a x_i + b x_j = 0
    with i < j, divided by gcd(a, b) and negated if need be so that a > 0,
    substitutes x_i = -b/a x_j into every row holding i, so no row gains a
    nonzero or is scaled by a negative factor.  Each residual row is reduced
    in place at its smallest column against the residual pivot rows so far,
    until that column is no pivot column, and pivots there with a positive
    entry.  Both steps take a row's entry x at the pivot a as it comes: when
    a | x the row loses (x / a) times the pivot row, with no scaling and no
    content gcd; otherwise it is scaled by a / gcd(a, x) first and divided
    by its content after.  Every pivot row a x_i + sum b_j x_j = 0 has a > 0
    and only columns j > i, so the free columns are those of the reduced
    echelon form.  Each free column's vector starts as its unit vector and
    is back-substituted by pushing: each new entry x_j adds b x_j to the
    pending sum of every pivot row that holds j (one index, column -> rows),
    and the pivots with a pending sum leave a heap largest column first (an
    early residual row may hold a later one's pivot).  A sum that has
    cancelled to zero sets nothing; a sum y that a does not divide scales
    the vector and every pending sum by a / gcd(a, y).  The result is the
    echelon-form basis: entries coprime, first nonzero positive.  Every
    vector is certified against every input row by exact substitution.
    """
    dead = set()            # columns of the one-term rows, then each eliminated one
    merged = []
    for r in rows:
        d = dict(r)
        if len(d) < len(r):
            d = {}
            for c, x in r:
                d[c] = d.get(c, 0) + x
        if not all(d.values()):
            d = {c: x for c, x in d.items() if x}
        if len(d) == 1:
            dead.update(d)
        elif d:
            merged.append(d)
    work: List[Optional[dict]] = []
    holds: List[set] = [set() for _ in range(ncols)]    # column -> rows holding it
    for d in merged:
        if dead and not dead.isdisjoint(d):
            d = {c: x for c, x in d.items() if c not in dead}
            if not d:
                continue
        for c in d:
            holds[c].add(len(work))
        work.append(d)
    subs = []               # (i, a, terms): a x_i + sum of b x_j over terms = 0, each j > i
    queue = deque(k for k, d in enumerate(work) if len(d) <= 2)
    while queue:
        k = queue.popleft()
        d = work[k]
        if d is None:
            continue
        work[k] = None
        if not d:
            continue
        for c in d:
            holds[c].discard(k)
        if len(d) == 1:
            (i, _), = d.items()
            for m in holds[i]:
                r = work[m]
                del r[i]
                if len(r) <= 2:
                    queue.append(m)
        else:
            (i, a), (j, b) = sorted(d.items())
            g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
            a, b = a // g, b // g
            subs.append((i, a, ((j, b),)))
            for m in holds[i]:
                r = work[m]
                x = r.pop(i)
                if x % a:
                    g = math.gcd(a, x)
                    s, t = a // g, x // g
                    for c in r:
                        r[c] *= s
                else:
                    s, t = 1, x // a
                y = r.get(j, 0) - t * b
                if y:
                    r[j] = y
                    holds[j].add(m)
                elif j in r:
                    del r[j]
                    holds[j].discard(m)
                if s != 1:
                    g = math.gcd(*r.values())
                    if g > 1:
                        for c in r:
                            r[c] //= g
                if len(r) <= 2:
                    queue.append(m)
        dead.add(i)
    pivots = {}             # residual pivot column c -> (a, terms), as in subs
    for r in work:
        while r and (c := min(r)) in pivots:
            (a, terms), x = pivots[c], r.pop(c)
            if x % a:
                g = math.gcd(a, x)
                s, t = a // g, x // g
                for k in r:
                    r[k] *= s
            else:
                s, t = 1, x // a
            for k, y in terms:
                y = r.get(k, 0) - t * y
                if y:
                    r[k] = y
                else:
                    del r[k]
            if s != 1:
                g = math.gcd(*r.values())
                if g > 1:
                    for k in r:
                        r[k] //= g
        if r:
            if r[c] < 0:
                r = {k: -y for k, y in r.items()}
            pivots[c] = (r.pop(c), tuple(r.items()))
    readers: List[list] = [[] for _ in range(ncols)]    # column j -> (i, -b) per pivot row
    pivot_a = {}
    for i, a, terms in subs + [(c, *sub) for c, sub in pivots.items()]:
        pivot_a[i] = a
        for j, b in terms:
            readers[j].append((i, -b))
    basis = []
    for f in sorted(set(range(ncols)).difference(dead, pivots)):
        v, sums, heap = {}, {}, []      # sums[i] = -(sum of b x_j) so far, for each i on the heap
        i, x = f, 1
        while True:
            v[i] = x
            for k, b in readers[i]:
                if k in sums:
                    sums[k] += b * x
                else:
                    sums[k] = b * x
                    heapq.heappush(heap, -k)
            y = 0
            while heap and not y:
                i = -heapq.heappop(heap)
                y = sums.pop(i)
            if not y:
                break
            a = pivot_a[i]
            if y % a:
                s = a // math.gcd(a, y)
                for k in v:
                    v[k] *= s
                for k in sums:
                    sums[k] *= s
                y *= s
            x = y // a
        vec = [0] * ncols
        for k, x in v.items():
            vec[k] = x
        basis.append(_primitive(vec))
    if not verify_kernel(rows, basis):
        raise ArithmeticError("kernel failed certification by substitution")
    return basis


# ---------------------------------------------------------------------------
# Minimal polynomial, rational spectra
# ---------------------------------------------------------------------------

def minimal_polynomial(m: Matrix) -> List[Fraction]:
    """Monic minimal polynomial coefficients, lowest degree first.

    With m = A / d in integers, c_0 m^0 + .. + c_k m^k = 0 exactly when the
    integer columns vec(A^j) d^(k-j), j = 0..k, satisfy the same relation.
    The powers are tried to k = 1, 2, 4, .. (at most n, where Cayley-Hamilton
    gives a kernel).  At the first k with a kernel, its smallest free column
    is the degree, so the first basis vector, cut at its last nonzero, holds
    the coefficients.
    """
    if m.rows != m.cols:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return [Fraction(1)]
    d, a = scaled_sparse(m)
    powers: List[List[List[Tuple[int, int]]]] = [[[(i, 1)] for i in range(n)]]
    k = 1
    while True:
        while len(powers) <= k:
            powers.append(sparse_mul(powers[-1], a))
        rows = [[] for _ in range(n * n)]
        for j, p in enumerate(powers):
            s = d ** (k - j)
            for i, r in enumerate(p):
                for c, x in r:
                    rows[i * n + c].append((j, x * s))
        kernel = nullspace_int_rows(rows, k + 1)
        if kernel:
            break
        k = min(2 * k, n)
    v = kernel[0]
    deg = max(j for j, c in enumerate(v) if c)
    return [Fraction(c, v[deg]) for c in v[:deg + 1]]


# the last chain is kept, so real_root_count then rational_roots on one f build it once
@functools.lru_cache(maxsize=1)
def _sturm_chain(f: Tuple[int, ...]) -> List[Sequence[int]]:
    """p_0 = f, p_1 = f', p_{k+1} = -(p_{k-1} mod p_k), down to gcd(f, f'), for an int f
    (low-first, nonzero leading coefficient); each remainder is a pseudo-remainder in
    ints, made primitive, so each member is a positive multiple of the classical one."""
    chain = [f, [k * c for k, c in enumerate(f)][1:]]
    while chain[-1]:
        r, q = list(chain[-2]), chain[-1]
        while len(r) >= len(q):
            # |lc q| r - sign(lc q) lead(r) x^k q drops the leading term
            t = r.pop() if q[-1] > 0 else -r.pop()
            r = [abs(q[-1]) * c for c in r]
            for i, c in enumerate(q[:-1], len(r) + 1 - len(q)):
                r[i] -= t * c
        while r and not r[-1]:
            r.pop()
        g = math.gcd(*r)
        chain.append([-c // g for c in r])
    chain.pop()
    return chain


def _scaled_value(p: Sequence[int], u: int, w: int) -> int:
    """w^deg(p) p(u / w), an int with the sign of p(u / w) for w > 0 (Horner)."""
    acc, s = 0, 1
    for c in reversed(p):
        acc, s = acc * u + c * s, s * w
    return acc


def real_root_count(coeffs: Sequence[Fraction]) -> int:
    """The number of distinct real roots of f (low-first, nonzero leading coefficient):
    by the generalised Sturm theorem, the sign changes of the chain's leading terms
    at -infinity less those at +infinity, with no square-free step."""
    chain = _sturm_chain(tuple(clear_denominators([rat(c) for c in coeffs])))
    # signs of each p at +infinity and at -infinity, where an odd degree flips it
    pos = [p[-1] > 0 for p in chain]
    neg = [up != (len(p) % 2 == 0) for up, p in zip(pos, chain)]
    return sum(a != b for a, b in zip(neg, neg[1:])) - sum(a != b for a, b in zip(pos, pos[1:]))


def rational_roots(coeffs: Sequence[Fraction]) -> List[Fraction]:
    """All rational roots of a nonzero polynomial (low-first coefficients), each once.

    Degrees 1 and 2 are solved in closed form.  Otherwise, with f cleared
    to ints and e = |a_n|, a root p/q in lowest terms has q | a_n, so it is k / e
    for an integer k, and no point (2k + 1) / (2e) is a root.  Bisection on Sturm
    counts at those points stops at the intervals around one k / e, and each k / e
    whose interval holds a real root is checked by exact substitution.  No cap.
    """
    ics = clear_denominators([rat(c) for c in coeffs])
    while ics and not ics[-1]:
        ics.pop()
    if not ics:
        raise ValueError("the zero polynomial has every rational root")
    a0, an, deg = ics[0], ics[-1], len(ics) - 1
    if deg == 1:
        return [Fraction(-a0, an)]
    if deg == 2:
        # the roots (-a1 +- s) / (2 a2) are rational exactly when a1^2 - 4 a0 a2 = s^2
        disc = ics[1] ** 2 - 4 * a0 * an
        s = math.isqrt(disc) if disc >= 0 else -1
        return sorted({Fraction(-ics[1] + s, 2 * an), Fraction(-ics[1] - s, 2 * an)}
                      if s * s == disc else [])
    chain, e, roots = _sturm_chain(tuple(ics)), abs(an), []

    def variations(u: int) -> int:
        """Sign changes of the chain at u / (2e), zeros skipped."""
        signs = [v > 0 for v in (_scaled_value(p, u, 2 * e) for p in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # Cauchy: every root has |x| <= 1 + max |a_k / a_n|, so |2e x| < u
    u = 2 * (e + max(map(abs, ics))) + 1
    stack = [(-u, variations(-u), u, variations(u))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo != vhi and hi - lo == 2 and not _scaled_value(ics, (lo + 1) // 2, e):
            roots.append(Fraction((lo + 1) // 2, e))
        elif vlo != vhi and hi - lo > 2:
            mid = lo + 2 * ((hi - lo) // 4)
            vmid = variations(mid)
            stack += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
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
