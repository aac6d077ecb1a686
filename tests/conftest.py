"""Shared fixtures: constructor fleet and cached prolongation results."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import nilrad
from nilrad.division import Tag, conj as fconj, element, mul as fmul, norm_sq, unit as funit
from nilrad.exactlin import (Matrix, _int_rref, _nullspace_from_rref, clear_denominators,
                              inverse, mat_vec, scaled_sparse, sparse_mul)
from nilrad.htype import (
    GradedMap,
    MetricStructure,
    make_clifford_module_algebra,
    make_h,
    make_h_prime,
)
from nilrad.nilalg import TwoStepAlgebra
from nilrad.prolong import prolong


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run a snippet in a fresh interpreter, with the given flags, with this nilrad."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilrad.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run a snippet under `python -O` (asserts compiled away) with this nilrad."""
    return run_python(code, "-O")


def dense_kernel(rows, ncols):
    """Reference kernel basis of sparse integer rows, read off the dense
    integer echelon form."""
    dense = [[0] * ncols for _ in rows]
    for d, r in zip(dense, rows):
        for c, x in r:
            d[c] += x
    return _nullspace_from_rref(*_int_rref(dense), ncols)


def _fraction_actions(alg, layers, j):
    """Reference action tables of g_j over Fractions: (V directions, Z directions)."""
    nv, nz = alg.dim_v, alg.dim_z
    if j <= -2:
        return None, None
    if j == -1:
        brk = [[alg.bracket_basis(b, i) for b in range(nv)] for i in range(nv)]
        return [[[(b, x[t]) for b, x in enumerate(brk[i]) if x[t]] for t in range(nz)]
                for i in range(nv)], None
    layer = layers[j]
    m1s = [m1 for m1, _ in layer.basis]
    m2s = [m2 for _, m2 in layer.basis]
    av = [[[(b, Fraction(m[t, i])) for b, m in enumerate(m1s) if m[t, i]]
           for t in range(layer.dim_prev1)] for i in range(nv)]
    az = [[[(b, Fraction(m[t, a])) for b, m in enumerate(m2s) if m[t, a]]
           for t in range(layer.dim_prev2)] for a in range(nz)]
    return av, az


def reference_leibniz_rows(alg, k, layers):
    """(rows, unknowns): the degree-k Leibniz equations assembled as dicts of
    Fractions through `bracket_basis`, each row then cleared of denominators.
    The assembly `prolong.compute_layer` used before it read the integer
    bracket forms; kept as the reference its integer rows are checked against."""
    nv, nz = alg.dim_v, alg.dim_z

    def dim(j):
        return {-1: nv, -2: nz}.get(j, 0) if j < 0 else layers[j].dim

    d1, d2, d3, d4 = (dim(k - n) for n in (1, 2, 3, 4))
    av1, az1 = _fraction_actions(alg, layers, k - 1)
    av2, az2 = _fraction_actions(alg, layers, k - 2)
    off2 = nv * d1
    rows = []

    def emit(terms):
        row = {}
        for col, val in terms:
            row[col] = row.get(col, Fraction(0)) + val
        row = {c: x for c, x in row.items() if x}
        if row:
            rows.append(list(zip(row, clear_denominators(list(row.values())))))

    for i in range(nv):
        for j in range(i + 1, nv):
            cij = alg.bracket_basis(i, j)
            for t in range(d2):
                terms = [(off2 + t * nz + a, cij[a]) for a in range(nz) if cij[a]]
                if av1 is not None:
                    terms += [(b * nv + i, -x) for b, x in av1[j][t]]
                    terms += [(b * nv + j, x) for b, x in av1[i][t]]
                emit(terms)
    for i in range(nv):
        for a in range(nz):
            for t in range(d3):
                terms = [] if az1 is None else [(b * nv + i, x) for b, x in az1[a][t]]
                if av2 is not None:
                    terms += [(off2 + s * nz + a, -x) for s, x in av2[i][t]]
                emit(terms)
    if az2 is not None:
        for a in range(nz):
            for b in range(a + 1, nz):
                for t in range(d4):
                    emit([(off2 + s * nz + a, x) for s, x in az2[b][t]]
                         + [(off2 + s * nz + b, -x) for s, x in az2[a][t]])
    return rows, nv * d1 + nz * d2


def reference_bracket_span(alg: TwoStepAlgebra) -> Matrix:
    """Rows are all bracket values [e_i, e_j] as stored; row space is [V, V]."""
    rows = [list(vec) for _, vec in alg.brackets]
    if not rows:
        return Matrix.zeros(1, alg.dim_z) if alg.dim_z else Matrix.zeros(0, 0)
    return Matrix.from_rows(rows)


def free_two_step(generators: int, name: Optional[str] = None) -> TwoStepAlgebra:
    """Free 2-step nilpotent algebra: Z has one direction per generator pair."""
    pairs = [(i, j) for i in range(generators) for j in range(i + 1, generators)]
    dim_z = len(pairs)
    brackets = {}
    for t, (i, j) in enumerate(pairs):
        vec = [Fraction(0)] * dim_z
        vec[t] = Fraction(1)
        brackets[(i, j)] = vec
    return TwoStepAlgebra.from_brackets(
        name or f"free2({generators})", generators, dim_z, brackets)


def rescaled(alg, v_scale, z_scale):
    """The algebra in the basis v_scale[i] e_i, z_scale[a] z_a: the bracket
    constant c_ij^a becomes v_scale[i] v_scale[j] c_ij^a / z_scale[a]."""
    return TwoStepAlgebra.from_brackets(
        alg.name + " rescaled", alg.dim_v, alg.dim_z,
        {(i, j): [Fraction(v_scale[i] * v_scale[j] * c, z_scale[a]) for a, c in enumerate(vec)]
         for (i, j), vec in alg.brackets})


def dense_mul(a: Matrix, b: Matrix) -> Matrix:
    """Reference product: the dense triple loop over Fractions."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} * {b.shape}")
    bt = b.transpose().data
    return Matrix(a.rows, b.cols, tuple(
        tuple(sum((x * y for x, y in zip(ra, cb)), Fraction(0)) for cb in bt)
        for ra in a.data))


def dense_det(m: Matrix) -> Fraction:
    """Reference determinant by Fraction elimination with row exchanges."""
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
        for i in range(c + 1, n):
            f = Fraction(a[i][c], a[c][c])
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def reference_anticommutator_scalar(a, b):
    """Reference for `exactlin.anticommutator_scalar`: A B + B A as the block row
    [A B] times the block column [B; A], compared whole with s I."""
    n = len(a)
    prod = sparse_mul([ra + [(k + n, x) for k, x in rb] for ra, rb in zip(a, b)], b + a)
    s = dict(prod[0]).get(0, 0) if n else 0
    return s if prod == [[(i, s)] if s else [] for i in range(n)] else None


def reference_bracket_defects(alg, gm):
    """Reference for `htype._bracket_defects`: row k of D_c is one `sparse_mul` of
    (row k of GV^t, -dV^2 GZ[c, :]) against the stacked rows of B_c GV dZ and the
    rows k of every B_e."""
    n = alg.dim_v
    dv, a = scaled_sparse(gm.map_v)
    _, at = scaled_sparse(gm.map_v.transpose())
    dz, c_rows = scaled_sparse(gm.map_z)
    d, forms = alg.bracket_forms
    a = [[(k, x * dz) for k, x in r] for r in a]
    defects = []
    for form, c_row in zip(forms, c_rows):
        stacked = sparse_mul(form, a)
        mix = [(n + e, -x * dv * dv) for e, x in c_row]
        defects.append([sparse_mul([at[k] + mix], stacked + [f[k] for f in forms])[0]
                        for k in range(n)])
    return d * dv * dv * dz, defects


_BUILDERS = {
    "h1C": lambda: make_h(Tag.C, 1),
    "h1H": lambda: make_h(Tag.H, 1),
    "h1O": lambda: make_h(Tag.O, 1),
    "hp10C": lambda: make_h_prime(Tag.C, 1, 0),
    "hp10H": lambda: make_h_prime(Tag.H, 1, 0),
    "hp11H": lambda: make_h_prime(Tag.H, 1, 1),
    "hp21H": lambda: make_h_prime(Tag.H, 2, 1),
    "hp10O": lambda: make_h_prime(Tag.O, 1, 0),
    "cliff5": lambda: make_clifford_module_algebra(5, 1),
    "cliff7x2": lambda: make_clifford_module_algebra(7, 2),
}
FLEET = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def fleet_member(key: str) -> MetricStructure:
    return _BUILDERS[key]()


@lru_cache(maxsize=None)
def prolong_dims(key: str, max_degree: int, stop_when_zero: bool = True):
    res = prolong(fleet_member(key).algebra, max_degree, stop_when_zero=stop_when_zero)
    return tuple(res.dims()), res.verdict, res.last_nonzero


def unit_z(ms: MetricStructure, a: int):
    return [Fraction(1 if b == a else 0) for b in range(ms.algebra.dim_z)]


def left_mult_matrix(tag: Tag, q) -> Matrix:
    cols = [fmul(q, funit(tag, j)).coords for j in range(tag.dim)]
    return Matrix.from_rows([[cols[j][i] for j in range(tag.dim)]
                             for i in range(tag.dim)])


def right_mult_matrix(tag: Tag, q) -> Matrix:
    cols = [fmul(funit(tag, j), q).coords for j in range(tag.dim)]
    return Matrix.from_rows([[cols[j][i] for j in range(tag.dim)]
                             for i in range(tag.dim)])


def conformal_automorphism_h1H(u, v, w) -> GradedMap:
    """(a, b) -> (u a conj(w), w b conj(v)), z -> |w|^2 u z conj(v) on h_1(H)."""
    H = Tag.H
    a_block = left_mult_matrix(H, u) * right_mult_matrix(H, fconj(w))
    b_block = left_mult_matrix(H, w) * right_mult_matrix(H, fconj(v))
    z_block = (left_mult_matrix(H, u) * right_mult_matrix(H, fconj(v))).scale(norm_sq(w))
    rows = []
    for i in range(8):
        row = []
        for j in range(8):
            if i < 4 and j < 4:
                row.append(a_block[i, j])
            elif i >= 4 and j >= 4:
                row.append(b_block[i - 4, j - 4])
            else:
                row.append(Fraction(0))
        rows.append(row)
    return GradedMap(Matrix.from_rows(rows), z_block)


def random_quaternion(rng: random.Random):
    while True:
        q = element(Tag.H, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(4)])
        if not q.is_zero():
            return q


def transfer_pairs(seed: int = 2024, count: int = 20):
    """Seeded second metrics on h_1(H): pullbacks by a conformal map and a rational
    dilation, composed with a reflection on every third draw.  Each one takes the
    irrational route of the transfer operator."""
    from nilrad.htype import dilation, pullback_metric, sigma_automorphism
    rng = random.Random(seed)
    ms1 = make_h(Tag.H, 1)
    out = []
    for trial in range(count):
        gm = conformal_automorphism_h1H(
            random_quaternion(rng), random_quaternion(rng), random_quaternion(rng))
        gm = gm.compose(dilation(ms1.algebra, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
        if trial % 3 == 0:
            gm = gm.compose(sigma_automorphism(ms1, unit_z(ms1, rng.randrange(4))))
        out.append(pullback_metric(ms1, gm))
    return out


def pair_loop_bracket(alg, x, y):
    """Reference bracket: Z coordinates of [x, y] for V coordinate vectors x, y,
    summed over the stored pairs `alg.brackets`.  It never reads
    `bracket_forms`, so it checks the forms and every verdict read off them."""
    out = [Fraction(0)] * alg.dim_z
    for (i, j), vec in alg.brackets:
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for t, s in enumerate(vec):
                out[t] += c * s
    return out


def rebase_v(ms: MetricStructure, superdiagonal) -> MetricStructure:
    """The same metric algebra in the V basis given by the columns of
    T = I + N, N carrying `superdiagonal` above the diagonal: the brackets
    become [T e_i, T e_j] and gramV becomes T^t gramV T."""
    alg, n = ms.algebra, ms.algebra.dim_v
    t = Matrix.from_rows([[Fraction(int(i == j)) + (Fraction(superdiagonal[i]) if j == i + 1 else 0)
                           for j in range(n)] for i in range(n)])
    cols = t.transpose().data
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = pair_loop_bracket(alg, cols[i], cols[j])
            if any(vec):
                brackets[(i, j)] = list(vec)
    rebased = TwoStepAlgebra.from_brackets(alg.name + " rebased", n, alg.dim_z, brackets)
    return MetricStructure(rebased, t.transpose() * ms.gram_v * t, ms.gram_z)


# rational unit vectors (c, s), c^2 + s^2 = 1, for `rebase_z`
UNIT_PAIRS = ((Fraction(0), Fraction(1)), (Fraction(3, 5), Fraction(4, 5)),
              (Fraction(-5, 13), Fraction(12, 13)), (Fraction(8, 17), Fraction(-15, 17)))


def rebase_z(ms: MetricStructure, pairs, scale=1) -> MetricStructure:
    """The same metric algebra in the Z basis given by the columns of U, whose
    column 0 is scale z_0 and column b > 0 is scale (c_b z_{b-1} + s_b z_b) for
    the pair (c_b, s_b) = pairs[b - 1]: bracket coordinates become
    U^{-1} [e_i, e_j] and gramZ becomes U^t gramZ U.  With gramZ = Id, scale 1
    and unit pairs every new basis vector is a unit vector, and a nonzero c_b
    makes columns b - 1 and b non-orthogonal."""
    alg, m = ms.algebra, ms.algebra.dim_z
    cols = [[Fraction(int(a == b)) for a in range(m)] for b in range(m)]
    for b, (c, s) in zip(range(1, m), pairs):
        cols[b][b - 1], cols[b][b] = c, s
    u = Matrix.from_rows([[scale * cols[b][a] for b in range(m)] for a in range(m)])
    u_inv = inverse(u)
    brackets = {key: list(mat_vec(u_inv, vec)) for key, vec in alg.brackets}
    rebased = TwoStepAlgebra.from_brackets(alg.name + " z-rebased", alg.dim_v, m, brackets)
    return MetricStructure(rebased, ms.gram_v, u.transpose() * ms.gram_z * u)


def random_thirds(n: int, seed: int):
    """n random thirds in [-1, 1], as drawn for `rebase_v`."""
    rng = random.Random(seed)
    return [Fraction(rng.randint(-3, 3), 3) for _ in range(n)]


def pencil_findings():
    """The two dimZ = 2 algebras that no rational sample decides: h_1(C) in the
    Z basis (z_1 + z_2, 3 z_2), nonsingular, and R^4 with B_1 = [[0, I], [-I, 0]]
    and B_2 = [[0, S], [-S^t, 0]] for S = [[0, 2], [1, 0]], singular because
    det(t B_1 + B_2) = (t^2 - 2)^2 has only the irrational roots +-sqrt(2)."""
    h1c = make_h(Tag.C, 1).algebra
    rebased = TwoStepAlgebra.from_brackets(
        "h_1(C) in (z_1 + z_2, 3 z_2)", 4, 2,
        {key: [a, (b - a) / 3] for key, (a, b) in h1c.brackets})
    irrational = TwoStepAlgebra.from_brackets(
        "S = [[0, 2], [1, 0]]", 4, 2,
        {(0, 2): [1, 0], (1, 3): [1, 0], (0, 3): [0, 2], (1, 2): [0, 1]})
    return rebased, irrational


def mix_z(alg: TwoStepAlgebra, seed: int) -> TwoStepAlgebra:
    """alg with every bracket value mapped by P = L U, L and U unit triangular with
    random thirds in [-1, 1] off the diagonal: the same algebra in another Z basis,
    neither orthogonal nor a scaling of one, and carrying no metric."""
    rng, m = random.Random(seed), alg.dim_z
    tri = [[[Fraction(rng.randint(-3, 3), 3) if (i > j if lower else i < j) else
             Fraction(int(i == j)) for j in range(m)] for i in range(m)] for lower in (True, False)]
    p = Matrix.from_rows(tri[0]) * Matrix.from_rows(tri[1])
    return TwoStepAlgebra.from_brackets(alg.name + " z-mixed", alg.dim_v, m,
                                        {key: list(mat_vec(p, vec)) for key, vec in alg.brackets})


# findings with dimV 8 and dimV 4 and dimZ 3: the first is no Clifford pencil and none of its
# coordinate pencils has a degenerate member; the second is a Clifford pencil with the
# indefinite q = [[1/2, -7/4], [-7/4, 47/16]]
NON_CLIFFORD_DIMV8 = {(0, 1): [-1, 1, -2], (0, 2): [2, -1, 1], (0, 7): [2, 0, -2],
                      (1, 2): [-1, 1, 0], (1, 6): [-1, -2, 2], (2, 3): [-2, 0, -1],
                      (2, 4): [1, 2, -1], (2, 6): [2, 0, 2], (3, 4): [2, -2, 2],
                      (3, 5): [1, 0, -2], (4, 7): [1, -1, 1], (5, 7): [1, -2, 2],
                      (6, 7): [-1, 0, -2]}
INDEFINITE_DIMV4 = {(0, 1): [1, -2, 1], (0, 3): [1, 1, -2], (1, 2): [-1, 1, 2],
                    (1, 3): [2, 1, 1], (2, 3): [-1, 2, -2]}


def split_quaternion_algebra(rows=((1, 0, 0), (0, 1, 0), (0, 0, 1))) -> TwoStepAlgebra:
    """The pseudo-H-type algebra of the split quaternions (i^2 = -1, j^2 = k^2 = 1,
    k = i j): [x, y]_c = <x, L_{u_c} y> for the split norm diag(1, 1, -1, -1) and the
    imaginary units u_c = rows[c] in (i, j, k) coordinates.  B_z is degenerate exactly
    when z is on the null cone of that norm, so the algebra is singular."""
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (a * e - b * f + c * g + d * h, a * f + b * e - c * h + d * g,
                a * g + c * e - b * h + d * f, a * h + d * e + b * g - c * f)
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    norm = (1, 1, -1, -1)
    forms = [[[norm[i] * sum(u * mul(unit[t + 1], unit[j])[i] for t, u in enumerate(row))
               for j in range(4)] for i in range(4)] for row in rows]
    return TwoStepAlgebra.from_brackets(
        "split quaternions", 4, 3, {(i, j): [b[i][j] for b in forms]
                                    for i in range(4) for j in range(i + 1, 4)})


def sturm_pencil() -> TwoStepAlgebra:
    """A dimZ = 2 pencil that is no Clifford pencil: B_0 = [[0, I_4], [-I_4, 0]] and
    B_1 = [[0, S], [-S^t, 0]] with S = diag(R, 2 R), R = [[0, -1], [1, 0]].
    B_0^{-1} B_1 = diag(S^t, S) has the eigenvalues +-i and +-2i, so it is nonsingular."""
    s = {(0, 1): -1, (1, 0): 1, (2, 3): -2, (3, 2): 2}
    brackets = {(i, i + 4): [1, 0] for i in range(4)}
    brackets.update({(i, j + 4): [0, c] for (i, j), c in s.items()})
    return TwoStepAlgebra.from_brackets("S = diag(R, 2R)", 8, 2, brackets)
