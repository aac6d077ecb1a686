"""Metric structure on 2-step algebras and the Heisenberg-type machinery.

A `MetricStructure` is a graded positive definite inner product on a
`TwoStepAlgebra`.  It induces, for every central direction z, the skew
map J_z on the V layer defined by  <J_z x, y>_V = <[x, y], z>_Z.  The
algebra is of Heisenberg type (H-type) when these maps satisfy the
Clifford relations  J_z J_w + J_w J_z = -2 <z, w> Id,  which is checked
here exactly on basis pairs.

The two classical families are built by `make_h` (F^{2n} + F with
bracket a.d - c.b) and `make_h_prime` (F^{p+q} + Im F with bracket
a.conj(c) - c.conj(a) on the first block and conj(d).b - conj(b).d on
the second).  The sign on the second block makes the Clifford volume
element act as +1 on the p block and -1 on the q block, which is what
distinguishes the (p, q) signatures; with both signs equal the two
blocks would carry equivalent Clifford modules and every signature
would collapse to (p+q, 0).  `make_h_prime` carries gramV = 2 Id,
gramZ = Id: the doubled V metric absorbs the factor 2 produced by the
conjugation bracket, and is forced by the Clifford relations (a graded
scaling (s, c) of the metrics supports H-type exactly when s^2 = 4c).

`make_clifford_module_algebra` builds H-type algebras from explicit
real Clifford module actions for center dimensions 1..8, including the
examples outside the two families.  `identify_family` names the family
from the inertia of the Clifford pencil's volume form: any basis, no metric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .division import Tag, mul as fmul, conj as fconj, unit as funit
from .exactlin import (
    Matrix,
    anticommutator_scalar,
    clear_denominators,
    inertia,
    inverse,
    is_positive_definite,
    mat_vec,
    minimal_polynomial,
    nullspace,
    nullspace_int_rows,
    rank,
    rat,
    rational_roots,
    rational_sqrt,
    scalar,
    scaled_sparse,
    sparse_mul,
)
from .nilalg import TwoStepAlgebra, _clifford_form


# ---------------------------------------------------------------------------
# Metric structures and J maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricStructure:
    """Graded positive definite inner product on a two-step algebra.

    Its J maps and H-type verdict are computed once, on first use."""

    algebra: TwoStepAlgebra
    gram_v: Matrix
    gram_z: Matrix

    def __post_init__(self):
        alg = self.algebra
        if self.gram_v.shape != (alg.dim_v, alg.dim_v):
            raise ValueError("gramV shape does not match dimV")
        if self.gram_z.shape != (alg.dim_z, alg.dim_z):
            raise ValueError("gramZ shape does not match dimZ")
        if not is_positive_definite(self.gram_v):
            raise ValueError("gramV is not symmetric positive definite")
        if alg.dim_z and not is_positive_definite(self.gram_z):
            raise ValueError("gramZ is not symmetric positive definite")

    def ip_z(self, z: Sequence[Fraction], w: Sequence[Fraction]) -> Fraction:
        return sum((a * b for a, b in zip(mat_vec(self.gram_z, w), z)), Fraction(0))

    @cached_property
    def gram_v_inv(self) -> Matrix:
        """gramV^{-1}, inverted once per metric."""
        return inverse(self.gram_v)

    @cached_property
    def int_j_maps(self) -> Tuple[int, Tuple[List[List[Tuple[int, int]]], ...]]:
        """(d, maps) with J_a = maps[a] / d = -gramV^{-1} sum_c gramZ[a, c] B_c in
        sparse integer rows, from the cached gramV^{-1} and the bracket forms B_c."""
        n = self.algebra.dim_v
        dg, ginv = scaled_sparse(-self.gram_v_inv)
        dz, gz = scaled_sparse(self.gram_z)
        db, forms = self.algebra.bracket_forms
        # sum_c gZ[a, c] B_c for every a: gZ times the forms flattened to rows (k n + j)
        sums = sparse_mul(gz, [[(k * n + j, x) for k, r in enumerate(f) for j, x in r]
                               for f in forms])
        blocks = [[[] for _ in range(n)] for _ in sums]
        for block, flat in zip(blocks, sums):
            for kj, x in flat:
                block[kj // n].append((kj % n, x))
        return dg * dz * db, tuple(sparse_mul(ginv, block) for block in blocks)

    @cached_property
    def clifford(self) -> bool:
        """The H-type verdict: J_a J_b + J_b J_a = -2 gramZ[a, b] Id for all a <= b,
        checked as M_a M_b + M_b M_a == -2 gramZ[a, b] d^2 Id on J_a = M_a / d in ints."""
        alg = self.algebra
        if alg.dim_z == 0 or alg.dim_v == 0:
            return False
        (d, maps), gz = self.int_j_maps, self.gram_z
        return all(anticommutator_scalar(maps[a], maps[b]) == -2 * gz[a, b] * d * d
                   for a in range(alg.dim_z) for b in range(a, alg.dim_z))


def jz(ms: MetricStructure, z: Sequence) -> Matrix:
    """The map J_z on the V layer, defined by <J_z x, y>_V = <[x,y], z>_Z:
    sum_a z_a M_a / d on J_a = M_a / d, with z cleared to integers."""
    zz = [scalar(c) for c in z]
    if len(zz) != ms.algebra.dim_z:
        raise ValueError("z must live in the Z layer")
    (d, maps), n = ms.int_j_maps, ms.algebra.dim_v
    dz = math.lcm(*(c.denominator for c in zz))
    zrow = [(a, c.numerator * (dz // c.denominator)) for a, c in enumerate(zz) if c]
    # sum_a z_a M_a is the block row [z_0 Id .. z_m Id] times the block column [M_0; ..; M_m]
    prod = sparse_mul([[(a * n + i, c) for a, c in zrow] for i in range(n)],
                      [r for m in maps for r in m])
    return Matrix.from_sparse(prod, n, d * dz)


def j_basis(ms: MetricStructure) -> List[Matrix]:
    """J maps of the Z basis vectors as rational matrices: the dense view
    J_a = maps[a] / d of `int_j_maps`."""
    d, maps = ms.int_j_maps
    return [Matrix.from_sparse(m, ms.algebra.dim_v, d) for m in maps]


def is_htype(ms: MetricStructure) -> bool:
    """Exact Clifford-relation check on all basis pairs.

    True iff J_{z_a} J_{z_b} + J_{z_b} J_{z_a} = -2 gramZ(z_a, z_b) Id for
    all pairs, which also forces fundamentality (brackets span Z) and
    non-triviality of the module.
    """
    return ms.clifford


# ---------------------------------------------------------------------------
# Family identifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HTypeFamilyId:
    """Which classical family (if any) an H-type algebra belongs to."""

    kind: str                       # "h" | "hprime" | "other"
    tag: Optional[Tag] = None
    params: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("h", "hprime", "other"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "h":
            (n,) = self.params
            if n < 1:
                raise ValueError("h family needs n >= 1")
            if self.tag is Tag.O and n != 1:
                raise ValueError("h family over O exists only for n = 1")
        if self.kind == "hprime":
            p, q = self.params
            if self.tag is Tag.R:
                raise ValueError("h' family needs a nonzero imaginary part")
            if p < 0 or q < 0 or p + q < 1:
                raise ValueError("h' family needs p, q >= 0 with p + q >= 1")
            if self.tag is Tag.O and (p, q) != (1, 0):
                raise ValueError("h' family over O exists only for (p, q) = (1, 0)")

    def dims(self) -> Tuple[int, int]:
        if self.kind == "h":
            d = self.tag.dim
            return (2 * self.params[0] * d, d)
        if self.kind == "hprime":
            d = self.tag.dim
            return ((self.params[0] + self.params[1]) * d, d - 1)
        raise ValueError("no canonical dimensions for kind 'other'")

    def equivalent(self, other: "HTypeFamilyId") -> bool:
        """Equality up to the (p, q) <-> (q, p) swap."""
        if self.kind != other.kind or self.tag is not other.tag:
            return False
        if self.kind == "hprime":
            return self.params == other.params or self.params == other.params[::-1]
        return self.params == other.params

    def __str__(self) -> str:
        if self.kind == "h":
            return f"h_{self.params[0]}({self.tag.name})"
        if self.kind == "hprime":
            return f"h'_{self.params[0]},{self.params[1]}({self.tag.name})"
        return "other"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_h(tag: Tag, n: int) -> MetricStructure:
    """The algebra F^{2n} + F with bracket [(a,b),(c,d)] = a.d - c.b.

    Both Gram matrices are the identity.  Over O only n = 1 is accepted.
    """
    fid = HTypeFamilyId("h", tag, (n,))  # validates the parameters
    d = tag.dim
    dim_v, dim_z = fid.dims()
    brackets: Dict[Tuple[int, int], List[Fraction]] = {}
    for slot in range(n):
        for u in range(d):
            for v in range(d):
                i = slot * d + u              # a-block basis element e_u in slot
                j = (n + slot) * d + v        # b-block basis element e_v in slot
                prod = fmul(funit(tag, u), funit(tag, v))
                if not prod.is_zero():
                    brackets[(i, j)] = list(prod.coords)
    alg = TwoStepAlgebra.from_brackets(str(fid), dim_v, dim_z, brackets)
    return MetricStructure(alg, Matrix.identity(dim_v), Matrix.identity(dim_z))


def make_h_prime(tag: Tag, p: int, q: int) -> MetricStructure:
    """The algebra F^{p+q} + Im F of signature (p, q).

    Bracket on the p block is a.conj(c) - c.conj(a), on the q block
    conj(d).b - conj(b).d; gramV = 2 Id and gramZ = Id (see module notes).
    """
    fid = HTypeFamilyId("hprime", tag, (p, q))  # validates the parameters
    d = tag.dim
    dim_v, dim_z = fid.dims()
    brackets: Dict[Tuple[int, int], List[Fraction]] = {}
    for slot in range(p + q):
        plus_block = slot < p
        for u in range(d):
            for v in range(u + 1, d):
                eu, ev = funit(tag, u), funit(tag, v)
                if plus_block:
                    w = fmul(eu, fconj(ev)) - fmul(ev, fconj(eu))
                else:
                    w = fmul(fconj(ev), eu) - fmul(fconj(eu), ev)
                if w.coords[0] != 0:
                    raise ArithmeticError(f"bracket of units {u}, {v} has a real part")
                if not w.is_zero():
                    brackets[(slot * d + u, slot * d + v)] = list(w.coords[1:])
    alg = TwoStepAlgebra.from_brackets(str(fid), dim_v, dim_z, brackets)
    return MetricStructure(alg, Matrix.identity(dim_v).scale(2), Matrix.identity(dim_z))


def _left_mult_matrix(tag: Tag, k: int) -> Matrix:
    d = tag.dim
    cols = [fmul(funit(tag, k), funit(tag, j)).coords for j in range(d)]
    return Matrix.from_rows([[cols[j][i] for j in range(d)] for i in range(d)])


def clifford_generators(m: int) -> Tuple[int, List[Matrix]]:
    """One irreducible real Clifford module for center dimension m (1..8).

    Returns (module dimension, [J_1 .. J_m]) with exact integer entries,
    J_a skew, J_a J_b + J_b J_a = -2 delta_ab.  For m = 3 and 7 (where two
    inequivalent modules exist) the returned one has volume J_1...J_m = +Id;
    negating all generators gives the other class.
    """
    if not 1 <= m <= 8:
        raise ValueError("center dimension must be between 1 and 8")
    if m == 1:
        tag = Tag.C
    elif m <= 3:
        tag = Tag.H
    elif m <= 7:
        tag = Tag.O
    else:
        tag = None
    if tag is not None:
        gens = [-_left_mult_matrix(tag, a) for a in range(1, m + 1)]
        dim = tag.dim
    else:
        dim = 16
        gens = []
        for u in range(8):
            eu = funit(Tag.O, u)
            cols = []
            for j in range(8):        # images of (e_j, 0): (0, conj(e_j) u)
                img = fmul(fconj(funit(Tag.O, j)), eu)
                cols.append([Fraction(0)] * 8 + list(img.coords))
            for j in range(8):        # images of (0, e_j): (-u conj(e_j), 0)
                img = -fmul(eu, fconj(funit(Tag.O, j)))
                cols.append(list(img.coords) + [Fraction(0)] * 8)
            gens.append(Matrix.from_rows(
                [[cols[j][i] for j in range(16)] for i in range(16)]))
    if m % 4 == 3 and not reduce(Matrix.__mul__, gens).is_identity():
        raise ArithmeticError(f"volume element of the m = {m} generators is not +Id")
    return dim, gens


def make_clifford_module_algebra(
        center_dim: int,
        multiplicities: Union[int, Tuple[int, int]]) -> MetricStructure:
    """H-type algebra from copies of the irreducible Clifford module(s).

    `multiplicities` is a copy count, or for center dimensions 3 and 7 a
    pair (plus copies, minus copies) selecting how many summands carry
    volume +Id and -Id.  Both Gram matrices are the identity and the
    bracket is defined by <[x, y], z> = <J_z x, y>.
    """
    if isinstance(multiplicities, int):
        mults = (multiplicities, 0)
    else:
        mults = (int(multiplicities[0]), int(multiplicities[1]))
    if mults[0] < 0 or mults[1] < 0 or sum(mults) < 1:
        raise ValueError("module multiplicities must be non-negative and not all zero")
    if mults[1] and center_dim % 4 != 3:
        raise ValueError("two module classes exist only for center dimension 3 or 7")
    dim, gens = clifford_generators(center_dim)
    blocks = [gens] * mults[0] + [[-g for g in gens]] * mults[1]
    total = dim * len(blocks)
    # J_a is block diagonal: [e_i, e_j]_a = J_a[j, i] within a block, 0 across blocks
    brackets: Dict[Tuple[int, int], List[Fraction]] = {}
    for b, blk in enumerate(blocks):
        off = b * dim
        for i in range(dim):
            for j in range(i + 1, dim):
                vec = [g[j, i] for g in blk]
                if any(vec):
                    brackets[(off + i, off + j)] = vec
    desc = f"{mults[0]}" if not mults[1] else f"{mults[0]}+,{mults[1]}-"
    alg = TwoStepAlgebra.from_brackets(
        f"clifford({center_dim};{desc})", total, center_dim, brackets)
    ms = MetricStructure(alg, Matrix.identity(total), Matrix.identity(center_dim))
    if not is_htype(ms):
        raise ArithmeticError(f"{alg.name} fails the H-type certification")
    return ms


# ---------------------------------------------------------------------------
# Family identification
# ---------------------------------------------------------------------------

def identify_family(alg: TwoStepAlgebra) -> HTypeFamilyId:
    """Classify an H-type algebra from its Clifford pencil, in any basis and with no metric:
    B_0 nondegenerate and A'_b = B_0^{-1} B_b - (tr / n) I anticommuting to -2 q_ab I with q
    positive definite, as `nilalg.is_nonsingular` certifies (ValueError otherwise).  The layer
    dimensions decide, and for dimZ = 3 the inertia {4p, 4q} of S = B_0 A'_1 A'' (in ints on
    B_0 and C_b = n e A'_b), A'' = q_11 A'_2 - q_12 A'_1: for an H-type metric S is gramV times
    the volume element up to a factor, and a change of V basis is a congruence of S.  Anything
    outside the six families maps to "other"."""
    dv, dz, forms = alg.dim_v, alg.dim_z, alg.bracket_forms[1]
    if not dv or not dz or nullspace_int_rows(forms[0], dv):
        raise ValueError("identify_family expects an H-type algebra, so a nondegenerate B_0")
    q, cs = _clifford_form(inverse(Matrix.from_sparse(forms[0], dv)), forms)
    if q is None or not is_positive_definite(q):
        raise ValueError("identify_family expects an H-type algebra, so a positive definite q")
    if dz == 1:
        return HTypeFamilyId("hprime", Tag.C, (dv // 2, 0))
    if dz == 2:
        return HTypeFamilyId("h", Tag.C, (dv // 4,))
    if dz == 3:
        w1, w2 = clear_denominators([q[0, 0], q[0, 1]])    # over one positive denominator
        comb = [[(j, w1 * x) for j, x in c2] + [(j, -w2 * x) for j, x in c1] for c1, c2 in zip(*cs)]
        s = Matrix.from_sparse(sparse_mul(forms[0], sparse_mul(cs[0], comb)), dv)
        # S^t = -A''^t A'_1^t B_0 = -B_0 A'' A'_1 = S: A'_b is B_0-self-adjoint
        if not s.is_symmetric():
            raise ArithmeticError("the pencil's volume form S is not symmetric")
        p4, q4 = inertia(s)
        # S is a quaternion-Hermitian form, nondegenerate as B_0, A'_1 and A'' are invertible
        if p4 % 4 or q4 % 4 or p4 + q4 != dv:
            raise ArithmeticError(f"the pencil's volume form S has inertia ({p4}, {q4})")
        return HTypeFamilyId("hprime", Tag.H, (max(p4, q4) // 4, min(p4, q4) // 4))
    if dz == 4 and dv % 8 == 0:
        return HTypeFamilyId("h", Tag.H, (dv // 8,))
    if dz == 7 and dv == 8:
        return HTypeFamilyId("hprime", Tag.O, (1, 0))
    if dz == 8 and dv == 16:
        return HTypeFamilyId("h", Tag.O, (1,))
    return HTypeFamilyId("other")


# ---------------------------------------------------------------------------
# Graded maps and automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedMap:
    """Block-diagonal (V, Z) linear map of a graded algebra."""

    map_v: Matrix
    map_z: Matrix

    def compose(self, other: "GradedMap") -> "GradedMap":
        return GradedMap(self.map_v * other.map_v, self.map_z * other.map_z)


def dilation(alg: TwoStepAlgebra, t) -> GradedMap:
    """The grading dilation: t on V, t^2 on Z (always an automorphism)."""
    t = rat(t)
    return GradedMap(Matrix.identity(alg.dim_v).scale(t),
                     Matrix.identity(alg.dim_z).scale(t * t))


def is_graded_automorphism(alg: TwoStepAlgebra, gm: GradedMap) -> bool:
    """Exact bracket equivariance on all basis pairs, plus invertibility."""
    if rank(gm.map_v) != alg.dim_v or (alg.dim_z and rank(gm.map_z) != alg.dim_z):
        return False
    return _first_bracket_violation(alg, gm) is None


def is_isometry(ms: MetricStructure, gm: GradedMap) -> bool:
    return _preserves(gm.map_v, ms.gram_v) and _preserves(gm.map_z, ms.gram_z)


def _preserves(a: Matrix, gram: Matrix) -> bool:
    """a^t gram a == gram."""
    return a.transpose() * gram * a == gram


def pullback_metric(ms: MetricStructure, gm: GradedMap) -> MetricStructure:
    """The metric <x, y>' = <A x, A y> for a graded map A."""
    return MetricStructure(
        ms.algebra,
        gm.map_v.transpose() * ms.gram_v * gm.map_v,
        gm.map_z.transpose() * ms.gram_z * gm.map_z)


def sigma_automorphism(ms: MetricStructure, z: Sequence) -> GradedMap:
    """The orthogonal automorphism (J_z, reflection fixing z) for unit z.

    The Z block fixes z and negates its orthogonal complement.  The
    identity [J_z x, J_z y] = -[x, y] + 2 <z, [x, y]> z is verified
    exactly on every basis pair; failure is a hard error because it
    means the Clifford structure is broken.
    """
    zz = [scalar(c) for c in z]
    if ms.ip_z(zz, zz) != 1:
        raise ValueError("sigma automorphism needs a gramZ-unit vector z")
    if not is_htype(ms):
        raise ValueError("sigma automorphism is defined for H-type structures only")
    alg = ms.algebra
    gz_z = mat_vec(ms.gram_z, zz)
    map_z = Matrix(alg.dim_z, alg.dim_z, tuple(
        tuple(2 * zi * gj - int(i == j) for j, gj in enumerate(gz_z))
        for i, zi in enumerate(zz)))
    gm = GradedMap(jz(ms, zz), map_z)
    if not is_graded_automorphism(alg, gm):
        raise ArithmeticError(
            "sigma map failed exact automorphism verification; "
            "the metric does not carry a consistent Clifford structure")
    return gm


# ---------------------------------------------------------------------------
# Irreducibility probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeVerdict:
    """`kind` is "irreducible", "reducible" or "inconclusive" (nothing to act
    on).  A reducible verdict carries an exactly verified invariant subspace
    when some commutant element has a rational eigenvalue, else None."""

    kind: str
    detail: str = ""
    invariant_subspace: Optional[Tuple[Tuple[Fraction, ...], ...]] = None


def irreducibility_probe(ms: MetricStructure,
                         generators: Optional[Sequence[GradedMap]] = None,
                         seed: int = 0) -> ProbeVerdict:
    """Decide whether the Clifford maps J_a, or the given generators, act
    irreducibly on the V layer over R.

    Without generators the metric must pass the exact `is_htype` check
    (ValueError otherwise), and the maps are its cached integer J_a.  G J_a =
    -sum_c gramZ[a, c] B_c is skew, so the gramV-adjoint of J_a is -J_a: the
    family is closed under the adjoint up to sign, and the gramV-orthogonal
    complement of an invariant subspace is invariant.  For a gramZ-unit z the V
    block of the reflection automorphism sigma_z is J_z = sum_a z_a J_a, and the
    unit vectors span Z (the rational ones do too, when there is one), so the
    commutant of the J_a is the commutant of the sigma maps, in every basis of Z.
    Explicit generators must each pass an exact automorphism and isometry check
    (ValueError otherwise); then the maps are their cleared V blocks, and complements of
    invariant subspaces are again invariant.
    Hence V is irreducible exactly when the gramV-self-adjoint commutant is the
    scalars; a non-scalar element S certifies reducibility, and a rational
    eigenspace W = ker(S - r I) is an invariant subspace, verified exactly by
    (S - r I) g W = 0 for every map g, W holding a basis of the eigenspace as
    columns.
    `seed` is ignored; it stays accepted for existing callers.
    """
    alg = ms.algebra
    if generators is None:
        if not is_htype(ms):
            raise ValueError("the metric is not H-type, so it has no Clifford maps J_z "
                             "to probe with")
        maps = [(ms.int_j_maps[0], m) for m in ms.int_j_maps[1]]
    else:
        for g in generators:
            if not is_graded_automorphism(alg, g):
                raise ValueError("generator fails exact automorphism verification")
            if not is_isometry(ms, g):
                raise ValueError("generator is not an isometry of the metric")
        maps = [scaled_sparse(g.map_v) for g in generators]
    n = alg.dim_v
    if n == 0 or not maps:
        return ProbeVerdict("inconclusive", "nothing to act on")
    sym_comm = _symmetric_commutant(maps, ms)
    if len(sym_comm) == 1:
        return ProbeVerdict("irreducible", "the exact gramV-self-adjoint commutant "
                            "is the scalars")
    for s in sym_comm:
        poly = minimal_polynomial(s)
        roots = rational_roots(poly) if len(poly) > 2 else []  # degree 1: s is a scalar
        if not roots:
            continue
        k = s - Matrix.identity(n).scale(roots[0])
        w_basis = nullspace(k)
        # W takes one common denominator: clearing row by row would change its span
        _, krows = scaled_sparse(k)
        _, wrows = scaled_sparse(Matrix.from_rows(w_basis).transpose())
        if any(any(sparse_mul(krows, sparse_mul(g, wrows))) for _, g in maps):
            raise ArithmeticError("eigenspace of a commutant element is not "
                                  "invariant under the generators")
        return ProbeVerdict("reducible", "eigenspace of a gramV-self-adjoint "
                            "commutant element, invariance verified exactly",
                            tuple(w_basis))
    return ProbeVerdict("reducible", f"the gramV-self-adjoint commutant has dimension "
                        f"{len(sym_comm)}, but no element of its basis has a rational "
                        "eigenvalue")


def _symmetric_commutant(maps: Sequence[Tuple[int, list]], ms: MetricStructure) -> List[Matrix]:
    """Exact basis of the gram-self-adjoint commutant {S : S g = g S, gram S = S^t gram}
    of the V maps g = Gg / dg, each given as (dg, sparse integer rows of Gg), for
    gram = gramV of the metric.

    It is S = gram^{-1} T for the invariant symmetric forms T = T^t with
    T g = h T, h = gram g gram^{-1}; for gram = c Id these are the symmetric
    S = T / c with S g = g S.  The unknowns are the entries T[i][j], j <= i, in
    row-major order, so the basis read off the echelon form is the one over
    all n^2 entries; g = Gg / dg and h = Gh / dh add the integer rows of
    dh T Gg - dg Gh T, where Gh = G Gg G' and dh = dG dg dG' are formed in
    sparse integer rows from gram = G / dG and gram^{-1} = G' / dG', and the
    columns of Gg are read by bucketing its rows.
    When G Gg is skew (every J_a and every sigma V block), g^t = -h, so
    E = T g - h T is symmetric for symmetric T and row (j, i) repeats row (i, j):
    only the n(n+1)/2 rows i <= j are emitted.  Other maps give all n^2 rows.
    """
    gram, gram_inv = ms.gram_v, ms.gram_v_inv
    n = gram.rows
    (dgram, grows), (dinv, irows) = scaled_sparse(gram), scaled_sparse(gram_inv)
    pos = [[max(i, j) * (max(i, j) + 1) // 2 + min(i, j) for j in range(n)] for i in range(n)]
    rows = []
    for dg, g in maps:
        dh = dgram * dg * dinv
        gcols = [[] for _ in range(n)]
        for k, r in enumerate(g):
            for j, x in r:
                gcols[j].append((k, x))
        ggrows = sparse_mul(grows, g)
        entries = {(i, k): x for i, r in enumerate(ggrows) for k, x in r}
        skew = all(entries.get((k, i)) == -x for (i, k), x in entries.items())
        hrows = sparse_mul(ggrows, irows)
        for i in range(n):
            for j in range(i if skew else 0, n):
                rows.append([(pos[i][k], x * dh) for k, x in gcols[j]]
                            + [(pos[k][j], -x * dg) for k, x in hrows[i]])
    out = []
    for v in nullspace_int_rows(rows, n * (n + 1) // 2):
        sign = 1 if next(v[k] for row in pos for k in row if v[k]) > 0 else -1
        out.append(gram_inv * Matrix.from_rows([[sign * v[k] for k in row] for row in pos]))
    return out


# ---------------------------------------------------------------------------
# Swap automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwapResult:
    automorphism: Optional[GradedMap]
    corrected_word: Tuple[int, ...] = ()
    violating_pair: Optional[Tuple[int, int]] = None
    candidates_tried: int = 0

    def __bool__(self) -> bool:
        return self.automorphism is not None


def build_swap_automorphism(ms: MetricStructure,
                            v1: Sequence[Sequence[Fraction]],
                            v2: Sequence[Sequence[Fraction]],
                            theta: GradedMap) -> SwapResult:
    """Extend an isometric isomorphism of v1 + Z onto v2 + Z to all of n.

    The candidate acts as theta on v1, theta^{-1} on v2, the identity on
    the orthogonal complement and theta's Z block on Z.  It is verified
    exactly on every basis pair (cross pairs included).  On failure,
    theta is precomposed with words of up to two letters and the
    verification is retried; if no word works the violating pair is
    reported.  The letters are the sigma automorphisms of the Z basis
    vectors that are gramZ units, each built when a word first needs it.
    A theta that fails `_check_theta` by itself raises ValueError.
    """
    alg = ms.algebra
    b1 = [list(b) for b in v1]
    b2 = [list(b) for b in v2]
    k = len(b1)
    if not k or len(b2) != k or _span_dim(b1) != k or _span_dim(b2) != k:
        raise ValueError("v1 and v2 must be given by bases of equal positive dimension")
    p1, p2 = Matrix.from_rows(b1), Matrix.from_rows(b2)
    same_space = _span_dim(b1 + b2) == k
    if not same_space and not (p1 * ms.gram_v * p2.transpose()).is_zero():
        raise ValueError("v1 and v2 must be orthogonal")
    for j in j_basis(ms):
        if any(_span_dim(p.to_rows() + (p * j.transpose()).to_rows()) != k for p in (p1, p2)):
            raise ValueError("v1 and v2 must be invariant under the Clifford action")
    units = [a for a in range(alg.dim_z) if ms.gram_z[a, a] == 1]
    words = [()] + [w for depth in (1, 2) for w in itertools.product(units, repeat=depth)]
    sigmas: Dict[int, GradedMap] = {}
    tried = 0
    last_violation = None
    for word in words:
        cand_theta = theta
        for a in word:
            if a not in sigmas:
                sigmas[a] = sigma_automorphism(ms, [int(a == b) for b in range(alg.dim_z)])
            cand_theta = cand_theta.compose(sigmas[a])
        try:
            t = _check_theta(ms, p1, p2, cand_theta)
        except ValueError:
            if not word:
                raise
            continue
        gm = _assemble_swap(ms, p1, p2, t, cand_theta.map_z, same_space)
        tried += 1
        violation = _first_bracket_violation(alg, gm)
        if violation is None:
            return SwapResult(gm, word, None, tried)
        last_violation = violation
    return SwapResult(None, (), last_violation, tried)


def _span_dim(vecs: Sequence[Sequence[Fraction]]) -> int:
    """The dimension of the span of the vectors."""
    return rank(Matrix.from_rows(vecs)) if vecs else 0


def _check_theta(ms: MetricStructure, p1: Matrix, p2: Matrix, theta: GradedMap) -> Matrix:
    """Raise ValueError unless theta maps v1 (the rows of p1) isometrically and
    homomorphically onto v2 (the rows of p2) and is a gramZ-isometry on Z.

    The image rows t = p1 theta^t must have rank dim v1, without raising the rank
    of p2, and satisfy t G t^t = p1 G p1^t; on the bracket defects D_c of theta
    (`_bracket_defects`), p1 D_c p1^t = 0 for every c.  Returns t.
    """
    k, g = p1.rows, ms.gram_v
    t = p1 * theta.map_v.transpose()
    if _span_dim(p2.to_rows() + t.to_rows()) != k:
        raise ValueError("theta does not map v1 into v2")
    if _span_dim(t.to_rows()) != k:
        raise ValueError("theta is not injective on v1")
    if t * g * t.transpose() != p1 * g * p1.transpose():
        raise ValueError("theta is not isometric on v1")
    if not _preserves(theta.map_z, ms.gram_z):
        raise ValueError("theta is not isometric on Z")
    (_, rows), (_, cols) = scaled_sparse(p1), scaled_sparse(p1.transpose())
    _, defects = _bracket_defects(ms.algebra, theta)
    if any(any(sparse_mul(rows, sparse_mul(dc, cols))) for dc in defects):
        raise ValueError("theta is not a homomorphism of the subalgebras")
    return t


def _assemble_swap(ms: MetricStructure, p1: Matrix, p2: Matrix, t: Matrix,
                   map_z: Matrix, same_space: bool) -> GradedMap:
    """The graded map that sends the rows of p1 to the rows t = p1 theta^t, takes
    v2 back by theta^{-1} (unless v2 = v1), fixes the gramV-orthogonal complement
    and acts by map_z on Z.  A row c of p2 is x t for x = c G t^t K^{-1}, with
    K = t G t^t invertible because theta is injective on v1, so theta^{-1} c = x p1."""
    g = ms.gram_v
    rows_in, rows_out = p1.to_rows(), t.to_rows()
    if not same_space:
        gt = g * t.transpose()
        rows_in += p2.to_rows()
        rows_out += (p2 * gt * inverse(t * gt) * p1).to_rows()
    comp = [list(w) for w in nullspace(Matrix.from_rows(rows_in) * g)]
    basis = Matrix.from_rows(rows_in + comp).transpose()
    image = Matrix.from_rows(rows_out + comp).transpose()
    return GradedMap(image * inverse(basis), map_z)


def _bracket_defects(alg: TwoStepAlgebra, gm: GradedMap
                     ) -> Tuple[int, List[List[List[Tuple[int, int]]]]]:
    """(s, D): the z_c coordinate of [A e_i, A e_j] - C [e_i, e_j] is D[c][i][j] / s.

    A = map_v = GV / dV and C = map_z = GZ / dZ; for every bracket form B_c
    (over the forms' denominator d) the skew defect
    D_c = GV^t B_c GV dZ - dV^2 sum_e GZ[c, e] B_e is formed in ints, row k in one
    dict: row k of GV^t against the rows of B_c GV dZ, and -dV^2 GZ[c, e] against
    row k of each B_e.  Rows are sorted and hold no zeros, and s = d dV^2 dZ.
    """
    dv, a = scaled_sparse(gm.map_v)
    _, at = scaled_sparse(gm.map_v.transpose())
    dz, c_rows = scaled_sparse(gm.map_z)
    d, forms = alg.bracket_forms
    a = [[(k, x * dz) for k, x in r] for r in a]
    defects = []
    for form, c_row in zip(forms, c_rows):
        ba = sparse_mul(form, a)
        mix = [(forms[e], -x * dv * dv) for e, x in c_row]
        dc = []
        for k, rk in enumerate(at):
            acc: dict = {}
            for j, x in rk:
                for col, y in ba[j]:
                    acc[col] = acc.get(col, 0) + x * y
            for f, x in mix:
                for col, y in f[k]:
                    acc[col] = acc.get(col, 0) + x * y
            dc.append(sorted((col, v) for col, v in acc.items() if v))
        defects.append(dc)
    return d * dv * dv * dz, defects


def _first_bracket_violation(alg: TwoStepAlgebra, gm: GradedMap
                             ) -> Optional[Tuple[int, int]]:
    """The first basis pair i < j with [A e_i, A e_j] != C [e_i, e_j], or None."""
    _, defects = _bracket_defects(alg, gm)
    # a skew defect's first nonzero row is nonzero only right of its diagonal
    return min(((i, r[0][0]) for dc in defects for i, r in enumerate(dc) if r),
               default=None)


# ---------------------------------------------------------------------------
# Transfer operator between two H-type metrics
# ---------------------------------------------------------------------------

# bits of an irrational lambda; the ceiling keeps its printed digits under
# Python's int-to-str limit of 4,300 digits
MIN_PRECISION = 64
MAX_PRECISION = 4096
DEFAULT_PRECISION = 128


@dataclass(frozen=True)
class TransferReport:
    """The exact verdict of `transfer_operator`.

    `exact` says whether P is rational.  The residuals are exact rationals
    read as floats: of P when it is rational, of M = P^2 otherwise, so every
    one is zero when `ok` holds; `residual_metric` is 0 by construction, since
    P P = M and gram1 P = P^t gram1 give P^t gram1 P = gram1 M = gram2 (checked
    exactly for a rational P).  `lam` is lambda when it is rational, else its
    decimal truncation at `precision` bits; `lam_sq` is lambda^2.
    """

    precision: int
    exact: bool
    lam: Union[Fraction, str]
    lam_sq: Fraction
    residual_automorphism: float
    residual_center: float
    residual_metric: float
    residual_lambda_sq: float
    ok: bool


def transfer_operator(ms1: MetricStructure, ms2: MetricStructure,
                      precision: int = DEFAULT_PRECISION
                      ) -> Tuple[Optional[GradedMap], TransferReport]:
    """Unique positive gram1-self-adjoint P with <x,y>_2 = (Px, Py)_1.

    Both metrics must make the (same) algebra H-type.  P is the blockwise positive
    square root of M = gram1^{-1} gram2, so P^t gram1 P = gram2 by
    construction.  M is gram1-self-adjoint and positive; if it is a graded
    automorphism with M|_Z = lambda^2 Id, a nonzero bracket of eigenvectors
    e_i, e_j forces mu_i mu_j = lambda^2, so sqrt(mu_i) sqrt(mu_j) = lambda
    and P is a graded automorphism with P|_Z = lambda Id.  Conversely M = P^2,
    and gramZ_2 = lambda^2 gramZ_1 is M|_Z = lambda^2 Id.  So every claim is
    an exact check on M.  A rational P is returned as a `GradedMap` and its own
    residuals are checked; otherwise the operator is None and the residuals are M's.
    The first metric is checked exactly before any computation, the second only
    when a residual is nonzero: an `ok` report certifies a graded automorphism P
    with P^t gram1 P = gram2, which makes gram2 H-type (J'_z = P^{-1} J_{P z} P);
    lambda is expanded after that check, as M|_Z may then have a negative entry.
    """
    if ms1.algebra is not ms2.algebra and ms1.algebra != ms2.algebra:
        raise ValueError("transfer operator needs two metrics on the same algebra")
    if not MIN_PRECISION <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must be between {MIN_PRECISION} and "
                         f"{MAX_PRECISION} bits")
    if not is_htype(ms1):
        raise ValueError("first metric is not H-type; the transfer operator is undefined")
    mv = ms1.gram_v_inv * ms2.gram_v
    mz = inverse(ms1.gram_z) * ms2.gram_z
    pv = _rational_positive_sqrt(mv, ms1.gram_v)
    pz = None if pv is None else _rational_positive_sqrt(mz, ms1.gram_z)
    if pv is not None and pz is not None:
        op = gm = GradedMap(pv, pz)
        lam = pz[0, 0]
        lam_sq = lam * lam
    else:
        op, gm, lam_sq, lam = None, GradedMap(mv, mz), mz[0, 0], None
    residuals = _residuals(ms1, ms2, gm, lam_sq)
    ok = not any(residuals)
    if not ok and not is_htype(ms2):
        raise ValueError("second metric is not H-type; the transfer operator is undefined")
    if lam is None and (lam := rational_sqrt(lam_sq)) is None:
        lam = _decimal_sqrt(lam_sq, precision)
    return op, TransferReport(precision, op is not None, lam, lam_sq, *map(float, residuals), ok)


def _rational_positive_sqrt(m: Matrix, gram: Matrix) -> Optional[Matrix]:
    """Exact positive square root P of M = gram^{-1} gram2, when it exists over Q:
    P = q(M) for the q with q(mu_i) = sqrt(mu_i) on the distinct eigenvalues mu_i
    of the diagonalizable M, by Horner's rule on the Newton divided differences c_i,
    P = c_0 + (M - mu_0)(c_1 + (M - mu_1)(c_2 + ...)), in k - 1 products for k roots.
    P P = M and gram P = (gram P)^t (gram is symmetric) are checked exactly."""
    n = m.rows
    poly = minimal_polynomial(m)
    roots = rational_roots(poly)
    if len(roots) != len(poly) - 1:
        return None
    c = []
    for r in roots:
        s = rational_sqrt(r)
        if s is None or r <= 0:
            return None
        c.append(s)
    for k in range(1, len(c)):
        for i in range(len(c) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (roots[i] - roots[i - k])
    ident = Matrix.identity(n)
    p = ident.scale(c[-1])
    for ci, mu in zip(c[-2::-1], roots[-2::-1]):
        p = (m - ident.scale(mu)) * p + ident.scale(ci)
    gp = gram * p
    if p * p != m or gp != gp.transpose():
        return None
    return p


def _residuals(ms1: MetricStructure, ms2: MetricStructure, gm: GradedMap,
               lam_sq: Fraction) -> Tuple[Fraction, Fraction, int, Fraction]:
    """The exact residuals of gm = P or M in `TransferReport` order: its bracket defect, its Z
    block's distance from a scalar, 0 for the metric and max |lambda^2 gramZ_1 - gramZ_2|."""
    zs, c = gm.map_z.data, gm.map_z[0, 0]
    res_center = max(abs(x - c * (i == j)) for i, r in enumerate(zs) for j, x in enumerate(r))
    scale, defects = _bracket_defects(ms1.algebra, gm)
    res_auto = Fraction(max((abs(x) for dc in defects for r in dc for _, x in r),
                            default=0), scale)
    return res_auto, res_center, 0, max(abs(lam_sq * a - b) for ra, rb in zip(
        ms1.gram_z.data, ms2.gram_z.data) for a, b in zip(ra, rb))


def _decimal_sqrt(q: Fraction, precision: int) -> str:
    """sqrt(q) truncated to D decimals, the fewest with 10^-D <= 2^-precision:
    the printed x satisfies x^2 <= q < (x + 10^-D)^2."""
    digits = len(str(1 << precision))
    whole, frac = divmod(math.isqrt(q.numerator * 10 ** (2 * digits) // q.denominator),
                         10 ** digits)
    return f"{whole}.{frac:0{digits}d}"
