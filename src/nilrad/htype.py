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
examples outside the two families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import mpmath

from .division import Tag, mul as fmul, conj as fconj, unit as funit
from .exactlin import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    Matrix,
    inverse,
    is_positive_definite,
    mat_vec,
    minimal_polynomial,
    nullspace,
    rank,
    rat,
    rational_roots,
    rational_sqrt,
    sym_eigen,
    verified_eigsy,
)
from .nilalg import TwoStepAlgebra


# ---------------------------------------------------------------------------
# Metric structures and J maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricStructure:
    """Graded positive definite inner product on a two-step algebra."""

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

    def ip_v(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return sum((a * b for a, b in zip(mat_vec(self.gram_v, y), x)), Fraction(0))

    def ip_z(self, z: Sequence[Fraction], w: Sequence[Fraction]) -> Fraction:
        return sum((a * b for a, b in zip(mat_vec(self.gram_z, w), z)), Fraction(0))


def _bracket_form(alg: TwoStepAlgebra, weights: Sequence[Fraction]) -> Matrix:
    """Antisymmetric matrix S with S[i][j] = sum_a weights[a] c_ij^a."""
    n = alg.dim_v
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), vec in alg.brackets:
        s = sum((w * c for w, c in zip(weights, vec)), Fraction(0))
        if s:
            rows[i][j] = s
            rows[j][i] = -s
    return Matrix.from_rows(rows)


def jz(ms: MetricStructure, z: Sequence) -> Matrix:
    """The map J_z on the V layer, defined by <J_z x, y>_V = <[x,y], z>_Z."""
    zz = [rat(c) for c in z]
    if len(zz) != ms.algebra.dim_z:
        raise ValueError("z must live in the Z layer")
    weights = mat_vec(ms.gram_z, zz)
    s = _bracket_form(ms.algebra, weights)
    return inverse(ms.gram_v) * (-s)


def j_basis(ms: MetricStructure) -> List[Matrix]:
    """J maps of the Z basis vectors."""
    dim_z = ms.algebra.dim_z
    return [jz(ms, [Fraction(1 if a == b else 0) for b in range(dim_z)])
            for a in range(dim_z)]


def is_htype(ms: MetricStructure) -> bool:
    """Exact Clifford-relation check on all basis pairs.

    True iff J_{z_a} J_{z_b} + J_{z_b} J_{z_a} = -2 gramZ(z_a, z_b) Id for
    all pairs, which also forces fundamentality (brackets span Z) and
    non-triviality of the module.
    """
    alg = ms.algebra
    if alg.dim_z == 0 or alg.dim_v == 0:
        return False
    js = j_basis(ms)
    n = alg.dim_v
    for a in range(alg.dim_z):
        for b in range(a, alg.dim_z):
            target = -2 * ms.gram_z[a, b]
            anti = js[a] * js[b] + js[b] * js[a]
            for i in range(n):
                for j in range(n):
                    want = target if i == j else Fraction(0)
                    if anti[i, j] != want:
                        return False
    return True


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
    HTypeFamilyId("h", tag, (n,))  # validates the parameters
    d = tag.dim
    dim_v, dim_z = 2 * n * d, d
    brackets: Dict[Tuple[int, int], List[Fraction]] = {}
    for slot in range(n):
        for u in range(d):
            for v in range(d):
                i = slot * d + u              # a-block basis element e_u in slot
                j = (n + slot) * d + v        # b-block basis element e_v in slot
                prod = fmul(funit(tag, u), funit(tag, v))
                if not prod.is_zero():
                    brackets[(i, j)] = list(prod.coords)
    alg = TwoStepAlgebra.from_brackets(f"h_{n}({tag.name})", dim_v, dim_z, brackets)
    return MetricStructure(alg, Matrix.identity(dim_v), Matrix.identity(dim_z))


def make_h_prime(tag: Tag, p: int, q: int) -> MetricStructure:
    """The algebra F^{p+q} + Im F of signature (p, q).

    Bracket on the p block is a.conj(c) - c.conj(a), on the q block
    conj(d).b - conj(b).d; gramV = 2 Id and gramZ = Id (see module notes).
    """
    HTypeFamilyId("hprime", tag, (p, q))  # validates the parameters
    d = tag.dim
    dim_v, dim_z = (p + q) * d, d - 1
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
                assert w.coords[0] == 0
                if not w.is_zero():
                    brackets[(slot * d + u, slot * d + v)] = list(w.coords[1:])
    alg = TwoStepAlgebra.from_brackets(f"h'_{p},{q}({tag.name})", dim_v, dim_z, brackets)
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
    if m % 4 == 3:
        vol = gens[0]
        for g in gens[1:]:
            vol = vol * g
        if vol == -Matrix.identity(dim):
            gens = [-g for g in gens]
        elif not vol.is_identity():
            raise ArithmeticError(f"volume element of the m = {m} generators is not +-Id")
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
    js = []
    for a in range(center_dim):
        rows = [[Fraction(0)] * total for _ in range(total)]
        for b, blk in enumerate(blocks):
            g = blk[a]
            off = b * dim
            for i in range(dim):
                for j in range(dim):
                    if g[i, j]:
                        rows[off + i][off + j] = g[i, j]
        js.append(Matrix.from_rows(rows))
    brackets: Dict[Tuple[int, int], List[Fraction]] = {}
    for i in range(total):
        for j in range(i + 1, total):
            vec = [js[a][j, i] for a in range(center_dim)]
            if any(vec):
                brackets[(i, j)] = vec
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

def identify_family(ms: MetricStructure) -> HTypeFamilyId:
    """Classify an H-type algebra by computable invariants.

    Uses layer dimensions, and for center dimension 3 the +-1 eigenspace
    dimensions (4p, 4q) of the Clifford volume element J_{z1} J_{z2} J_{z3}.
    The (p, q) parameters are recovered up to swap.  Everything that is
    not one of the six families maps to "other".
    """
    if not is_htype(ms):
        raise ValueError("identify_family expects an H-type metric structure")
    alg = ms.algebra
    dv, dz = alg.dim_v, alg.dim_z
    if dz == 1:
        return HTypeFamilyId("hprime", Tag.C, (dv // 2, 0))
    if dz == 2:
        return HTypeFamilyId("h", Tag.C, (dv // 4,))
    if dz == 3:
        p4, q4 = _volume_split(ms)
        p, q = sorted((p4 // 4, q4 // 4), reverse=True)
        return HTypeFamilyId("hprime", Tag.H, (p, q))
    if dz == 4 and dv % 8 == 0:
        return HTypeFamilyId("h", Tag.H, (dv // 8,))
    if dz == 7 and dv == 8:
        return HTypeFamilyId("hprime", Tag.O, (1, 0))
    if dz == 8 and dv == 16:
        return HTypeFamilyId("h", Tag.O, (1,))
    return HTypeFamilyId("other")


def _volume_split(ms: MetricStructure) -> Tuple[int, int]:
    js = j_basis(ms)
    omega = js[0] * js[1] * js[2]
    n = ms.algebra.dim_v
    poly = minimal_polynomial(omega)
    roots = rational_roots(poly) or []
    if len(poly) - 1 != len(roots) or not roots:
        raise ValueError("volume element does not split over the rationals; "
                         "renormalize the metric")
    lam = max(abs(r) for r in roots)
    plus = len(nullspace(omega - Matrix.identity(n).scale(lam)))
    minus = len(nullspace(omega + Matrix.identity(n).scale(lam)))
    if plus + minus != n:
        raise ValueError("volume element is not semisimple with two eigenvalues")
    return plus, minus


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

    def inverse(self) -> "GradedMap":
        return GradedMap(inverse(self.map_v), inverse(self.map_z))

    @classmethod
    def identity(cls, alg: TwoStepAlgebra) -> "GradedMap":
        return cls(Matrix.identity(alg.dim_v), Matrix.identity(alg.dim_z))


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
    gv, gz = ms.gram_v, ms.gram_z
    return (gm.map_v.transpose() * gv * gm.map_v == gv
            and gm.map_z.transpose() * gz * gm.map_z == gz)


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
    zz = [rat(c) for c in z]
    if ms.ip_z(zz, zz) != 1:
        raise ValueError("sigma automorphism needs a gramZ-unit vector z")
    if not is_htype(ms):
        raise ValueError("sigma automorphism is defined for H-type structures only")
    alg = ms.algebra
    map_v = jz(ms, zz)
    gz_z = mat_vec(ms.gram_z, zz)
    n = alg.dim_z
    map_z = Matrix.from_rows([
        [2 * zz[i] * gz_z[j] - (1 if i == j else 0) for j in range(n)]
        for i in range(n)])
    gm = GradedMap(map_v, map_z)
    if not is_graded_automorphism(alg, gm):
        raise ArithmeticError(
            "sigma map failed exact automorphism verification; "
            "the metric does not carry a consistent Clifford structure")
    return gm


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

def _colspace_rank(cols: Sequence[Sequence[Fraction]]) -> int:
    if not cols:
        return 0
    return rank(Matrix.from_rows([list(c) for c in cols]))


def subspace_contains(basis: Sequence[Sequence[Fraction]],
                      vec: Sequence[Fraction]) -> bool:
    if not any(vec):
        return True
    r0 = _colspace_rank(basis)
    return _colspace_rank(list(basis) + [list(vec)]) == r0


def maps_into(m: Matrix, basis_in: Sequence[Sequence[Fraction]],
              basis_out: Sequence[Sequence[Fraction]]) -> bool:
    return all(subspace_contains(basis_out, mat_vec(m, b)) for b in basis_in)


# ---------------------------------------------------------------------------
# Irreducibility probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeVerdict:
    kind: str                                  # "irreducible" | "reducible" | "inconclusive"
    detail: str = ""
    invariant_subspace: Optional[Tuple[Tuple[Fraction, ...], ...]] = None

    def __bool__(self) -> bool:
        return self.kind == "irreducible"


def irreducibility_probe(ms: MetricStructure, generators: Sequence[GradedMap],
                         trials: int = 32, seed: int = 0) -> ProbeVerdict:
    """Decide whether the generators act irreducibly on the V layer.

    Reducible comes with an exactly verified invariant subspace; the
    irreducible certificate combines a spanning orbit of a vector with
    the exact commutant computation (no symmetric non-scalar element).
    Only verified orthogonal automorphisms are accepted as generators.
    """
    alg = ms.algebra
    for g in generators:
        if not is_graded_automorphism(alg, g):
            raise ValueError("generator fails exact automorphism verification")
        if not is_isometry(ms, g):
            raise ValueError("generator is not an isometry of the metric")
    n = alg.dim_v
    if n == 0 or not generators:
        return ProbeVerdict("inconclusive", "nothing to act on")
    import random as _random
    rng = _random.Random(seed)

    # orbit closure of a random vector: its span is generator-invariant
    v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    if not any(v):
        v[0] = Fraction(1)
    basis: List[List[Fraction]] = [list(v)]
    frontier = [list(v)]
    steps = 0
    while frontier and steps < max(trials, 4 * n):
        w = frontier.pop()
        for g in generators:
            img = list(mat_vec(g.map_v, w))
            steps += 1
            if not subspace_contains(basis, img):
                basis.append(img)
                frontier.append(img)
        if len(basis) == n:
            break
    spans = len(basis) == n
    if not spans and not frontier:
        witness = tuple(tuple(b) for b in basis)
        if not all(maps_into(g.map_v, basis, basis) for g in generators):
            raise ArithmeticError("reducible witness is not invariant under the generators")
        return ProbeVerdict("reducible",
                            f"orbit closure of a random vector spans a proper "
                            f"{len(basis)}-dimensional invariant subspace",
                            witness)

    sym_comm = _symmetric_commutant(generators, n)
    if len(sym_comm) == 1 and spans:
        return ProbeVerdict(
            "irreducible",
            "orbit of a random vector spans V and the exact commutant "
            "contains no symmetric non-scalar element")

    ident = Matrix.identity(n)
    for s in sym_comm:
        trace = sum(s[i, i] for i in range(n))
        if s == ident.scale(Fraction(trace, n)):
            continue
        roots = rational_roots(minimal_polynomial(s)) or []
        for mu in roots:
            w_basis = nullspace(s - ident.scale(mu))
            if 0 < len(w_basis) < n:
                w_list = [list(w) for w in w_basis]
                if all(maps_into(g.map_v, w_list, w_list) for g in generators):
                    return ProbeVerdict(
                        "reducible",
                        "eigenspace of a symmetric commutant element, "
                        "invariance verified exactly",
                        tuple(tuple(w) for w in w_basis))
    return ProbeVerdict("inconclusive",
                        "commutant has symmetric non-scalar elements but no "
                        "rational spectral split was found")


def _symmetric_commutant(generators: Sequence[GradedMap], n: int) -> List[Matrix]:
    """Exact basis of {S = S^t : S g = g S for all generators}."""
    rows: List[List[Fraction]] = []
    for g in generators:
        gv = g.map_v
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += gv[k, j]
                    row[k * n + j] -= gv[i, k]
                rows.append(row)
    for i in range(n):
        for j in range(i + 1, n):
            row = [Fraction(0)] * (n * n)
            row[i * n + j] = Fraction(1)
            row[j * n + i] = Fraction(-1)
            rows.append(row)
    basis = nullspace(Matrix.from_rows(rows))
    return [Matrix.from_rows([[v[i * n + j] for j in range(n)] for i in range(n)])
            for v in basis]


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
                            theta: GradedMap,
                            search_depth: int = 2) -> SwapResult:
    """Extend an isometric isomorphism of v1 + Z onto v2 + Z to all of n.

    The candidate acts as theta on v1, theta^{-1} on v2, the identity on
    the orthogonal complement and theta's Z block on Z.  It is verified
    exactly on every basis pair (cross pairs included).  On failure,
    theta is precomposed with words of sigma automorphisms up to
    `search_depth` letters and the verification is retried; if no word
    works the violating pair is reported.
    """
    alg = ms.algebra
    n = alg.dim_v
    b1 = [list(b) for b in v1]
    b2 = [list(b) for b in v2]
    d1, d2 = _colspace_rank(b1), _colspace_rank(b2)
    if d1 != len(b1) or d2 != len(b2) or d1 != d2 or d1 == 0:
        raise ValueError("v1 and v2 must be given by bases of equal positive dimension")
    same_space = all(subspace_contains(b1, b) for b in b2)
    if not same_space:
        for x in b1:
            for y in b2:
                if ms.ip_v(x, y) != 0:
                    raise ValueError("v1 and v2 must be orthogonal")
    js = j_basis(ms)
    for j in js:
        if not (maps_into(j, b1, b1) and maps_into(j, b2, b2)):
            raise ValueError("v1 and v2 must be invariant under the Clifford action")
    _check_theta(ms, b1, b2, theta)

    sigmas = [sigma_automorphism(ms, [Fraction(1 if a == b else 0)
                                      for b in range(alg.dim_z)])
              for a in range(alg.dim_z)]
    words: List[Tuple[int, ...]] = [()]
    for depth in range(1, search_depth + 1):
        words.extend(itertools.product(range(len(sigmas)), repeat=depth))
    tried = 0
    last_violation = None
    for word in words:
        cand_theta = theta
        for a in word:
            cand_theta = cand_theta.compose(sigmas[a])
        try:
            _check_theta(ms, b1, b2, cand_theta)
        except ValueError:
            continue
        gm = _assemble_swap(ms, b1, b2, cand_theta, same_space)
        tried += 1
        violation = _first_bracket_violation(alg, gm)
        if violation is None:
            return SwapResult(gm, word, None, tried)
        last_violation = violation
    return SwapResult(None, (), last_violation, tried)


def _check_theta(ms: MetricStructure, b1, b2, theta: GradedMap) -> None:
    alg = ms.algebra
    imgs = [list(mat_vec(theta.map_v, b)) for b in b1]
    if not all(subspace_contains(b2, im) for im in imgs):
        raise ValueError("theta does not map v1 into v2")
    if _colspace_rank(imgs) != len(b1):
        raise ValueError("theta is not injective on v1")
    for i, x in enumerate(b1):
        for j, y in enumerate(b1):
            if ms.ip_v(imgs[i], imgs[j]) != ms.ip_v(x, y):
                raise ValueError("theta is not isometric on v1")
    gz = ms.gram_z
    if theta.map_z.transpose() * gz * theta.map_z != gz:
        raise ValueError("theta is not isometric on Z")
    for i in range(len(b1)):
        for j in range(i + 1, len(b1)):
            want = mat_vec(theta.map_z, alg.bracket_coords(b1[i], b1[j]))
            got = alg.bracket_coords(imgs[i], imgs[j])
            if tuple(want) != tuple(got):
                raise ValueError("theta is not a homomorphism of the subalgebras")


def _assemble_swap(ms: MetricStructure, b1, b2, theta: GradedMap,
                   same_space: bool) -> GradedMap:
    alg = ms.algebra
    n = alg.dim_v
    if same_space:
        cols_in = b1
        cols_out = [list(mat_vec(theta.map_v, b)) for b in b1]
    else:
        imgs1 = [list(mat_vec(theta.map_v, b)) for b in b1]
        # theta^{-1} on v2: solve theta(x) = c with x in span(v1)
        span1 = Matrix.from_rows([[b1[k][i] for k in range(len(b1))]
                                  for i in range(n)])
        t_on_coords = Matrix.from_rows(
            [[imgs1[k][i] for k in range(len(b1))] for i in range(n)])
        imgs2 = []
        for c in b2:
            from .exactlin import solve as _solve
            coeff = _solve(t_on_coords, c)
            if coeff is None:
                raise ValueError("theta image does not cover v2")
            imgs2.append(list(mat_vec(span1, coeff)))
        cols_in = b1 + b2
        cols_out = imgs1 + imgs2
    gv = ms.gram_v
    comp_rows = [[sum(gv[r, c] * b[r] for r in range(n)) for c in range(n)]
                 for b in cols_in]
    comp = nullspace(Matrix.from_rows(comp_rows))
    cols_in = cols_in + [list(w) for w in comp]
    cols_out = cols_out + [list(w) for w in comp]
    basis_mat = Matrix.from_rows([[cols_in[k][i] for k in range(n)] for i in range(n)])
    image_mat = Matrix.from_rows([[cols_out[k][i] for k in range(n)] for i in range(n)])
    map_v = image_mat * inverse(basis_mat)
    return GradedMap(map_v, theta.map_z)


def _first_bracket_violation(alg: TwoStepAlgebra, gm: GradedMap
                             ) -> Optional[Tuple[int, int]]:
    cols = [gm.map_v.col(i) for i in range(alg.dim_v)]
    for i in range(alg.dim_v):
        for j in range(i + 1, alg.dim_v):
            got = alg.bracket_coords(cols[i], cols[j])
            want = mat_vec(gm.map_z, alg.bracket_basis(i, j))
            if tuple(got) != tuple(want):
                return (i, j)
    return None


# ---------------------------------------------------------------------------
# Transfer operator between two H-type metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferOperator:
    """Graded positive map P with <x,y>_2 = (Px, Py)_1, P|_Z = lambda Id."""

    map_v: Union[Matrix, Tuple[Tuple[object, ...], ...]]
    map_z: Union[Matrix, Tuple[Tuple[object, ...], ...]]
    exact: bool


@dataclass(frozen=True)
class TransferReport:
    precision: int
    tolerance: float
    exact: bool
    lam: object
    residual_automorphism: float
    residual_center: float
    residual_metric: float
    residual_lambda_sq: float
    ok: bool


def transfer_operator(ms1: MetricStructure, ms2: MetricStructure,
                      precision: int = DEFAULT_PRECISION
                      ) -> Tuple[TransferOperator, TransferReport]:
    """Unique positive gram1-self-adjoint P with <x,y>_2 = (Px, Py)_1.

    Both metrics must make the (same) algebra H-type; that hypothesis is
    checked exactly before any computation.  P is computed blockwise as
    the positive square root of gram1^{-1} gram2, exactly when that
    matrix splits over the rationals with square eigenvalues and in
    `precision`-bit floating point otherwise.  The report certifies,
    within 2^(-precision/2): P is an automorphism, P restricted to Z is
    a scalar lambda, the metrics transfer, and gramZ_2 = lambda^2 gramZ_1.
    """
    if ms1.algebra is not ms2.algebra and ms1.algebra != ms2.algebra:
        raise ValueError("transfer operator needs two metrics on the same algebra")
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
    if not is_htype(ms1):
        raise ValueError("first metric is not H-type; the transfer operator is undefined")
    if not is_htype(ms2):
        raise ValueError("second metric is not H-type; the transfer operator is undefined")
    alg = ms1.algebra
    mv = inverse(ms1.gram_v) * ms2.gram_v
    mz = inverse(ms1.gram_z) * ms2.gram_z
    pv = _rational_positive_sqrt(mv, ms1.gram_v)
    pz = _rational_positive_sqrt(mz, ms1.gram_z)
    if pv is not None and pz is not None:
        return _exact_report(alg, ms1, ms2, pv, pz, precision)
    return _float_report(alg, ms1, ms2, precision)


def _rational_positive_sqrt(m: Matrix, gram: Matrix) -> Optional[Matrix]:
    """Exact positive square root of gram^{-1} gram2, when it exists over Q."""
    n = m.rows
    if n == 0:
        return Matrix.zeros(0, 0)
    poly = minimal_polynomial(m)
    roots = rational_roots(poly)
    if roots is None or len(roots) != len(poly) - 1 or len(set(roots)) != len(roots):
        return None
    sqrts = []
    for r in roots:
        s = rational_sqrt(r)
        if s is None or r <= 0:
            return None
        sqrts.append(s)
    ident = Matrix.identity(n)
    p = Matrix.zeros(n, n)
    for i, (mu, s) in enumerate(zip(roots, sqrts)):
        proj = ident
        for j, nu in enumerate(roots):
            if j != i:
                proj = proj * (m - ident.scale(nu)).scale(1 / (mu - nu))
        p = p + proj.scale(s)
    if p * p != m:
        return None
    if gram * p != p.transpose() * gram:
        return None
    return p


def _exact_report(alg, ms1, ms2, pv: Matrix, pz: Matrix, precision: int):
    lam = pz[0, 0] if pz.rows else Fraction(1)
    res_center = max((abs(pz[i, j] - (lam if i == j else 0))
                      for i in range(pz.rows) for j in range(pz.cols)),
                     default=Fraction(0))
    res_auto = Fraction(0)
    cols = [pv.col(i) for i in range(alg.dim_v)]
    for i in range(alg.dim_v):
        for j in range(i + 1, alg.dim_v):
            got = alg.bracket_coords(cols[i], cols[j])
            want = mat_vec(pz, alg.bracket_basis(i, j))
            res_auto = max(res_auto, max((abs(a - b) for a, b in zip(got, want)),
                                         default=Fraction(0)))
    res_metric = (pv.transpose() * ms1.gram_v * pv - ms2.gram_v).max_abs()
    res_l2 = (ms1.gram_z.scale(lam * lam) - ms2.gram_z).max_abs()
    tol = 2.0 ** (-(precision // 2))
    ok = all(float(r) <= tol for r in (res_auto, res_center, res_metric, res_l2))
    op = TransferOperator(pv, pz, True)
    rep = TransferReport(precision, tol, True, lam, float(res_auto),
                         float(res_center), float(res_metric), float(res_l2), ok)
    return op, rep


def _float_report(alg, ms1, ms2, precision: int):
    with mpmath.workprec(precision + 48):
        pv = _mp_transfer_block(ms1.gram_v, ms2.gram_v, precision)
        pz = _mp_transfer_block(ms1.gram_z, ms2.gram_z, precision)
        nv, nz = alg.dim_v, alg.dim_z
        lam = pz[0][0] if nz else mpmath.mpf(1)
        res_center = max((abs(pz[i][j] - (lam if i == j else 0))
                          for i in range(nz) for j in range(nz)), default=mpmath.mpf(0))
        cols = [[pv[i][k] for i in range(nv)] for k in range(nv)]
        res_auto = mpmath.mpf(0)
        for i in range(nv):
            for j in range(i + 1, nv):
                got = alg.bracket_coords(cols[i], cols[j])
                cb = alg.bracket_basis(i, j)
                want = [sum(pz[t][s] * _mpf(cb[s]) for s in range(nz)) for t in range(nz)]
                for a, b in zip(got, want):
                    res_auto = max(res_auto, abs(a - b))
        res_metric = _mp_metric_residual(pv, ms1.gram_v, ms2.gram_v)
        g1z, g2z = ms1.gram_z, ms2.gram_z
        res_l2 = max((abs(lam * lam * _mpf(g1z[i, j]) - _mpf(g2z[i, j]))
                      for i in range(nz) for j in range(nz)), default=mpmath.mpf(0))
        tol = mpmath.mpf(2) ** (-(precision // 2))
        ok = all(r <= tol for r in (res_auto, res_center, res_metric, res_l2))
        op = TransferOperator(tuple(tuple(row) for row in pv),
                              tuple(tuple(row) for row in pz), False)
        rep = TransferReport(precision, float(tol), False, +lam, float(res_auto),
                             float(res_center), float(res_metric), float(res_l2), ok)
        return op, rep


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _mp_transfer_block(g1: Matrix, g2: Matrix, precision: int) -> List[List[mpmath.mpf]]:
    n = g1.rows
    if n == 0:
        return []
    evals, vecs = sym_eigen(g1, precision)
    # g1^{1/2} and g1^{-1/2} from the same eigenbasis
    shalf = [[mpmath.mpf(0)] * n for _ in range(n)]
    sinv = [[mpmath.mpf(0)] * n for _ in range(n)]
    for k in range(n):
        r = mpmath.sqrt(evals[k])
        vk = vecs[k]
        for i in range(n):
            for j in range(n):
                shalf[i][j] += r * vk[i] * vk[j]
                sinv[i][j] += vk[i] * vk[j] / r
    g2m = [[_mpf(g2[i, j]) for j in range(n)] for i in range(n)]
    inner_m = _mp_mul(_mp_mul(sinv, g2m), sinv)
    inner_sym = [[(inner_m[i][j] + inner_m[j][i]) / 2 for j in range(n)] for i in range(n)]
    root = _mp_sqrt_sym(inner_sym, precision)
    return _mp_mul(_mp_mul(sinv, root), shalf)


def _mp_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def _mp_sqrt_sym(a, precision: int):
    n = len(a)
    mat = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            mat[i, j] = a[i][j]
    evals, q = verified_eigsy(mat, precision)
    out = [[mpmath.mpf(0)] * n for _ in range(n)]
    for k in range(n):
        r = mpmath.sqrt(evals[k])
        for i in range(n):
            for j in range(n):
                out[i][j] += r * q[i, k] * q[j, k]
    return out


def _mp_metric_residual(pv, g1: Matrix, g2: Matrix):
    n = len(pv)
    g1m = [[_mpf(g1[i, j]) for j in range(n)] for i in range(n)]
    pt = [[pv[j][i] for j in range(n)] for i in range(n)]
    prod = _mp_mul(_mp_mul(pt, g1m), pv)
    return max((abs(prod[i][j] - _mpf(g2[i, j])) for i in range(n) for j in range(n)),
               default=mpmath.mpf(0))
