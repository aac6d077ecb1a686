"""Graded 2-step nilpotent Lie algebras via structure constants.

An algebra n = V + Z (layers of degree -1 and -2) is stored by the
bracket values [e_i, e_j] in Z for i < j; antisymmetry is implicit and
the Jacobi identity holds automatically because double brackets land in
[Z, V] = 0.  The JSON layout produced by `to_json` is the interchange
format of the whole package and of the CLI.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .exactlin import Matrix, rat, rat_str, rank, nullspace


@dataclass(frozen=True)
class TwoStepAlgebra:
    """2-step algebra with dimV generators and dimZ central directions."""

    name: str
    dim_v: int
    dim_z: int
    brackets: Tuple[Tuple[Tuple[int, int], Tuple[Fraction, ...]], ...]

    @classmethod
    def from_brackets(cls, name: str, dim_v: int, dim_z: int,
                      brackets: Mapping[Tuple[int, int], Sequence]) -> "TwoStepAlgebra":
        if dim_v < 0 or dim_z < 0:
            raise ValueError(f"layer dimensions must be non-negative, got dimV={dim_v}, "
                             f"dimZ={dim_z}")
        canon: Dict[Tuple[int, int], Tuple[Fraction, ...]] = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < j < dim_v):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dimV")
            coeffs = tuple(rat(c) for c in vec)
            if len(coeffs) != dim_z:
                raise ValueError(f"bracket ({i},{j}) has {len(coeffs)} coords, expected {dim_z}")
            if any(coeffs):
                canon[(i, j)] = coeffs
        ordered = tuple(sorted(canon.items()))
        return cls(name, dim_v, dim_z, ordered)

    @property
    def dim(self) -> int:
        return self.dim_v + self.dim_z

    def bracket_map(self) -> Dict[Tuple[int, int], Tuple[Fraction, ...]]:
        return dict(self.brackets)

    def bracket_basis(self, i: int, j: int) -> Tuple[Fraction, ...]:
        """[e_i, e_j] in Z coordinates, for any i, j below dimV."""
        table = self._bracket_lookup()
        if i < j and (i, j) in table:
            return table[(i, j)]
        if j < i and (j, i) in table:
            return tuple(-c for c in table[(j, i)])
        return tuple(Fraction(0) for _ in range(self.dim_z))

    def _bracket_lookup(self) -> Dict[Tuple[int, int], Tuple[Fraction, ...]]:
        if not hasattr(self, "_lookup"):
            object.__setattr__(self, "_lookup", dict(self.brackets))
        return getattr(self, "_lookup")

    def bracket_coords(self, x: Sequence, y: Sequence) -> List:
        """Z coordinates of [x, y] for V coordinate vectors x, y.

        Works for any scalar type that multiplies with Fractions (Fraction,
        int, mpf); coordinates no bracket reaches stay the int 0.
        """
        out = [0] * self.dim_z
        for (i, j), vec in self._bracket_lookup().items():
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for t, s in enumerate(vec):
                    if s:
                        out[t] += c * s
        return out

    def bracket(self, x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
        """Lie bracket; the result always lies in the Z layer."""
        self._expect(x)
        self._expect(y)
        out = self.bracket_coords(x.v_part, y.v_part)
        return AlgebraElement(tuple(Fraction(0) for _ in range(self.dim_v)),
                              tuple(Fraction(c) for c in out))

    def ad_matrix(self, v_coords: Sequence[Fraction]) -> Matrix:
        """Matrix of y in V -> [x, y] in Z for x with the given V part."""
        cols = []
        for j in range(self.dim_v):
            col = [Fraction(0)] * self.dim_z
            for i, c in enumerate(v_coords):
                if c:
                    vec = self.bracket_basis(i, j)
                    for t, s in enumerate(vec):
                        if s:
                            col[t] += c * s
            cols.append(col)
        return Matrix.from_rows([[cols[j][t] for j in range(self.dim_v)]
                                 for t in range(self.dim_z)])

    def basis_v(self, i: int) -> "AlgebraElement":
        return AlgebraElement(
            tuple(Fraction(1 if t == i else 0) for t in range(self.dim_v)),
            tuple(Fraction(0) for _ in range(self.dim_z)))

    def basis_z(self, a: int) -> "AlgebraElement":
        return AlgebraElement(
            tuple(Fraction(0) for _ in range(self.dim_v)),
            tuple(Fraction(1 if t == a else 0) for t in range(self.dim_z)))

    def element(self, v: Sequence = (), z: Sequence = ()) -> "AlgebraElement":
        vv = tuple(rat(c) for c in v) or tuple(Fraction(0) for _ in range(self.dim_v))
        zz = tuple(rat(c) for c in z) or tuple(Fraction(0) for _ in range(self.dim_z))
        el = AlgebraElement(vv, zz)
        self._expect(el)
        return el

    def bracket_span_matrix(self) -> Matrix:
        """Rows are all bracket values [e_i, e_j]; row space is [V, V]."""
        rows = [list(vec) for _, vec in self.brackets]
        if not rows:
            return Matrix.zeros(1, self.dim_z) if self.dim_z else Matrix.zeros(0, 0)
        return Matrix.from_rows(rows)

    def is_fundamental(self) -> bool:
        """True when the brackets span the whole Z layer."""
        if self.dim_z == 0:
            return True
        return rank(self.bracket_span_matrix()) == self.dim_z

    def _expect(self, x: "AlgebraElement") -> None:
        if len(x.v_part) != self.dim_v or len(x.z_part) != self.dim_z:
            raise ValueError("element does not match the algebra's layer dimensions")


@dataclass(frozen=True)
class AlgebraElement:
    """Element of a 2-step algebra split into its V and Z parts."""

    v_part: Tuple[Fraction, ...]
    z_part: Tuple[Fraction, ...]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(tuple(a + b for a, b in zip(self.v_part, other.v_part)),
                              tuple(a + b for a, b in zip(self.z_part, other.z_part)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(tuple(a - b for a, b in zip(self.v_part, other.v_part)),
                              tuple(a - b for a, b in zip(self.z_part, other.z_part)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(tuple(-a for a in self.v_part), tuple(-a for a in self.z_part))

    def scale(self, c) -> "AlgebraElement":
        c = rat(c)
        return AlgebraElement(tuple(c * a for a in self.v_part), tuple(c * a for a in self.z_part))

    def is_zero(self) -> bool:
        return not (any(self.v_part) or any(self.z_part))


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


# ---------------------------------------------------------------------------
# Center
# ---------------------------------------------------------------------------

def center(alg: TwoStepAlgebra) -> List[AlgebraElement]:
    """Basis of {w : [w, y] = 0 for all y}.

    The Z layer is always central; the V contribution is the joint kernel
    of all ad maps, computed exactly.  For fundamental algebras with no
    degenerate V directions this is exactly the Z layer.
    """
    basis = [alg.basis_z(a) for a in range(alg.dim_z)]
    if alg.dim_v == 0:
        return basis
    rows = []
    for j in range(alg.dim_v):
        for t in range(alg.dim_z):
            rows.append([alg.bracket_basis(i, j)[t] for i in range(alg.dim_v)])
    if not rows:
        kernel = [tuple(Fraction(1 if i == k else 0) for i in range(alg.dim_v))
                  for k in range(alg.dim_v)]
    else:
        kernel = nullspace(Matrix.from_rows(rows))
    zeros_z = tuple(Fraction(0) for _ in range(alg.dim_z))
    basis.extend(AlgebraElement(tuple(v), zeros_z) for v in kernel)
    return basis


# ---------------------------------------------------------------------------
# Non-singularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonsingularVerdict:
    """Three-valued verdict with an explicit certificate or witness."""

    kind: str  # "nonsingular" | "singular" | "inconclusive"
    certificate: str = ""
    witness: Optional[AlgebraElement] = None

    def __bool__(self) -> bool:
        return self.kind == "nonsingular"


def is_nonsingular(alg: TwoStepAlgebra, trials: int = 64, seed: int = 0,
                   gram_v: Optional[Matrix] = None,
                   gram_z: Optional[Matrix] = None) -> NonsingularVerdict:
    """Decide whether ad x maps onto the center for every x outside it.

    Certified positive answers come from two routes only: the H-type
    certificate (J_z x is never zero for nonzero x, z, hence every ad x
    is onto Z) with the supplied or standard metric, or the 1-dimensional
    center route where non-degeneracy of the single skew form is an exact
    rank computation.  Negative answers carry a witness X, re-verified
    exactly.  Anything else is Inconclusive after `trials` random samples.
    """
    if not alg.is_fundamental():
        raise ValueError("non-singularity check requires a fundamental algebra")
    cen = center(alg)
    if len(cen) > alg.dim_z:
        # some V direction is central; ad x never reaches it
        witness = next((alg.basis_v(i) for i in range(alg.dim_v)
                        if not _is_central(alg, i)), None)
        if witness is None:
            return NonsingularVerdict("singular", "abelian: center is everything", None)
        return NonsingularVerdict(
            "singular", "center exceeds the Z layer, ad X cannot be onto it", witness)

    if alg.dim_z == 1:
        # ad x is onto the line Z unless x is in the kernel of the skew form,
        # and that kernel is exactly the central part of V (empty here)
        return NonsingularVerdict(
            "nonsingular", "center is a nondegenerate line: ad x != 0 off the center")

    from .htype import MetricStructure, is_htype  # local import to avoid a cycle

    gv = gram_v if gram_v is not None else Matrix.identity(alg.dim_v)
    gz = gram_z if gram_z is not None else Matrix.identity(alg.dim_z)
    try:
        ms = MetricStructure(alg, gv, gz)
        if is_htype(ms):
            return NonsingularVerdict(
                "nonsingular", "H-type certificate: J_z x != 0 for x, z != 0")
    except ValueError:
        pass

    rng = random.Random(seed)
    for _ in range(max(1, trials)):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(alg.dim_v)]
        if not any(x):
            x[rng.randrange(alg.dim_v)] = Fraction(1)
        if rank(alg.ad_matrix(x)) < alg.dim_z:
            witness = AlgebraElement(tuple(x), tuple(Fraction(0) for _ in range(alg.dim_z)))
            if rank(alg.ad_matrix(witness.v_part)) >= alg.dim_z:
                raise ArithmeticError("singular witness failed its exact re-check")
            return NonsingularVerdict("singular", "rank(ad X) < dim Z, verified exactly",
                                      witness)
    return NonsingularVerdict("inconclusive",
                              f"no certificate found and {trials} random samples are non-singular")


def _is_central(alg: TwoStepAlgebra, i: int) -> bool:
    return all(not any(alg.bracket_basis(i, j)) for j in range(alg.dim_v))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def matrix_to_json(m: Matrix) -> List[List[str]]:
    return [[rat_str(x) for x in row] for row in m.data]


def matrix_from_json(rows: Sequence[Sequence[str]]) -> Matrix:
    return Matrix.from_rows(rows)


def to_json(alg: TwoStepAlgebra, gram_v: Optional[Matrix] = None,
            gram_z: Optional[Matrix] = None) -> dict:
    doc = {
        "name": alg.name,
        "dimV": alg.dim_v,
        "dimZ": alg.dim_z,
        "brackets": [[i, j, [rat_str(c) for c in vec]] for (i, j), vec in alg.brackets],
    }
    if gram_v is not None and gram_z is not None:
        doc["gram"] = {"v": matrix_to_json(gram_v), "z": matrix_to_json(gram_z)}
    return doc


def from_json(doc: dict) -> Tuple[TwoStepAlgebra, Optional[Matrix], Optional[Matrix]]:
    if not isinstance(doc, dict):
        raise ValueError(f"algebra document must be a JSON object, got {type(doc).__name__}")
    try:
        name = doc.get("name", "unnamed")
        dim_v = int(doc["dimV"])
        dim_z = int(doc["dimZ"])
        brackets = {}
        for entry in doc.get("brackets", []):
            if len(entry) != 3:
                raise ValueError(f"bracket entry {entry!r} is not [i, j, coords]")
            i, j, coords = entry
            brackets[(int(i), int(j))] = [rat(c) for c in coords]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed algebra document: {exc}") from exc
    alg = TwoStepAlgebra.from_brackets(name, dim_v, dim_z, brackets)
    gram = doc.get("gram")
    gv = gz = None
    if gram is not None:
        try:
            gv = matrix_from_json(gram["v"])
            gz = matrix_from_json(gram["z"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed gram block: {exc}") from exc
        if gv.shape != (dim_v, dim_v) or gz.shape != (dim_z, dim_z):
            raise ValueError("gram block dimensions do not match the algebra layers")
    return alg, gv, gz


def save(path: str, alg: TwoStepAlgebra, gram_v: Optional[Matrix] = None,
         gram_z: Optional[Matrix] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(alg, gram_v, gram_z), fh, indent=1)
        fh.write("\n")


def load(path: str) -> Tuple[TwoStepAlgebra, Optional[Matrix], Optional[Matrix]]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    try:
        return from_json(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
