"""Graded 2-step nilpotent Lie algebras via structure constants.

An algebra n = V + Z (layers of degree -1 and -2) is stored by the
bracket values [e_i, e_j] in Z for i < j; antisymmetry is implicit and
the Jacobi identity holds automatically because double brackets land in
[Z, V] = 0.  The JSON layout produced by `to_json` is the interchange
format of the whole package and of the CLI.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .exactlin import (Matrix, Rational, anticommutator_scalar, clear_denominators, inverse,
                       is_positive_definite, minimal_polynomial, nullspace, nullspace_int_rows,
                       rat_str, rank, rational_roots, real_root_count, scalar, scaled_sparse,
                       sparse_mul)


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
            coeffs = tuple(scalar(c) for c in vec)
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
        table = self._bracket_lookup
        if i < j and (i, j) in table:
            return table[(i, j)]
        if j < i and (j, i) in table:
            return tuple(-c for c in table[(j, i)])
        return tuple(Fraction(0) for _ in range(self.dim_z))

    @cached_property
    def _bracket_lookup(self) -> Dict[Tuple[int, int], Tuple[Fraction, ...]]:
        return dict(self.brackets)

    @cached_property
    def bracket_forms(self) -> Tuple[int, List[List[List[Tuple[int, int]]]]]:
        """(d, forms) with B_c = forms[c] / d in sparse integer rows, where
        B_c[i][j] is coordinate c of [e_i, e_j]; built once per algebra."""
        d = math.lcm(*(s.denominator for _, vec in self.brackets for s in vec))
        forms = [[[] for _ in range(self.dim_v)] for _ in range(self.dim_z)]
        for (i, j), vec in self.brackets:
            for form, s in zip(forms, vec):
                if s:
                    form[i].append((j, int(s * d)))
                    form[j].append((i, -int(s * d)))
        return d, forms

    @cached_property
    def pairs(self) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
        """Each nonzero bracket [e_i, e_j], i < j, as its bracket form entries [(c, x), ...]:
        x / d is its z_c coordinate, for the forms' denominator d."""
        pairs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for c, form in enumerate(self.bracket_forms[1]):
            for i, r in enumerate(form):
                for j, x in r:
                    if i < j:
                        pairs.setdefault((i, j), []).append((c, x))
        return pairs

    def is_fundamental(self) -> bool:
        """True when the brackets span Z: the pair rows have no kernel over the dimZ columns."""
        return not nullspace_int_rows(list(self.pairs.values()), self.dim_z)


# ---------------------------------------------------------------------------
# Non-singularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonsingularVerdict:
    """Three-valued verdict with an explicit certificate or witness."""

    kind: str  # "nonsingular" | "singular" | "inconclusive"
    certificate: str = ""
    witness: Optional[Tuple[Rational, ...]] = None  # V coordinates of x


def is_nonsingular(alg: TwoStepAlgebra) -> NonsingularVerdict:
    """Decide whether ad x maps onto the center for every x outside it, with no metric.

    ad x misses Z exactly when B_z x = 0 for some z != 0, B_z = sum_c z_c B_c the skew bracket
    forms.  Routes, in order: a central V direction (singular); dimZ = 1 (nonsingular); dimZ >=
    dimV, where [e_0, e_0] = 0 gives rank(ad e_0) < dimZ; a degenerate B_0 (kernel witness).
    The Clifford pencil: if A'_b = B_0^{-1} B_b - (tr / n) I anticommute to -2 q_ab I, then
    B_z = B_0 (w I + X) with (w I + X)(w I - X) = (w^2 + q(z')) I, so a positive definite q
    proves "nonsingular" (every H-type algebra passes, in any basis).  Last, the coordinate
    pencils t B_a + B_b, a < b: one has a degenerate member exactly when B_a is degenerate or the
    minimal polynomial of B_a^{-1} B_b has a real root (Sturm count), with a witness when the
    root is rational.  Else the verdict is "nonsingular" for dimZ = 2, "singular" with no
    witness for a Clifford pencil with q not positive definite (w I +- X is singular for
    w^2 = -q(z') >= 0), and "inconclusive" otherwise.  Every witness is re-checked exactly.
    """
    if alg.dim_v == 0:
        raise ValueError("non-singularity check needs a nonempty V layer, got dimV=0")
    if not alg.is_fundamental():
        raise ValueError("non-singularity check requires a fundamental algebra")
    forms = alg.bracket_forms[1]
    # x in V is central exactly when B_c x = 0 for every bracket form B_c
    central = nullspace_int_rows([r for form in forms for r in form], alg.dim_v)
    if central:
        if alg.dim_z == 0:
            return NonsingularVerdict("singular", "abelian: center is everything", None)
        # ad x = 0 for a central x, so it never reaches Z
        return _singular(alg, central[0], "X is a central V direction")

    if alg.dim_z == 1:
        # ad x is onto the line Z unless x is in the kernel of the skew form,
        # and that kernel is exactly the central part of V (empty here)
        return NonsingularVerdict(
            "nonsingular", "center is a nondegenerate line: ad x != 0 off the center")

    n, m = alg.dim_v, alg.dim_z
    if m >= n:
        # past the first route no V direction is central, e_0 among them
        return _singular(alg, [int(i == 0) for i in range(n)], f"dimZ = {m} >= dimV")
    dense = cache(lambda c: Matrix.from_sparse(forms[c], n))    # B_c, built at most once
    q = None
    for a in range(m - 1):
        kernel = nullspace_int_rows(forms[a], n)
        if kernel:
            return _singular(alg, kernel[0], f"B_{a} is degenerate")
        inv = inverse(dense(a))
        if a == 0:
            q = _clifford_form(inv, forms)[0]
            if q is not None and is_positive_definite(q):
                return NonsingularVerdict("nonsingular", "Clifford pencil with q positive "
                                          "definite: B_z is invertible for every z != 0")
        for b in range(a + 1, m):
            f = minimal_polynomial(mab := inv * dense(b))
            count = real_root_count(f)
            if count:
                roots = rational_roots(f)
                if not roots:
                    return NonsingularVerdict("singular", f"det(t B_{a} + B_{b}) has {count} "
                                              "distinct real root(s) by Sturm's theorem, "
                                              "none rational")
                mu = roots[0]
                return _singular(alg, nullspace(mab - Matrix.identity(n).scale(mu))[0],
                                 f"B_{b} - ({rat_str(mu)}) B_{a} is degenerate")
    if m == 2:
        return NonsingularVerdict("nonsingular", "B_0 is nondegenerate and det(t B_0 + B_1) "
                                  "has no real root by Sturm's theorem")
    if q is not None:
        return NonsingularVerdict("singular", "Clifford pencil with q not positive definite: "
                                  "some B_z, z != 0, is degenerate; no witness searched")
    pencils = ", ".join(map(str, itertools.combinations(range(m), 2)))
    return NonsingularVerdict("inconclusive", "not a Clifford pencil, and no coordinate pencil "
                              f"t B_a + B_b of (a, b) = {pencils} has a degenerate member")


def _clifford_form(inv0: Matrix, forms) -> Tuple[Optional[Matrix], list]:
    """(q, C): {A'_a, A'_b} = -2 q_ab I for a, b = 1 .. dimZ-1 (q is None once one is no
    scalar), in ints on the sparse rows C[b - 1] of C_b = n e A'_b = n P_b - tr(P_b) I, with
    B_0^{-1} = rows / e and P_b = rows B_b."""
    n = len(forms[0])
    e, rows = scaled_sparse(inv0)
    cs, q = [], {}
    for b, form in enumerate(forms[1:]):
        p = sparse_mul(rows, form)
        tr = sum(dict(r).get(i, 0) for i, r in enumerate(p))
        # a repeated column in a sparse row adds up, so (i, -tr) joins row i as it is
        cs.append([[(j, n * x) for j, x in r] + [(i, -tr)] for i, r in enumerate(p)])
        for a in range(b + 1):
            s = anticommutator_scalar(cs[a], cs[b])
            if s is None:
                return None, cs
            q[a, b] = q[b, a] = Fraction(-s, 2 * (n * e) ** 2)
    return Matrix.from_rows([[q[a, b] for b in range(len(cs))] for a in range(len(cs))]), cs


def _singular(alg: TwoStepAlgebra, x: Sequence, certificate: str) -> NonsingularVerdict:
    """The singular verdict with witness x, after the exact check rank(ad x) < dimZ; row c of
    ad x is x^t B_c, the product of x (cleared to ints) with each bracket form."""
    xrow = [[(i, xi) for i, xi in enumerate(clear_denominators(x)) if xi]]
    ad = [sparse_mul(xrow, form)[0] for form in alg.bracket_forms[1]]
    if rank(Matrix.from_sparse(ad, alg.dim_v)) >= alg.dim_z:
        raise ArithmeticError("singular witness failed its exact re-check")
    return NonsingularVerdict("singular", f"{certificate}: rank(ad X) < dim Z, verified exactly",
                              tuple(x))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def matrix_to_json(m: Matrix) -> List[List[str]]:
    return [[rat_str(x) for x in row] for row in m.data]


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


def json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def from_json(doc: dict) -> Tuple[TwoStepAlgebra, Optional[Matrix], Optional[Matrix]]:
    if not isinstance(doc, dict):
        raise ValueError(f"algebra document must be a JSON object, got {type(doc).__name__}")
    try:
        name = doc.get("name", "unnamed")
        if not isinstance(name, str):
            raise ValueError(f"name must be a JSON string, got {name!r}")
        dim_v = json_int(doc["dimV"], "dimV")
        dim_z = json_int(doc["dimZ"], "dimZ")
        brackets = {}
        for entry in doc.get("brackets", []):
            if len(entry) != 3:
                raise ValueError(f"bracket entry {entry!r} is not [i, j, coords]")
            i, j, coords = entry
            if not isinstance(coords, list):
                raise ValueError(f"bracket coordinates must be a JSON list, got {coords!r}")
            key = (json_int(i, "bracket index"), json_int(j, "bracket index"))
            if key in brackets:
                raise ValueError(f"duplicate bracket key {key}")
            brackets[key] = [scalar(c) for c in coords]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed algebra document: {exc}") from exc
    alg = TwoStepAlgebra.from_brackets(name, dim_v, dim_z, brackets)
    gram = doc.get("gram")
    gv = gz = None
    if gram is not None:
        gv, gz = gram_from_json(gram)
        if gv.shape != (dim_v, dim_v) or gz.shape != (dim_z, dim_z):
            raise ValueError("gram block dimensions do not match the algebra layers")
    return alg, gv, gz


def gram_from_json(gram) -> Tuple[Matrix, Matrix]:
    """(gramV, gramZ) from a gram block {"v": rows, "z": rows}."""
    try:
        return Matrix.from_rows(gram["v"]), Matrix.from_rows(gram["z"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed gram block: {exc}") from exc


def save(path: str, alg: TwoStepAlgebra, gram_v: Optional[Matrix] = None,
         gram_z: Optional[Matrix] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(alg, gram_v, gram_z), fh, indent=1)
        fh.write("\n")


def read_json(path) -> object:
    """The JSON document in a file; ValueError naming the path when the file
    is not JSON, nests too deeply for the parser or holds an integer literal
    over Python's int-to-str digit limit."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load(path: str) -> Tuple[TwoStepAlgebra, Optional[Matrix], Optional[Matrix]]:
    doc = read_json(path)
    try:
        return from_json(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
