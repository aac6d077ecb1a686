"""Tanaka prolongation of 2-step graded algebras by exact nullspaces.

The degree-k layer g_k (k >= 0) consists of pairs of maps
u1 : V -> g_{k-1}, u2 : Z -> g_{k-2} (with g_{-1} = V, g_{-2} = Z)
subject to the Leibniz condition u([x,y]) = [u(x), y] + [x, u(y)] over
all pairs of negative-degree basis elements, where the bracket of a
previously computed layer element with a negative element is its stored
action.  Each degree is therefore one exact integer kernel computation.
Its equations are sparse integer rows: the bracket constants come from
the algebra's cached bracket pairs over the forms' denominator d, the
action of each earlier layer from integer tables built once per layer
(scaled by the lcm of that layer's denominators), and every equation is
multiplied through by the scales it meets.  One assembly serves both
directions: `compute_layer` takes the kernel of the rows, whose basis
elements come back as primitive integer matrices certified against every
row, and `verify_layer` substitutes a layer's basis into the same rows.

Degree 0 fits the same scheme with u1 = A in End(V), u2 = B in End(Z),
giving the full graded derivation algebra.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .exactlin import Matrix, clear_denominators, nullspace_int_rows, verify_kernel
from .nilalg import TwoStepAlgebra

# Table[direction][coordinate] lists (basis index, int); see ProlongationLayer.actions.
Table = List[List[List[Tuple[int, int]]]]
Actions = Tuple[int, Optional[Table], Optional[Table]]


# the highest degree `prolong` builds: a finite-type algebra adds one empty layer per degree
MAX_DEGREE = 10_000


class ProlongationResourceError(RuntimeError):
    """Raised when a requested degree exceeds the configured size guard."""


@dataclass(frozen=True)
class ProlongationLayer:
    """Basis of g_k as coordinate blocks over the previous layers; the blocks
    `compute_layer` returns hold primitive integer vectors as int entries."""

    degree: int
    dim_prev1: int     # dim g_{k-1}, the codomain of the V block
    dim_prev2: int     # dim g_{k-2}, the codomain of the Z block
    basis: Tuple[Tuple[Matrix, Matrix], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def actions(self) -> Actions:
        """(s, av, az): the bracket of g_k with each negative basis direction.

        av[i][t] lists the pairs (b, x) with x / s the g_{k-1} coordinate t
        of [b-th basis element, e_i]; az[a][t] likewise for the bracket with
        z_a in g_{k-2}.  The x are ints and s is the lcm of the blocks'
        denominators (1 for the integer blocks `compute_layer` returns), so
        blocks built elsewhere are scaled, never rounded.  Built once per layer.
        """
        if not self.basis:
            return 1, None, None
        s = math.lcm(*(x.denominator for pair in self.basis for m in pair
                       for r in m.data for x in r))
        av, az = ([[[] for _ in range(m.rows)] for _ in range(m.cols)]
                  for m in self.basis[0])
        for b, pair in enumerate(self.basis):
            for table, m in zip((av, az), pair):
                for t, r in enumerate(m.data):
                    for i, x in enumerate(r):
                        if x:
                            table[i][t].append((b, x.numerator * (s // x.denominator)))
        return s, av, az


@dataclass(frozen=True)
class ProlongationResult:
    algebra: TwoStepAlgebra
    layers: Tuple[ProlongationLayer, ...]
    verdict: str                      # "trivial_at_degree_1" | "nontrivial_finite"
    last_nonzero: Optional[int]       # | "nontrivial_up_to_cutoff"

    def dims(self) -> List[int]:
        return [layer.dim for layer in self.layers]


def _layer_dims(alg: TwoStepAlgebra, layers: Sequence[ProlongationLayer],
                k: int) -> Tuple[int, int, int, int]:
    """(d1, d2, d3, d4): the dimensions of g_{k-1} .. g_{k-4}, with g_{-1} = V and g_{-2} = Z."""
    return tuple(layers[j].dim if j >= 0 else {-1: alg.dim_v, -2: alg.dim_z}.get(j, 0)
                 for j in range(k - 1, k - 5, -1))


def _actions(alg: TwoStepAlgebra, layers: Sequence[ProlongationLayer],
             j: int) -> Actions:
    """The action of g_j (j >= -2) as `ProlongationLayer.actions` gives it;
    V acts on V through the integer bracket forms, scaled by their denominator."""
    if j >= 0:
        return layers[j].actions
    if j == -1:
        d, forms = alg.bracket_forms
        return d, [[[(b, -x) for b, x in form[i]] for form in forms]
                   for i in range(alg.dim_v)], None        # [V, Z] = 0
    return 1, None, None           # Z brackets to zero against everything


def _block(vec: Sequence[int], start: int, rows: int, cols: int) -> Matrix:
    """The rows x cols block of vec at start, row-major, with its int entries."""
    return Matrix(rows, cols, tuple(tuple(vec[start + r * cols:start + (r + 1) * cols])
                                    for r in range(rows)))


def _leibniz_rows(alg: TwoStepAlgebra, k: int, layers: Sequence[ProlongationLayer],
                  dims: Tuple[int, int, int, int]) -> List[List[Tuple[int, int]]]:
    """The degree-k Leibniz equations as sparse integer rows, for the dims (d1, .., d4)
    of g_{k-1} .. g_{k-4}; unknown b * dimV + i is coordinate b of u1(e_i), and
    dimV * d1 + t * dimZ + a is coordinate t of u2(z_a).  No row repeats a
    column, so each equation is a plain list of its terms."""
    nv, nz = alg.dim_v, alg.dim_z
    d1, d2, d3, d4 = dims
    d, pairs = alg.bracket_forms[0], alg.pairs
    s1, av1, az1 = _actions(alg, layers, k - 1)
    s2, av2, az2 = _actions(alg, layers, k - 2)
    off2 = nv * d1       # U2 coordinates start here
    rows: List[List[Tuple[int, int]]] = []

    # pairs in V x V: u2([x_i, x_j]) = [u1(x_i), x_j] - [u1(x_j), x_i], times d s1;
    # av1 pre-scaled to (b dimV, x d), so each term is one addition
    av1 = [[[]] * d2] * nv if av1 is None else [
        [[(b * nv, x * d) for b, x in terms] for terms in col] for col in av1]
    for i, j in itertools.combinations(range(nv), 2):
        pair = [(off2 + a, c * s1) for a, c in pairs.get((i, j), ())]
        for t, p, q in zip(itertools.count(0, nz), av1[j], av1[i]):
            row = [(u + t, c) for u, c in pair]
            row += [(b + i, -x) for b, x in p]
            row += [(b + j, x) for b, x in q]
            if row:
                rows.append(row)

    # mixed pairs: [u1(x_i), z_a] = [u2(z_a), x_i], times s1 s2
    if d3:
        for i in range(nv):
            for a in range(nz):
                for t in range(d3):
                    row = [] if az1 is None else [(b * nv + i, x * s2) for b, x in az1[a][t]]
                    if av2 is not None:
                        row += [(off2 + s * nz + a, -x * s1) for s, x in av2[i][t]]
                    if row:
                        rows.append(row)

    # pairs in Z x Z: [u2(z_a), z_b] = [u2(z_b), z_a], times s2
    if d4 and az2 is not None:
        for a in range(nz):
            for b in range(a + 1, nz):
                for t in range(d4):
                    row = ([(off2 + s * nz + a, x) for s, x in az2[b][t]]
                           + [(off2 + s * nz + b, -x) for s, x in az2[a][t]])
                    if row:
                        rows.append(row)
    return rows


def compute_layer(alg: TwoStepAlgebra, k: int,
                  layers: Sequence[ProlongationLayer],
                  max_unknowns: int = 20000,
                  max_entries: int = 10**8) -> ProlongationLayer:
    """g_k as one exact kernel computation (k >= 0, layers = g_0..g_{k-1}); g_0 needs a
    fundamental algebra."""
    if k < 0:
        raise ValueError("layers are computed for degree >= 0")
    if len(layers) != k:
        raise ValueError(f"need previous layers g_0..g_{k-1}, got {len(layers)}")
    nv, nz = alg.dim_v, alg.dim_z
    dims = d1, d2, d3, d4 = _layer_dims(alg, layers, k)
    unknowns = nv * d1 + nz * d2
    if unknowns == 0:
        return ProlongationLayer(k, d1, d2, ())
    equations = (nv * (nv - 1) // 2) * d2 + nv * nz * d3 + (nz * (nz - 1) // 2) * d4
    if unknowns > max_unknowns or unknowns * max(equations, 1) > max_entries:
        raise ProlongationResourceError(
            f"degree {k}: {unknowns} unknowns x {equations} equations "
            f"exceeds the resource guard")
    # after the guard: the check takes a kernel over dimZ columns
    if k == 0 and not alg.is_fundamental():
        raise ValueError("prolongation requires a fundamental algebra")
    kernel = nullspace_int_rows(_leibniz_rows(alg, k, layers, dims), unknowns)
    return ProlongationLayer(k, d1, d2, tuple(
        (_block(vec, 0, d1, nv), _block(vec, nv * d1, d2, nz)) for vec in kernel))


def g0(alg: TwoStepAlgebra, **guard) -> ProlongationLayer:
    """Graded derivations (A, B) with B[x, y] = [Ax, y] + [x, Ay] of a fundamental algebra."""
    return compute_layer(alg, 0, [], **guard)


def verify_layer(alg: TwoStepAlgebra, layers: Sequence[ProlongationLayer],
                 k: int) -> bool:
    """Re-verify the Leibniz identity for every basis element of g_k.

    Rebuilds the degree-k rows `compute_layer` solves, from the bracket
    forms and the action tables of g_{k-1} and g_{k-2}, and substitutes
    each basis element into all of them exactly (`verify_kernel`): its V
    block then its Z block, row-major, scaled to integers by the lcm of
    their denominators.  A layer whose previous dims or block shapes are
    not those of g_{k-1} and g_{k-2} is rejected.
    """
    layer = layers[k]
    dims = d1, d2, _, _ = _layer_dims(alg, layers, k)
    shapes = ((d1, alg.dim_v), (d2, alg.dim_z))
    if (layer.dim_prev1, layer.dim_prev2) != (d1, d2) or any(
            (m1.shape, m2.shape) != shapes for m1, m2 in layer.basis):
        return False
    return verify_kernel(_leibniz_rows(alg, k, layers, dims), [
        clear_denominators([x for m in pair for r in m.data for x in r])
        for pair in layer.basis])


def prolong(alg: TwoStepAlgebra, max_degree: int, stop_when_zero: bool = True,
            max_unknowns: int = 20000, max_entries: int = 10**8
            ) -> ProlongationResult:
    """Layers g_0 .. g_max_degree with the finite/infinite-type verdict.

    The verdict is trivial_at_degree_1 when g_1 = 0, nontrivial_finite
    (with the last nonzero degree) when a later layer vanishes, and
    nontrivial_up_to_cutoff otherwise.  Once a layer vanishes all later
    ones do (transitivity over a fundamental base), which is checked
    when they are requested with stop_when_zero=False.  A max_degree above
    MAX_DEGREE trips the resource guard before any layer is built.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if max_degree > MAX_DEGREE:
        raise ProlongationResourceError(
            f"max_degree {max_degree} exceeds the ceiling of {MAX_DEGREE}")
    guard = {"max_unknowns": max_unknowns, "max_entries": max_entries}
    layers = [g0(alg, **guard)]
    zero_seen = False
    for k in range(1, max_degree + 1):
        layer = compute_layer(alg, k, layers, **guard)
        if zero_seen and layer.dim:
            raise ArithmeticError(f"prolongation transitivity violated at degree {k}")
        layers.append(layer)
        if layer.dim == 0:
            zero_seen = True
            if stop_when_zero:
                break
    dims = [layer.dim for layer in layers]
    if len(dims) > 1 and dims[1] == 0:
        verdict, last = "trivial_at_degree_1", 0 if dims[0] else None
    elif 0 in dims[1:]:
        nonzero = [k for k, d in enumerate(dims) if d > 0]
        verdict, last = "nontrivial_finite", max(nonzero)
    else:
        verdict, last = "nontrivial_up_to_cutoff", None
    return ProlongationResult(alg, tuple(layers), verdict, last)
