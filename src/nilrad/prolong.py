"""Tanaka prolongation of 2-step graded algebras by exact nullspaces.

The degree-k layer g_k (k >= 0) consists of pairs of maps
u1 : V -> g_{k-1}, u2 : Z -> g_{k-2} (with g_{-1} = V, g_{-2} = Z)
subject to the Leibniz condition u([x,y]) = [u(x), y] + [x, u(y)] over
all pairs of negative-degree basis elements, where the bracket of a
previously computed layer element with a negative element is its stored
action.  Each degree is therefore one exact integer kernel computation;
basis elements come back as primitive integer matrices and are verified
against every assembled equation.

Degree 0 fits the same scheme with u1 = A in End(V), u2 = B in End(Z),
giving the full graded derivation algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactlin import Matrix, clear_denominators, nullspace_int_rows
from .nilalg import TwoStepAlgebra


class ProlongationResourceError(RuntimeError):
    """Raised when a requested degree exceeds the configured size guard."""


@dataclass(frozen=True)
class ProlongationLayer:
    """Basis of g_k as coordinate blocks over the previous layers."""

    degree: int
    dim_prev1: int     # dim g_{k-1}, the codomain of the V block
    dim_prev2: int     # dim g_{k-2}, the codomain of the Z block
    basis: Tuple[Tuple[Matrix, Matrix], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class ProlongationResult:
    algebra: TwoStepAlgebra
    layers: Tuple[ProlongationLayer, ...]
    verdict: str                      # "trivial_at_degree_1" | "nontrivial_finite"
    last_nonzero: Optional[int]       # | "nontrivial_up_to_cutoff"

    def dims(self) -> List[int]:
        return [layer.dim for layer in self.layers]


def _layer_dim(alg: TwoStepAlgebra, layers: Sequence[ProlongationLayer],
               j: int) -> int:
    if j == -1:
        return alg.dim_v
    if j == -2:
        return alg.dim_z
    if j < -2:
        return 0
    return layers[j].dim


Table = List[List[List[Tuple[int, object]]]]


def _scalar(x: Fraction):
    """x as an int when it is integral, so table products stay in ints."""
    return x.numerator if x.denominator == 1 else x


def _action_tables(alg: TwoStepAlgebra, layers: Sequence[ProlongationLayer],
                   j: int) -> Tuple[Optional[Table], Optional[Table]]:
    """Per-direction action of g_j as sparse tables: (V directions, Z directions).

    av[i][t] lists the pairs (b, x) with x != 0 the g_{j-1} coordinate t
    of [b-th basis element, e_i]; az[a][t] likewise for the bracket with
    z_a in g_{j-2}.  Integral entries are ints.
    """
    nv, nz = alg.dim_v, alg.dim_z
    if j <= -2:
        return None, None          # Z brackets to zero against everything
    if j == -1:
        brk = [[alg.bracket_basis(b, i) for b in range(nv)] for i in range(nv)]
        av = [[[(b, _scalar(x[t])) for b, x in enumerate(brk[i]) if x[t]]
               for t in range(nz)] for i in range(nv)]
        return av, None             # [V, Z] = 0
    layer = layers[j]
    m1s = [m1 for m1, _ in layer.basis]
    m2s = [m2 for _, m2 in layer.basis]
    av = [[[(b, _scalar(m[t, i])) for b, m in enumerate(m1s) if m[t, i]]
           for t in range(layer.dim_prev1)] for i in range(nv)]
    az = [[[(b, _scalar(m[t, a])) for b, m in enumerate(m2s) if m[t, a]]
           for t in range(layer.dim_prev2)] for a in range(nz)]
    return av, az


def compute_layer(alg: TwoStepAlgebra, k: int,
                  layers: Sequence[ProlongationLayer],
                  max_unknowns: int = 20000,
                  max_entries: int = 10**8) -> ProlongationLayer:
    """g_k as one exact kernel computation (k >= 0, layers = g_0..g_{k-1})."""
    if k < 0:
        raise ValueError("layers are computed for degree >= 0")
    if len(layers) != k:
        raise ValueError(f"need previous layers g_0..g_{k-1}, got {len(layers)}")
    nv, nz = alg.dim_v, alg.dim_z
    d1 = _layer_dim(alg, layers, k - 1)
    d2 = _layer_dim(alg, layers, k - 2)
    d3 = _layer_dim(alg, layers, k - 3)
    d4 = _layer_dim(alg, layers, k - 4)
    unknowns = nv * d1 + nz * d2
    if unknowns == 0:
        return ProlongationLayer(k, d1, d2, ())
    equations = (nv * (nv - 1) // 2) * d2 + nv * nz * d3 + (nz * (nz - 1) // 2) * d4
    if unknowns > max_unknowns or unknowns * max(equations, 1) > max_entries:
        raise ProlongationResourceError(
            f"degree {k}: {unknowns} unknowns x {equations} equations "
            f"exceeds the resource guard")
    av1, az1 = _action_tables(alg, layers, k - 1)
    av2, az2 = _action_tables(alg, layers, k - 2)
    off2 = nv * d1       # U2 coordinates start here
    rows: List[Dict[int, Fraction]] = []

    # pairs in V x V: u2([x_i, x_j]) = [u1(x_i), x_j] - [u1(x_j), x_i]
    for i in range(nv):
        for j in range(i + 1, nv):
            cij = alg.bracket_basis(i, j)
            for t in range(d2):
                row: Dict[int, Fraction] = {}
                for a in range(nz):
                    if cij[a]:
                        _add(row, off2 + t * nz + a, cij[a])
                if av1 is not None:
                    for b, x in av1[j][t]:
                        _add(row, b * nv + i, -x)
                    for b, x in av1[i][t]:
                        _add(row, b * nv + j, x)
                if row:
                    rows.append(row)

    # mixed pairs: [u1(x_i), z_a] = [u2(z_a), x_i]
    if d3:
        for i in range(nv):
            for a in range(nz):
                for t in range(d3):
                    row = {}
                    if az1 is not None:
                        for b, x in az1[a][t]:
                            _add(row, b * nv + i, x)
                    if av2 is not None:
                        for s, x in av2[i][t]:
                            _add(row, off2 + s * nz + a, -x)
                    if row:
                        rows.append(row)

    # pairs in Z x Z: [u2(z_a), z_b] = [u2(z_b), z_a]
    if d4 and az2 is not None:
        for a in range(nz):
            for b in range(a + 1, nz):
                for t in range(d4):
                    row = {}
                    for s, x in az2[b][t]:
                        _add(row, off2 + s * nz + a, x)
                    for s, x in az2[a][t]:
                        _add(row, off2 + s * nz + b, -x)
                    if row:
                        rows.append(row)

    int_rows = [list(zip(row, clear_denominators(list(row.values())))) for row in rows]
    kernel = nullspace_int_rows(int_rows, unknowns)
    basis = []
    for vec in kernel:
        m1 = Matrix.from_rows([[vec[b * nv + i] for i in range(nv)]
                               for b in range(d1)]) if d1 else Matrix.zeros(0, nv)
        m2 = Matrix.from_rows([[vec[off2 + s * nz + a] for a in range(nz)]
                               for s in range(d2)]) if d2 else Matrix.zeros(0, nz)
        basis.append((m1, m2))
    return ProlongationLayer(k, d1, d2, tuple(basis))


def _add(row: Dict[int, Fraction], col: int, val: Fraction) -> None:
    cur = row.get(col)
    new = val if cur is None else cur + val
    if new:
        row[col] = new
    elif cur is not None:
        del row[col]


def g0(alg: TwoStepAlgebra, **guard) -> ProlongationLayer:
    """Graded derivations (A, B) with B[x, y] = [Ax, y] + [x, Ay]."""
    if not alg.is_fundamental():
        raise ValueError("prolongation requires a fundamental algebra")
    return compute_layer(alg, 0, [], **guard)


def verify_layer(alg: TwoStepAlgebra, layers: Sequence[ProlongationLayer],
                 k: int) -> bool:
    """Re-verify the Leibniz identity for every basis element of g_k.

    Evaluates u([x,y]) and [u(x), y] + [x, u(y)] through the stored
    action maps on all basis pairs of the negative part (V x V, mixed,
    and Z x Z), exactly.  Each basis element is first scaled to integers
    by the lcm of its denominators; the identity is linear in u.
    """
    layer = layers[k]
    nv, nz = alg.dim_v, alg.dim_z
    d1, d2 = layer.dim_prev1, layer.dim_prev2
    d3 = _layer_dim(alg, layers, k - 3)
    d4 = _layer_dim(alg, layers, k - 4)
    av1, az1 = _action_tables(alg, layers, k - 1)
    av2, az2 = _action_tables(alg, layers, k - 2)
    pairs = [(i, j, [(a, _scalar(c)) for a, c in enumerate(alg.bracket_basis(i, j)) if c])
             for i in range(nv) for j in range(i + 1, nv)]

    def act(action, direction: int, coords: Sequence, width: int) -> List:
        """Bracket of a layer element (coords) with one negative basis direction."""
        if action is None:
            return [0] * width
        return [sum([x * coords[b] for b, x in row]) for row in action[direction]]

    for (m1, m2) in layer.basis:
        u = clear_denominators([m1[t, i] for i in range(nv) for t in range(d1)]
                               + [m2[t, a] for a in range(nz) for t in range(d2)])
        u_x = [u[i * d1:(i + 1) * d1] for i in range(nv)]
        u_z = [u[nv * d1 + a * d2:nv * d1 + (a + 1) * d2] for a in range(nz)]
        for i, j, cij in pairs:
            lhs = [sum([u_z[a][t] * c for a, c in cij]) for t in range(d2)]
            rhs1 = act(av1, j, u_x[i], d2)
            rhs2 = act(av1, i, u_x[j], d2)
            if any(l - (r1 - r2) for l, r1, r2 in zip(lhs, rhs1, rhs2)):
                return False
        if d3:
            for i in range(nv):
                for a in range(nz):
                    if act(az1, a, u_x[i], d3) != act(av2, i, u_z[a], d3):
                        return False
        if d4:
            for a in range(nz):
                for b in range(a + 1, nz):
                    if act(az2, b, u_z[a], d4) != act(az2, a, u_z[b], d4):
                        return False
    return True


def prolong(alg: TwoStepAlgebra, max_degree: int, stop_when_zero: bool = True,
            max_unknowns: int = 20000, max_entries: int = 10**8
            ) -> ProlongationResult:
    """Layers g_0 .. g_max_degree with the finite/infinite-type verdict.

    The verdict is trivial_at_degree_1 when g_1 = 0, nontrivial_finite
    (with the last nonzero degree) when a later layer vanishes, and
    nontrivial_up_to_cutoff otherwise.  Once a layer vanishes all later
    ones do (transitivity over a fundamental base), which is checked
    when they are requested with stop_when_zero=False.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
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
