"""Seeded inputs: relabelled fleet members and transfer pullback metrics.

Every algebra the program sees is an isomorphic copy of a fixed
instance: a random signed permutation of the V basis and of the Z basis,
applied to the structure constants and to both Gram blocks.  The oracles
are basis independent, so they hold at every seed, while the row and
pivot order the kernels meet changes with it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from common import nilrad_module

# key -> (constructor, arguments); names follow the paper's notation
FLEET = {
    "h1C": ("h", ("C", 1)),
    "h1H": ("h", ("H", 1)),
    "h1O": ("h", ("O", 1)),
    "hp10C": ("hprime", ("C", 1, 0)),
    "hp10H": ("hprime", ("H", 1, 0)),
    "hp11H": ("hprime", ("H", 1, 1)),
    "hp21H": ("hprime", ("H", 2, 1)),
    "hp10O": ("hprime", ("O", 1, 0)),
    "cliff5": ("clifford", (5, 1)),
    "cliff7x2": ("clifford", (7, 2)),
}


def fleet_member(key: str):
    """The canonical MetricStructure of a fleet member."""
    htype = nilrad_module("htype")
    tag = nilrad_module("division").Tag
    kind, args = FLEET[key]
    if kind == "h":
        return htype.make_h(tag.parse(args[0]), args[1])
    if kind == "hprime":
        return htype.make_h_prime(tag.parse(args[0]), args[1], args[2])
    return htype.make_clifford_module_algebra(*args)


@dataclass(frozen=True)
class Relabel:
    """New basis vector i is signs[i] times old basis vector perm[i]."""

    perm_v: Tuple[int, ...]
    signs_v: Tuple[int, ...]
    perm_z: Tuple[int, ...]
    signs_z: Tuple[int, ...]

    @classmethod
    def draw(cls, dim_v: int, dim_z: int, rng: random.Random) -> "Relabel":
        pv, pz = list(range(dim_v)), list(range(dim_z))
        rng.shuffle(pv)
        rng.shuffle(pz)
        return cls(tuple(pv), tuple(rng.choice((1, -1)) for _ in pv),
                   tuple(pz), tuple(rng.choice((1, -1)) for _ in pz))

    def algebra(self, alg):
        """Structure constants in the new bases."""
        old = alg.bracket_map()
        brackets = {}
        for i in range(alg.dim_v):
            for j in range(i + 1, alg.dim_v):
                a, b = self.perm_v[i], self.perm_v[j]
                vec, sign = (old.get((a, b)), 1) if a < b else (old.get((b, a)), -1)
                if vec is None:
                    continue
                s = sign * self.signs_v[i] * self.signs_v[j]
                # the new z'_c is signs_z[c] z_{perm_z[c]}
                brackets[(i, j)] = [s * self.signs_z[c] * vec[self.perm_z[c]]
                                    for c in range(alg.dim_z)]
        return type(alg).from_brackets(alg.name, alg.dim_v, alg.dim_z, brackets)

    def gram(self, g, on_z: bool):
        perm, signs = (self.perm_z, self.signs_z) if on_z else (self.perm_v, self.signs_v)
        n = len(perm)
        return g.from_rows([[signs[i] * signs[j] * g[perm[i], perm[j]]
                             for j in range(n)] for i in range(n)])


def write_relabelled(path: str, ms, rl: Relabel) -> None:
    nilrad_module("nilalg").save(path, rl.algebra(ms.algebra),
                                 rl.gram(ms.gram_v, False), rl.gram(ms.gram_z, True))


def write_gram(path: str, gram_v, gram_z, rl: Relabel) -> None:
    nilalg = nilrad_module("nilalg")
    doc = {"gram": {"v": nilalg.matrix_to_json(rl.gram(gram_v, False)),
                    "z": nilalg.matrix_to_json(rl.gram(gram_z, True))}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Transfer pullbacks on h_1(H)
# ---------------------------------------------------------------------------

def _is_rational_square(q: Fraction) -> bool:
    return (math.isqrt(q.numerator) ** 2 == q.numerator
            and math.isqrt(q.denominator) ** 2 == q.denominator)


def _quaternion(rng: random.Random):
    division = nilrad_module("division")
    while True:
        q = division.element(division.Tag.H, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                              for _ in range(4)])
        if not q.is_zero():
            return q


def _mult_matrix(q, left: bool):
    division = nilrad_module("division")
    units = [division.unit(q.tag, j) for j in range(4)]
    cols = [division.mul(q, u).coords if left else division.mul(u, q).coords
            for u in units]
    return nilrad_module("exactlin").Matrix.from_rows(
        [[cols[j][i] for j in range(4)] for i in range(4)])


def conformal_map(u, v, w):
    """(a, b) -> (u a conj(w), w b conj(v)), z -> |w|^2 u z conj(v) on h_1(H)."""
    division = nilrad_module("division")
    htype = nilrad_module("htype")
    a = _mult_matrix(u, True) * _mult_matrix(division.conj(w), False)
    b = _mult_matrix(w, True) * _mult_matrix(division.conj(v), False)
    z = (_mult_matrix(u, True) * _mult_matrix(division.conj(v), False)).scale(
        division.norm_sq(w))
    rows = [[a[i, j] if i < 4 and j < 4 else b[i - 4, j - 4] if i >= 4 and j >= 4
             else Fraction(0) for j in range(8)] for i in range(8)]
    return htype.GradedMap(a.from_rows(rows), z)


def exact_pullback(ms, rng: random.Random):
    """sigma_z composed with a rational dilation: the transfer is rational."""
    htype = nilrad_module("htype")
    dim_z = ms.algebra.dim_z
    a = rng.randrange(dim_z)
    sigma = htype.sigma_automorphism(ms, [Fraction(int(b == a)) for b in range(dim_z)])
    t = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return htype.pullback_metric(ms, sigma.compose(htype.dilation(ms.algebra, t)))


def float_pullback(ms, rng: random.Random):
    """A quaternion conformal map whose V scalings are not rational squares.

    The pullback then has an irrational square root, so the transfer
    operator must take the high-precision route.
    """
    division = nilrad_module("division")
    htype = nilrad_module("htype")
    while True:
        u, v, w = _quaternion(rng), _quaternion(rng), _quaternion(rng)
        nu, nv, nw = (division.norm_sq(x) for x in (u, v, w))
        if not (_is_rational_square(nu * nw) and _is_rational_square(nv * nw)):
            return htype.pullback_metric(ms, conformal_map(u, v, w))


def probe_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 16)


def unit_vectors(n: int) -> List[List[Fraction]]:
    return [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]


def signature_swap(dim: int = 8):
    """theta on h'_{1,1}(H): exchanges the two quaternion blocks (canonical basis)."""
    exactlin = nilrad_module("exactlin")
    half = dim // 2
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for u in range(half):
        sign = 1 if u == 0 else -1
        rows[half + u][u] = Fraction(sign)
        rows[u][half + u] = Fraction(sign)
    return nilrad_module("htype").GradedMap(exactlin.Matrix.from_rows(rows),
                                            exactlin.Matrix.identity(3).scale(-1))


def blocks(dim: int = 8) -> Tuple[Sequence, Sequence]:
    basis = unit_vectors(dim)
    return basis[:dim // 2], basis[dim // 2:]
