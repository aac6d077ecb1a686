"""Exact arithmetic in the four real normed division algebras.

Elements of R, C, H, O carry rational coordinates in the standard basis
{1, e_1, ..., e_{d-1}}.  The multiplication tables come from iterating
the Cayley-Dickson doubling (a,b)(c,d) = (ac - conj(d)b, da + b conj(c))
starting from the reals, so e_1 e_2 = e_3 inside the quaternions and the
octonions double the quaternions with unit e_4 (e_1 e_4 = e_5,
e_2 e_4 = e_6, e_3 e_4 = e_7).  The resulting octonion table is one of
the 480 equivalent orientations; it is fixed here once and used
consistently everywhere (brackets, Clifford actions, tests).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import List, Sequence, Tuple

from .exactlin import rat, rat_str


class Tag(enum.Enum):
    """The four real division algebras, by dimension."""

    R = 1
    C = 2
    H = 4
    O = 8

    @property
    def dim(self) -> int:
        return self.value

    @classmethod
    def parse(cls, name: str) -> "Tag":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown division algebra tag {name!r}") from None


def _cd_mul(x: List[Fraction], y: List[Fraction]) -> List[Fraction]:
    """Cayley-Dickson product on coordinate lists of length 1, 2, 4 or 8
    (of Fractions or of ints)."""
    n = len(x)
    if n == 1:
        return [x[0] * y[0]]
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    dc = _cd_conj(d)
    cc = _cd_conj(c)
    left = [p - q for p, q in zip(_cd_mul(a, c), _cd_mul(dc, b))]
    right = [p + q for p, q in zip(_cd_mul(d, a), _cd_mul(b, cc))]
    return left + right


def _cd_conj(x: List[Fraction]) -> List[Fraction]:
    return [x[0]] + [-v for v in x[1:]]


@cache
def _build_table(dim: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """table[i][j] = (sign, k) meaning e_i e_j = sign * e_k, from int unit vectors; built
    on the first product in dimension dim."""
    table = []
    for i in range(dim):
        row = []
        ei = [int(t == i) for t in range(dim)]
        for j in range(dim):
            prod = _cd_mul(ei, [int(t == j) for t in range(dim)])
            nz = [(t, v) for t, v in enumerate(prod) if v]
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                raise ArithmeticError(f"e_{i} e_{j} is not a signed unit in dimension {dim}")
            row.append((nz[0][1], nz[0][0]))
        table.append(tuple(row))
    return tuple(table)


@dataclass(frozen=True)
class DivisionElement:
    """An element of R, C, H or O with exact rational coordinates."""

    tag: Tag
    coords: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.tag.dim:
            raise ValueError(
                f"{self.tag.name} needs {self.tag.dim} coordinates, got {len(self.coords)}")

    def __add__(self, other: "DivisionElement") -> "DivisionElement":
        self._expect(other)
        return DivisionElement(self.tag, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisionElement") -> "DivisionElement":
        self._expect(other)
        return DivisionElement(self.tag, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivisionElement":
        return DivisionElement(self.tag, tuple(-a for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _expect(self, other: "DivisionElement") -> None:
        if self.tag is not other.tag:
            raise ValueError(f"mixed algebras {self.tag.name} and {other.tag.name}")

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coords):
            if c:
                label = "1" if i == 0 else f"e{i}"
                terms.append(f"{rat_str(c)}*{label}")
        return f"{self.tag.name}({' + '.join(terms) if terms else '0'})"


def element(tag: Tag, coords: Sequence) -> DivisionElement:
    return DivisionElement(tag, tuple(rat(c) for c in coords))


def unit(tag: Tag, k: int) -> DivisionElement:
    """Basis unit e_k (e_0 = 1)."""
    if not 0 <= k < tag.dim:
        raise ValueError(f"unit index {k} out of range for {tag.name}")
    return DivisionElement(tag, tuple(Fraction(1 if i == k else 0) for i in range(tag.dim)))


def mul(x: DivisionElement, y: DivisionElement) -> DivisionElement:
    """Bilinear product through the fixed Cayley-Dickson table."""
    x._expect(y)
    dim = x.tag.dim
    table = _build_table(dim)
    out = [Fraction(0)] * dim
    for i, a in enumerate(x.coords):
        if not a:
            continue
        row = table[i]
        for j, b in enumerate(y.coords):
            if not b:
                continue
            sign, k = row[j]
            out[k] += a * b if sign > 0 else -a * b
    return DivisionElement(x.tag, tuple(out))


def conj(x: DivisionElement) -> DivisionElement:
    return DivisionElement(x.tag, (x.coords[0],) + tuple(-c for c in x.coords[1:]))


def re(x: DivisionElement) -> Fraction:
    return x.coords[0]


def norm_sq(x: DivisionElement) -> Fraction:
    return sum((c * c for c in x.coords), Fraction(0))

