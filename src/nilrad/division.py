"""Exact arithmetic in the four real normed division algebras.

Elements of R, C, H, O carry rational coordinates in the standard basis
{1, e_1, ..., e_{d-1}}.  The multiplication tables come from the
Cayley-Dickson doubling (a,b)(c,d) = (ac - conj(d)b, da + b conj(c))
applied to units, starting from the reals, so e_1 e_2 = e_3 inside the
quaternions and the octonions double the quaternions with unit e_4
(e_1 e_4 = e_5, e_2 e_4 = e_6, e_3 e_4 = e_7).  The resulting octonion
table is one of the 480 equivalent orientations; it is fixed here once
and used consistently everywhere (brackets, Clifford actions, tests).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence, Tuple

from .exactlin import rat


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


@cache
def _build_table(dim: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """table[i][j] = (sign, k) meaning e_i e_j = sign * e_k; built on the first product
    in dimension dim by doubling from the reals.  In the double of dimension 2h, with
    e_i = (e_i, 0) and e_{h+i} = (0, e_i), the doubling rule sends two units to one of
    (e_i e_j, 0), (0, e_j e_i), (0, e_i conj(e_j)) and (-conj(e_j) e_i, 0), where
    conj(e_j) = -e_j for j > 0."""
    table = [[(1, 0)]]
    while len(table) < dim:
        h = len(table)
        cols = [[table[j][i] for j in range(h)] for i in range(h)]  # cols[i][j]: e_j e_i
        csign = [1] + [-1] * (h - 1)  # conj(e_j) = csign[j] e_j
        table = ([row + [(s, k + h) for s, k in col] for row, col in zip(table, cols)]
                 + [[(s * csign[j], k + h) for j, (s, k) in enumerate(row)]
                    + [(-csign[j] * s, k) for j, (s, k) in enumerate(col)]
                    for row, col in zip(table, cols)])
    return tuple(map(tuple, table))


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

