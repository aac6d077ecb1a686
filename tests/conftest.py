"""Shared fixtures: constructor fleet and cached prolongation results."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache

import nilrad
from nilrad.division import Tag, conj as fconj, element, mul as fmul, norm_sq, unit as funit
from nilrad.exactlin import Matrix, _int_rref, _nullspace_from_rref
from nilrad.htype import (
    GradedMap,
    MetricStructure,
    make_clifford_module_algebra,
    make_h,
    make_h_prime,
)
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
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


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
