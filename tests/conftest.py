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
from nilrad.exactlin import Matrix
from nilrad.htype import (
    GradedMap,
    MetricStructure,
    make_clifford_module_algebra,
    make_h,
    make_h_prime,
)
from nilrad.prolong import prolong


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run a snippet under `python -O` (asserts compiled away) with this nilrad."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilrad.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


@lru_cache(maxsize=None)
def fleet_member(key: str) -> MetricStructure:
    builders = {
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
    return builders[key]()


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
