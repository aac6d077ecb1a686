"""Exact-arithmetic toolkit for Heisenberg-type nilpotent Lie algebras.

Construction and verification of H-type metric algebras over the real
division algebras, classification of two-step non-singular parabolic
gradings of restricted root systems, and Tanaka prolongation by exact
linear algebra.
"""

from .exactlin import Matrix, Rational, rat, rat_str
from .division import DivisionElement, Tag
from .nilalg import TwoStepAlgebra
from .htype import (
    HTypeFamilyId,
    MetricStructure,
    GradedMap,
    make_h,
    make_h_prime,
    make_clifford_module_algebra,
    is_htype,
    identify_family,
)
from .prolong import prolong, ProlongationResult
from .rootsys import RootSystem, ParabolicChoice, build as build_root_system

__all__ = [
    "Matrix", "Rational", "rat", "rat_str",
    "DivisionElement", "Tag",
    "TwoStepAlgebra",
    "HTypeFamilyId", "MetricStructure", "GradedMap",
    "make_h", "make_h_prime", "make_clifford_module_algebra",
    "is_htype", "identify_family",
    "prolong", "ProlongationResult",
    "RootSystem", "ParabolicChoice", "build_root_system",
]
