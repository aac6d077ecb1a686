import importlib
from fractions import Fraction as F

import pytest

from conftest import FLEET, dense_kernel, fleet_member, prolong_dims
from nilrad.division import Tag
from nilrad.exactlin import Matrix, nullspace_int_rows
from nilrad.htype import make_h_prime
from nilrad.nilalg import TwoStepAlgebra, free_two_step
from nilrad.prolong import (
    ProlongationLayer,
    ProlongationResourceError,
    compute_layer,
    g0,
    prolong,
    verify_layer,
)


def contact_layer_dim(k: int) -> int:
    """Independent oracle for the 3-dim Heisenberg prolongation layers.

    Counts weighted-degree k+2 monomials in variables of weight (1, 1, 2):
    solutions of a + b + 2c = k + 2 over non-negative integers.
    """
    target = k + 2
    return sum(1 for a in range(target + 1) for b in range(target + 1)
               for c in range(target // 2 + 1) if a + b + 2 * c == target)


def test_g0_of_small_heisenberg():
    layer = g0(make_h_prime(Tag.C, 1, 0).algebra)
    assert layer.dim == 4


def test_g0_of_abelian_algebra_is_full_endomorphism_space():
    alg = TwoStepAlgebra.from_brackets("abelian4", 4, 0, {})
    assert g0(alg).dim == 16


def test_g0_of_octonion_plane():
    dims, _, _ = prolong_dims("hp10O", 3)
    assert dims[0] == 22


def test_g0_requires_fundamental():
    alg = TwoStepAlgebra.from_brackets("thin", 2, 2, {(0, 1): [F(1), F(0)]})
    with pytest.raises(ValueError):
        g0(alg)


def test_g1_of_heisenberg_matches_monomial_oracle():
    alg = make_h_prime(Tag.C, 1, 0).algebra
    layers = [g0(alg)]
    layer1 = compute_layer(alg, 1, layers)
    assert layer1.dim == 6 == contact_layer_dim(1)


def test_heisenberg_series_against_oracle():
    alg = make_h_prime(Tag.C, 1, 0).algebra
    res = prolong(alg, 4, stop_when_zero=False)
    assert res.dims() == [contact_layer_dim(k) for k in range(5)]
    assert res.dims() == [4, 6, 9, 12, 16]
    assert res.verdict == "nontrivial_up_to_cutoff"


def test_clifford_center5_is_trivial_at_degree_one():
    dims, verdict, _ = prolong_dims("cliff5", 1)
    assert dims[1] == 0 and verdict == "trivial_at_degree_1"


def test_quaternionic_line_finite_series():
    res = prolong(make_h_prime(Tag.H, 1, 0).algebra, 3)
    assert res.dims() == [7, 4, 3, 0]
    assert res.verdict == "nontrivial_finite" and res.last_nonzero == 2
    # graded duality of the ambient algebra: g1 matches V, g2 matches Z
    assert res.dims()[1] == 4 and res.dims()[2] == 3
    # bookkeeping: dim sp(2,1) = 21 = 2 (dimV + dimZ) + dim g0
    assert 2 * (4 + 3) + res.dims()[0] == 21


def test_layers_verify_by_substitution():
    alg = make_h_prime(Tag.H, 1, 0).algebra
    res = prolong(alg, 3, stop_when_zero=False)
    for k in range(4):
        assert verify_layer(alg, res.layers, k)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_verify_layer_rejects_a_perturbed_entry(k):
    alg = fleet_member("hp10O").algebra
    layers = list(prolong(alg, 2).layers)
    assert verify_layer(alg, layers, k)
    m1, m2 = layers[k].basis[0]
    rows = m1.to_rows()
    rows[0][0] += F(1, 3)
    bad = ((Matrix.from_rows(rows), m2),) + layers[k].basis[1:]
    layers[k] = ProlongationLayer(k, layers[k].dim_prev1, layers[k].dim_prev2, bad)
    assert not verify_layer(alg, layers, k)


def test_deep_layers_verify_including_zz_pairs():
    # at degree >= 4 the Z x Z equations land in a nonzero layer
    alg = make_h_prime(Tag.C, 1, 0).algebra
    res = prolong(alg, 4, stop_when_zero=False)
    assert verify_layer(alg, res.layers, 4)
    alg2 = make_h_prime(Tag.H, 1, 1).algebra
    res2 = prolong(alg2, 2, stop_when_zero=False)
    for k in range(3):
        assert verify_layer(alg2, res2.layers, k)


def test_monotone_consistency():
    alg = make_h_prime(Tag.C, 1, 0).algebra
    res2 = prolong(alg, 2)
    res3 = prolong(alg, 3)
    for k in range(3):
        assert res2.layers[k].dim == res3.layers[k].dim
        assert res2.layers[k].basis == res3.layers[k].basis


def test_transitivity_after_first_zero_layer():
    alg = fleet_member("cliff5").algebra
    res = prolong(alg, 2, stop_when_zero=False)
    assert res.dims()[1:] == [0, 0]


def test_stop_when_zero_truncates():
    alg = make_h_prime(Tag.H, 1, 0).algebra
    res = prolong(alg, 6, stop_when_zero=True)
    assert len(res.dims()) == 4      # stops right after g3 = 0


def test_free_algebra_derivations():
    # on the free 2-step algebra any A in gl(3) extends uniquely by its
    # second exterior power, so g0 is exactly 9-dimensional
    alg = free_two_step(3)
    res = prolong(alg, 1, stop_when_zero=False)
    assert res.dims() == [9, 3]


def test_resource_guard():
    alg = make_h_prime(Tag.C, 1, 0).algebra
    with pytest.raises(ProlongationResourceError):
        prolong(alg, 2, max_entries=5)
    with pytest.raises(ProlongationResourceError):
        prolong(alg, 2, max_unknowns=3)


def test_compute_layer_argument_validation():
    alg = make_h_prime(Tag.C, 1, 0).algebra
    with pytest.raises(ValueError):
        compute_layer(alg, -1, [])
    with pytest.raises(ValueError):
        compute_layer(alg, 2, [])
    with pytest.raises(ValueError):
        prolong(alg, 0)


@pytest.mark.parametrize("key", FLEET)
def test_layer_kernels_are_the_dense_echelon_basis(key, monkeypatch):
    # every kernel compute_layer asks for, to degree 3, against the basis read
    # off the dense integer echelon form of the same rows
    module = importlib.import_module("nilrad.prolong")
    sizes = []

    def checked(rows, ncols):
        got = nullspace_int_rows(rows, ncols)
        assert got == dense_kernel(rows, ncols)
        sizes.append(len(got))
        return got

    monkeypatch.setattr(module, "nullspace_int_rows", checked)
    dims = prolong(fleet_member(key).algebra, 3).dims()
    assert sizes == dims
