import importlib
import json
import random
from fractions import Fraction as F

import pytest

from conftest import (
    FLEET,
    dense_kernel,
    fleet_member,
    free_two_step,
    prolong_dims,
    reference_leibniz_rows,
    rescaled,
)
from nilrad import nilalg
from nilrad.cli import main
from nilrad.division import Tag
from nilrad.exactlin import Matrix, clear_denominators, nullspace_int_rows
from nilrad.htype import make_h_prime
from nilrad.nilalg import TwoStepAlgebra
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


def _reshaped(layer, v=None, z=None, dim_prev1=None):
    """layer with each basis element's V rows passed through v and its Z rows
    through z, and dim_prev1 replaced when given."""
    def apply(m, change):
        return m if change is None else Matrix.from_rows(change(m.to_rows()))
    return ProlongationLayer(layer.degree,
                             layer.dim_prev1 if dim_prev1 is None else dim_prev1,
                             layer.dim_prev2,
                             tuple((apply(m1, v), apply(m2, z)) for m1, m2 in layer.basis))


@pytest.mark.parametrize("k", [0, 1])
def test_verify_layer_rejects_misshapen_blocks(k):
    # entries beyond the unknowns of g_k, or blocks too short, are no layer:
    # a flat substitution alone would ignore an appended Z row
    alg = fleet_member("hp11H").algebra
    layers = list(prolong(alg, 1, stop_when_zero=False).layers)
    assert verify_layer(alg, layers, k)
    layer = layers[k]
    bent = [
        _reshaped(layer, z=lambda rows: rows + [[0] * len(rows[0])]),   # extra zero row
        _reshaped(layer, z=lambda rows: rows + [[1] * len(rows[0])]),   # extra nonzero row
        _reshaped(layer, v=lambda rows: rows[:-1]),                     # dropped row
        _reshaped(layer, v=lambda rows: [r + [0] for r in rows]),       # extra column
        _reshaped(layer, dim_prev1=layer.dim_prev1 + 1),
    ]
    for wrong in bent:
        assert not verify_layer(alg, layers[:k] + [wrong] + layers[k + 1:], k)


def _satisfies(rows, layer):
    """Every basis vector of layer, flattened and cleared of denominators,
    vanishes on every reference row."""
    vecs = [clear_denominators([x for m in pair for r in m.data for x in r])
            for pair in layer.basis]
    return all(sum(x * v[c] for c, x in row) == 0 for v in vecs for row in rows)


@pytest.mark.parametrize("key", FLEET)
def test_verify_layer_matches_the_reference_rows(key):
    # verify_layer accepts a layer exactly when its basis satisfies the
    # Fraction assembly of the Leibniz rows, the encoding kept apart from it
    alg = fleet_member(key).algebra
    layers = list(prolong(alg, 3).layers)
    rng, rejected = random.Random(key), 0
    for k, layer in enumerate(layers):
        rows, _ = reference_leibniz_rows(alg, k, layers[:k])
        assert _satisfies(rows, layer) and verify_layer(alg, layers, k), k
        for side in (0, 1) if layer.basis else ():     # the V block, then the Z block
            b = rng.randrange(layer.dim)
            pair = list(layer.basis[b])
            entries = pair[side].to_rows()
            entries[rng.randrange(len(entries))][rng.randrange(len(entries[0]))] += F(1, 3)
            pair[side] = Matrix.from_rows(entries)
            bent = ProlongationLayer(k, layer.dim_prev1, layer.dim_prev2,
                                     layer.basis[:b] + (tuple(pair),) + layer.basis[b + 1:])
            want = _satisfies(rows, bent)
            assert verify_layer(alg, layers[:k] + [bent] + layers[k + 1:], k) == want, k
            rejected += not want
    assert rejected       # an entry off the kernel was among the changes


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


def test_h1O_residual_reaches_the_echelon_form_in_blocks(monkeypatch):
    # the degree-0 residual of h_1(O) (512 rows in 192 columns) splits into
    # eight blocks of 24 columns, each reduced on its own; degrees 1-3 drain
    # to an empty residual and never reach the echelon form
    exactlin = importlib.import_module("nilrad.exactlin")
    reduce = exactlin._int_rref
    widths = []

    def recorded(rows):
        widths.append(len(rows[0]) if rows else 0)
        return reduce(rows)

    monkeypatch.setattr(exactlin, "_int_rref", recorded)
    alg = fleet_member("h1O").algebra
    layers = []
    for k in range(4):
        widths.clear()
        layers.append(compute_layer(alg, k, layers))
        assert widths == ([24] * 8 if k == 0 else []), k
    assert [layer.dim for layer in layers] == [30, 16, 8, 0]


@pytest.mark.parametrize("key", FLEET)
def test_rational_brackets_match_the_fraction_assembly(key):
    # rational diagonal changes of V and Z give bracket forms over d > 1, so
    # the integer rows carry the d-scaling; to degree 3 their kernels must be
    # those of the Fraction rows the reference assembles through bracket_basis
    base = fleet_member(key).algebra
    alg = rescaled(base, [F((-1) ** i * (i % 3 + 1), 2 + i % 2) for i in range(base.dim_v)],
                   [F(7, 1 + a % 3) for a in range(base.dim_z)])
    assert alg.bracket_forms[0] > 1
    res = prolong(alg, 3)
    assert tuple(res.dims()) == prolong_dims(key, 3)[0]
    for k, layer in enumerate(res.layers):
        rows, unknowns = reference_leibniz_rows(alg, k, res.layers[:k])
        got = [[x for m in pair for r in m.data for x in r] for pair in layer.basis]
        assert got == dense_kernel(rows, unknowns), k
        assert verify_layer(alg, res.layers, k), k


@pytest.mark.parametrize("key, k", [("hp10O", 0), ("hp10O", 1), ("hp11H", 0), ("h1H", 1)])
def test_layers_handed_in_with_fractional_blocks(key, k):
    # a layer built outside compute_layer may hold non-integral blocks; its
    # action tables must be scaled by the lcm of their denominators, never
    # truncated to ints
    alg = fleet_member(key).algebra
    layers = list(prolong(alg, k + 1, stop_when_zero=False).layers)
    third = F(2, 3)
    g_k = layers[k]
    layers[k] = ProlongationLayer(k, g_k.dim_prev1, g_k.dim_prev2,
                                  tuple((m1.scale(third), m2.scale(third))
                                        for m1, m2 in g_k.basis))
    assert verify_layer(alg, layers, k)
    nxt = compute_layer(alg, k + 1, layers[:k + 1])
    assert nxt.dim == layers[k + 1].dim
    assert verify_layer(alg, layers[:k + 1] + [nxt], k + 1)


@pytest.mark.parametrize("key", ["hp11H", "hp10O"])
def test_layers_rebuilt_from_json_verify(key, tmp_path, capsys):
    # rebuild the layers from `prolong --basis --json`, as a consumer of the
    # output would, and re-verify every degree
    alg = fleet_member(key).algebra
    path = str(tmp_path / "alg.json")
    nilalg.save(path, alg)
    assert main(["prolong", path, "--max-degree", "3", "--basis", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    dims = {-1: alg.dim_v, -2: alg.dim_z, **dict(enumerate(doc["dims"]))}
    layers = []
    for entry in doc["layers"]:
        k = entry["degree"]
        shapes = ((dims.get(k - 1, 0), alg.dim_v), (dims.get(k - 2, 0), alg.dim_z))
        layers.append(ProlongationLayer(k, dims.get(k - 1, 0), dims.get(k - 2, 0), tuple(
            tuple(Matrix.from_rows(b[name]) if b[name] else Matrix.zeros(*shape)
                  for name, shape in zip(("v_block", "z_block"), shapes))
            for b in entry["basis"])))
    assert [layer.dim for layer in layers] == doc["dims"] == list(prolong_dims(key, 3)[0])
    assert layers == list(prolong(alg, 3).layers)
    for k in range(len(layers)):
        assert verify_layer(alg, layers, k)
