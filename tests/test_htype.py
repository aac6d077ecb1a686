import random
from fractions import Fraction as F

import pytest

from conftest import (
    conformal_automorphism_h1H,
    fleet_member,
    random_quaternion,
    run_optimized,
    unit_z,
)
from nilrad.division import Tag
from nilrad.exactlin import Matrix, inverse, mat_vec, nullspace
from nilrad.htype import (
    GradedMap,
    HTypeFamilyId,
    MetricStructure,
    build_swap_automorphism,
    clifford_generators,
    dilation,
    identify_family,
    irreducibility_probe,
    is_graded_automorphism,
    is_htype,
    is_isometry,
    j_basis,
    jz,
    make_clifford_module_algebra,
    make_h,
    make_h_prime,
    pullback_metric,
    sigma_automorphism,
    transfer_operator,
)
from nilrad.nilalg import free_two_step


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_make_h_dimensions():
    assert make_h(Tag.R, 1).algebra.dim_v == 2
    ms = make_h(Tag.O, 1)
    assert (ms.algebra.dim_v, ms.algebra.dim_z) == (16, 8)
    ms = make_h(Tag.H, 2)
    assert (ms.algebra.dim_v, ms.algebra.dim_z) == (16, 4)
    assert is_htype(ms)


def test_make_h_prime_dimensions():
    assert (make_h_prime(Tag.C, 3, 0).algebra.dim_v,
            make_h_prime(Tag.C, 3, 0).algebra.dim_z) == (6, 1)
    ms = make_h_prime(Tag.H, 2, 1)
    assert (ms.algebra.dim_v, ms.algebra.dim_z) == (12, 3)
    ms = make_h_prime(Tag.O, 1, 0)
    assert (ms.algebra.dim_v, ms.algebra.dim_z) == (8, 7)


def test_parameter_constraints():
    with pytest.raises(ValueError):
        make_h(Tag.O, 2)
    with pytest.raises(ValueError):
        make_h(Tag.C, 0)
    with pytest.raises(ValueError):
        make_h_prime(Tag.R, 1, 0)
    with pytest.raises(ValueError):
        make_h_prime(Tag.O, 1, 1)
    with pytest.raises(ValueError):
        make_h_prime(Tag.C, 0, 0)


def test_hprime_gram_normalization():
    # the conjugation bracket doubles; H-type forces gramV = 2 gramZ-scale
    ms = make_h_prime(Tag.C, 1, 0)
    assert ms.gram_v == Matrix.identity(2).scale(2)
    assert ms.gram_z == Matrix.identity(1)
    assert is_htype(ms)
    skewed = MetricStructure(ms.algebra, Matrix.identity(2), Matrix.identity(1))
    assert not is_htype(skewed)


# ---------------------------------------------------------------------------
# J maps
# ---------------------------------------------------------------------------

def test_jz_defining_identity_random():
    rng = random.Random(5)
    for key in ("h1C", "hp11H", "hp10O"):
        ms = fleet_member(key)
        alg = ms.algebra
        for _ in range(8):
            x = [F(rng.randint(-3, 3)) for _ in range(alg.dim_v)]
            y = [F(rng.randint(-3, 3)) for _ in range(alg.dim_v)]
            z = [F(rng.randint(-3, 3)) for _ in range(alg.dim_z)]
            bracket = alg.bracket(alg.element(v=x), alg.element(v=y)).z_part
            lhs = ms.ip_z(bracket, z)
            rhs = ms.ip_v(mat_vec(jz(ms, z), x), y)
            assert lhs == rhs


def test_jz_squares_to_minus_identity_on_complex_heisenberg():
    ms = make_h_prime(Tag.C, 1, 0)
    j = jz(ms, [F(1)])
    assert j * j == -Matrix.identity(2)


def test_jz_linear_zero():
    ms = fleet_member("h1H")
    assert jz(ms, [F(0)] * 4).is_zero()


def test_jz_clifford_module_unit():
    ms = fleet_member("cliff7x2")
    z = unit_z(ms, 3)
    j = jz(ms, z)
    assert j * j == -Matrix.identity(16)


def test_jz_gram_skew():
    for key in ("h1O", "hp21H"):
        ms = fleet_member(key)
        for a in range(ms.algebra.dim_z):
            j = jz(ms, unit_z(ms, a))
            assert j.transpose() * ms.gram_v == -(ms.gram_v * j)


def test_clifford_relations_for_random_z_w():
    rng = random.Random(11)
    ms = fleet_member("h1O")
    n = ms.algebra.dim_v
    for _ in range(5):
        z = [F(rng.randint(-2, 2)) for _ in range(8)]
        w = [F(rng.randint(-2, 2)) for _ in range(8)]
        jz_m, jw_m = jz(ms, z), jz(ms, w)
        anti = jz_m * jw_m + jw_m * jz_m
        assert anti == Matrix.identity(n).scale(-2 * ms.ip_z(z, w))


def test_is_htype_rejects_skewed_metric():
    alg = make_h(Tag.R, 1).algebra
    ms = MetricStructure(alg, Matrix.diagonal([1, 4]), Matrix.identity(1))
    assert not is_htype(ms)


def test_is_htype_rejects_free_algebra():
    alg = free_two_step(3)
    ms = MetricStructure(alg, Matrix.identity(3), Matrix.identity(3))
    assert not is_htype(ms)
    assert len(nullspace(jz(ms, [F(1), F(0), F(0)]))) > 0


# ---------------------------------------------------------------------------
# Clifford module constructor
# ---------------------------------------------------------------------------

def test_clifford_generator_relations():
    for m in range(1, 9):
        dim, gens = clifford_generators(m)
        ident = Matrix.identity(dim)
        for a in range(m):
            assert gens[a].transpose() == -gens[a]
            for b in range(a, m):
                anti = gens[a] * gens[b] + gens[b] * gens[a]
                assert anti == (ident.scale(-2) if a == b else Matrix.zeros(dim, dim))


def test_clifford_module_dimensions():
    assert fleet_member("cliff5").algebra.dim_v == 8
    assert fleet_member("cliff7x2").algebra.dim_v == 16
    assert make_clifford_module_algebra(8, 1).algebra.dim_v == 16


def test_clifford_zero_module_rejected():
    with pytest.raises(ValueError):
        make_clifford_module_algebra(5, 0)
    with pytest.raises(ValueError):
        make_clifford_module_algebra(5, (1, 1))   # two classes only for 3, 7


def test_clifford_volume_classes_differ():
    dim, gens = clifford_generators(7)
    vol = gens[0]
    for g in gens[1:]:
        vol = vol * g
    assert vol == Matrix.identity(dim)
    neg = [-g for g in gens]
    vol = neg[0]
    for g in neg[1:]:
        vol = vol * g
    assert vol == -Matrix.identity(dim)


# ---------------------------------------------------------------------------
# identification
# ---------------------------------------------------------------------------

def test_identify_constructor_round_trips():
    cases = [
        (make_h(Tag.C, 3), HTypeFamilyId("h", Tag.C, (3,))),
        (make_h(Tag.H, 2), HTypeFamilyId("h", Tag.H, (2,))),
        (make_h(Tag.O, 1), HTypeFamilyId("h", Tag.O, (1,))),
        (make_h_prime(Tag.C, 2, 0), HTypeFamilyId("hprime", Tag.C, (2, 0))),
        (make_h_prime(Tag.H, 2, 1), HTypeFamilyId("hprime", Tag.H, (2, 1))),
        (make_h_prime(Tag.O, 1, 0), HTypeFamilyId("hprime", Tag.O, (1, 0))),
    ]
    for ms, want in cases:
        assert identify_family(ms).equivalent(want)


def test_identify_signature_up_to_swap():
    got = identify_family(make_h_prime(Tag.H, 1, 2))
    assert got.equivalent(HTypeFamilyId("hprime", Tag.H, (2, 1)))


def test_identify_volume_eigenspace_dimensions():
    ms = make_h_prime(Tag.H, 2, 1)
    js = j_basis(ms)
    omega = js[0] * js[1] * js[2]
    plus = len(nullspace(omega - Matrix.identity(12)))
    minus = len(nullspace(omega + Matrix.identity(12)))
    assert {plus, minus} == {8, 4}


def test_identify_outside_families():
    assert identify_family(fleet_member("cliff7x2")).kind == "other"
    assert identify_family(fleet_member("cliff5")).kind == "other"
    big_o_like = make_clifford_module_algebra(8, 2)     # dims (32, 8): not h_1(O)
    assert identify_family(big_o_like).kind == "other"


def test_identify_small_clifford_is_heisenberg():
    fid = identify_family(make_clifford_module_algebra(1, 1))
    assert fid.equivalent(HTypeFamilyId("hprime", Tag.C, (1, 0)))


def test_identify_intermediate_center_dims_are_other():
    assert identify_family(make_clifford_module_algebra(6, 1)).kind == "other"
    assert identify_family(make_clifford_module_algebra(5, 2)).kind == "other"


def test_identify_clifford_rebuilds_of_families():
    # module data determines the algebra: these constructions land back
    # in the families even though they never went through make_h/make_h_prime
    fid = identify_family(make_clifford_module_algebra(4, 2))
    assert fid.equivalent(HTypeFamilyId("h", Tag.H, (2,)))
    fid = identify_family(make_clifford_module_algebra(2, 2))
    assert fid.equivalent(HTypeFamilyId("h", Tag.C, (2,)))
    fid = identify_family(make_clifford_module_algebra(7, (1, 0)))
    assert fid.equivalent(HTypeFamilyId("hprime", Tag.O, (1, 0)))
    fid = identify_family(make_clifford_module_algebra(3, (2, 1)))
    assert fid.equivalent(HTypeFamilyId("hprime", Tag.H, (2, 1)))


def test_identify_rejects_non_htype():
    alg = free_two_step(3)
    ms = MetricStructure(alg, Matrix.identity(3), Matrix.identity(3))
    with pytest.raises(ValueError):
        identify_family(ms)


def test_family_id_constraints():
    with pytest.raises(ValueError):
        HTypeFamilyId("h", Tag.O, (2,))
    with pytest.raises(ValueError):
        HTypeFamilyId("hprime", Tag.O, (2, 0))
    with pytest.raises(ValueError):
        HTypeFamilyId("hprime", Tag.R, (1, 0))
    assert HTypeFamilyId("h", Tag.H, (2,)).dims() == (16, 4)
    assert HTypeFamilyId("hprime", Tag.O, (1, 0)).dims() == (8, 7)


# ---------------------------------------------------------------------------
# sigma automorphisms
# ---------------------------------------------------------------------------

def test_sigma_on_one_dimensional_center_fixes_z():
    ms = make_h_prime(Tag.C, 1, 0)
    gm = sigma_automorphism(ms, [F(1)])
    assert gm.map_z == Matrix.identity(1)
    # brackets are preserved on the nose
    alg = ms.algebra
    x, y = alg.element(v=[1, 2]), alg.element(v=[-1, 3])
    jx = alg.element(v=list(mat_vec(gm.map_v, x.v_part)))
    jy = alg.element(v=list(mat_vec(gm.map_v, y.v_part)))
    assert alg.bracket(jx, jy).z_part == alg.bracket(x, y).z_part


def test_sigma_reflection_spectrum():
    ms = fleet_member("hp11H")
    gm = sigma_automorphism(ms, unit_z(ms, 0))
    mz = gm.map_z
    assert mz == Matrix.diagonal([1, -1, -1])


def test_sigma_verifies_on_octonion_families():
    for key in ("h1O", "hp10O"):
        ms = fleet_member(key)
        for a in range(ms.algebra.dim_z):
            gm = sigma_automorphism(ms, unit_z(ms, a))
            assert is_isometry(ms, gm)


def test_sigma_rejects_non_unit_z():
    ms = fleet_member("h1H")
    with pytest.raises(ValueError):
        sigma_automorphism(ms, [F(2), F(0), F(0), F(0)])


def test_sigma_accepts_rational_unit_z():
    ms = fleet_member("h1H")
    gm = sigma_automorphism(ms, [F(3, 5), F(4, 5), F(0), F(0)])
    assert is_isometry(ms, gm)


# ---------------------------------------------------------------------------
# swap automorphisms
# ---------------------------------------------------------------------------

def _basis_vectors(n, idxs):
    return [[F(1 if i == k else 0) for i in range(n)] for k in idxs]


def test_swap_on_h2C_coordinate_blocks():
    ms = make_h(Tag.C, 2)
    n = 8
    v1 = _basis_vectors(n, [0, 1, 4, 5])      # slot 0 of the a and b blocks
    v2 = _basis_vectors(n, [2, 3, 6, 7])      # slot 1
    perm = {0: 2, 1: 3, 4: 6, 5: 7, 2: 0, 3: 1, 6: 4, 7: 5}
    tv = Matrix.from_rows([[F(1 if perm[j] == i else 0) for j in range(n)]
                           for i in range(n)])
    res = build_swap_automorphism(ms, v1, v2, GradedMap(tv, Matrix.identity(2)))
    assert res
    assert is_graded_automorphism(ms.algebra, res.automorphism)
    assert is_isometry(ms, res.automorphism)


def test_swap_identity_case():
    ms = make_h(Tag.C, 2)
    v1 = _basis_vectors(8, [0, 1, 4, 5])
    res = build_swap_automorphism(ms, v1, v1, GradedMap.identity(ms.algebra))
    assert res and res.automorphism.map_v.is_identity()


def test_swap_rejects_scaled_theta():
    ms = make_h(Tag.C, 2)
    v1 = _basis_vectors(8, [0, 1, 4, 5])
    v2 = _basis_vectors(8, [2, 3, 6, 7])
    perm = {0: 2, 1: 3, 4: 6, 5: 7, 2: 0, 3: 1, 6: 4, 7: 5}
    tv = Matrix.from_rows([[F(2 if perm[j] == i else 0) for j in range(8)]
                           for i in range(8)])
    with pytest.raises(ValueError, match="isometric"):
        build_swap_automorphism(ms, v1, v2, GradedMap(tv, Matrix.identity(2)))


def quaternion_conj_swap(ms):
    """Isometric isomorphism between the two signature blocks of h'_{1,1}(H)."""
    rows = [[F(0)] * 8 for _ in range(8)]
    for u in range(4):
        sign = 1 if u == 0 else -1
        rows[4 + u][u] = F(sign)
        rows[u][4 + u] = F(sign)
    return GradedMap(Matrix.from_rows(rows), Matrix.identity(3).scale(-1))


def test_swap_between_signature_blocks():
    ms = fleet_member("hp11H")
    v1 = _basis_vectors(8, [0, 1, 2, 3])
    v2 = _basis_vectors(8, [4, 5, 6, 7])
    res = build_swap_automorphism(ms, v1, v2, quaternion_conj_swap(ms))
    assert res
    assert is_graded_automorphism(ms.algebra, res.automorphism)


# ---------------------------------------------------------------------------
# irreducibility probe
# ---------------------------------------------------------------------------

def test_probe_complex_heisenberg_irreducible():
    ms = make_h_prime(Tag.C, 1, 0)
    gens = [sigma_automorphism(ms, [F(1)])]
    assert irreducibility_probe(ms, gens).kind == "irreducible"


def test_probe_module_blocks_witness():
    ms = fleet_member("cliff7x2")
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(7)]
    verdict = irreducibility_probe(ms, gens, seed=2)
    assert verdict.kind == "reducible"
    assert len(verdict.invariant_subspace) == 8
    block1 = set(range(8))
    support = {i for vec in verdict.invariant_subspace
               for i, c in enumerate(vec) if c}
    assert support <= block1 or support <= set(range(8, 16))


def test_probe_with_swap_never_blames_module_blocks():
    ms = fleet_member("cliff7x2")
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(7)]
    v1 = _basis_vectors(16, list(range(8)))
    v2 = _basis_vectors(16, list(range(8, 16)))
    ident_pair = Matrix.from_rows(
        [[F(1 if (i + 8) % 16 == j else 0) for j in range(16)] for i in range(16)])
    res = build_swap_automorphism(ms, v1, v2, GradedMap(ident_pair, Matrix.identity(7)))
    assert res
    verdict = irreducibility_probe(ms, gens + [res.automorphism], seed=2)
    if verdict.kind == "reducible":
        for block in (v1, v2):
            got = sorted(tuple(v) for v in verdict.invariant_subspace)
            want = sorted(tuple(v) for v in block)
            assert got != want


def test_probe_sigma_only_splits_signature_blocks():
    # the sigma subgroup preserves the volume splitting, so on a (1,1)
    # signature it is honestly reducible; the swap restores irreducibility
    ms = fleet_member("hp11H")
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(3)]
    verdict = irreducibility_probe(ms, gens, seed=0)
    assert verdict.kind == "reducible"
    assert len(verdict.invariant_subspace) == 4
    v1 = _basis_vectors(8, [0, 1, 2, 3])
    v2 = _basis_vectors(8, [4, 5, 6, 7])
    res = build_swap_automorphism(ms, v1, v2, quaternion_conj_swap(ms))
    assert res
    verdict2 = irreducibility_probe(ms, gens + [res.automorphism], seed=0)
    assert verdict2.kind == "irreducible"


def test_probe_rejects_non_automorphism_generators():
    ms = make_h_prime(Tag.C, 1, 0)
    bad = GradedMap(Matrix.from_rows([[1, 1], [0, 1]]), Matrix.identity(1))
    with pytest.raises(ValueError):
        irreducibility_probe(ms, [bad])


# ---------------------------------------------------------------------------
# transfer operator
# ---------------------------------------------------------------------------

def test_transfer_identity_metric():
    ms = fleet_member("h1H")
    op, rep = transfer_operator(ms, ms, 128)
    assert rep.exact and rep.ok and rep.lam == 1
    assert op.map_v.is_identity()


def test_transfer_dilation_is_exact():
    ms = fleet_member("h1H")
    ms2 = pullback_metric(ms, dilation(ms.algebra, 2))
    op, rep = transfer_operator(ms, ms2, 128)
    assert rep.exact and rep.ok
    assert rep.lam == 4
    assert op.map_v == Matrix.identity(8).scale(2)
    assert op.map_z == Matrix.identity(4).scale(4)


def test_transfer_recovers_symmetric_automorphism():
    # block scaling (a, b) -> (2a, 3b) is gram-symmetric positive
    ms = fleet_member("h1H")
    mv = Matrix.diagonal([2, 2, 2, 2, 3, 3, 3, 3])
    mz = Matrix.identity(4).scale(6)
    gm = GradedMap(mv, mz)
    assert is_graded_automorphism(ms.algebra, gm)
    ms2 = pullback_metric(ms, gm)
    op, rep = transfer_operator(ms, ms2, 128)
    assert rep.exact and rep.ok
    assert op.map_v == mv and op.map_z == mz and rep.lam == 6


def test_transfer_float_path_certifies():
    rng = random.Random(23)
    ms = fleet_member("h1H")
    gm = conformal_automorphism_h1H(random_quaternion(rng), random_quaternion(rng),
                                    random_quaternion(rng))
    assert is_graded_automorphism(ms.algebra, gm)
    ms2 = pullback_metric(ms, gm)
    assert is_htype(ms2)
    op, rep = transfer_operator(ms, ms2, 128)
    assert rep.ok
    assert max(rep.residual_automorphism, rep.residual_center,
               rep.residual_metric, rep.residual_lambda_sq) <= rep.tolerance


def test_transfer_float_path_on_doubled_base_gram():
    # h' metrics have gramV = 2 Id, so this drives the float square root
    # against a non-identity base gram; (a, b) -> (u a, b conj(u)) is a
    # graded automorphism of h'_{1,1}(H) with center map z -> u z conj(u)
    from conftest import left_mult_matrix, right_mult_matrix
    from nilrad.division import conj as fconj, element
    ms = fleet_member("hp11H")
    u = element(Tag.H, [1, 1, 0, 1])        # |u|^2 = 3, not a square
    a_block = left_mult_matrix(Tag.H, u)
    b_block = right_mult_matrix(Tag.H, fconj(u))
    rows = []
    for i in range(8):
        rows.append([a_block[i, j] if i < 4 and j < 4
                     else (b_block[i - 4, j - 4] if i >= 4 and j >= 4 else F(0))
                     for j in range(8)])
    z_full = left_mult_matrix(Tag.H, u) * right_mult_matrix(Tag.H, fconj(u))
    mz = Matrix.from_rows([[z_full[i, j] for j in range(1, 4)] for i in range(1, 4)])
    gm = GradedMap(Matrix.from_rows(rows), mz)
    assert is_graded_automorphism(ms.algebra, gm)
    ms2 = pullback_metric(ms, gm)
    assert is_htype(ms2)
    op, rep = transfer_operator(ms, ms2, 128)
    assert not rep.exact           # sqrt(3) scale cannot be rational
    assert rep.ok
    assert abs(float(rep.lam) - 3.0) < 1e-18


def test_transfer_requires_htype_hypothesis():
    ms = make_h(Tag.R, 1)
    bad = MetricStructure(ms.algebra, Matrix.diagonal([1, 4]), Matrix.identity(1))
    with pytest.raises(ValueError, match="H-type"):
        transfer_operator(ms, bad, 128)
    with pytest.raises(ValueError, match="H-type"):
        transfer_operator(bad, ms, 128)


def test_transfer_requires_same_algebra():
    with pytest.raises(ValueError, match="same algebra"):
        transfer_operator(fleet_member("h1H"), fleet_member("hp11H"), 128)


def test_transfer_square_intertwines_j_maps():
    # P^2 = gram1^{-1} gram2 is rational; P^2 K_z = J_{P^2 z} holds exactly
    rng = random.Random(41)
    ms1 = fleet_member("h1H")
    gm = conformal_automorphism_h1H(random_quaternion(rng), random_quaternion(rng),
                                    random_quaternion(rng))
    ms2 = pullback_metric(ms1, gm)
    p2_v = inverse(ms1.gram_v) * ms2.gram_v
    p2_z = inverse(ms1.gram_z) * ms2.gram_z
    for a in range(4):
        z = unit_z(ms1, a)
        k_z = jz(ms2, z)
        assert p2_v * k_z == jz(ms1, list(mat_vec(p2_z, z)))


def test_dilated_metric_transfer_eigenvalues():
    # the gram ratio of a dilation pullback is diag(t^2 Id, t^4 Id) by the
    # grading, so its spectrum is exactly {t^2, t^4}
    from nilrad.exactlin import sym_eigen
    ms = fleet_member("h1H")
    ms2 = pullback_metric(ms, dilation(ms.algebra, 3))
    ratio_v = inverse(ms.gram_v) * ms2.gram_v
    ratio_z = inverse(ms.gram_z) * ms2.gram_z
    evals_v, _ = sym_eigen(ratio_v, 128)
    evals_z, _ = sym_eigen(ratio_z, 128)
    assert {round(float(e)) for e in evals_v} == {9}
    assert {round(float(e)) for e in evals_z} == {81}
    assert all(abs(float(e) - 9) < 1e-25 for e in evals_v)


def test_pullback_of_htype_metric_is_htype():
    ms = fleet_member("h1H")
    gm = dilation(ms.algebra, F(3, 2)).compose(
        conformal_automorphism_h1H(random_quaternion(random.Random(8)),
                                   random_quaternion(random.Random(9)),
                                   random_quaternion(random.Random(10))))
    assert is_htype(pullback_metric(ms, gm))


def test_clifford_certification_survives_optimize_flag():
    # a failed H-type certificate must raise even when asserts are compiled away
    proc = run_optimized("""
        import sys
        from nilrad import htype
        if __debug__:
            sys.exit(2)
        htype.is_htype = lambda ms: False
        try:
            htype.make_clifford_module_algebra(5, 1)
        except ArithmeticError:
            sys.exit(0)
        sys.exit(1)
    """)
    assert proc.returncode == 0, proc.stderr
