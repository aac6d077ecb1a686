import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    FLEET,
    conformal_automorphism_h1H,
    fleet_member,
    free_two_step,
    left_mult_matrix,
    mix_z,
    pair_loop_bracket,
    random_quaternion,
    random_thirds,
    rebase_v,
    rebase_z,
    reference_bracket_defects,
    right_mult_matrix,
    run_optimized,
    transfer_pairs,
    unit_z,
)
from nilrad import cli, htype, nilalg
from nilrad.division import Tag, conj as fconj, element, norm_sq
from nilrad.exactlin import (
    Matrix,
    inertia,
    inverse,
    mat_vec,
    minimal_polynomial,
    nullspace,
    rational_roots,
    rational_sqrt,
    scaled_sparse,
    solve,
)
from nilrad.htype import (
    GradedMap,
    HTypeFamilyId,
    MetricStructure,
    TransferReport,
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
from nilrad.nilalg import TwoStepAlgebra


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
            lhs = ms.ip_z(pair_loop_bracket(alg, x, y), z)
            rhs = sum(a * b for a, b in zip(mat_vec(jz(ms, z), x), mat_vec(ms.gram_v, y)))
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


def test_clifford_data_is_computed_once_per_metric(monkeypatch):
    # the J maps, and so gramV^{-1}, belong to the metric structure: one inverse
    # serves the verdict and all eight sigma automorphisms; the family id reads the
    # bracket forms alone and never builds the J maps
    ms = make_h(Tag.O, 1)
    assert identify_family(ms.algebra).equivalent(HTypeFamilyId("h", Tag.O, (1,)))
    assert "int_j_maps" not in ms.__dict__
    real_inverse, calls = htype.inverse, []
    monkeypatch.setattr(htype, "inverse", lambda m: calls.append(m) or real_inverse(m))
    assert is_htype(ms)
    for a in range(8):
        sigma_automorphism(ms, unit_z(ms, a))
    assert len(calls) == 1


def test_probe_and_transfer_read_the_cached_gram_v_inverse(monkeypatch, tmp_path, capsys):
    # the probe's commutant reuses the J maps' gramV^{-1}; the transfer inverts
    # gramV_1 once for its J maps and M, then gramZ_1 for M, and never gramV_2:
    # an ok transfer proves the second metric H-type without its J maps
    real_inverse, calls = htype.inverse, []
    monkeypatch.setattr(htype, "inverse", lambda m: calls.append(m) or real_inverse(m))
    ms = fleet_member("hp11H")
    path = str(tmp_path / "hp11H.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    assert cli.main(["probe-irreducible", path]) == 1
    assert calls == [ms.gram_v]
    ms = fleet_member("h1H")
    path, gram2 = str(tmp_path / "h1H.json"), str(tmp_path / "gram2.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    nilalg.save(gram2, ms.algebra, ms.gram_v.scale(4), ms.gram_z.scale(16))
    calls.clear()
    assert cli.main(["transfer", path, "--gram2", gram2]) == 0
    assert calls == [ms.gram_v, ms.gram_z]
    capsys.readouterr()


def _dense_j_maps(ms):
    """Reference: J_a = -gramV^{-1} S_a with S_a[i][j] = <[e_i, e_j], z_a>, entry by entry."""
    alg, n = ms.algebra, ms.algebra.dim_v
    ginv = inverse(ms.gram_v)
    return [ginv * Matrix.from_rows(
        [[-ms.ip_z(alg.bracket_basis(i, j), unit_z(ms, a)) for j in range(n)]
         for i in range(n)]) for a in range(alg.dim_z)]


def test_clifford_checks_rational_metrics_exactly():
    alg = make_h(Tag.H, 1).algebra
    assert not is_htype(MetricStructure(alg, Matrix.identity(8), Matrix.identity(4).scale(2)))
    ms = fleet_member("h1H")
    pulled = pullback_metric(ms, dilation(alg, F(2, 3)).compose(
        sigma_automorphism(ms, [F(3, 5), F(4, 5), F(0), F(0)])))
    assert pulled.gram_v == Matrix.identity(8).scale(F(4, 9))
    assert is_htype(pulled)
    # the same algebra in the Z basis z'_c = sum_e P[e, c] z_e has an off-diagonal gramZ
    p = Matrix.from_rows([[1, F(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 2]])
    rebased = MetricStructure(
        TwoStepAlgebra.from_brackets("rebased", 8, 4, {
            ij: mat_vec(inverse(p), vec) for ij, vec in alg.brackets}),
        Matrix.identity(8), p.transpose() * p)
    assert is_htype(rebased)
    for m in (pulled, rebased, fleet_member("hp11H"), fleet_member("cliff5")):
        assert j_basis(m) == _dense_j_maps(m)


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


def _dense_block_brackets(center_dim, multiplicities):
    """Reference: each J_a copied into a dense total x total matrix, and
    [e_i, e_j]_a = J_a[j, i] read back out of it for every pair i < j."""
    mults = (multiplicities, 0) if isinstance(multiplicities, int) else multiplicities
    dim, gens = clifford_generators(center_dim)
    blocks = [gens] * mults[0] + [[-g for g in gens]] * mults[1]
    total = dim * len(blocks)
    js = []
    for a in range(center_dim):
        rows = [[F(0)] * total for _ in range(total)]
        for b, blk in enumerate(blocks):
            for i in range(dim):
                for j in range(dim):
                    rows[b * dim + i][b * dim + j] = blk[a][i, j]
        js.append(Matrix.from_rows(rows))
    brackets = {}
    for i in range(total):
        for j in range(i + 1, total):
            vec = [js[a][j, i] for a in range(center_dim)]
            if any(vec):
                brackets[(i, j)] = vec
    return TwoStepAlgebra.from_brackets("reference", total, center_dim, brackets).brackets


@pytest.mark.parametrize("center_dim, multiplicities",
                         [(m, 1) for m in range(1, 9)] + [(3, (2, 1)), (7, (1, 1)), (5, 2)])
def test_clifford_brackets_match_the_dense_block_construction(center_dim, multiplicities):
    alg = make_clifford_module_algebra(center_dim, multiplicities).algebra
    assert alg.brackets == _dense_block_brackets(center_dim, multiplicities)


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
        assert identify_family(ms.algebra).equivalent(want)


def test_identify_signature_up_to_swap():
    got = identify_family(make_h_prime(Tag.H, 1, 2).algebra)
    assert got.equivalent(HTypeFamilyId("hprime", Tag.H, (2, 1)))


def test_identify_volume_eigenspace_dimensions():
    ms = make_h_prime(Tag.H, 2, 1)
    js = j_basis(ms)
    omega = js[0] * js[1] * js[2]
    plus = len(nullspace(omega - Matrix.identity(12)))
    minus = len(nullspace(omega + Matrix.identity(12)))
    assert {plus, minus} == {8, 4}


def test_identify_outside_families():
    assert identify_family(fleet_member("cliff7x2").algebra).kind == "other"
    assert identify_family(fleet_member("cliff5").algebra).kind == "other"
    big_o_like = make_clifford_module_algebra(8, 2)     # dims (32, 8): not h_1(O)
    assert identify_family(big_o_like.algebra).kind == "other"


def test_identify_small_clifford_is_heisenberg():
    fid = identify_family(make_clifford_module_algebra(1, 1).algebra)
    assert fid.equivalent(HTypeFamilyId("hprime", Tag.C, (1, 0)))


def test_identify_intermediate_center_dims_are_other():
    assert identify_family(make_clifford_module_algebra(6, 1).algebra).kind == "other"
    assert identify_family(make_clifford_module_algebra(5, 2).algebra).kind == "other"


def test_identify_clifford_rebuilds_of_families():
    # module data determines the algebra: these constructions land back
    # in the families even though they never went through make_h/make_h_prime
    fid = identify_family(make_clifford_module_algebra(4, 2).algebra)
    assert fid.equivalent(HTypeFamilyId("h", Tag.H, (2,)))
    fid = identify_family(make_clifford_module_algebra(2, 2).algebra)
    assert fid.equivalent(HTypeFamilyId("h", Tag.C, (2,)))
    fid = identify_family(make_clifford_module_algebra(7, (1, 0)).algebra)
    assert fid.equivalent(HTypeFamilyId("hprime", Tag.O, (1, 0)))
    fid = identify_family(make_clifford_module_algebra(3, (2, 1)).algebra)
    assert fid.equivalent(HTypeFamilyId("hprime", Tag.H, (2, 1)))


def test_identify_rejects_non_htype():
    with pytest.raises(ValueError):
        identify_family(free_two_step(3))


CANONICAL_NAMES = {"h1C": "h_1(C)", "h1H": "h_1(H)", "h1O": "h_1(O)", "hp10C": "h'_1,0(C)",
                   "hp10H": "h'_1,0(H)", "hp11H": "h'_1,1(H)", "hp21H": "h'_2,1(H)",
                   "hp10O": "h'_1,0(O)", "cliff5": "other", "cliff7x2": "other"}


@pytest.mark.parametrize("key", FLEET)
def test_identify_names_the_fleet_in_random_rational_bases_without_a_metric(key):
    # V rebased by rebase_v and Z mixed by mix_z: neither change is orthogonal, and the
    # algebra alone goes in
    ms = fleet_member(key)
    assert str(identify_family(ms.algebra)) == CANONICAL_NAMES[key]
    for seed in (1, 2):
        alg = mix_z(rebase_v(ms, random_thirds(ms.algebra.dim_v - 1, seed)).algebra, seed)
        assert str(identify_family(alg)) == CANONICAL_NAMES[key]


@pytest.mark.parametrize("p, q", [(p, q) for p in range(4) for q in range(4 - p) if p + q])
def test_pencil_inertia_is_the_split_of_the_volume_element(monkeypatch, p, q):
    # the metric route as the oracle: the +1 and -1 eigenspaces of J_1 J_2 J_3 on the
    # gramZ-orthonormal Z basis, in the canonical V basis and a skew one
    seen = []
    monkeypatch.setattr(htype, "inertia", lambda s: seen.append(inertia(s)) or seen[-1])
    ms = make_h_prime(Tag.H, p, q)
    n = ms.algebra.dim_v
    for moved in (ms, rebase_v(ms, random_thirds(n - 1, 3))):
        assert identify_family(moved.algebra).equivalent(HTypeFamilyId("hprime", Tag.H, (p, q)))
        js = j_basis(moved)
        omega = js[0] * js[1] * js[2]
        split = [len(nullspace(omega - Matrix.identity(n).scale(s))) for s in (1, -1)]
        assert sum(split) == n and sorted(seen.pop()) == sorted(split) == sorted([4 * p, 4 * q])


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
    x, y = [1, 2], [-1, 3]
    jx, jy = mat_vec(gm.map_v, x), mat_vec(gm.map_v, y)
    assert pair_loop_bracket(alg, jx, jy) == pair_loop_bracket(alg, x, y)


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


def _fraction_sigma(ms, z):
    """Reference: sigma_z from the Fraction J maps, J_z = sum_a z_a J_a and
    2 z (gramZ z)^t - Id on Z, with no verification."""
    n, dz = ms.algebra.dim_v, ms.algebra.dim_z
    map_v = sum((j.scale(c) for c, j in zip(z, j_basis(ms)) if c), Matrix.zeros(n, n))
    gz_z = mat_vec(ms.gram_z, z)
    return GradedMap(map_v, Matrix.from_rows(
        [[2 * z[i] * gz_z[j] - (1 if i == j else 0) for j in range(dz)] for i in range(dz)]))


@pytest.mark.parametrize("key", ["h1H", "hp11H", "cliff5", "hp11H-rebased"])
def test_sigma_on_a_dilated_metric_matches_the_fraction_formula(key):
    # the pullback by the dilation t has gramZ = t^4 gramZ, so z is a gramZ-unit
    # vector of denominator t^2 and J_z has entries over a new denominator
    ms = fleet_member(key.split("-")[0])
    if key.endswith("rebased"):
        ms = rebase_v(ms, random_thirds(ms.algebra.dim_v - 1, 2))
    t = F(3, 2)
    pulled = pullback_metric(ms, dilation(ms.algebra, t))
    assert pulled.gram_z == ms.gram_z.scale(t ** 4)
    dz = ms.algebra.dim_z
    tilted = [F(3, 5), F(4, 5)] + [F(0)] * (dz - 2)
    for z in (unit_z(ms, 0), unit_z(ms, dz - 1), tilted):
        z = [c / (t * t) for c in z]
        gm = sigma_automorphism(pulled, z)
        assert gm == _fraction_sigma(pulled, z)
        assert jz(pulled, z) == gm.map_v
        assert is_isometry(pulled, gm)


def _pair_loop_violation(alg, gm):
    """Reference: the first pair i < j whose image columns bracket wrongly."""
    cols = gm.map_v.transpose().data
    for i in range(alg.dim_v):
        for j in range(i + 1, alg.dim_v):
            got = pair_loop_bracket(alg, cols[i], cols[j])
            if tuple(got) != mat_vec(gm.map_z, alg.bracket_basis(i, j)):
                return (i, j)
    return None


def _bent_sigma_maps(ms, key):
    """(sigma, bent) for the sigma map of each Z basis vector: bent holds its copies with
    one entry of the V block, then one of the Z block, moved by 1/3 at positions drawn
    from random.Random(key)."""
    rng, out = random.Random(key), []
    for a in range(ms.algebra.dim_z):
        sigma = sigma_automorphism(ms, unit_z(ms, a))
        bent = []
        for on_v in (True, False):
            rows = (sigma.map_v if on_v else sigma.map_z).to_rows()
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            rows[i][j] += F(1, 3)
            moved = Matrix.from_rows(rows)
            bent.append(GradedMap(moved, sigma.map_z) if on_v else GradedMap(sigma.map_v, moved))
        out.append((sigma, bent))
    return out


@pytest.mark.parametrize("key", ["h1O", "hp11H", "cliff7x2"])
def test_first_bracket_violation_matches_pair_loop(key):
    ms = fleet_member(key)
    alg = ms.algebra
    for sigma, bent in _bent_sigma_maps(ms, key):
        assert htype._first_bracket_violation(alg, sigma) is None
        for gm in bent:
            want = _pair_loop_violation(alg, gm)
            assert want is not None
            assert htype._first_bracket_violation(alg, gm) == want


@pytest.mark.parametrize("key", ["h1O", "hp11H", "cliff7x2", "hp11H.vbasis"])
def test_bracket_defects_match_the_reference(monkeypatch, key):
    # the sigma maps, their 1/3-bent copies and the dilation by 2/3 (Fraction entries);
    # "hp11H.vbasis" is h'_{1,1}(H) in a V basis whose gramV is not diagonal
    ms = (rebase_v(fleet_member("hp11H"), random_thirds(7, 3)) if key == "hp11H.vbasis"
          else fleet_member(key))
    alg, dil = ms.algebra, dilation(ms.algebra, F(2, 3))
    pairs = _bent_sigma_maps(ms, key)
    sigmas = [sigma for sigma, _ in pairs]
    maps = [dil] + [gm for sigma, bent in pairs for gm in [sigma] + bent]
    got = [htype._bracket_defects(alg, gm) for gm in maps]
    assert got == [reference_bracket_defects(alg, gm) for gm in maps]
    assert all(r == sorted(r) and all(x for _, x in r) for _, dcs in got for dc in dcs for r in dc)
    # transfer's report on each map, and transfers to the pullbacks by the dilation and the
    # sigma maps, read the same fields from the reference
    targets = [pullback_metric(ms, gm) for gm in [dil] + sigmas]

    def reports():
        return ([htype._residuals(ms, ms, gm, F(1)) for gm in maps],
                [transfer_operator(ms, t) for t in targets])

    want = reports()
    assert all(rep.ok for _, rep in want[1])
    monkeypatch.setattr(htype, "_bracket_defects", reference_bracket_defects)
    assert reports() == want


def _pair_loop_residual(alg, pv, pz):
    """Reference: max |[P e_i, P e_j] - pz [e_i, e_j]| over the pairs i < j."""
    cols = pv.transpose().data
    return max((abs(a - b) for i in range(alg.dim_v) for j in range(i + 1, alg.dim_v)
                for a, b in zip(pair_loop_bracket(alg, cols[i], cols[j]),
                                mat_vec(pz, alg.bracket_basis(i, j)))), default=F(0))


@pytest.mark.parametrize("key", ["h1H", "hp11H", "cliff7x2"])
def test_exact_transfer_residual_matches_pair_loop(key):
    ms = fleet_member(key)
    alg, rng = ms.algebra, random.Random(key)
    dil = dilation(alg, F(3, 2))
    pv, pz = dil.map_v, dil.map_z
    lam = pz[0, 0]
    assert htype._residuals(ms, ms, GradedMap(pv, pz), lam * lam)[0] == 0
    for _ in range(4):
        rows = pv.to_rows()
        rows[rng.randrange(alg.dim_v)][rng.randrange(alg.dim_v)] += F(rng.randint(1, 5), 7)
        bent = Matrix.from_rows(rows)
        residual = htype._residuals(ms, ms, GradedMap(bent, pz), lam * lam)[0]
        want = _pair_loop_residual(alg, bent, pz)
        assert want > 0 and residual == want


# ---------------------------------------------------------------------------
# swap automorphisms
# ---------------------------------------------------------------------------

def _basis_vectors(n, idxs):
    return [[F(1 if i == k else 0) for i in range(n)] for k in idxs]


def test_swap_on_h2C_coordinate_blocks(monkeypatch):
    # in the Z basis 2 z_a (gramZ = 4 Id) no basis vector is a gramZ unit, so
    # the swap has no sigma letter; it needs none, and builds none
    calls = []
    sigma = htype.sigma_automorphism
    monkeypatch.setattr(htype, "sigma_automorphism",
                        lambda *args: calls.append(args) or sigma(*args))
    n = 8
    v1 = _basis_vectors(n, [0, 1, 4, 5])      # slot 0 of the a and b blocks
    v2 = _basis_vectors(n, [2, 3, 6, 7])      # slot 1
    perm = {0: 2, 1: 3, 4: 6, 5: 7, 2: 0, 3: 1, 6: 4, 7: 5}
    tv = Matrix.from_rows([[F(1 if perm[j] == i else 0) for j in range(n)]
                           for i in range(n)])
    for ms in (make_h(Tag.C, 2), rebase_z(make_h(Tag.C, 2), [], 2)):
        res = build_swap_automorphism(ms, v1, v2, GradedMap(tv, Matrix.identity(2)))
        assert res and res.corrected_word == () and calls == []
        assert is_graded_automorphism(ms.algebra, res.automorphism)
        assert is_isometry(ms, res.automorphism)


def test_swap_identity_case():
    ms = make_h(Tag.C, 2)
    v1 = _basis_vectors(8, [0, 1, 4, 5])
    res = build_swap_automorphism(ms, v1, v1, GradedMap(Matrix.identity(8),
                                                        Matrix.identity(ms.algebra.dim_z)))
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


@pytest.mark.parametrize("key,v1,v2,match", [
    # the columns e_0 + e_2, ... meet v1 at a nonzero inner product
    ("h2C", [[0], [1], [4], [5]], [[0, 2], [1, 3], [4, 6], [5, 7]], "orthogonal"),
    # J maps the a block of h_2(C) onto its b block
    ("h2C", [[0], [1], [2], [3]], [[4], [5], [6], [7]], "invariant under the Clifford action"),
    # the conjugation swap with +Id on Z sends each bracket to minus its image
    ("hp11H", [[0], [1], [2], [3]], [[4], [5], [6], [7]], "homomorphism"),
], ids=["not-orthogonal", "not-invariant", "not-homomorphic"])
def test_swap_rejects_blocks_and_theta_that_do_not_qualify(key, v1, v2, match):
    if key == "h2C":
        ms = make_h(Tag.C, 2)
        perm = {0: 2, 1: 3, 4: 6, 5: 7, 2: 0, 3: 1, 6: 4, 7: 5}
        theta = GradedMap(Matrix.from_rows([[F(int(perm[j] == i)) for j in range(8)]
                                            for i in range(8)]), Matrix.identity(2))
    else:
        ms = fleet_member(key)
        theta = GradedMap(quaternion_conj_swap(ms).map_v, Matrix.identity(3))
    b1, b2 = ([[F(int(i in c)) for i in range(8)] for c in v] for v in (v1, v2))
    with pytest.raises(ValueError, match=match):
        build_swap_automorphism(ms, b1, b2, theta)


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


def _conjugation(u):
    """c_u: x -> u x conj(u) / |u|^2 on both V blocks of h'_{1,1}(H) and on Z = Im H."""
    q = (left_mult_matrix(Tag.H, u) * right_mult_matrix(Tag.H, fconj(u))).scale(
        1 / norm_sq(u))
    v = [[q[i % 4, j % 4] if i // 4 == j // 4 else 0 for j in range(8)] for i in range(8)]
    return GradedMap(Matrix.from_rows(v), Matrix.from_rows([r[1:] for r in q.to_rows()[1:]]))


@pytest.mark.parametrize("u,word,tried,pair", [
    ([F(3, 5), F(4, 5), 0, 0], (1,), 3, None),
    ([F(1, 3), F(2, 3), F(2, 3), 0], (2,), 4, None),
    ([F(1, 2)] * 4, (), 13, (4, 5)),
])
def test_swap_searches_sigma_words(u, word, tried, pair):
    # theta = quaternion_conj_swap o c_u maps v1 isometrically onto v2 but extends
    # to an automorphism only after a sigma word, or, for u = (1 + i + j + k) / 2,
    # after none of the 13 words of up to two letters
    ms = fleet_member("hp11H")
    v1 = _basis_vectors(8, [0, 1, 2, 3])
    v2 = _basis_vectors(8, [4, 5, 6, 7])
    theta = quaternion_conj_swap(ms).compose(_conjugation(element(Tag.H, u)))
    res = build_swap_automorphism(ms, v1, v2, theta)
    assert (res.corrected_word, res.candidates_tried, res.violating_pair) == (word, tried, pair)
    assert bool(res) == (pair is None)
    if res:
        assert is_graded_automorphism(ms.algebra, res.automorphism)
        assert is_isometry(ms, res.automorphism)


# ---------------------------------------------------------------------------
# irreducibility probe
# ---------------------------------------------------------------------------

def _dense_scalar_probe(ms, gens=None):
    """Reference (kind, invariant subspace) of the probe, with the dense scalar test
    S == (tr S / n) I in place of the degree of S's minimal polynomial."""
    maps = ([(ms.int_j_maps[0], m) for m in ms.int_j_maps[1]] if gens is None
            else [scaled_sparse(g.map_v) for g in gens])
    sym_comm, n = htype._symmetric_commutant(maps, ms), ms.algebra.dim_v
    if len(sym_comm) == 1:
        return "irreducible", None
    for s in sym_comm:
        if s == Matrix.identity(n).scale(F(sum(s[i, i] for i in range(n)), n)):
            continue
        roots = rational_roots(minimal_polynomial(s))
        if roots:
            return "reducible", tuple(nullspace(s - Matrix.identity(n).scale(roots[0])))
    return "reducible", None


def test_probe_complex_heisenberg_irreducible():
    ms = make_h_prime(Tag.C, 1, 0)
    gens = [sigma_automorphism(ms, [F(1)])]
    assert irreducibility_probe(ms, gens).kind == "irreducible"


def test_probe_module_blocks_witness():
    ms = fleet_member("cliff7x2")
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(7)]
    verdict = irreducibility_probe(ms, gens)
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
    verdict = irreducibility_probe(ms, gens + [res.automorphism])
    assert (verdict.kind, verdict.invariant_subspace) == _dense_scalar_probe(
        ms, gens + [res.automorphism])
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
    verdict = irreducibility_probe(ms, gens)
    assert verdict.kind == "reducible"
    assert len(verdict.invariant_subspace) == 4
    v1 = _basis_vectors(8, [0, 1, 2, 3])
    v2 = _basis_vectors(8, [4, 5, 6, 7])
    res = build_swap_automorphism(ms, v1, v2, quaternion_conj_swap(ms))
    assert res
    verdict2 = irreducibility_probe(ms, gens + [res.automorphism])
    assert verdict2.kind == "irreducible"
    assert _dense_scalar_probe(ms, gens + [res.automorphism]) == ("irreducible", None)


def _full_symmetric_commutant(maps, gram):
    """Reference: the invariant symmetric forms T, T g = (gram g gram^{-1}) T,
    with all n^2 entries as unknowns plus the n(n-1)/2 symmetry rows."""
    n = gram.rows
    rows = []
    for g in maps:
        h = gram * g * inverse(gram)
        for i in range(n):
            for j in range(n):
                row = [F(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += g[k, j]
                    row[k * n + j] -= h[i, k]
                rows.append(row)
    for i in range(n):
        for j in range(i + 1, n):
            row = [F(0)] * (n * n)
            row[i * n + j], row[j * n + i] = F(1), F(-1)
            rows.append(row)
    return [Matrix.from_rows([[v[i * n + j] for j in range(n)] for i in range(n)])
            for v in nullspace(Matrix.from_rows(rows))]


@pytest.mark.parametrize("key", ["h1C", "hp11H", "hp21H", "h1H", "hp11H-rebased",
                                 "cliff7x2-rebased", "h1H-rebased"])
def test_symmetric_commutant_matches_full_system(key):
    base = key.split("-")[0]
    ms = fleet_member(base)
    if key.endswith("rebased"):
        ms = rebase_v(ms, random_thirds(ms.algebra.dim_v - 1, 1))
    n, gram = ms.algebra.dim_v, ms.gram_v
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(ms.algebra.dim_z)]
    if base == "h1H":
        # a rational generator that is not an isometry: scaled rows on both
        # sides, and in a skew basis g and gram g gram^{-1} differ in denominator
        rng = random.Random(3)
        gens = gens[:1] + [conformal_automorphism_h1H(
            random_quaternion(rng), random_quaternion(rng), random_quaternion(rng))]
    maps = [g.map_v for g in gens]
    for part in (maps, maps[:1]):  # one generator leaves a large commutant
        basis = htype._symmetric_commutant([scaled_sparse(g) for g in part], ms)
        for s in basis:
            assert (gram * s).is_symmetric() and all(s * g == g * s for g in part)
        assert [gram * s for s in basis] == _full_symmetric_commutant(part, gram)


@pytest.mark.parametrize("rebased", [False, True])
def test_symmetric_commutant_emits_one_row_per_pair_for_skew_maps(monkeypatch, rebased):
    # the sigma V blocks of h'_{1,1}(H) have gram g skew, so each adds the n(n+1)/2
    # rows i <= j; the swap automorphism's gram g is symmetric, so it adds all n^2
    ms = fleet_member("hp11H")
    swap = build_swap_automorphism(ms, _basis_vectors(8, [0, 1, 2, 3]),
                                   _basis_vectors(8, [4, 5, 6, 7]),
                                   quaternion_conj_swap(ms)).automorphism.map_v
    if rebased:
        thirds = random_thirds(7, 1)
        t = Matrix.from_rows([[int(i == j) + (thirds[i] if j == i + 1 else 0)
                               for j in range(8)] for i in range(8)])
        ms, swap = rebase_v(ms, thirds), inverse(t) * swap * t
    n, gram = 8, ms.gram_v
    maps = [sigma_automorphism(ms, unit_z(ms, a)).map_v for a in range(3)] + [swap]
    rows = [n * (n + 1) // 2 if (gram * g + (gram * g).transpose()).is_zero() else n * n
            for g in maps]
    assert rows == [36, 36, 36, 64]
    real_kernel, counts = htype.nullspace_int_rows, []
    monkeypatch.setattr(htype, "nullspace_int_rows",
                        lambda rows, ncols: counts.append(len(rows)) or real_kernel(rows, ncols))
    for part in (slice(None), slice(1), slice(3, None), slice(None, None, -1)):
        counts.clear()
        basis = htype._symmetric_commutant([scaled_sparse(g) for g in maps[part]], ms)
        assert counts == [sum(rows[part])]
        assert [gram * s for s in basis] == _full_symmetric_commutant(maps[part], gram)


@pytest.mark.parametrize("key,dim", [("cliff7x2", 8), ("hp11H", 4), ("hp21H", 8)])
def test_probe_splits_reducible_members_in_a_skew_basis(key, dim):
    # T = I + N with random thirds on the superdiagonal is not orthogonal for
    # gramV; the reflections are gramV-isometries, not orthogonal matrices
    # the canonical basis first; every verdict matches the dense scalar test's
    ms = fleet_member(key)
    for seed in [None] + list(range(4)):
        rebased = ms if seed is None else rebase_v(ms, random_thirds(ms.algebra.dim_v - 1, seed))
        gens = [sigma_automorphism(rebased, unit_z(rebased, a))
                for a in range(rebased.algebra.dim_z)]
        verdict = irreducibility_probe(rebased, gens)
        assert verdict.kind == "reducible" and len(verdict.invariant_subspace) == dim
        assert irreducibility_probe(rebased) == verdict
        assert (verdict.kind, verdict.invariant_subspace) == _dense_scalar_probe(rebased, gens)
        assert _dense_scalar_probe(rebased) == _dense_scalar_probe(rebased, gens)


def test_probe_ignores_seed_and_trials():
    ms = fleet_member("cliff7x2")
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(7)]
    verdict = irreducibility_probe(ms, gens)
    for seed in range(4):
        assert irreducibility_probe(ms, gens, seed=seed) == verdict


def test_probe_decides_reducible_without_a_rational_eigenvalue():
    # C = companion matrix of x^4 + 1 (e1 -> e2 -> e3 -> e4 -> -e1) is orthogonal;
    # its symmetric commutant is span{I, C + C^-1}, and every non-scalar element
    # a I + b (C + C^-1) has the irrational eigenvalues a +- b sqrt(2)
    alg = TwoStepAlgebra.from_brackets("abelian4", 4, 0, {})
    ms = MetricStructure(alg, Matrix.identity(4), Matrix.identity(0))
    rows = [[F(0)] * 4 for _ in range(4)]
    for i in range(3):
        rows[i + 1][i] = F(1)
    rows[0][3] = F(-1)
    c = GradedMap(Matrix.from_rows(rows), Matrix.identity(0))
    assert len(htype._symmetric_commutant([scaled_sparse(c.map_v)], ms)) == 2
    verdict = irreducibility_probe(ms, [c])
    assert verdict.kind == "reducible" and verdict.invariant_subspace is None
    assert "dimension 2" in verdict.detail and "no element" in verdict.detail


def test_cli_probe_runs_no_automorphism_check(monkeypatch, tmp_path):
    # the verb acts with the J maps that is_htype certifies: no sigma map is built
    ms = fleet_member("cliff7x2")
    path = str(tmp_path / "cliff7x2.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    calls = []
    defects = htype._bracket_defects
    monkeypatch.setattr(htype, "_bracket_defects",
                        lambda alg, gm: calls.append(gm) or defects(alg, gm))
    assert cli.main(["probe-irreducible", path, "--json"]) == 1
    assert calls == []


def test_probe_checks_generators_from_elsewhere(monkeypatch):
    # every given generator is checked, sigma maps included
    ms = make_h_prime(Tag.H, 1, 1)
    sigma = sigma_automorphism(ms, unit_z(ms, 0))
    calls = []
    defects = htype._bracket_defects
    monkeypatch.setattr(htype, "_bracket_defects",
                        lambda alg, gm: calls.append(gm) or defects(alg, gm))
    irreducibility_probe(ms, [sigma, quaternion_conj_swap(ms)])
    assert calls == [sigma, quaternion_conj_swap(ms)]


def test_probe_rejects_a_dilation_as_not_an_isometry():
    ms = fleet_member("h1H")
    gens = [sigma_automorphism(ms, unit_z(ms, 0)), dilation(ms.algebra, 2)]
    with pytest.raises(ValueError, match="not an isometry"):
        irreducibility_probe(ms, gens)


def test_probe_witness_check_rejects_a_vector_outside_the_eigenspace(monkeypatch):
    # the invariance certificate (S - r I) g w = 0 must fail on a basis that
    # strays from ker(S - r I)
    ms = fleet_member("hp11H")
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(3)]
    kernel = htype.nullspace
    monkeypatch.setattr(htype, "nullspace",
                        lambda m: kernel(m) + [tuple(F(1) for _ in range(m.cols))])
    with pytest.raises(ArithmeticError, match="not invariant"):
        irreducibility_probe(ms, gens)
    with pytest.raises(ArithmeticError, match="not invariant"):
        irreducibility_probe(ms)


@pytest.mark.parametrize("key", ["hp11H", "hp21H", "cliff7x2"])
def test_probe_clears_the_eigenspace_basis_to_one_common_denominator(monkeypatch, key):
    # each basis vector scaled by its own non-integral factor: clearing W row by
    # row would rescale its coordinates unequally and leave the eigenspace (in a
    # skew V basis, where a coordinate mixes several basis vectors)
    ms = rebase_v(fleet_member(key), random_thirds(fleet_member(key).algebra.dim_v - 1, 1))
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(ms.algebra.dim_z)]
    want = [irreducibility_probe(ms, gens), irreducibility_probe(ms)]
    kernel = htype.nullspace
    monkeypatch.setattr(htype, "nullspace", lambda m: [
        tuple(x * F(i + 1, 2 * i + 3) for x in v) for i, v in enumerate(kernel(m))])
    for verdict, before in zip([irreducibility_probe(ms, gens), irreducibility_probe(ms)], want):
        assert verdict.kind == before.kind == "reducible"
        assert len(verdict.invariant_subspace) == len(before.invariant_subspace)
        assert verdict.invariant_subspace != before.invariant_subspace


def test_probe_acts_with_the_integer_j_maps_alone():
    # the verb never forms the dense Matrix views of the J maps
    for ms in (make_h_prime(Tag.H, 1, 1), make_h(Tag.O, 1), make_clifford_module_algebra(7, 2)):
        irreducibility_probe(ms)
        assert "int_j_maps" in ms.__dict__ and "j_maps" not in ms.__dict__


def test_probe_rejects_a_generator_that_is_not_an_automorphism():
    ms = fleet_member("h1H")
    not_auto = GradedMap(Matrix.diagonal([2] + [1] * 7), Matrix.identity(4))
    assert not is_graded_automorphism(ms.algebra, not_auto)
    with pytest.raises(ValueError, match="automorphism verification"):
        irreducibility_probe(ms, [sigma_automorphism(ms, unit_z(ms, 0)), not_auto])


@pytest.mark.parametrize("key", ["h1H", "hp11H", "cliff7x2"])
def test_is_isometry_matches_the_fraction_products(key):
    ms = rebase_v(fleet_member(key), random_thirds(fleet_member(key).algebra.dim_v - 1, 1))
    n, dz = ms.algebra.dim_v, ms.algebra.dim_z
    rng = random.Random(5)
    skew = GradedMap(Matrix.from_rows([[F(rng.randint(-3, 3), 3) + (i == j) for j in range(n)]
                                       for i in range(n)]), Matrix.identity(dz))
    maps = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(dz)]
    maps += [dilation(ms.algebra, F(1, 2)), dilation(ms.algebra, -1), skew,
             GradedMap(maps[0].map_v, maps[0].map_z.scale(2))]
    for gm in maps:
        want = (gm.map_v.transpose() * ms.gram_v * gm.map_v == ms.gram_v
                and gm.map_z.transpose() * ms.gram_z * gm.map_z == ms.gram_z)
        assert is_isometry(ms, gm) == want
    assert [is_isometry(ms, gm) for gm in maps[dz:]] == [False, True, False, False]


def _in_span(basis, v):
    """Reference: v is a combination of the basis, by `solve`."""
    if not basis:
        return not any(v)
    return solve(Matrix.from_rows([[b[i] for b in basis] for i in range(len(v))]), v) is not None


def test_span_dim_decides_containment_like_solve():
    # the swap decides "m maps span(basis_in) into span(basis_out)" by whether
    # the images raise the dimension of the span
    rng = random.Random(11)
    span_dim = htype._span_dim
    for _ in range(40):
        n = rng.randint(1, 5)
        m = Matrix.from_rows([[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
                              for _ in range(n)])
        vecs = [[F(rng.randint(-1, 1)) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        basis_in, basis_out = vecs[:rng.randint(0, len(vecs))], vecs
        want = all(_in_span(basis_out, mat_vec(m, b)) for b in basis_in)
        images = [list(mat_vec(m, b)) for b in basis_in]
        assert (span_dim(basis_out + images) == span_dim(basis_out)) == want
        assert [span_dim(basis_out + [v]) == span_dim(basis_out) for v in vecs + [[F(1)] * n]] \
            == [_in_span(basis_out, v) for v in vecs + [[F(1)] * n]]


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
    assert rep == TransferReport(128, True, F(4), F(16), 0.0, 0.0, 0.0, 0.0, True)
    assert type(rep.lam) is type(rep.lam_sq) is F
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
    assert op is None and rep == TransferReport(
        128, False, "155.942823055439136807618591430867419576031", F(3112725, 128),
        0.0, 0.0, 0.0, 0.0, True)


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
    assert op is None and not rep.exact           # sqrt(3) scale cannot be rational
    assert rep.ok
    assert rep.lam == 3 and rep.lam_sq == 9       # lambda itself is rational


def test_transfer_requires_htype_hypothesis():
    ms = make_h(Tag.R, 1)
    bad = MetricStructure(ms.algebra, Matrix.diagonal([1, 4]), Matrix.identity(1))
    with pytest.raises(ValueError, match="H-type"):
        transfer_operator(ms, bad, 128)
    with pytest.raises(ValueError, match="H-type"):
        transfer_operator(bad, ms, 128)


def h1c_z3():
    """h_1(C) in the Z basis (z_0, 3 z_0 + z_1): gramZ = [[1, 3], [3, 10]], still H-type."""
    return rebase_z(fleet_member("h1C"), [(3, 1)])


def test_transfer_rejects_a_second_metric_whose_m_has_a_negative_corner():
    # M|_Z = gramZ_1^{-1} [[1, 4], [4, 17]] = [[-2, -11], [1, 5]]: lambda^2 would be
    # read as -2, so lambda may only be expanded after the second metric is checked
    ms1 = h1c_z3()
    ms2 = MetricStructure(ms1.algebra, Matrix.identity(4), Matrix.from_rows([[1, 4], [4, 17]]))
    assert is_htype(ms1) and not is_htype(ms2)
    assert (inverse(ms1.gram_z) * ms2.gram_z)[0, 0] == -2
    with pytest.raises(ValueError) as exc:
        transfer_operator(ms1, ms2)
    assert str(exc.value) == "second metric is not H-type; the transfer operator is undefined"


def _positive_definite(n):
    """L L^t for a lower triangular integer L with a positive diagonal."""
    def gram(xs):
        low = Matrix.from_rows([[abs(xs[i * n + j]) + 1 if i == j else xs[i * n + j] if j < i
                                 else 0 for j in range(n)] for i in range(n)])
        return low * low.transpose()
    return st.lists(st.integers(-5, 5), min_size=n * n, max_size=n * n).map(gram)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["h1C", "h1C-z3", "hp10H", "h1H"]), st.data())
def test_transfer_rejects_every_metric_that_is_not_htype(key, data):
    # the second metric is checked only after the report, the first before anything
    ms1 = h1c_z3() if key == "h1C-z3" else fleet_member(key)
    alg = ms1.algebra
    ms2 = MetricStructure(alg, data.draw(_positive_definite(alg.dim_v)),
                          data.draw(_positive_definite(alg.dim_z)))
    assume(not is_htype(ms2))
    for first, second, which in ((ms1, ms2, "second"), (ms2, ms1, "first")):
        with pytest.raises(ValueError) as exc:
            transfer_operator(first, second)
        assert str(exc.value) == f"{which} metric is not H-type; the transfer operator is undefined"


def test_ok_transfer_never_builds_the_second_metrics_j_maps():
    ms1 = fleet_member("h1H")
    rational = _rational_transfer_pairs(count=6)
    for ms2 in transfer_pairs(count=6) + rational + [pullback_metric(ms1, dilation(ms1.algebra, 2))]:
        _, rep = transfer_operator(ms1, ms2)
        assert rep.ok and "int_j_maps" not in ms2.__dict__ and "clifford" not in ms2.__dict__
        assert is_htype(ms2)


def _lagrange_sqrt(m):
    """Reference: sum_i sqrt(mu_i) prod_{j != i} (M - mu_j) / (mu_i - mu_j), the
    spectral projectors of the diagonalizable M, for rational square roots mu_i."""
    roots = rational_roots(minimal_polynomial(m))
    ident, p = Matrix.identity(m.rows), Matrix.zeros(m.rows, m.rows)
    for mu in roots:
        proj = ident
        for nu in roots:
            if nu != mu:
                proj = proj * (m - ident.scale(nu)).scale(1 / (mu - nu))
        p = p + proj.scale(rational_sqrt(mu))
    return p


def _conjugated(diag, seed):
    """(M, gram): M = B D B^{-1} for a rational non-orthogonal B, and gram =
    (B B^t)^{-1}, for which gram M = B^{-t} D B^{-1} is symmetric."""
    n, rng = len(diag), random.Random(seed)
    low = Matrix.from_rows([[F(rng.randint(-4, 4), rng.randint(1, 3)) if j < i else int(i == j)
                             for j in range(n)] for i in range(n)])
    up = Matrix.from_rows([[F(rng.randint(-4, 4), rng.randint(1, 3)) if j > i else int(i == j)
                            for j in range(n)] for i in range(n)])
    b = low * up
    m = b * Matrix.diagonal(diag) * inverse(b)
    return m, inverse(b * b.transpose())


@pytest.mark.parametrize("diag", [[F(9, 4)] * 5, [4, 4, F(1, 9), 4, F(1, 9)],
                                  [1, F(25, 16), 1, 49, F(25, 16), 49],
                                  [F(4, 9), 36, F(1, 100)]])
@pytest.mark.parametrize("seed", range(3))
def test_rational_sqrt_matches_the_lagrange_projectors(diag, seed):
    # one, two and three distinct eigenvalues: no product, one, two
    m, gram = _conjugated(diag, seed)
    assert (gram * m).is_symmetric() and (not m.is_symmetric() or len(set(diag)) == 1)
    assert len(rational_roots(minimal_polynomial(m))) == len(set(diag))
    p = htype._rational_positive_sqrt(m, gram)
    assert p == _lagrange_sqrt(m)
    assert p * p == m and (gram * p).is_symmetric()


@pytest.mark.parametrize("diag", [[4, 2, 4], [F(9, 4), -4, 1], [-1, -1]])
def test_rational_sqrt_rejects_eigenvalues_without_a_positive_rational_root(diag):
    m, gram = _conjugated(diag, 1)
    assert htype._rational_positive_sqrt(m, gram) is None


def test_rational_sqrt_rejects_a_minimal_polynomial_with_an_irrational_root():
    # x^2 - 2 on a plane, 4 on a line: symmetric, but sqrt(2) is no eigenvalue over Q
    m = Matrix.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 4]])
    gram = Matrix.diagonal([1, 2, 1])
    assert (gram * m).is_symmetric()
    assert htype._rational_positive_sqrt(m, gram) is None


def test_rational_sqrt_rejects_an_m_that_is_not_gram_self_adjoint():
    # the conjugated M has rational square-root eigenvalues and P P = M holds, so
    # only the check gram P = (gram P)^t turns it away under the identity gram
    m, gram = _conjugated([4, F(1, 9), 4], 2)
    p = _lagrange_sqrt(m)
    assert p * p == m and (gram * p).is_symmetric()
    assert not p.is_symmetric()
    assert htype._rational_positive_sqrt(m, Matrix.identity(3)) is None
    assert htype._rational_positive_sqrt(m, gram) == p


@pytest.mark.parametrize("exact", [True, False])
def test_transfer_takes_the_z_root_only_after_a_v_root(monkeypatch, exact):
    ms = fleet_member("h1H")
    rng = random.Random(23)
    gm = (dilation(ms.algebra, F(3, 2)) if exact else
          conformal_automorphism_h1H(random_quaternion(rng), random_quaternion(rng),
                                     random_quaternion(rng)))
    real_sqrt, calls = htype._rational_positive_sqrt, []
    monkeypatch.setattr(htype, "_rational_positive_sqrt",
                        lambda m, gram: calls.append(gram) or real_sqrt(m, gram))
    _, rep = transfer_operator(ms, pullback_metric(ms, gm))
    assert rep.ok and rep.exact == exact
    assert calls == ([ms.gram_v, ms.gram_z] if exact else [ms.gram_v])


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
    ms = fleet_member("h1H")
    ms2 = pullback_metric(ms, dilation(ms.algebra, 3))
    ratio_v = inverse(ms.gram_v) * ms2.gram_v
    ratio_z = inverse(ms.gram_z) * ms2.gram_z
    assert rational_roots(minimal_polynomial(ratio_v)) == [9]
    assert rational_roots(minimal_polynomial(ratio_z)) == [81]


def test_transfer_square_check_matches_pair_loop():
    # the irrational route reads its residuals off M = gram1^{-1} gram2: a bent
    # V block shows its bracket defect, a bent Z block its distance from a scalar
    ms1, ms2 = fleet_member("h1H"), transfer_pairs(count=1)[0]
    alg, rng = ms1.algebra, random.Random(11)
    mv = inverse(ms1.gram_v) * ms2.gram_v
    mz = inverse(ms1.gram_z) * ms2.gram_z
    op, rep = htype.transfer_operator(ms1, ms2, 128)
    lam_sq = rep.lam_sq
    residuals = htype._residuals(ms1, ms2, GradedMap(mv, mz), lam_sq)
    assert op is None and rep.ok and residuals == (0, 0, 0, 0)
    for _ in range(4):
        rows = mv.to_rows()
        rows[rng.randrange(8)][rng.randrange(8)] += F(rng.randint(1, 5), 7)
        bent = Matrix.from_rows(rows)
        residuals = htype._residuals(ms1, ms2, GradedMap(bent, mz), lam_sq)
        want = _pair_loop_residual(alg, bent, mz)
        assert want > 0 and residuals[0] == want
    rows = mz.to_rows()
    rows[1][2] += F(1, 7)
    rows[2][1] += F(1, 7)
    residuals = htype._residuals(ms1, ms2, GradedMap(mv, Matrix.from_rows(rows)), lam_sq)
    assert residuals[1] == F(1, 7)


def _rational_transfer_pairs(seed=7, count=12):
    """Second metrics on h_1(H) drawn as in `transfer_pairs`, but from quaternions
    whose squared norms are rational squares, so that P = M^{1/2} is rational."""
    ms1 = make_h(Tag.H, 1)
    squares = [element(Tag.H, [F(x) for x in q]) for q in
               ([1, 2, 2, 0], [2, 0, 0, 0], [1, 1, 1, 1], [0, 3, 4, 0], [F(3, 5), 0, F(4, 5), 0])]
    rng = random.Random(seed)
    out = []
    for trial in range(count):
        gm = conformal_automorphism_h1H(*(rng.choice(squares) for _ in range(3)))
        gm = gm.compose(dilation(ms1.algebra, F(rng.randint(1, 5), rng.randint(1, 3))))
        if trial % 3 == 0:
            gm = gm.compose(sigma_automorphism(ms1, unit_z(ms1, rng.randrange(4))))
        out.append(pullback_metric(ms1, gm))
    return out


def test_transfer_metric_residual_is_zero_by_construction():
    # the report carries residual_metric = 0 without computing it; the
    # computation it no longer makes, P^t gram1 P = gram2, is the oracle here
    ms1 = fleet_member("h1H")
    rational = _rational_transfer_pairs()
    for ms2 in transfer_pairs() + rational:
        op, rep = transfer_operator(ms1, ms2)
        assert rep.ok and rep.residual_metric == 0
        assert (op is not None) is rep.exact is any(ms2 is r for r in rational)
        if op is not None:
            assert op.map_v.transpose() * ms1.gram_v * op.map_v == ms2.gram_v
            assert op.map_z.transpose() * ms1.gram_z * op.map_z == ms2.gram_z


@pytest.mark.parametrize("precision", [64, 128, 4096])
def test_printed_lambda_brackets_the_square_root(precision):
    # x^2 <= lambda^2 < (x + ulp)^2 in exact arithmetic, with ulp <= 2^-precision
    ms1 = fleet_member("h1H")
    for ms2 in transfer_pairs():
        _, rep = transfer_operator(ms1, ms2, precision)
        assert rep.ok and rep.lam_sq == F(ms2.gram_z[0, 0], ms1.gram_z[0, 0])
        if isinstance(rep.lam, F):
            assert rep.lam * rep.lam == rep.lam_sq
            continue
        x, ulp = F(rep.lam), F(1, 10 ** len(rep.lam.split(".")[1]))
        assert ulp <= F(1, 2 ** precision) < 10 * ulp
        assert x * x <= rep.lam_sq < (x + ulp) ** 2


def test_transfer_precision_bounds():
    ms = fleet_member("h1H")
    for bad in (htype.MIN_PRECISION - 1, htype.MAX_PRECISION + 1):
        with pytest.raises(ValueError, match="precision"):
            transfer_operator(ms, ms, bad)
    for good in (htype.MIN_PRECISION, htype.MAX_PRECISION):
        assert transfer_operator(ms, ms, good)[1].ok


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
