import ast
import itertools
import json
import math
import random
from pathlib import Path
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (FLEET, INDEFINITE_DIMV4, NON_CLIFFORD_DIMV8, fleet_member, free_two_step,
                      mix_z, pair_loop_bracket, pencil_findings, random_thirds, rebase_v,
                      rebase_z, reference_anticommutator_scalar, reference_bracket_span,
                      split_quaternion_algebra, sturm_pencil)
from nilrad import nilalg
from nilrad.division import Tag, conj as fconj, mul as fmul, unit as funit
from nilrad.exactlin import Matrix, anticommutator_scalar, inverse, rank
from nilrad.htype import MetricStructure, make_h, make_h_prime
from nilrad.nilalg import (
    TwoStepAlgebra,
    is_nonsingular,
)


def heisenberg3():
    return TwoStepAlgebra.from_brackets("heis3", 2, 1, {(0, 1): [F(1)]})


def forms_bracket(alg, x, y):
    """Z coordinates of [x, y] read off the bracket forms: coordinate c is x^t B_c y."""
    d, forms = alg.bracket_forms
    return [F(sum(xi * s * y[j] for xi, row in zip(x, form) for j, s in row)) / d
            for form in forms]


def dense_form(alg, c):
    """B_c as a dense matrix, up to the common denominator of the bracket forms."""
    return Matrix.from_rows([[dict(r).get(j, 0) for j in range(alg.dim_v)]
                             for r in alg.bracket_forms[1][c]])


def clifford_form(alg):
    """The form q of the Clifford pencil of alg, or None when it is no Clifford pencil."""
    q, _ = nilalg._clifford_form(inverse(dense_form(alg, 0)), alg.bracket_forms[1])
    return q


@pytest.mark.parametrize("key", FLEET)
def test_anticommutator_scalar_on_the_fleet_maps_and_pencils(key):
    # every pair of the integer J maps M_a, and of the pencil rows C_b of `_clifford_form`,
    # whose rows carry their trace term as a repeated column
    ms = fleet_member(key)
    (d, maps), gz, alg = ms.int_j_maps, ms.gram_z, ms.algebra
    q, cs = nilalg._clifford_form(inverse(dense_form(alg, 0)), alg.bracket_forms[1])
    assert q is not None
    for group in (maps, cs):
        for x, y in itertools.product(group, repeat=2):
            got = anticommutator_scalar(x, y)
            assert got is not None and got == reference_anticommutator_scalar(x, y)
    assert all(anticommutator_scalar(maps[a], maps[b]) == -2 * gz[a, b] * d * d
               for a in range(len(maps)) for b in range(len(maps)))


def reference_ad_rank(alg, x):
    """rank(ad x) from the pair-loop reference, one column [x, e_j] per basis vector."""
    n = alg.dim_v
    return rank(Matrix.from_rows([pair_loop_bracket(alg, x, [int(i == j) for i in range(n)])
                                  for j in range(n)]))


@pytest.mark.parametrize("key", FLEET)
def test_bracket_forms_match_the_pair_loop(key):
    ms = fleet_member(key)
    moved = rebase_v(ms, random_thirds(ms.algebra.dim_v - 1, 3))
    n = ms.algebra.dim_v
    basis = [[int(i == j) for i in range(n)] for j in range(n)]
    for alg in (ms.algebra, moved.algebra, rebase_z(moved, [(1, 3)], 2).algebra):
        d, forms = alg.bracket_forms
        dense = [[[F(0)] * n for _ in range(n)] for _ in forms]
        for b, form in zip(dense, forms):
            for i, row in enumerate(form):
                for j, s in row:
                    b[i][j] += F(s, d)
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                assert [b[i][j] for b in dense] == pair_loop_bracket(alg, x, y)


def test_heisenberg_bracket_value():
    alg = make_h(Tag.R, 1).algebra
    assert alg.bracket_forms == (1, [[[(1, 1)], [(0, -1)]]])
    assert forms_bracket(alg, [1, 0], [0, 1]) == pair_loop_bracket(alg, [1, 0], [0, 1]) == [1]


def test_bracket_of_element_with_itself_vanishes():
    alg = make_h_prime(Tag.H, 1, 1).algebra
    rng = random.Random(0)
    for _ in range(10):
        x = [F(rng.randint(-4, 4)) for _ in range(alg.dim_v)]
        assert not any(forms_bracket(alg, x, x))


def test_octonion_bracket_against_table():
    # [e1, e2] in O + Im O must equal e1 conj(e2) - e2 conj(e1), computed
    # independently through the division-algebra product
    alg = make_h_prime(Tag.O, 1, 0).algebra
    got = alg.bracket_basis(1, 2)
    e1, e2 = funit(Tag.O, 1), funit(Tag.O, 2)
    expected = fmul(e1, fconj(e2)) - fmul(e2, fconj(e1))
    assert expected.coords[0] == 0
    assert got == expected.coords[1:]
    assert got[2] == F(-2)          # -2 e3, at imaginary coordinate index 2


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=24, max_size=24))
def test_bracket_bilinear_antisymmetric(coords):
    alg = make_h(Tag.C, 1).algebra
    x, y, z = coords[:4], coords[4:8], coords[8:12]
    c = coords[12]
    assert forms_bracket(alg, x, y) == [-t for t in forms_bracket(alg, y, x)]
    w = [c * a + b for a, b in zip(x, y)]
    rhs = [c * a + b for a, b in zip(forms_bracket(alg, x, z), forms_bracket(alg, y, z))]
    assert forms_bracket(alg, w, z) == rhs == pair_loop_bracket(alg, w, z)


def test_center_sees_abelian_summand():
    # the central route's witness is the abelian summand e_2, not e_0: rank(ad e_0) = dimZ
    alg = TwoStepAlgebra.from_brackets("heis3+line", 3, 1, {(0, 1): [F(1)]})
    verdict = is_nonsingular(alg)
    assert verdict.kind == "singular" and "central V direction" in verdict.certificate
    assert verdict.witness == (0, 0, 1)
    assert reference_ad_rank(alg, verdict.witness) == 0
    assert reference_ad_rank(alg, [1, 0, 0]) == alg.dim_z


def test_center_reads_every_bracket_form():
    # e_2 brackets only into the second Z coordinate; e_3 is central
    alg = TwoStepAlgebra.from_brackets("two-forms", 4, 2, {(0, 1): [F(1), F(0)],
                                                          (0, 2): [F(0), F(1, 2)]})
    verdict = is_nonsingular(alg)
    assert verdict.kind == "singular" and verdict.witness == (0, 0, 0, 1)
    assert reference_ad_rank(alg, verdict.witness) < alg.dim_z


def test_center_of_quaternionic_instance():
    # no V direction of h'_{1,1}(H) is central, so the verdict comes from the Clifford pencil
    ms = make_h_prime(Tag.H, 1, 1)
    verdict = is_nonsingular(ms.algebra)
    assert verdict.kind == "nonsingular" and "Clifford pencil" in verdict.certificate


def pairs_from_bracket_basis(alg):
    """Reference for `pairs`: each nonzero [e_i, e_j], i < j, read through `bracket_basis`
    and scaled by the lcm d of its denominators, as [(c, d x_c), ...]."""
    vecs = {(i, j): alg.bracket_basis(i, j)
            for i, j in itertools.combinations(range(alg.dim_v), 2)}
    d = math.lcm(*(x.denominator for vec in vecs.values() for x in vec))
    return {ij: [(c, int(x * d)) for c, x in enumerate(vec) if x]
            for ij, vec in vecs.items() if any(vec)}


def test_fundamentality_of_constructors():
    for ms in [make_h(Tag.C, 2)] + [fleet_member(key) for key in FLEET]:
        alg = ms.algebra
        assert alg.is_fundamental()
        assert rank(reference_bracket_span(alg)) == alg.dim_z
        assert alg.pairs == pairs_from_bracket_basis(alg)


@st.composite
def small_algebras(draw):
    """dimV <= 5 and dimZ <= 4, each pair bracketed or not, with Fraction and zero coordinates."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    coords = st.lists(st.fractions(-3, 3, max_denominator=4) | st.just(F(0)),
                      min_size=m, max_size=m)
    return TwoStepAlgebra.from_brackets("drawn", n, m, {
        ij: draw(coords) for ij in itertools.combinations(range(n), 2) if draw(st.booleans())})


@settings(max_examples=80, deadline=None)
@given(small_algebras())
@example(TwoStepAlgebra.from_brackets("z_1 unreached", 3, 2, {(0, 1): [F(1), F(0)],
                                                                (1, 2): [F(-2, 3), F(0)]}))
def test_fundamentality_and_pairs_match_the_bracket_span(alg):
    assert alg.is_fundamental() == (rank(reference_bracket_span(alg)) == alg.dim_z)
    assert alg.pairs == pairs_from_bracket_basis(alg)


def test_free_two_step_is_singular_with_witness():
    alg = free_two_step(3)
    verdict = is_nonsingular(alg)
    assert verdict.kind == "singular"
    assert verdict.witness is not None
    assert reference_ad_rank(alg, verdict.witness) < alg.dim_z
    # any single generator is already a witness
    assert reference_ad_rank(alg, [F(1), F(0), F(0)]) == 2


def test_heisenberg_nonsingular_via_line_route():
    verdict = is_nonsingular(heisenberg3())
    assert verdict.kind == "nonsingular"
    assert "line" in verdict.certificate


def test_octonion_nonsingular_via_clifford_pencil():
    ms = make_h_prime(Tag.O, 1, 0)
    verdict = is_nonsingular(ms.algebra)
    assert verdict.kind == "nonsingular"
    assert "Clifford pencil" in verdict.certificate


def test_central_v_direction_makes_singular():
    alg = TwoStepAlgebra.from_brackets("heis3+line", 3, 1, {(0, 1): [F(1)]})
    verdict = is_nonsingular(alg)
    assert verdict.kind == "singular"


def test_pencil_decides_both_findings():
    rebased, irrational = pencil_findings()
    verdict = is_nonsingular(rebased)
    assert verdict.kind == "nonsingular" and "Clifford pencil" in verdict.certificate
    verdict = is_nonsingular(sturm_pencil())
    assert verdict.kind == "nonsingular" and "Sturm" in verdict.certificate
    verdict = is_nonsingular(irrational)
    assert verdict.kind == "singular" and verdict.witness is None
    assert "2 distinct real root(s)" in verdict.certificate


@pytest.mark.parametrize("n", [1, 2])
def test_rebased_complex_heisenberg_is_nonsingular_without_its_gram(n):
    # Z columns 2 z_0 and 2 z_0 + 6 z_1: neither a unit nor orthogonal, so the
    # identity metric is not H-type; the Clifford pencil needs no metric
    alg = rebase_z(make_h(Tag.C, n), [(1, 3)], 2).algebra
    verdict = is_nonsingular(alg)
    assert verdict.kind == "nonsingular" and "Clifford pencil" in verdict.certificate


def test_second_pencil_with_a_rational_root_gives_a_witness():
    # B_0 = [[0, I], [-I, 0]]; B_0^-1 B_1 = diag(R^t, R) for a rotation R has no
    # real eigenvalue, and B_0^-1 B_2 = diag(1, 2, 1, 2)
    alg = TwoStepAlgebra.from_brackets("dimZ3", 4, 3, {
        (0, 2): [1, 0, 1], (1, 3): [1, 0, 2], (0, 3): [0, -1, 0], (1, 2): [0, 1, 0]})
    verdict = is_nonsingular(alg)
    assert verdict.kind == "singular" and "B_2 - (1) B_0" in verdict.certificate
    assert reference_ad_rank(alg, verdict.witness) < 3


def test_pencils_without_a_degenerate_member_leave_dimz3_inconclusive():
    alg = TwoStepAlgebra.from_brackets("dimV 8", 8, 3, NON_CLIFFORD_DIMV8)
    verdict = is_nonsingular(alg)
    assert verdict.kind == "inconclusive"
    assert "(0, 1), (0, 2), (1, 2)" in verdict.certificate


def test_rebased_quaternionic_heisenberg_is_nonsingular_without_its_gram():
    # its coordinate pencils have no degenerate member, which once left it inconclusive
    alg = rebase_z(make_h_prime(Tag.H, 1, 0), [(1, 3), (1, 1)], 2).algebra
    verdict = is_nonsingular(alg)
    assert verdict.kind == "nonsingular" and "Clifford pencil" in verdict.certificate


def test_indefinite_clifford_pencil_is_singular_without_a_witness():
    alg = TwoStepAlgebra.from_brackets("dimV 4", 4, 3, INDEFINITE_DIMV4)
    assert clifford_form(alg) == Matrix.from_rows([[F(1, 2), F(-7, 4)], [F(-7, 4), F(47, 16)]])
    verdict = is_nonsingular(alg)
    assert (verdict.kind, verdict.witness) == ("singular", None)
    assert "q not positive definite" in verdict.certificate


def test_split_quaternion_pseudo_htype_algebra_is_singular():
    # in the Z basis (i, j, k), A'_1 = B_0^{-1} B_1 = -L_k squares to +I: a coordinate pencil
    # has the rational roots +-1; in the basis (j, k, i + 2 j + 2 k) every coordinate plane
    # misses the null cone, and only the indefinite q of the Clifford pencil decides
    alg = split_quaternion_algebra()
    a1 = inverse(dense_form(alg, 0)) * dense_form(alg, 1)
    assert a1 * a1 == Matrix.identity(4) and all(a1[i, i] == 0 for i in range(4))
    assert clifford_form(alg) == Matrix.identity(2).scale(-1)
    verdict = is_nonsingular(alg)
    assert verdict.kind == "singular" and reference_ad_rank(alg, verdict.witness) < 3
    verdict = is_nonsingular(split_quaternion_algebra(((0, 1, 0), (0, 0, 1), (1, 2, 2))))
    assert (verdict.kind, verdict.witness) == ("singular", None)
    assert "q not positive definite" in verdict.certificate


def test_perturbed_clifford_pencil_is_not_certified():
    # one bracket coordinate of h_1(H) off by 1/3: B_0^{-1} B_b no longer anticommute to
    # scalars, and for dimZ >= 3 only the Clifford pencil proves "nonsingular"
    h1h = make_h(Tag.H, 1).algebra
    assert clifford_form(h1h) == Matrix.identity(h1h.dim_z - 1)
    brackets = h1h.bracket_map()
    key = min(brackets)
    brackets[key] = [brackets[key][0] + F(1, 3), *brackets[key][1:]]
    alg = TwoStepAlgebra.from_brackets("h_1(H) perturbed", h1h.dim_v, h1h.dim_z, brackets)
    assert clifford_form(alg) is None
    verdict = is_nonsingular(alg)
    assert verdict.kind == "inconclusive" and "not a Clifford pencil" in verdict.certificate


def test_nilalg_imports_nothing_from_htype():
    tree = ast.parse(Path(nilalg.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert names and not any("htype" in name for name in names)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["split", "indefinite", "sturm", "irrational", "h1C", "h1H", "hp10H",
                        "hp11H", "hp21H", "cliff5"]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_verdict_is_the_same_in_every_basis(key, v_seed, z_seed):
    algs = {"split": split_quaternion_algebra,
            "indefinite": lambda: TwoStepAlgebra.from_brackets("dimV 4", 4, 3, INDEFINITE_DIMV4),
            "sturm": sturm_pencil, "irrational": lambda: pencil_findings()[1]}
    alg = algs[key]() if key in algs else fleet_member(key).algebra
    want = "nonsingular" if key in FLEET or key == "sturm" else "singular"
    assert is_nonsingular(alg).kind == want
    # rebase_v reads only the algebra of a metric structure; any valid metric will do
    ms = MetricStructure(alg, Matrix.identity(alg.dim_v), Matrix.identity(alg.dim_z))
    moved = mix_z(rebase_v(ms, random_thirds(alg.dim_v - 1, v_seed)).algebra, z_seed)
    assert is_nonsingular(moved).kind == want


@pytest.mark.parametrize("generators", [3, 4])
def test_center_at_least_as_large_as_v_is_singular(generators):
    # [e_0, e_0] = 0, so rank(ad e_0) <= dimV - 1 < dimZ
    alg = free_two_step(generators)
    verdict = is_nonsingular(alg)
    assert verdict.kind == "singular" and "dimZ" in verdict.certificate
    assert verdict.witness == tuple(int(i == 0) for i in range(generators))


def test_nonsingular_requires_fundamental():
    alg = TwoStepAlgebra.from_brackets("thin", 2, 2, {(0, 1): [F(1), F(0)]})
    with pytest.raises(ValueError):
        is_nonsingular(alg)


def test_json_round_trip_in_memory():
    ms = make_h_prime(Tag.H, 2, 1)
    doc = nilalg.to_json(ms.algebra, ms.gram_v, ms.gram_z)
    alg2, gv, gz = nilalg.from_json(doc)
    assert alg2 == ms.algebra
    assert gv == ms.gram_v and gz == ms.gram_z


def test_file_round_trip(tmp_path):
    ms = make_h(Tag.C, 2)
    path = tmp_path / "h2C.json"
    nilalg.save(str(path), ms.algebra, ms.gram_v, ms.gram_z)
    alg2, gv, gz = nilalg.load(str(path))
    assert alg2 == ms.algebra and gv == ms.gram_v and gz == ms.gram_z
    raw = json.loads(path.read_text())
    assert all(isinstance(e[2][0], str) for e in raw["brackets"])


def test_rational_strings_in_files(tmp_path):
    alg = TwoStepAlgebra.from_brackets("halves", 2, 1, {(0, 1): [F(1, 2)]})
    path = tmp_path / "halves.json"
    nilalg.save(str(path), alg)
    raw = json.loads(path.read_text())
    assert raw["brackets"][0][2] == ["1/2"]


def test_degenerate_abelian_input_accepted():
    alg, _, _ = nilalg.from_json({"name": "abelian", "dimV": 3, "dimZ": 0,
                                  "brackets": []})
    assert alg.dim_z == 0 and alg.is_fundamental()
    verdict = is_nonsingular(alg)
    assert (verdict.kind, verdict.certificate, verdict.witness) == (
        "singular", "abelian: center is everything", None)


def test_malformed_documents_rejected():
    with pytest.raises(ValueError, match="dimV"):
        nilalg.from_json({"name": "x", "dimZ": 1, "brackets": []})
    with pytest.raises(ValueError, match="bracket"):
        nilalg.from_json({"name": "x", "dimV": 2, "dimZ": 1, "brackets": [[0, 1]]})
    with pytest.raises(ValueError):
        nilalg.from_json({"name": "x", "dimV": 2, "dimZ": 1,
                          "brackets": [[0, 1, ["1", "2"]]]})


def test_malformed_file_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n")
    with pytest.raises(ValueError, match="line"):
        nilalg.load(str(path))


def test_bracket_keys_validated():
    with pytest.raises(ValueError):
        TwoStepAlgebra.from_brackets("bad", 2, 1, {(1, 0): [F(1)]})
    with pytest.raises(ValueError):
        TwoStepAlgebra.from_brackets("bad", 2, 1, {(0, 1): [F(1), F(2)]})
