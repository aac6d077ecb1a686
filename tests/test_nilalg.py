import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (FLEET, fleet_member, pair_loop_bracket, pencil_findings, random_thirds,
                      rebase_v, rebase_z)
from nilrad import nilalg
from nilrad.division import Tag, conj as fconj, mul as fmul, unit as funit
from nilrad.exactlin import Matrix, rank
from nilrad.htype import make_h, make_h_prime
from nilrad.nilalg import (
    TwoStepAlgebra,
    free_two_step,
    is_nonsingular,
)


def heisenberg3():
    return TwoStepAlgebra.from_brackets("heis3", 2, 1, {(0, 1): [F(1)]})


def forms_bracket(alg, x, y):
    """Z coordinates of [x, y] read off the bracket forms: coordinate c is x^t B_c y."""
    d, forms = alg.bracket_forms
    return [F(sum(xi * s * y[j] for xi, row in zip(x, form) for j, s in row)) / d
            for form in forms]


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
    # no V direction of h'_{1,1}(H) is central, so the verdict comes from the H-type route
    ms = make_h_prime(Tag.H, 1, 1)
    verdict = is_nonsingular(ms.algebra, gram_v=ms.gram_v, gram_z=ms.gram_z)
    assert verdict.kind == "nonsingular" and "H-type" in verdict.certificate


def test_fundamentality_of_constructors():
    for ms in (make_h(Tag.C, 2), make_h_prime(Tag.H, 2, 1), make_h(Tag.O, 1)):
        alg = ms.algebra
        assert alg.is_fundamental()
        assert rank(alg.bracket_span_matrix()) == alg.dim_z


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


def test_octonion_nonsingular_via_htype_route():
    ms = make_h_prime(Tag.O, 1, 0)
    verdict = is_nonsingular(ms.algebra, gram_v=ms.gram_v, gram_z=ms.gram_z)
    assert verdict.kind == "nonsingular"
    assert "H-type" in verdict.certificate


def test_central_v_direction_makes_singular():
    alg = TwoStepAlgebra.from_brackets("heis3+line", 3, 1, {(0, 1): [F(1)]})
    verdict = is_nonsingular(alg)
    assert verdict.kind == "singular"


def test_pencil_decides_both_findings():
    rebased, irrational = pencil_findings()
    verdict = is_nonsingular(rebased)
    assert verdict.kind == "nonsingular" and "Sturm" in verdict.certificate
    verdict = is_nonsingular(irrational)
    assert verdict.kind == "singular" and verdict.witness is None
    assert "2 distinct real root(s)" in verdict.certificate


@pytest.mark.parametrize("n", [1, 2])
def test_rebased_complex_heisenberg_is_nonsingular_without_its_gram(n):
    # Z columns 2 z_0 and 2 z_0 + 6 z_1: neither a unit nor orthogonal, so the
    # identity metric is not H-type and the pencil decides
    alg = rebase_z(make_h(Tag.C, n), [(1, 3)], 2).algebra
    verdict = is_nonsingular(alg)
    assert verdict.kind == "nonsingular" and "Sturm" in verdict.certificate


def test_second_pencil_with_a_rational_root_gives_a_witness():
    # B_0 = [[0, I], [-I, 0]]; B_0^-1 B_1 = diag(R^t, R) for a rotation R has no
    # real eigenvalue, and B_0^-1 B_2 = diag(1, 2, 1, 2)
    alg = TwoStepAlgebra.from_brackets("dimZ3", 4, 3, {
        (0, 2): [1, 0, 1], (1, 3): [1, 0, 2], (0, 3): [0, -1, 0], (1, 2): [0, 1, 0]})
    verdict = is_nonsingular(alg)
    assert verdict.kind == "singular" and "B_2 - (1) B_0" in verdict.certificate
    assert reference_ad_rank(alg, verdict.witness) < 3


def test_pencils_without_a_degenerate_member_leave_dimz3_inconclusive():
    alg = rebase_z(make_h_prime(Tag.H, 1, 0), [(1, 3), (1, 1)], 2).algebra
    verdict = is_nonsingular(alg)
    assert verdict.kind == "inconclusive"
    assert "(0, 1), (0, 2), (1, 2)" in verdict.certificate


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
