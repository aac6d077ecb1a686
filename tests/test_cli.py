import contextlib
import hashlib
import io
import json
import os
import tempfile
import time
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (FLEET, INDEFINITE_DIMV4, NON_CLIFFORD_DIMV8, UNIT_PAIRS, fleet_member,
                      free_two_step, mix_z, pencil_findings, random_thirds, rebase_v, rebase_z,
                      run_python, transfer_pairs)
from nilrad import cli, nilalg
from nilrad.cli import MAX_METRIC_DIM, MAX_PROBE_UNKNOWNS, main
from nilrad.division import Tag
from nilrad.exactlin import Matrix
from nilrad.htype import (DEFAULT_PRECISION, MAX_PRECISION, MIN_PRECISION, dilation, is_htype,
                          make_clifford_module_algebra, make_h, make_h_prime, pullback_metric)
from nilrad.prolong import ProlongationLayer


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_then_verify(tmp_path, capsys):
    path = str(tmp_path / "fII.json")
    code, out, _ = run(capsys, "construct", "--family", "hprime", "--field", "O",
                       "--p", "1", "--q", "0", "-o", path)
    assert code == 0 and "(8, 7)" in out
    code, out, _ = run(capsys, "verify-htype", path)
    assert code == 0 and "True" in out


def test_verify_round_trip_matches_memory(tmp_path, capsys):
    ms = make_h_prime(Tag.H, 2, 1)
    path = str(tmp_path / "h21H.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    code, out, _ = run(capsys, "verify-htype", path, "--json")
    assert code == 0
    assert json.loads(out)["htype"] is is_htype(ms) is True


def test_verify_htype_false_exits_one(tmp_path, capsys):
    ms = make_h_prime(Tag.C, 1, 0)
    path = str(tmp_path / "skewed.json")
    # identity gram on V breaks the Clifford normalization
    nilalg.save(path, ms.algebra, Matrix.identity(2), Matrix.identity(1))
    code, out, _ = run(capsys, "verify-htype", path)
    assert code == 1 and "False" in out


def test_classify_a1_reports_none(capsys):
    code, out, _ = run(capsys, "classify", "--type", "A", "--rank", "1")
    assert code == 0 and "none" in out


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "--type", "C", "--rank", "3", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["passing"] == [[1]]
    assert doc["unique_up_to_automorphism"] is True


def test_scan_all(capsys):
    code, out, _ = run(capsys, "scan-all", "--max-rank", "3", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["unique_everywhere_except_A1"] is True


def test_prolong_heisenberg(tmp_path, capsys):
    alg = make_h_prime(Tag.C, 1, 0).algebra
    path = str(tmp_path / "heis3.json")
    nilalg.save(path, alg)
    code, out, _ = run(capsys, "prolong", path, "--max-degree", "2")
    assert code == 0 and "[4, 6, 9]" in out


def test_prolong_json_with_basis(tmp_path, capsys):
    alg = make_h_prime(Tag.C, 1, 0).algebra
    path = str(tmp_path / "heis3.json")
    nilalg.save(path, alg)
    code, out, _ = run(capsys, "prolong", path, "--max-degree", "1",
                       "--json", "--basis")
    doc = json.loads(out)
    assert code == 0 and doc["dims"] == [4, 6]
    assert len(doc["layers"][0]["basis"]) == 4
    first = doc["layers"][0]["basis"][0]
    assert len(first["v_block"]) == 2 and len(first["z_block"]) == 1


def test_prolong_basis_without_json_prints_the_plain_text(tmp_path, capsys):
    alg = make_h_prime(Tag.C, 1, 0).algebra
    path = str(tmp_path / "heis3.json")
    nilalg.save(path, alg)
    plain = run(capsys, "prolong", path, "--max-degree", "2")
    assert plain[0] == 0
    assert run(capsys, "prolong", path, "--max-degree", "2", "--basis") == plain


def reference_basis_json(doc: dict, layers) -> str:
    """`prolong --basis --json` through `matrix_to_json` and the indent encoder."""
    doc = dict(doc, layers=[
        {"degree": layer.degree,
         "basis": [{"v_block": nilalg.matrix_to_json(v), "z_block": nilalg.matrix_to_json(z)}
                   for v, z in layer.basis]}
        for layer in layers])
    return json.dumps(doc, indent=1, default=str) + "\n"


# (member, max degree, stop when zero) of the benchmark's prolongation table
PROLONG_TABLE = [("hp10H", 3, True), ("hp11H", 3, True), ("h1H", 3, True), ("hp10O", 3, True),
                 ("h1O", 3, True), ("h1C", 3, False), ("hp10C", 4, False),
                 ("cliff5", 1, False), ("cliff7x2", 1, False)]


@pytest.mark.parametrize("rebased", [False, True])
@pytest.mark.parametrize("key,degree,stop", PROLONG_TABLE)
def test_prolong_basis_json_is_the_indent_encoders_bytes(tmp_path, capsys, monkeypatch,
                                                       key, degree, stop, rebased):
    ms = fleet_member(key)
    if rebased:
        ms = rebase_v(ms, random_thirds(ms.algebra.dim_v, 11))
    path = str(tmp_path / f"{key}.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    results = []
    real = cli.prolong

    def recording_prolong(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "prolong", recording_prolong)
    argv = ["prolong", path, "--max-degree", str(degree), "--basis", "--json"]
    code, out, _ = run(capsys, *argv + ["--stop-when-zero"] * stop)
    res, = results
    doc = {"command": "prolong", "file": path, "name": ms.algebra.name, "dims": res.dims(),
           "verdict": res.verdict, "last_nonzero_degree": res.last_nonzero}
    assert code == 0
    assert out == reference_basis_json(doc, res.layers)


# sha256 of `prolong FILE --max-degree K --stop-when-zero --basis --json`, run in the
# file's directory, for the kernel's canonical echelon bases: any change to the
# elimination that moves one basis entry, or one byte of the writer, moves these
PINNED_BASIS_SHA256 = [
    ("h1O", 3, "bbe5ff77965966a6dca27eb65b317c11efa325a3546d97066210a20629bb87a1"),
    ("cliff8x2", 1, "5a28b47fc945527ad7a949fe8da726ef89c6a4cde4473e91efb406480a8b1945"),
]


@pytest.mark.parametrize("key,degree,digest", PINNED_BASIS_SHA256)
def test_prolong_basis_json_bytes_are_pinned(tmp_path, capsys, monkeypatch, key, degree, digest):
    alg = make_h(Tag.O, 1).algebra if key == "h1O" else make_clifford_module_algebra(8, 2).algebra
    monkeypatch.chdir(tmp_path)
    nilalg.save(f"{key}.json", alg)
    code, out, _ = run(capsys, "prolong", f"{key}.json", "--max-degree", str(degree),
                       "--stop-when-zero", "--basis", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_basis_writer_on_hand_built_layers():
    v = Matrix.from_rows([[-3, F(1, 2), 0], [10**30, F(-7, 3), 1]])
    layers = (ProlongationLayer(0, 2, 0, ((v, Matrix.zeros(0, 3)), (v, Matrix.zeros(0, 3)))),
              ProlongationLayer(1, 2, 2, ((Matrix.zeros(2, 0), v),)),
              ProlongationLayer(2, 1, 2, ()))
    doc = {"command": "prolong", "file": 'a "quoted" p\u00e4th', "name": "hand\tbuilt",
           "dims": [2, 1, 0], "verdict": "nontrivial_up_to_cutoff", "last_nonzero_degree": None}
    for some in (layers, layers[2:], ()):
        assert cli._prolong_basis_json(doc, some) == reference_basis_json(doc, some)
    assert '"basis": []' in cli._prolong_basis_json(doc, layers)


def test_prolong_resource_guard_exit_code(tmp_path, capsys):
    alg = make_h_prime(Tag.C, 1, 0).algebra
    path = str(tmp_path / "heis3.json")
    nilalg.save(path, alg)
    code, _, err = run(capsys, "prolong", path, "--max-degree", "2",
                       "--max-entries", "4")
    assert code == 3 and "resource guard" in err
    # a bracket-free algebra is not fundamental; at dimZ = 100000 the degree-0 guard trips
    # before that check reads dimZ-sized data, and at dimZ = 2 the check refuses the input
    for dim_z, want in ((100000, 3), (2, 2)):
        path = tmp_path / f"bare{dim_z}.json"
        path.write_text(f'{{"dimV": 3, "dimZ": {dim_z}, "brackets": []}}')
        code, out, err = run(capsys, "prolong", str(path), "--max-degree", "1")
        assert (code, out) == (want, "")
        assert err.startswith("resource guard: degree 0" if want == 3 else
                              "error: prolongation requires a fundamental algebra")


def test_nonsingular_verdict_exit_codes(tmp_path, capsys):
    path = str(tmp_path / "free3.json")
    nilalg.save(path, free_two_step(3))
    code, out, _ = run(capsys, "nonsingular", path)
    assert code == 1 and "singular" in out
    ms = make_h_prime(Tag.O, 1, 0)
    path2 = str(tmp_path / "fII.json")
    nilalg.save(path2, ms.algebra, ms.gram_v, ms.gram_z)
    code, out, _ = run(capsys, "nonsingular", path2)
    assert code == 0 and "nonsingular" in out


def test_nonsingular_json_carries_witness(tmp_path, capsys):
    path = str(tmp_path / "free3.json")
    nilalg.save(path, free_two_step(3))
    code, out, _ = run(capsys, "nonsingular", path, "--json")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "singular"
    assert len(doc["witness"]) == 3 and any(c != "0" for c in doc["witness"])


def test_nonsingular_witnesses_a_central_v_direction(tmp_path, capsys):
    # rank(ad e_0) = 1 = dimZ, so only the central e_2 is a witness
    path = tmp_path / "heis3_line.json"
    path.write_text(json.dumps({"dimV": 3, "dimZ": 1, "brackets": [[0, 1, ["1"]]]}))
    code, out, _ = run(capsys, "nonsingular", str(path), "--json")
    doc = json.loads(out)
    assert (code, doc["verdict"], doc["witness"]) == (1, "singular", ["0", "0", "1"])
    assert "central V direction" in doc["certificate"]


def test_nonsingular_decides_the_dimz2_findings_exactly(tmp_path, capsys):
    for alg, want in zip(pencil_findings(), [(0, "nonsingular"), (1, "singular")]):
        path = str(tmp_path / "alg.json")
        nilalg.save(path, alg)
        code, out, _ = run(capsys, "nonsingular", path, "--json")
        doc = json.loads(out)
        assert (code, doc["verdict"]) == want and "witness" not in doc


# seven H-type algebras that the bracket forms alone must certify in any basis
HTYPE_FINDINGS = {"h1H": lambda: make_h(Tag.H, 1), "hp11H": lambda: make_h_prime(Tag.H, 1, 1),
                  "h1O": lambda: make_h(Tag.O, 1), "hp10O": lambda: make_h_prime(Tag.O, 1, 0),
                  "hp21H": lambda: make_h_prime(Tag.H, 2, 1), "h3H": lambda: make_h(Tag.H, 3),
                  "cliff5": lambda: make_clifford_module_algebra(5, 1)}


@pytest.mark.parametrize("key", HTYPE_FINDINGS)
def test_nonsingular_certifies_htype_files_without_a_gram_block(tmp_path, capsys, key):
    # V rebased by rebase_v and Z by a random rational matrix at three seeds; the canonical
    # h'_{1,1}(H) and h'_{1,0}(O) too, whose H-type gramV is 2 Id and not the identity
    ms = HTYPE_FINDINGS[key]()
    algs = [mix_z(rebase_v(ms, random_thirds(ms.algebra.dim_v - 1, seed)).algebra, seed)
            for seed in (1, 2, 3)]
    algs += [ms.algebra] if key in ("hp11H", "hp10O") else []
    for alg in algs:
        path = str(tmp_path / "alg.json")
        nilalg.save(path, alg)
        code, out, _ = run(capsys, "nonsingular", path, "--json")
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (0, "nonsingular") and "witness" not in doc
        assert "Clifford pencil" in doc["certificate"]


def test_nonsingular_on_the_two_dimz3_findings(tmp_path, capsys):
    # an indefinite Clifford pencil is singular with no witness; a non-Clifford algebra
    # whose coordinate pencils have no degenerate member stays inconclusive
    for brackets, n, want in ((INDEFINITE_DIMV4, 4, (1, "singular")),
                              (NON_CLIFFORD_DIMV8, 8, (3, "inconclusive"))):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"dimV": n, "dimZ": 3, "brackets": [
            [i, j, [str(c) for c in vec]] for (i, j), vec in brackets.items()]}))
        code, out, _ = run(capsys, "nonsingular", str(path), "--json")
        doc = json.loads(out)
        assert (code, doc["verdict"]) == want and "witness" not in doc


def test_nonsingular_takes_no_seed(tmp_path, capsys):
    path = str(tmp_path / "free3.json")
    nilalg.save(path, free_two_step(3))
    code, _, err = run(capsys, "nonsingular", path, "--seed", "1")
    assert code == 2 and "--seed" in err


def test_probe_takes_no_trials(tmp_path, capsys):
    ms = fleet_member("hp11H")
    path = str(tmp_path / "hp11H.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    code, _, err = run(capsys, "probe-irreducible", path, "--trials", "5")
    assert code == 2 and "--trials" in err
    assert run(capsys, "probe-irreducible", path, "--seed", "5")[0] == 1


def test_nonsingular_pencils_past_the_root_search_cap(tmp_path, capsys):
    # det(t B_0 + B_1) has the integer roots -1000003 and -1000033, found in
    # closed form; the degree-3 pencil's roots 100000, 100001 and 100002 are
    # isolated on the Sturm chain, with no cap on the coefficients
    for name, pairs, want in (
            ("quadratic", [(0, 2, 1000003), (1, 3, 1000033)], ["1", "0", "0", "0"]),
            ("cubic", [(0, 3, 100000), (1, 4, 100001), (2, 5, 100002)],
             ["1", "0", "0", "0", "0", "0"])):
        path = str(tmp_path / f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"dimV": 2 * len(pairs), "dimZ": 2,
                       "brackets": [[i, j, ["1", str(c)]] for i, j, c in pairs]}, fh)
        code, out, _ = run(capsys, "nonsingular", path, "--json")
        doc = json.loads(out)
        assert (code, doc["verdict"], doc.get("witness")) == (1, "singular", want)
        assert "none rational" not in doc["certificate"]
    assert doc["certificate"].startswith("B_1 - (100000) B_0 is degenerate")


def test_transfer_of_a_large_rational_dilation_is_exact(tmp_path, capsys):
    ms = fleet_member("h1H")
    base, gram2 = str(tmp_path / "h1H.json"), str(tmp_path / "gram2.json")
    nilalg.save(base, ms.algebra, ms.gram_v, ms.gram_z)
    for t in (1000, 1001):
        pulled = pullback_metric(ms, dilation(ms.algebra, t))
        nilalg.save(gram2, ms.algebra, pulled.gram_v, pulled.gram_z)
        code, out, _ = run(capsys, "transfer", base, "--gram2", gram2, "--json")
        doc = json.loads(out)
        assert (code, doc["exact"], doc["lambda"], doc["ok"]) == (0, True, str(t * t), True)


def test_transfer_cli(tmp_path, capsys):
    ms = make_h_prime(Tag.H, 1, 0)
    base = str(tmp_path / "alg.json")
    nilalg.save(base, ms.algebra, ms.gram_v, ms.gram_z)
    doubled = str(tmp_path / "gram2.json")
    with open(doubled, "w") as fh:
        json.dump({"v": nilalg.matrix_to_json(ms.gram_v.scale(4)),
                   "z": nilalg.matrix_to_json(ms.gram_z.scale(16))}, fh)
    code, out, _ = run(capsys, "transfer", base, "--gram2", doubled, "--json")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] and doc["exact"] and doc["lambda"] == "4"
    assert list(doc) == ["command", "file", "gram2", "precision", "exact", "lambda",
                         "residual_automorphism", "residual_center", "residual_metric",
                         "residual_lambda_sq", "ok"]


def test_transfer_to_a_second_metric_that_is_not_htype_exits_two(tmp_path, capsys):
    # h_1(C) in the Z basis (z_0, 3 z_0 + z_1) against gramZ_2 = [[1, 4], [4, 17]]:
    # M|_Z has the corner -2, which must never reach the square root of lambda^2
    ms = rebase_z(fleet_member("h1C"), [(3, 1)])
    base, gram2 = str(tmp_path / "h1C.z3.json"), str(tmp_path / "gram2.json")
    nilalg.save(base, ms.algebra, ms.gram_v, ms.gram_z)
    nilalg.save(gram2, ms.algebra, Matrix.identity(4), Matrix.from_rows([[1, 4], [4, 17]]))
    assert run(capsys, "verify-htype", base)[0] == 0
    for argv in (["transfer", base, "--gram2", gram2], ["transfer", base, "--gram2", gram2,
                                                       "--json"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: second metric is not H-type; the transfer operator is undefined\n"


def test_identify_cli(tmp_path, capsys):
    ms = make_h_prime(Tag.H, 1, 1)
    path = str(tmp_path / "h11.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    code, out, _ = run(capsys, "identify", path, "--json")
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == "hprime" and doc["params"] == [1, 1]


@pytest.mark.parametrize("p, q", [(2, 0), (1, 1)])
def test_identify_names_a_rebased_file_without_a_gram_block(tmp_path, capsys, p, q):
    # identify reads the bracket forms alone, so a file with no metric gets its family
    ms = make_h_prime(Tag.H, p, q)
    path = str(tmp_path / "alg.json")
    nilalg.save(path, rebase_v(ms, random_thirds(ms.algebra.dim_v - 1, 3)).algebra)
    code, out, _ = run(capsys, "identify", path, "--json")
    assert (code, json.loads(out)["family"]) == (0, f"h'_{p},{q}(H)")


def test_identify_validates_a_gram_block_for_shape_only(tmp_path, capsys):
    # a gram block that is not H-type (gramV = Id) or not positive definite (gramV = -2 Id)
    # goes unused, as in nonsingular; one of the wrong shape is still an input error
    ms = fleet_member("hp11H")
    path = str(tmp_path / "alg.json")
    for gram_v, want in ((Matrix.identity(8), 0), (ms.gram_v.scale(-1), 0),
                         (Matrix.identity(7), 2)):
        nilalg.save(path, ms.algebra, gram_v, ms.gram_z)
        code, out, err = run(capsys, "identify", path, "--json")
        assert code == want and "Traceback" not in err
        assert want or json.loads(out)["family"] == "h'_1,1(H)"


def test_identify_exits_two_off_the_clifford_pencil(tmp_path, capsys):
    # one bracket coordinate of h_1(H) off by 1/3, with and without its gram block, a
    # Clifford pencil whose q is indefinite, and an algebra whose B_0 is degenerate
    ms = fleet_member("h1H")
    brackets = ms.algebra.bracket_map()
    key = min(brackets)
    brackets[key] = [brackets[key][0] + F(1, 3), *brackets[key][1:]]
    alg = nilalg.TwoStepAlgebra.from_brackets("h_1(H) perturbed", 8, 4, brackets)
    path = str(tmp_path / "alg.json")
    for args, reason in (((alg,), "positive definite q"),
                         ((alg, ms.gram_v, ms.gram_z), "positive definite q"),
                         ((nilalg.TwoStepAlgebra.from_brackets("q indefinite", 4, 3,
                                                               INDEFINITE_DIMV4),),
                          "positive definite q"),
                         ((free_two_step(3),), "nondegenerate B_0")):
        nilalg.save(path, *args)
        code, out, err = run(capsys, "identify", path, "--json")
        assert (code, out) == (2, "") and reason in err and "Traceback" not in err


def test_probe_cli_reducible(tmp_path, capsys):
    from nilrad.htype import make_clifford_module_algebra
    ms = make_clifford_module_algebra(7, 2)
    path = str(tmp_path / "o2.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    code, out, _ = run(capsys, "probe-irreducible", path, "--json")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "reducible"
    assert doc["invariant_subspace_dim"] == 8


def test_table_command(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0 and "FII" in out and "h'_1,0(O)" in out


def test_table_rejects_inconsistent_file(tmp_path, capsys):
    bad = [{"name": "bogus", "restricted": {"type": "BC", "rank": 1},
            "multiplicities": {"1": 8, "4": 7}, "phi": [0], "satake_label": "",
            "nilradical": {"kind": "hprime", "field": "H", "p": 1, "q": 0}}]
    path = str(tmp_path / "bad_table.json")
    with open(path, "w") as fh:
        json.dump(bad, fh)
    code, _, err = run(capsys, "table", "--file", path)
    assert code == 2 and "bogus" in err


@pytest.mark.parametrize("row", [
    {"name": "x", "restricted": {"type": "A", "rank": 2.9}, "multiplicities": {"2": True},
     "phi": [0.7]},
    {"name": "x", "restricted": {"type": "A", "rank": 2}, "multiplicities": {"2": 1},
     "phi": [0, "1"]},
    {"name": "x", "restricted": {"type": "A", "rank": 2}, "multiplicities": {"2": 2},
     "phi": [0, 1], "nilradical": {"kind": "h", "field": "C", "n": 1.0}},
    {"name": "x", "restricted": {"type": "BC", "rank": 1}, "multiplicities": {"1": 8, "4": 7},
     "phi": [0], "nilradical": {"kind": "hprime", "field": "O", "p": True, "q": 0}},
])
def test_table_rejects_numbers_that_are_not_json_integers(tmp_path, capsys, row):
    path = str(tmp_path / "table.json")
    with open(path, "w") as fh:
        json.dump([row], fh)
    code, _, err = run(capsys, "table", "--file", path)
    assert code == 2 and "must be a JSON integer" in err and "Traceback" not in err


def _packaged_table():
    from importlib import resources
    return json.loads(resources.files("nilrad").joinpath("data/real_forms.json").read_text())


def _lowercase_a1_table():
    # the three so(n,1) rows spelled "a": `build` upper-cases the type, but the
    # A1 exception compares it with "A"
    doc = _packaged_table()
    for row in doc:
        if row["restricted"] == {"type": "A", "rank": 1}:
            row["restricted"]["type"] = "a"
    return doc


def _table_with(name, **fields):
    """The packaged table with the given fields of row `name` replaced."""
    doc = _packaged_table()
    next(r for r in doc if r["name"] == name).update(fields)
    return doc


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("doc, message", [
    ([], "real-form table must be a non-empty JSON list of objects"),
    (_lowercase_a1_table(), "type must be one of A, B, C, D, BC, G2, F4, E6, E7, E8"),
    (_table_with("sl(3,R)", abelian_only=True), "sl(3,R): declared abelian but dimZ = 1"),
    (_table_with("sl(3,R)", multiplicities={}), "sl(3,R): no multiplicity for length^2 = 2"),
    (_table_with("sl(3,R)", nilradical={"kind": "g", "field": "C", "p": 1, "q": 0}),
     "unknown family kind 'g'"),
    (_table_with("G2(2)", phi=[0]), "G2(2): grading is not two-step (height 3)"),
    (_table_with("sl(3,R)", nilradical={"kind": "h", "field": "X", "n": 1}),
     "malformed real-form entry 'sl(3,R)': unknown division algebra tag 'X'"),
    (_table_with("so(2,1)", phi=[]), "malformed real-form entry 'so(2,1)': phi must be a "
                                     "nonempty list of distinct simple-root positions"),
    (_table_with("so(2,1)", phi=[0, 0]), "malformed real-form entry 'so(2,1)': phi must be a "
                                         "nonempty list of distinct simple-root positions"),
    (_table_with("so(2,1)", phi=[5]), "malformed real-form entry 'so(2,1)': phi must be a "
                                      "nonempty list of distinct simple-root positions"),
    (_table_with("so(3,1)", abelian_only="false"), "malformed real-form entry 'so(3,1)': "
                                                   "abelian_only must be JSON true or false"),
    (_table_with("sl(3,R)", abelian_only="false"), "malformed real-form entry 'sl(3,R)': "
                                                   "abelian_only must be JSON true or false"),
    (_table_with("sl(3,R)", abelian_only=1), "malformed real-form entry 'sl(3,R)': "
                                             "abelian_only must be JSON true or false, got 1"),
    (_table_with("so(2,1)", multiplicities={"2": -3}),
     "malformed real-form entry 'so(2,1)': multiplicities must be positive"),
    (_table_with("so(2,1)", multiplicities={"2": 0}),
     "malformed real-form entry 'so(2,1)': multiplicities must be positive"),
    *[(_table_with("so(3,1)", multiplicities={"2": 1, key: 7}),
       f"malformed real-form entry 'so(3,1)': multiplicity keys must be positive integers in "
       f"canonical form, got {key!r}") for key in ("02", " 2", "+2", "1_0")],
    (_table_with("G2(2)", restricted={"type": "G2", "rank": 5}),
     "malformed real-form entry 'G2(2)': G2 has rank 2"),
    (_table_with("sl(3,R)", restricted={"type": "D", "rank": 3}),
     "malformed real-form entry 'sl(3,R)': D needs rank >= 4"),
], ids=["empty", "lowercase-a1", "abelian-with-center", "no-multiplicity", "unknown-kind",
        "three-step", "unknown-field", "phi-empty", "phi-repeated", "phi-out-of-range",
        "abelian-string-on-abelian-row", "abelian-string", "abelian-int",
        "multiplicity-negative", "multiplicity-zero", "key-leading-zero", "key-space", "key-plus",
        "key-underscore", "rank-of-fixed-type", "rank-below-minimum"])
def test_table_rejects_an_empty_table_and_unlisted_type_spellings(tmp_path, capsys, doc,
                                                                   message, as_json):
    path = str(tmp_path / "table.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "table", "--file", path, *(["--json"] if as_json else []))
    assert code == 2 and out == "" and err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_table_rejects_a_row_whose_phi_the_scan_does_not_pass(tmp_path, capsys):
    # C3 with phi = {a2} is two-step with (dimV, dimZ) = (4, 3), the dims of h'_1,0(H),
    # so the profile check passes; the non-singular predicate does not
    doc = _packaged_table()
    row = next(r for r in doc if r["name"] == "sp(6,R)")
    row["phi"] = [1]
    row["nilradical"] = {"kind": "hprime", "field": "H", "p": 1, "q": 0}
    path = str(tmp_path / "table.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "table", "--file", path)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == "error: sp(6,R): phi [1] is not a two-step non-singular choice on C3\n"


@pytest.mark.parametrize("verb", ["verify-htype", "nonsingular", "prolong"])
@pytest.mark.parametrize("name", [5, None, ["h"], {"h": 1}], ids=["int", "null", "list", "object"])
def test_algebra_name_must_be_a_json_string(tmp_path, capsys, verb, name):
    ms = make_h_prime(Tag.C, 1, 0)
    doc = nilalg.to_json(ms.algebra, ms.gram_v, ms.gram_z)
    path = str(tmp_path / "named.json")
    extra = ["--max-degree", "1"] if verb == "prolong" else []
    doc.pop("name")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, _ = run(capsys, verb, path, *extra)
    assert code == 0 and out.startswith("unnamed: ")
    with open(path, "w") as fh:
        json.dump(dict(doc, name=name), fh)
    code, out, err = run(capsys, verb, path, *extra)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == f"error: {path}: malformed algebra document: name must be a JSON string, " \
                  f"got {name!r}\n"


@pytest.mark.parametrize("gram, text", [
    ([["1", "0"], ["0", "1"]], "list indices must be integers or slices, not str"),
    ({"v": [["2", "0"], ["0", "2"]]}, "'z'"),
    ({"gram": {"v": [["2", "0"], ["0"]], "z": [["1"]]}}, "ragged rows"),
], ids=["list", "missing-z", "ragged"])
def test_gram_blocks_of_both_readers_keep_their_error_text(tmp_path, capsys, gram, text):
    ms = make_h_prime(Tag.C, 1, 0)
    base, gram2 = str(tmp_path / "base.json"), str(tmp_path / "gram2.json")
    nilalg.save(base, ms.algebra, ms.gram_v, ms.gram_z)
    with open(gram2, "w") as fh:
        json.dump(gram, fh)
    block = gram.get("gram", gram) if isinstance(gram, dict) else gram
    with pytest.raises(ValueError) as exc:
        nilalg.gram_from_json(block)
    assert str(exc.value) == f"malformed gram block: {text}"
    code, out, err = run(capsys, "transfer", base, "--gram2", gram2)
    assert code == 2 and out == "" and err == f"error: {gram2}: malformed gram block: {text}\n"
    # the algebra loader reads its own gram block through the same function
    with open(base, "w") as fh:
        json.dump(dict(nilalg.to_json(ms.algebra), gram=block), fh)
    code, out, err = run(capsys, "verify-htype", base)
    assert code == 2 and out == "" and err == f"error: {base}: malformed gram block: {text}\n"


@pytest.mark.parametrize("argv", [
    ["--family", "h", "--field", "C", "--n", "1"],
    ["--family", "h", "--field", "O", "--n", "1"],
    ["--family", "hprime", "--field", "H", "--p", "1", "--q", "1", "--name", "sp(2,2)"],
    ["--family", "h", "--field", "R", "--n", "256"],
], ids=["h1C", "h1O", "hp11H-named", "h256R-at-the-ceiling"])
def test_construct_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsys, argv):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "construct", *argv)
    assert code == 0
    assert run(capsys, "construct", *argv, "-o", str(path))[0] == 0
    assert path.read_text(encoding="utf-8") == out


def test_construct_refuses_a_family_above_the_metric_ceiling(tmp_path, capsys):
    # dimV = 2 n for h_n(R): the ceiling is checked on the family's dims, before any bracket
    path = tmp_path / "out.json"
    for n in ("300", "1000000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "--family", "h", "--field", "R", "--n", n,
                             "-o", str(path))
        assert (code, out) == (3, "") and not path.exists(), err
        assert err == (f"resource guard: dimV = {2 * int(n)}, dimZ = 1 exceeds the ceiling "
                       f"of {MAX_METRIC_DIM} per layer\n")
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("verb, gram, message", [
    ("verify-htype", {"v": [["1", "0"], ["0", "-1"]], "z": [["1"]]},
     "gramV is not symmetric positive definite"),
    ("transfer", {"v": [["1"]], "z": [["1"]]}, "gramV shape does not match dimV"),
    ("verify-htype", {"v": [["2", "0"], ["0", "2"]], "z": [["-1"]]},
     "gramZ is not symmetric positive definite"),
], ids=["indefinite", "shape", "indefinite-z"])
def test_gram_blocks_that_make_no_metric_exit_two(tmp_path, capsys, verb, gram, message):
    alg = make_h_prime(Tag.C, 1, 0).algebra               # dimV = 2, dimZ = 1
    path, gram2 = tmp_path / "alg.json", tmp_path / "gram2.json"
    gram2.write_text(json.dumps(gram))
    if verb == "transfer":
        nilalg.save(str(path), alg, Matrix.identity(2).scale(2), Matrix.identity(1))
        argv = [verb, str(path), "--gram2", str(gram2)]
    else:
        path.write_text(json.dumps(dict(nilalg.to_json(alg), gram=gram)))
        argv = [verb, str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and message in err and "Traceback" not in err


def test_malformed_file_reports_context(tmp_path, capsys):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write("{ not json")
    code, _, err = run(capsys, "verify-htype", path)
    assert code == 2 and "line" in err


LONG = "1" * 5000       # over Python's 4,300-digit int-to-str limit
LONG_DOCS = {
    "literal dimV": '{"dimV": %s, "dimZ": 1, "brackets": []}' % LONG,
    "literal coordinate": '{"dimV": 2, "dimZ": 1, "brackets": [[0, 1, [%s]]]}' % LONG,
    "string coordinate": '{"dimV": 2, "dimZ": 1, "brackets": [[0, 1, ["%s"]]]}' % LONG,
    "string gram entry": '{"dimV": 2, "dimZ": 1, "brackets": [[0, 1, [1]]], '
                         '"gram": {"v": [["%s", 0], [0, 1]], "z": [[1]]}}' % LONG,
    "literal gram2 entry": '{"v": [[%s, 0], [0, 1]], "z": [[1]]}' % LONG,
    "string gram2 entry": '{"v": [["-%s", 0], [0, 1]], "z": [[1]]}' % LONG,
}


@pytest.mark.parametrize("where", LONG_DOCS)
def test_over_long_integers_exit_two_naming_the_path(tmp_path, capsys, where):
    path = str(tmp_path / "long.json")
    with open(path, "w") as fh:
        fh.write(LONG_DOCS[where])
    if "gram2" in where:
        ms = make_h_prime(Tag.C, 1, 0)
        base = str(tmp_path / "base.json")
        nilalg.save(base, ms.algebra, ms.gram_v, ms.gram_z)
        argv = ["transfer", base, "--gram2", path]
    else:
        argv = ["verify-htype", path]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: {path}: ") and "4300 digits" in err, err


@pytest.mark.parametrize("verb", ["verify-htype", "nonsingular"])
@pytest.mark.parametrize("doc, message", [
    ([1, 2], "JSON object"),
    ({"dimV": 2, "dimZ": 1, "brackets": [[0, 1, ["1/0"]]]}, "zero denominator"),
    ({"dimV": -3, "dimZ": -3, "brackets": []}, "non-negative"),
    ({"dimV": 2, "dimZ": 1, "brackets": [[0, 1, [True]]]}, "cannot interpret True"),
    ({"dimV": True, "dimZ": 1, "brackets": []}, "dimV must be a JSON integer"),
    ({"dimV": 2.5, "dimZ": 1, "brackets": []}, "dimV must be a JSON integer"),
    ({"dimV": 2, "dimZ": 1, "brackets": [[0, 1, "1"]]}, "must be a JSON list"),
    ({"dimV": 2, "dimZ": 2, "brackets": [[0, 1, "12"]]}, "must be a JSON list"),
    ({"dimV": 2, "dimZ": 1, "brackets": [[0, 1, [1]], [0, 1, [2]]]},
     "duplicate bracket key (0, 1)"),
])
def test_invalid_document_exits_two(tmp_path, capsys, verb, doc, message):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, _, err = run(capsys, verb, path)
    assert code == 2 and message in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["brackets", "gram"])
@pytest.mark.parametrize("text", ["1e30000000", "1E3", "1.5", "1_0", "\u0663", " 3\x1c"])
def test_entries_other_than_p_and_p_over_q_exit_two_at_once(tmp_path, capsys, where, text):
    # an exponent is never expanded, so a coordinate "1e30000000" exits 2 at once
    doc = {"dimV": 2, "dimZ": 1, "brackets": [[0, 1, [text if where == "brackets" else "1"]]]}
    if where == "gram":
        doc["gram"] = {"v": [[text, "0"], ["0", "1"]], "z": [["1"]]}
    path = str(tmp_path / "exp.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    start = time.perf_counter()
    code, out, err = run(capsys, "nonsingular", path)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and repr(text) in err and "Traceback" not in err


def test_transfer_precision_flag_reads_the_library_bounds(tmp_path, capsys):
    code, out, _ = run(capsys, "transfer", "--help")
    assert code == 0 and f"lambda, {MIN_PRECISION} to {MAX_PRECISION}" in " ".join(out.split())
    ms = make_h_prime(Tag.C, 1, 0)
    path = str(tmp_path / "h.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    code, out, _ = run(capsys, "transfer", path, "--gram2", path, "--json")
    assert (code, json.loads(out)["precision"]) == (0, DEFAULT_PRECISION)


def test_nonsingular_empty_algebra_exits_two(tmp_path, capsys):
    path = str(tmp_path / "empty.json")
    with open(path, "w") as fh:
        json.dump({"dimV": 0, "dimZ": 0, "brackets": []}, fh)
    code, _, err = run(capsys, "nonsingular", path)
    assert code == 2 and "dimV" in err and "Traceback" not in err


def test_failed_certification_exits_three(tmp_path, capsys, monkeypatch):
    from nilrad import cli

    def broken(ms):
        raise ArithmeticError("certificate rejected")

    ms = make_h_prime(Tag.C, 1, 0)
    path = str(tmp_path / "h.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    monkeypatch.setattr(cli, "is_htype", broken)
    code, out, err = run(capsys, "verify-htype", path, "--json")
    assert code == 3 and out == "" and "certificate rejected" in err
    assert "Traceback" not in err


def test_failed_root_system_check_exits_three(capsys, monkeypatch):
    from nilrad import rootsys

    def broken(expansions, positives):
        raise ArithmeticError("no dominant highest root")

    monkeypatch.setattr(rootsys, "_highest_root", broken)
    rootsys.build.cache_clear()
    code, out, err = run(capsys, "classify", "--type", "B", "--rank", "3", "--json")
    assert code == 3 and out == "" and "no dominant highest root" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["classify", "--type", "C", "--rank", "1000000"], "C at rank 1000000 has 2000000000000 roots"),
    (["scan-all", "--max-rank", "1000000", "--json"], "roots, above the ceiling of"),
], ids=["classify", "scan-all"])
def test_root_count_guard_exits_three(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "resource guard" in err and message in err


@pytest.mark.parametrize("flag, value", [
    ("--max-rank", "0"), ("--max-rank", "-1"),
    ("--max-unknowns", "-1"), ("--max-entries", "-1"),
])
def test_nonsensical_numeric_flags_exit_two(tmp_path, capsys, flag, value):
    # scan-all with no rank to scan never checks A1, and a negative guard is
    # bad input, not a guard trip
    path = str(tmp_path / "heis3.json")
    nilalg.save(path, make_h_prime(Tag.C, 1, 0).algebra)
    verb = (["scan-all"] if flag == "--max-rank"
            else ["prolong", path, "--max-degree", "1"])
    code, out, err = run(capsys, *verb, flag, value, "--json")
    assert code == 2 and out == ""
    assert "error:" in err and flag in err and "resource guard" not in err


def test_usage_errors_exit_two(capsys):
    assert main(["classify", "--type", "Z", "--rank", "1"]) == 2
    # an invalid rank is a usage error, whatever root count its formula gives
    assert main(["classify", "--type", "A", "--rank", "-100"]) == 2
    assert main(["classify", "--type", "G2", "--rank", "100000"]) == 2
    assert main(["no-such-verb"]) == 2
    assert main(["construct", "--family", "h", "--field", "C"]) == 2
    assert main(["construct", "--family", "hprime", "--field", "H"]) == 2
    assert "error: --family hprime requires --p" in capsys.readouterr().err


def test_prolong_runs_without_numpy(tmp_path):
    path = tmp_path / "h1H.json"
    proc = run_python(f"""
        import contextlib, io, json, sys
        sys.modules["numpy"] = None          # any import of numpy now fails
        from nilrad.cli import main
        path = {str(path)!r}
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["construct", "--family", "h", "--field", "H", "--n", "1",
                         "-o", path]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["prolong", path, "--max-degree", "3", "--stop-when-zero",
                         "--json"])
        print(code, json.loads(out.getvalue())["dims"])
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "0 [11, 8, 4, 0]"


def test_probe_refuses_a_commutant_above_the_unknown_ceiling(tmp_path, capsys):
    # n(n+1)/2 unknowns at dimV = n: h_16(H) (dimV 128) answers, dimV 141 is the first refused
    assert 128 * 129 // 2 <= 140 * 141 // 2 <= MAX_PROBE_UNKNOWNS < 141 * 142 // 2
    for n in (141, 512):
        path = tmp_path / f"v{n}.json"
        path.write_text(json.dumps({"dimV": n, "dimZ": 0, "brackets": []}))
        start = time.perf_counter()
        code, out, err = run(capsys, "probe-irreducible", str(path), "--json")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert err == (f"resource guard: dimV = {n}: the commutant has {n * (n + 1) // 2} "
                       f"unknowns, above the ceiling of {MAX_PROBE_UNKNOWNS}\n")
    # below the ceiling the probe runs, and this metric is not H-type
    path = tmp_path / "v140.json"
    path.write_text(json.dumps({"dimV": 140, "dimZ": 0, "brackets": []}))
    code, out, err = run(capsys, "probe-irreducible", str(path), "--json")
    assert (code, out) == (2, "") and "H-type" in err


def test_metric_verbs_refuse_huge_layers_before_allocating(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"dimV": 2000000, "dimZ": 1, "brackets": []}')
    gram2 = tmp_path / "gram2.json"
    gram2.write_text('{"v": [[1]], "z": [[1]]}')
    for argv in (["verify-htype", str(path)], ["identify", str(path)],
                 ["probe-irreducible", str(path)], ["nonsingular", str(path)],
                 ["transfer", str(path), "--gram2", str(gram2)]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 3, (argv, err)
        assert "Traceback" not in err
        assert f"dimV = 2000000, dimZ = 1 exceeds the ceiling of {MAX_METRIC_DIM}" in err
    proc = run_python(f"""
        import sys
        from nilrad.cli import main
        sys.exit(main(["verify-htype", {str(path)!r}]))
    """)
    assert proc.returncode == 3 and "Traceback" not in proc.stderr, proc.stderr


def _metric_verdicts(ms):
    """(exit code, verdict field) of every metric verb on ms; the transfer goes
    to the pullback of ms by the dilation 3/2."""
    gram2 = pullback_metric(ms, dilation(ms.algebra, F(3, 2)))
    with tempfile.TemporaryDirectory() as tmp:
        path, gram2_path = os.path.join(tmp, "alg.json"), os.path.join(tmp, "gram2.json")
        nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
        with open(gram2_path, "w", encoding="utf-8") as fh:
            json.dump({"v": nilalg.matrix_to_json(gram2.gram_v),
                       "z": nilalg.matrix_to_json(gram2.gram_z)}, fh)
        verdicts = {}
        for argv, field in ((["verify-htype", path], "htype"),
                            (["nonsingular", path], "verdict"),
                            (["identify", path], "family"),
                            (["transfer", path, "--gram2", gram2_path], "ok"),
                            (["probe-irreducible", path], "verdict")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv + ["--json"])
            verdicts[argv[0]] = (code, json.loads(out.getvalue())[field])
    return verdicts


@lru_cache(maxsize=None)
def _fleet_verdicts(key):
    return _metric_verdicts(fleet_member(key))


# the superdiagonal of random.Random(1) thirds, on which the probe once
# certified "irreducible" for clifford(7;2) and h'_{1,1}(H)
SKEW = [int(3 * x) for x in random_thirds(15, 1)]


# the pairs (c, s) of `rebase_z`: the unit pairs, and (1, 1), whose column
# z_{b-1} + z_b has norm^2 2
Z_PAIRS = UNIT_PAIRS + ((F(1), F(1)),)

# a Z basis of unit vectors, each one non-orthogonal to the one before
Z_SKEW = [1, 2, 3, 1, 2, 3, 1]

# the Z basis z_0, z_0 + z_1, z_1 + z_2, ..., whose vectors after the first are not units
Z_SUMS = [4] * 7


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(FLEET), st.lists(st.integers(-3, 3), min_size=15, max_size=15),
       st.lists(st.sampled_from(range(len(Z_PAIRS))), min_size=7, max_size=7),
       st.sampled_from([1, 2]))
@example("cliff7x2", SKEW, [0] * 7, 1)
@example("hp11H", SKEW, [0] * 7, 1)
@example("hp11H", SKEW, Z_SKEW, 1)
@example("hp21H", [0] * 15, Z_SKEW, 1)
@example("cliff7x2", SKEW, Z_SKEW, 1)
@example("h1H", [0] * 15, [0] * 7, 2)
@example("cliff7x2", SKEW, [0] * 7, 2)
@example("hp11H", SKEW, Z_SKEW, 2)
@example("h1C", [0] * 15, Z_SUMS, 1)
@example("h1H", SKEW, Z_SUMS, 1)
@example("h1O", [0] * 15, Z_SUMS, 1)
@example("hp10O", SKEW, Z_SUMS, 2)
@example("cliff5", [0] * 15, Z_SUMS, 1)
def test_metric_verbs_ignore_a_skew_change_of_v_basis(key, numerators, z_pairs, z_scale):
    # T = I + N with thirds on the superdiagonal is not orthogonal for gramV, and
    # the Z basis of `rebase_z` is not orthogonal for gramZ once some c_b != 0;
    # with z_scale 2, or a pair (1, 1), some of its vectors are not units
    ms = fleet_member(key)
    thirds = [F(k, 3) for k in numerators[:ms.algebra.dim_v - 1]]
    pairs = [Z_PAIRS[k] for k in z_pairs[:ms.algebra.dim_z - 1]]
    assume(any(thirds) or any(c for c, _ in pairs) or z_scale != 1)
    rebased = rebase_z(rebase_v(ms, thirds), pairs, z_scale)
    assert _metric_verdicts(rebased) == _fleet_verdicts(key)


@pytest.mark.parametrize("doc", [
    {"dimV": 2, "dimZ": 0, "brackets": []},
    nilalg.to_json(free_two_step(3), Matrix.identity(3), Matrix.identity(3)),
    nilalg.to_json(free_two_step(3), Matrix.identity(3), Matrix.identity(3).scale(4)),
])
def test_probe_exits_two_on_a_metric_that_is_not_htype(doc, tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "probe-irreducible", str(path), "--json")
    assert code == 2 and out == "" and "H-type" in err


def _float_pair_files(tmp_path):
    ms1, ms2 = fleet_member("h1H"), transfer_pairs(count=1)[0]
    base, gram2 = str(tmp_path / "h1H.json"), str(tmp_path / "gram2.json")
    nilalg.save(base, ms1.algebra, ms1.gram_v, ms1.gram_z)
    with open(gram2, "w", encoding="utf-8") as fh:
        json.dump({"v": nilalg.matrix_to_json(ms2.gram_v),
                   "z": nilalg.matrix_to_json(ms2.gram_z)}, fh)
    return base, gram2, F(ms2.gram_z[0, 0], ms1.gram_z[0, 0])


def test_transfer_precision_is_bounded(tmp_path, capsys):
    base, gram2, lam_sq = _float_pair_files(tmp_path)
    for bits in (63, MAX_PRECISION + 1):
        code, out, err = run(capsys, "transfer", base, "--gram2", gram2,
                             "--precision", str(bits))
        assert code == 2 and out == "" and "precision must be between 64 and 4096" in err
    for bits in (64, MAX_PRECISION):
        code, out, _ = run(capsys, "transfer", base, "--gram2", gram2,
                           "--precision", str(bits), "--json")
        doc = json.loads(out)
        assert code == 0 and doc["ok"] and not doc["exact"]
        # the printed digits resolve 2^-bits and bracket sqrt(lambda^2)
        x, digits = F(doc["lambda"]), len(doc["lambda"].split(".")[1])
        assert digits == len(str(2 ** bits))
        assert x * x <= lam_sq < (x + F(1, 10 ** digits)) ** 2


def test_cli_import_leaves_mpmath_out():
    proc = run_python("""
        import sys
        import nilrad.cli
        print("mpmath" in sys.modules)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
