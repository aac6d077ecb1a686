import json

import pytest

from nilrad import nilalg
from nilrad.cli import main
from nilrad.division import Tag
from nilrad.exactlin import Matrix
from nilrad.htype import is_htype, make_h_prime


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


def test_prolong_resource_guard_exit_code(tmp_path, capsys):
    alg = make_h_prime(Tag.C, 1, 0).algebra
    path = str(tmp_path / "heis3.json")
    nilalg.save(path, alg)
    code, _, err = run(capsys, "prolong", path, "--max-degree", "2",
                       "--max-entries", "4")
    assert code == 3 and "resource guard" in err


def test_nonsingular_verdict_exit_codes(tmp_path, capsys):
    from nilrad.nilalg import free_two_step
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
    from nilrad.nilalg import free_two_step
    path = str(tmp_path / "free3.json")
    nilalg.save(path, free_two_step(3))
    code, out, _ = run(capsys, "nonsingular", path, "--json", "--seed", "7")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "singular"
    assert len(doc["witness"]) == 3 and any(c != "0" for c in doc["witness"])


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


def test_identify_cli(tmp_path, capsys):
    ms = make_h_prime(Tag.H, 1, 1)
    path = str(tmp_path / "h11.json")
    nilalg.save(path, ms.algebra, ms.gram_v, ms.gram_z)
    code, out, _ = run(capsys, "identify", path, "--json")
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == "hprime" and doc["params"] == [1, 1]


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


def test_malformed_file_reports_context(tmp_path, capsys):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write("{ not json")
    code, _, err = run(capsys, "verify-htype", path)
    assert code == 2 and "line" in err


@pytest.mark.parametrize("verb", ["verify-htype", "nonsingular"])
@pytest.mark.parametrize("doc, message", [
    ([1, 2], "JSON object"),
    ({"dimV": 2, "dimZ": 1, "brackets": [[0, 1, ["1/0"]]]}, "zero denominator"),
    ({"dimV": -3, "dimZ": -3, "brackets": []}, "non-negative"),
])
def test_invalid_document_exits_two(tmp_path, capsys, verb, doc, message):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, _, err = run(capsys, verb, path)
    assert code == 2 and message in err and "Traceback" not in err


def test_usage_errors_exit_two(capsys):
    assert main(["classify", "--type", "Z", "--rank", "1"]) == 2
    assert main(["no-such-verb"]) == 2
    assert main(["construct", "--family", "h", "--field", "C"]) == 2
