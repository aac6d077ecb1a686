"""Every verb that reads a file keeps the exit-code contract on any document.

Documents come from a small JSON grammar: scalars of every JSON kind,
nested lists and objects over the keys the loaders look for, algebra
documents with wrong sizes and malformed `gram` blocks, real-form tables
with malformed rows, and a few documents nested too deeply to parse.
Whatever the document, a verb exits 0, 1, 2 or 3 and prints no
traceback.
"""

import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from nilrad import nilalg
from nilrad.cli import main
from nilrad.division import Tag
from nilrad.htype import make_h_prime

DEEP = "[" * 200000 + "]" * 200000
DEEP_GRAM = '{"dimV": 2, "dimZ": 1, "brackets": [[0, 1, [1]]], "gram": ' + DEEP + "}"
SHALLOW_DEEP = "[" * 400 + "1" + "]" * 400          # parses, but is no document

ROW = {"name": "x", "restricted": {"type": "A", "rank": 2}, "multiplicities": {"2": 1},
       "phi": [0]}
# read as A2 with multiplicity 1 and phi = {a1} while numbers went through int()
FLOAT_ROW = {"name": "x", "restricted": {"type": "A", "rank": 2.9},
             "multiplicities": {"2": True}, "phi": [0.7]}
# two consistent rows of the packaged table, one per nilradical family kind
GOOD_ROWS = [
    {"name": "sl(3,C)_R", "restricted": {"type": "A", "rank": 2}, "multiplicities": {"2": 2},
     "phi": [0, 1], "nilradical": {"kind": "h", "field": "C", "n": 1}},
    {"name": "sp(3,2)", "restricted": {"type": "BC", "rank": 2},
     "multiplicities": {"1": 4, "2": 4, "4": 3}, "phi": [0],
     "nilradical": {"kind": "hprime", "field": "H", "p": 2, "q": 1}},
]
NUMBER_PATHS = [(0, "restricted", "rank"), (0, "multiplicities", "2"), (0, "phi", 1),
                (0, "nilradical", "n"), (1, "multiplicities", "4"), (1, "phi", 0),
                (1, "nilradical", "p"), (1, "nilradical", "q")]
KEYS = ("dimV", "dimZ", "brackets", "gram", "v", "z", "name", "restricted", "type",
        "rank", "multiplicities", "phi", "nilradical", "kind", "field", "n", "p", "q",
        "abelian_only", "satake_label", "notes")

scalars = st.one_of(
    st.integers(-3, 5), st.booleans(), st.none(),
    st.floats(width=16), st.text(max_size=3),
    st.sampled_from(["1/2", "-3", "1/0", "x", "H", "A", "BC", "h", "hprime", "2"]))

json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(KEYS), inner, max_size=4)),
    max_leaves=12)


def mostly(good, junk=json_values):
    """Three draws in four from `good`, the rest from `junk`."""
    return st.one_of(good, good, good, junk)


def matrices(n):
    """Square n x n matrices, mostly the identity, sometimes of the wrong size."""
    size = st.one_of(st.just(n), st.integers(0, 3))
    entry = st.one_of(st.integers(-1, 2), st.sampled_from(["1/2", "2"]), scalars)
    return st.one_of(
        st.just([[int(i == j) for j in range(n)] for i in range(n)]),
        size.flatmap(lambda k: st.lists(st.lists(entry, min_size=k, max_size=k),
                                        min_size=k, max_size=k)),
        json_values)


@st.composite
def algebra_docs(draw):
    dv, dz = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    coord = mostly(st.integers(-2, 2) | st.sampled_from(["1/2", "-1"]), scalars)
    coords = st.one_of(st.just(dz), st.just(dz), st.integers(0, 3)).flatmap(
        lambda k: st.lists(coord, min_size=k, max_size=k))
    index = mostly(st.integers(-1, dv), scalars)
    bracket = mostly(st.tuples(index, index, coords).map(list))
    doc = {"dimV": draw(mostly(st.just(dv), scalars)),
           "dimZ": draw(mostly(st.just(dz), scalars)),
           "brackets": draw(mostly(st.lists(bracket, max_size=4)))}
    if draw(st.booleans()):
        doc["gram"] = draw(mostly(st.fixed_dictionaries({"v": matrices(dv), "z": matrices(dz)})))
    return doc


def table_docs():
    number = mostly(st.integers(-1, 4), scalars)
    family = st.fixed_dictionaries({"kind": st.sampled_from(["h", "hprime", "x"]),
                                    "field": st.sampled_from(["C", "H", "O", "Z"]),
                                    "n": number, "p": number, "q": number})
    row = st.fixed_dictionaries(
        {"name": mostly(st.text(max_size=3), scalars),
         "restricted": mostly(st.fixed_dictionaries(
             {"type": mostly(st.sampled_from(["A", "B", "BC", "G2", "Z"]), scalars),
              "rank": number})),
         "multiplicities": mostly(
             st.dictionaries(st.sampled_from(["1", "2", "4", "x"]), number, max_size=3)),
         "phi": mostly(st.lists(number, max_size=3))},
        optional={"nilradical": mostly(family), "abelian_only": scalars,
                  "satake_label": scalars, "notes": scalars})
    return mostly(st.lists(row, max_size=3))


DOCUMENTS = {
    "algebra": algebra_docs().map(json.dumps),
    "table": table_docs().map(json.dumps),
    "other": st.one_of(json_values.map(json.dumps),
                       st.sampled_from([DEEP, DEEP_GRAM, SHALLOW_DEEP, "{ not json", ""])),
}
VERBS = (["verify-htype"], ["nonsingular"], ["identify"], ["probe-irreducible"],
         ["prolong", "--max-degree", "1"], ["transfer", "--gram2"], ["table", "--file"])


def run_verb(tmp_path, capsys, verb, text):
    """Exit code and stderr of one verb on a file holding `text`."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    if verb[0] == "transfer":
        base = tmp_path / "metric.json"
        if not base.exists():
            ms = make_h_prime(Tag.C, 1, 0)
            nilalg.save(str(base), ms.algebra, ms.gram_v, ms.gram_z)
        argv = ["transfer", str(base), "--gram2", str(path)]
    elif verb[0] == "table":
        argv = verb + [str(path)]
    else:
        argv = [verb[0], str(path)] + verb[1:]
    code = main(argv + ["--json"])
    return code, capsys.readouterr().err


cases = st.sampled_from(VERBS).flatmap(lambda verb: st.tuples(st.just(verb), mostly(
    DOCUMENTS["table" if verb[0] == "table" else "algebra"], DOCUMENTS["other"])))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(cases)
@example((["verify-htype"], DEEP))
@example((["prolong", "--max-degree", "1"], DEEP))
@example((["transfer", "--gram2"], DEEP))
@example((["table", "--file"], DEEP))
@example((["verify-htype"], DEEP_GRAM))
@example((["table", "--file"], "5"))
@example((["table", "--file"], '"x"'))
@example((["table", "--file"], '{"a": 1}'))
@example((["table", "--file"], "[5]"))
@example((["table", "--file"], "[[1]]"))
@example((["table", "--file"], json.dumps([dict(ROW, restricted={"type": 5, "rank": 1})])))
@example((["table", "--file"], json.dumps([dict(ROW, restricted={"type": ["A"], "rank": 1})])))
@example((["table", "--file"], json.dumps([dict(ROW, satake_label=5, notes=[1])])))
@example((["table", "--file"], json.dumps([FLOAT_ROW])))
def test_every_file_verb_keeps_the_exit_code_contract(tmp_path, capsys, case):
    code, err = run_verb(tmp_path, capsys, *case)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def test_deep_and_misshapen_inputs_exit_two(tmp_path, capsys):
    for verb in VERBS[:1] + VERBS[4:]:
        code, err = run_verb(tmp_path, capsys, list(verb), DEEP)
        assert code == 2 and "nested too deeply" in err, verb
    for text in ("5", '"x"', '{"a": 1}', "[5]", "[[1]]"):
        code, err = run_verb(tmp_path, capsys, ["table", "--file"], text)
        assert code == 2 and err.startswith("error:") and "JSON" in err, text


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(NUMBER_PATHS),
       st.one_of(st.booleans(), st.floats(width=16), st.none(),
                 st.sampled_from(["2", "1", "0"]), st.lists(st.integers(0, 2), max_size=1)))
@example((0, "restricted", "rank"), 2.0)
@example((0, "multiplicities", "2"), True)
def test_table_numbers_must_be_json_integers(tmp_path, capsys, where, value):
    # every number of a real-form row is a JSON integer: a bool, float, string
    # or list in its place exits 2 rather than being coerced
    code, _ = run_verb(tmp_path, capsys, ["table", "--file"], json.dumps(GOOD_ROWS))
    assert code == 0
    rows = json.loads(json.dumps(GOOD_ROWS))
    row, *keys, last = where
    node = rows[row]
    for key in keys:
        node = node[key]
    node[last] = value
    code, err = run_verb(tmp_path, capsys, ["table", "--file"], json.dumps(rows))
    assert code == 2 and "must be a JSON integer" in err, err
