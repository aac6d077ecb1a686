import itertools
import json
import tracemalloc
from fractions import Fraction as F
from importlib.resources import files

import pytest

from nilrad import rootsys
from nilrad.cli import main
from nilrad.division import Tag
from nilrad.htype import HTypeFamilyId
from nilrad.rootsys import (
    MAX_ROOTS,
    ParabolicChoice,
    RealFormEntry,
    RootSystemResourceError,
    _ROOT_COUNTS,
    a1_exception_report,
    build,
    diagram_automorphisms,
    is_nonsingular_combinatorial,
    is_two_step,
    load_table,
    nilradical_profile,
    phi_height,
    render_table,
    scan,
    scan_standard_types,
)


def pc(system, *positions):
    return ParabolicChoice(system, frozenset(positions))


def ambient_index(rs):
    """Root index by ambient coordinates."""
    return {r: i for i, r in enumerate(rs.roots)}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_a2_classical_data():
    rs = build("A", 2)
    assert len(rs.roots) == 6
    assert rs.expansions[rs.highest] == (1, 1)


def test_bc1_roots_and_highest():
    rs = build("BC", 1)
    assert sorted(rs.expansions) == [(-2,), (-1,), (1,), (2,)]
    assert rs.expansions[rs.highest] == (2,)


def test_g2_highest_root_and_short_first_simple():
    rs = build("G2", 2)
    assert len(rs.roots) == 12
    assert rs.expansions[rs.highest] == (3, 2)
    a1, a2 = rs.simples
    assert rs.length_sq(a1) < rs.length_sq(a2)


def test_root_counts_exceptional():
    for tag, count in [("F4", 48), ("E6", 72), ("E7", 126), ("E8", 240)]:
        assert len(build(tag, int(tag[1])).roots) == count


def test_highest_root_dominates_every_positive_root():
    for tag, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("BC", 2),
                      ("G2", 2), ("F4", 4)]:
        rs = build(tag, rank)
        top = rs.expansions[rs.highest]
        for i in rs.positives:
            assert all(t >= e for t, e in zip(top, rs.expansions[i]))


def test_invalid_ranks_rejected():
    for tag, rank in [("A", 0), ("B", 1), ("D", 3), ("BC", 0), ("A", -100),
                      ("G2", 3), ("E6", 5), ("E8", 100_000), ("X", 2)]:
        with pytest.raises(ValueError):
            build(tag, rank)


def test_closed_under_negation():
    rs = build("F4", 4)
    roots = set(rs.roots)
    assert all(tuple(-c for c in r) in roots for r in rs.roots)


def test_lengths_match_the_ambient_view():
    for rep in scan_standard_types(8).values():
        rs = rep.system
        for i, r in enumerate(rs.roots):
            assert rs.length_sq(i) == sum(c * c for c in r)


@pytest.mark.parametrize("tag, count", [("A", 930), ("B", 1800), ("C", 1800),
                                        ("D", 1740), ("BC", 1860)])
def test_root_counts_at_rank_30(tag, count):
    assert len(build(tag, 30).expansions) == _ROOT_COUNTS[tag](30) == count
    assert count <= MAX_ROOTS


def test_build_is_shared_per_type_and_rank():
    assert build("E8", 8) is build("E8", 8)


def test_root_count_guard_trips_before_building():
    with pytest.raises(RootSystemResourceError, match="A at rank 100000 has 10000100000 roots"):
        build("A", 100_000)
    built = build.cache_info()
    with pytest.raises(RootSystemResourceError, match="above the ceiling"):
        scan_standard_types(500)
    assert build.cache_info() == built


def test_scan_standard_types_checks_a_huge_sweep_in_little_memory():
    # the sweep is walked lazily: no list of its ~5 N (type, rank) pairs is built first
    tracemalloc.start()
    try:
        with pytest.raises(RootSystemResourceError, match="^A at rank 71 has 5112 roots"):
            scan_standard_types(10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _all_roots_closure(type_tag, rank):
    """Reference construction: every reflection on every root, then the roots sorted.

    The simple roots are closed under all s_i over all roots, negative ones
    included; the positive roots are read off the signs and the highest
    root off the heights.
    """
    doubled = rootsys._doubled_simple_roots(type_tag, rank)
    gram4 = [[sum(x * y for x, y in zip(s, t)) for t in doubled] for s in doubled]
    cartan = [[F(2 * gram4[k][i], gram4[i][i]) for i in range(rank)] for k in range(rank)]
    units = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    length4 = {e: gram4[i][i] for i, e in enumerate(units)}
    frontier = list(units)
    while frontier:
        beta = frontier.pop()
        for i in range(rank):
            c = sum(b * cartan[k][i] for k, b in enumerate(beta))
            img = tuple(b - c * (k == i) for k, b in enumerate(beta))
            if img not in length4:
                length4[img] = length4[beta]
                frontier.append(img)
    if type_tag == "BC":
        shortest = min(length4.values())
        for e, n in list(length4.items()):
            if n == shortest:
                length4[tuple(2 * x for x in e)] = 4 * n
    expansions = sorted(tuple(int(x) for x in e) for e in length4)
    positives = tuple(i for i, e in enumerate(expansions) if min(e) >= 0)
    highest = max(positives, key=lambda i: sum(expansions[i]))
    gamma = expansions[highest]
    index = {e: i for i, e in enumerate(expansions)}
    gamma_minus = {i: index.get(tuple(g - a for g, a in zip(gamma, expansions[i])))
                   for i in positives}
    return {"expansions": tuple(expansions),
            "length4": tuple(length4[e] for e in expansions),
            "simples": tuple(index[u] for u in units),
            "positives": positives, "highest": highest, "gamma_minus": gamma_minus}


def _systems_to_rank(max_rank):
    systems = [("A", n) for n in range(1, max_rank + 1)]
    systems += [(t, n) for n in range(2, max_rank + 1) for t in ("B", "C")]
    systems += [("D", n) for n in range(4, max_rank + 1)]
    systems += [("BC", n) for n in range(1, max_rank + 1)]
    return systems + [(name, int(name[1])) for name in ("G2", "F4", "E6", "E7", "E8")]


@pytest.mark.parametrize("tag, rank", _systems_to_rank(12), ids=lambda x: str(x))
def test_positive_closure_matches_the_all_roots_closure(tag, rank):
    rs = build(tag, rank)
    want = _all_roots_closure(tag, rank)
    got = {field: getattr(rs, field) for field in want}
    assert got == want
    assert len(rs.positives) * 2 == len(rs.expansions) == _ROOT_COUNTS[tag](rank)


@pytest.fixture
def a2_on_a_non_base(monkeypatch):
    """A2 built on {a_1, a_1 + a_2}: integral Cartan numbers, but not a base."""
    real = rootsys._doubled_simple_roots

    def doubled(type_tag, rank):
        if (type_tag, rank) != ("A", 2):
            return real(type_tag, rank)
        a1, a2 = real(type_tag, rank)
        return [a1, tuple(x + y for x, y in zip(a1, a2))]

    monkeypatch.setattr(rootsys, "_doubled_simple_roots", doubled)
    build.cache_clear()
    yield
    build.cache_clear()


def test_a_reflection_off_the_positive_roots_raises(a2_on_a_non_base, capsys):
    with pytest.raises(ArithmeticError, match=r"A2: s_1 sends the positive root \(0, 1\) "
                                              r"to \(-1, 1\), which is not positive"):
        build("A", 2)
    assert main(["classify", "--type", "A", "--rank", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "not positive" in out.err and "Traceback" not in out.err


# ---------------------------------------------------------------------------
# heights and the two predicates
# ---------------------------------------------------------------------------

def test_phi_height_examples():
    a3 = build("A", 3)
    assert phi_height(pc(a3, 0, 2), a3.highest) == 2
    assert all(phi_height(pc(a3), i) == 0 for i in range(len(a3.roots)))
    bc2 = build("BC", 2)
    two_e1 = bc2.roots.index((F(2), F(0)))
    assert bc2.expansions[two_e1] == (2, 2)
    assert phi_height(pc(bc2, 0), two_e1) == 2


def test_phi_height_additive_on_root_differences():
    for tag, rank in [("A", 3), ("B", 3), ("C", 3), ("BC", 2), ("G2", 2), ("F4", 4)]:
        rs = build(tag, rank)
        gamma = rs.roots[rs.highest]
        index = ambient_index(rs)
        for phi_positions in itertools.chain.from_iterable(
                itertools.combinations(range(rs.rank), k) for k in (1, 2)):
            choice = pc(rs, *phi_positions)
            hg = phi_height(choice, rs.highest)
            for i, alpha in enumerate(rs.roots):
                diff = tuple(g - a for g, a in zip(gamma, alpha))
                j = index.get(diff)
                if j is not None:
                    assert hg == phi_height(choice, i) + phi_height(choice, j)


def test_two_step_predicate():
    a2 = build("A", 2)
    assert is_two_step(pc(a2, 0, 1))
    assert not is_two_step(pc(a2, 0))
    a1 = build("A", 1)
    assert not is_two_step(pc(a1, 0))
    with pytest.raises(ValueError):
        is_two_step(pc(a2))


def test_nonsingular_predicate_examples():
    a3 = build("A", 3)
    assert is_two_step(pc(a3, 0, 2)) and is_nonsingular_combinatorial(pc(a3, 0, 2))
    assert is_two_step(pc(a3, 0, 1)) and not is_nonsingular_combinatorial(pc(a3, 0, 1))
    bc1 = build("BC", 1)
    assert is_two_step(pc(bc1, 0)) and is_nonsingular_combinatorial(pc(bc1, 0))


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_a1_is_empty():
    assert scan("A", 1).passing == ()


def test_scan_type_a_endpoints():
    for n in range(2, 6):
        rep = scan("A", n)
        assert rep.passing == ((0, n - 1),)
        assert rep.unique_up_to_automorphism


def test_scan_type_c_and_bc_first_node():
    for n in range(2, 6):
        assert scan("C", n).passing == ((0,),)
    for n in range(1, 6):
        assert scan("BC", n).passing == ((0,),)


def test_scan_exceptional_types():
    assert scan("G2", 2).passing == ((1,),)
    assert scan("F4", 4).passing == ((0,),)
    assert scan("E6", 6).passing == ((1,),)
    assert scan("E7", 7).passing == ((0,),)
    assert scan("E8", 8).passing == ((7,),)


def test_scan_passing_set_is_union_of_orbits():
    for tag, rank in [("A", 4), ("D", 4), ("E6", 6), ("BC", 3)]:
        rep = scan(tag, rank)
        autos = diagram_automorphisms(rep.system)
        passing = set(rep.passing)
        for phi in rep.passing:
            for g in autos:
                assert tuple(sorted(g[i] for i in phi)) in passing


def test_diagram_automorphism_groups():
    assert len(diagram_automorphisms(build("A", 3))) == 2
    assert len(diagram_automorphisms(build("D", 4))) == 6
    assert len(diagram_automorphisms(build("D", 5))) == 2
    assert len(diagram_automorphisms(build("E6", 6))) == 2
    assert len(diagram_automorphisms(build("BC", 3))) == 1
    assert len(diagram_automorphisms(build("F4", 4))) == 1


def _ambient_nonsingular(choice):
    """The non-singularity predicate on ambient coordinates, root by root."""
    rs = choice.system
    gamma = rs.roots[rs.highest]
    index = ambient_index(rs)
    for i in rs.positives:
        if phi_height(choice, i) == 1:
            j = index.get(tuple(g - a for g, a in zip(gamma, rs.roots[i])))
            if j is None or phi_height(choice, j) != 1:
                return False
    return True


def _brute_force_scan(rs):
    """Every nonempty Phi in size-then-lex order, and its orbits."""
    passing = [combo for size in range(1, rs.rank + 1)
               for combo in itertools.combinations(range(rs.rank), size)
               if is_two_step(pc(rs, *combo)) and _ambient_nonsingular(pc(rs, *combo))]
    autos = diagram_automorphisms(rs)
    seen, orbits = set(), []
    for phi in passing:
        if phi not in seen:
            orbit = [o for o in sorted({tuple(sorted(g[i] for i in phi)) for g in autos})
                     if o in passing]
            seen.update(orbit)
            orbits.append(tuple(orbit))
    return tuple(sorted(passing)), tuple(orbits)


def test_scan_matches_brute_force_subset_scan():
    for name, rep in scan_standard_types(10).items():
        assert (rep.passing, rep.orbits) == _brute_force_scan(rep.system), name


@pytest.mark.parametrize("tag, survivor", [("A", None), ("B", (1,)), ("C", (0,)),
                                           ("D", (1,)), ("BC", (0,))],
                         ids=["A", "B", "C", "D", "BC"])
def test_survivor_pattern_to_rank_30(tag, survivor):
    for n in range(9, 31):
        assert scan(tag, n).passing == ((survivor or (0, n - 1)),), f"{tag}{n}"


def test_scan_standard_types_summary():
    reports = scan_standard_types(4)
    assert reports["A1"].passing == ()
    for name, rep in reports.items():
        if name != "A1":
            assert len(rep.orbits) == 1


# ---------------------------------------------------------------------------
# curated table
# ---------------------------------------------------------------------------

def test_table_loads_and_validates():
    table = load_table()
    names = [e.name for e in table]
    assert "FII" in names and "EIV" in names and "sp(2,2)" in names


def test_named_profiles():
    table = {e.name: e for e in load_table()}
    cases = {
        "sl(3,H)": (8, 4), "sl(4,H)": (16, 4),
        "sp(2,1)": (4, 3), "sp(3,1)": (8, 3), "sp(2,2)": (8, 3), "sp(3,2)": (12, 3),
        "EIV": (16, 8), "FII": (8, 7),
    }
    for name, dims in cases.items():
        prof = nilradical_profile(table[name])
        assert (prof.dim_v, prof.dim_z) == dims


def test_profile_matches_family_formula():
    for e in load_table():
        if e.nilradical is not None:
            prof = nilradical_profile(e)
            assert (prof.dim_v, prof.dim_z) == e.nilradical.dims()


def test_inconsistent_row_fails_loudly():
    bad = RealFormEntry(
        name="bogus", restricted_type="BC", restricted_rank=1,
        multiplicities={1: 8, 4: 7}, phi=(0,), satake_label="",
        nilradical=HTypeFamilyId("hprime", Tag.H, (1, 0)))
    with pytest.raises(ValueError, match="bogus"):
        nilradical_profile(bad)


def test_a1_exception_report(tmp_path):
    rep = a1_exception_report(load_table())
    assert rep.a1_rows == ("so(2,1)", "so(3,1)", "so(5,1)")
    assert rep.a1_rows_all_so_n1 and rep.so_rows_all_a1 and rep.a1_max_height_one
    # a row name spaced as "so(5, 1)" is still an so(n,1) row
    rows = json.loads(files("nilrad").joinpath("data/real_forms.json").read_text())
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps([dict(r, name="so(5, 1)") if r["name"] == "so(5,1)" else r
                                for r in rows]))
    rep = a1_exception_report(load_table(str(path)))
    assert rep.a1_rows == ("so(2,1)", "so(3,1)", "so(5, 1)")
    assert rep.a1_rows_all_so_n1 and rep.so_rows_all_a1 and rep.a1_max_height_one


def test_bc1_row_is_not_abelian():
    # contrast with A1: on BC1 the doubled root has Phi-height 2
    bc1 = build("BC", 1)
    choice = pc(bc1, 0)
    assert max(phi_height(choice, i) for i in bc1.positives) == 2


def test_table_computes_each_profile_once(monkeypatch, capsys):
    real, calls = rootsys.nilradical_profile, []
    monkeypatch.setattr(rootsys, "nilradical_profile", lambda e: calls.append(e) or real(e))
    rows = len(load_table())
    for argv in (["table"], ["table", "--json"]):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == rows == 20
    capsys.readouterr()


def test_render_table_mentions_exception():
    text = render_table(load_table())
    assert "FII" in text and "abelian" in text and "so(n,1)" in text
