"""Acceptance suite.

One test per criterion; each prints an `ACCEPTANCE nn PASS/FAIL` line
(visible with -s or in the captured output of a failure).  Every claim
is checked exactly; the transfer-operator suite requires exact zero
residuals.

Criterion 9 contains one sub-claim that is provably unattainable: on
h'_{1,1}(H) the reflection generators sigma_z preserve the +-1
eigenspaces of the Clifford volume element (their Z blocks have
determinant +1, and the volume element is central for a 3-dimensional
center), so no probe can certify irreducibility from them alone; the
(4p, 4q) splitting is exactly what the swap construction exists to
overcome.  That sub-claim is kept as a strict xfail, stated literally,
with the honest behaviour (an exactly verified 4-dimensional invariant
subspace, and irreducibility once the swap automorphism joins the
generators) asserted alongside.
"""

import time
from fractions import Fraction as F

import pytest

from conftest import (
    fleet_member,
    prolong_dims,
    transfer_pairs,
    unit_z,
)
from nilrad.division import Tag
from nilrad.exactlin import Matrix
from nilrad.htype import (
    GradedMap,
    build_swap_automorphism,
    identify_family,
    irreducibility_probe,
    is_htype,
    make_h,
    make_h_prime,
    sigma_automorphism,
    transfer_operator,
)
from nilrad.prolong import prolong
from nilrad.rootsys import (
    ParabolicChoice,
    a1_exception_report,
    build,
    load_table,
    nilradical_profile,
    phi_height,
    scan,
    scan_standard_types,
)

AMBIENT_DIMENSIONS = {
    "F4(-20)": 52,     # ambient of h'_{1,0}(O)
    "sp(2,2)": 36,     # ambient of h'_{1,1}(H)
    "sl(3,H)": 35,     # ambient of h_1(H)
    "E6(-26)": 78,     # ambient of h_1(O)
}


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_constructor_fleet():
    t0 = time.monotonic()
    ok = True
    for tag in (Tag.R, Tag.C, Tag.H):
        for n in (1, 2, 3):
            ms = make_h(tag, n)
            d = tag.dim
            ok &= (ms.algebra.dim_v, ms.algebra.dim_z) == (2 * n * d, d)
            ok &= is_htype(ms)
    ms = make_h(Tag.O, 1)
    ok &= (ms.algebra.dim_v, ms.algebra.dim_z) == (16, 8) and is_htype(ms)
    for tag in (Tag.C, Tag.H):
        d = tag.dim
        for total in range(1, 5):
            for p in range(total + 1):
                ms = make_h_prime(tag, p, total - p)
                ok &= (ms.algebra.dim_v, ms.algebra.dim_z) == (total * d, d - 1)
                ok &= is_htype(ms)
    ms = make_h_prime(Tag.O, 1, 0)
    ok &= (ms.algebra.dim_v, ms.algebra.dim_z) == (8, 7) and is_htype(ms)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(1, ok, f"all family constructors pass the exact Clifford check "
                  f"with the declared layer dims ({elapsed:.1f}s < 10s)")


def test_criterion_02_classification_scan():
    t0 = time.monotonic()
    reports = scan_standard_types(8)
    ok = reports["A1"].passing == ()
    for name, rep in reports.items():
        if name == "A1":
            continue
        ok &= len(rep.orbits) == 1
    for n in range(2, 9):
        ok &= reports[f"A{n}"].passing == ((0, n - 1),)
    for n in range(2, 9):
        ok &= reports[f"C{n}"].passing == ((0,),)
    for n in range(1, 9):
        ok &= reports[f"BC{n}"].passing == ((0,),)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(2, ok, f"exactly one orbit passes for every scanned type except A1 "
                  f"(none); A_n -> {{a1, an}}, C_n/BC_n -> {{a1}} ({elapsed:.1f}s < 60s)")


def test_criterion_03_a1_exception():
    ok = scan("A", 1).passing == ()
    a1 = build("A", 1)
    pc = ParabolicChoice(a1, frozenset({0}))
    ok &= max(phi_height(pc, i) for i in a1.positives) == 1
    rep = a1_exception_report(load_table())
    ok &= rep.a1_rows_all_so_n1 and rep.so_rows_all_a1 and rep.a1_max_height_one
    ok &= rep.a1_rows == ("so(2,1)", "so(3,1)", "so(5,1)")
    report(3, ok, "A1 passes nothing, its unique grading is abelian, and the "
                  "curated table flags exactly the so(n,1) rows as A1")


def test_criterion_04_nilradical_profiles():
    table = {e.name: e for e in load_table()}
    expected = {
        "sl(3,H)": (8, 4),      # h_{n-1}(H) at n = 2: (8(n-1), 4)
        "sl(4,H)": (16, 4),     # n = 3
        "sp(2,1)": (4, 3),      # h'_{p,q}(H): (4(p+q), 3)
        "sp(3,1)": (8, 3),
        "sp(2,2)": (8, 3),
        "sp(3,2)": (12, 3),
        "EIV": (16, 8),         # h_1(O)
        "FII": (8, 7),          # h'_{1,0}(O)
    }
    ok = True
    for name, dims in expected.items():
        prof = nilradical_profile(table[name])
        ok &= (prof.dim_v, prof.dim_z) == dims
        ok &= table[name].nilradical.dims() == dims
    report(4, ok, "profiles match the named identifications: sl(n+1,H), "
                  "sp(p+1,q+1), EIV, FII")


def test_criterion_05_prolongation_dimensions():
    ok = True
    cases = [
        ("hp10O", (22, 8, 7, 0), "F4(-20)", 600.0),
        ("hp11H", (14, 8, 3, 0), "sp(2,2)", 600.0),
        ("h1H", (11, 8, 4, 0), "sl(3,H)", 600.0),
        ("h1O", (30, 16, 8, 0), "E6(-26)", 7200.0),
    ]
    for key, want, ambient, budget in cases:
        t0 = time.monotonic()
        dims, verdict, last = prolong_dims(key, 3)
        elapsed = time.monotonic() - t0
        ms = fleet_member(key)
        nv, nz = ms.algebra.dim_v, ms.algebra.dim_z
        ok &= dims == want
        ok &= verdict == "nontrivial_finite" and last == 2
        # independent bookkeeping oracle against the ambient simple algebra
        ok &= dims[1] == nv and dims[2] == nz
        ok &= AMBIENT_DIMENSIONS[ambient] == 2 * (nv + nz) + dims[0]
        ok &= AMBIENT_DIMENSIONS[ambient] == nv + nz + dims[0] + dims[1] + dims[2]
        ok &= elapsed < budget
    report(5, ok, "exact layer dims (22,8,7,0), (14,8,3,0), (11,8,4,0), "
                  "(30,16,8,0) all match the ambient-dimension bookkeeping")


def test_criterion_06_finite_type_negatives():
    dims5, verdict5, _ = prolong_dims("cliff5", 1)
    dims7, verdict7, _ = prolong_dims("cliff7x2", 1)
    ok = dims5[1] == 0 and verdict5 == "trivial_at_degree_1"
    ok &= dims7[1] == 0 and verdict7 == "trivial_at_degree_1"
    report(6, ok, "g1 = 0 exactly for R^8+R^5 (center dim 5) and O^2+Im O "
                  "(center dim 7, H-type, outside the families)")


def test_criterion_07_infinite_type_positives():
    def monomials(k):
        target = k + 2
        return sum(1 for a in range(target + 1) for b in range(target + 1)
                   for c in range(target // 2 + 1) if a + b + 2 * c == target)

    res = prolong(fleet_member("hp10C").algebra, 4, stop_when_zero=False)
    ok = res.dims() == [4, 6, 9, 12, 16]
    ok &= res.dims() == [monomials(k) for k in range(5)]
    res_c = prolong(fleet_member("h1C").algebra, 3, stop_when_zero=False)
    ok &= res_c.dims()[3] > 0
    ok &= (fleet_member("h1C").algebra.dim_v,
           fleet_member("h1C").algebra.dim_z) == (4, 2)
    report(7, ok, "h'_1(C) layers (4,6,9,12,16) match the weighted-monomial "
                  "oracle; h_1(C) has g3 > 0")


def test_criterion_08_transfer_suite():
    ms1 = fleet_member("h1H")
    ok = True
    for ms2 in transfer_pairs():
        op, rep = transfer_operator(ms1, ms2, 128)
        ok &= rep.ok
        ok &= (rep.residual_automorphism, rep.residual_center,
               rep.residual_metric, rep.residual_lambda_sq) == (0, 0, 0, 0)
        # lambda^2 against the center Gram ratio, exactly
        ok &= rep.lam_sq == F(ms2.gram_z[0, 0], ms1.gram_z[0, 0])
    report(8, ok, "20 seeded random H-type metric pairs on h_1(H): transfer "
                  "operator certifies with exact zero residuals")


def test_criterion_09_automorphism_suite():
    families = ["h1C", "hp10C", "h1H", "hp11H", "h1O", "hp10O"]
    ok = True
    for key in families:
        ms = fleet_member(key)
        for a in range(ms.algebra.dim_z):
            sigma_automorphism(ms, unit_z(ms, a))    # hard error on failure
    ms = fleet_member("hp10C")
    ok &= irreducibility_probe(ms, [sigma_automorphism(ms, unit_z(ms, 0))]).kind \
        == "irreducible"
    ms = fleet_member("hp10O")
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(7)]
    ok &= irreducibility_probe(ms, gens).kind == "irreducible"
    ms = fleet_member("cliff7x2")
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(7)]
    verdict = irreducibility_probe(ms, gens)
    ok &= verdict.kind == "reducible" and len(verdict.invariant_subspace) == 8
    support = {i for vec in verdict.invariant_subspace for i, c in enumerate(vec) if c}
    ok &= support <= set(range(8)) or support <= set(range(8, 16))
    report(9, ok, "sigma automorphisms verify exactly on all six families; "
                  "probes: h'_1(C) and h'_{1,0}(O) irreducible, O^2+Im O "
                  "reducible with a module-block witness (h'_{1,1}(H) "
                  "sub-claim tracked separately, see the xfail test)")


@pytest.mark.xfail(strict=True, reason=(
    "stated literally, this cannot hold: sigma generators have volume-"
    "preserving Z blocks, so on the (1,1) signature they leave the 4-dim "
    "volume eigenspaces invariant; irreducibility needs the swap automorphism"))
def test_criterion_09_hp11H_sigma_only_as_stated():
    ms = fleet_member("hp11H")
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(3)]
    verdict = irreducibility_probe(ms, gens, seed=0)
    print(f"ACCEPTANCE 09 FAIL (as stated): h'_{{1,1}}(H) sigma-only probe "
          f"returns {verdict.kind} with a "
          f"{len(verdict.invariant_subspace or ())}-dim invariant subspace")
    assert verdict.kind == "irreducible"


def test_criterion_09_hp11H_swap_restores_irreducibility():
    # the honest counterpart: the sigma-only witness is real and exactly
    # verified, and adjoining a verified swap automorphism between the two
    # signature blocks makes the action irreducible
    ms = fleet_member("hp11H")
    gens = [sigma_automorphism(ms, unit_z(ms, a)) for a in range(3)]
    verdict = irreducibility_probe(ms, gens)
    assert verdict.kind == "reducible" and len(verdict.invariant_subspace) == 4
    rows = [[F(0)] * 8 for _ in range(8)]
    for u in range(4):
        sign = 1 if u == 0 else -1
        rows[4 + u][u] = F(sign)
        rows[u][4 + u] = F(sign)
    theta = GradedMap(Matrix.from_rows(rows), Matrix.identity(3).scale(-1))
    v1 = [[F(1 if i == k else 0) for i in range(8)] for k in range(4)]
    v2 = [[F(1 if i == k else 0) for i in range(8)] for k in range(4, 8)]
    res = build_swap_automorphism(ms, v1, v2, theta)
    assert res
    assert irreducibility_probe(ms, gens + [res.automorphism]).kind \
        == "irreducible"


def test_criterion_10_three_way_consistency():
    table = load_table()
    in_table_families = [e.nilradical for e in table if e.nilradical is not None]
    ok = True
    for key, degree in [("hp10C", 1), ("h1C", 1), ("h1H", 3),
                        ("hp11H", 3), ("h1O", 3), ("hp10O", 3)]:
        ms = fleet_member(key)
        dims, _, _ = prolong_dims(key, degree)
        ok &= dims[1] > 0
        fid = identify_family(ms.algebra)
        ok &= fid.kind != "other"
        ok &= any(fid.equivalent(t) for t in in_table_families)
    for key in ("cliff5", "cliff7x2"):
        ms = fleet_member(key)
        dims, _, _ = prolong_dims(key, 1)
        ok &= dims[1] == 0
        fid = identify_family(ms.algebra)
        ok &= fid.kind == "other"
        ok &= not any(fid.equivalent(t) for t in in_table_families
                      if fid.kind == t.kind)
    report(10, ok, "every family instance has g1 > 0 and appears in the "
                   "curated table; every H-type instance outside the families "
                   "has g1 = 0 and identifies as other")
