"""Command-line front-end.

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage or input
error, 3 resource guard tripped or verdict inconclusive.  Every verb
takes --json for machine-readable output on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from . import nilalg
from .division import Tag
from .exactlin import Matrix, rat_str
from .htype import (
    MetricStructure,
    identify_family,
    is_htype,
    make_h,
    make_h_prime,
    sigma_automorphism,
    irreducibility_probe,
    transfer_operator,
)
from .nilalg import is_nonsingular
from .prolong import ProlongationResourceError, prolong
from .rootsys import (
    a1_exception_report,
    load_table,
    render_table,
    scan,
    scan_standard_types,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _emit(doc: dict, as_json: bool, text: str) -> None:
    if as_json:
        json.dump(doc, sys.stdout, indent=1, default=str)
        sys.stdout.write("\n")
    else:
        print(text)


def _load_metric(path: str) -> MetricStructure:
    alg, gv, gz = nilalg.load(path)
    if gv is None:
        gv = Matrix.identity(alg.dim_v)
    if gz is None:
        gz = Matrix.identity(alg.dim_z)
    return MetricStructure(alg, gv, gz)


def _cmd_construct(args) -> int:
    tag = Tag.parse(args.field)
    if args.family == "h":
        if args.n is None:
            raise ValueError("--family h requires --n")
        ms = make_h(tag, args.n)
    else:
        if args.p is None:
            raise ValueError("--family hprime requires --p (and optionally --q)")
        ms = make_h_prime(tag, args.p, args.q or 0)
    alg = ms.algebra
    if args.name:
        alg = nilalg.TwoStepAlgebra(args.name, alg.dim_v, alg.dim_z, alg.brackets)
    doc = nilalg.to_json(alg, ms.gram_v, ms.gram_z)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {alg.name}: dims ({alg.dim_v}, {alg.dim_z}) -> {args.output}")
    else:
        json.dump(doc, sys.stdout, indent=1)
        sys.stdout.write("\n")
    return EXIT_OK


def _cmd_verify_htype(args) -> int:
    ms = _load_metric(args.file)
    ok = is_htype(ms)
    _emit({"command": "verify-htype", "file": args.file, "htype": ok},
          args.json, f"{ms.algebra.name}: H-type = {ok}")
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_nonsingular(args) -> int:
    alg, gv, gz = nilalg.load(args.file)
    verdict = is_nonsingular(alg, trials=args.trials, seed=args.seed,
                             gram_v=gv, gram_z=gz)
    doc = {"command": "nonsingular", "file": args.file, "verdict": verdict.kind,
           "certificate": verdict.certificate}
    if verdict.witness is not None:
        doc["witness"] = [rat_str(c) for c in verdict.witness.v_part]
    _emit(doc, args.json, f"{alg.name}: {verdict.kind} ({verdict.certificate})")
    if verdict.kind == "nonsingular":
        return EXIT_OK
    if verdict.kind == "singular":
        return EXIT_FALSE
    return EXIT_GUARD


def _cmd_classify(args) -> int:
    report = scan(args.type, args.rank)
    passing = [[i + 1 for i in phi] for phi in report.passing]
    doc = {"command": "classify", "type": args.type, "rank": args.rank,
           "passing": passing,
           "orbits": [[[i + 1 for i in phi] for phi in orbit]
                      for orbit in report.orbits],
           "unique_up_to_automorphism": report.unique_up_to_automorphism}
    if passing:
        txt = f"{report.system.label}: " + "; ".join(
            "{" + ", ".join(f"a{i}" for i in phi) + "}" for phi in passing)
        txt += f"  ({len(report.orbits)} orbit(s) under diagram automorphisms)"
    else:
        txt = f"{report.system.label}: none"
    _emit(doc, args.json, txt)
    return EXIT_OK


def _cmd_scan_all(args) -> int:
    reports = scan_standard_types(args.max_rank)
    rows = []
    ok = True
    for name, rep in sorted(reports.items()):
        expected_none = name == "A1"
        good = (not rep.passing) if expected_none else len(rep.orbits) == 1
        ok &= good
        rows.append({"system": name,
                     "passing": [[i + 1 for i in phi] for phi in rep.passing],
                     "orbits": len(rep.orbits)})
    doc = {"command": "scan-all", "max_rank": args.max_rank,
           "unique_everywhere_except_A1": ok, "systems": rows}
    lines = [f"{r['system']}: " + (", ".join("{" + ",".join(f"a{i}" for i in phi) + "}"
                                             for phi in r["passing"]) or "none")
             for r in rows]
    lines.append(f"unique orbit everywhere except A1 (which has none): {ok}")
    _emit(doc, args.json, "\n".join(lines))
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_table(args) -> int:
    table = load_table(args.file)
    rep = a1_exception_report(table)
    if args.json:
        doc = {"command": "table", "rows": render_table(table, as_json=True),
               "a1_exception": {"a1_rows": list(rep.a1_rows),
                                "a1_rows_all_so_n1": rep.a1_rows_all_so_n1,
                                "so_rows_all_a1": rep.so_rows_all_a1,
                                "a1_max_height_one": rep.a1_max_height_one}}
        _emit(doc, True, "")
    else:
        print(render_table(table))
    return EXIT_OK


def _cmd_prolong(args) -> int:
    alg, _, _ = nilalg.load(args.file)
    result = prolong(alg, args.max_degree, stop_when_zero=args.stop_when_zero,
                     max_unknowns=args.max_unknowns, max_entries=args.max_entries)
    dims = result.dims()
    doc = {"command": "prolong", "file": args.file, "name": alg.name,
           "dims": dims, "verdict": result.verdict,
           "last_nonzero_degree": result.last_nonzero}
    if args.basis:
        doc["layers"] = [
            {"degree": layer.degree,
             "basis": [{"v_block": nilalg.matrix_to_json(m1),
                        "z_block": nilalg.matrix_to_json(m2)}
                       for (m1, m2) in layer.basis]}
            for layer in result.layers]
    txt = (f"{alg.name}: layer dims {dims} (degrees 0..{len(dims)-1}), "
           f"verdict {result.verdict}")
    if result.last_nonzero is not None:
        txt += f" (last nonzero degree {result.last_nonzero})"
    _emit(doc, args.json, txt)
    return EXIT_OK


def _cmd_transfer(args) -> int:
    ms1 = _load_metric(args.file)
    with open(args.gram2, encoding="utf-8") as fh:
        doc2 = json.load(fh)
    gram = doc2.get("gram", doc2) if isinstance(doc2, dict) else doc2
    try:
        gv = nilalg.matrix_from_json(gram["v"])
        gz = nilalg.matrix_from_json(gram["z"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.gram2}: malformed gram block: {exc}") from exc
    ms2 = MetricStructure(ms1.algebra, gv, gz)
    op, rep = transfer_operator(ms1, ms2, args.precision)
    doc = {"command": "transfer", "file": args.file, "gram2": args.gram2,
           "precision": rep.precision, "exact": rep.exact, "lambda": str(rep.lam),
           "residual_automorphism": rep.residual_automorphism,
           "residual_center": rep.residual_center,
           "residual_metric": rep.residual_metric,
           "residual_lambda_sq": rep.residual_lambda_sq,
           "tolerance": rep.tolerance, "ok": rep.ok}
    txt = (f"{ms1.algebra.name}: transfer lambda = {rep.lam} "
           f"({'exact' if rep.exact else f'{rep.precision}-bit'}), "
           f"max residual {max(rep.residual_automorphism, rep.residual_center, rep.residual_metric):.3g}, "
           f"ok = {rep.ok}")
    _emit(doc, args.json, txt)
    return EXIT_OK if rep.ok else EXIT_FALSE


def _cmd_identify(args) -> int:
    ms = _load_metric(args.file)
    fid = identify_family(ms)
    doc = {"command": "identify", "file": args.file, "family": str(fid),
           "kind": fid.kind,
           "field": fid.tag.name if fid.tag else None,
           "params": list(fid.params)}
    _emit(doc, args.json, f"{ms.algebra.name}: {fid}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    ms = _load_metric(args.file)
    gens = []
    for a in range(ms.algebra.dim_z):
        z = [Fraction(1 if b == a else 0) for b in range(ms.algebra.dim_z)]
        if ms.ip_z(z, z) == 1:
            gens.append(sigma_automorphism(ms, z))
    verdict = irreducibility_probe(ms, gens, trials=args.trials, seed=args.seed)
    doc = {"command": "probe-irreducible", "file": args.file,
           "verdict": verdict.kind, "detail": verdict.detail}
    if verdict.invariant_subspace is not None:
        doc["invariant_subspace_dim"] = len(verdict.invariant_subspace)
    _emit(doc, args.json, f"{ms.algebra.name}: {verdict.kind} ({verdict.detail})")
    if verdict.kind == "irreducible":
        return EXIT_OK
    if verdict.kind == "reducible":
        return EXIT_FALSE
    return EXIT_GUARD


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nilrad",
        description="Heisenberg-type nilpotent Lie algebras: construction, "
                    "verification, classification, prolongation.")
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("construct", help="build a family member and emit its file")
    c.add_argument("--family", choices=["h", "hprime"], required=True)
    c.add_argument("--field", choices=["R", "C", "H", "O"], required=True)
    c.add_argument("--n", type=int)
    c.add_argument("--p", type=int)
    c.add_argument("--q", type=int, default=0)
    c.add_argument("--name")
    c.add_argument("-o", "--output")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify-htype", help="check the Clifford relations exactly")
    v.add_argument("file")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify_htype)

    ns = sub.add_parser("nonsingular", help="certificate/witness non-singularity check")
    ns.add_argument("file")
    ns.add_argument("--trials", type=int, default=64)
    ns.add_argument("--seed", type=int, default=0)
    ns.add_argument("--json", action="store_true")
    ns.set_defaults(func=_cmd_nonsingular)

    cl = sub.add_parser("classify", help="scan one root system for admissible gradings")
    cl.add_argument("--type", required=True,
                    choices=["A", "B", "C", "D", "BC", "G2", "F4", "E6", "E7", "E8"])
    cl.add_argument("--rank", type=int, required=True)
    cl.add_argument("--json", action="store_true")
    cl.set_defaults(func=_cmd_classify)

    sa = sub.add_parser("scan-all", help="sweep all standard types and check uniqueness")
    sa.add_argument("--max-rank", type=int, default=8)
    sa.add_argument("--json", action="store_true")
    sa.set_defaults(func=_cmd_scan_all)

    tb = sub.add_parser("table", help="emit the real-form / nilradical summary table")
    tb.add_argument("--file", help="curated table JSON (defaults to the packaged data)")
    tb.add_argument("--json", action="store_true")
    tb.set_defaults(func=_cmd_table)

    pr = sub.add_parser("prolong", help="compute Tanaka prolongation layers")
    pr.add_argument("file")
    pr.add_argument("--max-degree", type=int, required=True)
    pr.add_argument("--stop-when-zero", action="store_true")
    pr.add_argument("--max-unknowns", type=int, default=20000)
    pr.add_argument("--max-entries", type=int, default=10**8)
    pr.add_argument("--basis", action="store_true",
                    help="include layer basis matrices in JSON output")
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=_cmd_prolong)

    tr = sub.add_parser("transfer", help="transfer operator between two H-type metrics")
    tr.add_argument("file")
    tr.add_argument("--gram2", required=True)
    tr.add_argument("--precision", type=int, default=128)
    tr.add_argument("--json", action="store_true")
    tr.set_defaults(func=_cmd_transfer)

    idf = sub.add_parser("identify", help="classify an H-type algebra by invariants")
    idf.add_argument("file")
    idf.add_argument("--json", action="store_true")
    idf.set_defaults(func=_cmd_identify)

    pb = sub.add_parser("probe-irreducible",
                        help="irreducibility probe with the reflection automorphisms")
    pb.add_argument("file")
    pb.add_argument("--trials", type=int, default=32)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=_cmd_probe)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ProlongationResourceError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
