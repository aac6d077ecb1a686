"""Command-line front-end.

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage or input
error, 3 resource guard tripped, verdict inconclusive or an internal
exact check failed (an ArithmeticError).  Every verb
takes --json for machine-readable output on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import lru_cache
from typing import List, Optional

from . import nilalg
from .division import Tag
from .exactlin import Matrix, rat_str
from .htype import (
    DEFAULT_PRECISION,
    HTypeFamilyId,
    MAX_PRECISION,
    MIN_PRECISION,
    MetricStructure,
    identify_family,
    is_htype,
    make_h,
    make_h_prime,
    irreducibility_probe,
    transfer_operator,
)
from .nilalg import is_nonsingular
from .prolong import ProlongationResourceError, prolong
from .rootsys import (
    RootSystemResourceError,
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

# exit code of a verdict kind; any other kind ("inconclusive") is EXIT_GUARD
VERDICT_EXIT = {"nonsingular": EXIT_OK, "irreducible": EXIT_OK,
                "singular": EXIT_FALSE, "reducible": EXIT_FALSE}

# largest dimV or dimZ that construct and the metric verbs (verify-htype,
# nonsingular, transfer, identify, probe-irreducible) accept; a dense metric
# block holds dim^2 rationals
MAX_METRIC_DIM = 512


class MetricResourceError(RuntimeError):
    """Raised when a metric verb's input or a constructed family exceeds MAX_METRIC_DIM."""


def _emit(doc: dict, as_json: bool, text: str) -> None:
    if as_json:
        sys.stdout.write(json.dumps(doc, indent=1, default=str) + "\n")
    else:
        print(text)


def _json_list(items: List[str], depth: int) -> str:
    """Written JSON values as one list, laid out as `json.dumps(..., indent=1)`
    lays out a list whose closing bracket is indented by `depth`."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


class _RowJson(dict):
    """Block row (a tuple) -> its text as `nilalg.matrix_to_json` and
    `json.dumps(..., indent=1)` give it inside a prolongation basis element.
    `str` of an int or a Fraction is its `rat_str`, which needs no JSON escape,
    so a row is one join over its entries.  A basis repeats few distinct rows
    (109 of the 6,264 of `h_4(H)` to degree 3), and each is written once."""

    def __missing__(self, row) -> str:
        text = self[row] = ('[\n       "' + '",\n       "'.join(map(str, row))
                            + '"\n      ]' if row else "[]")
        return text


def _prolong_basis_json(doc: dict, layers) -> str:
    """`json.dumps(doc, indent=1, default=str) + "\n"` with `doc["layers"]` set to
    the layers' `matrix_to_json` blocks, byte for byte, written from the blocks."""
    rows = _RowJson()

    def block(m: Matrix) -> str:
        return _json_list([rows[r] for r in m.data], 5)

    text = _json_list([
        '{\n   "degree": ' + str(layer.degree) + ',\n   "basis": ' + _json_list([
            '{\n     "v_block": ' + block(v) + ',\n     "z_block": ' + block(z) + "\n    }"
            for v, z in layer.basis], 3) + "\n  }"
        for layer in layers], 1)
    return json.dumps(doc, indent=1, default=str)[:-2] + ',\n "layers": ' + text + "\n}\n"


def _check_dims(dim_v: int, dim_z: int) -> None:
    """Refuse layers above MAX_METRIC_DIM, before anything of that size is built."""
    if max(dim_v, dim_z) > MAX_METRIC_DIM:
        raise MetricResourceError(f"dimV = {dim_v}, dimZ = {dim_z} exceeds the ceiling "
                                  f"of {MAX_METRIC_DIM} per layer")


def _load_bounded(path: str):
    """nilalg.load, refusing layers above MAX_METRIC_DIM before any metric exists."""
    alg, gv, gz = nilalg.load(path)
    _check_dims(alg.dim_v, alg.dim_z)
    return alg, gv, gz


def _load_metric(path: str) -> MetricStructure:
    alg, gv, gz = _load_bounded(path)
    if gv is None:
        gv = Matrix.identity(alg.dim_v)
    if gz is None:
        gz = Matrix.identity(alg.dim_z)
    return MetricStructure(alg, gv, gz)


def _cmd_construct(args) -> int:
    if args.family == "h" and args.n is None:
        raise ValueError("--family h requires --n")
    if args.family == "hprime" and args.p is None:
        raise ValueError("--family hprime requires --p (and optionally --q)")
    params = (args.n,) if args.family == "h" else (args.p, args.q or 0)
    fid = HTypeFamilyId(args.family, Tag.parse(args.field), params)   # validates the parameters
    _check_dims(*fid.dims())
    ms = (make_h if args.family == "h" else make_h_prime)(fid.tag, *params)
    alg = ms.algebra
    if args.name:
        alg = nilalg.TwoStepAlgebra(args.name, alg.dim_v, alg.dim_z, alg.brackets)
    if args.output:
        nilalg.save(args.output, alg, ms.gram_v, ms.gram_z)
        print(f"wrote {alg.name}: dims ({alg.dim_v}, {alg.dim_z}) -> {args.output}")
    else:
        _emit(nilalg.to_json(alg, ms.gram_v, ms.gram_z), True, "")
    return EXIT_OK


def _cmd_verify_htype(args) -> int:
    ms = _load_metric(args.file)
    ok = is_htype(ms)
    _emit({"command": "verify-htype", "file": args.file, "htype": ok},
          args.json, f"{ms.algebra.name}: H-type = {ok}")
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_nonsingular(args) -> int:
    alg = _load_bounded(args.file)[0]
    verdict = is_nonsingular(alg)
    doc = {"command": "nonsingular", "file": args.file, "verdict": verdict.kind,
           "certificate": verdict.certificate}
    if verdict.witness is not None:
        doc["witness"] = [rat_str(c) for c in verdict.witness]
    _emit(doc, args.json, f"{alg.name}: {verdict.kind} ({verdict.certificate})")
    return VERDICT_EXIT.get(verdict.kind, EXIT_GUARD)


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
        good = (not rep.passing) if name == "A1" else rep.unique_up_to_automorphism
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
        _emit({"command": "table", "rows": render_table(table, as_json=True),
               "a1_exception": dataclasses.asdict(rep)}, True, "")
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
    txt = (f"{alg.name}: layer dims {dims} (degrees 0..{len(dims)-1}), "
           f"verdict {result.verdict}")
    if result.last_nonzero is not None:
        txt += f" (last nonzero degree {result.last_nonzero})"
    if args.json and args.basis:
        sys.stdout.write(_prolong_basis_json(doc, result.layers))
    else:
        _emit(doc, args.json, txt)
    return EXIT_OK


def _cmd_transfer(args) -> int:
    ms1 = _load_metric(args.file)
    doc2 = nilalg.read_json(args.gram2)
    try:
        gv, gz = nilalg.gram_from_json(doc2.get("gram", doc2) if isinstance(doc2, dict) else doc2)
    except ValueError as exc:
        raise ValueError(f"{args.gram2}: {exc}") from exc
    ms2 = MetricStructure(ms1.algebra, gv, gz)
    op, rep = transfer_operator(ms1, ms2, args.precision)
    doc = {"command": "transfer", "file": args.file, "gram2": args.gram2,
           "precision": rep.precision, "exact": rep.exact, "lambda": str(rep.lam),
           "residual_automorphism": rep.residual_automorphism,
           "residual_center": rep.residual_center,
           "residual_metric": rep.residual_metric,
           "residual_lambda_sq": rep.residual_lambda_sq, "ok": rep.ok}
    txt = (f"{ms1.algebra.name}: transfer lambda = {rep.lam} "
           f"({'exact' if rep.exact else f'{rep.precision}-bit'}), "
           f"max residual {max(rep.residual_automorphism, rep.residual_center, rep.residual_metric):.3g}, "
           f"ok = {rep.ok}")
    _emit(doc, args.json, txt)
    return EXIT_OK if rep.ok else EXIT_FALSE


def _cmd_identify(args) -> int:
    alg = _load_bounded(args.file)[0]
    fid = identify_family(alg)
    doc = {"command": "identify", "file": args.file, "family": str(fid),
           "kind": fid.kind,
           "field": fid.tag.name if fid.tag else None,
           "params": list(fid.params)}
    _emit(doc, args.json, f"{alg.name}: {fid}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    ms = _load_metric(args.file)
    verdict = irreducibility_probe(ms)
    doc = {"command": "probe-irreducible", "file": args.file,
           "verdict": verdict.kind, "detail": verdict.detail}
    if verdict.invariant_subspace is not None:
        doc["invariant_subspace_dim"] = len(verdict.invariant_subspace)
    _emit(doc, args.json, f"{ms.algebra.name}: {verdict.kind} ({verdict.detail})")
    return VERDICT_EXIT.get(verdict.kind, EXIT_GUARD)


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low.  A smaller one is a usage
    error (exit 2) that names the flag, not a value the verb goes on to use."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    parse.__name__ = "int"          # argparse names the type in "invalid int value"
    return parse


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call of the process."""
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
    ns.add_argument("--json", action="store_true")
    ns.set_defaults(func=_cmd_nonsingular)

    cl = sub.add_parser("classify", help="scan one root system for admissible gradings")
    cl.add_argument("--type", required=True,
                    choices=["A", "B", "C", "D", "BC", "G2", "F4", "E6", "E7", "E8"])
    cl.add_argument("--rank", type=int, required=True)
    cl.add_argument("--json", action="store_true")
    cl.set_defaults(func=_cmd_classify)

    sa = sub.add_parser("scan-all", help="sweep all standard types and check uniqueness")
    sa.add_argument("--max-rank", type=_int_at_least(1), default=8)
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
    pr.add_argument("--max-unknowns", type=_int_at_least(0), default=20000)
    pr.add_argument("--max-entries", type=_int_at_least(0), default=10**8)
    pr.add_argument("--basis", action="store_true",
                    help="include layer basis matrices in the JSON output; applies "
                         "with --json only")
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=_cmd_prolong)

    tr = sub.add_parser("transfer", help="transfer operator between two H-type metrics")
    tr.add_argument("file")
    tr.add_argument("--gram2", required=True)
    tr.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                    help=f"bits of an irrational lambda, {MIN_PRECISION} to {MAX_PRECISION}")
    tr.add_argument("--json", action="store_true")
    tr.set_defaults(func=_cmd_transfer)

    idf = sub.add_parser("identify", help="name an H-type family by the inertia of its Clifford "
                                          "pencil's volume form: any basis, no metric")
    idf.add_argument("file")
    idf.add_argument("--json", action="store_true")
    idf.set_defaults(func=_cmd_identify)

    pb = sub.add_parser("probe-irreducible",
                        help="decide irreducibility of the Clifford action J_z, the V "
                             "action of the reflection automorphisms")
    pb.add_argument("file")
    pb.add_argument("--seed", type=int, default=0,
                    help="ignored: the probe is an exact decision")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=_cmd_probe)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ProlongationResourceError, RootSystemResourceError,
            MetricResourceError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ArithmeticError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
