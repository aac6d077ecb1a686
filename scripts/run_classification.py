#!/usr/bin/env python3
"""Reproduce the two-step non-singular parabolic classification.

Sweeps every standard restricted root system, prints the surviving Phi
per type, and renders the curated real-form table with its validated
nilradical profiles.  Everything here is exact arithmetic.  The scan's
wall time goes to stderr, so stdout is the same on every run.
"""

import argparse
import sys
import time

from nilrad.rootsys import (
    a1_exception_report,
    load_table,
    render_table,
    scan_standard_types,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=int, default=8)
    args = ap.parse_args()

    t0 = time.monotonic()
    reports = scan_standard_types(args.max_rank)
    print(f"scan took {time.monotonic() - t0:.1f}s", file=sys.stderr)
    print(f"scan of {len(reports)} systems\n")
    for name, rep in sorted(reports.items()):
        if rep.passing:
            subsets = "; ".join("{" + ", ".join(f"a{i+1}" for i in phi) + "}"
                                for phi in rep.passing)
            print(f"  {name:4s} -> {subsets}   ({len(rep.orbits)} orbit)")
        else:
            print(f"  {name:4s} -> none")
    unique = all(len(r.orbits) == 1 for n, r in reports.items() if n != "A1")
    unique &= not reports["A1"].passing
    print(f"\nunique orbit everywhere except A1 (which has none): {unique}\n")

    table = load_table()
    print(render_table(table))
    rep = a1_exception_report(table)
    print(f"\nA1 rows: {', '.join(rep.a1_rows)} "
          f"(exactly the so(n,1) rows: {rep.a1_rows_all_so_n1 and rep.so_rows_all_a1})")
    return 0 if unique else 1


if __name__ == "__main__":
    raise SystemExit(main())
