#!/usr/bin/env python3
"""Prolongation survey over the key H-type instances.

Computes the Tanaka layers g_0..g_3 for the four finite-type family
members, checks the layer dims against the ambient simple-algebra
dimension bookkeeping, and prints the infinite-type Heisenberg series
next to its weighted-monomial oracle.  The two H-type algebras outside
the families are shown with their vanishing first prolongation.  Every
computed layer is re-verified by substitution into its Leibniz rows
(`verify_layer`); the script exits 1 when a check or a verification fails.
"""

import argparse
import time

from nilrad.division import Tag
from nilrad.htype import make_clifford_module_algebra, make_h, make_h_prime
from nilrad.prolong import prolong, verify_layer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--skip-largest", action="store_true",
                    help="skip h_1(O), the biggest computation")
    args = ap.parse_args()

    cases = [
        (lambda: make_h_prime(Tag.H, 1, 0), "sp(2,1)", 21),
        (lambda: make_h_prime(Tag.H, 1, 1), "sp(2,2)", 36),
        (lambda: make_h(Tag.H, 1), "sl(3,H)", 35),
        (lambda: make_h_prime(Tag.O, 1, 0), "F4(-20)", 52),
    ]
    if not args.skip_largest:
        cases.append((lambda: make_h(Tag.O, 1), "E6(-26)", 78))

    ok = True
    unverified = []

    def verify(res) -> None:
        if not all(verify_layer(res.algebra, res.layers, k) for k in range(len(res.layers))):
            unverified.append(res.algebra.name)

    for build, ambient, dim_ambient in cases:
        ms = build()
        alg = ms.algebra
        t0 = time.monotonic()
        res = prolong(alg, 3)
        verify(res)
        dims = res.dims()
        booked = alg.dim_v + alg.dim_z + sum(dims[:3])
        good = (res.verdict == "nontrivial_finite" and dims[-1] == 0
                and dims[1] == alg.dim_v and dims[2] == alg.dim_z
                and booked == dim_ambient)
        ok &= good
        print(f"{alg.name:14s} dims {dims}  ambient {ambient} = {dim_ambient} "
              f"=> bookkeeping {'ok' if good else 'MISMATCH'} "
              f"({time.monotonic() - t0:.1f}s)")

    heis = make_h_prime(Tag.C, 1, 0)
    res = prolong(heis.algebra, 4, stop_when_zero=False)
    verify(res)
    oracle = [sum(1 for a in range(k + 3) for b in range(k + 3)
                  for c in range(k // 2 + 2) if a + b + 2 * c == k + 2)
              for k in range(5)]
    ok &= res.dims() == oracle
    print(f"{heis.algebra.name:14s} dims {res.dims()}  monomial oracle {oracle} "
          f"(infinite type, cutoff verdict: {res.verdict})")

    for ms in (make_clifford_module_algebra(5, 1), make_clifford_module_algebra(7, 2)):
        res = prolong(ms.algebra, 1)
        verify(res)
        ok &= res.dims()[1] == 0
        print(f"{ms.algebra.name:14s} dims {res.dims()}  (outside the families: "
              f"first prolongation vanishes)")
    print("every layer verified by substitution" if not unverified else
          f"layers FAILED verification: {', '.join(unverified)}")
    return 0 if ok and not unverified else 1


if __name__ == "__main__":
    raise SystemExit(main())
