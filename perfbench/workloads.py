"""The three job mixes, their inputs and their oracles.

A workload is a list of jobs run one after another.  A job is either a
`nilrad` command line (`argv`), run in-process through `cli.main`, or one
of the two library calls that have no command (`call`).  Its oracle is
`expect`: the exit code, and values that fields of the JSON output must
equal.  Every expected value is a fixed mathematical fact; none is read
back from the program at run time.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import inputs

WORKLOADS = ("prolong-table", "htype-certify", "classify-sweep")


@dataclass
class Job:
    id: str
    argv: Optional[List[str]] = None
    call: Optional[str] = None
    params: Dict = field(default_factory=dict)
    expect: Dict = field(default_factory=dict)


# (member, max degree, stop when zero, emit basis, layer dims, verdict, ambient dim)
PROLONG_RUNGS = [
    ("hp10H", 3, True, True, [7, 4, 3, 0], "nontrivial_finite", 21),
    ("hp11H", 3, True, True, [14, 8, 3, 0], "nontrivial_finite", 36),
    ("h1H", 3, True, True, [11, 8, 4, 0], "nontrivial_finite", 35),
    ("hp10O", 3, True, True, [22, 8, 7, 0], "nontrivial_finite", 52),
    ("h1O", 3, True, True, [30, 16, 8, 0], "nontrivial_finite", 78),
    ("h1C", 3, False, False, [8, 12, 18, 24], "nontrivial_up_to_cutoff", None),
    # weighted-monomial oracle for h'_{1,0}(C): 4, 6, 9, 12, 16
    ("hp10C", 4, False, False, [4, 6, 9, 12, 16], "nontrivial_up_to_cutoff", None),
    # Clifford module algebras have g_1 = 0; g_0 is not pinned here
    ("cliff5", 1, False, False, None, "trivial_at_degree_1", None),
    ("cliff7x2", 1, False, False, None, "trivial_at_degree_1", None),
]
VERIFIED_RUNGS = ("hp11H", "hp10O")

HTYPE_MEMBERS = ["h1C", "h1H", "h1O", "hp10C", "hp10O", "hp11H", "hp21H",
                 "cliff5", "cliff7x2"]
FAMILY_NAMES = {"h1C": "h_1(C)", "h1H": "h_1(H)", "h1O": "h_1(O)",
                "hp10C": "h'_1,0(C)", "hp10O": "h'_1,0(O)", "hp11H": "h'_1,1(H)",
                "hp21H": "h'_2,1(H)", "cliff5": "other", "cliff7x2": "other"}
# the reflection generators alone leave the volume eigenspaces invariant
REDUCIBLE = {"hp11H", "hp21H", "cliff7x2"}
TRANSFERS_PER_ROUTE = 10

# what scan_standard_types(10) covers; A1 is the one type with no survivor
CLASSIFY_TYPES = ([("A", n) for n in range(1, 11)]
                  + [(t, n) for t in ("B", "C") for n in range(2, 11)]
                  + [("D", n) for n in range(4, 11)]
                  + [("BC", n) for n in range(1, 11)]
                  + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)])


def _relabelled(workdir: str, key: str, rng: random.Random):
    ms = inputs.fleet_member(key)
    rl = inputs.Relabel.draw(ms.algebra.dim_v, ms.algebra.dim_z, rng)
    path = os.path.join(workdir, f"{key}.json")
    inputs.write_relabelled(path, ms, rl)
    return path, ms, rl


def prolong_table(workdir: str, rng: random.Random) -> List[Job]:
    jobs, verify = [], []
    for key, degree, stop, basis, dims, verdict, ambient in PROLONG_RUNGS:
        path, ms, _ = _relabelled(workdir, key, rng)
        argv = ["prolong", path, "--max-degree", str(degree), "--json"]
        argv += ["--stop-when-zero"] * stop + ["--basis"] * basis
        expect = {"exit": 0, "fields": {"verdict": verdict}}
        if dims is not None:
            expect["fields"]["dims"] = dims
        else:
            expect["fields"]["dims.1"] = 0
        if ambient is not None:
            expect["ambient"] = ambient - ms.algebra.dim
        jobs.append(Job(key, argv=argv, expect=expect))
        if key in VERIFIED_RUNGS:
            verify.append(Job(f"verify.{key}", call="verify_layers",
                              params={"file": path, "source": key},
                              expect={"exit": 0, "fields": {"verified": [True] * len(dims)}}))
    return jobs + verify


def htype_certify(workdir: str, rng: random.Random) -> List[Job]:
    jobs = []
    paths = {}
    for key in HTYPE_MEMBERS:
        path, ms, rl = _relabelled(workdir, key, rng)
        paths[key] = (path, ms, rl)
        probe_seed = str(inputs.probe_seed(rng))
        reducible = key in REDUCIBLE
        jobs += [
            Job(f"verify-htype.{key}", argv=["verify-htype", path, "--json"],
                expect={"exit": 0, "fields": {"htype": True}}),
            Job(f"nonsingular.{key}", argv=["nonsingular", path, "--json"],
                expect={"exit": 0, "fields": {"verdict": "nonsingular"}}),
            Job(f"identify.{key}", argv=["identify", path, "--json"],
                expect={"exit": 0, "fields": {"family": FAMILY_NAMES[key]}}),
            Job(f"probe.{key}", argv=["probe-irreducible", path, "--json", "--seed", probe_seed],
                expect={"exit": int(reducible),
                        "fields": {"verdict": "reducible" if reducible else "irreducible"}}),
        ]
    path, ms, rl = paths["h1H"]
    for n in range(2 * TRANSFERS_PER_ROUTE):
        exact = n < TRANSFERS_PER_ROUTE
        ms2 = inputs.exact_pullback(ms, rng) if exact else inputs.float_pullback(ms, rng)
        gram2 = os.path.join(workdir, f"gram2-{n:02d}.json")
        inputs.write_gram(gram2, ms2.gram_v, ms2.gram_z, rl)
        jobs.append(Job(f"transfer.{'exact' if exact else 'float'}.{n:02d}",
                        argv=["transfer", path, "--gram2", gram2, "--json"],
                        expect={"exit": 0, "fields": {"ok": True, "exact": exact}}))
    canonical = os.path.join(workdir, "hp11H-canonical.json")
    member = inputs.fleet_member("hp11H")
    inputs.nilrad_module("nilalg").save(canonical, member.algebra,
                                        member.gram_v, member.gram_z)
    jobs.append(Job("swap-probe.hp11H", call="swap_probe",
                    params={"file": canonical, "seed": inputs.probe_seed(rng)},
                    expect={"exit": 0, "fields": {"swap_found": True,
                                                  "verdict": "irreducible"}}))
    return jobs


def classify_sweep(workdir: str, rng: random.Random) -> List[Job]:
    """Root systems are fixed objects: the seed only shuffles the job order."""
    jobs = []
    for t, n in CLASSIFY_TYPES:
        label = t if t[-1].isdigit() else f"{t}{n}"
        fields = ({"passing": [], "orbits": []} if label == "A1"
                  else {"unique_up_to_automorphism": True})
        jobs.append(Job(f"classify.{label}",
                        argv=["classify", "--type", t, "--rank", str(n), "--json"],
                        expect={"exit": 0, "fields": fields}))
    jobs.append(Job("table", argv=["table", "--json"], expect={"exit": 0, "fields": {
        "a1_exception.a1_rows_all_so_n1": True,
        "a1_exception.so_rows_all_a1": True,
        "a1_exception.a1_max_height_one": True}}))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"prolong-table": prolong_table, "htype-certify": htype_certify,
            "classify-sweep": classify_sweep}


def build(workload: str, workdir: str, seed: int, pass_index: int = 0) -> List[Job]:
    """Write the inputs of one pass into `workdir` and return its jobs.

    Each pass of a run draws its own inputs from the seed, so a run covers
    several relabellings and probe seeds instead of one.
    """
    return BUILDERS[workload](workdir, random.Random(f"{seed}.{pass_index}"))
