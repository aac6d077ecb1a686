"""One pass of a workload in a fresh interpreter: set up, run every job, check it.

Run by `run.py`, once per pass, as

    python3 perfbench/worker.py --workload W --seed N --pass-index I
        --workdir DIR --spawned-at T --out RESULT.json [--trace] [--setup-only]
        [--reference-clock]

`--spawned-at` is the parent's `time.monotonic()` just before it started
this interpreter, so the set-up time covers interpreter start, imports,
input generation and file writes.  The result is written to `--out` as
JSON.  A job that raises, prints a traceback, exits with the wrong code
or disagrees with its oracle is a failed job; the pass always goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import inputs
import workloads
from common import WORK, nilrad_module
from refclock import Sampler
from spans import Tracer, wrappers_left


def _cli_job(job: workloads.Job) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nilrad_module("cli").main(list(job.argv))
    return code, out.getvalue(), err.getvalue()


def _block(rows, n_rows: int, n_cols: int):
    exactlin = nilrad_module("exactlin")
    return exactlin.Matrix.from_rows(rows) if rows else exactlin.Matrix.zeros(n_rows, n_cols)


def verify_layers(params: Dict, docs: Dict[str, dict]) -> Tuple[int, dict]:
    """Rebuild the layers a `prolong --basis` job emitted and re-verify each."""
    prolong = nilrad_module("prolong")
    alg, _, _ = nilrad_module("nilalg").load(params["file"])
    doc = docs[params["source"]]
    dims = doc["dims"]

    def dim(j: int) -> int:
        return {-1: alg.dim_v, -2: alg.dim_z}.get(j, 0) if j < 0 else dims[j]

    layers = []
    for entry in doc["layers"]:
        k = entry["degree"]
        basis = tuple((_block(b["v_block"], dim(k - 1), alg.dim_v),
                       _block(b["z_block"], dim(k - 2), alg.dim_z))
                      for b in entry["basis"])
        layers.append(prolong.ProlongationLayer(k, dim(k - 1), dim(k - 2), basis))
    return 0, {"verified": [prolong.verify_layer(alg, layers, k) for k in range(len(layers))]}


def swap_probe(params: Dict, docs: Dict[str, dict]) -> Tuple[int, dict]:
    """Swap automorphism of h'_{1,1}(H), then the probe with it added."""
    htype = nilrad_module("htype")
    alg, gv, gz = nilrad_module("nilalg").load(params["file"])
    ms = htype.MetricStructure(alg, gv, gz)
    gens = [htype.sigma_automorphism(ms, z) for z in inputs.unit_vectors(alg.dim_z)]
    v1, v2 = inputs.blocks(alg.dim_v)
    res = htype.build_swap_automorphism(ms, v1, v2, inputs.signature_swap(alg.dim_v))
    if not res:
        return 1, {"swap_found": False}
    verdict = htype.irreducibility_probe(ms, gens + [res.automorphism], seed=params["seed"])
    return 0, {"swap_found": True, "verdict": verdict.kind}


LIBRARY_JOBS = {"verify_layers": verify_layers, "swap_probe": swap_probe}


def _field(doc, path: str):
    for part in path.split("."):
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc


def check(job: workloads.Job, code: int, doc: Optional[dict]) -> List[str]:
    """Oracle mismatches of one finished job (empty when it passed)."""
    want = job.expect
    problems = []
    if code != want.get("exit", 0):
        problems.append(f"exit code {code}, expected {want.get('exit', 0)}")
    if doc is None:
        return problems + ["no JSON output"]
    for path, value in want.get("fields", {}).items():
        try:
            got = _field(doc, path)
        except (KeyError, IndexError, TypeError):
            got = "<missing>"
        if got != value:
            problems.append(f"{path} = {got!r}, expected {value!r}")
    if "ambient" in want and sum(doc.get("dims", [])) != want["ambient"]:
        problems.append(f"layer dims {doc.get('dims')} miss the ambient "
                        f"bookkeeping total {want['ambient']}")
    return problems


def _cpu_s() -> float:
    """CPU seconds of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_job(job: workloads.Job, docs: Dict[str, dict], workdir: str,
            sampler: Optional[Sampler] = None) -> Dict:
    """Run one job: its wall and CPU seconds, oracle problems and output digest.

    The times leave out the reference bursts `sampler` ran during the job.
    """
    _, busy_wall, busy_cpu = sampler.mark() if sampler else (0, 0.0, 0.0)
    cpu, start = _cpu_s(), perf_counter()

    def times() -> Dict:
        wall, cpu_used = perf_counter() - start, _cpu_s() - cpu
        if sampler:
            _, wall_end, cpu_end = sampler.mark()
            wall, cpu_used = wall - (wall_end - busy_wall), cpu_used - (cpu_end - busy_cpu)
        return {"id": job.id, "time_s": wall, "cpu_s": cpu_used}

    try:
        if job.argv is not None:
            code, text, err = _cli_job(job)
        else:
            code, doc = LIBRARY_JOBS[job.call](job.params, docs)
            text, err = json.dumps(doc, sort_keys=True), ""
    except Exception:   # a crash is a failed job, never the end of the pass
        return dict(times(), problems=["exception: " + traceback.format_exc(limit=3)],
                    digest="exception")
    result = times()
    problems = []
    if "Traceback (most recent call last)" in text + err:
        problems.append("traceback in output")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if doc is not None:
        docs[job.id] = doc
    problems += check(job, code, doc)
    digest = hashlib.sha256(f"{code}\n{text}".replace(workdir, "<work>").encode()).hexdigest()
    return dict(result, problems=problems, digest=digest)


def run_pass(jobs: List[workloads.Job], workdir: str, tracer: Optional[Tracer] = None,
             sampler: Optional[Sampler] = None) -> dict:
    """Run the jobs in order, closed loop, optionally under a tracer.

    With a running `sampler`, the result also holds `speed`, the mean
    reference speed over the jobs.
    """
    docs: Dict[str, dict] = {}
    results = []
    if tracer is not None:
        tracer.install()
    first = sampler.mark()[0] if sampler else 0
    wall0 = perf_counter()
    try:
        for job in jobs:
            if tracer is not None:
                tracer.job = job.id
            results.append(run_job(job, docs, workdir, sampler))
    finally:
        wall = perf_counter() - wall0
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": wall, "jobs": results,
              "wrappers_left": wrappers_left() if tracer is not None else []}
    if sampler:
        result["speed"] = sampler.speed(first, sampler.mark()[0])
    return result


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference-clock", action="store_true",
                    help="sample the host's speed during the pass (see refclock.py)")
    args = ap.parse_args(argv)

    sampler = Sampler().start() if args.reference_clock else None
    try:
        nilrad_module("cli")        # imports the whole package
        jobs = workloads.build(args.workload, args.workdir, args.seed, args.pass_index)
        result = {"setup_s": time.monotonic() - args.spawned_at}
        if sampler:
            count, busy_wall, _ = sampler.mark()
            result["setup_s"] -= busy_wall
            result["setup_speed"] = sampler.speed(0, count)
        if not args.setup_only:
            tracer = Tracer() if args.trace else None
            result.update(run_pass(jobs, args.workdir, tracer, sampler))
            if tracer is not None:
                result["layers"] = tracer.summary()
                tracer.dump(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
    finally:
        if sampler:
            sampler.stop()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
