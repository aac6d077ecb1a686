"""Benchmark of the nilrad toolkit: one command per workload and seed.

    python3 perfbench/run.py --workload prolong-table --seed 1 --seconds 40 --trace 0

Load model: a closed loop of one client.  Each pass of a workload is a
fresh interpreter (`worker.py`) that imports the program, writes the
seeded inputs, then runs the jobs one after another; the next job starts
only when the previous one returns.  Passes repeat while another one
fits into `--seconds` (at least one runs), each on inputs drawn from the
seed and its pass index, and the set-up is repeated in set-up-only
interpreters until there are `MIN_SETUPS` samples.

`--trace 0` reports the end-to-end metrics as medians over the passes
and set-ups, each time at the host's full speed: the reference clock of
`refclock.py` samples the host's speed during every timed span, and the
span's time, less the clock's own bursts, is multiplied by that speed.
`--trace 1` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one; both passes must give identical job
outputs.  Every metric is printed with its unit; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  A checkout without `src/nilrad` exits 2 with no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from typing import Dict, List, Tuple

from common import ROOT, SRC, THREAD_VARS, WORK, program_present
from workloads import PROLONG_RUNGS, VERIFIED_RUNGS, WORKLOADS

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
MIN_SETUPS = 5
TIME_LIMIT_S = 170

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s")]

PROLONG_JOBS = [r[0] for r in PROLONG_RUNGS] + [f"verify.{k}" for k in VERIFIED_RUNGS]
CLI_VERBS = ["prolong", "verify-htype", "nonsingular", "identify",
             "probe-irreducible", "transfer", "classify", "table"]


def _calls_time(prefix: str) -> List[Tuple[str, str]]:
    return [(f"{prefix}.calls", "count"), (f"{prefix}.time_s", "s")]


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    m = _calls_time("exactlin.nullspace_int_rows")
    m += [(f"exactlin.nullspace_int_rows.{k}", "count")
          for k in ("rows", "cols", "nnz", "kernel_dim")]
    for f in ("rank", "solve", "inverse", "minimal_polynomial", "nullspace", "Matrix.mul"):
        m += _calls_time(f"exactlin.{f}")
    m += _calls_time("nilalg.load") + [("nilalg.load.bytes", "B")]
    m += _calls_time("nilalg.bracket_basis") + [("nilalg.is_nonsingular.time_s", "s")]
    m += _calls_time("htype.is_htype") + [("htype.is_htype.repeat_frac", "frac")]
    for f in ("j_basis", "sigma_automorphism", "irreducibility_probe", "identify_family",
              "build_swap_automorphism", "transfer_operator.exact", "transfer_operator.float"):
        m += _calls_time(f"htype.{f}")
    m += _calls_time("rootsys.build")
    m += [("rootsys.build.roots", "count"), ("rootsys.build.repeat_frac", "frac"),
          ("rootsys.scan.self_s", "s"), ("rootsys.parabolics_tested", "count"),
          ("rootsys.nilradical_profile.time_s", "s")]
    m += [(f"prolong.compute_layer.d{k}.time_s", "s") for k in range(5)]
    m += [("prolong.compute_layer.self_s", "s")] + _calls_time("prolong.verify_layer")
    m += [(f"job.{j}.time_s", "s") for j in PROLONG_JOBS]
    for verb in CLI_VERBS:
        m += _calls_time(f"cli.{verb}")
    return m + [("cli.self_s", "s"), ("trace.overhead_frac", "frac")]


def run_record(workload: str, seed: int) -> Dict:
    commit = "unknown"      # a checkout without .git could sit inside another repository
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "nilrad")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"workload": workload, "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "nproc": os.cpu_count(), "loadavg_1m_start": os.getloadavg()[0]}


class Runner:
    """Starts worker interpreters one at a time inside a private directory."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload, self.seed, self.started = workload, seed, started
        os.makedirs(WORK, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
        self.count = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        **{var: "1" for var in THREAD_VARS})

    def spawn(self, pass_index: int, *flags: str) -> Dict:
        self.count += 1
        workdir = os.path.join(self.root, f"pass{self.count}")
        os.mkdir(workdir)
        out = os.path.join(self.root, f"result{self.count}.json")
        budget = TIME_LIMIT_S - (time.monotonic() - self.started)
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--pass-index", str(pass_index), "--workdir", workdir, "--out", out, *flags]
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], env=self.env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(budget, 1.0))
        if proc.returncode != 0 or not os.path.exists(out):
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _failures(passes: List[Dict]) -> List[str]:
    return [f"pass {n}: {job['id']}: {'; '.join(job['problems'])}"
            for n, p in enumerate(passes, 1) for job in p["jobs"] if job["problems"]]


def _normalized(p: Dict, key: str) -> float:
    """A pass's summed job time at the host's full speed (see refclock.py)."""
    return sum(job[key] for job in p["jobs"]) * p["speed"]


def measure(runner: Runner, seconds: float
            ) -> Tuple[Dict[str, float], Dict[str, float], List[Dict], List[str]]:
    passes = [runner.spawn(0, "--reference-clock")]
    while True:
        elapsed = time.monotonic() - runner.started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        passes.append(runner.spawn(len(passes), "--reference-clock"))
    setups = [(p["setup_s"], p["setup_speed"]) for p in passes]
    while len(setups) < MIN_SETUPS:
        p = runner.spawn(len(setups), "--reference-clock", "--setup-only")
        setups.append((p["setup_s"], p["setup_speed"]))
    metrics = {
        "wall_s": statistics.median(_normalized(p, "time_s") for p in passes),
        "cpu_s": statistics.median(_normalized(p, "cpu_s") for p in passes),
        "setup_s": statistics.median(t * speed for t, speed in setups),
    }
    per_job: Dict[str, List[float]] = {}
    for p in passes:
        for job in p["jobs"]:
            per_job.setdefault(job["id"], []).append(job["time_s"] * p["speed"])
    # printed, not gated: see README.md for why they are not steady enough
    info = {"job_p50_s": statistics.median(statistics.median(v) for v in per_job.values()),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            "raw wall_s": statistics.median(sum(j["time_s"] for j in p["jobs"])
                                            for p in passes),
            "reference speed": statistics.median(p["speed"] for p in passes)}
    return metrics, info, passes, _failures(passes)


def measure_traced(runner: Runner
                   ) -> Tuple[Dict[str, float], Dict[str, float], List[Dict], List[str]]:
    plain = runner.spawn(0)
    traced = runner.spawn(0, "--trace")
    for a, b in zip(plain["jobs"], traced["jobs"]):
        if a["digest"] != b["digest"]:
            b["problems"].append("output differs when traced")
    problems = _failures([plain, traced])
    problems += [f"wrapper left in place: {name}" for name in traced["wrappers_left"]]
    layers = traced["layers"]
    layers["rootsys.parabolics_tested"] = layers.get("rootsys.is_two_step.calls", 0)
    for job in plain["jobs"]:
        layers[f"job.{job['id']}.time_s"] = job["time_s"]
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    metrics = {name: layers.get(name, 0.0) for name, _ in per_layer_metrics()}
    return metrics, {"untraced wall_s": plain["wall_s"]}, [plain, traced], problems


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description="nilrad benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not program_present():
        print(f"error: no program to benchmark: {SRC}/nilrad is missing", file=sys.stderr)
        return 2

    record = run_record(args.workload, args.seed)
    runner = Runner(args.workload, args.seed, started)
    try:
        if args.trace:
            metrics, info, passes, problems = measure_traced(runner)
            units = dict(per_layer_metrics())
        else:
            metrics, info, passes, problems = measure(runner, args.seconds)
            units = dict(END_TO_END)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    record["loadavg_1m_end"] = os.getloadavg()[0]

    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if j["problems"])
    print("run record: " + json.dumps(record))
    print(f"passes: {len(passes)}, jobs attempted: {attempted}, "
          f"failed: {failed}, fail_frac: {failed / attempted:.4f}")
    print("pass wall_s: " + ", ".join(f"{p['wall_s']:.3f}" for p in passes))
    for name, value in info.items():
        print(f"info: {name} = {value:.6g}")
    for line in problems:
        print("FAILED " + line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
