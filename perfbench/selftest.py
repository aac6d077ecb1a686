"""Tests of the benchmark itself; they are not part of the program's suite.

    python3 -m pytest -q perfbench/selftest.py

Reduced variants drop the heaviest jobs (`h_1(O)`, `h'_{1,0}(O)`,
`clifford(7;2)`, ranks above 6, most transfers) so the file runs in
well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from common import ROOT, nilrad_module  # noqa: E402

HEAVY = ("h1O", "hp10O", "cliff7x2")


def _keep(job: workloads.Job) -> bool:
    if job.id.endswith(HEAVY):
        return False
    if job.id.startswith("transfer."):
        return job.id.endswith((".00", ".01", ".10", ".11"))
    if job.argv and "--rank" in job.argv:
        return int(job.argv[job.argv.index("--rank") + 1]) <= 6
    return True


def reduced(workload: str, workdir: str, seed: int = 3):
    return [j for j in workloads.build(workload, workdir, seed) if _keep(j)]


def _problems(result):
    return {j["id"]: j["problems"] for j in result["jobs"] if j["problems"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_workload_passes_every_oracle(workload, tmp_path):
    jobs = reduced(workload, str(tmp_path))
    result = worker.run_pass(jobs, str(tmp_path))
    assert len(result["jobs"]) == len(jobs) > 5
    assert _problems(result) == {}


def _mixed_jobs(tmp_path):
    jobs = []
    for workload in workloads.WORKLOADS:
        workdir = tmp_path / workload
        workdir.mkdir()
        jobs += [j for j in reduced(workload, str(workdir)) if not j.id.startswith("classify.")
                 or j.id in ("classify.A3", "classify.G2")]
    return jobs


def test_tracing_changes_no_output_and_restores_every_function(tmp_path):
    targets = [(m, a) for m, a, _, _ in spans.TARGETS]

    def bound():
        out = {}
        for module, attr in targets:
            owner = nilrad_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            out[(module, attr)] = getattr(owner, attr)
        return out

    jobs = _mixed_jobs(tmp_path)
    before = bound()
    plain = worker.run_pass(jobs, str(tmp_path))
    tracer = spans.Tracer()
    traced = worker.run_pass(jobs, str(tmp_path), tracer)

    assert [j["digest"] for j in traced["jobs"]] == [j["digest"] for j in plain["jobs"]]
    assert _problems(traced) == {}
    assert traced["wrappers_left"] == [] and spans.wrappers_left() == []
    assert bound() == before
    layers = tracer.summary()
    # calls made through `from .x import y` bindings are seen too
    for name in ("exactlin.nullspace_int_rows", "nilalg.load", "htype.is_htype",
                 "rootsys.build", "prolong.compute_layer", "prolong.verify_layer",
                 "cli.prolong", "htype.transfer_operator.exact", "exactlin.Matrix.mul"):
        assert layers[f"{name}.calls"] > 0, name
    assert 0 <= layers["prolong.compute_layer.self_s"] <= layers["prolong.compute_layer.time_s"]


def test_reference_clock_changes_no_output_and_is_left_out_of_job_times(tmp_path):
    jobs = [j for j in reduced("classify-sweep", str(tmp_path))
            if j.id in ("classify.D5", "classify.E6", "classify.G2", "table")]
    plain = worker.run_pass(jobs, str(tmp_path))
    sampler = refclock.Sampler().start()
    try:
        sampled = worker.run_pass(jobs, str(tmp_path), sampler=sampler)
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert [j["digest"] for j in sampled["jobs"]] == [j["digest"] for j in plain["jobs"]]
    assert _problems(sampled) == {}
    assert len(sampler.durations) > 3 and 0 < sampled["speed"] < 10
    busy = sum(sampler.durations)
    assert sum(j["time_s"] for j in sampled["jobs"]) <= sampled["wall_s"] - busy + 1e-3


def test_wrong_oracle_value_is_a_failure(tmp_path):
    jobs = [j for j in reduced("prolong-table", str(tmp_path)) if j.id in ("hp10H", "h1C")]
    jobs[0].expect["fields"]["dims"] = [7, 4, 3, 1]
    result = worker.run_pass(jobs, str(tmp_path))
    assert list(_problems(result)) == ["hp10H"]


def test_crash_and_bad_exit_code_are_failures_not_aborts(tmp_path):
    jobs = [workloads.Job("missing-file", argv=["verify-htype", str(tmp_path / "no.json"),
                                                 "--json"], expect={"exit": 0}),
            workloads.Job("raises", call="verify_layers", params={"source": "absent"}),
            workloads.Job("table", argv=["table", "--json"], expect={"exit": 0})]
    result = worker.run_pass(jobs, str(tmp_path))
    problems = _problems(result)
    assert sorted(problems) == ["missing-file", "raises"]
    assert problems["raises"][0].startswith("exception")


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify-sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
