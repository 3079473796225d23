"""The benchmark's own tests: ``python3 -m pytest rcgpbench -q``.

They pin the properties the benchmark's numbers rely on: the
independent check accepts correct artifacts and rejects wrong ones,
job lists depend on the seed only through job seeds, the same seed
repeats every deterministic number, and a traced run reproduces the
untraced one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

common.bootstrap()

import inproc  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402


def _bench(workload: str, seed: int, seconds: int, trace: int,
           cwd: str = common.ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300)
    return proc


def _result(workload: str, seed: int, seconds: int, trace: int):
    proc = _bench(workload, seed, seconds, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


# -- the independent check -------------------------------------------------

def _baseline(name: str):
    from repro.bench.registry import get_benchmark
    from repro.core.synthesis import baseline_initialization
    from repro.io.rqfp_json import netlist_to_dict
    spec = get_benchmark(name).spec()
    base = baseline_initialization(spec, name)
    return spec, base, netlist_to_dict(base.netlist, base.plan)


def test_interpreter_agrees_with_the_program():
    for name in ("full_adder", "decoder_3_8", "intdiv5"):
        spec, base, artifact = _baseline(name)
        n, words = common.interpret(artifact)
        assert n == spec[0].num_vars
        assert words == [t.bits for t in base.netlist.to_truth_tables()]
        assert words == [t.bits for t in spec]


def test_check_accepts_and_rejects():
    spec, base, artifact = _baseline("ham3")
    bits = [t.bits for t in spec]
    ok, jjs, reason = common.check_artifact(
        artifact, bits, spec[0].num_vars, base.cost.n_b, base.cost.jjs)
    assert ok, reason
    assert jjs == base.cost.jjs

    wrong = json.loads(json.dumps(artifact))
    config = wrong["gates"][0]["config"]
    wrong["gates"][0]["config"] = ("0" if config[0] == "1" else "1") + \
        config[1:]
    ok, _, reason = common.check_artifact(
        wrong, bits, spec[0].num_vars, base.cost.n_b, base.cost.jjs)
    assert not ok and "function" in reason

    ok, _, reason = common.check_artifact(
        artifact, bits, spec[0].num_vars, base.cost.n_b, base.cost.jjs + 4)
    assert not ok and "JJs" in reason

    ok, _, reason = common.check_artifact(
        artifact, bits, spec[0].num_vars, base.cost.n_b + 1)
    assert not ok and "buffer" in reason


def test_tail_has_ten_samples_beyond_it():
    value, percentile, n = common.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100)
    assert sum(1 for i in range(100) if i > value) == 10
    assert percentile == 90.0
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# -- job lists ---------------------------------------------------------------

def _served_specs(streams):
    return [[job.get("spec", job.get("dup_of")) for job in stream]
            for stream in streams]


def test_seed_changes_job_seeds_not_the_spec_mix():
    for make in (inproc.table_jobs, inproc.paper_jobs):
        a, b, again = make(1, 20), make(2, 20), make(1, 20)
        assert a == again
        assert [j["spec"] for j in a] == [j["spec"] for j in b]
        assert [j["generations"] for j in a] == [j["generations"] for j in b]
        assert [j["seed"] for j in a] != [j["seed"] for j in b]
    a, b = served.client_jobs(1, 20), served.client_jobs(2, 20)
    assert a == served.client_jobs(1, 20)
    assert _served_specs(a) == _served_specs(b)
    seeds = [[j.get("seed") for j in stream] for stream in a]
    assert seeds != [[j.get("seed") for j in stream] for stream in b]


def test_served_duplicates_point_at_earlier_fresh_jobs():
    for stream in served.client_jobs(3, 20):
        for index, job in enumerate(stream):
            if "dup_of" in job:
                assert job["dup_of"] < index
                assert "dup_of" not in stream[job["dup_of"]]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == common.NOMINAL_SECONDS


# -- whole runs --------------------------------------------------------------

def test_bare_directory_fails_without_a_result():
    bare = os.path.join(common.WORK, f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "rcgpbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "rcgpbench/run.py", "--workload", "served",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120, env=common.child_env() | {
                "PYTHONPATH": ""})
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _check_traced_reproduces(workload: str, seconds: int) -> None:
    detail, result = _result(workload, 7, seconds, 1)
    assert result["correct"], detail["problems"]
    assert detail["mismatches"] == {}
    assert detail["untraced"] == detail["deterministic"]
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert metrics["core.mutate_calls"]["value"] == \
        detail["untraced"]["mutate_calls"]
    assert metrics["core.eval_calls"]["value"] == \
        detail["untraced"]["eval_calls"]
    assert metrics["sat.conflicts"]["value"] == \
        detail["untraced"]["sat_conflicts"]
    assert metrics["trace.overhead_ratio"]["value"] > 0
    again, untraced = _result(workload, 7, seconds, 0)
    assert untraced["correct"]
    assert again["deterministic"] == detail["deterministic"]
    assert set(untraced["metrics"]) == {name for name, _ in run.END_TO_END}
    assert untraced["metrics"]["verified_ratio"]["value"] == 1.0
    assert [j["spec"] for j in again["jobs"]] == \
        [j["spec"] for j in detail["jobs"]]
    other, _ = _result(workload, 8, seconds, 0)
    assert [j["spec"] for j in other["jobs"]] == \
        [j["spec"] for j in detail["jobs"]]


def test_paper_mu1_traced_run_reproduces_untraced():
    _check_traced_reproduces("paper_mu1", 2)


def test_served_traced_run_reproduces_untraced():
    _check_traced_reproduces("served", 2)


def test_table_flow_traced_run_reproduces_untraced():
    _check_traced_reproduces("table_flow", 1)
