"""RCGP benchmark: one workload, one run, one JSON result line.

    python3 rcgpbench/run.py --workload table_flow --seed 1 \\
        --seconds 20 --trace 0

Workloads (see NOTES.md): ``table_flow`` (paper-table rows through the
harness on a disk-backed session), ``paper_mu1`` (``repro.api.synthesize``
at the paper's mu = 1 defaults) and ``served`` (``rcgp serve`` driven by
two closed-loop HTTP clients).  The work of a run is a job list fixed by
``--seed`` and ``--seconds`` (counts only; the clock never decides how
much work is done).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
the same workload untraced in a child process, then again with span
wrappers around every layer, prints the per-layer metrics, and fails
its correctness check unless the traced run reproduced every
deterministic number of the untraced one.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is ``{"detail": ...}`` (host facts, deterministic
counts, per-job outcomes).  Exits 2 without a result when the checkout
holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Tuple

import common

WORKLOADS = ("table_flow", "paper_mu1", "served")

END_TO_END = (("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("jjs_total", "JJ"), ("init_jjs_total", "JJ"),
              ("exact_decided_ratio", "ratio"), ("verified_ratio", "ratio"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER = (
    ("opt.resyn2_s", "s"), ("opt.aqfp_resynthesis_s", "s"),
    ("rqfp.convert_s", "s"), ("rqfp.buffers_s", "s"),
    ("rqfp.init_gates", "count"),
    ("core.mutate_s", "s"), ("core.mutate_calls", "count"),
    ("core.eval_s", "s"), ("core.eval_calls", "count"),
    ("core.ports_resimulated", "count"), ("core.incremental_share", "ratio"),
    ("core.shrink_s", "s"), ("core.cache_hit_ratio", "ratio"),
    ("core.evolve_s", "s"), ("core.gens_per_s", "1/s"),
    ("core.loop_self_s", "s"),
    ("sat.solve_s", "s"), ("sat.solve_calls", "count"),
    ("sat.conflicts", "count"), ("sat.propagations", "count"),
    ("sat.propagations_per_s", "1/s"), ("sat.cec_s", "s"),
    ("exact.encode_s", "s"), ("exact.timeouts", "count"),
    ("io.load_s", "s"),
    ("jobs.step_s", "s"), ("jobs.step_self_s", "s"), ("jobs.slices", "count"),
    ("jobs.store_write_s", "s"), ("jobs.store_writes", "count"),
    ("jobs.store_read_s", "s"), ("jobs.store_reads", "count"),
    ("jobs.lease_s", "s"),
    ("service.submit_ms_p50", "ms"), ("service.submit_ms_tail", "ms"),
    ("service.status_ms_p50", "ms"), ("service.status_ms_tail", "ms"),
    ("service.result_ms_p50", "ms"), ("service.metrics_ms_p50", "ms"),
    ("service.metrics_ms_tail", "ms"), ("service.queue_wait_s_p50", "s"),
    ("service.requests", "count"), ("service.errors", "count"),
    ("service.status_404", "count"), ("service.dedup_hits", "count"),
    ("host.calib_s", "s"), ("trace.overhead_ratio", "ratio"),
)

#: Set-up repetitions of the in-process workloads (child interpreter
#: start -> imports done and session open).
INPROC_SETUPS = 3


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=common.NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# -- one run of a workload ------------------------------------------------

def inproc_setup(workload: str, work: str) -> List[float]:
    import inproc
    times = []
    for attempt in range(INPROC_SETUPS):
        code = inproc.setup_probe_code(
            workload, os.path.join(work, f"setup{attempt}"))
        times.append(common.time_to_ready([sys.executable, "-c", code],
                                          "ready"))
    return times


def run_workload(args: argparse.Namespace, work: str, tracer=None) -> dict:
    """Run the workload once; returns a summary of what it measured.

    ``tracer`` is an installed :class:`tracing.Tracer` for a traced
    in-process run; ``served`` traces inside the server instead."""
    if args.workload == "served":
        return run_served_workload(args, work)
    import inproc
    setup = [] if tracer is not None else inproc_setup(args.workload, work)
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    if args.workload == "table_flow":
        out = inproc.run_table_flow(
            inproc.table_jobs(args.seed, args.seconds), work, quiet)
    else:
        out = inproc.run_paper_mu1(
            inproc.paper_jobs(args.seed, args.seconds), work, quiet)
    rows = out["rows"]
    return {
        "wall_s": out["wall_s"], "setup": setup,
        "latencies": [row["latency"] for row in rows if row["ok"]],
        "peak_rss_mb": common.peak_rss_mb(),
        "attempted": len(rows),
        "jobs": rows,
        "deterministic": out["totals"],
        "problems": [f"{row['spec']}: {row.get('reason')}" for row in rows
                     if not row["ok"]],
    }


def run_served_workload(args: argparse.Namespace, work: str) -> dict:
    import served
    streams = served.client_jobs(args.seed, args.seconds)
    trace_path = os.path.join(work, "server-trace.json") \
        if args.trace else None
    out = served.run_served(streams, work, trace_path=trace_path,
                            setups=1 if args.trace else served.SETUPS)
    clients = out["clients"]
    outcomes = [o for client in clients for o in client.outcomes]
    fresh = [o for o in outcomes if not o["dup"]]
    problems = [f"{o['spec']}: {o.get('reason')}" for o in outcomes
                if not o["ok"]]
    problems += [f"{c.name}: {c.crash}" for c in clients if c.crash]
    problems += [f"{name} did not finish" for name in out["stuck_clients"]]
    if out["server_exit"] != 0:
        problems.append(f"rcgp serve exited {out['server_exit']}")
    summary = {
        "wall_s": out["wall_s"], "setup": out["setup_s"],
        "latencies": [o["latency"] for o in outcomes if "latency" in o],
        "peak_rss_mb": out["peak_rss_mb"],
        "attempted": sum(len(stream) for stream in streams),
        "jobs": outcomes,
        "deterministic": {
            "jjs_total": sum(o["jjs"] for o in fresh),
            "init_jjs_total": sum(o.get("init_jjs", 0) for o in fresh),
            "exact_decided": 0, "exact_attempted": 0,
            "verified": sum(o["ok"] for o in outcomes),
            "sat_conflicts": 0,
            "mutate_calls": sum(o.get("offspring", 0) for o in fresh),
            "eval_calls": sum(o.get("evaluations", 0) for o in fresh),
            "ports_resimulated": sum(o.get("ports_resimulated", 0)
                                     for o in fresh),
            "init_gates": sum(o.get("init_gates", 0) for o in fresh)},
        "problems": problems,
        "service": service_metrics(clients),
    }
    if trace_path is not None:
        with open(trace_path) as handle:
            server_trace = json.load(handle)
        summary["trace"] = server_trace
        waits = [server_trace["first_step"][o["job_id"]] - o["submitted"]
                 for o in fresh
                 if o.get("job_id") in server_trace["first_step"]]
        summary["service"]["service.queue_wait_s_p50"] = common.median(waits)
    return summary


def service_metrics(clients) -> Dict[str, float]:
    timings: Dict[str, List[float]] = {}
    for client in clients:
        for kind, values in client.timings.items():
            timings.setdefault(kind, []).extend(values)
    return {
        "service.submit_ms_p50": common.median(timings["submit"]),
        "service.submit_ms_tail": common.tail(timings["submit"])[0],
        "service.status_ms_p50": common.median(timings["status"]),
        "service.status_ms_tail": common.tail(timings["status"])[0],
        "service.result_ms_p50": common.median(timings["result"]),
        "service.metrics_ms_p50": common.median(timings["metrics"]),
        "service.metrics_ms_tail": common.tail(timings["metrics"])[0],
        "service.queue_wait_s_p50": 0.0,
        "service.requests": sum(c.requests for c in clients),
        "service.errors": sum(c.errors for c in clients),
        "service.status_404": sum(c.status_404 for c in clients),
        "service.dedup_hits": sum(c.dedup_hits for c in clients),
    }


# -- metrics ---------------------------------------------------------------

def end_to_end(summary: dict) -> Tuple[Dict[str, float], dict]:
    det = summary["deterministic"]
    attempted = summary["attempted"]
    tail, percentile, samples = common.tail(summary["latencies"])
    exact_ratio = det["exact_decided"] / det["exact_attempted"] \
        if det["exact_attempted"] else 1.0
    values = {
        "wall_s": summary["wall_s"],
        "job_p50_s": common.median(summary["latencies"]),
        "job_tail_s": tail,
        "jjs_total": det["jjs_total"],
        "init_jjs_total": det["init_jjs_total"],
        "exact_decided_ratio": exact_ratio,
        "verified_ratio": det["verified"] / attempted,
        "peak_rss_mb": summary["peak_rss_mb"],
        "setup_s": common.median(summary["setup"]),
    }
    return values, {"job_tail_percentile": percentile,
                    "job_latency_samples": samples,
                    "setup_samples_s": summary["setup"]}


def per_layer(summary: dict, totals: Dict[str, Dict[str, float]],
              counts: Dict[str, int], calib: float,
              overhead: float) -> Dict[str, float]:
    def total(name: str) -> float:
        return float(totals.get(name, {}).get("total_s", 0.0))

    def own(name: str) -> float:
        return float(totals.get(name, {}).get("self_s", 0.0))

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    det = summary["deterministic"]
    evaluations = counts.get("evolve.evaluations", 0)
    evolve_s = total("core.evolve")
    solve_s = total("sat.solve")
    values = {
        "opt.resyn2_s": total("opt.resyn2"),
        "opt.aqfp_resynthesis_s": total("opt.aqfp_resynthesis"),
        "rqfp.convert_s": total("rqfp.convert"),
        "rqfp.buffers_s": total("rqfp.buffers"),
        "rqfp.init_gates": det["init_gates"],
        "core.mutate_s": total("core.mutate"),
        "core.mutate_calls": calls("core.mutate"),
        "core.eval_s": total("core.eval"),
        "core.eval_calls": calls("core.eval"),
        "core.ports_resimulated": counts.get("evolve.ports_resimulated", 0),
        "core.incremental_share":
            counts.get("evolve.eval_incremental", 0) / evaluations
            if evaluations else 0.0,
        "core.shrink_s": total("core.shrink"),
        "core.cache_hit_ratio": counts.get("evolve.cache_hits", 0) /
        evaluations if evaluations else 0.0,
        "core.evolve_s": evolve_s,
        "core.gens_per_s": counts.get("evolve.generations", 0) / evolve_s
        if evolve_s else 0.0,
        "core.loop_self_s": own("core.evolve"),
        "sat.solve_s": solve_s,
        "sat.solve_calls": calls("sat.solve"),
        "sat.conflicts": counts.get("sat.conflicts", 0),
        "sat.propagations": counts.get("sat.propagations", 0),
        "sat.propagations_per_s": counts.get("sat.propagations", 0) /
        solve_s if solve_s else 0.0,
        "sat.cec_s": total("sat.cec"),
        "exact.encode_s": total("exact.encode"),
        "exact.timeouts": det["exact_attempted"] - det["exact_decided"],
        "io.load_s": total("io.load"),
        "jobs.step_s": total("jobs.step"),
        "jobs.step_self_s": own("jobs.step"),
        "jobs.slices": counts.get("jobs.slices", 0),
        "jobs.store_write_s": total("jobs.store_write"),
        "jobs.store_writes": calls("jobs.store_write"),
        "jobs.store_read_s": total("jobs.store_read"),
        "jobs.store_reads": calls("jobs.store_read"),
        "jobs.lease_s": total("jobs.lease"),
        "host.calib_s": calib,
        "trace.overhead_ratio": overhead,
    }
    service = summary.get("service") or {}
    for name, _ in PER_LAYER:
        if name.startswith("service."):
            values[name] = service.get(name, 0.0)
    return values


def traced_counts(totals, counts) -> Dict[str, int]:
    """The deterministic numbers as the wrappers saw them."""
    return {"sat_conflicts": counts.get("sat.conflicts", 0),
            "mutate_calls": int(totals.get("core.mutate", {})
                                .get("calls", 0)),
            "eval_calls": int(totals.get("core.eval", {}).get("calls", 0)),
            "ports_resimulated": counts.get("evolve.ports_resimulated", 0)}


# -- main ------------------------------------------------------------------

def untraced_child(args: argparse.Namespace) -> Tuple[dict, dict]:
    """Run this workload with ``--trace 0`` in a child process."""
    argv = [sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          cwd=common.ROOT, timeout=100)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"untraced run exited {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def traced_run(args: argparse.Namespace, work: str,
               calib: float) -> Tuple[dict, Dict[str, float], dict]:
    """``--trace 1``: the untraced run in a child for reference, then
    the traced run here; a differing deterministic number is a problem."""
    reference, reference_result = untraced_child(args)
    if args.workload == "served":
        summary = run_workload(args, work)
        dump = summary["trace"]
    else:
        import tracing
        tracer = tracing.Tracer().install()
        summary = run_workload(args, work, tracer)
        dump = tracer.dump()
    traces = os.path.join(common.WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    with open(os.path.join(traces, f"{args.workload}-{args.seed}.json"),
              "w") as handle:
        json.dump(dump, handle)
    totals, counts = dump["totals"], dump["counts"]
    overhead = summary["wall_s"] / \
        reference_result["metrics"]["wall_s"]["value"]
    expected = reference["deterministic"]
    seen = dict(summary["deterministic"], **traced_counts(totals, counts))
    mismatches = {key: [expected[key], seen[key]]
                  for key in common.DETERMINISTIC
                  if expected[key] != seen[key]}
    if mismatches:
        summary["problems"].append(
            f"traced run differs from the untraced run: {mismatches}")
    return (summary, per_layer(summary, totals, counts, calib, overhead),
            {"untraced": expected, "mismatches": mismatches})


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        common.bootstrap()
    except common.BootstrapError as exc:
        print(f"rcgpbench: {exc}", file=sys.stderr)
        return 2
    calib = common.calibrate()
    work = os.path.join(common.WORK, f"{args.workload}-{args.seed}-"
                                     f"{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        host = common.host_info(work)
        if args.trace:
            summary, values, extra = traced_run(args, work, calib)
            units = dict(PER_LAYER)
        else:
            summary = run_workload(args, work)
            values, extra = end_to_end(summary)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = summary["attempted"] - summary["deterministic"]["verified"]
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "host_calib_s": calib,
              "deterministic": summary["deterministic"],
              "problems": summary["problems"], **extra,
              "jobs": [{k: v for k, v in job.items()
                        if k in ("spec", "dup", "ok", "jjs", "latency",
                                 "reason")}
                       for job in summary["jobs"]]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
