"""The two in-process workloads: ``table_flow`` and ``paper_mu1``.

Both run inline (``workers=0``) in the benchmark process; their work is
a fixed job list (specs, generations, conflict budgets) drawn from the
workload seed.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List

import common

#: ``table_flow`` rows as (spec, RCGP generations, run exact synthesis):
#: the front-end-heavy Table-2 specs run RCGP only; the <=5-input
#: Table-1 specs also run baseline 2.
TABLE_ROWS = (("hwb8", 200, False), ("intdiv9", 700, False),
              ("intdiv10", 550, False), ("decoder_2_4", 400, True),
              ("full_adder", 400, True), ("ham3", 400, True))
#: Conflict budget of baseline 2 (no time budget: conflicts only).
EXACT_CONFLICTS = 4000
EXACT_MAX_GATES = 6
#: Conflict budget of the ``rcgp verify``-style CEC (the CLI default).
CEC_CONFLICTS = 200_000

#: ``paper_mu1`` jobs as (spec, generations): mid-size Table-1/2
#: circuits, each budget sized for ~2.5 s on the reference host (a
#: 2-vCPU VM), so that the per-job latency percentiles compare jobs of
#: one size.
PAPER_JOBS = (("intdiv5", 2000), ("intdiv6", 1400), ("intdiv7", 700),
              ("intdiv8", 300), ("mod5adder", 240), ("4_49", 1400),
              ("alu", 2000))


def table_jobs(seed: int, seconds: int) -> List[dict]:
    rng = common.workload_rng("table_flow", seed)
    return [{"spec": name, "seed": rng.getrandbits(32),
             "generations": common.scaled(generations, seconds),
             "exact": exact}
            for name, generations, exact in TABLE_ROWS]


def paper_jobs(seed: int, seconds: int) -> List[dict]:
    rng = common.workload_rng("paper_mu1", seed)
    return [{"spec": name, "seed": rng.getrandbits(32),
             "generations": common.scaled(generations, seconds)}
            for name, generations in PAPER_JOBS]


def setup_probe_code(workload: str, store: str) -> str:
    """Child-process code that reaches "ready" for ``workload``."""
    if workload == "table_flow":
        return ("from repro.api import Session\n"
                "from repro.harness.runner import run_benchmark\n"
                f"Session({store!r}, workers=0)\n"
                "print('ready', flush=True)\n")
    return ("from repro.api import synthesize\n"
            "from repro.core.config import RcgpConfig\n"
            "print('ready', flush=True)\n")


def _artifact(result, path: str) -> dict:
    """Write the result the way ``rcgp synth -o`` does and read it back."""
    from repro.io.rqfp_json import write_rqfp_json
    with open(path, "w") as handle:
        handle.write(write_rqfp_json(result.netlist, result.plan))
    with open(path) as handle:
        return json.load(handle)


def _count(totals: Dict[str, int], result, jjs: int, offspring: int) -> None:
    """Add one finished job to the deterministic totals."""
    evolution = result.evolution
    totals["jjs_total"] += jjs
    totals["init_jjs_total"] += result.initial.cost.jjs
    totals["init_gates"] += result.initial.cost.n_r
    totals["mutate_calls"] += evolution.generations * offspring
    totals["eval_calls"] += evolution.evaluations
    totals["ports_resimulated"] += evolution.ports_resimulated


def run_table_flow(jobs: List[dict], work: str,
                   quiet: Callable) -> Dict[str, object]:
    """Paper-table rows on one disk-backed session, inline.  ``quiet``
    wraps the benchmark's own output check (no tracing inside it)."""
    import repro.flow
    import repro.io.rqfp_json
    import repro.sat.equivalence
    from repro.api import Session
    from repro.bench.registry import get_benchmark
    from repro.core.config import RcgpConfig
    from repro.errors import ExactSynthesisTimeout, ReproError
    from repro.exact.synthesizer import exact_synthesize
    from repro.harness.runner import HarnessConfig, run_benchmark
    from repro.io.pla import write_pla

    harness = HarnessConfig(run_exact=False, workers=0)
    totals = dict.fromkeys(common.DETERMINISTIC, 0)
    rows = []
    start = time.perf_counter()
    with Session(os.path.join(work, "store"), workers=0) as session:
        for job in jobs:
            name = job["spec"]
            bench = get_benchmark(name)
            spec = bench.spec()
            row = {"spec": name, "ok": False}
            rows.append(row)
            row_start = time.perf_counter()
            try:
                config = RcgpConfig(
                    generations=job["generations"], seed=job["seed"],
                    offspring=4, mutation_rate=0.08, max_mutated_genes=8,
                    shrink="always", workers=0)
                run_benchmark(bench, harness, rcgp=config, session=session)
                result = [j for j in session.jobs()
                          if j.name == name][-1].result()
                problems = []
                if job["exact"]:
                    totals["exact_attempted"] += 1
                    try:
                        exact = exact_synthesize(
                            spec, name=name, conflict_budget=EXACT_CONFLICTS,
                            time_budget=None, max_gates=EXACT_MAX_GATES)
                    except ExactSynthesisTimeout as exc:
                        totals["sat_conflicts"] += exc.conflicts
                    else:
                        totals["sat_conflicts"] += exact.conflicts
                        totals["exact_decided"] += 1
                        _, words = common.interpret(
                            repro.io.rqfp_json.netlist_to_dict(exact.netlist))
                        if words != [t.bits for t in spec]:
                            problems.append("exact-synthesis netlist differs "
                                            "from the specification")
                artifact_path = os.path.join(work, f"{name}.json")
                design_path = os.path.join(work, f"{name}.pla")
                artifact = _artifact(result, artifact_path)
                with open(design_path, "w") as handle:
                    handle.write(write_pla(spec))
                netlist = repro.io.rqfp_json.read_rqfp_json(artifact_path)
                tables, _ = repro.flow.load_spec(design_path)
                cec = repro.sat.equivalence.check_against_tables(
                    netlist.encoder(), tables, conflict_budget=CEC_CONFLICTS)
                totals["sat_conflicts"] += cec.conflicts
                with quiet():
                    checked, jjs, reason = common.check_artifact(
                        artifact, [t.bits for t in spec], spec[0].num_vars,
                        result.cost.n_b, result.cost.jjs)
                if not checked:
                    problems.append(reason)
                if cec.equivalent is not True:
                    problems.append("CEC did not prove equivalence")
                row.update(ok=not problems, jjs=jjs,
                           reason="; ".join(problems))
                _count(totals, result, jjs, config.offspring)
            except ReproError as exc:
                row["reason"] = f"{type(exc).__name__}: {exc}"
            row["latency"] = time.perf_counter() - row_start
            totals["verified"] += row["ok"]
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rows": rows, "totals": totals}


def run_paper_mu1(jobs: List[dict], work: str,
                  quiet: Callable) -> Dict[str, object]:
    """``repro.api.synthesize`` with default configs, job by job;
    ``quiet`` as for :func:`run_table_flow`."""
    from repro.api import synthesize
    from repro.bench.registry import get_benchmark
    from repro.core.config import RcgpConfig
    from repro.errors import ReproError

    totals = dict.fromkeys(common.DETERMINISTIC, 0)
    rows = []
    start = time.perf_counter()
    for job in jobs:
        name = job["spec"]
        spec = get_benchmark(name).spec()
        row = {"spec": name, "ok": False}
        rows.append(row)
        row_start = time.perf_counter()
        try:
            config = RcgpConfig(generations=job["generations"],
                                seed=job["seed"])
            result = synthesize(spec, config, name=name)
            artifact = _artifact(result, os.path.join(work, f"{name}.json"))
            with quiet():
                checked, jjs, reason = common.check_artifact(
                    artifact, [t.bits for t in spec], spec[0].num_vars,
                    result.cost.n_b, result.cost.jjs)
            row.update(ok=checked, jjs=jjs, reason=reason)
            _count(totals, result, jjs, config.offspring)
        except ReproError as exc:
            row["reason"] = f"{type(exc).__name__}: {exc}"
        row["latency"] = time.perf_counter() - row_start
        totals["verified"] += row["ok"]
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rows": rows, "totals": totals}
