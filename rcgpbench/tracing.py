"""In-memory span tracer installed around the program's layer boundaries.

The wrappers live here, in the benchmark, and are patched onto the
public functions and methods of each layer at run time; nothing inside
``src/`` knows about them.  A span records its wall time and, through a
per-thread stack, the time its child spans covered, so every layer has
a *self* time (span minus children).  A call into a layer that is
already open on the same thread (``optimal_levels`` calling
``schedule_levels``, ``evaluate_incremental`` falling back to
``evaluate``) belongs to the outer span and is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List

#: Layers called often enough (per offspring) that only their totals
#: are kept; every other span is also kept individually.
HOT = frozenset({"core.mutate", "core.eval", "core.shrink"})

#: (module, function, span name): module-level functions, patched in
#: every ``repro`` module that bound them by name.
FUNCTIONS = (
    ("repro.opt.aig_opt", "resyn2", "opt.resyn2"),
    ("repro.opt.mig_opt", "aqfp_resynthesis", "opt.aqfp_resynthesis"),
    ("repro.rqfp.from_mig", "mig_to_rqfp", "rqfp.convert"),
    ("repro.rqfp.buffer_opt", "optimal_levels", "rqfp.buffers"),
    ("repro.rqfp.buffers", "schedule_levels", "rqfp.buffers"),
    ("repro.core.mutation", "mutate_with_delta", "core.mutate"),
    ("repro.sat.equivalence", "check_against_tables", "sat.cec"),
    ("repro.exact.encoding", "encode", "exact.encode"),
    ("repro.flow", "load_spec", "io.load"),
    ("repro.io.rqfp_json", "read_rqfp_json", "io.load"),
)

#: (module, class, method, span name).
METHODS = (
    ("repro.core.fitness", "Evaluator", "evaluate", "core.eval"),
    ("repro.core.fitness", "Evaluator", "evaluate_incremental", "core.eval"),
    ("repro.core.kernel", "NetlistKernel", "shrink", "core.shrink"),
    ("repro.rqfp.netlist", "RqfpNetlist", "shrink", "core.shrink"),
    ("repro.jobs.store", "JobStore", "save_record", "jobs.store_write"),
    ("repro.jobs.store", "JobStore", "save_checkpoint", "jobs.store_write"),
    ("repro.jobs.store", "JobStore", "save_baseline", "jobs.store_write"),
    ("repro.jobs.store", "JobStore", "save_result", "jobs.store_write"),
    ("repro.jobs.store", "JobStore", "rotate_telemetry", "jobs.store_write"),
    ("repro.jobs.store", "JobStore", "load_record", "jobs.store_read"),
    ("repro.jobs.store", "JobStore", "load_checkpoint", "jobs.store_read"),
    ("repro.jobs.store", "JobStore", "load_baseline", "jobs.store_read"),
    ("repro.jobs.store", "JobStore", "load_result", "jobs.store_read"),
    ("repro.jobs.store", "JobStore", "acquire_lease", "jobs.lease"),
    ("repro.jobs.store", "JobStore", "refresh_lease", "jobs.lease"),
    ("repro.jobs.store", "JobStore", "release_lease", "jobs.lease"),
)

#: Modules imported before patching so that every by-name binding of a
#: wrapped function already exists and gets replaced.
PRELOAD = ("repro.api", "repro.cli", "repro.harness.runner",
           "repro.service.server", "repro.core.engine",
           "repro.core.synthesis", "repro.core.verify",
           "repro.exact.synthesizer", "repro.jobs.scheduler")


class Tracer:
    """Per-thread span stacks and totals, merged on :meth:`totals`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[dict] = []
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {}
        self.first_step: Dict[str, float] = {}

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "totals": {}, "spans": [],
                     "paused": False,
                     "thread": threading.current_thread().name}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        state_of = self._state
        clock = time.perf_counter
        keep = name not in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            if state["paused"]:
                return fn(*args, **kwargs)
            stack = state["stack"]
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                total = state["totals"].get(name)
                if total is None:
                    total = state["totals"][name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if keep:
                    state["spans"].append(
                        (name, start, end, stack[-1][0] if stack else None))

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls on this thread inside the block are not traced (the
        benchmark's own output check uses program functions too)."""
        state = self._state()
        state["paused"] = True
        try:
            yield
        finally:
            state["paused"] = False

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``name -> {"calls", "total_s", "self_s"}`` over all threads."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (calls, total, self_s) in list(state["totals"].items()):
                slot = merged.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                slot["calls"] += calls
                slot["total_s"] += total
                slot["self_s"] += self_s
        return merged

    def dump(self) -> dict:
        with self._lock:
            states = list(self._threads)
        return {"totals": self.totals(), "counts": dict(self.counts),
                "first_step": dict(self.first_step),
                "spans": [[s["thread"], *span] for s in states
                          for span in s["spans"]]}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.dump(), handle)

    # -- installation --------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every layer boundary listed above; call once per
        process."""
        for module in PRELOAD:
            importlib.import_module(module)
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(name, original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        self._install_counting()
        return self

    def _install_counting(self) -> None:
        """Wrappers that also read counters off the wrapped call."""
        from repro.core.engine import EvolutionRun
        from repro.jobs.scheduler import Scheduler
        from repro.sat.solver import Solver
        tracer = self

        solve = Solver.solve

        def counted_solve(solver, *args, **kwargs):
            stats = solver.stats
            conflicts, props = stats["conflicts"], stats["propagations"]
            try:
                return solve(solver, *args, **kwargs)
            finally:
                tracer.count("sat.conflicts", stats["conflicts"] - conflicts)
                tracer.count("sat.propagations",
                             stats["propagations"] - props)
        setattr(Solver, "solve",
                      self.wrap("sat.solve", functools.wraps(solve)(
                          counted_solve)))

        run = EvolutionRun.run

        def counted_run(evolution_run):
            result = run(evolution_run)
            tracer.count("evolve.generations", result.generations)
            tracer.count("evolve.evaluations", result.evaluations)
            tracer.count("evolve.cache_hits", result.cache_hits)
            tracer.count("evolve.eval_incremental", result.eval_incremental)
            tracer.count("evolve.ports_resimulated",
                         result.ports_resimulated)
            return result
        setattr(EvolutionRun, "run",
                      self.wrap("core.evolve",
                                functools.wraps(run)(counted_run)))

        step = Scheduler.step

        def counted_step(scheduler):
            started = time.time()
            job = step(scheduler)
            if job is not None:
                tracer.count("jobs.slices")
                with tracer._lock:
                    tracer.first_step.setdefault(job.id, started)
            return job
        setattr(Scheduler, "step",
                      self.wrap("jobs.step",
                                functools.wraps(step)(counted_step)))
