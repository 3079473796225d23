"""Span replay: run-level bit-identity against a reference loop.

:func:`reference_run` below is the ``(1+λ)`` loop written the plain way
— one generation at a time, full evaluation of every offspring, no
spans, no backends.  :class:`~repro.core.engine.EvolutionRun` must land
on exactly its genome, fitness key, improvement history and evaluation
count wherever the spans execute:

* **inline** (``workers=0``): spans replay on the run's own evaluator;
* **pooled** (``workers=2``): spans ship to a local worker process;
* **remote**: spans ship to TCP workers of a cluster fleet;
* **check mode** (``RCGP_CHECK_INCREMENTAL=1``): one-generation spans
  carrying the coordinator's own mutation deltas, cross-checked by the
  worker, and every incremental sweep verified against a full one.

Between the parallel paths and serial, "bit-identical" also covers
every evaluation counter (``eval_full``, ``eval_incremental``,
``ports_resimulated``).  The scheduler/sliced and HTTP-served flavours
of the same guarantee live in ``tests/test_jobs.py`` and
``tests/test_service.py``.
"""

import multiprocessing
import os
import random
import time

import pytest

from repro.bench.registry import get_benchmark
from repro.core.config import RcgpConfig
from repro.core.engine import (ClusterBackend, ClusterDispatch, EvolutionRun,
                               child_seed, encode_genome)
from repro.core.fitness import Evaluator
from repro.core.kernel import NetlistKernel
from repro.core.mutation import mutate_with_delta
from repro.core.synthesis import initialize_netlist
from repro.logic.truth_table import tabulate_word
from repro.rqfp.simplify import bypass_wire_gates

GENERATIONS = 120
TOKEN = "test-replay-token"


def reference_run(spec, config, initial):
    """The oracle: ``(final genome, fitness key, history, evaluations,
    sat_calls, generations)`` of a plain per-generation loop."""
    evaluator = Evaluator(spec, config, random.Random(config.seed))
    parent = initial.copy()
    if config.kernel == "flat":
        parent = NetlistKernel.from_netlist(parent)
    fitness = evaluator.evaluate(parent)
    history = [(0, fitness.key())]
    stagnation = generation = 0
    for generation in range(1, config.generations + 1):
        best = best_fit = None
        for i in range(config.offspring):
            rng = random.Random(child_seed(config.seed, generation, i))
            child, _ = mutate_with_delta(parent, rng, config)
            fit = evaluator.evaluate(child)
            if best_fit is None or fit.key() >= best_fit.key():
                best, best_fit = child, fit  # later offspring win ties
        improved = best_fit.key() > fitness.key()
        if best_fit.key() >= fitness.key():
            parent, fitness = best, best_fit
            if config.shrink == "always" or (
                    config.shrink == "on_improvement" and improved):
                parent = parent.shrink()
            if improved and config.simplify_wires:
                flat = isinstance(parent, NetlistKernel)
                view = parent.to_netlist() if flat else parent
                simplified = bypass_wire_gates(view)
                if simplified.num_gates < view.num_gates:
                    parent = NetlistKernel.from_netlist(simplified) \
                        if flat else simplified
                    fitness = evaluator.evaluate(parent)
        if improved:
            stagnation = 0
            history.append((generation, fitness.key()))
        else:
            stagnation += 1
            if config.stagnation_limit is not None \
                    and stagnation >= config.stagnation_limit:
                break
    final = evaluator.finalize(parent)
    key = evaluator.evaluate(final).key()
    return (encode_genome(final), key, history, evaluator.evaluations,
            evaluator.sat_calls, generation)


def _oracle_view(result):
    return (encode_genome(result.netlist), result.fitness.key(),
            [(g, f.key()) for g, f in result.history], result.evaluations,
            result.sat_calls, result.generations)


def _config(workers, **kwargs):
    base = dict(mutation_rate=0.08, max_mutated_genes=8, seed=2024,
                shrink="on_improvement", generations=GENERATIONS,
                kernel="flat", workers=workers, track_history=True)
    base.update(kwargs)
    return RcgpConfig(**base)


def _signature(result):
    return {
        "genome": encode_genome(result.netlist),
        "fitness": result.fitness.key(),
        "history": result.history,
        "evaluations": result.evaluations,
        "eval_full": result.eval_full,
        "eval_incremental": result.eval_incremental,
        "ports_resimulated": result.ports_resimulated,
    }


@pytest.fixture(scope="module")
def intdiv9():
    benchmark = get_benchmark("intdiv9")
    return benchmark.spec(), initialize_netlist(benchmark.spec(),
                                                benchmark.name)


def _run(spec, initial, workers, **kwargs):
    return EvolutionRun(spec, _config(workers, **kwargs), initial=initial,
                        name="intdiv9").run()


class TestFourPathEquality:
    @pytest.mark.parametrize("shrink", ["on_improvement", "always"])
    def test_parallel_paths_match_serial(self, intdiv9, monkeypatch,
                                         shrink):
        spec, initial = intdiv9
        monkeypatch.delenv("RCGP_CHECK_INCREMENTAL", raising=False)
        config = _config(0, shrink=shrink)

        serial_run = _run(spec, initial, workers=0, shrink=shrink)
        assert _oracle_view(serial_run) == \
            reference_run(spec, config, initial)
        serial = _signature(serial_run)

        pooled = _run(spec, initial, workers=2, shrink=shrink)
        assert pooled.backend == "process-pool"
        assert _signature(pooled) == serial
        # Spans actually crossed the wire.
        assert pooled.chunks_dispatched > 0
        assert pooled.bytes_shipped > 0

        monkeypatch.setenv("RCGP_CHECK_INCREMENTAL", "1")
        checked = _run(spec, initial, workers=2, shrink=shrink)
        assert _signature(checked) == serial
        assert checked.chunks_dispatched == GENERATIONS

    def test_replay_advances_parent_on_neutral_drift(self, intdiv9,
                                                     monkeypatch):
        """Neutral-accept decisions taken worker-side land the
        coordinator on the same parent the serial loop holds."""
        spec, initial = intdiv9
        monkeypatch.delenv("RCGP_CHECK_INCREMENTAL", raising=False)
        # A hotter mutation rate drives more neutral acceptance.
        serial = _run(spec, initial, workers=0, mutation_rate=0.15)
        pooled = _run(spec, initial, workers=2, mutation_rate=0.15)
        assert _signature(pooled) == _signature(serial)

    def test_small_spec_round_trips(self, monkeypatch):
        """Equality on a tiny random spec (fast smoke: exercises short
        spans, frequent improvements, early stop)."""
        from repro.bench.random_circuits import random_rqfp
        monkeypatch.delenv("RCGP_CHECK_INCREMENTAL", raising=False)
        netlist = random_rqfp(3, 10, 2, random.Random(42))
        spec = netlist.to_truth_tables()
        initial = initialize_netlist(spec)
        serial = _signature(EvolutionRun(
            spec, _config(0, generations=80, seed=7),
            initial=initial).run())
        pooled = _signature(EvolutionRun(
            spec, _config(2, generations=80, seed=7),
            initial=initial).run())
        assert pooled == serial


def _decoder():
    return tabulate_word(lambda x: 1 << x, 2, 4)


#: Configs the oracle pins the engine against: (name, spec factory,
#: config overrides).
ORACLE_CASES = [
    ("default", _decoder, dict(mutation_rate=0.2)),
    ("object-kernel", _decoder, dict(mutation_rate=0.2, kernel="object")),
    ("full-evaluation", _decoder,
     dict(mutation_rate=0.2, incremental_eval=False)),
    ("shrink-never", _decoder, dict(mutation_rate=0.3, shrink="never")),
    ("stagnation", _decoder, dict(mutation_rate=0.1, stagnation_limit=25)),
    # Improvements whose wire bypass shrinks the parent (and so
    # re-evaluates it) twice in this run.
    ("simplify-wires", lambda: get_benchmark("alu").spec(),
     dict(mutation_rate=0.2, seed=8, generations=600)),
    # Sampled simulation with SAT counterexample feedback: impure, so
    # always inline, and sat_calls must match too.
    ("sat-feedback", _decoder,
     dict(mutation_rate=0.15, exhaustive_input_limit=1,
          simulation_patterns=16)),
]


class TestReferenceLoop:
    @pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_engine_matches_reference(self, case, workers, monkeypatch):
        monkeypatch.delenv("RCGP_CHECK_INCREMENTAL", raising=False)
        _, make_spec, overrides = case
        spec = make_spec()
        initial = initialize_netlist(spec)
        config = _config(workers, **dict(dict(generations=150, seed=13),
                                         **overrides))
        result = EvolutionRun(spec, config, initial=initial).run()
        assert _oracle_view(result) == reference_run(spec, config, initial)

    def test_tcp_workers_match_reference(self):
        from repro.cluster import ClusterFleet
        spec = get_benchmark("ham3").spec()
        initial = initialize_netlist(spec)
        config = _config(0, generations=200, seed=5, mutation_rate=0.15,
                         shrink="always")
        fleet = ClusterFleet(token=TOKEN, heartbeat=2.0).start()
        procs = [_spawn_worker(fleet.port, f"oracle-w{i}") for i in (1, 2)]
        try:
            deadline = time.monotonic() + 30.0
            while fleet.live_count() < 2:
                assert time.monotonic() < deadline, "workers never joined"
                time.sleep(0.05)
            dispatch = ClusterDispatch(fleet)
            ctx = ("oracle", tuple(t.bits for t in spec), spec[0].num_vars,
                   config.to_dict())
            backend = ClusterBackend(dispatch, ctx, spec, config)
            try:
                result = EvolutionRun(spec, config, initial=initial,
                                      backend=backend).run()
            finally:
                dispatch.close()
        finally:
            fleet.close()
            for proc in procs:
                proc.terminate()
                proc.join(timeout=10)
        assert backend.spans_remote > 0 and not backend.degraded
        assert _oracle_view(result) == reference_run(spec, config, initial)


def _tcp_worker_main(port, name):
    from repro.cluster import run_worker
    os.environ.pop("RCGP_CHECK_INCREMENTAL", None)
    run_worker(f"127.0.0.1:{port}", TOKEN, name=name)


def _spawn_worker(port, name):
    proc = multiprocessing.get_context("spawn").Process(
        target=_tcp_worker_main, args=(port, name), daemon=True)
    proc.start()
    return proc
