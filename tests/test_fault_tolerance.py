"""Fault tolerance of span dispatch and the engine.

The headline guarantee: because span evaluation is pure, **worker
crashes, hung workers and lost channels never change results** — a run
that survived N worker restarts is bit-identical to the same run
executed serially.  These tests inject real faults (``os._exit`` in
workers, a wedged worker against ``batch_timeout``) through the
engine's environment hooks and check both the recovered results and the
surfaced counters.
"""

import random

import repro.core.engine as engine_mod
from repro.core import wire
from repro.core.config import RcgpConfig
from repro.core.engine import (
    ClusterBackend,
    ClusterDispatch,
    EvolutionRun,
    TelemetryWriter,
    encode_genome,
    read_telemetry,
    replay_span,
)
from repro.core.fitness import Evaluator
from repro.core.mutation import mutate_with_delta
from repro.core.synthesis import initialize_netlist
from repro.logic.truth_table import tabulate_word


def _decoder_spec():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def _run(workers, **overrides):
    spec = _decoder_spec()
    kwargs = dict(generations=40, mutation_rate=0.1, seed=11,
                  offspring=4, shrink="always", workers=workers)
    kwargs.update(overrides)
    return EvolutionRun(spec, RcgpConfig(**kwargs)).run()


def _pool_backend(spec, config):
    ctx = ("fault-test", tuple(t.bits for t in spec), spec[0].num_vars,
           config.to_dict())
    return ClusterBackend(ClusterDispatch(local=True), ctx, spec, config,
                          name="process-pool", owns_dispatch=True)


def _span_request(spec, config, count):
    parent = initialize_netlist(spec)
    fitness = Evaluator(spec, config).evaluate(parent)
    return parent, wire.SpanRequest(
        base_seed=config.seed, start_gen=1, count=count,
        parent_fitness=(fitness.success, fitness.n_r, fitness.n_g,
                        fitness.n_b),
        parent_genome=encode_genome(parent))


class TestCrashRecovery:
    def test_crashing_workers_recovered_bit_identical(self, monkeypatch):
        serial = _run(workers=0)
        # Every worker process hard-exits (os._exit, no cleanup) after
        # its 70th evaluation.  The run's spans never exceed 16
        # generations (64 evaluations): the span planner starts at 8
        # and doubles, and 40 generations leave at most 16 for a third
        # span.  So a worker dies part-way through the second or third
        # span, its fresh replacement finishes the re-sent span, and
        # the run recovers without ever degrading.
        monkeypatch.setenv("RCGP_TEST_CRASH_AFTER_EVALS", "70")
        crashed = _run(workers=2)
        assert crashed.backend == "process-pool"
        assert crashed.worker_restarts > 0
        assert crashed.batches_retried > 0
        assert not crashed.degraded_to_inline
        assert crashed.fitness.key() == serial.fitness.key()
        assert crashed.netlist.describe() == serial.netlist.describe()
        assert crashed.generations == serial.generations

    def test_exhausted_retries_degrade_to_inline(self, monkeypatch):
        serial = _run(workers=0)
        # Workers die on their *first* evaluation and retries are
        # forbidden: the first span must degrade the backend, and the
        # whole run completes inline — still bit-identical.
        monkeypatch.setenv("RCGP_TEST_CRASH_AFTER_EVALS", "1")
        degraded = _run(workers=2, batch_retries=0)
        assert degraded.backend == "process-pool"
        assert degraded.degraded_to_inline
        assert degraded.worker_restarts == 0  # no retry budget to spend
        assert degraded.fitness.key() == serial.fitness.key()
        assert degraded.netlist.describe() == serial.netlist.describe()
        assert degraded.evaluations == serial.evaluations

    def test_fault_counters_reach_telemetry(self, monkeypatch, tmp_path):
        path = tmp_path / "faults.jsonl"
        monkeypatch.setenv("RCGP_TEST_CRASH_AFTER_EVALS", "70")
        result = _run(workers=2, telemetry_path=str(path))
        events = read_telemetry(str(path))
        faults = [e for e in events if e["event"] == "worker_fault"]
        assert faults, "no worker_fault events despite injected crashes"
        assert faults[-1]["worker_restarts"] == result.worker_restarts
        assert faults[-1]["batches_retried"] == result.batches_retried
        end = [e for e in events if e["event"] == "run_end"][-1]
        assert end["worker_restarts"] == result.worker_restarts
        assert end["degraded_to_inline"] is False
        assert end["interrupted"] is False


class TestHangRecovery:
    def test_hung_worker_times_out_and_degrades(self, monkeypatch):
        serial = _run(workers=0, generations=10)
        # Workers wedge (sleep 600s) on their first evaluation; with a
        # short batch_timeout and no retries the backend must kill the
        # hung process and finish the run inline, well under 600s.
        monkeypatch.setenv("RCGP_TEST_HANG_AFTER_EVALS", "1")
        hung = _run(workers=2, generations=10,
                    batch_timeout=0.5, batch_retries=0)
        assert hung.degraded_to_inline
        assert hung.fitness.key() == serial.fitness.key()
        assert hung.netlist.describe() == serial.netlist.describe()


class TestInterrupt:
    class _InterruptingTelemetry(TelemetryWriter):
        """Raises KeyboardInterrupt inside the generation loop, exactly
        where a real SIGINT would land mid-run."""

        def __init__(self, handle, after):
            super().__init__(handle)
            self._countdown = after

        def emit(self, event, **fields):
            super().emit(event, **fields)
            if event == "generation":
                self._countdown -= 1
                if self._countdown == 0:
                    raise KeyboardInterrupt

    def test_interrupt_returns_best_so_far(self, tmp_path):
        path = tmp_path / "interrupted.jsonl"
        spec = _decoder_spec()
        config = RcgpConfig(generations=200, mutation_rate=0.1, seed=11,
                            offspring=4, shrink="always", workers=0)
        with open(path, "w") as handle:
            telemetry = self._InterruptingTelemetry(handle, after=5)
            result = EvolutionRun(spec, config,
                                  telemetry=telemetry).run()
        assert result.interrupted
        assert result.generations < 200
        assert result.fitness.functional
        events = read_telemetry(str(path))
        end = [e for e in events if e["event"] == "run_end"]
        assert end and end[-1]["interrupted"] is True

    def test_interrupt_with_pool_kills_workers(self, tmp_path):
        path = tmp_path / "interrupted_pool.jsonl"
        spec = _decoder_spec()
        config = RcgpConfig(generations=200, mutation_rate=0.1, seed=11,
                            offspring=4, shrink="always", workers=2)
        with open(path, "w") as handle:
            telemetry = self._InterruptingTelemetry(handle, after=3)
            result = EvolutionRun(spec, config,
                                  telemetry=telemetry).run()
        assert result.interrupted
        assert result.backend == "process-pool"
        assert result.fitness.functional


class TestBackendInternals:
    def test_batch_counters_not_double_counted_on_retry(self, monkeypatch):
        # Crash after 30 evaluations against a 10-generation span (40
        # evaluations): the first dispatch dies part-way, the retry
        # dies too, and with the retry budget spent the span replays
        # inline.  The counters must hold exactly one span's worth.
        monkeypatch.setenv("RCGP_TEST_CRASH_AFTER_EVALS", "30")
        spec = _decoder_spec()
        config = RcgpConfig(seed=3, mutation_rate=0.2, batch_retries=1)
        _, request = _span_request(spec, config, count=10)
        want, _ = replay_span(Evaluator(spec, config), None, request)
        backend = _pool_backend(spec, config)
        try:
            backend.dispatch_span(request)
            got = backend.collect_span()
        finally:
            backend.close()
        assert got == want
        assert backend.batches_retried == 1
        assert backend.degraded
        assert backend.evaluations == sum(
            full + incremental for _, _, (full, incremental, _) in
            want.records)
        assert backend.eval_full + backend.eval_incremental == \
            backend.evaluations

    def test_terminate_is_safe_and_idempotent(self):
        spec = _decoder_spec()
        config = RcgpConfig(seed=0)
        backend = _pool_backend(spec, config)
        _, request = _span_request(spec, config, count=4)
        backend.dispatch_span(request)  # a span in flight, abandoned
        backend.terminate()
        backend.terminate()
        backend.close()
        dispatch = ClusterDispatch(local=True)
        dispatch.terminate()
        dispatch.close()


class TestWorkerEpochInvalidation:
    """A span-resident parent state must be rebuilt when the
    evaluator's own pattern set grows (SAT counterexample feedback)."""

    def _sampled_config(self):
        # Force sampled simulation: 2-input spec, exhaustive limit 1.
        return RcgpConfig(seed=5, exhaustive_input_limit=1,
                          simulation_patterns=32, verify_with_sat=False,
                          mutation_rate=0.2)

    def test_stale_state_rebuilt_at_chunk_entry(self):
        spec = _decoder_spec()
        config = self._sampled_config()
        evaluator = Evaluator(spec, config)
        _, request = _span_request(spec, config, count=3)
        _, resident = replay_span(evaluator, None, request)
        assert resident[0] == request.parent_genome  # no drift
        stale = resident[2]
        evaluator.add_counterexample(3)  # pattern set grows: epoch moves
        assert stale.epoch != evaluator.pattern_epoch
        # Same parent genome: the resident is reused, its state is not.
        result, resident = replay_span(evaluator, resident, request)
        assert resident[2] is not stale
        assert resident[2].epoch == evaluator.pattern_epoch
        assert evaluator.eval_incremental > 0
        fresh = Evaluator(spec, config)
        fresh.add_counterexample(3)
        want, _ = replay_span(fresh, None, request)
        assert [fit for _, fit, _ in result.records] == \
            [fit for _, fit, _ in want.records]

    def test_stale_state_rebuilt_mid_chunk(self):
        spec = _decoder_spec()
        config = self._sampled_config()
        evaluator = Evaluator(spec, config)
        parent, request = _span_request(spec, config, count=1)

        # Grow the pattern set *between offspring of one generation*,
        # as SAT counterexample feedback would: wrap
        # evaluate_incremental so the first call advances the epoch
        # after computing.
        real = evaluator.evaluate_incremental
        epochs, fits = [], []

        def growing(child, delta, state=None):
            epochs.append(state.epoch)
            fits.append(real(child, delta, state))
            if len(fits) == 1:
                evaluator.add_counterexample(2)
            return fits[-1]

        evaluator.evaluate_incremental = growing
        result, resident = replay_span(evaluator, None, request)
        evaluator.evaluate_incremental = real
        # Every offspring after the growth ran against a rebuilt state.
        assert epochs[1:] == \
            [evaluator.pattern_epoch] * (config.offspring - 1)
        assert resident[2].epoch == evaluator.pattern_epoch
        # ...and scored exactly what full evaluation on the grown
        # pattern set scores (offspring 0 ran before the growth).
        for i, fit in enumerate(fits[1:], start=1):
            rng = random.Random(engine_mod.child_seed(config.seed, 1, i))
            child, _ = mutate_with_delta(parent, rng, config)
            assert fit == evaluator.evaluate(child)
        best = fits[0]
        for fit in fits[1:]:
            if fit.key() >= best.key():
                best = fit
        assert result.records[0][1] == (best.success, best.n_r,
                                         best.n_g, best.n_b)

    def test_engine_run_with_sat_growth_under_pool_oracle(
            self, monkeypatch):
        # End-to-end: sampled simulation *with* SAT feedback is not
        # parallel-safe, but an explicitly passed pool backend forces
        # the worker to grow its own pattern set mid-run.  With the
        # RCGP_CHECK_INCREMENTAL oracle armed in the worker, any
        # stale-state reuse fails the run loudly.
        monkeypatch.setenv("RCGP_CHECK_INCREMENTAL", "1")
        spec = _decoder_spec()
        config = RcgpConfig(generations=15, mutation_rate=0.15, seed=9,
                            offspring=4, shrink="always",
                            exhaustive_input_limit=1,
                            simulation_patterns=16)
        backend = _pool_backend(spec, config)
        result = EvolutionRun(spec, config, backend=backend).run()
        assert result.fitness.functional
        assert result.backend == "process-pool"
        assert result.chunks_dispatched == 15  # check mode: 1-gen spans
