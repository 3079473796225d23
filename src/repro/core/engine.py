"""The RCGP evolution engine: one ``(1 + λ)`` loop, one span dispatch.

The paper's headline cost is the ``(1 + λ)`` inner loop — up to 5·10⁷
generations per circuit.  This module runs that loop in exactly one way:

* :class:`EvolutionRun` — the single entry point.  ``evolve``,
  ``evolve_with_checkpoints``, ``multi_start`` and ``windowed_optimize``
  are thin shims over it.
* **Spans** — :func:`replay_span` runs up to ``count`` generations of
  mutation, incremental evaluation, selection and neutral-drift
  acceptance, stopping at the first strict improvement.  The run loop
  owns everything else (the shrink/simplify accept block, history,
  stagnation, the time budget, telemetry) and narrates each span's
  per-generation records.  Span length is adaptive
  (:class:`SpanPlanner`).
* **Backends** — where a span executes.  :class:`InlineBackend` replays
  it in-process on the run's own evaluator (the serial default, and the
  only backend for impure configs: SAT counterexample feedback mutates
  the evaluator).  :class:`ClusterBackend` ships it as one frame through
  a :class:`ClusterDispatch` — a local pipe worker, remote TCP workers
  from a :class:`~repro.cluster.fleet.ClusterFleet`, or both — and the
  worker re-derives every offspring from the RNG keys ``(seed, absolute
  generation, index)``, so only one genome crosses the wire per span.
* **Incremental cone-aware evaluation** — each offspring is a
  :class:`~repro.core.mutation.MutationDelta` away from the span's
  resident parent, whose per-port simulation words are memoized in a
  :class:`~repro.core.simstate.SimulationState`; only the delta's
  fan-out cone is re-simulated (``config.incremental_eval``).
  Telemetry counts ``eval_full`` / ``eval_incremental`` /
  ``ports_resimulated``.
* **Deterministic parallelism** — every offspring gets its own RNG
  stream derived from ``(seed, generation, offspring index)``, so a run
  is bit-identical for a fixed seed wherever its spans execute.
* **Fault tolerance** — a span lost to a crashed, hung or disconnected
  worker is re-dispatched (purity makes the retry bit-identical);
  exhausted retries replay the span inline on a fallback evaluator
  built like a worker's and keep doing so for the rest of the slice.
  ``KeyboardInterrupt`` finalizes the incumbent cleanly, and
  ``worker_restarts`` / ``batches_retried`` / ``degraded_to_inline``
  are reported on the result and in telemetry.
* **Result gate** (``config.verify_result``) — the finished run's best
  netlist is independently re-simulated on the object path, checked for
  RQFP legality and SAT-proven equivalent to the spec
  (:mod:`repro.core.verify`); violations raise typed
  :mod:`repro.errors` exceptions.

Off-loading spans requires the fitness function to be *pure*
(:func:`parallel_safe`): it is when simulation is exhaustive, or when
SAT verification is off and the random pattern set is seeded.
Otherwise the engine silently runs inline; the chosen backend is
reported in the telemetry ``run_start`` event.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Callable, Dict, IO, List, Optional, Protocol, Sequence,
                    Tuple)

from ..errors import (FrameError, FrameTruncated, SynthesisError,
                      WorkerPoolError)
from ..logic.truth_table import TruthTable
from ..rqfp.netlist import RqfpNetlist
from ..rqfp.simplify import bypass_wire_gates
from .config import RcgpConfig
from .fitness import Evaluator, Fitness
from .kernel import NetlistKernel
from .mutation import MutationDelta, mutate_with_delta
from . import wire
from .transport import HANDLERS, OP_RESULT, OP_SPAN, PipeWorker

ProgressCallback = Callable[[int, Fitness], None]

Genome = Tuple[int, ...]
"""Flat port-index encoding: ``(n_pi, n_gates, in0, in1, in2, config,
..., po0, po1, ...)``.  Hashable and cheap to ship; names are dropped —
genomes exist to be evaluated."""


# ----------------------------------------------------------------------
# Genome codec


def encode_genome(candidate) -> Genome:
    """Candidate -> compact port-index tuple (loses only the names).

    Accepts either representation: a :class:`NetlistKernel` flattens its
    gene arrays directly, an :class:`RqfpNetlist` walks its gate
    objects.  Both produce the identical tuple for the same chromosome.
    """
    if isinstance(candidate, NetlistKernel):
        return candidate.to_genome()
    flat: List[int] = [candidate.num_inputs, candidate.num_gates]
    for gate in candidate.gates:
        flat.extend((gate.in0, gate.in1, gate.in2, gate.config))
    flat.extend(candidate.outputs)
    return tuple(flat)


def genome_with_delta(parent_genome: Genome,
                      delta: MutationDelta) -> Genome:
    """Offspring genome by patching the parent's tuple in place.

    Point mutation preserves the chromosome shape, so the child's
    genome is the parent's with at most ``max_mutated_genes`` positions
    rewritten — an O(delta) patch on a C-level list copy instead of an
    O(genome) re-walk of the candidate.  Equals
    ``encode_genome(delta.apply_to(parent))`` by construction.
    """
    flat = list(parent_genome)
    for g, (in0, in1, in2, config) in delta.gates:
        i = 2 + 4 * g
        flat[i] = in0
        flat[i + 1] = in1
        flat[i + 2] = in2
        flat[i + 3] = config
    if delta.outputs:
        base = 2 + 4 * parent_genome[1]
        for index, port in delta.outputs:
            flat[base + index] = port
    return tuple(flat)


def decode_genome(genome: Genome, name: str = "") -> RqfpNetlist:
    """Inverse of :func:`encode_genome` (fresh default port names)."""
    num_inputs, num_gates = genome[0], genome[1]
    netlist = RqfpNetlist(num_inputs, name)
    base = 2
    for g in range(num_gates):
        i = base + 4 * g
        netlist.add_gate(genome[i], genome[i + 1], genome[i + 2],
                         genome[i + 3])
    for port in genome[base + 4 * num_gates:]:
        netlist.add_output(port)
    return netlist


def _decode_candidate(genome: Genome, evaluator: Evaluator):
    """Genome -> the evaluator's preferred representation.

    Backends decode through this so a flat-mode evaluator receives
    :class:`NetlistKernel` candidates (array slicing, no per-gate
    objects) and an object-mode evaluator receives netlists.
    """
    if evaluator.kernel_mode:
        return NetlistKernel.from_genome(genome)
    return decode_genome(genome)


def _adopt_names(candidate, template):
    """Restore the names a genome round-trip drops.

    :func:`encode_genome` keeps only port indices; a candidate decoded
    from a replay span's genome must re-adopt the run's names (stable
    through copy/shrink on both representations) so ``finalize()`` /
    ``describe()`` output stays bit-identical to the serial loop's.
    """
    candidate.name = template.name
    if isinstance(candidate, NetlistKernel):
        candidate.input_names = tuple(template.input_names)
        candidate.output_names = tuple(template.output_names)
    else:
        candidate.input_names = list(template.input_names)
        candidate.output_names = list(template.output_names)
    return candidate


def child_seed(base_seed: int, generation: int, index: int) -> int:
    """Deterministic, well-mixed RNG seed for one offspring.

    Derived by hashing rather than arithmetic so neighbouring
    ``(generation, index)`` pairs give unrelated streams, and fixed
    independently of evaluation order or worker count.  Callers that
    run a budget in slices (the scheduler, checkpointed runs) pass
    *absolute* generation numbers via
    :class:`EvolutionRun`'s ``generation_offset`` so the trajectory is
    a function of ``(seed, total budget)`` alone — independent of how
    the budget is sliced.
    """
    data = f"{base_seed}:{generation}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(),
                          "big")


# ----------------------------------------------------------------------
# Spans: the (1+λ) loop body


# Fault injection for the fault-tolerance test suite: when the
# environment sets RCGP_TEST_CRASH_AFTER_EVALS / RCGP_TEST_HANG_AFTER_EVALS
# to N, every worker process dies (or hangs) after its N-th evaluation.
# Armed only in worker processes; None elsewhere — the per-evaluation
# check is one "is None" branch.
_WORKER_FAULT_COUNTDOWN: Optional[int] = None
_WORKER_FAULT_MODE = ""

_Counters = Tuple[int, int, int]  # (eval_full, eval_incremental, ports)


def install_fault_injection() -> None:
    """Arm the worker-side fault hooks from the environment (test use)."""
    global _WORKER_FAULT_COUNTDOWN, _WORKER_FAULT_MODE
    _WORKER_FAULT_COUNTDOWN, _WORKER_FAULT_MODE = None, ""
    for mode, variable in (("crash", "RCGP_TEST_CRASH_AFTER_EVALS"),
                           ("hang", "RCGP_TEST_HANG_AFTER_EVALS")):
        value = os.environ.get(variable, "")
        if value:
            _WORKER_FAULT_COUNTDOWN = int(value)
            _WORKER_FAULT_MODE = mode
            break


def _maybe_inject_fault() -> None:
    """Test hook: kill or wedge this worker when its countdown expires."""
    global _WORKER_FAULT_COUNTDOWN
    if _WORKER_FAULT_COUNTDOWN is None:
        return
    _WORKER_FAULT_COUNTDOWN -= 1
    if _WORKER_FAULT_COUNTDOWN > 0:
        return
    if _WORKER_FAULT_MODE == "crash":
        os._exit(17)  # simulate a hard worker crash (no cleanup)
    time.sleep(600)  # simulate a hung worker; the master kills us


def _counters(evaluator: Evaluator) -> _Counters:
    return (evaluator.eval_full, evaluator.eval_incremental,
            evaluator.ports_resimulated)


def replay_span(evaluator: Evaluator, resident,
                request: wire.SpanRequest):
    """Run the ``(1+λ)`` loop for one span of generations.

    Every offspring is re-derived from the deterministic RNG keys
    ``(seed, absolute generation, index)``, so the span is a pure
    function of the request — the same wherever it runs.  Mutation,
    evaluation (incremental unless ``config.incremental_eval`` is off),
    selection (later offspring win ties) and neutral-drift acceptance
    (with the ``shrink="always"`` policy) happen here.  The span ends at
    the first *strict* improvement — the run loop owns the
    shrink/simplify/history accept block — or after ``request.count``
    generations.

    ``resident`` caches ``(genome, parent, state, consumers)`` across
    spans: the memoized state is rebuilt only when the chromosome
    *value* changes (neutral accepts that cancel out keep the warm
    state) or the evaluator's pattern epoch moves (SAT counterexample
    feedback, checked before every offspring).  Returns
    ``(SpanResult, resident)``.
    """
    config = evaluator.config
    incremental = config.incremental_eval

    def span_state(candidate):
        if not incremental:
            return None
        # Span-resident states amortize the parent's fan-out index over
        # the whole span: cone evaluation goes worklist-driven
        # (O(cone)) instead of scanning the netlist tail per offspring.
        prepared = evaluator.prepare_parent(candidate)
        prepared.enable_fanout_index()
        return prepared

    genome = request.parent_genome
    if resident is None or resident[0] != genome:
        parent = _decode_candidate(genome, evaluator)
        resident = (genome, parent, span_state(parent),
                    parent.consumers())
    genome, parent, state, consumers = resident
    parent_fitness = Fitness(*request.parent_fitness)
    rng = random.Random()
    offspring = config.offspring
    shrink_always = config.shrink == "always"
    check = request.check_deltas
    check_at = 0
    records: List[wire.SpanRecord] = []
    improved = False
    child_genome: Optional[Genome] = None
    for k in range(request.count):
        generation = request.start_gen + k
        before = _counters(evaluator)
        best_fit: Optional[Fitness] = None
        best_child = None
        for i in range(offspring):
            _maybe_inject_fault()
            rng.seed(child_seed(request.base_seed, generation, i))
            child, delta = mutate_with_delta(parent, rng, config,
                                             consumers=consumers,
                                             rollback=True)
            if check is not None:
                if delta.flatten() != check[check_at].flatten():
                    raise WorkerPoolError(
                        "worker-side mutation replay diverged from the "
                        f"coordinator's at generation {generation}, "
                        f"offspring {i}")
                check_at += 1
            if incremental:
                if state.epoch != evaluator.pattern_epoch:
                    state = span_state(parent)
                fit = evaluator.evaluate_incremental(child, delta, state)
            else:
                fit = evaluator.evaluate(child)
            if best_fit is None or fit.key() >= best_fit.key():
                best_fit = fit
                best_child = child
        after = _counters(evaluator)
        accepted = best_fit.key() >= parent_fitness.key()
        records.append((accepted,
                        (best_fit.success, best_fit.n_r, best_fit.n_g,
                         best_fit.n_b),
                        (after[0] - before[0], after[1] - before[1],
                         after[2] - before[2])))
        if accepted:
            if best_fit.key() > parent_fitness.key():
                improved = True
                child_genome = encode_genome(best_child)
                break
            # Neutral drift: advance the resident parent (shrink policy
            # included), rebuilding state/consumers only when the
            # chromosome value changed.
            parent_fitness = best_fit
            new_parent = best_child.shrink() if shrink_always else best_child
            new_genome = encode_genome(new_parent)
            if new_genome != genome:
                genome = new_genome
                parent = new_parent
                state = span_state(parent)
                consumers = parent.consumers()
    resident = (genome, parent, state, consumers)
    final_genome = genome \
        if not improved and genome != request.parent_genome else None
    return wire.SpanResult(records=tuple(records), improved=improved,
                           child_genome=child_genome,
                           final_genome=final_genome), resident


# -- worker side -------------------------------------------------------
#
# A span frame is ``OP_SPAN | u32 context length | pickled JobContext |
# packed SpanRequest``.  The context names the job and carries what a
# worker needs to build its evaluator; workers keep a small LRU of
# per-job evaluators and span residents, so interleaved spans from
# different jobs (or slices of one job) reuse warm state.

#: ``(job_id, spec bits, num_vars, config dict)``.  A run-private
#: dispatch uses a run-local id; the scheduler uses the job id.
JobContext = Tuple[str, Tuple[int, ...], int, Dict[str, object]]

#: Worker-side evaluator cache size.  Evaluators hold pattern words and
#: compiled kernels; a handful of live jobs is the common case and
#: evicted jobs just rebuild on their next span.
_WORKER_JOB_CACHE = 8

_U32 = struct.Struct("<I")
_RESULT_PREFIX = bytes([OP_RESULT])
_SPAN_EVALUATORS: "OrderedDict[str, Evaluator]" = OrderedDict()
_SPAN_RESIDENTS: Dict[str, tuple] = {}


def reset_worker_state() -> None:
    """Start a worker from a clean slate: no resident evaluators (a
    forked worker inherits the coordinator's module state), fault
    injection armed from the environment."""
    _SPAN_EVALUATORS.clear()
    _SPAN_RESIDENTS.clear()
    install_fault_injection()


def _frame_span(ctx_blob: bytes, request: wire.SpanRequest) -> bytes:
    return b"".join((bytes([OP_SPAN]), _U32.pack(len(ctx_blob)), ctx_blob,
                     wire.pack_span_request(request)))


def _job_evaluator(ctx: JobContext) -> Evaluator:
    job_id, spec_bits, num_vars, config_dict = ctx
    evaluator = _SPAN_EVALUATORS.get(job_id)
    if evaluator is None:
        spec = [TruthTable(num_vars, bits) for bits in spec_bits]
        evaluator = Evaluator(spec, RcgpConfig.from_dict(config_dict))
        _SPAN_EVALUATORS[job_id] = evaluator
        while len(_SPAN_EVALUATORS) > _WORKER_JOB_CACHE:
            evicted, _ = _SPAN_EVALUATORS.popitem(last=False)
            _SPAN_RESIDENTS.pop(evicted, None)
    _SPAN_EVALUATORS.move_to_end(job_id)
    return evaluator


def _handle_span(payload: memoryview) -> bytes:
    (size,) = _U32.unpack_from(payload, 0)
    at = _U32.size
    try:
        ctx: JobContext = pickle.loads(payload[at:at + size])
    except Exception as exc:  # garbage unpickles to anything
        raise FrameTruncated(
            f"undecodable span job context: {exc!r}") from None
    evaluator = _job_evaluator(ctx)
    request = wire.unpack_span_request(payload[at + size:])
    result, _SPAN_RESIDENTS[ctx[0]] = replay_span(
        evaluator, _SPAN_RESIDENTS.get(ctx[0]), request)
    return _RESULT_PREFIX + wire.pack_span_result(result)


HANDLERS[OP_SPAN] = _handle_span


# -- coordinator side --------------------------------------------------

#: Everything a recoverable span loss can look like: a worker crashed
#: or its connection died (EOF/OSError), a span overran its deadline,
#: or a frame arrived malformed (truncated, oversized, unknown opcode —
#: the typed :class:`~repro.errors.FrameError` family).  Evaluation is
#: pure, so a lost span re-runs bit-identically.
RECOVERABLE_POOL_ERRORS = (TimeoutError, OSError, EOFError, FrameError)


class ClusterDispatch:
    """Ships one span at a time to whichever worker is available.

    Channels are acquired per span: an idle remote worker leased from
    ``fleet`` (any object with ``lease_channel()``, normally a
    :class:`~repro.cluster.fleet.ClusterFleet`) first, else the
    dispatch's own local pipe worker when ``local`` is set (spawned
    lazily, respawned after a failure).  A dispatch has at most one span
    in flight, so one local worker is all it ever needs.

    Recovery: a span that fails (worker death, deadline overrun,
    malformed frame) releases its channel as failed — the local worker
    is killed, a remote connection dropped — and is re-sent on a fresh
    channel, up to the caller's retry budget.  :meth:`collect_span`
    then returns ``None`` with :attr:`last_failure` set to
    ``"exhausted"``, or ``"no_channels"`` when nobody could take the
    span at all; the backend replays it inline either way.

    Counters are cumulative across every job and slice that uses the
    dispatch; :class:`ClusterBackend` exposes slice-local views.
    """

    def __init__(self, fleet=None, *, local: bool = False):
        self.fleet = fleet
        self.local = local
        self._worker: Optional[PipeWorker] = None
        self.worker_restarts = 0
        self.batches_retried = 0
        self.bytes_shipped = 0
        self.chunks_dispatched = 0
        self.pipeline_stalls = 0
        self.spans_remote = 0
        #: Why the last :meth:`collect_span` returned ``None``.
        self.last_failure = ""
        #: Remote worker names that served the last span (empty when
        #: the local worker did).
        self.last_workers: Tuple[str, ...] = ()
        self._frame: Optional[bytes] = None
        self._channel = None
        self._live = False

    # -- channels ------------------------------------------------------

    def _acquire(self):
        if self.fleet is not None:
            channel = self.fleet.lease_channel()
            if channel is not None:
                return channel
        if not self.local:
            return None
        if self._worker is None:
            try:
                self._worker = PipeWorker()
            except OSError:
                return None  # cannot spawn (fork limit, fd exhaustion)
        return self._worker

    def _release(self, *, failed: bool) -> None:
        channel, self._channel = self._channel, None
        self._live = False
        if channel is None:
            return
        channel.release(failed=failed)
        if failed and channel is self._worker:
            self._worker = None

    def _send(self) -> None:
        self._channel.send(self._frame)
        self.bytes_shipped += len(self._frame)
        self.chunks_dispatched += 1
        self._live = True

    # -- spans ---------------------------------------------------------

    def dispatch_span(self, frame: bytes) -> None:
        """Ship one span frame without waiting for it.

        The channel stays held until :meth:`collect_span` resolves the
        span (a fleet heartbeat must never interleave a ping with it).
        Send failures are left for the collect-side retry loop.
        """
        self._frame = frame
        self._channel = self._acquire()
        self._live = False
        if self._channel is None:
            return
        try:
            self._send()
        except (KeyboardInterrupt, SystemExit):
            self._release(failed=True)
            raise
        except RECOVERABLE_POOL_ERRORS:
            self._release(failed=True)

    def collect_span(self, timeout: Optional[float],
                     retries: int) -> Optional[wire.SpanResult]:
        """Block for the in-flight span, with bounded fault recovery."""
        if self._frame is None:
            raise RuntimeError("collect_span without a dispatched span")
        if self._live and not self._channel.ready():
            # The coordinator caught up with the worker: the overlap
            # window was shorter than the span's compute time.
            self.pipeline_stalls += 1
        attempt = 0
        while True:
            if self._channel is None:
                self._channel = self._acquire()
                if self._channel is None:
                    self._frame = None
                    self.last_failure = "no_channels"
                    return None
            channel = self._channel
            try:
                if not self._live:
                    self._send()
                deadline = None if timeout is None \
                    else time.monotonic() + timeout
                reply = channel.recv(deadline)
                result = wire.unpack_span_result(memoryview(reply)[1:])
            except (KeyboardInterrupt, SystemExit):
                self._release(failed=True)
                raise
            except RECOVERABLE_POOL_ERRORS:
                self._release(failed=True)
                if attempt >= retries:
                    self._frame = None
                    self.last_failure = "exhausted"
                    return None
                attempt += 1
                self.batches_retried += 1
                self.worker_restarts += 1
                continue
            self.last_workers = (channel.name,) if channel.remote else ()
            self.spans_remote += channel.remote
            self._release(failed=False)
            self._frame = None
            return result

    def abandon(self) -> None:
        """Drop an in-flight span; its channel is released as failed so
        a late reply can never be read as the next span's."""
        if self._frame is not None:
            self._frame = None
            self._release(failed=True)

    def terminate(self) -> None:
        """Immediate shutdown (SIGINT path): kill the local worker."""
        self.abandon()
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.kill()

    def close(self) -> None:
        """Release the local worker; the fleet belongs to its owner."""
        self.abandon()
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.close()


class EvaluationBackend(Protocol):
    """Where a run's spans execute.

    The run calls :meth:`dispatch_span` and later :meth:`collect_span`
    (at most one span in flight), then :meth:`close` when it ends; an
    optional ``terminate()`` is called instead on ``KeyboardInterrupt``.
    Evaluation counters (``evaluations``, ``eval_full``,
    ``eval_incremental``, ``ports_resimulated``) cover only evaluations
    outside the run's own evaluator; fault and transport counters
    (``worker_restarts``, ``batches_retried``, ``bytes_shipped``,
    ``chunks_dispatched``, ``pipeline_stalls``, ``degraded``) are read
    into the :class:`EvolutionResult`.
    """

    name: str

    def dispatch_span(self, request: wire.SpanRequest) -> None:
        ...  # pragma: no cover

    def collect_span(self) -> wire.SpanResult:
        ...  # pragma: no cover

    def close(self) -> None:
        ...  # pragma: no cover


class InlineBackend:
    """Replay spans in-process on the run's own evaluator.

    The evaluator's counters are the run's, so this backend reports
    none of its own.  Also the only correct backend for impure configs:
    SAT counterexamples grow the run evaluator's pattern set mid-span.
    """

    name = "inline"
    evaluations = eval_full = eval_incremental = ports_resimulated = 0
    worker_restarts = batches_retried = 0
    bytes_shipped = chunks_dispatched = pipeline_stalls = 0
    degraded = False

    def __init__(self, evaluator: Evaluator):
        self._evaluator = evaluator
        self._resident = None
        self._request: Optional[wire.SpanRequest] = None

    def dispatch_span(self, request: wire.SpanRequest) -> None:
        self._request = request

    def collect_span(self) -> wire.SpanResult:
        request, self._request = self._request, None
        result, self._resident = replay_span(self._evaluator,
                                             self._resident, request)
        return result

    def close(self) -> None:
        pass


def _since(counter: str):
    """Slice-local view of one of the dispatch's cumulative counters."""
    return property(lambda self: getattr(self._dispatch, counter)
                    - self._at[counter])


class ClusterBackend:
    """Per-slice adapter from a run to a :class:`ClusterDispatch`.

    Frames carry the slice's :data:`JobContext`; evaluation counters
    come back per span record and the dispatch's fault/transport
    counters are exposed as slice-local deltas.  ``name`` is the
    ``backend`` string the run reports (``"process-pool"`` for a
    run-private dispatch, ``"shared-pool"`` / ``"cluster"`` under the
    scheduler).

    When the dispatch cannot serve a span the span is replayed inline
    on a fallback evaluator built exactly like a worker's, so results
    never change.  Retries exhausted latch :attr:`degraded` for the rest
    of the slice (every later span runs inline); a fleet with nobody
    connected is normal cluster weather and does not latch.
    """

    def __init__(self, dispatch: ClusterDispatch, ctx: JobContext,
                 spec: Sequence[TruthTable], config: RcgpConfig, *,
                 name: str = "cluster", owns_dispatch: bool = False):
        self.name = name
        self._dispatch = dispatch
        self._owns = owns_dispatch
        self._ctx_blob = pickle.dumps(ctx)
        self._spec = list(spec)
        self._config = config
        self.evaluations = 0
        self.eval_full = 0
        self.eval_incremental = 0
        self.ports_resimulated = 0
        #: Every remote worker name that served a span of this slice.
        self.cluster_workers: set = set()
        self.degraded = False
        self._at = {counter: getattr(dispatch, counter) for counter in (
            "worker_restarts", "batches_retried", "bytes_shipped",
            "chunks_dispatched", "pipeline_stalls", "spans_remote")}
        self._fallback: Optional[InlineBackend] = None
        self._request: Optional[wire.SpanRequest] = None

    worker_restarts = _since("worker_restarts")
    batches_retried = _since("batches_retried")
    bytes_shipped = _since("bytes_shipped")
    chunks_dispatched = _since("chunks_dispatched")
    pipeline_stalls = _since("pipeline_stalls")
    spans_remote = _since("spans_remote")

    def dispatch_span(self, request: wire.SpanRequest) -> None:
        self._request = request
        if not self.degraded:
            self._dispatch.dispatch_span(
                _frame_span(self._ctx_blob, request))

    def collect_span(self) -> wire.SpanResult:
        request, self._request = self._request, None
        result = None
        if not self.degraded:
            config = self._config
            result = self._dispatch.collect_span(config.batch_timeout,
                                                 config.batch_retries)
            if result is None:
                self.degraded = self._dispatch.last_failure == "exhausted"
            else:
                self.cluster_workers.update(self._dispatch.last_workers)
        if result is None:
            if self._fallback is None:
                self._fallback = InlineBackend(
                    Evaluator(self._spec, self._config))
            self._fallback.dispatch_span(request)
            result = self._fallback.collect_span()
        for _accepted, _fit, (full, incremental, ports) in result.records:
            self.evaluations += full + incremental
            self.eval_full += full
            self.eval_incremental += incremental
            self.ports_resimulated += ports
        return result

    def terminate(self) -> None:
        """Immediate shutdown: kill whatever serves the in-flight span."""
        if self._owns:
            self._dispatch.terminate()
        else:
            self._dispatch.abandon()

    def close(self) -> None:
        if self._owns:
            self._dispatch.close()
        else:
            self._dispatch.abandon()


class SpanPlanner:
    """Adaptive span sizing.

    Spans grow geometrically while they come back well under the
    latency target and shrink when they overrun it, so long plateaus
    amortize the per-span round trip while hang detection
    (``batch_timeout``), the time budget and interrupts stay responsive.
    """

    START = 8
    MAX = 512
    #: Default wall-latency target per span (seconds).
    TARGET = 0.25

    def __init__(self, batch_timeout: Optional[float]):
        self._span = self.START
        self._target = self.TARGET if batch_timeout is None \
            else min(self.TARGET, batch_timeout / 4.0)

    def plan(self, headroom: int) -> int:
        """Generations for the next span, capped by the caller's room."""
        return max(1, min(self._span, headroom))

    def observe(self, planned: int, executed: int,
                elapsed: float) -> None:
        if executed >= planned and elapsed < self._target / 2:
            self._span = min(self.MAX, self._span * 2)
        elif elapsed > self._target and self._span > self.START:
            self._span = max(self.START, self._span // 2)


def parallel_safe(num_inputs: int, config: RcgpConfig) -> bool:
    """Whether a run's spans may execute outside its own evaluator.

    Exhaustive simulation is pure.  Sampled simulation without SAT is
    pure iff the pattern set is reproducible (seeded).  Sampled
    simulation *with* SAT feeds counterexamples back into the pattern
    set, so a worker would drift from the run's evaluator — not safe.
    The seed must also fit the span frame's signed 64-bit field.
    """
    if config.seed is not None and not -2**63 <= config.seed < 2**63:
        return False
    if num_inputs <= config.exhaustive_input_limit:
        return True
    return not config.verify_with_sat and config.seed is not None


# ----------------------------------------------------------------------
# Telemetry


class TelemetryWriter:
    """Structured JSONL event sink for evolution runs.

    One JSON object per line; every event carries an ``"event"`` tag
    (``run_start`` / ``generation`` / ``run_end``).  Consumed by the CLI
    (``--telemetry``), the harness (``RCGP_BENCH_TELEMETRY_DIR``), the
    job scheduler (per-job files under the :class:`repro.jobs.JobStore`)
    and any external dashboard that can tail a file.

    ``job_id`` namespaces every event with a ``"job_id"`` field so
    multiple jobs in one process never produce ambiguous streams, and
    ``mode="a"`` appends instead of truncating — a resumed job keeps
    one continuous event history across process restarts.
    """

    def __init__(self, path_or_file, *, mode: str = "w",
                 job_id: Optional[str] = None):
        self.job_id = job_id
        if hasattr(path_or_file, "write"):
            self._handle: IO[str] = path_or_file
            self._owns = False
        else:
            self._handle = open(path_or_file, mode)
            self._owns = True

    def emit(self, event: str, **fields: object) -> None:
        record: Dict[str, object] = {"event": event}
        if self.job_id is not None:
            record["job_id"] = self.job_id
        record.update(fields)
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._owns:
            self._handle.close()


def read_telemetry(path: str) -> List[dict]:
    """Parse a telemetry JSONL file back into event dictionaries."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ----------------------------------------------------------------------
# Results


@dataclass
class EvolutionResult:
    """Outcome of a CGP optimization run."""

    netlist: RqfpNetlist
    fitness: Fitness
    initial_fitness: Fitness
    generations: int
    evaluations: int
    runtime: float
    history: List[Tuple[int, Fitness]] = field(default_factory=list)
    sat_calls: int = 0
    cache_hits: int = 0
    """Always 0: the fitness memo cache is gone.  Kept so stored
    artifacts, telemetry consumers and ``/metrics`` keep their shape."""
    backend: str = "inline"
    eval_full: int = 0
    eval_incremental: int = 0
    ports_resimulated: int = 0
    worker_restarts: int = 0
    batches_retried: int = 0
    bytes_shipped: int = 0
    chunks_dispatched: int = 0
    pipeline_stalls: int = 0
    degraded_to_inline: bool = False
    interrupted: bool = False
    verified: bool = False

    @property
    def gate_reduction(self) -> float:
        """Fractional reduction in n_r relative to the initial netlist."""
        if self.initial_fitness.n_r == 0:
            return 0.0
        return 1.0 - self.fitness.n_r / self.initial_fitness.n_r


# ----------------------------------------------------------------------
# The run API


class EvolutionRun:
    """One configured ``(1 + λ)`` optimization run (§3.2.4, Algorithm 1).

    >>> run = EvolutionRun(spec, RcgpConfig(generations=2000, seed=7))
    >>> result = run.run()

    Each generation mutates the single best parent into λ offspring
    (each from its own deterministic RNG stream), evaluates them, and
    accepts an offspring whose fitness is better *or equal* (neutral
    drift, §3.2.4) as the next parent.  Useless gates are shrunk from
    accepted parents per the configured policy (§3.2.3).  Generations
    run in spans (:func:`replay_span`) on the configured backend.

    Parameters
    ----------
    spec:
        Target truth tables, one per primary output.
    config:
        All knobs, including ``workers`` (0/1 = inline, N>1 = off-load
        spans to a worker process) and ``telemetry_path``.
    initial:
        Starting netlist; defaults to the §3.1 initialization flow.
    progress:
        Callback ``(generation, fitness)`` fired on improvements.
    telemetry:
        Pre-built :class:`TelemetryWriter`; overrides
        ``config.telemetry_path``.
    backend:
        Pre-built :class:`EvaluationBackend`; overrides
        ``config.workers``.  :meth:`run` closes it on exit (a
        :class:`ClusterBackend` then abandons any span still in flight;
        the dispatch under it stays with its owner).
    generation_offset:
        Number of generations a *previous* slice of the same logical
        run already executed.  Offspring RNG streams are keyed by the
        absolute generation (``offset + local generation``), so a run
        sliced into checkpointed chunks follows the exact trajectory of
        the equivalent monolithic run, whatever the chunk size.  The
        returned :attr:`EvolutionResult.generations` stays local to
        this slice.
    """

    def __init__(self, spec: Sequence[TruthTable],
                 config: Optional[RcgpConfig] = None, *,
                 initial: Optional[RqfpNetlist] = None,
                 name: str = "",
                 progress: Optional[ProgressCallback] = None,
                 telemetry: Optional[TelemetryWriter] = None,
                 backend: Optional[EvaluationBackend] = None,
                 generation_offset: int = 0):
        self.spec = list(spec)
        self.config = config or RcgpConfig()
        self.initial = initial
        self.name = name
        self.progress = progress
        self._telemetry = telemetry
        self._backend = backend
        self.generation_offset = generation_offset

    def _make_backend(self, evaluator: Evaluator) -> EvaluationBackend:
        if self._backend is not None:
            return self._backend
        config = self.config
        spec = self.spec
        if config.workers > 1 and config.generations > 0 \
                and parallel_safe(spec[0].num_vars, config):
            # The worker process belongs to this run alone, so any
            # job id keys its evaluator.
            ctx = ("run", tuple(t.bits for t in spec), spec[0].num_vars,
                   config.to_dict())
            return ClusterBackend(ClusterDispatch(local=True), ctx, spec,
                                  config, name="process-pool",
                                  owns_dispatch=True)
        return InlineBackend(evaluator)

    def run(self) -> EvolutionResult:
        config = self.config
        spec = self.spec
        evaluator = Evaluator(spec, config, random.Random(config.seed))
        if config.seed is not None:
            base_seed = config.seed
        else:
            base_seed = random.SystemRandom().getrandbits(48)

        if self.initial is not None:
            parent = self.initial.copy()
        else:
            from .synthesis import initialize_netlist
            parent = initialize_netlist(spec, self.name)
        # The inner loop runs on the configured representation; the flat
        # kernel is bit-identical to the object netlist (same port-index
        # genome, same RNG streams) and only the boundaries convert.
        if evaluator.kernel_mode:
            parent = NetlistKernel.from_netlist(parent)

        parent_genome = encode_genome(parent)
        parent_fitness = evaluator.evaluate(parent)
        if not parent_fitness.functional:
            raise SynthesisError(
                "initial netlist does not realize the specification: "
                f"{parent_fitness}"
            )
        initial_fitness = parent_fitness
        history: List[Tuple[int, Fitness]] = [(0, parent_fitness)]

        backend = self._make_backend(evaluator)
        telemetry = self._telemetry
        owns_telemetry = False
        if telemetry is None and config.telemetry_path is not None:
            telemetry = TelemetryWriter(config.telemetry_path)
            owns_telemetry = True

        start = time.monotonic()
        stagnation = 0
        generation = 0
        if telemetry is not None:
            telemetry.emit(
                "run_start", name=self.name,
                num_inputs=spec[0].num_vars, num_outputs=len(spec),
                generations=config.generations, offspring=config.offspring,
                workers=config.workers, backend=backend.name,
                incremental=config.incremental_eval,
                seed=config.seed, initial_key=list(parent_fitness.key()),
            )

        def counter(name: str) -> int:
            # The run evaluator's counters plus whatever the backend
            # evaluated elsewhere (InlineBackend reports zeros).
            return getattr(evaluator, name) + getattr(backend, name)

        # Fault observability: a worker_fault event whenever the
        # backend's recovery counters move (checked once per span).
        interrupted = False
        last_faults = (0, 0, False)
        name_template = parent
        # RCGP_CHECK_INCREMENTAL=1 runs one-generation spans carrying
        # the coordinator's own mutation deltas, which the span
        # cross-checks against its re-derived ones.
        check_mode = os.environ.get(
            "RCGP_CHECK_INCREMENTAL", "") not in ("", "0")
        planner = SpanPlanner(config.batch_timeout)

        def dispatch(gen: int, stag: int):
            """Send the span after generation ``gen``; None when the
            budget, stagnation limit or time budget ends the run."""
            room = config.generations - gen
            if config.stagnation_limit is not None:
                room = min(room, config.stagnation_limit - stag)
            if room < 1 or (config.time_budget is not None and
                            time.monotonic() - start >= config.time_budget):
                return None
            count = 1 if check_mode else planner.plan(room)
            check = None
            if check_mode:
                consumers = parent.consumers()
                check = [mutate_with_delta(
                    parent, random.Random(child_seed(
                        base_seed, self.generation_offset + gen + 1, i)),
                    config, consumers=consumers, rollback=True)[1]
                    for i in range(config.offspring)]
            dispatched_at = time.monotonic()
            backend.dispatch_span(wire.SpanRequest(
                base_seed=base_seed,
                start_gen=self.generation_offset + gen + 1,
                count=count,
                parent_fitness=(parent_fitness.success, parent_fitness.n_r,
                                parent_fitness.n_g, parent_fitness.n_b),
                parent_genome=parent_genome,
                check_deltas=check))
            return count, dispatched_at

        try:
            try:
                inflight = dispatch(0, 0)
                while inflight is not None:
                    planned, dispatched_at = inflight
                    result = backend.collect_span()
                    planner.observe(planned, len(result.records),
                                    time.monotonic() - dispatched_at)
                    records = result.records
                    executed = len(records)
                    span_start_fitness = parent_fitness
                    # Per-record cumulative counter values: the counters
                    # already include every record of the span, so
                    # record j's value is the live counter minus the
                    # deltas of the records after j.  (The improving
                    # last record instead reads live counters after the
                    # accept block, catching the simplify re-evaluation.)
                    prefixes: List[Tuple[int, int, int, int]] = []
                    if telemetry is not None:
                        live = (counter("evaluations"),
                                counter("eval_full"),
                                counter("eval_incremental"),
                                counter("ports_resimulated"))
                        prefixes = [live] * executed
                        behind = (0, 0, 0)
                        for j in range(executed - 1, -1, -1):
                            prefixes[j] = (
                                live[0] - behind[0] - behind[1],
                                live[1] - behind[0], live[2] - behind[1],
                                live[3] - behind[2])
                            deltas = records[j][2]
                            behind = (behind[0] + deltas[0],
                                      behind[1] + deltas[1],
                                      behind[2] + deltas[2])
                    inflight = None
                    if not result.improved:
                        # Advance the incumbent *first* so the next span
                        # can be dispatched before the per-record
                        # bookkeeping below — a worker computes span
                        # k+1 while the coordinator narrates span k.
                        for accepted, fit, _deltas in records:
                            if accepted:
                                parent_fitness = Fitness(*fit)
                        if result.final_genome is not None:
                            parent_genome = result.final_genome
                            parent = _adopt_names(
                                _decode_candidate(parent_genome, evaluator),
                                name_template)
                        inflight = dispatch(generation + executed,
                                            stagnation + executed)
                    cur_fitness = span_start_fitness
                    for j, (accepted, fit, _deltas) in enumerate(records):
                        generation += 1
                        improved = result.improved and j == executed - 1
                        if accepted and not improved \
                                and telemetry is not None:
                            # cur_fitness only feeds the telemetry
                            # stream; skip the per-record construction
                            # when nothing is listening.
                            cur_fitness = Fitness(*fit)
                        if improved:
                            parent = _adopt_names(
                                _decode_candidate(result.child_genome,
                                                  evaluator),
                                name_template)
                            parent_fitness = Fitness(*fit)
                            if config.shrink in ("always",
                                                 "on_improvement"):
                                parent = parent.shrink()
                            if config.simplify_wires:
                                # Wire bypass is a cold structural pass
                                # that needs gate objects; round-trip
                                # through the object netlist only when
                                # it actually helps.
                                flat = isinstance(parent, NetlistKernel)
                                view = parent.to_netlist() if flat \
                                    else parent
                                simplified = bypass_wire_gates(view)
                                if simplified.num_gates < view.num_gates:
                                    parent = NetlistKernel.from_netlist(
                                        simplified) if flat else simplified
                                    parent_fitness = evaluator.evaluate(
                                        parent)
                            parent_genome = encode_genome(parent)
                            cur_fitness = parent_fitness
                            stagnation = 0
                            if config.track_history:
                                history.append((generation,
                                                parent_fitness))
                            if self.progress is not None:
                                self.progress(generation, parent_fitness)
                        else:
                            stagnation += 1
                        if telemetry is not None:
                            ev, ef, ei, pr = (
                                (counter("evaluations"),
                                 counter("eval_full"),
                                 counter("eval_incremental"),
                                 counter("ports_resimulated"))
                                if j == executed - 1 else prefixes[j])
                            telemetry.emit(
                                "generation", generation=generation,
                                best_key=list(cur_fitness.key()),
                                improved=improved, accepted=accepted,
                                evaluations=ev, cache_hits=0,
                                sat_calls=evaluator.sat_calls,
                                eval_full=ef, eval_incremental=ei,
                                ports_resimulated=pr,
                                wall_time=round(
                                    time.monotonic() - start, 6),
                            )
                    if result.improved:
                        inflight = dispatch(generation, stagnation)
                    faults = (backend.worker_restarts,
                              backend.batches_retried, backend.degraded)
                    if telemetry is not None and faults != last_faults:
                        last_faults = faults
                        telemetry.emit(
                            "worker_fault", generation=generation,
                            worker_restarts=faults[0],
                            batches_retried=faults[1],
                            degraded=faults[2])
            except KeyboardInterrupt:
                # Clean SIGINT shutdown: keep the incumbent parent,
                # kill whatever serves the in-flight span (it may be
                # wedged), finalize and return the best-so-far result
                # with interrupted=True instead of dying with a
                # half-written telemetry stream and orphan workers.
                interrupted = True
                terminate = getattr(backend, "terminate", None)
                if terminate is not None:
                    terminate()
            final = evaluator.finalize(parent)
            final_fitness = evaluator.evaluate(final)
            if not final_fitness.functional:
                raise SynthesisError("finalized netlist lost functionality")
            verified = False
            if config.verify_result:
                # End-of-run result gate: independent object-path
                # re-simulation, RQFP legality, SAT equivalence.  Raises
                # typed repro.errors exceptions on any violation.
                from .verify import verify_evolution_result
                report = verify_evolution_result(final, spec, config)
                verified = True
                if telemetry is not None:
                    telemetry.emit(
                        "verify", exhaustive=report.exhaustive,
                        simulated_patterns=report.simulated_patterns,
                        sat_checked=report.sat_checked,
                        sat_conflicts=report.sat_conflicts)
            runtime = time.monotonic() - start
            result = EvolutionResult(
                netlist=final,
                fitness=final_fitness,
                initial_fitness=initial_fitness,
                generations=generation,
                evaluations=counter("evaluations"),
                runtime=runtime,
                history=history if config.track_history else [],
                sat_calls=evaluator.sat_calls,
                backend=backend.name,
                eval_full=counter("eval_full"),
                eval_incremental=counter("eval_incremental"),
                ports_resimulated=counter("ports_resimulated"),
                worker_restarts=backend.worker_restarts,
                batches_retried=backend.batches_retried,
                bytes_shipped=backend.bytes_shipped,
                chunks_dispatched=backend.chunks_dispatched,
                pipeline_stalls=backend.pipeline_stalls,
                degraded_to_inline=backend.degraded,
                interrupted=interrupted,
                verified=verified,
            )
            if telemetry is not None:
                telemetry.emit(
                    "run_end", generations=result.generations,
                    evaluations=result.evaluations,
                    cache_hits=result.cache_hits,
                    sat_calls=result.sat_calls,
                    eval_full=result.eval_full,
                    eval_incremental=result.eval_incremental,
                    ports_resimulated=result.ports_resimulated,
                    worker_restarts=result.worker_restarts,
                    batches_retried=result.batches_retried,
                    bytes_shipped=result.bytes_shipped,
                    chunks_dispatched=result.chunks_dispatched,
                    pipeline_stalls=result.pipeline_stalls,
                    degraded_to_inline=result.degraded_to_inline,
                    interrupted=result.interrupted,
                    verified=result.verified,
                    runtime=round(runtime, 6),
                    final_key=list(final_fitness.key()),
                )
            return result
        finally:
            backend.close()
            if owns_telemetry and telemetry is not None:
                telemetry.close()
