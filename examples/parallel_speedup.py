"""Generation-throughput benchmark: serial vs off-loaded spans.

The paper's cost center is the (1+λ) inner loop — 5·10⁷ generations,
43-hour runs.  This script measures how fast the evolution engine
(`repro.core.engine.EvolutionRun`) turns generations over on one
Table-1 circuit, in two configurations:

1. **serial** — workers=0: every span runs in this process.
2. **pooled** — workers=N: spans run in a worker process while this
   process narrates the previous span.

Both produce bit-identical results for the fixed seed (that is the
engine's determinism guarantee; `tests/test_engine.py` asserts it) — so
the only thing that differs is throughput.

Environment knobs::

    RCGP_SPEEDUP_CIRCUIT      Table-1 circuit        (default alu)
    RCGP_SPEEDUP_GENERATIONS  generations per timing (default 300)
    RCGP_SPEEDUP_OFFSPRING    lambda                 (default 16)
    RCGP_SPEEDUP_WORKERS      workers setting        (default usable CPUs)
    RCGP_SPEEDUP_MIN          if set (e.g. "1.5"), exit non-zero unless
                              best-vs-serial speedup reaches it

Note: one (1+λ) trajectory is sequential, so off-loading is not
parallelism: on two real cores the pooled row measures 0.94–1.03× the
serial rate.  Throughput scales with many *jobs*, not one run.
"""

import os
import sys
import time

from repro.bench.registry import get_benchmark
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun
from repro.core.synthesis import initialize_netlist


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def timed_run(spec, initial, name, **config_kwargs):
    config = RcgpConfig(mutation_rate=0.1, seed=2024, shrink="always",
                        **config_kwargs)
    start = time.perf_counter()
    result = EvolutionRun(spec, config, initial=initial, name=name).run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def main() -> int:
    circuit = os.environ.get("RCGP_SPEEDUP_CIRCUIT", "alu")
    generations = int(os.environ.get("RCGP_SPEEDUP_GENERATIONS", "300"))
    offspring = int(os.environ.get("RCGP_SPEEDUP_OFFSPRING", "16"))
    workers = int(os.environ.get("RCGP_SPEEDUP_WORKERS",
                                 str(_usable_cpus())))
    minimum = os.environ.get("RCGP_SPEEDUP_MIN")

    benchmark = get_benchmark(circuit)
    spec = benchmark.spec()
    initial = initialize_netlist(spec, benchmark.name)
    print(f"circuit {benchmark.name}: {benchmark.num_inputs} inputs, "
          f"{benchmark.num_outputs} outputs, "
          f"{initial.num_gates} initial gates")
    print(f"budget: {generations} generations x lambda={offspring}, "
          f"workers={workers} ({_usable_cpus()} usable CPUs)\n")

    modes = [
        ("serial", dict(workers=0)),
        (f"pooled (workers={workers})", dict(workers=workers)),
    ]
    rows = []
    for label, extra in modes:
        result, elapsed = timed_run(
            spec, initial, benchmark.name,
            generations=generations, offspring=offspring, **extra)
        rows.append((label, result, elapsed))

    serial_elapsed = rows[0][2]
    keys = {row[1].fitness.key() for row in rows}
    print(f"{'mode':<28} {'gens/s':>8} {'evals':>7} {'speedup':>8}")
    for label, result, elapsed in rows:
        throughput = result.generations / elapsed if elapsed else 0.0
        print(f"{label:<28} {throughput:>8.1f} {result.evaluations:>7} "
              f"{serial_elapsed / elapsed:>7.2f}x")
    assert len(keys) == 1, "modes disagreed on the result — engine bug"
    print("\nall modes returned the identical result "
          f"(fitness key {rows[0][1].fitness.key()})")

    best_speedup = max(serial_elapsed / elapsed for _, _, elapsed in rows)
    if minimum is not None and best_speedup < float(minimum):
        print(f"FAIL: best speedup {best_speedup:.2f}x "
              f"< required {minimum}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
