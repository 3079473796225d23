"""Long-run support: checkpointing and multi-start evolution.

The paper's 5·10⁷-generation runs take up to 43 hours per circuit;
infrastructure like this is what makes such runs operable:

* :func:`evolve_with_checkpoints` — wraps the evolution engine in
  budget slices, persisting the incumbent netlist (JSON), progress and
  the **full** run configuration after every slice so a killed run
  resumes where it stopped (and warns when resumed under a different
  configuration);
* :func:`multi_start` — independent restarts with different seeds,
  keeping the best result; the cheap way to spend extra budget on a
  stochastic optimizer.  Each start is one job on the
  :class:`repro.jobs.Scheduler`, so starts share one span worker,
  duplicate seeds evaluate once, and a disk-backed store makes the
  whole portfolio resumable.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..io.rqfp_json import netlist_from_dict, netlist_to_dict
from ..logic.truth_table import TruthTable
from ..rqfp.netlist import RqfpNetlist
from .config import RcgpConfig
from .engine import EvolutionResult, EvolutionRun

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..jobs import JobStore

CHECKPOINT_FORMAT = "rcgp-checkpoint"
CHECKPOINT_VERSION = 2

#: Config fields that describe the *budget or plumbing* of a run rather
#: than the search itself; differing values are expected on resume
#: (bigger budget, more workers) and do not trigger a mismatch warning.
_OPERATIONAL_FIELDS = frozenset({
    "generations", "seed", "time_budget", "stagnation_limit",
    "track_history", "workers", "telemetry_path",
})


def save_checkpoint(path: str, netlist: RqfpNetlist,
                    generations_done: int, config: RcgpConfig) -> None:
    """Persist the incumbent parent, progress and the full config."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "generations_done": generations_done,
        "config": config.to_dict(),
        "netlist": netlist_to_dict(netlist),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2)
    os.replace(tmp, path)


def load_checkpoint(path: str, with_config: bool = False) -> Union[
        Tuple[RqfpNetlist, int],
        Tuple[RqfpNetlist, int, Optional[Dict[str, Any]]]]:
    """Read a checkpoint back.

    Returns ``(incumbent netlist, generations already done)``; with
    ``with_config`` a third element carries the stored config
    dictionary (None for version-1 checkpoints, which recorded only a
    partial config).
    """
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not an RCGP checkpoint")
    version = payload.get("version")
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version!r}")
    netlist = netlist_from_dict(payload["netlist"])
    done = int(payload["generations_done"])
    if not with_config:
        return netlist, done
    config = payload.get("config") if version >= 2 else None
    return netlist, done, config


def _warn_on_config_mismatch(path: str, stored: Optional[Dict[str, Any]],
                             config: RcgpConfig) -> None:
    """Warn when a resume changes search-relevant configuration."""
    if stored is None:
        warnings.warn(
            f"checkpoint {path} predates full-config checkpoints; cannot "
            "verify the resumed run matches the original configuration",
            RuntimeWarning, stacklevel=3)
        return
    current = config.to_dict()
    differing = sorted(
        name for name, value in current.items()
        if name not in _OPERATIONAL_FIELDS and name in stored
        and stored[name] != value
    )
    if differing:
        details = ", ".join(
            f"{name}: {stored.get(name)!r} -> {current[name]!r}"
            for name in differing)
        warnings.warn(
            f"resuming {path} with a different configuration ({details}); "
            "the continued search will not match the original run",
            RuntimeWarning, stacklevel=3)
    # Fields the live config has but the checkpoint never recorded: the
    # checkpoint was written by an older version (e.g. a v2 file from
    # before the `kernel` knob existed).  The resume must not crash and
    # must proceed under the live configuration — but say so, because
    # the original run's behaviour for that knob is unknowable.
    missing = sorted(
        name for name in current
        if name not in _OPERATIONAL_FIELDS and name not in stored)
    if missing:
        details = ", ".join(
            f"{name}={current[name]!r}" for name in missing)
        warnings.warn(
            f"checkpoint {path} was written by an older version and does "
            f"not record {', '.join(missing)}; resuming with the live "
            f"configuration ({details})",
            RuntimeWarning, stacklevel=3)


def evolve_with_checkpoints(spec: Sequence[TruthTable],
                            config: RcgpConfig,
                            checkpoint_path: str,
                            slice_generations: int = 1000,
                            initial: Optional[RqfpNetlist] = None,
                            name: str = "") -> EvolutionResult:
    """Run evolution in slices, checkpointing after each.

    If ``checkpoint_path`` exists, the run resumes from its incumbent
    and remaining budget (warning when the stored configuration differs
    in search-relevant fields); otherwise it starts from ``initial`` (or
    the standard initialization).  The checkpoint is updated atomically
    after every slice, so a kill loses at most one slice of work.
    """
    spec = list(spec)
    done = 0
    if os.path.exists(checkpoint_path):
        incumbent, done, stored = load_checkpoint(checkpoint_path,
                                                  with_config=True)
        _warn_on_config_mismatch(checkpoint_path, stored, config)
    else:
        from .synthesis import initialize_netlist
        incumbent = initial if initial is not None \
            else initialize_netlist(spec, name)

    total_result: Optional[EvolutionResult] = None
    while done < config.generations:
        budget = min(slice_generations, config.generations - done)
        # Same seed every slice; the engine keys offspring RNG streams
        # by the absolute generation (offset + local), so the sliced
        # run follows the monolithic trajectory for any slice size.
        slice_config = config.replace(generations=budget)
        result = EvolutionRun(spec, slice_config, initial=incumbent,
                              name=name, generation_offset=done).run()
        incumbent = result.netlist
        done += result.generations
        save_checkpoint(checkpoint_path, incumbent, done, config)
        if total_result is None:
            total_result = result
        else:
            total_result = EvolutionResult(
                netlist=result.netlist,
                fitness=result.fitness,
                initial_fitness=total_result.initial_fitness,
                generations=done,
                evaluations=total_result.evaluations + result.evaluations,
                runtime=total_result.runtime + result.runtime,
                history=total_result.history + [
                    (g + done - result.generations, f)
                    for g, f in result.history],
                sat_calls=total_result.sat_calls + result.sat_calls,
                cache_hits=total_result.cache_hits + result.cache_hits,
                backend=result.backend,
            )
        if result.generations < budget:
            break  # stagnation/time cut the slice short; stop cleanly
    if total_result is None:
        # Budget already exhausted by the checkpoint: evaluate incumbent.
        result = EvolutionRun(spec, config.replace(generations=0),
                              initial=incumbent, name=name).run()
        result.generations = done
        total_result = result
    return total_result


def multi_start(spec: Sequence[TruthTable], seeds: Sequence[int],
                config: Optional[RcgpConfig] = None,
                parallel: bool = False,
                name: str = "",
                store: Optional["JobStore"] = None) \
        -> Tuple[RqfpNetlist, List[tuple]]:
    """Independent evolution restarts; returns (best netlist, all keys).

    A thin client of the :class:`repro.jobs.Scheduler`: each seed is one
    job.  With ``parallel`` (on a multi-core machine) their spans are
    off-loaded to one shared worker process; duplicate seeds map to the
    same job and are evaluated once.
    Passing a disk-backed ``store`` makes the whole portfolio resumable
    (and re-runs of finished seeds come straight from the store).
    """
    spec = list(spec)
    if not seeds:
        raise ValueError("need at least one seed")
    config = config or RcgpConfig(generations=2000, mutation_rate=0.08,
                                  max_mutated_genes=8, shrink="always")
    from ..jobs import Scheduler
    workers = min(len(set(seeds)), os.cpu_count() or 1) \
        if parallel and len(seeds) > 1 else 0
    with Scheduler(store, workers=workers) as scheduler:
        # Per-start overrides: each start gets its own seed and keeps
        # telemetry off — one sink cannot serve concurrent writers.
        jobs = [scheduler.submit(
                    spec,
                    config.replace(seed=seed, workers=0,
                                   telemetry_path=None),
                    name=name)
                for seed in seeds]
        scheduler.run()
        keys = [job.result().evolution.fitness.key() for job in jobs]
        best_index = max(range(len(jobs)), key=lambda i: keys[i])
        best = jobs[best_index].result().netlist
    return best, keys
