"""Shared pieces of the RCGP benchmark: checkout bootstrap, host probe,
job lists, order statistics and the independent artifact check.

Nothing here starts a process or touches the disk at import time.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark measures (the parent of this
#: directory); everything it reads or writes stays under it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, artifacts and traces (git-ignored).
WORK = os.path.join(ROOT, ".bench_work")

#: The run length every job list below is sized for.  ``--seconds``
#: scales the generation and job counts linearly from this point; the
#: run never reads the clock to decide how much work to do.
NOMINAL_SECONDS = 20


#: Numbers a run must reproduce exactly for its workload seed, traced
#: or not.
DETERMINISTIC = ("jjs_total", "init_jjs_total", "exact_decided",
                 "exact_attempted", "verified", "sat_conflicts",
                 "mutate_calls", "eval_calls", "ports_resimulated",
                 "init_gates")


class BootstrapError(RuntimeError):
    """The checkout does not hold the program to measure."""


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BootstrapError(f"no src/repro package under {ROOT}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise BootstrapError(f"repro imported from {where}, not {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: this checkout's package,
    no inherited test or fault-injection knobs."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RCGP_")}
    env["PYTHONPATH"] = SRC
    return env


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"rcgpbench:{workload}:{seed}")


def scaled(count: int, seconds: int) -> int:
    return max(1, round(count * seconds / NOMINAL_SECONDS))


# -- host probe ---------------------------------------------------------

def calibrate() -> float:
    """Time a fixed pure-Python loop (integer and list work, the kind
    the program's hot paths do).  A diagnostic of host speed only: no
    end-to-end metric is normalized by it."""
    start = time.perf_counter()
    acc = 0
    table = list(range(256))
    for i in range(600_000):
        acc = (acc + table[i & 255] * (i | 1)) & 0xFFFFFFFF
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return time.perf_counter() - start


def filesystem_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from the kernel's
    mount table), or ``"unknown"``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def host_info(store_dir: str) -> Dict[str, object]:
    return {"cpus": os.cpu_count(),
            "python": platform.python_version(),
            "fs": filesystem_type(store_dir)}


# -- set-up probe -------------------------------------------------------

def time_to_ready(argv: Sequence[str], marker: str) -> float:
    """Seconds from starting ``argv`` to the first stdout line containing
    ``marker``; the child is waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        for line in proc.stdout:
            if marker in line:
                elapsed = time.perf_counter() - start
                break
        else:
            raise RuntimeError(f"{argv[0]} exited before {marker!r}")
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid or 'self'}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line")


# -- order statistics -----------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float], beyond: int = 10) \
        -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``; with too few samples
    the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= beyond:
        return ordered[-1], 100.0, n
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, n


# -- the independent artifact check ----------------------------------------

def interpret(artifact: dict) -> Tuple[int, List[int]]:
    """Evaluate an ``rqfp-netlist`` JSON document over all input patterns.

    A deliberately separate reading of the format: port 0 is the
    constant 1, ports ``1..n`` the primary inputs, and gate ``g`` drives
    ports ``n+1+3g .. n+3+3g``, one per majority.  Majority ``m`` sees
    the gate's three shared inputs, each inverted when bit ``3m+p`` of
    the ``"abc-def-ghi"`` configuration string is 1.  Returns
    ``(num_inputs, output_words)`` with bit ``k`` of a word the value on
    input pattern ``k`` (input ``i`` = bit ``i`` of ``k``).
    """
    n = int(artifact["num_inputs"])
    patterns = 1 << n
    full = (1 << patterns) - 1
    words = [full]
    for i in range(n):
        word = 0
        for k in range(patterns):
            if (k >> i) & 1:
                word |= 1 << k
        words.append(word)
    for gate in artifact["gates"]:
        shared = [words[port] for port in gate["inputs"]]
        bits = gate["config"].replace("-", "")
        for m in range(3):
            a, b, c = (shared[p] ^ full if bits[3 * m + p] == "1"
                       else shared[p] for p in range(3))
            words.append((a & b) | (a & c) | (b & c))
    return n, [words[out["port"]] for out in artifact["outputs"]]


def check_artifact(artifact: dict, spec_bits: Sequence[int],
                   num_vars: int, reported_n_b: int,
                   reported_jjs: Optional[int] = None) -> Tuple[bool, int, str]:
    """Independent check of one synthesized circuit.

    The circuit must compute the registry truth tables under
    :func:`interpret`, pass :func:`repro.rqfp.validate.validate_circuit`
    and carry a JJ count of ``24 * gates + 4 * buffers``.  Returns
    ``(ok, jjs, reason)``; never raises on a bad artifact.
    """
    from repro.errors import ReproError
    from repro.io.rqfp_json import netlist_from_dict
    from repro.rqfp.validate import validate_circuit
    try:
        n, outputs = interpret(artifact)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return False, 0, f"unreadable artifact: {exc!r}"
    jjs = 24 * len(artifact["gates"]) + 4 * int(reported_n_b)
    if n != num_vars or outputs != list(spec_bits):
        return False, jjs, "function differs from the specification"
    plan = artifact.get("buffer_plan")
    if plan is not None and int(plan["num_buffers"]) != int(reported_n_b):
        return False, jjs, "buffer count differs from the reported cost"
    if reported_jjs is not None and jjs != reported_jjs:
        return False, jjs, f"JJs {reported_jjs} reported, {jjs} recomputed"
    try:
        validate_circuit(netlist_from_dict(artifact))
    except (ReproError, ValueError) as exc:
        return False, jjs, f"illegal circuit: {exc}"
    return True, jjs, ""
