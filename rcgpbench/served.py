"""The ``served`` workload: ``rcgp serve`` as a child process, driven
over loopback by two closed-loop client threads in this process.

Each client submits its own seeded stream of small specs with a short
default-config budget and an explicit seed; every ``DUP_EVERY``-th
submission repeats one of the client's finished jobs, which must come
back ``from_store``.  A client polls status, fetches and checks the
result, and scrapes ``/metrics`` every ``SCRAPE_EVERY``-th job.

Latency is measured from the submit to the checked result.  A job's
completion time is the ``updated_at`` stamp of its ``done`` record (the
server writes it with the same host clock), so the polling interval
does not quantize latency; the result fetch and check that follow are
timed directly.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import common

#: Small (<= 6-input) specs, submitted round-robin.
SPECS = ("decoder_2_4", "full_adder", "ham3", "graycode4", "4gt10",
         "decoder_3_8", "c17", "mux4", "intdiv4", "alu", "graycode6",
         "intdiv5")
GENERATIONS = 50
CLIENTS = 2
#: Submissions per client at the nominal run length.
SUBMITS_PER_CLIENT = 140
DUP_EVERY = 4
SCRAPE_EVERY = 5
#: Set-up repetitions: spawn -> ``/healthz`` 200, median reported.
SETUPS = 3
POLL_FIRST = 0.002
POLL_MAX = 0.05


def client_jobs(seed: int, seconds: int) -> List[List[dict]]:
    """Per-client submission lists.  The spec order and the duplicate
    positions are fixed; only the job seeds come from ``seed``."""
    rng = common.workload_rng("served", seed)
    per_client = common.scaled(SUBMITS_PER_CLIENT, seconds)
    streams: List[List[dict]] = [[] for _ in range(CLIENTS)]
    fresh = 0
    for position in range(per_client):
        for client in range(CLIENTS):
            stream = streams[client]
            if position % DUP_EVERY == DUP_EVERY - 1:
                fresh_before = [i for i, job in enumerate(stream)
                                if "dup_of" not in job]
                stream.append({"dup_of": fresh_before[-2]})
            else:
                stream.append({"spec": SPECS[fresh % len(SPECS)],
                               "seed": rng.getrandbits(32),
                               "generations": GENERATIONS})
                fresh += 1
    return streams


def server_argv(store: str, trace_path: Optional[str]) -> List[str]:
    serve = ["serve", "--store", store, "--port", "0"]
    if trace_path is None:
        return [sys.executable, "-m", "repro.cli", *serve]
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "serve_traced.py")
    return [sys.executable, launcher, trace_path, *serve]


class Server:
    """One ``rcgp serve`` child over a fresh store directory."""

    def __init__(self, store: str, log_path: str,
                 trace_path: Optional[str] = None):
        self.started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            server_argv(store, trace_path), stdout=subprocess.PIPE,
            stderr=self._log, text=True, env=common.child_env(),
            cwd=common.ROOT)
        self.host, self.port = "", 0
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> None:
        for line in self.proc.stdout:
            if "listening on http://" in line:
                address = line.split("listening on http://", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                self.host, self.port = host, int(port)
                break
        else:
            raise RuntimeError("rcgp serve exited before listening")
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/healthz answered {response.status}")
        finally:
            conn.close()
        self.ready_s = time.perf_counter() - self.started

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        finally:
            self._log.close()
        return self.proc.returncode


class Client(threading.Thread):
    """A closed-loop client: one request in flight at a time."""

    def __init__(self, index: int, host: str, port: int, jobs: List[dict]):
        super().__init__(name=f"rcgpbench-client-{index}", daemon=True)
        self.host, self.port = host, port
        self.jobs = jobs
        self.timings: Dict[str, List[float]] = {
            "submit": [], "status": [], "result": [], "metrics": []}
        self.requests = 0
        self.errors = 0
        self.status_404 = 0
        self.dedup_hits = 0
        self.outcomes: List[dict] = []
        self.crash: Optional[str] = None

    def _request(self, kind: str, method: str, path: str,
                 body: Optional[dict] = None) -> Tuple[int, bytes]:
        """One request on a fresh connection, as ``ServiceClient`` does
        (keep-alive responses stall on delayed ACKs; see NOTES.md)."""
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if payload is None else \
            {"Content-Type": "application/json"}
        for attempt in (0, 1):
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=60)
            start = time.perf_counter()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (http.client.HTTPException, OSError):
                self.errors += 1
                if attempt:
                    raise
                continue
            finally:
                conn.close()
            self.timings[kind].append(
                (time.perf_counter() - start) * 1000.0)
            self.requests += 1
            if response.status >= 400 and response.status != 404:
                self.errors += 1
            return response.status, data
        raise AssertionError("unreachable")

    def run(self) -> None:
        try:
            self._run()
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            self.crash = f"{type(exc).__name__}: {exc}"

    def _run(self) -> None:
        from repro.bench.registry import get_benchmark
        from repro.core.config import RcgpConfig
        from repro.jobs.spec import spec_tables_to_payload
        specs = {name: get_benchmark(name).spec() for name in SPECS}
        offspring = RcgpConfig().offspring
        for number, job in enumerate(self.jobs, 1):
            dup = "dup_of" in job
            source = self.jobs[job["dup_of"]] if dup else job
            spec = specs[source["spec"]]
            outcome = {"spec": source["spec"], "dup": dup, "ok": False,
                       "jjs": 0}
            self.outcomes.append(outcome)
            submitted_wall = time.time()
            start = time.perf_counter()
            status, data = self._request(
                "submit", "POST", "/v1/jobs",
                {"spec": spec_tables_to_payload(spec),
                 "config": {"generations": source["generations"],
                            "seed": source["seed"]},
                 "name": source["spec"]})
            if status not in (200, 202):
                outcome["reason"] = f"submit answered {status}"
                continue
            info = json.loads(data)
            job_id = info["job_id"]
            outcome.update(job_id=job_id, submitted=submitted_wall)
            if dup:
                if not info.get("from_store") or info.get("state") != "done":
                    outcome["reason"] = "duplicate not served from store"
                    continue
                self.dedup_hits += 1
                done_after = time.perf_counter() - start
            else:
                done_at = self._await_done(job_id, outcome)
                if done_at is None:
                    continue
                done_after = done_at - submitted_wall
            fetch = time.perf_counter()
            status, data = self._request(
                "result", "GET", f"/v1/jobs/{job_id}/result")
            if status != 200:
                outcome["reason"] = f"result answered {status}"
                continue
            payload = json.loads(data)
            cost = payload["cost"]
            ok, jjs, reason = common.check_artifact(
                payload["netlist"], [t.bits for t in spec],
                spec[0].num_vars, cost["n_b"])
            if ok and int(cost["n_r"]) != len(payload["netlist"]["gates"]):
                ok, reason = False, "gate count differs from the cost"
            outcome.update(ok=ok, jjs=jjs, reason=reason,
                           latency=done_after + time.perf_counter() - fetch,
                           finished=time.perf_counter())
            if not dup:
                base = payload["baseline"]["cost"]
                outcome.update(
                    init_jjs=24 * int(base["n_r"]) + 4 * int(base["n_b"]),
                    init_gates=int(base["n_r"]),
                    offspring=int(payload["generations"]) * offspring,
                    evaluations=int(payload["evaluations"]),
                    ports_resimulated=int(payload["ports_resimulated"]))
            if number % SCRAPE_EVERY == 0:
                status, data = self._request("metrics", "GET", "/metrics")
                if status != 200 or b"rcgp_jobs{" not in data:
                    outcome.update(ok=False, reason="bad /metrics scrape")

    def _await_done(self, job_id: str, outcome: dict) -> Optional[float]:
        """Poll until ``done``; returns the record's completion stamp."""
        delay = POLL_FIRST
        retried = False
        while True:
            status, data = self._request(
                "status", "GET", f"/v1/jobs/{job_id}")
            if status == 404:
                # Known race: the status handler reads the store before
                # the queued set, and the scheduling thread writes the
                # store before it drops the job from the queued set, so
                # a read that straddles both steps finds neither.
                self.status_404 += 1
                if retried:
                    outcome["reason"] = "status 404 twice for an accepted job"
                    return None
                retried = True
                continue
            if status != 200:
                outcome["reason"] = f"status answered {status}"
                return None
            view = json.loads(data)
            state = view.get("state")
            if state == "done":
                return float(view["updated_at"])
            if state not in ("queued", "pending", "running"):
                outcome["reason"] = f"job ended {state}: {view.get('error')}"
                return None
            time.sleep(delay)
            delay = min(POLL_MAX, delay * 1.5)


def run_served(streams: List[List[dict]], work: str, *,
               trace_path: Optional[str] = None,
               setups: int = SETUPS) -> Dict[str, object]:
    """Set the server up ``setups`` times (fresh store each), then drive
    the last one with the client streams."""
    ready: List[float] = []
    server = None
    for attempt in range(setups):
        store = os.path.join(work, f"store{attempt}")
        server = Server(store, os.path.join(work, "serve.log"),
                        trace_path if attempt == setups - 1 else None)
        ready.append(server.ready_s)
        if attempt < setups - 1:
            server.stop()
    assert server is not None
    clients = [Client(i, server.host, server.port, jobs)
               for i, jobs in enumerate(streams)]
    start = time.perf_counter()
    try:
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=90)
        wall = time.perf_counter() - start
        alive = [c.name for c in clients if c.is_alive()]
        rss = common.peak_rss_mb(server.proc.pid)
    finally:
        code = server.stop()
    finished = [o["finished"] for c in clients for o in c.outcomes
                if "finished" in o]
    if finished:
        wall = max(finished) - start
    return {"wall_s": wall, "setup_s": ready, "peak_rss_mb": rss,
            "server_exit": code, "stuck_clients": alive, "clients": clients}
