"""``repro.serve.daemon``: a long-running, fault-tolerant job service.

The ROADMAP's "network serve tier": JobSpecs are canonical, digested
and shardable, and the ResultCache is content-addressed — this module
puts an HTTP/JSON front-end (stdlib ``http.server``, no new
dependencies) and a supervised execution fabric behind them.

API (all JSON)::

    POST /v1/batches              submit {"client": c, "jobs": [spec...]}
                                  -> 202 {"batch": id, "digests": [...]}
                                  -> 429 + Retry-After on back-pressure
    GET  /v1/batches/<id>?since=N poll/stream results incrementally
    GET  /v1/results/<digest>     peek the result cache by job digest
    GET  /v1/status               queue depth, quotas, executor health
    POST /v1/drain                graceful drain (finish queue, refuse
                                  new work, then exit)

Design points:

* **bounded submission queue with back-pressure** — at most
  ``max_queue`` jobs may be pending across all batches; excess
  submissions are refused with HTTP 429 and a ``Retry-After`` estimate
  derived from observed job latency, and per-client quotas
  (``max_client_jobs``) keep one client from starving the rest.
* **durable exactly-once work** — every accepted batch is spooled to
  disk *before* the daemon acknowledges it, and every completed job
  lands in the content-addressed ResultCache.  Kill the daemon at any
  instant — SIGKILL included — restart it on the same spool, and the
  queue reloads: finished jobs replay from the cache, unfinished jobs
  re-execute, and the merged results contain every job exactly once
  (the digest is the dedup key).
* **supervised execution** — jobs run on a
  :class:`~repro.serve.supervisor.SupervisedPool` (heartbeats,
  watchdog, backoff, poison quarantine, serial degradation), so no
  worker failure can hang the service or corrupt a result.
* **graceful drain** — ``POST /v1/drain`` (or SIGTERM under the CLI)
  stops intake, finishes or persists queued work, then shuts down.

``python -m repro.serve.daemon --spool DIR`` runs it; see
:class:`DaemonClient` for the matching client (with bounded retries,
so chaos-injected connection drops are survivable).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence

from repro.errors import (
    DaemonError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    ServeError,
)
from repro.serve.cache import ResultCache
from repro.serve.executors import JobOutcome, run_jobs
from repro.serve.jobspec import JobSpec
from repro.serve.supervisor import SupervisedPool
from repro.store import write_json

#: Version of the daemon's wire and spool formats.
DAEMON_VERSION = 1

_BATCH_ID = re.compile(r"^b\d{6,}$")

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"


@dataclass
class _Batch:
    batch_id: str
    client: str
    specs: List[JobSpec]
    state: str = STATE_QUEUED
    #: Completion-order result entries (the poll/stream payload).
    stream: List[Dict[str, object]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def completed(self) -> int:
        return len(self.stream)


def _outcome_entry(outcome: JobOutcome, order: int) -> Dict[str, object]:
    return {
        "order": order,
        "index": outcome.index,
        "job_id": outcome.spec.job_id,
        "digest": outcome.spec.digest(),
        "status": outcome.status,
        "cached": outcome.cached,
        "attempts": outcome.attempts,
        "seconds": round(outcome.seconds, 6),
        "error": outcome.error,
        "payload": outcome.payload,
    }


class ServeDaemon:
    """The job service: spool, queue, scheduler, cache, HTTP front-end.

    Thread layout: one scheduler thread drains the batch queue through
    the executor; a ``ThreadingHTTPServer`` answers the API; the two
    meet only under ``self._lock``.  The daemon is SIGKILL-safe by
    construction — all durable state (spooled batches, done markers,
    cache records) is written atomically before it is relied on.
    """

    def __init__(self, spool: str,
                 cache_root: Optional[str] = None,
                 executor: Optional[SupervisedPool] = None,
                 max_queue: int = 256,
                 max_client_jobs: Optional[int] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 chaos=None):
        if max_queue < 1:
            raise ServeError("max_queue must be >= 1")
        if max_client_jobs is not None and max_client_jobs < 1:
            raise ServeError("max_client_jobs must be >= 1")
        self.spool = spool
        self.batch_dir = os.path.join(spool, "batches")
        self.done_dir = os.path.join(spool, "done")
        os.makedirs(self.batch_dir, exist_ok=True)
        os.makedirs(self.done_dir, exist_ok=True)
        self.cache = ResultCache(cache_root
                                 or os.path.join(spool, "cache"))
        self.executor = executor if executor is not None \
            else SupervisedPool(jobs=2)
        self.max_queue = max_queue
        self.max_client_jobs = max_client_jobs
        self.host = host
        self.port = port
        self.chaos = chaos
        self.started_batches = 0
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._queue: deque = deque()
        self._batches: Dict[str, _Batch] = {}
        self._pending_jobs = 0
        self._next_batch = 1
        self._draining = False
        self._drained = threading.Event()
        self._stopping = False
        #: Per-job-kind EWMA of observed (uncached) job duration; a
        #: campaign shard and a probe differ by orders of magnitude, so
        #: one global average made Retry-After estimates meaningless.
        self._avg_seconds: Dict[str, float] = {}
        self._scheduler: Optional[threading.Thread] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._recover()

    # -- spool persistence and recovery -------------------------------

    def _batch_path(self, batch_id: str) -> str:
        return os.path.join(self.batch_dir, batch_id + ".json")

    def _done_path(self, batch_id: str) -> str:
        return os.path.join(self.done_dir, batch_id + ".json")

    def _recover(self) -> None:
        """Reload the spool: done batches serve results, queued batches
        re-enter the queue (restart semantics; see module docstring)."""
        spooled = sorted(
            name[:-len(".json")]
            for name in os.listdir(self.batch_dir)
            if name.endswith(".json") and _BATCH_ID.match(name[:-5])
        )
        for batch_id in spooled:
            number = int(batch_id[1:])
            self._next_batch = max(self._next_batch, number + 1)
            try:
                with open(self._batch_path(batch_id),
                          encoding="utf-8") as handle:
                    record = json.load(handle)
                specs = [JobSpec.from_payload(entry)
                         for entry in record["jobs"]]
            except (OSError, ValueError, KeyError, ReproError):
                # A torn spool record can only be a batch whose submit
                # never completed — it was never acknowledged, so
                # dropping it loses nothing.
                continue
            batch = _Batch(batch_id, record.get("client", "anonymous"),
                           specs)
            done_path = self._done_path(batch_id)
            if os.path.exists(done_path):
                try:
                    with open(done_path, encoding="utf-8") as handle:
                        done = json.load(handle)
                    batch.stream = list(done["results"])
                    batch.state = STATE_DONE
                except (OSError, ValueError, KeyError):
                    batch.stream = []
            if batch.state != STATE_DONE:
                batch.state = STATE_QUEUED
                self._queue.append(batch_id)
                self._pending_jobs += batch.total
            self._batches[batch_id] = batch

    # -- submission (back-pressure lives here) ------------------------

    #: Duration assumed for a job kind never yet observed.
    DEFAULT_AVG_SECONDS = 0.5

    def avg_seconds(self, kind: str) -> float:
        """Current duration estimate (EWMA) for one job kind."""
        return self._avg_seconds.get(kind, self.DEFAULT_AVG_SECONDS)

    def _kind_backlog(self) -> Dict[str, int]:
        """Unfinished jobs per kind across all live batches.
        Caller must hold ``self._lock``."""
        backlog: Dict[str, int] = {}
        for batch in self._batches.values():
            if batch.state == STATE_DONE:
                continue
            finished = {entry["index"] for entry in batch.stream}
            for index, spec in enumerate(batch.specs):
                if index not in finished:
                    backlog[spec.kind] = backlog.get(spec.kind, 0) + 1
        return backlog

    def retry_after(self, extra: Sequence[JobSpec] = ()) -> float:
        """Seconds a refused client should wait before resubmitting:
        the backlog costed per job *kind* with the observed per-kind
        EWMA durations, divided across the workers, clamped to the
        documented 1-60 s back-pressure band.  Caller must hold
        ``self._lock``."""
        backlog = self._kind_backlog()
        for spec in extra:
            backlog[spec.kind] = backlog.get(spec.kind, 0) + 1
        workers = max(1, getattr(self.executor, "jobs", 1))
        seconds = sum(count * self.avg_seconds(kind)
                      for kind, count in backlog.items())
        return max(1.0, min(60.0, seconds / workers))

    def submit(self, specs: Sequence[JobSpec],
               client: str = "anonymous") -> Dict[str, object]:
        """Accept (and durably spool) a batch, or refuse with 429/503
        semantics (:class:`QueueFullError` / :class:`QuotaExceededError`
        / :class:`DaemonError`)."""
        specs = list(specs)
        if not specs:
            raise ServeError("refusing an empty batch")
        with self._lock:
            if self._draining or self._stopping:
                raise DaemonError("daemon is draining; not accepting "
                                  "new batches")
            if self._pending_jobs + len(specs) > self.max_queue:
                raise QueueFullError(
                    f"submission queue is full "
                    f"({self._pending_jobs} pending + {len(specs)} "
                    f"submitted > {self.max_queue} max)",
                    retry_after=self.retry_after(specs))
            if self.max_client_jobs is not None:
                held = sum(
                    batch.total - batch.completed
                    for batch in self._batches.values()
                    if batch.client == client
                    and batch.state != STATE_DONE)
                if held + len(specs) > self.max_client_jobs:
                    raise QuotaExceededError(
                        f"client {client!r} holds {held} pending "
                        f"job(s); quota is {self.max_client_jobs}",
                        client=client,
                        retry_after=self.retry_after(specs))
            batch_id = f"b{self._next_batch:06d}"
            self._next_batch += 1
            batch = _Batch(batch_id, client, specs)
            # Spool before acknowledging: an accepted batch survives
            # any crash from here on.
            write_json(self._batch_path(batch_id), {
                "version": DAEMON_VERSION,
                "batch": batch_id,
                "client": client,
                "jobs": [spec.to_payload() for spec in specs],
            })
            self._batches[batch_id] = batch
            self._queue.append(batch_id)
            self._pending_jobs += len(specs)
            position = len(self._queue)
        self._wake.set()
        return {
            "batch": batch_id,
            "total": len(specs),
            "digests": [spec.digest() for spec in specs],
            "queue_position": position,
        }

    # -- queries -------------------------------------------------------

    def poll(self, batch_id: str, since: int = 0) -> Dict[str, object]:
        with self._lock:
            batch = self._batches.get(batch_id)
            if batch is None:
                raise DaemonError(f"unknown batch {batch_id!r}")
            stream = list(batch.stream[since:])
            return {
                "batch": batch.batch_id,
                "client": batch.client,
                "state": batch.state,
                "total": batch.total,
                "completed": batch.completed,
                "since": since,
                "next": batch.completed,
                "results": stream,
            }

    def peek(self, digest: str) -> Optional[Dict[str, object]]:
        return self.cache.peek(digest)

    def status(self) -> Dict[str, object]:
        quarantine = getattr(self.executor, "quarantined", None)
        quarantined = len(quarantine()) if callable(quarantine) else 0
        telemetry = getattr(self.executor, "telemetry", None)
        warm_pool = telemetry() if callable(telemetry) else None
        with self._lock:
            clients: Dict[str, int] = {}
            for batch in self._batches.values():
                if batch.state != STATE_DONE:
                    clients[batch.client] = (
                        clients.get(batch.client, 0)
                        + batch.total - batch.completed)
            return {
                "version": DAEMON_VERSION,
                "queue_depth": self._pending_jobs,
                "max_queue": self.max_queue,
                "max_client_jobs": self.max_client_jobs,
                "clients": clients,
                "batches": {batch.batch_id: batch.state
                            for batch in self._batches.values()},
                "draining": self._draining,
                "drained": self._drained.is_set(),
                "queue_by_kind": self._kind_backlog(),
                "avg_seconds": {kind: round(value, 6) for kind, value
                                in sorted(self._avg_seconds.items())},
                "executor": {
                    "jobs": getattr(self.executor, "jobs", 1),
                    "degraded": getattr(self.executor, "degraded",
                                        False),
                    "quarantined": quarantined,
                    "warm_pool": warm_pool,
                },
                "cache": self.cache.stats.as_dict(),
            }

    # -- the scheduler -------------------------------------------------

    def _run_batch(self, batch: _Batch) -> None:
        def on_result(outcome: JobOutcome) -> None:
            with self._lock:
                entry = _outcome_entry(outcome, batch.completed)
                batch.stream.append(entry)
                self._pending_jobs = max(0, self._pending_jobs - 1)
                if not outcome.cached and outcome.seconds > 0:
                    kind = outcome.spec.kind
                    previous = self._avg_seconds.get(kind)
                    self._avg_seconds[kind] = outcome.seconds \
                        if previous is None \
                        else 0.8 * previous + 0.2 * outcome.seconds

        try:
            run_jobs(batch.specs, executor=self.executor,
                     cache=self.cache, on_result=on_result)
        except ReproError as error:
            # Executor-level refusal (e.g. SpawnError with fallback
            # disabled): surface it on every unfinished job rather
            # than wedging the batch.
            with self._lock:
                finished = {entry["index"] for entry in batch.stream}
                for index, spec in enumerate(batch.specs):
                    if index in finished:
                        continue
                    batch.stream.append({
                        "order": batch.completed, "index": index,
                        "job_id": spec.job_id,
                        "digest": spec.digest(),
                        "status": "error", "cached": False,
                        "attempts": 0, "seconds": 0.0,
                        "error": f"executor failed: {error}",
                        "payload": None,
                    })
                    self._pending_jobs = max(0, self._pending_jobs - 1)
        with self._lock:
            batch.state = STATE_DONE
            stream = list(batch.stream)
        write_json(self._done_path(batch.batch_id), {
            "version": DAEMON_VERSION,
            "batch": batch.batch_id,
            "results": stream,
        })

    def _scheduler_loop(self) -> None:
        while True:
            with self._lock:
                batch_id = self._queue.popleft() if self._queue else None
                if batch_id is not None:
                    batch = self._batches[batch_id]
                    batch.state = STATE_RUNNING
                draining = self._draining
                stopping = self._stopping
            if batch_id is not None:
                self.started_batches += 1
                self._run_batch(self._batches[batch_id])
                continue
            if stopping or draining:
                break
            self._wake.wait(0.1)
            self._wake.clear()
        self._drained.set()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the scheduler and the HTTP server (both threads)."""
        if self._scheduler is not None:
            raise DaemonError("daemon already started")
        self._scheduler = threading.Thread(target=self._scheduler_loop,
                                           name="serve-scheduler",
                                           daemon=True)
        self._scheduler.start()
        self._server = ThreadingHTTPServer((self.host, self.port),
                                           _Handler)
        self._server.daemon_threads = True
        self._server.daemon_ref = self
        self.port = self._server.server_address[1]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http", daemon=True)
        self._server_thread.start()

    def drain(self, wait: bool = True,
              timeout: Optional[float] = None) -> None:
        """Refuse new work; finish the queue; then the scheduler exits.

        Queued-but-unstarted batches are already on disk, so a drain
        that is itself interrupted loses nothing either.
        """
        with self._lock:
            self._draining = True
        self._wake.set()
        if wait:
            self._drained.wait(timeout)

    def stop(self) -> None:
        """Stop serving (after at most the in-flight batch finishes)."""
        with self._lock:
            self._stopping = True
        self._wake.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._scheduler is not None:
            self._scheduler.join(timeout=30.0)
        close = getattr(self.executor, "close", None)
        if callable(close):
            close()  # retire warm worker incarnations


# -- HTTP plumbing -----------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve-daemon/1"

    @property
    def daemon(self) -> ServeDaemon:
        return self.server.daemon_ref

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # the daemon is quiet; chaos/event logs carry the story

    def _maybe_drop(self) -> bool:
        """Chaos hook: slam the connection shut before responding."""
        chaos = self.daemon.chaos
        path = self.path.split("?", 1)[0]
        if chaos is not None and chaos.should_drop(self.command, path):
            self.close_connection = True
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - already closed
                pass
            return True
        return False

    def _reply(self, code: int, payload: Dict[str, object],
               headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length", "0"))
        if length <= 0:
            raise ServeError("request body is empty")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeError(f"request body is not JSON: {error}") \
                from error
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self._maybe_drop():
            return
        path = self.path.split("?", 1)[0]
        try:
            if path == "/v1/batches":
                body = self._read_json()
                jobs = body.get("jobs")
                if not isinstance(jobs, list) or not jobs:
                    raise ServeError("'jobs' must be a non-empty list")
                specs = [JobSpec.from_payload(entry) for entry in jobs]
                accepted = self.daemon.submit(
                    specs, client=str(body.get("client", "anonymous")))
                self._reply(202, accepted)
            elif path == "/v1/drain":
                self.daemon.drain(wait=False)
                self._reply(202, {"draining": True})
            else:
                self._reply(404, {"error": f"no such endpoint {path}"})
        except QueueFullError as error:
            self._reply(429, {"error": str(error),
                              "retry_after": error.retry_after},
                        {"Retry-After":
                         str(int(round(error.retry_after)) or 1)})
        except DaemonError as error:
            self._reply(503, {"error": str(error)})
        except ReproError as error:
            self._reply(400, {"error": str(error)})

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self._maybe_drop():
            return
        path, _, query = self.path.partition("?")
        try:
            if path == "/v1/status":
                self._reply(200, self.daemon.status())
                return
            match = re.match(r"^/v1/batches/([^/]+)$", path)
            if match:
                since = 0
                for part in query.split("&"):
                    if part.startswith("since="):
                        try:
                            since = max(0, int(part[len("since="):]))
                        except ValueError as error:
                            raise ServeError(
                                f"bad since value: {error}") from error
                try:
                    self._reply(200, self.daemon.poll(match.group(1),
                                                      since=since))
                except DaemonError as error:
                    self._reply(404, {"error": str(error)})
                return
            match = re.match(r"^/v1/results/([0-9a-f]{64})$", path)
            if match:
                digest = match.group(1)
                payload = self.daemon.peek(digest)
                if payload is None:
                    self._reply(404, {"error": "no cached result for "
                                      + digest, "digest": digest})
                else:
                    self._reply(200, {"digest": digest,
                                      "payload": payload})
                return
            self._reply(404, {"error": f"no such endpoint {path}"})
        except ReproError as error:
            self._reply(400, {"error": str(error)})


# -- client ------------------------------------------------------------

class DaemonClient:
    """Small HTTP client for the daemon, with bounded retries.

    Connection drops (including chaos-injected ones) and connection
    refusals are retried up to ``retries`` times with a fixed backoff;
    HTTP error statuses are mapped back onto the error taxonomy
    (429 -> :class:`QueueFullError` carrying the server's Retry-After).
    """

    def __init__(self, host: str, port: int, client: str = "anonymous",
                 retries: int = 3, backoff: float = 0.1,
                 timeout: float = 30.0):
        self.host = host
        self.port = port
        self.client = client
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None):
        import http.client

        payload = None if body is None \
            else json.dumps(body).encode("utf-8")
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            try:
                headers = {"Content-Type": "application/json"} \
                    if payload is not None else {}
                connection.request(method, path, body=payload,
                                   headers=headers)
                response = connection.getresponse()
                raw = response.read()
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
                return response.status, dict(response.getheaders()), \
                    decoded
            except (OSError, http.client.HTTPException,
                    json.JSONDecodeError) as error:
                last_error = error
                time.sleep(self.backoff * (attempt + 1))
            finally:
                connection.close()
        raise DaemonError(
            f"daemon at {self.host}:{self.port} unreachable after "
            f"{self.retries + 1} attempt(s): {last_error}")

    def _checked(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None,
                 expect: int = 200) -> Dict[str, object]:
        status, headers, payload = self._request(method, path, body)
        if status == expect:
            return payload
        message = payload.get("error", f"HTTP {status}") \
            if isinstance(payload, dict) else f"HTTP {status}"
        if status == 429:
            # Retry-After may legally be an HTTP-date (or garbage from a
            # proxy); parsing must never crash the retry loop.  Fall
            # back to the default and clamp to the server's documented
            # 1-60 s back-pressure band.
            try:
                retry_after = float(headers.get("Retry-After", 1.0))
            except (TypeError, ValueError):
                retry_after = 1.0
            retry_after = min(60.0, max(1.0, retry_after))
            raise QueueFullError(str(message), retry_after=retry_after)
        raise DaemonError(f"{method} {path} -> {status}: {message}")

    def submit(self, specs: Sequence[JobSpec]) -> Dict[str, object]:
        jobs = [spec.to_payload() if isinstance(spec, JobSpec) else spec
                for spec in specs]
        return self._checked("POST", "/v1/batches",
                             {"client": self.client, "jobs": jobs},
                             expect=202)

    def poll(self, batch_id: str, since: int = 0) -> Dict[str, object]:
        return self._checked("GET",
                             f"/v1/batches/{batch_id}?since={since}")

    def wait(self, batch_id: str, timeout: float = 120.0,
             interval: float = 0.05) -> Dict[str, object]:
        """Poll until the batch is done; returns the full final poll."""
        deadline = time.monotonic() + timeout
        while True:
            state = self.poll(batch_id)
            if state["state"] == STATE_DONE:
                return state
            if time.monotonic() >= deadline:
                raise DaemonError(
                    f"batch {batch_id} not done after {timeout:g}s "
                    f"({state['completed']}/{state['total']} jobs)")
            time.sleep(interval)

    def peek(self, digest: str) -> Optional[Dict[str, object]]:
        status, _, payload = self._request("GET",
                                           f"/v1/results/{digest}")
        if status == 404:
            return None
        if status != 200:
            raise DaemonError(f"peek {digest} -> HTTP {status}")
        return payload.get("payload")

    def status(self) -> Dict[str, object]:
        return self._checked("GET", "/v1/status")

    def drain(self) -> Dict[str, object]:
        return self._checked("POST", "/v1/drain", expect=202)


# -- CLI ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.daemon",
        description="Run the fault-tolerant job service.",
    )
    parser.add_argument("--spool", required=True,
                        help="durable state directory (queue + results)")
    parser.add_argument("--cache", default=None,
                        help="result-cache root (default: <spool>/cache)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="supervised worker processes")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in seconds")
    parser.add_argument("--retries", type=int, default=2,
                        help="retries after a worker crash or hang")
    parser.add_argument("--recycle-after", type=int, default=64,
                        help="recycle a warm worker after this many "
                             "jobs (1: a fresh process per job; 0 "
                             "disables)")
    parser.add_argument("--max-worker-rss-mb", type=float, default=None,
                        help="recycle a warm worker whose peak RSS "
                             "exceeds this many MB")
    parser.add_argument("--max-queue", type=int, default=256,
                        help="bounded submission queue (jobs)")
    parser.add_argument("--max-client-jobs", type=int, default=None,
                        help="per-client pending-job quota")
    parser.add_argument("--ready-file", default=None,
                        help="write {port, pid} here once listening")
    arguments = parser.parse_args(argv)

    try:
        daemon = ServeDaemon(
            spool=arguments.spool, cache_root=arguments.cache,
            executor=SupervisedPool(
                jobs=arguments.jobs,
                timeout=arguments.timeout,
                retries=arguments.retries,
                recycle_after=arguments.recycle_after or None,
                max_worker_rss_mb=arguments.max_worker_rss_mb),
            max_queue=arguments.max_queue,
            max_client_jobs=arguments.max_client_jobs,
            host=arguments.host, port=arguments.port)
        daemon.start()
    except (ReproError, OSError) as error:
        print(f"repro.serve.daemon: {error}", file=sys.stderr)
        return 1

    if arguments.ready_file:
        write_json(arguments.ready_file, {
            "port": daemon.port, "pid": os.getpid(),
            "spool": arguments.spool,
        })

    def request_drain(signum, frame) -> None:
        daemon.drain(wait=False)

    signal.signal(signal.SIGTERM, request_drain)
    signal.signal(signal.SIGINT, request_drain)

    print(f"repro.serve.daemon: listening on "
          f"{daemon.host}:{daemon.port}, spool {arguments.spool} "
          f"({len(daemon._batches)} batch(es) recovered)")
    # Serve until drained: /v1/drain or SIGTERM finishes the queue and
    # lets the process exit cleanly.
    daemon._drained.wait()
    daemon.stop()
    print("repro.serve.daemon: drained; bye")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
