"""``SupervisedPool``: the process pool of :mod:`repro.serve`.

Jobs run on **worker incarnations**: long-lived child processes that
loop over jobs sent down a duplex pipe.  The expensive state a worker
builds — the memoised lockstep checker
(:data:`repro.serve.worker._CHECKER_MEMO`), the fastpath and trace
compile caches, the golden checkpoint streams — survives from job to
job instead of dying with the process.  One dispatch loop serves every
shape of pool:

* **affinity routing** — each job carries an
  :meth:`~repro.serve.jobspec.JobSpec.affinity_key` (workload instance
  plus machine-config digest: exactly what the in-process memos are
  keyed by).  The dispatcher prefers an idle incarnation that has
  served that key, else spawns one while fewer than ``jobs`` are
  alive, else takes the coldest idle one;
* **bounded incarnations** — an incarnation retires politely after
  ``recycle_after`` jobs or once its reported peak RSS crosses
  ``max_worker_rss_mb``.  ``recycle_after=1`` is the fresh-process
  pool: every job runs on a newly forked worker;
* **heartbeats and a watchdog** — every worker beats over its pipe from
  a side thread.  An incarnation silent for ``watchdog`` seconds is
  hung and is reaped (SIGTERM, then SIGKILL after ``term_grace``).  A
  hung job is an infrastructure fault and is retried; a hung idle
  incarnation is culled before a job can be routed to it;
* **retries with deterministic backoff** — a job whose worker was lost
  or hung is rescheduled after ``backoff_base * 2**(failures-1)``
  seconds (capped at ``backoff_cap``), scaled by a jitter drawn from
  :class:`~repro.workloads.XorShift32` seeded by the job digest, the
  failure count and :data:`BACKOFF_SEED`.  Same batch, same faults =>
  same schedule, so retry timing cannot leak into results;
* **per-job timeout** — a job over ``timeout`` seconds is reaped with
  its incarnation and reported ``timeout`` without a retry: a
  deterministic job that timed out once will time out again;
* **poison quarantine** — a digest whose workers are lost
  ``poison_after`` times is a crash loop.  It is reported ``poisoned``
  and the pool refuses that digest (attempts=0) for the rest of its
  life;
* **degrade to serial** — if the OS refuses to spawn a worker and no
  idle incarnation is left, the pool runs the remaining jobs in this
  process (``fallback_serial=False`` raises
  :class:`~repro.errors.SpawnError` instead).  Probes that would kill
  or wedge the caller fail structurally;
* **chaos hooks** — an optional :class:`~repro.serve.chaos.ChaosMonkey`
  may order an incarnation killed or hung per (digest, attempt), which
  is how the differential harness proves that none of the above shows
  in an outcome table.

The loop is event-driven: it blocks in
``multiprocessing.connection.wait`` over the worker pipes until a
message or EOF arrives or the earliest real deadline (retry backoff,
per-job timeout, watchdog) passes.  Workers are forked where the
platform allows it.

The executor contract is :class:`~repro.serve.executors.
SerialExecutor`'s: ``run(specs, on_result=None)`` returns outcomes in
input order, byte-identical to serial execution, and no failure may
hang the pool or drop a result.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ServeError, SpawnError
from repro.serve.executors import (
    DEFAULT_TERM_GRACE,
    STATUS_CRASHED,
    STATUS_OK,
    STATUS_POISONED,
    STATUS_TIMEOUT,
    JobOutcome,
    OnResult,
    execute_job,
    kills_the_process,
    reap_process,
)
from repro.serve.jobspec import JobSpec
from repro.serve.worker import worker_stats
from repro.workloads import XorShift32

#: Message tag workers interleave with their result messages.
HEARTBEAT = "heartbeat"

#: Chaos directives a worker understands (see repro.serve.chaos).
CHAOS_KILL = "kill"
CHAOS_HANG = "hang"

#: Seed mixed into every retry's backoff jitter.
BACKOFF_SEED = 0x5EED

#: Upper bound on any single scheduler wait.  Waits normally end at the
#: earliest real deadline or on a pipe event; this cap only insures
#: against a lost-wakeup bug ever wedging the pool.
_POLL_CAP = 1.0

_METHODS = multiprocessing.get_all_start_methods()
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in _METHODS else _METHODS[0])

#: Parent ends of every live worker pipe in this process, across pools
#: (weak, so a pool dropped without ``close()`` still ends its workers
#: by garbage-collecting the ends).  A forked worker inherits them all
#: and must close them, or its own ``recv()`` never sees EOF once the
#: pool's process dies: its pipe's parent end would stay open in the
#: worker itself and in every younger sibling.
_PARENT_ENDS: "weakref.WeakSet" = weakref.WeakSet()


def _warm_child_entry(conn, heartbeat: float) -> None:
    """Worker body: run pipe-fed jobs until told to stop, heartbeating
    for the life of the incarnation.

    Parent -> worker messages: ``("job", payload, directive)`` runs one
    job; ``("stop",)`` (or EOF) ends the incarnation cleanly.  Chaos
    directives fault *this* incarnation: ``kill`` dies without
    reporting, ``hang`` silences the heartbeat thread and then wedges —
    a stop-the-world hang the parent watchdog (not the per-job timeout)
    must notice.

    Every result message carries :func:`~repro.serve.worker.
    worker_stats` (peak RSS + checker-memo counters), which the parent
    uses for recycle decisions and telemetry.
    """
    for inherited in list(_PARENT_ENDS):
        inherited.close()
    _PARENT_ENDS.clear()
    # The pool's process may install handlers (the daemon drains on
    # SIGTERM/SIGINT); a worker must just die on them.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    send_lock = threading.Lock()
    stop = threading.Event()
    if heartbeat > 0:
        def beat() -> None:
            sequence = 0
            while not stop.wait(heartbeat):
                sequence += 1
                try:
                    with send_lock:
                        if stop.is_set():
                            return
                        conn.send((HEARTBEAT, sequence, None))
                except OSError:  # pragma: no cover - parent went away
                    return

        threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(request, tuple) or not request \
                    or request[0] != "job":
                break  # ("stop",) — clean recycle
            _, payload, directive = request
            if directive == CHAOS_KILL:
                os._exit(137)
            if directive == CHAOS_HANG:
                stop.set()
                while True:  # pragma: no cover - reaped by the parent
                    time.sleep(3600)
            outcome = execute_job(JobSpec.from_payload(payload), 0)
            result = outcome.payload if outcome.ok else outcome.error
            with send_lock:
                conn.send((outcome.status, result, outcome.meta,
                           worker_stats()))
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:  # pragma: no cover - pipe already gone
            pass


@dataclass
class _Assignment:
    """The job an incarnation is currently executing."""

    index: int
    key: str
    started: float
    affinity_hit: bool


@dataclass
class _WarmWorker:
    """One worker incarnation and the warm state it has built."""

    generation: int
    process: multiprocessing.process.BaseProcess
    conn: object
    last_beat: float
    jobs_done: int = 0
    #: Affinity keys this incarnation has served (== which in-process
    #: memos are hot).
    keys: Set[str] = field(default_factory=set)
    current: Optional[_Assignment] = None
    #: Last worker_stats() report (RSS, checker-memo counters).
    last_stats: Optional[Dict[str, object]] = None


class SupervisedPool:
    """Fault-tolerant process-parallel executor (see module docstring).

    ``jobs``
        Most worker incarnations alive at once.
    ``timeout``
        Per-job budget (s); an overrun is reaped and reported
        ``timeout`` without a retry.
    ``retries``
        Re-runs granted after a lost *or* watchdog-declared hung
        worker.
    ``term_grace``
        Seconds a SIGTERM'd worker gets before the reap sends SIGKILL.
    ``heartbeat``
        Interval (s) between worker heartbeats; 0 disables them (and
        the watchdog with them).
    ``watchdog``
        Heartbeat silence (s) after which a worker counts as hung.
        Must comfortably exceed ``heartbeat``.
    ``poison_after``
        Lost workers (per job digest) that trigger quarantine.
    ``backoff_base`` / ``backoff_cap``
        Exponential-backoff schedule for retries, jittered
        deterministically from the job digest.
    ``fallback_serial``
        Degrade to in-process execution when spawning fails (else
        raise :class:`~repro.errors.SpawnError`).
    ``chaos``
        Optional :class:`~repro.serve.chaos.ChaosMonkey` consulted per
        (digest, attempt) for an injected worker fault.
    ``recycle_after``
        Retire an incarnation after this many jobs.  ``1`` runs every
        job on a fresh process; ``None`` never retires on job count.
    ``max_worker_rss_mb``
        Retire an incarnation whose reported peak RSS exceeds this
        many MB.
    ``warm``
        Accepted only as ``True``, for callers that still spell the
        default out; fresh-process semantics are ``recycle_after=1``.
    """

    def __init__(self, jobs: int = 2, timeout: Optional[float] = None,
                 retries: int = 2,
                 term_grace: float = DEFAULT_TERM_GRACE,
                 heartbeat: float = 0.25, watchdog: Optional[float] = 5.0,
                 poison_after: int = 3,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 fallback_serial: bool = True,
                 chaos=None,
                 recycle_after: Optional[int] = None,
                 max_worker_rss_mb: Optional[float] = None,
                 warm: bool = True):
        if warm is not True:
            raise ServeError("SupervisedPool always runs warm worker "
                             "incarnations; pass recycle_after=1 for a "
                             "fresh process per job")
        if jobs < 1:
            raise ServeError("SupervisedPool needs jobs >= 1")
        if timeout is not None and timeout <= 0:
            raise ServeError("per-job timeout must be positive")
        if retries < 0:
            raise ServeError("retries must be >= 0")
        if term_grace <= 0:
            raise ServeError("term_grace must be positive")
        if heartbeat < 0:
            raise ServeError("heartbeat interval must be >= 0")
        if watchdog is not None and heartbeat > 0 \
                and watchdog <= heartbeat:
            raise ServeError("watchdog must exceed the heartbeat "
                             "interval, or every worker looks hung")
        if poison_after < 1:
            raise ServeError("poison_after must be >= 1")
        if backoff_base < 0 or backoff_cap < backoff_base:
            raise ServeError("need 0 <= backoff_base <= backoff_cap")
        if recycle_after is not None and recycle_after < 1:
            raise ServeError("recycle_after must be >= 1")
        if max_worker_rss_mb is not None and max_worker_rss_mb <= 0:
            raise ServeError("max_worker_rss_mb must be positive")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.term_grace = term_grace
        self.heartbeat = heartbeat
        self.watchdog = watchdog if heartbeat > 0 else None
        self.poison_after = poison_after
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.fallback_serial = fallback_serial
        self.chaos = chaos
        self.recycle_after = recycle_after
        self.max_worker_rss_mb = max_worker_rss_mb
        #: True once the pool has fallen back to in-process execution.
        self.degraded = False
        #: digest -> quarantine reason, persistent across run() calls.
        self._quarantined: Dict[str, str] = {}
        #: Live incarnations, persistent across run() calls.
        self._warm_workers: Dict[object, _WarmWorker] = {}
        self._generations = 0
        #: Pool telemetry (see :meth:`telemetry`).
        self.counters: Dict[str, int] = {
            "dispatched": 0,        # jobs sent to workers
            "spawns": 0,            # incarnations started
            "reused_jobs": 0,       # jobs run on a non-fresh incarnation
            "affinity_hits": 0,     # routed onto a worker hot for the key
            "affinity_misses": 0,
            "recycles_jobs": 0,     # retired at the recycle_after bound
            "recycles_rss": 0,      # retired at the RSS ceiling
            "workers_lost": 0,      # incarnations that died uncommanded
            "idle_culled": 0,       # silent idle incarnations reaped
        }

    # -- deterministic backoff ----------------------------------------

    def backoff_delay(self, digest: str, failures: int) -> float:
        """Sleep before retry number ``failures`` of job ``digest``.

        ``base * 2**(failures-1)`` capped, scaled into [0.5x, 1.0x] by
        a jitter drawn deterministically from (digest, failures,
        :data:`BACKOFF_SEED`) — spreads retry storms without making the
        schedule depend on wall clock or scheduling order.
        """
        if self.backoff_base == 0:
            return 0.0
        window = min(self.backoff_cap,
                     self.backoff_base * (2 ** max(0, failures - 1)))
        seed = (int(digest[:8], 16) ^ BACKOFF_SEED ^ failures) or 1
        jitter = XorShift32(seed).next() / 2 ** 32
        return window * (0.5 + 0.5 * jitter)

    # -- quarantine ----------------------------------------------------

    def quarantined(self) -> Dict[str, str]:
        """digest -> reason for every quarantined job spec."""
        return dict(self._quarantined)

    def _quarantine(self, digest: str, reason: str) -> None:
        self._quarantined[digest] = reason
        if self.chaos is not None:
            self.chaos.log.record("quarantine", digest=digest,
                                  reason=reason)

    # -- incarnation lifecycle and telemetry ---------------------------

    def telemetry(self) -> Dict[str, object]:
        """Pool health: reuse and affinity rates, recycles,
        per-incarnation job counts, RSS and live memo sizes.

        ``warm`` is False for a fresh-process pool
        (``recycle_after=1``)."""
        dispatched = self.counters["dispatched"]
        routed = (self.counters["affinity_hits"]
                  + self.counters["affinity_misses"])
        workers = []
        for worker in self._warm_workers.values():
            stats = worker.last_stats or {}
            workers.append({
                "generation": worker.generation,
                "jobs_done": worker.jobs_done,
                "keys": len(worker.keys),
                "busy": worker.current is not None,
                "rss_kb": stats.get("rss_kb"),
                "checker_memo": stats.get("checker_memo"),
            })
        return {
            "warm": self.recycle_after != 1,
            "degraded": self.degraded,
            **self.counters,
            "recycles": (self.counters["recycles_jobs"]
                         + self.counters["recycles_rss"]),
            "worker_reuse_rate": (self.counters["reused_jobs"] / dispatched
                                  if dispatched else 0.0),
            "affinity_hit_rate": (self.counters["affinity_hits"] / routed
                                  if routed else 0.0),
            "live_workers": len(self._warm_workers),
            "workers": workers,
        }

    def _spawn_warm(self) -> _WarmWorker:
        """Start one incarnation; raises OSError on spawn failure."""
        parent_conn, child_conn = _CONTEXT.Pipe(duplex=True)
        process = _CONTEXT.Process(
            target=_warm_child_entry,
            args=(child_conn, self.heartbeat),
            daemon=True,
        )
        _PARENT_ENDS.add(parent_conn)
        try:
            process.start()
        except OSError:
            _PARENT_ENDS.discard(parent_conn)
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()
        self._generations += 1
        self.counters["spawns"] += 1
        now = time.monotonic()
        worker = _WarmWorker(self._generations, process, parent_conn, now)
        self._warm_workers[parent_conn] = worker
        return worker

    def _drop_warm(self, worker: _WarmWorker, stop: bool) -> str:
        """Remove one incarnation: politely (``stop``) or by reaping.
        Returns what ended the process (see :func:`reap_process`)."""
        self._warm_workers.pop(worker.conn, None)
        _PARENT_ENDS.discard(worker.conn)
        if stop:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        ended_by = reap_process(worker.process, self.term_grace)
        try:
            worker.conn.close()
        except OSError:
            pass
        return ended_by

    def close(self) -> None:
        """Retire every incarnation (idle and busy alike).

        The pool remains usable — the next ``run()`` spawns fresh
        incarnations — so ``close()`` doubles as a manual full recycle.
        """
        for worker in list(self._warm_workers.values()):
            self._drop_warm(worker, stop=True)

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scheduling helpers --------------------------------------------

    def _run_inline(self, spec: JobSpec, index: int,
                    attempt: int, cause: str) -> JobOutcome:
        """Degraded mode: execute one job in-process, structurally."""
        if kills_the_process(spec):
            return JobOutcome(
                spec=spec, index=index, status=STATUS_CRASHED,
                error=(f"probe({spec.behavior}) cannot run in degraded "
                       f"serial mode (process spawning failed: {cause})"),
                attempts=attempt, meta={"degraded": True})
        return execute_job(spec, index, attempt, degraded=True)

    @staticmethod
    def _wait_budget(now: float, deadlines: List[float]) -> float:
        """Seconds the scheduler may block: until the earliest real
        deadline, bounded by the lost-wakeup cap.  Pipe events always
        wake it earlier."""
        if not deadlines:
            return _POLL_CAP
        return min(_POLL_CAP, max(0.0, min(deadlines) - now))

    @staticmethod
    def _route(ready: deque, keys: List[str], idle: List[_WarmWorker]
               ) -> Tuple[int, Optional[_WarmWorker], bool]:
        """Pick the next (job, worker) pairing.

        Affinity first: scan the ready queue (front to back) for any
        job whose key an *idle* incarnation has already served, and
        pair them.  Otherwise take the head job with no worker chosen
        yet — the caller spawns a fresh incarnation if capacity allows,
        else reuses the coldest idle one.  Routing order cannot affect
        results (outcomes are assembled by input index).
        """
        if idle:
            hot_keys = set()
            for worker in idle:
                hot_keys.update(worker.keys)
            for position, index in enumerate(ready):
                if keys[index] in hot_keys:
                    del ready[position]
                    worker = min(
                        (w for w in idle if keys[index] in w.keys),
                        key=lambda w: (w.jobs_done, w.generation))
                    return index, worker, True
        return ready.popleft(), None, False

    # -- the dispatch loop ---------------------------------------------

    def run(self, specs: Sequence[JobSpec],
            on_result: Optional[OnResult] = None) -> List[JobOutcome]:
        specs = list(specs)
        payloads = [spec.to_payload() for spec in specs]
        digests = [spec.digest() for spec in specs]
        keys = [spec.affinity_key() for spec in specs]
        results: Dict[int, JobOutcome] = {}
        ready: deque = deque(range(len(specs)))
        delayed: List[Tuple[float, int]] = []   # (ready_at, index)
        attempts = [0] * len(specs)
        failures = [0] * len(specs)             # lost + hung workers
        degraded_cause = "pool already degraded"

        # Incarnations idle since the previous run() have stale beat
        # stamps (nobody was reading their pipe); re-arm the watchdog
        # before their buffered heartbeats drain.
        now = time.monotonic()
        for worker in self._warm_workers.values():
            worker.last_beat = now

        def finish(outcome: JobOutcome) -> None:
            results[outcome.index] = outcome
            if on_result is not None:
                on_result(outcome)

        def retry_or(index: int, make_outcome) -> None:
            """Common lost/hung disposition: quarantine, retry with
            backoff, or surface the structured outcome."""
            digest = digests[index]
            if failures[index] >= self.poison_after:
                reason = (f"crash-looped: {failures[index]} worker(s) "
                          f"lost over {attempts[index]} attempt(s)")
                self._quarantine(digest, reason)
                finish(JobOutcome(
                    spec=specs[index], index=index,
                    status=STATUS_POISONED,
                    error=f"job quarantined as poisoned ({reason})",
                    attempts=attempts[index]))
            elif attempts[index] <= self.retries:
                delay = self.backoff_delay(digest, failures[index])
                delayed.append((time.monotonic() + delay, index))
            else:
                finish(make_outcome())

        def lose_incarnation(worker: _WarmWorker) -> None:
            """An incarnation died or wedged uncommanded."""
            self._drop_warm(worker, stop=False)
            self.counters["workers_lost"] += 1

        while len(results) < len(specs):
            now = time.monotonic()
            if delayed:
                due = [entry for entry in delayed if entry[0] <= now]
                if due:
                    delayed = [entry for entry in delayed
                               if entry[0] > now]
                    # Input order among simultaneously-due retries.
                    ready.extend(sorted(index for _, index in due))

            # -- dispatch: affinity routing onto idle/new incarnations
            while ready:
                idle = [worker for worker in self._warm_workers.values()
                        if worker.current is None]
                if not (self.degraded or idle
                        or len(self._warm_workers) < self.jobs):
                    break  # every incarnation is busy
                if self.degraded:
                    index, worker, affinity_hit = ready.popleft(), None, False
                else:
                    index, worker, affinity_hit = self._route(ready, keys,
                                                              idle)
                digest = digests[index]
                if digest in self._quarantined:
                    finish(JobOutcome(
                        spec=specs[index], index=index,
                        status=STATUS_POISONED,
                        error=("job digest is quarantined: "
                               + self._quarantined[digest]),
                        attempts=attempts[index]))
                    continue
                if worker is None and not self.degraded \
                        and len(self._warm_workers) < self.jobs:
                    try:
                        worker = self._spawn_warm()
                    except OSError as error:
                        # Spawning is refused.  Keep serving on live
                        # idle incarnations; degrade once none is left.
                        if not idle:
                            if not self.fallback_serial:
                                raise SpawnError(
                                    f"cannot spawn a worker process: "
                                    f"{error}") from error
                            self.degraded = True
                            degraded_cause = str(error)
                if self.degraded:
                    attempts[index] += 1
                    finish(self._run_inline(specs[index], index,
                                            attempts[index],
                                            degraded_cause))
                    continue
                if worker is None:
                    worker = min(idle, key=lambda w:
                                 (len(w.keys), w.generation))
                attempt = attempts[index] + 1
                directive = None
                if self.chaos is not None:
                    directive = self.chaos.worker_directive(digest,
                                                            attempt)
                try:
                    worker.conn.send(("job", payloads[index],
                                      directive))
                except (OSError, ValueError):
                    # The incarnation died while idle; the job never
                    # reached it, so requeue without charging a
                    # failure and replace the worker on the next pass.
                    lose_incarnation(worker)
                    ready.appendleft(index)
                    continue
                attempts[index] = attempt
                worker.current = _Assignment(index, keys[index],
                                             time.monotonic(),
                                             affinity_hit)
                self.counters["dispatched"] += 1
                if worker.jobs_done > 0:
                    self.counters["reused_jobs"] += 1
                if affinity_hit:
                    self.counters["affinity_hits"] += 1
                else:
                    self.counters["affinity_misses"] += 1

            # -- event-driven wait over every incarnation's pipe
            deadlines = []
            for worker in self._warm_workers.values():
                if worker.current is not None \
                        and self.timeout is not None:
                    deadlines.append(worker.current.started
                                     + self.timeout)
                if self.watchdog is not None:
                    deadlines.append(worker.last_beat + self.watchdog)
            if delayed:
                deadlines.append(min(at for at, _ in delayed))
            budget = self._wait_budget(time.monotonic(), deadlines)
            conns = list(self._warm_workers)
            if not conns:
                if ready:
                    continue  # degraded: dispatch inline immediately
                if budget > 0:
                    time.sleep(budget)
                continue
            for conn in connection_wait(conns, timeout=budget):
                worker = self._warm_workers.get(conn)
                if worker is None:
                    continue  # retired within this wake-up
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
                if message is not None and message[0] == HEARTBEAT:
                    worker.last_beat = time.monotonic()
                    continue
                if message is None:
                    # Incarnation lost (crash, chaos kill, OOM...).  The
                    # pipe can hit EOF before the process is reaped, while
                    # its exit code still reads None: join it first.
                    worker.process.join(self.term_grace)
                    exit_code = worker.process.exitcode
                    assignment = worker.current
                    lose_incarnation(worker)
                    if assignment is None:
                        continue  # died idle: no job was owed
                    index = assignment.index
                    elapsed = time.monotonic() - assignment.started
                    failures[index] += 1

                    def crashed(index=index, exit_code=exit_code,
                                elapsed=elapsed) -> JobOutcome:
                        return JobOutcome(
                            spec=specs[index], index=index,
                            status=STATUS_CRASHED,
                            error=(f"worker died without reporting "
                                   f"(exit code {exit_code}) after "
                                   f"{attempts[index]} attempt(s)"),
                            seconds=elapsed, attempts=attempts[index])

                    retry_or(index, crashed)
                    continue
                status, data, meta, wstats = message
                worker.last_beat = time.monotonic()
                worker.last_stats = wstats
                assignment = worker.current
                worker.current = None
                if assignment is None:  # pragma: no cover - defensive
                    continue
                index = assignment.index
                worker.jobs_done += 1
                worker.keys.add(assignment.key)
                elapsed = time.monotonic() - assignment.started
                meta = dict(meta or {})
                meta["worker"] = {
                    "generation": worker.generation,
                    "jobs_on_worker": worker.jobs_done,
                    "affinity_hit": assignment.affinity_hit,
                    "rss_kb": (wstats or {}).get("rss_kb"),
                    "checker_memo": (wstats or {}).get("checker_memo"),
                }
                ok = status == STATUS_OK
                finish(JobOutcome(
                    spec=specs[index], index=index, status=status,
                    payload=data if ok else None,
                    error=None if ok else data,
                    meta=meta, seconds=elapsed,
                    attempts=attempts[index]))
                # Bounded incarnations: recycle on the job-count or
                # RSS ceiling so warm state cannot leak unboundedly.
                recycle = None
                if self.recycle_after is not None \
                        and worker.jobs_done >= self.recycle_after:
                    recycle = "jobs"
                elif self.max_worker_rss_mb is not None and wstats \
                        and (wstats.get("rss_kb") or 0) \
                        > self.max_worker_rss_mb * 1024:
                    recycle = "rss"
                if recycle is not None:
                    self._drop_warm(worker, stop=True)
                    self.counters["recycles_" + recycle] += 1

            # -- deadline scan: per-job timeouts, hung incarnations
            now = time.monotonic()
            for worker in list(self._warm_workers.values()):
                assignment = worker.current
                silent = self.watchdog is not None \
                    and now - worker.last_beat >= self.watchdog
                if assignment is None:
                    if silent:
                        # A wedged idle incarnation would eat the next
                        # job routed to it; cull it now.
                        self._drop_warm(worker, stop=False)
                        self.counters["idle_culled"] += 1
                    continue
                index = assignment.index
                overdue = self.timeout is not None \
                    and now - assignment.started >= self.timeout
                if not (overdue or silent):
                    continue
                ended_by = self._drop_warm(worker, stop=False)
                elapsed = now - assignment.started
                if overdue:
                    # Deterministic per-job budget: no retry.  The
                    # incarnation is sacrificed with the job.
                    finish(JobOutcome(
                        spec=specs[index], index=index,
                        status=STATUS_TIMEOUT,
                        error=(f"job exceeded the {self.timeout:g}s "
                               f"per-job timeout and was terminated "
                               f"(worker ended by {ended_by})"),
                        seconds=elapsed, attempts=attempts[index]))
                    continue
                # Heartbeat silence: infrastructure fault, retried.
                self.counters["workers_lost"] += 1
                failures[index] += 1
                silence = now - worker.last_beat
                if self.chaos is not None:
                    self.chaos.log.record(
                        "watchdog-reap", digest=digests[index],
                        attempt=attempts[index], ended_by=ended_by)

                def hung_out(index=index, silence=silence,
                             ended_by=ended_by,
                             elapsed=elapsed) -> JobOutcome:
                    return JobOutcome(
                        spec=specs[index], index=index,
                        status=STATUS_TIMEOUT,
                        error=(f"watchdog declared the worker hung "
                               f"(no heartbeat for {silence:.2f}s) on "
                               f"all {attempts[index]} attempt(s); "
                               f"last worker ended by {ended_by}"),
                        seconds=elapsed, attempts=attempts[index])

                retry_or(index, hung_out)

        return [results[index] for index in range(len(specs))]
