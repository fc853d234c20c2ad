"""Job outcomes, the in-process executor and the cache-aware batch loop.

Two executors share one interface (``run(specs, on_result=None) ->
List[JobOutcome]``):

* :class:`SerialExecutor` (here) runs jobs in this process, in order.
  It is the reference: every other execution strategy must reproduce
  its results byte for byte.
* :class:`~repro.serve.supervisor.SupervisedPool` runs them on
  supervised worker processes.

Both execute a job through :func:`execute_job`, which turns any
exception into a structured ``error`` outcome.

**Deterministic ordering is the contract**: the returned list is always
keyed by input position, never by completion order.  The optional
``on_result`` callback fires as outcomes arrive (completion order under
the pool) and is for progress display only — nothing built from the
returned list can observe scheduling.

:func:`run_jobs` layers the content-addressed
:class:`~repro.serve.cache.ResultCache` on top: hits short-circuit
execution, fresh ``ok`` results are written back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError, ServeError
from repro.serve.jobspec import KIND_PROBE, JobSpec
from repro.serve.worker import execute_spec

#: Structured job statuses.  ``ok`` is the only one carrying a payload.
STATUS_OK = "ok"
STATUS_ERROR = "error"          # the job raised a (repro) error
STATUS_TIMEOUT = "timeout"      # reaped by the per-job timeout/watchdog
STATUS_CRASHED = "crashed"      # worker died without reporting
STATUS_POISONED = "poisoned"    # quarantined after a crash loop

JOB_STATUSES = (STATUS_OK, STATUS_ERROR, STATUS_TIMEOUT, STATUS_CRASHED,
                STATUS_POISONED)

#: Seconds a signalled worker gets to exit before the reap escalates.
DEFAULT_TERM_GRACE = 2.0

OnResult = Callable[["JobOutcome"], None]


def reap_process(process, grace: float = DEFAULT_TERM_GRACE) -> str:
    """Stop a worker process without ever blocking forever.

    Escalation ladder: ``terminate()`` (SIGTERM), wait up to ``grace``
    seconds, then ``kill()`` (SIGKILL), wait again.  A child that
    installed a SIGTERM handler — or ignores it outright — therefore
    cannot wedge the executor the way a bare ``terminate(); join()``
    could.  Returns the name of what ended the worker: ``"exit"`` if it
    was already dead, ``"SIGTERM"`` or ``"SIGKILL"`` otherwise.
    """
    if not process.is_alive():
        process.join(grace)
        return "exit"
    process.terminate()
    process.join(grace)
    if not process.is_alive():
        return "SIGTERM"
    process.kill()
    process.join(grace)
    return "SIGKILL"


@dataclass
class JobOutcome:
    """What happened to one job — always structured, never an excuse
    for an executor to hang or to silently drop a result."""

    spec: JobSpec
    index: int
    status: str
    payload: Optional[Dict[str, object]] = None
    meta: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    seconds: float = 0.0
    attempts: int = 1
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest of the outcome (reports, artifacts)."""
        return {
            "job_id": self.spec.job_id,
            "job": self.spec.describe(),
            "digest": self.spec.digest(),
            "status": self.status,
            "error": self.error,
            "seconds": round(self.seconds, 6),
            "attempts": self.attempts,
            "cached": self.cached,
        }


def execute_job(spec: JobSpec, index: int, attempts: int = 1,
                degraded: bool = False) -> JobOutcome:
    """Run one job in this process as a structured outcome.

    The one job body of the package: :class:`SerialExecutor`, the
    pool's degraded fallback and every worker incarnation all call it.
    A raising job becomes an ``error`` outcome, never an exception.
    ``degraded`` marks the outcome's meta as run by a pool that fell
    back to in-process execution.
    """
    started = time.perf_counter()
    payload = meta = error = None
    try:
        payload, meta = execute_spec(spec)
    except ReproError as exc:
        error = str(exc)
    except Exception as exc:  # noqa: BLE001 - structured outcome
        error = f"{type(exc).__name__}: {exc}"
    if degraded:
        meta = {**(meta or {}), "degraded": True}
    return JobOutcome(spec=spec, index=index,
                      status=STATUS_OK if error is None else STATUS_ERROR,
                      payload=payload, meta=meta, error=error,
                      seconds=time.perf_counter() - started,
                      attempts=attempts)


def kills_the_process(spec: JobSpec) -> bool:
    """True for probes that would kill or wedge the process running
    them, so they can only run inside a pool worker."""
    return spec.kind == KIND_PROBE and spec.behavior in (
        "crash", "hang", "stubborn")


class SerialExecutor:
    """In-process, in-order execution — the determinism reference."""

    jobs = 1

    def run(self, specs: Sequence[JobSpec],
            on_result: Optional[OnResult] = None) -> List[JobOutcome]:
        outcomes: List[JobOutcome] = []
        for index, spec in enumerate(specs):
            if kills_the_process(spec):
                raise ServeError(
                    f"probe behaviour {spec.behavior!r} would kill or "
                    "wedge the calling process; run it under a "
                    "SupervisedPool"
                )
            outcome = execute_job(spec, index)
            outcomes.append(outcome)
            if on_result is not None:
                on_result(outcome)
        return outcomes


def run_jobs(specs: Sequence[JobSpec],
             executor=None,
             cache=None,
             on_result: Optional[OnResult] = None) -> List[JobOutcome]:
    """Run a batch through ``executor`` with ``cache`` short-circuiting.

    Cache hits are reported first (zero-cost outcomes with
    ``cached=True``); misses go to the executor and successful fresh
    results are written back.  The returned list is in input order.
    """
    specs = list(specs)
    if executor is None:
        executor = SerialExecutor()
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    pending: List[JobSpec] = []
    pending_indices: List[int] = []
    for index, spec in enumerate(specs):
        payload = cache.get(spec) if cache is not None else None
        if payload is not None:
            outcome = JobOutcome(spec=spec, index=index, status=STATUS_OK,
                                 payload=payload, cached=True, attempts=0)
            outcomes[index] = outcome
            if on_result is not None:
                on_result(outcome)
        else:
            pending.append(spec)
            pending_indices.append(index)

    if pending:
        def forward(outcome: JobOutcome) -> None:
            outcome.index = pending_indices[outcome.index]
            if cache is not None and outcome.ok:
                cache.put(outcome.spec, outcome.payload)
            outcomes[outcome.index] = outcome
            if on_result is not None:
                on_result(outcome)

        executor.run(pending, on_result=forward)

    return [outcome for outcome in outcomes if outcome is not None]


def raise_for_failures(outcomes: Sequence[JobOutcome]) -> None:
    """Raise :class:`~repro.errors.ServeError` if any job failed.

    The message carries per-status counts and the first failing job's
    digest so a campaign log is actionable without re-running: the
    digest keys the cache record, `repro-serve verify`, and the chaos
    event log, and the counts say *how* the batch died (one poisoned
    spec vs. a wall of timeouts are very different incidents).
    """
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if not failures:
        return
    counts: Dict[str, int] = {}
    for outcome in failures:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    by_status = ", ".join(
        f"{status}={counts[status]}"
        for status in JOB_STATUSES if status in counts
    )
    first = failures[0]
    details = "; ".join(
        f"{outcome.spec.job_id} {outcome.status}"
        + (f" ({outcome.error})" if outcome.error else "")
        for outcome in failures[:5]
    )
    more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
    raise ServeError(
        f"{len(failures)} of {len(outcomes)} jobs failed ({by_status}; "
        f"first failure {first.spec.job_id} "
        f"digest {first.spec.digest()}): {details}{more}"
    )
