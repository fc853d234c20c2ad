"""Job execution: turn a :class:`~repro.serve.jobspec.JobSpec` into a
deterministic result payload.

:func:`execute_spec` is the single entry point.  It runs in-process
under :class:`~repro.serve.executors.SerialExecutor` and inside a worker
incarnation of :class:`~repro.serve.supervisor.SupervisedPool`, which
receives each job as a JSON payload dict and rebuilds the spec with
:meth:`~repro.serve.jobspec.JobSpec.from_payload`.  Module-level memos
(:data:`_CHECKER_MEMO`, the compile caches) therefore live as long as
the incarnation, and :func:`worker_stats` reports them to the pool.

Every job returns two dicts:

* ``payload`` — the **deterministic** result.  This is what the cache
  stores and what reports are diffed on; it must be a pure function of
  the job spec (no wall-clock times, no host names, no object ids).
* ``meta`` — non-deterministic measurement context (phase timings).
  Executors attach it to the outcome but it never enters the cache.

Heavy subsystem imports happen lazily inside the per-kind handlers so
that importing :mod:`repro.serve` stays cheap and cycle-free.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, Tuple

from repro.errors import ServeError
from repro.serve.jobspec import (
    KIND_BENCH,
    KIND_CAMPAIGN,
    KIND_PROBE,
    KIND_SWEEP,
    JobSpec,
)
from repro.workloads import WORKLOADS, WorkloadSpec

Payload = Dict[str, object]


def build_workload(spec: JobSpec) -> WorkloadSpec:
    """Rebuild the exact workload instance the job describes."""
    constructor = WORKLOADS[spec.workload]
    return constructor(*spec.workload_args)


def _execute_sweep(spec: JobSpec) -> Tuple[Payload, Payload]:
    from repro.fpga import estimate_costs
    from repro.harness.runner import run_on_epic

    workload = build_workload(spec)
    run = run_on_epic(workload, spec.config, validate=spec.validate,
                      max_cycles=spec.max_cycles, engine=spec.engine,
                      cycle_limit_ok=spec.cycle_limit_ok)
    estimate, clock_mhz = estimate_costs(spec.config)
    payload: Payload = {
        "workload": workload.name,
        "machine": run.machine,
        "cycles": run.cycles,
        "outcome": run.outcome,
        "slices": estimate.slices,
        "block_rams": estimate.block_rams,
        "clock_mhz": clock_mhz,
    }
    return payload, {}


class CheckerMemo:
    """LRU-bounded memo of compiled lockstep checkers.

    One MiniC -> IR -> EPIC compile, golden interpreter run and
    fault-free reference run per (workload, machine) pair per worker
    process, shared by every campaign shard the process executes.
    Under a forking executor a checker warmed in the parent is
    inherited by the workers for free.

    Warm persistent workers (PR 10) keep this memo alive across many
    jobs, so it must be *bounded*: the least-recently-used checker is
    evicted once the memo exceeds ``limit`` entries (the
    ``REPRO_CHECKER_MEMO`` env knob; checkers hold a compiled program,
    a golden machine and a checkpoint stream each, so a handful is
    already hundreds of MB on big workloads).  Eviction is a pure perf
    event — a rebuilt checker is deterministic, so outcome tables
    cannot observe it — and hit/miss/evict counts are surfaced in
    campaign job meta for the warm-pool telemetry.
    """

    DEFAULT_LIMIT = 8

    def __init__(self) -> None:
        from collections import OrderedDict

        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def limit(self) -> int:
        """Entry bound (``REPRO_CHECKER_MEMO`` env, read per lookup so
        long-lived workers honour re-tuning without a restart)."""
        try:
            limit = int(os.environ.get("REPRO_CHECKER_MEMO",
                                       self.DEFAULT_LIMIT))
        except ValueError:
            limit = self.DEFAULT_LIMIT
        return max(1, limit)

    def get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, checker: object) -> None:
        self._entries[key] = checker
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "limit": self.limit,
        }


#: The process-level campaign-checker memo (see :class:`CheckerMemo`).
_CHECKER_MEMO = CheckerMemo()


def worker_stats() -> Dict[str, object]:
    """In-process state a warm worker reports with every result:
    checker-memo counters plus this process's peak RSS, which the
    parent pool uses for its recycle-on-memory-ceiling policy."""
    rss_kb = 0
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
            rss_kb //= 1024
    except (ImportError, OSError):  # pragma: no cover - exotic host
        pass
    return {
        "rss_kb": int(rss_kb),
        "checker_memo": _CHECKER_MEMO.stats(),
    }


def checkpoints_enabled() -> bool:
    """Checkpoint fast-forwarding toggle (``REPRO_CHECKPOINTS`` env).

    A perf knob, not a result knob — outcome tables are byte-identical
    either way, which is why it travels out-of-band instead of in the
    job spec (whose digest keys the result cache).
    """
    return os.environ.get("REPRO_CHECKPOINTS", "1").lower() \
        not in ("0", "off", "no", "false")


def checkpoint_store():
    """Shared on-disk checkpoint store (``REPRO_CHECKPOINT_STORE`` env),
    or ``None`` to keep golden streams in-process only."""
    path = os.environ.get("REPRO_CHECKPOINT_STORE")
    if not path:
        return None
    from repro.core.snapshot import CheckpointStore

    return CheckpointStore(path)


def campaign_checker(spec: JobSpec):
    """The memoised lockstep checker for a campaign job."""
    from repro.reliability import LockstepChecker

    key = (spec.workload, spec.workload_args,
           spec.config.digest(),
           spec.watchdog_factor, spec.max_cycles)
    checker = _CHECKER_MEMO.get(key)
    if checker is None:
        checker = LockstepChecker(build_workload(spec), spec.config,
                                  watchdog_factor=spec.watchdog_factor,
                                  max_cycles=spec.max_cycles,
                                  checkpoints=checkpoints_enabled(),
                                  checkpoint_store=checkpoint_store())
        _CHECKER_MEMO.put(key, checker)
    return checker


def _execute_campaign(spec: JobSpec) -> Tuple[Payload, Payload]:
    from repro.harness.faultcampaign import (
        classify_faults, generate_faults, result_payload,
    )

    memo_hits_before = _CHECKER_MEMO.hits
    checker = campaign_checker(spec)
    memo_hit = _CHECKER_MEMO.hits > memo_hits_before
    faults = generate_faults(checker, spec.n, spec.seed, spec.spaces)
    stop = spec.n if spec.fault_count < 0 \
        else min(spec.n, spec.fault_offset + spec.fault_count)
    results, record = classify_faults(
        checker, faults[spec.fault_offset:stop], spec.engine)
    payload: Payload = {
        "workload": checker.spec.name,
        "machine": f"EPIC-{spec.config.n_alus}ALU",
        "n": spec.n,
        "seed": spec.seed,
        "fault_offset": spec.fault_offset,
        "reference_cycles": checker.reference_cycles,
        "outcomes": [result_payload(result) for result in results],
    }
    # Meta is the shard's classification record plus the memo counters.
    record.update(checker_memo_hit=memo_hit,
                  checker_memo=_CHECKER_MEMO.stats())
    return payload, record


def _execute_bench(spec: JobSpec) -> Tuple[Payload, Payload]:
    from repro.perf.bench import BENCH_ENGINES, TIMING_FIELDS, bench_cell

    workload = build_workload(spec)
    # A bench job names one engine, or all of them.
    engines = BENCH_ENGINES if spec.engine in ("all", "auto") \
        else (spec.engine,)
    cell = bench_cell(workload, spec.config.n_alus,
                      max_cycles=spec.max_cycles, engines=engines)
    payload: Payload = {
        "benchmark": cell["benchmark"],
        "machine": cell["machine"],
        "cycles": cell["cycles"],
        "ilp": cell["ilp"],
        "fingerprint": cell["fingerprint"],
    }
    meta: Payload = {key: cell[key] for key in TIMING_FIELDS}
    return payload, meta


def _execute_probe(spec: JobSpec) -> Tuple[Payload, Payload]:
    if spec.behavior == "ok":
        return {"value": spec.seed}, {}
    if spec.behavior == "sleep":
        time.sleep(spec.seconds)
        return {"value": spec.seed}, {}
    if spec.behavior == "fail":
        raise ServeError("probe job asked to fail")
    if spec.behavior == "crash":
        # Simulated hard worker death: no exception propagates, no
        # result is ever reported.  (Only meaningful under a process
        # executor; the serial executor refuses to run it.)
        os._exit(13)
    if spec.behavior == "stubborn":
        # Ignore SIGTERM *and* hang: only a SIGKILL escalation can end
        # this worker.  (Only meaningful under a process executor.)
        import signal

        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    # "hang"/"stubborn": spin until the executor reaps us.
    while True:  # pragma: no cover - exercised via the pool's timeout
        time.sleep(0.05)


_HANDLERS = {
    KIND_SWEEP: _execute_sweep,
    KIND_CAMPAIGN: _execute_campaign,
    KIND_BENCH: _execute_bench,
    KIND_PROBE: _execute_probe,
}


def execute_spec(spec: JobSpec) -> Tuple[Payload, Payload]:
    """Run one job; returns ``(deterministic payload, timing meta)``."""
    return _HANDLERS[spec.kind](spec)

