"""``repro.serve``: a parallel job executor with a content-addressed
result cache for sweeps, campaigns and benches.

Every heavy workload in the repo — Table-1 cells, design-space sweeps,
fault-injection campaigns, host-performance benches — decomposes into
pure, independent evaluations of a (workload, machine configuration,
seed) triple.  This package turns those evaluations into first-class
*jobs*:

* :class:`~repro.serve.jobspec.JobSpec` — a canonical, hashable,
  JSON-serialisable description of one evaluation, with a stable
  content digest;
* :class:`~repro.serve.executors.SerialExecutor` — the in-process
  reference executor; every batch runs through it or the pool and
  comes back **in input order**, never completion order;
* :class:`~repro.serve.supervisor.SupervisedPool` — the one process
  pool: long-lived worker incarnations with affinity routing, so
  compile caches and memoised checkers survive across jobs, recycled
  after N jobs (``recycle_after=1`` is a fresh process per job) or an
  RSS ceiling; supervised by heartbeats and a hung-worker watchdog
  (SIGTERM -> SIGKILL reap escalation), per-job timeouts, retries with
  deterministic exponential backoff, poison-job quarantine, and
  graceful degradation to in-process execution when spawning fails;
* :class:`~repro.serve.cache.ResultCache` — a content-addressed
  on-disk store of job results keyed by job digest and a code-version
  salt, with hit/miss/invalidation statistics;
* :mod:`repro.serve.daemon` — a long-running HTTP/JSON job service
  (submit batches, stream results, peek the cache by digest) with a
  bounded back-pressured queue, per-client quotas, a durable spool,
  and drain/restart semantics that keep every job exactly-once;
* :mod:`repro.serve.chaos` — deterministic *infrastructure* fault
  injection (worker kills/hangs, cache corruption, dropped
  connections) plus the differential harness proving none of it can
  change an outcome table;
* the ``repro-serve`` CLI (:mod:`repro.serve.cli`) — runs batch files
  of jobs, reports throughput, and warms or verifies the cache.

The hard contract is **determinism**: for every integration
(:func:`repro.explore.sweep.sweep_configs`,
:func:`repro.explore.reliability.reliability_sweep`,
:func:`repro.harness.faultcampaign.run_campaign`,
:func:`repro.perf.bench.run_bench`) the parallel and cache-replayed
outputs are byte-identical to the serial outputs.  Seeds live in the
job specs themselves (derived with the repo's deterministic
:class:`~repro.workloads.XorShift32` at batch-construction time), so
scheduling order can never leak into a result.
"""

from repro.serve.jobspec import (
    JOB_KINDS,
    KIND_BENCH,
    KIND_CAMPAIGN,
    KIND_PROBE,
    KIND_SWEEP,
    JobSpec,
    bench_job,
    campaign_job,
    derive_seeds,
    dump_batch,
    load_batch,
    shard_campaign,
    sweep_job,
)
from repro.serve.executors import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POISONED,
    STATUS_TIMEOUT,
    JobOutcome,
    SerialExecutor,
    raise_for_failures,
    reap_process,
    run_jobs,
)
from repro.serve.supervisor import SupervisedPool
from repro.serve.cache import CacheStats, ResultCache, code_salt
from repro.serve.worker import CheckerMemo, execute_spec, worker_stats

__all__ = [
    "JOB_KINDS",
    "KIND_BENCH",
    "KIND_CAMPAIGN",
    "KIND_PROBE",
    "KIND_SWEEP",
    "JobSpec",
    "bench_job",
    "campaign_job",
    "derive_seeds",
    "dump_batch",
    "load_batch",
    "shard_campaign",
    "sweep_job",
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_POISONED",
    "STATUS_TIMEOUT",
    "JobOutcome",
    "SerialExecutor",
    "SupervisedPool",
    "raise_for_failures",
    "reap_process",
    "run_jobs",
    "CacheStats",
    "CheckerMemo",
    "ResultCache",
    "code_salt",
    "execute_spec",
    "worker_stats",
]
