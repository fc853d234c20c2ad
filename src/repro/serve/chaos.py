"""``repro.serve.chaos``: deterministic infrastructure fault injection.

PR 1 injects faults into the *simulated machine*; this module injects
them into the **simulator's own serving infrastructure** — and proves,
differentially, that none of it can corrupt a result:

* **worker kill** — a worker dies mid-job without reporting (models a
  machine loss / OOM kill);
* **worker hang** — a worker wedges *silently* (no heartbeats), so the
  :class:`~repro.serve.supervisor.SupervisedPool` watchdog must reap
  it;
* **cache corruption** — a freshly written result record is truncated
  on disk (models a torn write on a non-atomic filesystem), so the
  next reader must detect, invalidate and recompute;
* **connection drop** — the daemon slams an HTTP connection shut
  before responding, so clients must retry.

Every decision is a pure function of ``(seed, injection point, key)``
via SHA-256 — **never** of wall clock, pid, or scheduling order — so a
chaos campaign is exactly reproducible, and two runs at the same seed
inject the same faults no matter how the pool schedules workers.

The capstone is :func:`run_chaos_differential`: run a sweep, a sharded
fault campaign and a bench batch under chaos three ways — on the warm
persistent pool (faulting long-lived worker incarnations mid-stream),
on the fresh-process pool, and replayed through a corruptible cache —
and require every outcome table to be **byte-identical** to a clean
``SerialExecutor`` run.
``python -m repro.serve.chaos`` wraps it for CI with a global watchdog
bound, a JSON report and the chaos event log as an artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
from typing import Dict, List, Optional, Sequence

from repro.errors import ServeError
from repro.serve.cache import ResultCache
from repro.serve.executors import (
    JobOutcome,
    SerialExecutor,
    raise_for_failures,
    run_jobs,
)
from repro.serve.jobspec import (
    JobSpec,
    bench_job,
    campaign_job,
    shard_campaign,
    sweep_job,
)
from repro.serve.supervisor import CHAOS_HANG, CHAOS_KILL, SupervisedPool


class ChaosLog:
    """Append-only, thread-safe record of every injected fault."""

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []
        self._lock = threading.Lock()

    def record(self, event: str, **fields: object) -> None:
        with self._lock:
            self.events.append({"event": event, **fields})

    def counts(self) -> Dict[str, int]:
        with self._lock:
            totals: Dict[str, int] = {}
            for entry in self.events:
                name = str(entry["event"])
                totals[name] = totals.get(name, 0) + 1
            return totals

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            events = list(self.events)
        return {"version": 1, "counts": self.counts(), "events": events}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class ChaosMonkey:
    """Seed-driven infrastructure fault injector.

    Rates are probabilities in [0, 1] evaluated independently per
    injection point.  ``max_faults_per_job`` bounds how many attempts
    of one job may be faulted (kill or hang), so a pool configured with
    ``retries >= max_faults_per_job`` is *guaranteed* to converge —
    chaos perturbs the path, never the destination.  Cache corruption
    fires at most once per digest for the same reason.
    """

    def __init__(self, seed: int = 1,
                 kill_rate: float = 0.0, hang_rate: float = 0.0,
                 corrupt_rate: float = 0.0, drop_rate: float = 0.0,
                 max_faults_per_job: int = 1,
                 log: Optional[ChaosLog] = None):
        for name, rate in (("kill_rate", kill_rate),
                           ("hang_rate", hang_rate),
                           ("corrupt_rate", corrupt_rate),
                           ("drop_rate", drop_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ServeError(f"{name} must be in [0, 1], got {rate}")
        if kill_rate + hang_rate > 1.0:
            raise ServeError("kill_rate + hang_rate cannot exceed 1")
        if max_faults_per_job < 0:
            raise ServeError("max_faults_per_job must be >= 0")
        self.seed = seed
        self.kill_rate = kill_rate
        self.hang_rate = hang_rate
        self.corrupt_rate = corrupt_rate
        self.drop_rate = drop_rate
        self.max_faults_per_job = max_faults_per_job
        self.log = log if log is not None else ChaosLog()
        self._corrupted: set = set()
        self._drops: Dict[object, int] = {}
        self._lock = threading.Lock()

    def _draw(self, point: str, *key: object) -> float:
        """Uniform [0, 1) from (seed, injection point, key) — pure."""
        material = ":".join([str(self.seed), point]
                            + [str(part) for part in key])
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    # -- injection points ---------------------------------------------

    def worker_directive(self, digest: str,
                         attempt: int) -> Optional[str]:
        """Fault (or not) one worker attempt: 'kill', 'hang' or None."""
        if attempt > self.max_faults_per_job:
            return None
        roll = self._draw("worker", digest, attempt)
        if roll < self.kill_rate:
            self.log.record("kill-worker", digest=digest, attempt=attempt)
            return CHAOS_KILL
        if roll < self.kill_rate + self.hang_rate:
            self.log.record("hang-worker", digest=digest, attempt=attempt)
            return CHAOS_HANG
        return None

    def should_corrupt(self, digest: str) -> bool:
        """Corrupt the freshly written record for ``digest``? (once)"""
        with self._lock:
            if digest in self._corrupted:
                return False
            if self._draw("corrupt", digest) >= self.corrupt_rate:
                return False
            self._corrupted.add(digest)
        self.log.record("corrupt-cache-record", digest=digest)
        return True

    def should_drop(self, method: str, path: str) -> bool:
        """Drop this HTTP request's connection before responding?

        At most ``max_faults_per_job`` drops per (method, path), so a
        client with bounded retries always gets through eventually.
        """
        key = (method, path)
        with self._lock:
            count = self._drops.get(key, 0)
            if count >= self.max_faults_per_job:
                return False
            if self._draw("drop", method, path, count) >= self.drop_rate:
                return False
            self._drops[key] = count + 1
        self.log.record("drop-connection", method=method, path=path,
                        occurrence=count + 1)
        return True


class ChaosResultCache(ResultCache):
    """A :class:`ResultCache` whose writes may be torn by chaos.

    After a successful (atomic) ``put``, the monkey may truncate the
    record in place — simulating the torn write the atomic writer
    prevents — so the *next* reader must take the corruption path:
    detect, count, invalidate, recompute.
    """

    def __init__(self, root: str, chaos: ChaosMonkey,
                 salt: Optional[str] = None):
        super().__init__(root, salt=salt)
        self.chaos = chaos

    def put(self, spec: JobSpec, payload: Dict[str, object]) -> None:
        super().put(spec, payload)
        digest = spec.digest()
        if self.chaos.should_corrupt(digest):
            path = self.path_for(digest)
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(1, size // 2))


# -- the differential harness ------------------------------------------

def chaos_smoke_jobs(alus: Sequence[int] = (1, 2),
                     campaign_n: int = 6, campaign_shards: int = 3,
                     seed: int = 1) -> List[JobSpec]:
    """The standard chaos workload: sweep + sharded campaign + bench.

    Quick-size inputs throughout (chaos exercises the *fabric*, not the
    simulator), covering all three result-table shapes the serving
    layer can produce.
    """
    from repro.config import epic_with_alus
    from repro.harness.cli import quick_specs

    sha, dijkstra = quick_specs(["SHA", "Dijkstra"])
    jobs: List[JobSpec] = []
    for n_alus in alus:
        jobs.append(sweep_job(sha, epic_with_alus(n_alus)))
        jobs.append(sweep_job(dijkstra, epic_with_alus(n_alus)))
    whole = campaign_job(sha, epic_with_alus(max(alus)), campaign_n, seed)
    jobs.extend(shard_campaign(whole, campaign_shards))
    jobs.append(bench_job(sha, epic_with_alus(min(alus)), engine="fast"))
    return jobs


def outcome_table(outcomes: Sequence[JobOutcome]) -> str:
    """Canonical byte form of a batch's deterministic results."""
    return json.dumps(
        [{"digest": outcome.spec.digest(), "status": outcome.status,
          "payload": outcome.payload} for outcome in outcomes],
        sort_keys=True, separators=(",", ":"))


def run_chaos_differential(specs: Sequence[JobSpec],
                           cache_root: str,
                           seed: int = 7, jobs: int = 2,
                           kill_rate: float = 0.35,
                           hang_rate: float = 0.2,
                           corrupt_rate: float = 0.5,
                           heartbeat: float = 0.1,
                           watchdog: float = 1.0,
                           timeout: Optional[float] = 120.0,
                           log: Optional[ChaosLog] = None
                           ) -> Dict[str, object]:
    """Prove chaos cannot touch a result table.

    1. Clean baseline: ``SerialExecutor``, no cache.
    2. Warm chaos run: ``SupervisedPool`` with worker kill/hang
       injection and no cache — chaos faults persistent worker
       *incarnations* mid-stream (an incarnation may die with warm
       state covering many served keys) and the fabric must rebuild on
       fresh incarnations without a byte of drift.
    3. Fresh chaos run: ``SupervisedPool(recycle_after=1)`` (a new
       process per job) with the same injection, writing through a
       cache whose records chaos may corrupt.
    4. Replay: same batch again — cache hits except where records were
       corrupted, which must be detected and recomputed.

    All four outcome tables must be byte-identical.  Returns a JSON
    report; raises :class:`~repro.errors.ServeError` if any job fails
    outright.
    """
    specs = list(specs)
    monkey = ChaosMonkey(seed=seed, kill_rate=kill_rate,
                         hang_rate=hang_rate, corrupt_rate=corrupt_rate,
                         max_faults_per_job=1, log=log)
    baseline = SerialExecutor().run(specs)
    raise_for_failures(baseline)

    # Warm leg: same seed => the same (digest, attempt) draws fire, so
    # the exact faults the fresh pool survives also hit warm workers.
    warm_monkey = ChaosMonkey(seed=seed, kill_rate=kill_rate,
                              hang_rate=hang_rate,
                              max_faults_per_job=1, log=monkey.log)
    with SupervisedPool(
            jobs=jobs, timeout=timeout,
            retries=warm_monkey.max_faults_per_job + 1,
            heartbeat=heartbeat, watchdog=watchdog,
            backoff_base=0.01, backoff_cap=0.1,
            term_grace=1.0, chaos=warm_monkey) as warm_pool:
        warm = warm_pool.run(specs)
        raise_for_failures(warm)
        warm_telemetry = warm_pool.telemetry()

    cache = ChaosResultCache(cache_root, monkey)
    with SupervisedPool(
            jobs=jobs, timeout=timeout,
            retries=monkey.max_faults_per_job + 1,
            heartbeat=heartbeat, watchdog=watchdog,
            backoff_base=0.01, backoff_cap=0.1,
            term_grace=1.0, chaos=monkey, recycle_after=1) as pool:
        chaotic = run_jobs(specs, executor=pool, cache=cache)
        raise_for_failures(chaotic)
        replay = run_jobs(specs, executor=pool, cache=cache)
        raise_for_failures(replay)

    tables = {
        "serial": outcome_table(baseline),
        "warm": outcome_table(warm),
        "chaos": outcome_table(chaotic),
        "replay": outcome_table(replay),
    }
    identical = tables["serial"] == tables["warm"] \
        == tables["chaos"] == tables["replay"]
    faulted = sum(1 for outcome in chaotic if outcome.attempts > 1)
    warm_telemetry.pop("workers", None)  # per-incarnation detail
    return {
        "generated_by": "repro.serve.chaos",
        "identical": identical,
        "jobs": len(specs),
        "faulted_jobs": faulted,
        "warm_faulted_jobs": sum(1 for outcome in warm
                                 if outcome.attempts > 1),
        "warm_telemetry": warm_telemetry,
        "replay_hits": sum(1 for outcome in replay if outcome.cached),
        "chaos_seed": seed,
        "chaos_events": monkey.log.counts(),
        "cache": cache.stats.as_dict(),
        "table_bytes": len(tables["serial"]),
        "tables_sha256": {
            name: hashlib.sha256(table.encode()).hexdigest()
            for name, table in tables.items()
        },
    }


def _arm_global_watchdog(max_seconds: float) -> None:
    """Hard wall-clock bound: no chaos scenario may hang the harness."""
    def overrun() -> None:  # pragma: no cover - only fires on a hang
        print(f"repro.serve.chaos: global watchdog fired after "
              f"{max_seconds:g}s — aborting", file=sys.stderr)
        os._exit(3)

    timer = threading.Timer(max_seconds, overrun)
    timer.daemon = True
    timer.start()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.chaos",
        description="Differential chaos campaign: inject worker kills, "
                    "hangs and cache corruption, and require outcome "
                    "tables byte-identical to a clean serial run.",
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="chaos seed (default 7)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="pool workers (default 2)")
    parser.add_argument("--kill-rate", type=float, default=0.35)
    parser.add_argument("--hang-rate", type=float, default=0.2)
    parser.add_argument("--corrupt-rate", type=float, default=0.5)
    parser.add_argument("--alus", nargs="*", type=int, default=[1, 2],
                        help="ALU counts for the sweep/bench legs")
    parser.add_argument("--campaign-n", type=int, default=6,
                        help="injections in the campaign leg")
    parser.add_argument("--shards", type=int, default=3,
                        help="campaign shard count")
    parser.add_argument("--cache", default=None,
                        help="cache root (default: a fresh temp dir)")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--log", help="write the chaos event log here")
    parser.add_argument("--max-seconds", type=float, default=600.0,
                        help="global watchdog bound (default 600)")
    arguments = parser.parse_args(argv)

    _arm_global_watchdog(arguments.max_seconds)
    log = ChaosLog()
    cache_root = arguments.cache
    if cache_root is None:
        import tempfile

        cache_root = tempfile.mkdtemp(prefix="repro-chaos-cache-")
    try:
        specs = chaos_smoke_jobs(alus=tuple(arguments.alus),
                                 campaign_n=arguments.campaign_n,
                                 campaign_shards=arguments.shards)
        report = run_chaos_differential(
            specs, cache_root, seed=arguments.seed, jobs=arguments.jobs,
            kill_rate=arguments.kill_rate, hang_rate=arguments.hang_rate,
            corrupt_rate=arguments.corrupt_rate, log=log)
    except ServeError as error:
        print(f"repro.serve.chaos: {error}", file=sys.stderr)
        if arguments.log:
            log.write(arguments.log)
        return 1
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if arguments.log:
        log.write(arguments.log)
    events = ", ".join(f"{name} x{count}" for name, count
                       in sorted(report["chaos_events"].items())) \
        or "no faults fired"
    print(f"chaos differential over {report['jobs']} job(s): {events}; "
          f"{report['faulted_jobs']} job(s) retried, "
          f"{report['cache']['corrupt']} corrupt record(s) detected")
    if not report["identical"]:
        print("repro.serve.chaos: OUTCOME TABLES DIVERGED under chaos "
              f"(sha256 {report['tables_sha256']})", file=sys.stderr)
        return 1
    print("outcome tables byte-identical: serial == warm == chaos == "
          f"replay (sha256 {report['tables_sha256']['serial'][:16]}...)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
