"""``repro-serve``: run batches of evaluation jobs from the shell.

Subcommands::

    repro-serve batch  --kind sweep --quick --alus 1 2 3 4 --out b.json
    repro-serve run    b.json --jobs 4 --cache .repro-cache --out r.json
    repro-serve warm   b.json --cache .repro-cache --jobs 4
    repro-serve verify b.json --cache .repro-cache
    repro-serve warmgate b.json --jobs 4 --speedup 2  # warm-pool CI gate
    repro-serve daemon --spool .repro-spool          # long-running service
    repro-serve chaos  --seed 7 --out chaos.json     # differential gate

Parallel runs (``--jobs N``, N > 1) execute on the **warm persistent
worker pool** (:class:`~repro.serve.supervisor.SupervisedPool`):
long-lived workers whose compile caches and memoised checkers survive
across jobs, with affinity routing.  ``--fresh-workers`` is spelled
``recycle_after=1`` on the pool: every job runs on a new process.
``warmgate`` runs one batch serial, fresh and warm, requires all three
outcome tables byte-identical and (optionally) a minimum warm-vs-fresh
speedup — the CI gate for the warm fabric.

``batch`` writes a batch file describing one job per (benchmark,
machine) cell — sweep evaluations, fault campaigns or multi-engine
bench cells.  ``run`` executes a batch (optionally in parallel and/or
against a result cache) and writes a report with per-job outcomes,
throughput, and cache statistics.  ``warm`` is ``run`` whose sole
purpose is filling the cache.  ``verify`` recomputes every job fresh
and diffs the payloads against the cache — the cache's own lockstep
checker.

A repeated ``run`` against a warm cache reports a 100% hit rate; the
report's deterministic content is byte-identical to the cold run's.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter
from typing import List, Optional

from repro.config import epic_with_alus
from repro.errors import ReproError
from repro.harness.tables import BENCHMARK_ORDER
from repro.serve.cache import ResultCache
from repro.serve.executors import (
    JOB_STATUSES,
    SerialExecutor,
    run_jobs,
)
from repro.serve.supervisor import SupervisedPool
from repro.serve.jobspec import (
    KIND_BENCH,
    KIND_CAMPAIGN,
    KIND_SWEEP,
    JobSpec,
    bench_job,
    campaign_job,
    dump_batch,
    load_batch,
    shard_campaign,
    sweep_job,
)
from repro.workloads import WORKLOADS


def _specs_for(names: List[str], quick: bool):
    if quick:
        from repro.harness.cli import quick_specs

        return quick_specs(names)
    return [WORKLOADS[name]() for name in names]


def _build_executor(jobs: int, timeout: Optional[float], retries: int,
                    fresh: bool = False):
    """Parallel runs use the warm persistent pool; ``fresh`` recycles
    every worker after one job."""
    if jobs > 1:
        return SupervisedPool(jobs=jobs, timeout=timeout,
                              retries=retries,
                              recycle_after=1 if fresh else None)
    return SerialExecutor()


def _close_executor(executor) -> None:
    close = getattr(executor, "close", None)
    if callable(close):
        close()


def _batch_command(arguments) -> int:
    specs = _specs_for(arguments.bench, arguments.quick)
    jobs: List[JobSpec] = []
    for spec in specs:
        for n_alus in arguments.alus:
            config = epic_with_alus(n_alus)
            if arguments.kind == KIND_SWEEP:
                jobs.append(sweep_job(spec, config))
            elif arguments.kind == KIND_BENCH:
                jobs.append(bench_job(spec, config))
            else:
                whole = campaign_job(spec, config, arguments.n,
                                     arguments.seed)
                if arguments.shards > 1:
                    jobs.extend(shard_campaign(whole, arguments.shards))
                else:
                    jobs.append(whole)
    dump_batch(jobs, arguments.out)
    print(f"wrote {len(jobs)} {arguments.kind} job(s) to {arguments.out}")
    return 0


def _report(outcomes, wall_seconds: float, cache) -> dict:
    counts = {status: 0 for status in JOB_STATUSES}
    cached = 0
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
        if outcome.cached:
            cached += 1
    report = {
        "generated_by": "repro-serve",
        "jobs": [outcome.summary() for outcome in outcomes],
        "summary": {
            "total": len(outcomes),
            **counts,
            "cached": cached,
            "wall_seconds": round(wall_seconds, 6),
            "jobs_per_second": (
                round(len(outcomes) / wall_seconds, 3)
                if wall_seconds > 0 else 0.0
            ),
        },
    }
    if cache is not None:
        report["cache"] = cache.stats.as_dict()
    return report


def _run_command(arguments, warm_only: bool = False) -> int:
    specs = load_batch(arguments.batch)
    cache = ResultCache(arguments.cache) if arguments.cache else None
    executor = _build_executor(arguments.jobs, arguments.timeout,
                               arguments.retries,
                               fresh=arguments.fresh_workers)

    done = [0]

    def on_result(outcome) -> None:
        done[0] += 1
        if arguments.verbose:
            origin = "cache" if outcome.cached else \
                f"{outcome.seconds:.3f}s"
            print(f"  [{done[0]}/{len(specs)}] {outcome.spec.job_id}: "
                  f"{outcome.status} ({origin})", file=sys.stderr)

    started = perf_counter()
    try:
        outcomes = run_jobs(specs, executor=executor, cache=cache,
                            on_result=on_result)
    finally:
        _close_executor(executor)
    wall = perf_counter() - started
    report = _report(outcomes, wall, cache)
    telemetry = getattr(executor, "telemetry", None)
    if callable(telemetry):
        report["warm_pool"] = telemetry()
    if getattr(arguments, "telemetry_out", None):
        with open(arguments.telemetry_out, "w",
                  encoding="utf-8") as handle:
            json.dump(report.get("warm_pool", {}), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")

    if getattr(arguments, "out", None):
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")

    summary = report["summary"]
    verb = "warmed" if warm_only else "ran"
    line = (f"{verb} {summary['total']} job(s) in "
            f"{summary['wall_seconds']:.3f}s "
            f"({summary['jobs_per_second']:.2f} jobs/s; "
            f"{summary['ok']} ok, {summary['cached']} from cache")
    failures = (summary["error"] + summary["timeout"]
                + summary["crashed"] + summary["poisoned"])
    if failures:
        line += (f", {summary['error']} error, {summary['timeout']} "
                 f"timeout, {summary['crashed']} crashed, "
                 f"{summary['poisoned']} poisoned")
    line += ")"
    print(line)
    if cache is not None:
        stats = cache.stats
        print(f"cache: {stats.hits} hit(s), {stats.misses} miss(es), "
              f"{stats.puts} write(s), {stats.invalidations} "
              f"invalidation(s) — hit rate "
              f"{stats.hit_rate * 100:.1f}%")
    if arguments.json:
        print(json.dumps(report, indent=2))
    return 1 if failures else 0


def _verify_command(arguments) -> int:
    specs = load_batch(arguments.batch)
    cache = ResultCache(arguments.cache)
    executor = _build_executor(arguments.jobs, arguments.timeout,
                               arguments.retries,
                               fresh=arguments.fresh_workers)
    # Recompute everything fresh (no cache on the run), then diff
    # against what the cache claims.
    try:
        outcomes = run_jobs(specs, executor=executor, cache=None)
    finally:
        _close_executor(executor)
    missing: List[str] = []
    stale: List[str] = []
    verified = 0
    for outcome in outcomes:
        if not outcome.ok:
            print(f"repro-serve: cannot verify {outcome.spec.job_id}: "
                  f"job {outcome.status}: {outcome.error}",
                  file=sys.stderr)
            return 1
        cached = cache.get(outcome.spec)
        if cached is None:
            missing.append(outcome.spec.job_id)
        elif cached != outcome.payload:
            stale.append(outcome.spec.job_id)
        else:
            verified += 1
    print(f"verified {verified}/{len(outcomes)} cached result(s); "
          f"{len(missing)} missing, {len(stale)} stale")
    for job_id in missing:
        print(f"  missing: {job_id}", file=sys.stderr)
    for job_id in stale:
        print(f"  STALE: {job_id} — cached payload differs from a "
              "fresh run", file=sys.stderr)
    return 1 if stale else 0


def _warmgate_command(arguments) -> int:
    """CI gate: prove the warm pool is faster than the fresh pool on
    the same batch *and* byte-identical to the serial executor."""
    from repro.serve.chaos import outcome_table

    specs = load_batch(arguments.batch)

    # Pool legs run BEFORE the serial leg: on fork-start platforms a
    # worker inherits every in-process memo (checker, compile caches)
    # its parent has populated, so executing any job in this process
    # first would hand the fresh pool pre-warmed children and erase
    # the very cost the gate measures.
    with SupervisedPool(jobs=arguments.jobs,
                        timeout=arguments.timeout,
                        retries=arguments.retries,
                        recycle_after=1) as fresh_pool:
        started = perf_counter()
        fresh_outcomes = fresh_pool.run(specs)
        fresh_wall = perf_counter() - started

    with SupervisedPool(jobs=arguments.jobs,
                        timeout=arguments.timeout,
                        retries=arguments.retries,
                        recycle_after=arguments.recycle_after or None
                        ) as warm_pool:
        started = perf_counter()
        warm_outcomes = warm_pool.run(specs)
        warm_wall = perf_counter() - started
        telemetry = warm_pool.telemetry()

    started = perf_counter()
    serial_outcomes = SerialExecutor().run(specs)
    serial_wall = perf_counter() - started

    tables = {
        "serial": outcome_table(serial_outcomes),
        "fresh": outcome_table(fresh_outcomes),
        "warm": outcome_table(warm_outcomes),
    }
    identical = tables["serial"] == tables["fresh"] == tables["warm"]
    speedup = fresh_wall / warm_wall if warm_wall > 0 else float("inf")
    report = {
        "generated_by": "repro-serve warmgate",
        "jobs": len(specs),
        "workers": arguments.jobs,
        "identical": identical,
        "serial_wall_seconds": round(serial_wall, 6),
        "fresh_wall_seconds": round(fresh_wall, 6),
        "warm_wall_seconds": round(warm_wall, 6),
        "warm_vs_fresh_speedup": round(speedup, 3),
        "required_speedup": arguments.speedup,
        "warm_pool": telemetry,
    }
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"warmgate over {len(specs)} job(s) x {arguments.jobs} "
          f"worker(s): serial {serial_wall:.3f}s, fresh "
          f"{fresh_wall:.3f}s, warm {warm_wall:.3f}s "
          f"({speedup:.2f}x warm-vs-fresh; reuse rate "
          f"{telemetry['worker_reuse_rate'] * 100:.0f}%, affinity hit "
          f"rate {telemetry['affinity_hit_rate'] * 100:.0f}%)")
    if not identical:
        print("repro-serve warmgate: OUTCOME TABLES DIVERGED "
              "(serial vs fresh vs warm)", file=sys.stderr)
        return 1
    print("outcome tables byte-identical: serial == fresh == warm")
    if arguments.speedup and speedup < arguments.speedup:
        print(f"repro-serve warmgate: warm pool only {speedup:.2f}x "
              f"over fresh (required {arguments.speedup:g}x)",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Dispatch the pass-through subcommands before argparse sees the
    # tail: REMAINDER cannot capture option-like tokens ("--seed")
    # reliably, and these tools own their full argument surface.
    if argv[:1] == ["daemon"]:
        from repro.serve.daemon import main as daemon_main

        return daemon_main(argv[1:])
    if argv[:1] == ["chaos"]:
        from repro.serve.chaos import main as chaos_main

        return chaos_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Run batches of evaluation jobs through the "
                    "parallel executor and result cache.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    batch = commands.add_parser(
        "batch", help="write a batch file of jobs")
    batch.add_argument("--kind", default=KIND_SWEEP,
                       choices=(KIND_SWEEP, KIND_CAMPAIGN, KIND_BENCH),
                       help="job kind (default sweep)")
    batch.add_argument("--bench", nargs="*", default=list(BENCHMARK_ORDER),
                       choices=list(BENCHMARK_ORDER),
                       help="benchmarks to cover")
    batch.add_argument("--alus", nargs="*", type=int, default=[1, 2, 3, 4],
                       help="ALU counts (machine presets)")
    batch.add_argument("--quick", action="store_true",
                       help="use reduced benchmark input sizes")
    batch.add_argument("--n", type=int, default=50,
                       help="injections per campaign job")
    batch.add_argument("--seed", type=int, default=42,
                       help="campaign seed")
    batch.add_argument("--shards", type=int, default=1,
                       help="split each campaign into this many "
                            "fault-slice jobs")
    batch.add_argument("--out", required=True, help="batch file to write")

    def add_run_arguments(sub, needs_cache: bool) -> None:
        sub.add_argument("batch", help="batch file of jobs to run")
        sub.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (default: serial)")
        sub.add_argument("--cache", required=needs_cache,
                         help="result-cache directory")
        sub.add_argument("--timeout", type=float, default=None,
                         help="per-job timeout in seconds")
        sub.add_argument("--retries", type=int, default=1,
                         help="retries after a worker crash (default 1)")
        sub.add_argument("--fresh-workers", action="store_true",
                         help="recycle each pool worker after one job "
                              "(a fresh process per job)")
        sub.add_argument("--verbose", action="store_true",
                         help="print one line per finished job")

    run = commands.add_parser(
        "run", help="execute a batch, optionally cached/parallel")
    add_run_arguments(run, needs_cache=False)
    run.add_argument("--out", help="write the JSON report here")
    run.add_argument("--json", action="store_true",
                     help="also print the JSON report to stdout")
    run.add_argument("--telemetry-out",
                     help="write warm-pool telemetry JSON here")

    warm = commands.add_parser(
        "warm", help="execute a batch purely to fill the cache")
    add_run_arguments(warm, needs_cache=True)

    verify = commands.add_parser(
        "verify", help="recompute a batch and diff against the cache")
    add_run_arguments(verify, needs_cache=True)

    warmgate = commands.add_parser(
        "warmgate",
        help="gate: warm pool >= Nx over fresh pool, byte-identical "
             "to serial")
    warmgate.add_argument("batch", help="batch file of jobs to run")
    warmgate.add_argument("--jobs", type=int, default=2, metavar="N",
                          help="worker processes (default 2)")
    warmgate.add_argument("--timeout", type=float, default=None,
                          help="per-job timeout in seconds")
    warmgate.add_argument("--retries", type=int, default=1,
                          help="retries after a worker crash")
    warmgate.add_argument("--recycle-after", type=int, default=0,
                          help="warm-worker recycle bound (0: none)")
    warmgate.add_argument("--speedup", type=float, default=0.0,
                          help="minimum warm-vs-fresh speedup to pass "
                               "(0 disables the perf gate)")
    warmgate.add_argument("--out",
                          help="write the JSON gate report here")

    # Registered for `repro-serve --help` only; dispatched above.
    commands.add_parser(
        "daemon", add_help=False,
        help="run the long-running job service "
             "(see python -m repro.serve.daemon --help)")
    commands.add_parser(
        "chaos", add_help=False,
        help="run the differential chaos campaign "
             "(see python -m repro.serve.chaos --help)")

    arguments = parser.parse_args(argv)
    if getattr(arguments, "jobs", 1) < 1:
        print("repro-serve: --jobs must be >= 1", file=sys.stderr)
        return 2

    try:
        if arguments.command == "batch":
            return _batch_command(arguments)
        if arguments.command == "run":
            return _run_command(arguments)
        if arguments.command == "warm":
            arguments.json = False
            arguments.out = None
            return _run_command(arguments, warm_only=True)
        if arguments.command == "warmgate":
            return _warmgate_command(arguments)
        return _verify_command(arguments)
    except ReproError as error:
        print(f"repro-serve: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
