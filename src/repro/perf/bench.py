"""``repro-bench``: host-performance benchmark of the simulator paths.

Runs the paper's Table-1 sweep (four workloads x EPIC ALU presets) on
the execution engines — the instrumented reference loop, the
pre-specialised fast path, and the profile-guided trace engine — and
for every cell:

* asserts the engines produced bit-identical cycle counts and
  statistics (the cycle-exactness guarantee, re-checked on every
  benchmarking run, not just in the test suite),
* validates the architectural outputs of every run against the
  workload's golden reference, and
* records wall-clock timings per phase (compile, specialise,
  trace-compile, simulate) plus each engine's
  simulated-kcycles-per-host-second rate.

The trace engine is a JIT: its ``simulate-trace`` timing is taken on a
second, warm run (the warm-up run that compiles the hot superblocks is
reported separately as ``trace_compile_seconds``), mirroring how
``specialise`` is split out for the fast path.  ``cold_seconds`` adds
up what a cell pays before its first warm run — compile, specialise
and trace warm-up — and the summary totals it as
``total_cold_seconds``.

The resulting JSON (``BENCH_table1.json`` by default) is the artifact
behind the "fast path is at least 2x" claim; ``--check`` compares the
simulated cycle counts against a checked-in golden file so CI catches
timing-model drift, and ``--gate-trace-speedup`` turns the
trace-vs-fast ratio into a hard pass/fail criterion.

Examples::

    repro-bench                          # full sweep -> BENCH_table1.json
    repro-bench --quick --out BENCH_quick.json
    repro-bench --quick --check benchmarks/golden_bench_quick.json
    repro-bench --engine all --gate-trace-speedup 1.5
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.backend import compile_minic_to_epic
from repro.config import epic_with_alus
from repro.core import EpicProcessor
from repro.core.stats import SimStats
from repro.core.tracejit import TraceCache
from repro.errors import ReproError, SimulationError
from repro.harness.cli import quick_specs
from repro.harness.runner import check_outputs
from repro.harness.tables import BENCHMARK_ORDER
from repro.perf.timers import PhaseTimer, kcycles_per_second
from repro.workloads import WORKLOADS, WorkloadSpec

#: File the full sweep writes (the repo-root benchmarking artifact).
DEFAULT_OUT = "BENCH_table1.json"

#: Engines a bench cell can run, in reporting order.
BENCH_ENGINES = ("reference", "fast", "trace")


def stats_fingerprint(stats: SimStats) -> Dict[str, object]:
    """Every counter the two engines must agree on, as a dict."""
    return {
        "cycles": stats.cycles,
        "bundles": stats.bundles,
        "ops_executed": stats.ops_executed,
        "ops_squashed": stats.ops_squashed,
        "nops": stats.nops,
        "branches": stats.branches,
        "branches_taken": stats.branches_taken,
        "memory_reads": stats.memory_reads,
        "memory_writes": stats.memory_writes,
        "port_stall_cycles": stats.port_stall_cycles,
        "fetch_stall_cycles": stats.fetch_stall_cycles,
        "branch_bubble_cycles": stats.branch_bubble_cycles,
        "regfile_reads": stats.regfile_reads,
        "regfile_reads_forwarded": stats.regfile_reads_forwarded,
        "regfile_writes": stats.regfile_writes,
        "traps": stats.traps,
        "fu_busy": dict(sorted(stats.fu_busy.items())),
    }


def _validated(spec: WorkloadSpec, machine_name: str, cpu: EpicProcessor,
               symbols: Dict[str, int]) -> None:
    def read_global(name: str, count: int) -> List[int]:
        base = symbols[name]
        return [cpu.memory.read(base + i) for i in range(count)]

    check_outputs(spec.name, machine_name, spec, read_global,
                  cpu.gpr.read(2))


class CompileCache:
    """Memoises MiniC→EPIC compilation per (workload, config) pair.

    Both engines of a bench cell — and any repeat of the same cell in
    one sweep — share a single compilation.  ``compiles``/``hits``
    are the accounting the tests assert on: every distinct (workload
    instance, config digest) pair must compile exactly once.
    """

    def __init__(self) -> None:
        self._store: Dict[tuple, object] = {}
        self._trace_caches: Dict[tuple, TraceCache] = {}
        self.compiles = 0
        self.hits = 0

    def get(self, spec: WorkloadSpec, config) -> object:
        key = (spec.name, tuple(spec.instance_args), config.digest())
        compilation = self._store.get(key)
        if compilation is None:
            compilation = compile_minic_to_epic(spec.source, config)
            self._store[key] = compilation
            self.compiles += 1
        else:
            self.hits += 1
        return compilation

    def trace_cache(self, spec: WorkloadSpec, config) -> TraceCache:
        """The per-(workload, config) superblock cache for trace cells.

        Repeated cells — and the warm-up/timed run pair inside one cell
        — share compiled traces the same way they share a compilation.
        """
        key = (spec.name, tuple(spec.instance_args), config.digest())
        cache = self._trace_caches.get(key)
        if cache is None:
            cache = self._trace_caches[key] = TraceCache()
        return cache

    def stats(self) -> Dict[str, int]:
        return {"compiles": self.compiles, "hits": self.hits,
                "pairs": len(self._store)}

    def trace_stats(self) -> Dict[str, int]:
        """Aggregated :meth:`TraceCache.stats` across all pairs."""
        totals = {"traces": 0, "compiles": 0, "hits": 0}
        for cache in self._trace_caches.values():
            for key, value in cache.stats().items():
                totals[key] += value
        return totals


def _engine_guard(spec: WorkloadSpec, machine_name: str,
                  cpu: EpicProcessor, expected: str) -> None:
    """Warn when the engine that actually ran is not the one asked for.

    ``EpicProcessor.run`` records ``last_engine``; a mismatch means the
    cell's timing column is mislabelled (e.g. a silent fallback), which
    must never pass unnoticed in a benchmarking artifact.
    """
    if cpu.last_engine != expected:
        warnings.warn(
            f"{spec.name} on {machine_name}: requested the {expected} "
            f"engine but {cpu.last_engine!r} ran — timings mislabelled",
            RuntimeWarning,
            stacklevel=2,
        )


def bench_cell(spec: WorkloadSpec, n_alus: int,
               max_cycles: int = 200_000_000,
               compile_cache: Optional[CompileCache] = None,
               engines: Sequence[str] = BENCH_ENGINES
               ) -> Dict[str, object]:
    """Benchmark one (workload, EPIC preset) cell on ``engines``.

    Every engine that runs is validated against the workload's golden
    outputs, and all engines that ran are cross-checked for the
    bit-identical cycles/statistics contract.  Timing fields of engines
    that were not selected come back as ``None``.
    """
    for engine in engines:
        if engine not in BENCH_ENGINES:
            raise SimulationError(
                f"unknown bench engine {engine!r}: expected a subset of "
                f"{', '.join(BENCH_ENGINES)}"
            )
    config = epic_with_alus(n_alus)
    machine_name = f"EPIC-{n_alus}ALU"
    timer = PhaseTimer()

    with timer.phase("compile"):
        if compile_cache is not None:
            compilation = compile_cache.get(spec, config)
        else:
            compilation = compile_minic_to_epic(spec.source, config)

    results: Dict[str, object] = {}
    prints: Dict[str, Dict[str, object]] = {}
    ilp = None

    if "reference" in engines:
        slow = EpicProcessor(config, compilation.program,
                             mem_words=spec.mem_words)
        with timer.phase("simulate-reference"):
            results["reference"] = slow.run(
                max_cycles=max_cycles, engine="reference")
        _engine_guard(spec, machine_name, slow, "reference")
        _validated(spec, machine_name, slow, compilation.symbols)
        prints["reference"] = stats_fingerprint(slow.stats)
        ilp = slow.stats.ilp

    if "fast" in engines:
        fast = EpicProcessor(config, compilation.program,
                             mem_words=spec.mem_words)
        with timer.phase("specialise"):
            engine = fast._fast_sim()
        if engine is None:
            raise SimulationError(
                f"{spec.name} on {machine_name}: compiled program is not "
                "eligible for the fast path (specialiser rejected it)"
            )
        with timer.phase("simulate-fast"):
            results["fast"] = fast.run(max_cycles=max_cycles, engine="fast")
        _engine_guard(spec, machine_name, fast, "fast")
        _validated(spec, machine_name, fast, compilation.symbols)
        prints["fast"] = stats_fingerprint(fast.stats)
        if ilp is None:
            ilp = fast.stats.ilp

    if "trace" in engines:
        if compile_cache is not None:
            trace_cache = compile_cache.trace_cache(spec, config)
        else:
            trace_cache = TraceCache()
        # Warm-up runs: profile the hot paths and compile superblocks
        # into the shared cache.  A warm start shifts which branches
        # the profiler observes (trace linking discovers side-exit
        # continuations chain by chain), so one run's trace set need
        # not be a fixpoint — iterate until the cache stops growing,
        # keeping the timed run below free of compilation.  Validated
        # like any other run: JIT warm-up is not exempt from the
        # correctness contract.
        with timer.phase("trace-compile"):
            for _ in range(8):
                known = trace_cache.stats()["traces"]
                warm = EpicProcessor(config, compilation.program,
                                     mem_words=spec.mem_words,
                                     trace_cache=trace_cache)
                if warm._trace_sim() is None:
                    raise SimulationError(
                        f"{spec.name} on {machine_name}: compiled program "
                        "is not eligible for the trace engine "
                        "(specialiser rejected it)"
                    )
                warm.run(max_cycles=max_cycles, engine="trace")
                if trace_cache.stats()["traces"] == known:
                    break
        _validated(spec, machine_name, warm, compilation.symbols)
        tracer = EpicProcessor(config, compilation.program,
                               mem_words=spec.mem_words,
                               trace_cache=trace_cache)
        with timer.phase("trace-compile"):
            tracer._trace_sim()  # engine construction stays untimed
        with timer.phase("simulate-trace"):
            results["trace"] = tracer.run(
                max_cycles=max_cycles, engine="trace")
        _engine_guard(spec, machine_name, tracer, "trace")
        _validated(spec, machine_name, tracer, compilation.symbols)
        prints["trace"] = stats_fingerprint(tracer.stats)
        if ilp is None:
            ilp = tracer.stats.ilp

    ran = [name for name in BENCH_ENGINES if name in prints]
    reference_engine = ran[0]
    reference_print = prints[reference_engine]
    for name in ran[1:]:
        if prints[name] != reference_print:
            raise SimulationError(
                f"{spec.name} on {machine_name}: {name} engine diverged "
                f"from the {reference_engine} engine (cycles "
                f"{prints[name]['cycles']} vs {reference_print['cycles']}) "
                "— cycle-exactness violation"
            )

    cycles = results[reference_engine].cycles
    seconds = timer.seconds
    slow_s = seconds.get("simulate-reference")
    fast_s = seconds.get("simulate-fast")
    trace_s = seconds.get("simulate-trace")

    def ratio(numerator, denominator):
        if numerator is None or denominator is None:
            return None
        return (numerator / denominator) if denominator > 0.0 else 0.0

    def rate(elapsed):
        if elapsed is None:
            return None
        return round(kcycles_per_second(cycles, elapsed), 1)

    cold_s = sum(seconds.get(phase) or 0.0
                 for phase in ("compile", "specialise", "trace-compile"))

    return {
        "benchmark": spec.name,
        "machine": machine_name,
        "cycles": cycles,
        "ilp": round(ilp, 4),
        "fingerprint": reference_print,
        "compile_seconds": seconds["compile"],
        "specialise_seconds": seconds.get("specialise"),
        "trace_compile_seconds": seconds.get("trace-compile"),
        "cold_seconds": cold_s,
        "reference_seconds": slow_s,
        "fast_seconds": fast_s,
        "trace_seconds": trace_s,
        "speedup": ratio(slow_s, fast_s),
        "trace_speedup": ratio(slow_s, trace_s),
        "trace_vs_fast_speedup": ratio(fast_s, trace_s),
        "fast_kcycles_per_host_second": rate(fast_s),
        "reference_kcycles_per_host_second": rate(slow_s),
        "trace_kcycles_per_host_second": rate(trace_s),
    }


#: Per-cell timing fields measured on the host (never cached, never
#: part of the determinism contract).
TIMING_FIELDS = (
    "compile_seconds", "specialise_seconds", "trace_compile_seconds",
    "cold_seconds", "reference_seconds", "fast_seconds", "trace_seconds",
    "speedup", "trace_speedup", "trace_vs_fast_speedup",
    "fast_kcycles_per_host_second",
    "reference_kcycles_per_host_second",
    "trace_kcycles_per_host_second",
)


def _job_engine(engines: Sequence[str]) -> str:
    """The :class:`~repro.serve.jobspec.JobSpec` engine naming a set."""
    selected = tuple(name for name in BENCH_ENGINES if name in engines)
    if selected == BENCH_ENGINES:
        return "all"
    if len(selected) == 1:
        return selected[0]
    raise SimulationError(
        f"engine selection {selected!r} has no served spelling: use a "
        "single engine or all three"
    )


def run_bench(specs: Sequence[WorkloadSpec],
              alu_counts: Iterable[int] = (1, 2, 3, 4),
              quick: bool = False,
              max_cycles: int = 200_000_000,
              progress: Optional[Callable[[str], None]] = None,
              on_cell: Optional[Callable[[Dict[str, object]], None]] = None,
              executor=None,
              engines: Sequence[str] = BENCH_ENGINES) -> Dict[str, object]:
    """Run the sweep; returns the JSON-serialisable report payload.

    Compilation is hoisted into a :class:`CompileCache`: each distinct
    (workload, configuration) pair compiles exactly once per process no
    matter how many engines or repeated cells consume it; the counts
    appear under ``summary.compile_cache``.

    ``on_cell`` fires with each finished cell's record (completion
    order under a parallel ``executor``).  With an ``executor`` the
    cells fan out through :mod:`repro.serve`; the deterministic part of
    the report (see :func:`deterministic_report`) is byte-identical to
    a serial run's, while the timing fields are measured inside each
    worker.
    """
    alu_counts = list(alu_counts)
    cells = [(spec, n_alus) for spec in specs for n_alus in alu_counts]
    started = perf_counter()
    compile_cache = CompileCache()

    if executor is None:
        runs: List[Dict[str, object]] = []
        for spec, n_alus in cells:
            if progress:
                progress(f"{spec.name} on EPIC-{n_alus}ALU ...")
            cell = bench_cell(spec, n_alus, max_cycles=max_cycles,
                              compile_cache=compile_cache, engines=engines)
            runs.append(cell)
            if on_cell is not None:
                on_cell(cell)
    else:
        from repro.config import epic_with_alus as _preset
        from repro.serve import bench_job, raise_for_failures, run_jobs

        job_engine = _job_engine(engines)
        jobs = [bench_job(spec, _preset(n_alus), max_cycles=max_cycles,
                          engine=job_engine)
                for spec, n_alus in cells]

        def rebuild(outcome) -> Dict[str, object]:
            cell: Dict[str, object] = dict(outcome.payload)
            meta = outcome.meta or {}
            for field in TIMING_FIELDS:
                cell[field] = meta.get(field)
            return cell

        def handle(outcome) -> None:
            if not outcome.ok:
                return
            cell = rebuild(outcome)
            if progress:
                progress(f"{cell['benchmark']} on {cell['machine']} done")
            if on_cell is not None:
                on_cell(cell)

        job_outcomes = run_jobs(jobs, executor=executor, on_result=handle)
        raise_for_failures(job_outcomes)
        runs = [rebuild(outcome) for outcome in job_outcomes]

    def _geomean(values: List[float]) -> float:
        product = 1.0
        for value in values:
            product *= value
        return product ** (1.0 / len(values)) if values else 1.0

    timed = [run for run in runs
             if run.get("fast_seconds") is not None
             and run.get("reference_seconds") is not None]
    total_slow = sum(run["reference_seconds"] for run in timed)
    total_fast = sum(run["fast_seconds"] for run in timed)
    speedups = [run["speedup"] for run in timed]
    traced = [run for run in runs
              if run.get("trace_seconds") is not None
              and run.get("fast_seconds") is not None]
    total_trace = sum(run["trace_seconds"] for run in traced)
    total_fast_traced = sum(run["fast_seconds"] for run in traced)
    trace_ratios = [run["trace_vs_fast_speedup"] for run in traced]
    total_cold = sum(run["cold_seconds"] for run in runs
                     if run.get("cold_seconds") is not None)
    return {
        "generated_by": "repro-bench",
        "quick": quick,
        "alus": alu_counts,
        "benchmarks": [spec.name for spec in specs],
        "engines": [name for name in BENCH_ENGINES if name in engines],
        "runs": runs,
        "summary": {
            "total_reference_seconds": total_slow,
            "total_fast_seconds": total_fast,
            "total_trace_seconds": total_trace,
            "total_cold_seconds": total_cold,
            "overall_speedup":
                (total_slow / total_fast) if total_fast > 0.0 else 0.0,
            "min_speedup": min(speedups) if speedups else 0.0,
            "geomean_speedup": _geomean(speedups),
            "overall_trace_vs_fast_speedup":
                (total_fast_traced / total_trace)
                if total_trace > 0.0 else 0.0,
            "min_trace_vs_fast_speedup":
                min(trace_ratios) if trace_ratios else 0.0,
            "geomean_trace_vs_fast_speedup": _geomean(trace_ratios),
            "wall_seconds": perf_counter() - started,
            "compile_cache": compile_cache.stats(),
            "trace_cache": compile_cache.trace_stats(),
        },
    }


def deterministic_report(payload: Dict[str, object]) -> Dict[str, object]:
    """The scheduling-independent projection of a bench report.

    Exactly the fields the determinism contract covers — simulated
    cycles, ILP and the full statistics fingerprint per cell — sorted
    by cell name.  Serial, parallel and cache-replayed runs of the same
    sweep must produce byte-identical renderings of this projection;
    host timings are deliberately excluded.
    """
    cells = {
        f"{run['benchmark']}/{run['machine']}": {
            "cycles": run["cycles"],
            "ilp": run["ilp"],
            "fingerprint": run["fingerprint"],
        }
        for run in payload["runs"]
    }
    return {
        "quick": bool(payload.get("quick")),
        "cells": {name: cells[name] for name in sorted(cells)},
    }


def cycles_by_cell(payload: Dict[str, object]) -> Dict[str, int]:
    """``"SHA/EPIC-1ALU" -> cycles`` map of a report payload."""
    return {
        f"{run['benchmark']}/{run['machine']}": run["cycles"]
        for run in payload["runs"]
    }


def check_against_golden(payload: Dict[str, object],
                         golden: Dict[str, object]) -> List[str]:
    """Simulated-cycle drift between a report and a golden file.

    Returns human-readable drift descriptions (empty == clean).  Only
    cells present in both are compared, so a golden file for a subset
    of benchmarks also guards a superset run.

    A golden file that records its input sizes (a ``"quick"`` key) is
    only compared against a run of the same size: cell names carry the
    benchmark and machine but not the workload size, so a quick golden
    checked against a full-size sweep would mis-report every cell as
    drifted when nothing but the input size differs.
    """
    if "quick" in golden and bool(golden["quick"]) != bool(
            payload.get("quick")):
        want = "quick" if golden["quick"] else "full-size"
        got = "quick" if payload.get("quick") else "full-size"
        return [
            f"golden file records a {want} sweep but this run is {got}: "
            "cycle counts are not comparable (re-run with matching "
            "input sizes)"
        ]
    measured = cycles_by_cell(payload)
    expected = golden["cycles"] if "cycles" in golden \
        else cycles_by_cell(golden)
    problems = []
    for cell, cycles in sorted(expected.items()):
        if cell not in measured:
            problems.append(f"{cell}: missing from this run")
        elif measured[cell] != cycles:
            problems.append(
                f"{cell}: {measured[cell]} cycles, golden says {cycles}"
            )
    return problems


def _column(value, width: int, suffix: str = "") -> str:
    if value is None:
        return f"{'-':>{width}}"
    return f"{value:>{width - len(suffix)}.2f}{suffix}" if suffix \
        else f"{value:>{width}.1f}"


def render_report(payload: Dict[str, object]) -> str:
    header = (
        f"{'benchmark':<10} {'machine':<11} {'cycles':>10} "
        f"{'ref ms':>9} {'fast ms':>9} {'trace ms':>9} "
        f"{'speedup':>8} {'tr/fast':>8} {'kcyc/s':>9}"
    )
    lines = [header]
    for run in payload["runs"]:
        timings = ("reference_seconds", "fast_seconds", "trace_seconds")
        if all(run.get(field) is None for field in timings):
            lines.append(
                f"{run['benchmark']:<10} {run['machine']:<11} "
                f"{run['cycles']:>10} {'(cached — no timings)':>38}"
            )
            continue
        milliseconds = [
            None if run.get(field) is None else run[field] * 1e3
            for field in timings
        ]
        rate = run.get("trace_kcycles_per_host_second")
        if rate is None:
            rate = run.get("fast_kcycles_per_host_second")
        if rate is None:
            rate = run.get("reference_kcycles_per_host_second")
        lines.append(
            f"{run['benchmark']:<10} {run['machine']:<11} "
            f"{run['cycles']:>10} "
            f"{_column(milliseconds[0], 9)} "
            f"{_column(milliseconds[1], 9)} "
            f"{_column(milliseconds[2], 9)} "
            f"{_column(run.get('speedup'), 8, 'x')} "
            f"{_column(run.get('trace_vs_fast_speedup'), 8, 'x')} "
            f"{_column(rate, 9)}"
        )
    summary = payload["summary"]
    lines.append(
        f"overall speedup {summary['overall_speedup']:.2f}x "
        f"(min {summary['min_speedup']:.2f}x, "
        f"geomean {summary['geomean_speedup']:.2f}x)"
    )
    if summary.get("total_trace_seconds"):
        lines.append(
            "trace vs fast "
            f"{summary['overall_trace_vs_fast_speedup']:.2f}x "
            f"(min {summary['min_trace_vs_fast_speedup']:.2f}x, "
            f"geomean {summary['geomean_trace_vs_fast_speedup']:.2f}x)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the fast simulator path against the "
                    "instrumented reference on the Table-1 sweep.",
    )
    parser.add_argument("--bench", nargs="*", default=list(BENCHMARK_ORDER),
                        choices=list(BENCHMARK_ORDER),
                        help="benchmarks to run")
    parser.add_argument("--alus", nargs="*", type=int, default=[1, 2, 3, 4],
                        help="ALU counts to evaluate")
    parser.add_argument("--quick", action="store_true",
                        help="use reduced input sizes")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--check", metavar="GOLDEN",
                        help="fail if simulated cycle counts drift from "
                             "this golden JSON file")
    parser.add_argument("--engine",
                        choices=["reference", "fast", "trace", "all"],
                        default="all",
                        help="execution engines to benchmark "
                             "(default: all)")
    parser.add_argument("--gate-trace-speedup", type=float, metavar="X",
                        help="fail unless the trace engine is at least "
                             "X times faster than the fast path on "
                             "every cell")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan cells out over N worker processes "
                             "via repro.serve (default: serial)")
    parser.add_argument("--verbose", action="store_true",
                        help="print a result line for every finished "
                             "cell (cycles + speedup)")
    arguments = parser.parse_args(argv)

    if arguments.jobs < 1:
        print("repro-bench: --jobs must be >= 1", file=sys.stderr)
        return 2

    engines = BENCH_ENGINES if arguments.engine == "all" \
        else (arguments.engine,)
    if arguments.gate_trace_speedup is not None and not (
            "trace" in engines and "fast" in engines):
        print("repro-bench: --gate-trace-speedup compares the trace and "
              "fast engines (use --engine all)", file=sys.stderr)
        return 2

    if arguments.quick:
        specs = quick_specs(arguments.bench)
    else:
        specs = [WORKLOADS[name]() for name in arguments.bench]

    executor = None
    if arguments.jobs > 1:
        from repro.serve import SupervisedPool

        # Warm persistent workers: repeat (benchmark, machine) cells
        # land on workers whose compile caches are already hot.
        executor = SupervisedPool(jobs=arguments.jobs)

    def on_cell(cell: Dict[str, object]) -> None:
        if not arguments.verbose:
            return
        speedup = cell.get("speedup")
        timing = f"{speedup:.2f}x" if speedup is not None else "n/a"
        print(f"  {cell['benchmark']} on {cell['machine']}: "
              f"{cell['cycles']} cycles, speedup {timing}",
              file=sys.stderr)

    try:
        payload = run_bench(
            specs, alu_counts=arguments.alus, quick=arguments.quick,
            progress=lambda message: print(f"  {message}", file=sys.stderr),
            on_cell=on_cell,
            executor=executor,
            engines=engines,
        )
    except ReproError as error:
        print(f"repro-bench: {error}", file=sys.stderr)
        return 1
    finally:
        if executor is not None:
            executor.close()

    with open(arguments.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(render_report(payload))
    print(f"report written to {arguments.out}")

    if arguments.check:
        with open(arguments.check, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        problems = check_against_golden(payload, golden)
        if problems:
            print(f"repro-bench: cycle drift against {arguments.check}:",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"cycle counts match {arguments.check}")

    if arguments.gate_trace_speedup is not None:
        floor = arguments.gate_trace_speedup
        violations = [
            f"  {run['benchmark']} on {run['machine']}: "
            f"{run['trace_vs_fast_speedup']:.2f}x"
            for run in payload["runs"]
            if run.get("trace_vs_fast_speedup") is not None
            and run["trace_vs_fast_speedup"] < floor
        ]
        if violations:
            print(f"repro-bench: trace engine below the {floor:.2f}x "
                  "gate on:", file=sys.stderr)
            for line in violations:
                print(line, file=sys.stderr)
            return 1
        print(f"trace engine clears the {floor:.2f}x gate on every cell")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
