"""End-to-end benchmark of the EPIC toolchain, host-normalised.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
timed phase once untraced and once traced and reports the per-layer
metrics plus the tracing overhead.  Every metric is printed with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits
non-zero when any output of the program is wrong.  Full diagnostics
(every timed item with its raw seconds and kernel times, and the spans
of a traced run) are written to ``.perfbench_out/`` in the checkout.

See perfbench/README.md for the metrics and the normalisation formula.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calib import Calibrator  # noqa: E402

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
    "epic_cycles_geomean": "cycles",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "lang.frontend_s": "s",
    "ir.opt_s": "s",
    "backend.compile_s": "s",
    "core.specialise_s": "s",
    "core.fast_kcycles_per_s": "kcycles/s",
    "tracejit.warmup_s": "s",
    "tracejit.traces": "count",
    "tracejit.compiles": "count",
    "core.trace_kcycles_per_s": "kcycles/s",
    "reliability.checker_s": "s",
    "snapshot.stream_s": "s",
    "snapshot.checkpoints": "count",
    "vector.batch_s": "s",
    "vector.lane_cycles": "cycles",
    "vector.occupancy": "ratio",
    "vector.retired_fraction": "ratio",
    "vector.rewalk_lane_cycles": "cycles",
    "vector.absorbed_lanes": "count",
    "vector.cuts": "count",
    "serve.queue_wait_s": "s",
    "serve.ipc_s": "s",
    "serve.spawns": "count",
    "serve.worker_reuse_rate": "ratio",
    "serve.affinity_hit_rate": "ratio",
    "serve.cache_get_s": "s",
    "serve.cache_put_s": "s",
    "serve.cache_hit_rate": "ratio",
    "autotune.evaluated": "count",
    "autotune.prefilter_pruned": "count",
    "host.calib_s": "s",
    "host.raw_wall_s": "s",
    "trace.overhead_frac": "ratio",
}

#: What a work unit is on each workload (``items_per_s``).
UNITS = {"table1-cold": "cells", "campaign-mixed": "faults",
         "tune-pool": "candidates"}

#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPEATS = 5

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SCRATCH_DIR = os.path.join(ROOT, ".perfbench_tmp")


def _isolate_environment(scratch: str) -> None:
    """An explicit ``REPRO_*`` environment, inherited by pool workers."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CHECKPOINTS"] = "1"
    os.environ["REPRO_CHECKER_MEMO"] = "8"
    os.environ["REPRO_CHECKPOINT_STORE"] = tempfile.mkdtemp(
        prefix="checkpoints-", dir=scratch)


def _setup_probe(workload: str, seed: int, scratch: str) -> int:
    """One set-up, timed as an item in this fresh interpreter; prints
    its record as JSON."""
    from workloads import WORKLOADS, Clock, PassResult

    calibrator = Calibrator()
    _isolate_environment(scratch)
    record = PassResult()
    bench = Clock(calibrator, record).time(
        "setup", lambda: WORKLOADS[workload](seed, scratch), timed_phase=False)
    bench.close()
    print(json.dumps(record.items[0]))
    return 0


def _measure_setup(args, scratch: str) -> List[Dict]:
    """SETUP_REPEATS set-ups, each in a fresh interpreter."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe", scratch]
    records = []
    for number in range(SETUP_REPEATS):
        done = subprocess.run(command, cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        record = json.loads(done.stdout.strip().splitlines()[-1])
        record["id"] = f"setup:{number}"
        records.append(record)
    return records


def _geomean(values: List[int]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _end_to_end(passes, setup) -> Dict[str, float]:
    jobs = [seconds for result in passes for seconds in result.jobs_s]
    wall = sum(result.wall_s for result in passes)
    units = sum(result.units for result in passes)
    # Memory of the first pass, run in a fresh process: later passes
    # repeat the work on a heap the first one has already fragmented.
    first = passes[0]
    return {
        "setup_s": statistics.median(record["norm_s"] for record in setup),
        "wall_s": statistics.median(result.wall_s for result in passes),
        "job_p50_s": statistics.median(jobs) if jobs else 0.0,
        "items_per_s": units / wall if wall > 0 else 0.0,
        "peak_rss_mb": (first.parent_rss_kb + first.worker_rss_kb) / 1024.0,
        "epic_cycles_geomean": _geomean(first.cycles) if first.cycles else 0.0,
    }


def _per_layer(untraced, traced, tracer, calibrator) -> Dict[str, float]:
    factors = traced.factors()
    totals = tracer.totals(factors)
    vector = tracer.vector
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update({
        "lang.frontend_s": totals.get("lang.frontend", 0.0),
        "ir.opt_s": totals.get("ir.optimize_module", 0.0),
        "backend.compile_s": totals.get("backend.compile_ir_to_epic", 0.0),
        "core.specialise_s": totals.get("core.fastpath.specialise", 0.0),
        "core.fast_kcycles_per_s": tracer.engine_rate("fast", factors),
        "reliability.checker_s": totals.get("reliability.checker_build",
                                            0.0),
        "snapshot.stream_s": sum(totals.get(name, 0.0) for name in (
            "core.snapshot.capture", "core.snapshot.store_get",
            "core.snapshot.store_put")),
        "snapshot.checkpoints": tracer.checkpoints,
        "vector.batch_s": totals.get("core.vector.run_pass", 0.0),
        "vector.lane_cycles": vector.get("lane_cycles", 0),
        "vector.occupancy": (vector["lane_cycles"] / vector["lane_capacity"]
                             if vector.get("lane_capacity") else 0.0),
        "vector.retired_fraction":
            (vector["scalar_faults"] / vector["vector_faults"]
             if vector.get("vector_faults") else 0.0),
        "vector.rewalk_lane_cycles": vector.get("rewalk_lane_cycles", 0),
        "vector.absorbed_lanes": vector.get("absorbed_lanes", 0),
        "vector.cuts": vector.get("cuts", 0),
        "host.calib_s": statistics.median(calibrator.samples),
        "host.raw_wall_s": traced.raw_wall_s,
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0
        if untraced.wall_s > 0 else 0.0,
    })
    layer.update(traced.layer)
    return layer


def _print_metrics(metrics: Dict[str, float], units: Dict[str, str],
                   notes: Dict[str, str]) -> None:
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<28} {value:>16.6f} {units[name]:<10} {note}".rstrip())


def run(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS, Clock, PassResult

    os.makedirs(SCRATCH_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH_DIR)
    bench = None
    try:
        _isolate_environment(scratch)
        setup = _measure_setup(args, scratch)
        calibrator = Calibrator()
        start = perf_counter()
        bench = WORKLOADS[args.workload](args.seed, scratch)
        setup_in_process_s = perf_counter() - start

        passes: List[PassResult] = []
        tracer = None
        if args.trace:
            untraced = PassResult()
            bench.run_pass(Clock(calibrator, untraced), None, 0,
                            full_checks=False)
            tracer = Tracer()
            tracer.install()
            traced = PassResult()
            try:
                bench.run_pass(Clock(calibrator, traced, tracer), tracer, 1)
            finally:
                tracer.uninstall()
            passes = [untraced, traced]
        else:
            # Whole passes until --seconds of normalised time: the pass
            # count then does not depend on how fast the host is today.
            elapsed = 0.0
            while not passes or elapsed < args.seconds:
                result = PassResult()
                bench.run_pass(Clock(calibrator, result), None, len(passes))
                result.parent_rss_kb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss
                passes.append(result)
                elapsed += result.wall_s
        bench.close()
        bench = None
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_DIR)
        except OSError:
            pass

    attempted = sum(result.attempted for result in passes)
    failures = [failure for result in passes for failure in result.failures]
    cycle_sets = {tuple(result.cycles) for result in passes}
    if len(cycle_sets) > 1:
        failures.append("simulated cycle counts differ between passes")
    jobs = sum(len(result.jobs_s) for result in passes)
    if args.trace:
        metrics = _per_layer(passes[0], passes[1], tracer, calibrator)
        units = PER_LAYER
        notes = {}
    else:
        metrics = _end_to_end(passes, setup)
        units = END_TO_END
        notes = {"job_p50_s": f"({jobs} jobs)",
                 "items_per_s": f"({UNITS[args.workload]})",
                 "wall_s": f"(median of {len(passes)} pass(es))"}

    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup": setup, "setup_in_process_raw_s": setup_in_process_s,
        "passes": [{"items": result.items, "jobs_s": result.jobs_s,
                    "units": result.units, "cycles": result.cycles,
                    "wall_s": result.wall_s, "raw_wall_s": result.raw_wall_s,
                    "layer": result.layer} for result in passes],
        "failed_fraction": len(failures) / attempted if attempted else 1.0,
        "failures": failures,
        "metrics": metrics,
    }
    if tracer is not None:
        diagnostics["self_s"] = tracer.self_times(passes[1].factors())
        diagnostics["spans"] = tracer.dump()
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(diagnostics, handle, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for number, result in enumerate(passes):
        for item in result.items:
            print(f"  pass {number} {item['id']:<28} raw_s={item['raw_s']:.4f}"
                  f" kernel_before_s={item['kernel_before_s']:.6f}"
                  f" kernel_after_s={item['kernel_after_s']:.6f}"
                  f" norm_s={item['norm_s']:.4f}"
                  + ("" if item["timed_phase"] else " (check)"))
    for item in setup:
        print(f"  {item['id']:<35} raw_s={item['raw_s']:.4f}"
              f" kernel_before_s={item['kernel_before_s']:.6f}"
              f" kernel_after_s={item['kernel_after_s']:.6f}"
              f" norm_s={item['norm_s']:.4f}")
    if tracer is not None:
        print("  self time per layer (normalised s):")
        for layer, seconds in sorted(diagnostics["self_s"].items()):
            print(f"    {layer:<26} {seconds:10.4f}")
    print(f"  failed_fraction {diagnostics['failed_fraction']:.4f} "
          f"({len(failures)} of {attempted})")
    for failure in failures:
        print(f"  FAILED {failure}")
    _print_metrics(metrics, units, notes)
    print(f"  diagnostics: {os.path.relpath(out_path, ROOT)}")

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench",
        description="Host-normalised end-to-end benchmark of the EPIC "
                    "toolchain.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum host-normalised seconds of timed "
                             "phase; whole passes run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="SCRATCH",
                        help=argparse.SUPPRESS)
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {source}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed, args.setup_probe)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
