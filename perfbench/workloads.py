"""The benchmark's three workloads, each built from a ``--seed``.

A workload's constructor is the set-up (imports, input generation and, for
tune-pool, the warm pool spawn).  ``run_pass`` runs the timed phase once
and fills the clock's :class:`PassResult`; every timed item goes through
:meth:`Clock.time`, which brackets it with calibration kernels and
samples host speed while it runs.  Output checks run between items,
outside their brackets.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List

from calib import NOMINAL_KERNEL_S, Calibrator, mean_speed


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


@dataclass
class PassResult:
    """What one timed phase produced."""

    #: Timed items in order: id, raw seconds, kernel times, factor.
    items: List[Dict[str, object]] = field(default_factory=list)
    #: Normalised seconds per job (a cell, a campaign or a serve job).
    jobs_s: List[float] = field(default_factory=list)
    #: Work units completed: cells, classified faults or candidates.
    units: int = 0
    #: Simulated cycle counts that feed ``epic_cycles_geomean``.
    cycles: List[int] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Per-layer metrics only the workload can compute (traced pass).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Peak RSS of the parent process so far, in KiB.
    parent_rss_kb: int = 0
    #: Sum of the pool workers' peak RSS, in KiB.
    worker_rss_kb: int = 0

    @property
    def wall_s(self) -> float:
        return sum(item["norm_s"] for item in self.items
                   if item["timed_phase"])

    @property
    def raw_wall_s(self) -> float:
        return sum(item["raw_s"] for item in self.items
                   if item["timed_phase"])

    def factors(self) -> Dict[str, float]:
        return {item["id"]: item["factor"] for item in self.items}

    def fail(self, job: str, error: BaseException) -> None:
        from repro.errors import ReproError

        # Wrong outputs and structured errors are failures of the item;
        # anything else is a bug, so its traceback is kept.
        if not isinstance(error, (CheckFailed, ReproError)):
            traceback.print_exception(error, file=sys.stderr)
        self.failures.append(f"{job}: {type(error).__name__}: {error}")


class Clock:
    """Times items between calibration kernels."""

    def __init__(self, calibrator: Calibrator, result: PassResult,
                 tracer=None) -> None:
        self.calibrator = calibrator
        self.result = result
        self.tracer = tracer
        #: Sampler of the running item (None between items).
        self.sampler = None

    def time(self, job: str, function: Callable, timed_phase: bool = True):
        """Run ``function`` as item ``job``; returns its value.

        ``timed_phase=False`` marks a bracketed measurement that is not
        part of the workload's timed phase (a check or a replay).
        """
        gc.collect()
        if self.tracer is not None:
            self.tracer.job = job
        before = self.calibrator.measure()
        try:
            with self.calibrator.sampling() as sampler:
                self.sampler = sampler
                start = perf_counter()
                try:
                    return function()
                finally:
                    raw = perf_counter() - start
        finally:
            # Sampling has stopped: the after-kernel runs undisturbed.
            self.sampler = None
            self._record(job, timed_phase, before, start, raw, sampler)

    def _record(self, job, timed_phase, before, start, raw, sampler):
        end = start + raw
        after = self.calibrator.measure()
        points = [(start, NOMINAL_KERNEL_S / before)] + sampler.points \
            + [(end, NOMINAL_KERNEL_S / after)]
        factor = mean_speed(points, start, end)
        bracket = self.calibrator.factor(before, after)
        # The in-item kernel runs took part of the item's wall time.
        raw -= sampler.cost_s
        self.result.items.append({
            "id": job, "timed_phase": timed_phase, "raw_s": raw,
            "kernel_before_s": before, "kernel_after_s": after,
            "points": len(sampler.points), "sampled_s": sampler.cost_s,
            "bracket_factor": bracket, "bracket_norm_s": raw * bracket,
            "factor": factor, "norm_s": raw * factor,
        })
        if self.tracer is not None:
            self.tracer.job = None

    def last_factor(self) -> float:
        return self.result.items[-1]["factor"]


def derived_seed(seed: int, salt: int) -> int:
    """A non-zero 32-bit input seed (XorShift32 cannot hold 0)."""
    return 1 + ((seed * 0x9E3779B1) ^ (salt * 0x85EBCA6B)) % 0xFFFFFFFE


# -- table1-cold ---------------------------------------------------------


class Table1Cold:
    """Every Table-1 cell at default size, built fresh in one process.

    Each cell compiles, specialises, runs the trace engine cold, re-runs
    it warm on the same trace cache and validates both runs.  The seed
    draws the SHA and DCT input images (their cycle counts do not
    depend on pixel values) and the cell order.  AES has no input seed;
    the Dijkstra graph keeps its default seed because its cycle count
    depends on the graph.
    """

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.workloads import (
            aes_workload, dct_workload, dijkstra_workload, sha_workload,
        )
        import repro.backend.epic  # noqa: F401 - import cost is set-up
        import repro.core.tracejit  # noqa: F401

        image_seed = derived_seed(seed, 1)
        self.specs = {
            "SHA": sha_workload(seed=image_seed),
            "AES": aes_workload(),
            "DCT": dct_workload(seed=image_seed),
            "Dijkstra": dijkstra_workload(),
        }
        self.cells = [(name, alus) for name in self.specs
                      for alus in (1, 2, 3, 4)]
        random.Random(seed).shuffle(self.cells)

    def close(self) -> None:
        pass

    def _validate(self, name: str, machine: str, cpu, symbols) -> None:
        from repro.harness.runner import check_outputs

        def read_global(global_name: str, count: int) -> List[int]:
            base = symbols[global_name]
            return [cpu.memory.read(base + i) for i in range(count)]

        check_outputs(name, machine, self.specs[name], read_global,
                      cpu.gpr.read(2))

    def _cell(self, name: str, alus: int) -> Dict[str, object]:
        from repro.backend import compile_minic_to_epic
        from repro.config import epic_with_alus
        from repro.core import EpicProcessor
        from repro.core.tracejit import TraceCache
        from repro.perf.bench import stats_fingerprint

        spec = self.specs[name]
        machine = f"EPIC-{alus}ALU"
        config = epic_with_alus(alus)
        compilation = compile_minic_to_epic(spec.source, config)
        cache = TraceCache()
        cold = EpicProcessor(config, compilation.program,
                             mem_words=spec.mem_words, trace_cache=cache)
        # Specialise on its own (the split repro-bench uses), so the
        # cold run below is trace warm-up plus simulation only.
        if cold._fast_sim() is None:
            raise CheckFailed(f"{name} on {machine}: not specialisable")
        start = perf_counter()
        cold.run(engine="trace")
        cold_s = perf_counter() - start
        warm = EpicProcessor(config, compilation.program,
                             mem_words=spec.mem_words, trace_cache=cache)
        warm._trace_sim()  # instantiating cached traces is not the run
        start = perf_counter()
        warm.run(engine="trace")
        warm_s = perf_counter() - start
        for cpu in (cold, warm):
            if cpu.last_engine != "trace":
                raise CheckFailed(f"{name} on {machine}: the "
                                  f"{cpu.last_engine} engine ran, not trace")
            self._validate(name, machine, cpu, compilation.symbols)
        fingerprint = stats_fingerprint(warm.stats)
        if stats_fingerprint(cold.stats) != fingerprint:
            raise CheckFailed(f"{name} on {machine}: cold and warm trace "
                              "runs disagree")
        return {"compilation": compilation, "config": config,
                "fingerprint": fingerprint, "cold_s": cold_s,
                "warm_s": warm_s, "cycles": warm.stats.cycles,
                "trace_cache": cache.stats()}

    def _fast_check(self, name: str, alus: int, cell) -> None:
        """Run the cell on the fast engine and compare fingerprints."""
        from repro.core import EpicProcessor
        from repro.perf.bench import stats_fingerprint

        spec = self.specs[name]
        machine = f"EPIC-{alus}ALU"
        compilation = cell["compilation"]
        fast = EpicProcessor(cell["config"], compilation.program,
                             mem_words=spec.mem_words)
        fast.run(engine="fast")
        if fast.last_engine != "fast":
            raise CheckFailed(f"{name} on {machine}: fast engine did not run")
        self._validate(name, machine, fast, compilation.symbols)
        if stats_fingerprint(fast.stats) != cell["fingerprint"]:
            raise CheckFailed(f"{name} on {machine}: fast and trace "
                              "engines disagree")

    def run_pass(self, clock: Clock, tracer, index: int,
                 full_checks: bool = True) -> None:
        result = clock.result
        warmup_s = warm_s = 0.0
        warm_cycles = traces = compiles = 0
        for name, alus in self.cells:
            job = f"{name}/EPIC-{alus}ALU"
            result.attempted += 1
            try:
                cell = clock.time(job, lambda: self._cell(name, alus))
                item = result.items[-1]
                if full_checks:
                    clock.time(f"fast-check:{job}",
                               lambda: self._fast_check(name, alus, cell),
                               timed_phase=False)
            except Exception as error:  # noqa: BLE001 - item boundary
                result.fail(job, error)
                continue
            result.units += 1
            result.jobs_s.append(item["norm_s"])
            result.cycles.append(cell["cycles"])
            warmup_s += (cell["cold_s"] - cell["warm_s"]) * item["factor"]
            warm_s += cell["warm_s"] * item["factor"]
            warm_cycles += cell["cycles"]
            traces += cell["trace_cache"]["traces"]
            compiles += cell["trace_cache"]["compiles"]
            del cell  # the compilation is not carried into the next cell
        result.layer.update({
            "tracejit.warmup_s": warmup_s,
            "tracejit.traces": traces,
            "tracejit.compiles": compiles,
            "core.trace_kcycles_per_s":
                warm_cycles / warm_s / 1e3 if warm_s > 0 else 0.0,
        })


# -- campaign-mixed ------------------------------------------------------

#: Faults per workload, sized so each campaign costs a few seconds.
FAULTS = {"SHA": 128, "AES": 32, "DCT": 192, "Dijkstra": 128}

#: Seed of the fault lists.  It is fixed: the cost of a campaign swings
#: several-fold with how many lanes of a draw hang or retire to the
#: scalar checker, and its peak memory with how many fetch lanes share a
#: vector pass, so drawing the faults from ``--seed`` would measure the
#: draw, not the engine.  ``--seed`` draws the SHA and DCT images, which
#: decide which faults corrupt the outputs.
FAULT_POPULATION_SEED = 0x5EED

#: Faults per campaign re-run on the scalar checkpointed checker.
DIFFERENTIAL_FAULTS = 6


class CampaignMixed:
    """Vector-engine fault campaigns over the four quick workloads on
    EPIC-2ALU, in process, with checkpoints in a fresh store."""

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.config import epic_with_alus
        from repro.workloads import (
            aes_workload, dct_workload, dijkstra_workload, sha_workload,
        )
        import repro.core.vector  # noqa: F401 - import cost is set-up
        import repro.harness.faultcampaign  # noqa: F401

        image_seed = derived_seed(seed, 2)
        self.seed = seed
        self.scratch = scratch
        self.config = epic_with_alus(2)
        self.specs = [
            sha_workload(16, 16, image_seed),
            aes_workload(5),
            dct_workload(16, 16, image_seed),
            dijkstra_workload(12),
        ]

    def close(self) -> None:
        pass

    def _campaign(self, spec, store):
        from repro.harness.faultcampaign import generate_faults
        from repro.reliability import LockstepChecker

        checker = LockstepChecker(spec, self.config, checkpoint_store=store)
        checker.prepare_checkpoints()
        faults = generate_faults(checker, FAULTS[spec.name],
                                 FAULT_POPULATION_SEED)
        results, stats = checker.run_batch(faults)
        if stats["engine_downgrade_reason"]:
            raise CheckFailed(f"{spec.name}: vector engine downgraded: "
                              f"{stats['engine_downgrade_reason']}")
        return checker, faults, results

    def _differential(self, spec, checker, faults, results) -> None:
        """A seeded subset must classify identically on the scalar
        checkpointed checker."""
        from repro.harness.faultcampaign import result_payload

        rng = random.Random(derived_seed(self.seed, 4))
        for position in rng.sample(range(len(faults)), DIFFERENTIAL_FAULTS):
            scalar = checker.run_one(faults[position])
            if result_payload(scalar) != result_payload(results[position]):
                raise CheckFailed(
                    f"{spec.name}: fault {position} is "
                    f"{results[position].outcome.value} on the vector "
                    f"engine but {scalar.outcome.value} on the scalar "
                    "checker")

    def run_pass(self, clock: Clock, tracer, index: int,
                 full_checks: bool = True) -> None:
        from repro.core.snapshot import CheckpointStore

        result = clock.result
        store = CheckpointStore(tempfile.mkdtemp(prefix="checkpoints-",
                                                 dir=self.scratch))
        for spec in self.specs:
            job = f"campaign:{spec.name}"
            result.attempted += 1
            try:
                checker, faults, results = clock.time(
                    job, lambda: self._campaign(spec, store))
                result.jobs_s.append(result.items[-1]["norm_s"])
                if tracer is not None:
                    tracer.recording = False
                try:
                    self._differential(spec, checker, faults, results)
                finally:
                    if tracer is not None:
                        tracer.recording = True
            except Exception as error:  # noqa: BLE001 - item boundary
                result.fail(job, error)
                continue
            result.units += len(results)
            result.cycles.append(checker.reference_cycles)
            # Free this campaign's lane planes before the next starts.
            del checker, faults, results


# -- tune-pool -----------------------------------------------------------

OBJECTIVES = ("cycles", "slices", "sdc_rate")
#: Prunes the 4-ALU candidates in the FPGA-model prefilter.
CONSTRAINTS = ("slices<=10000",)
TUNE_FAULTS = 8
#: Fixed campaign seed, for the reason given at FAULT_POPULATION_SEED.
TUNE_FAULT_SEED = 0x5EED
#: Axes of the two searches; the second overlaps the first, so its
#: shared candidates are served from the result cache.
SEARCHES = (
    ("search-1", {"n_alus": (1, 2, 3, 4), "n_btrs": (8, 16),
                  "n_mem_banks": (1, 2)}),
    ("search-2", {"n_alus": (1, 2, 3, 4), "n_btrs": (8, 16, 32),
                  "n_mem_banks": (1, 2)}),
)
#: Pool jobs re-run in process in the traced pass to measure IPC cost.
IPC_SAMPLE = 4


class RecordingExecutor:
    """Executor proxy that records when each pool outcome arrives.

    While a pool batch is in flight the item's speed sampling is paused:
    a sample would compete with the workers for a vCPU and so measure
    the pool's load, not the host.  A pool point (a full kernel pinned
    to each vCPU) is taken on each side of the batch instead, while every
    worker is idle.
    """

    def __init__(self, pool, clock: Clock, tracer=None) -> None:
        self.pool = pool
        self.jobs = pool.jobs
        self.clock = clock
        self.tracer = tracer
        #: (outcome, batch start, arrival time), in arrival order.
        self.arrivals: List[tuple] = []

    def run(self, specs, on_result=None):
        with self.clock.sampler.paused_for_pool():
            start = perf_counter()

            def arrived(outcome) -> None:
                self.arrivals.append((outcome, start, perf_counter()))
                if on_result is not None:
                    on_result(outcome)

            if self.tracer is not None:
                return self.tracer.call("serve.supervisor.run",
                                        self.pool.run, specs,
                                        on_result=arrived)
            return self.pool.run(specs, on_result=arrived)


class TimedCache:
    """ResultCache proxy that times ``get`` and ``put``."""

    def __init__(self, cache, tracer=None) -> None:
        self.cache = cache
        self.stats = cache.stats
        self.tracer = tracer
        self.get_s = 0.0
        self.put_s = 0.0

    def _call(self, name: str, function, *args):
        if self.tracer is not None:
            return self.tracer.call(name, function, *args)
        return function(*args)

    def get(self, spec):
        start = perf_counter()
        try:
            return self._call("serve.cache.get", self.cache.get, spec)
        finally:
            self.get_s += perf_counter() - start

    def put(self, spec, payload) -> None:
        start = perf_counter()
        try:
            self._call("serve.cache.put", self.cache.put, spec, payload)
        finally:
            self.put_s += perf_counter() - start


class TunePool:
    """Two overlapping ``tune()`` searches over SHA quick through a warm
    ``SupervisedPool(jobs=nproc)`` and a fresh ``ResultCache``."""

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.autotune import CandidateEvaluator  # noqa: F401
        from repro.serve import ResultCache, SupervisedPool  # noqa: F401
        from repro.workloads import sha_workload

        self.seed = seed
        self.scratch = scratch
        self.spec = sha_workload(16, 16, derived_seed(seed, 5))
        self.workers = os.cpu_count() or 2
        self.pool = self._spawn_pool()

    def _spawn_pool(self):
        """A warm pool with every worker started, on a fresh store."""
        from repro.serve import SupervisedPool

        # Workers inherit the environment when they are forked.
        os.environ["REPRO_CHECKPOINT_STORE"] = tempfile.mkdtemp(
            prefix="worker-checkpoints-", dir=self.scratch)
        pool = SupervisedPool(jobs=self.workers, warm=True)
        for _ in range(self.workers):
            pool._spawn_warm()
        return pool

    def close(self) -> None:
        self.pool.close()

    def _search(self, axes, executor, cache):
        from repro.autotune import (
            CandidateEvaluator, SearchSpace, TuneArchive, field_axis,
            parse_constraints, tune,
        )
        from repro.config import epic_config

        archive = TuneArchive(objectives=OBJECTIVES,
                              constraints=parse_constraints(CONSTRAINTS))
        evaluator = CandidateEvaluator(
            self.spec, archive, faults_n=TUNE_FAULTS,
            faults_seed=TUNE_FAULT_SEED, campaign_engine="vector",
            executor=executor, cache=cache)
        space = SearchSpace(epic_config(), [field_axis(name, values)
                                            for name, values in axes.items()])
        return tune(space, evaluator, archive, strategy="exhaustive")

    def _ipc_sample(self, clock: Clock, pool_jobs) -> float:
        """Re-run a seeded sample of pool jobs in process; returns the
        mean normalised pool-minus-serial seconds per job."""
        from repro.serve import SerialExecutor

        rng = random.Random(derived_seed(self.seed, 6))
        sample = rng.sample(pool_jobs, min(IPC_SAMPLE, len(pool_jobs)))
        saved = os.environ["REPRO_CHECKPOINT_STORE"]
        os.environ["REPRO_CHECKPOINT_STORE"] = tempfile.mkdtemp(
            prefix="replay-checkpoints-", dir=self.scratch)
        differences = []
        try:
            for number, (outcome, factor) in enumerate(sample):
                serial = clock.time(
                    f"ipc-replay:{number}",
                    lambda: SerialExecutor().run([outcome.spec])[0],
                    timed_phase=False)
                if not serial.ok or serial.payload != outcome.payload:
                    raise CheckFailed(f"{outcome.spec.describe()}: in-process "
                                      "result differs from the pool's")
                differences.append(outcome.seconds * factor
                                   - clock.result.items[-1]["norm_s"])
        finally:
            os.environ["REPRO_CHECKPOINT_STORE"] = saved
        return statistics.mean(differences)

    def _replay(self, axes, report, cache_root: str) -> None:
        """A cache-only replay must reproduce the report byte for byte."""
        from repro.serve import ResultCache

        cache = ResultCache(cache_root)
        replayed = self._search(axes, None, cache)
        if cache.stats.misses:
            raise CheckFailed(f"cache replay missed {cache.stats.misses} "
                              "job(s)")
        if json.dumps(replayed, sort_keys=True) != \
                json.dumps(report, sort_keys=True):
            raise CheckFailed("cache replay differs from the report")

    def run_pass(self, clock: Clock, tracer, index: int,
                 full_checks: bool = True) -> None:
        from repro.serve import ResultCache

        result = clock.result
        if index > 0:
            self.pool.close()
            self.pool = self._spawn_pool()
        cache_root = tempfile.mkdtemp(prefix="results-", dir=self.scratch)
        cache = TimedCache(ResultCache(cache_root), tracer)
        executor = RecordingExecutor(self.pool, clock, tracer)
        pool_jobs = []   # (outcome, normalisation factor)
        queue_wait = []
        evaluated = pruned = 0
        cache_get = cache_put = 0.0
        for name, axes in SEARCHES:
            result.attempted += 1
            executor.arrivals.clear()
            get_before, put_before = cache.get_s, cache.put_s
            try:
                report = clock.time(
                    name, lambda: self._search(axes, executor, cache))
                factor = clock.last_factor()
                if tracer is not None:
                    tracer.recording = False
                try:
                    self._replay(axes, report, cache_root)
                finally:
                    if tracer is not None:
                        tracer.recording = True
            except Exception as error:  # noqa: BLE001 - item boundary
                result.fail(name, error)
                continue
            cache_get += (cache.get_s - get_before) * factor
            cache_put += (cache.put_s - put_before) * factor
            # A job here is one candidate's pool work: its sweep job
            # plus its campaign job.  The two kinds split the serve jobs
            # half and half with a gap between them, so a median over
            # serve jobs falls in the gap and swings with any shift.
            # Jobs take the search's factor: the pool points, a pair per
            # batch, are too sparse to resolve a single job.
            candidates: Dict[str, float] = {}
            for outcome, batch_start, arrival in executor.arrivals:
                if outcome.cached:
                    continue
                dispatched = arrival - outcome.seconds
                digest = outcome.spec.config.digest()
                candidates[digest] = candidates.get(digest, 0.0) \
                    + outcome.seconds * factor
                queue_wait.append((dispatched - batch_start) * factor)
                pool_jobs.append((outcome, factor))
            result.jobs_s.extend(candidates.values())
            result.attempted += len(report["evaluations"])
            for entry in report["evaluations"]:
                evaluated += 1
                if entry["detail"].startswith("pruned by model estimate"):
                    pruned += 1
                elif entry["status"] == "ok" and "cycles" in entry["metrics"]:
                    result.units += 1
                    result.cycles.append(entry["metrics"]["cycles"])
                else:
                    result.failures.append(
                        f"{name}: {entry['describe']}: {entry['status']} "
                        f"{entry['detail']}")
        telemetry = self.pool.telemetry()
        result.worker_rss_kb = sum(worker["rss_kb"] or 0
                                   for worker in telemetry["workers"])
        result.layer.update({
            "serve.queue_wait_s":
                statistics.mean(queue_wait) if queue_wait else 0.0,
            "serve.spawns": telemetry["spawns"],
            "serve.worker_reuse_rate": telemetry["worker_reuse_rate"],
            "serve.affinity_hit_rate": telemetry["affinity_hit_rate"],
            "serve.cache_get_s": cache_get,
            "serve.cache_put_s": cache_put,
            "serve.cache_hit_rate": cache.stats.hit_rate,
            "autotune.evaluated": evaluated,
            "autotune.prefilter_pruned": pruned,
        })
        if tracer is not None and pool_jobs:
            try:
                result.layer["serve.ipc_s"] = self._ipc_sample(clock,
                                                               pool_jobs)
            except Exception as error:  # noqa: BLE001 - item boundary
                result.fail("ipc-replay", error)


WORKLOADS = {
    "table1-cold": Table1Cold,
    "campaign-mixed": CampaignMixed,
    "tune-pool": TunePool,
}
