"""Seeded SEU fault-injection campaigns over the paper's workloads.

A *campaign* fans N independently-drawn faults across one (workload,
machine) pair, classifies every run with the lockstep checker, and
aggregates the outcome counts into a per-benchmark vulnerability table
— the reliability analogue of the harness's Table 1.

Determinism is a hard requirement (regression tests diff whole outcome
tables): fault generation uses the repo's own
:class:`~repro.workloads.XorShift32` generator rather than
:mod:`random`, so a (seed, N, machine, workload) quadruple maps to a
byte-identical report on every platform and Python version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.reliability import (
    FaultSpec,
    InjectionResult,
    LockstepChecker,
    MODEL_SEU,
    MODEL_STUCK0,
    MODEL_STUCK1,
    Outcome,
    SPACE_BTR,
    SPACE_GPR,
    SPACE_IFETCH,
    SPACE_MEM,
    SPACE_PRED,
)
from repro.workloads import WorkloadSpec
from repro.workloads.common import XorShift32

#: Default target mix: every architecturally visible state the injector
#: models.  Memory faults are drawn over the *initialised data image*
#: (globals and workload inputs) — the interesting words — rather than
#: the whole 256 KiB array, most of which no run ever touches.
DEFAULT_SPACES: Tuple[str, ...] = (
    SPACE_GPR, SPACE_PRED, SPACE_BTR, SPACE_MEM, SPACE_IFETCH,
)

#: One fault in eight is a stuck-at (half of them stuck-at-1); the rest
#: are transient single-event upsets.
_STUCK_DIE = 8


def generate_faults(checker: LockstepChecker, n: int, seed: int,
                    spaces: Sequence[str] = DEFAULT_SPACES) -> List[FaultSpec]:
    """Draw ``n`` fault specs for ``checker``'s machine, deterministically.

    All dimensions (space, index, bit, cycle, model) come from one
    :class:`XorShift32` stream seeded with ``seed``, so the same seed
    reproduces the same campaign bit-for-bit.
    """
    if n < 0:
        raise ValueError("fault count must be non-negative")
    if not spaces:
        raise ValueError("at least one fault space is required")
    if not seed:
        # XorShift32 cannot hold state 0; silently substituting another
        # seed would make two nominally different campaigns identical.
        raise ValueError("seed must be non-zero")
    config = checker.config
    program = checker.compilation.program
    width = config.datapath_width
    issue_width = config.issue_width
    data_words = max(1, len(program.data))
    # Instruction-word width at this configuration (64 at paper defaults).
    from repro.isa.encoding import InstructionFormat

    instruction_bits = InstructionFormat(config).instruction_bits
    btr_bits = max(1, (len(program.bundles) - 1).bit_length())
    cycles = max(1, checker.reference_cycles)

    rng = XorShift32(seed)
    faults: List[FaultSpec] = []
    for _ in range(n):
        space = spaces[rng.below(len(spaces))]
        die = rng.below(_STUCK_DIE)
        if die == 0:
            model = MODEL_STUCK0
        elif die == 1:
            model = MODEL_STUCK1
        else:
            model = MODEL_SEU
        cycle = rng.below(cycles)
        if space == SPACE_GPR:
            index, bit = rng.below(config.n_gprs), rng.below(width)
        elif space == SPACE_PRED:
            index, bit = rng.below(config.n_preds), 0
        elif space == SPACE_BTR:
            index, bit = rng.below(config.n_btrs), rng.below(btr_bits)
        elif space == SPACE_MEM:
            index, bit = rng.below(data_words), rng.below(width)
        else:  # ifetch
            index, bit = rng.below(issue_width), rng.below(instruction_bits)
        faults.append(FaultSpec(space=space, index=index, bit=bit,
                                cycle=cycle, model=model))
    return faults


@dataclass
class CampaignReport:
    """Aggregated outcome of one fault-injection campaign."""

    workload: str
    machine: str
    n: int
    seed: int
    reference_cycles: int
    counts: Dict[str, int]
    results: List[InjectionResult] = field(default_factory=list)
    #: Non-deterministic measurement context (wall time, faults/sec,
    #: checkpoint fast-forward counters).  Deliberately excluded from
    #: :func:`campaign_payload` — the JSON report is diffed byte-for-
    #: byte across serial/parallel/checkpointed runs.
    timing: Optional[Dict[str, object]] = None

    @property
    def classified(self) -> int:
        """Number of injections that actually produced an outcome.

        Quarantined or crashed serve jobs can leave a report with fewer
        than ``n`` classified results; rates are computed over this
        denominator, never over the nominal ``n``, so missing results
        cannot silently deflate them.
        """
        return sum(self.counts.values())

    def _rate(self, outcome: Outcome) -> float:
        classified = self.classified
        return (self.counts.get(outcome.value, 0) / classified
                if classified else 0.0)

    @property
    def sdc_rate(self) -> float:
        return self._rate(Outcome.SDC)

    @property
    def detected_rate(self) -> float:
        return self._rate(Outcome.DETECTED)

    @property
    def masked_rate(self) -> float:
        return self._rate(Outcome.MASKED)

    @property
    def hung_rate(self) -> float:
        return self._rate(Outcome.HUNG)

    def outcome_table(self) -> List[Tuple[str, str]]:
        """Per-fault (fault, outcome) pairs — the determinism fingerprint."""
        return [
            (result.fault.describe() if result.fault else "none",
             result.outcome.value)
            for result in self.results
        ]


def result_payload(result: InjectionResult) -> dict:
    """Lossless JSON form of one classified injection."""
    return {
        "fault": result.fault.describe() if result.fault else None,
        "fault_spec": (
            {
                "space": result.fault.space,
                "index": result.fault.index,
                "bit": result.fault.bit,
                "cycle": result.fault.cycle,
                "model": result.fault.model,
            }
            if result.fault else None
        ),
        "outcome": result.outcome.value,
        "detail": result.detail,
        "cycles": result.cycles,
        "trap_cause": result.trap_cause,
    }


def result_from_payload(payload: dict) -> InjectionResult:
    """Rebuild an :class:`InjectionResult` from :func:`result_payload`."""
    fault_spec = payload.get("fault_spec")
    fault = FaultSpec(**fault_spec) if fault_spec else None
    return InjectionResult(
        fault=fault,
        outcome=Outcome(payload["outcome"]),
        detail=payload.get("detail", ""),
        cycles=payload["cycles"],
        trap_cause=payload.get("trap_cause"),
    )


def report_from_results(spec: WorkloadSpec, config: MachineConfig,
                        n: int, seed: int, reference_cycles: int,
                        results: Sequence[InjectionResult]
                        ) -> CampaignReport:
    """Assemble a :class:`CampaignReport` with recomputed counts."""
    counts = {outcome.value: 0 for outcome in Outcome}
    for result in results:
        counts[result.outcome.value] += 1
    return CampaignReport(
        workload=spec.name,
        machine=f"EPIC-{config.n_alus}ALU",
        n=n,
        seed=seed,
        reference_cycles=reference_cycles,
        counts=counts,
        results=list(results),
    )


def run_campaign(spec: WorkloadSpec, config: MachineConfig,
                 n: int, seed: int,
                 spaces: Sequence[str] = DEFAULT_SPACES,
                 watchdog_factor: float = 4.0,
                 checker: Optional[LockstepChecker] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 on_result: Optional[
                     Callable[[InjectionResult], None]] = None,
                 executor=None,
                 cache=None,
                 shards: Optional[int] = None,
                 checkpoints: Optional[bool] = None,
                 checkpoint_interval: Optional[int] = None,
                 checkpoint_store=None,
                 engine: str = "auto") -> CampaignReport:
    """Run one seeded campaign of ``n`` injections and aggregate it.

    Pass a pre-built ``checker`` to amortise compilation and the golden
    run across campaigns on the same (workload, machine) pair.

    ``on_result`` is called with every classified
    :class:`~repro.reliability.InjectionResult` as it lands — per-point
    progress for callers who would otherwise watch a silent campaign.

    Passing ``executor`` and/or ``cache`` routes the campaign through
    :mod:`repro.serve`: the fault list is sharded into contiguous
    slices (``shards``, defaulting to the executor's worker count) that
    run in parallel and are merged **in fault-index order**, so the
    report is byte-identical to the serial one.  Fault generation stays
    seed-driven and happens inside each worker from ``(n, seed)``,
    never from scheduling state.  With an executor, ``checker`` and
    ``progress`` callbacks that capture local state are not forwarded
    to workers; ``on_result`` still fires in the parent as shards
    complete (shard order, not global order).

    ``checkpoints`` toggles golden checkpoint fast-forwarding (see
    :mod:`repro.core.snapshot`); ``None`` defers to the
    ``REPRO_CHECKPOINTS`` environment default.  It is a *perf* knob:
    the report is byte-identical either way, which is also why it never
    enters the serve job digests.  The report's ``timing`` field
    carries wall-clock throughput and fast-forward counters.

    ``engine`` selects the classification path: ``"auto"`` runs every
    fault through the scalar checker; ``"vector"`` rides the batched
    vector engine (:mod:`repro.core.vector`) and retires inexact lanes
    to the scalar checker.  Like ``checkpoints`` it is a pure perf
    knob — outcome tables are byte-identical either way.
    """
    import time as _time

    if engine not in ("auto", "vector"):
        raise ValueError(
            f"unknown campaign engine {engine!r}: expected 'auto' or "
            f"'vector'")
    started = _time.perf_counter()
    if executor is not None or cache is not None:
        from repro.serve import (
            campaign_job, raise_for_failures, run_jobs,
        )
        from repro.serve.jobspec import shard_campaign
        from repro.serve.worker import campaign_checker

        whole = campaign_job(spec, config, n, seed, spaces=spaces,
                             watchdog_factor=watchdog_factor,
                             engine=engine)
        want = shards if shards is not None \
            else getattr(executor, "jobs", 1)
        jobs = shard_campaign(whole, want) if want > 1 else [whole]
        if cache is None:
            # Warm the process-level checker memo before dispatch: the
            # pool's forked worker incarnations inherit the compiled
            # checker (and its golden checkpoint stream) instead of
            # each rebuilding it.  With a result cache the jobs may
            # never run at all, so skip the warm-up.
            campaign_checker(whole).prepare_checkpoints()

        def handle(outcome) -> None:
            if not outcome.ok:
                return
            if progress is not None:
                progress(f"{spec.name}: shard "
                         f"[{outcome.payload['fault_offset']}:+"
                         f"{len(outcome.payload['outcomes'])}] done")
            if on_result is not None:
                for entry in outcome.payload["outcomes"]:
                    on_result(result_from_payload(entry))

        outcomes = run_jobs(jobs, executor=executor, cache=cache,
                            on_result=handle)
        raise_for_failures(outcomes)
        reference_cycles = outcomes[0].payload["reference_cycles"]
        results: List[InjectionResult] = []
        for outcome in outcomes:  # input order == fault-index order
            results.extend(result_from_payload(entry)
                           for entry in outcome.payload["outcomes"])
        report = report_from_results(spec, config, n, seed,
                                     reference_cycles, results)
        elapsed = _time.perf_counter() - started
        shard_metas = [outcome.meta for outcome in outcomes
                       if outcome.meta and "faults_run" in outcome.meta]
        report.timing = {
            "engine": engine,
            "elapsed_s": elapsed,
            "faults_per_s": n / elapsed if elapsed > 0 else 0.0,
            "checkpointed": any(meta.get("checkpointed")
                                for meta in shard_metas),
            "prefix_cycles_skipped": sum(
                meta.get("ff_cycles_skipped", 0) for meta in shard_metas),
            "convergence_cuts": sum(
                meta.get("ff_convergence_cuts", 0) for meta in shard_metas),
        }
        if engine == "vector":
            # A vector shard's meta carries its run_batch stats as is.
            report.timing.update(_vector_timing(shard_metas))
        return report

    if checker is None:
        if checkpoints is None:
            from repro.serve.worker import checkpoints_enabled

            checkpoints = checkpoints_enabled()
        checker = LockstepChecker(spec, config,
                                  watchdog_factor=watchdog_factor,
                                  checkpoints=checkpoints,
                                  checkpoint_interval=checkpoint_interval,
                                  checkpoint_store=checkpoint_store)
    elif checkpoints is not None:
        checker.checkpoints = checkpoints
    ff_before = checker.fastforward_stats()
    faults = generate_faults(checker, n, seed, spaces)
    vstats: Optional[Dict[str, object]] = None
    if engine == "vector":
        results, vstats = checker.run_batch(faults)
        for number, result in enumerate(results, start=1):
            if on_result is not None:
                on_result(result)
            if progress is not None and number % 25 == 0:
                progress(f"{spec.name}: {number}/{n} injections")
    else:
        results = []
        for number, fault in enumerate(faults, start=1):
            result = checker.run_one(fault)
            results.append(result)
            if on_result is not None:
                on_result(result)
            if progress is not None and number % 25 == 0:
                progress(f"{spec.name}: {number}/{n} injections")
    report = report_from_results(spec, config, n, seed,
                                 checker.reference_cycles, results)
    elapsed = _time.perf_counter() - started
    ff_after = checker.fastforward_stats()
    report.timing = {
        "engine": engine,
        "elapsed_s": elapsed,
        "faults_per_s": n / elapsed if elapsed > 0 else 0.0,
        "checkpointed": bool(checker.checkpoints),
        "prefix_cycles_skipped":
            ff_after["cycles_skipped"] - ff_before["cycles_skipped"],
        "convergence_cuts":
            ff_after["convergence_cuts"] - ff_before["convergence_cuts"],
    }
    if vstats is not None:
        report.timing.update(_vector_timing([vstats]))
    return report


def _vector_timing(batches: Sequence[Dict[str, object]]
                   ) -> Dict[str, object]:
    """The vector block of ``CampaignReport.timing``, summed over the
    ``LockstepChecker.run_batch`` stats of every shard of a campaign."""
    def total(key: str) -> int:
        return sum(batch[key] for batch in batches)

    lanes_retired: Dict[str, int] = {}
    for batch in batches:
        for reason, count in batch["retired"].items():
            lanes_retired[reason] = lanes_retired.get(reason, 0) + count
    capacity = total("lane_capacity")
    wasted = total("wasted_lane_cycles")
    return {
        "vector_faults": total("vector_faults"),
        "scalar_faults": total("scalar_faults"),
        "vector_cuts": total("cuts"),
        "vector_jumps": total("jumps"),
        "lanes_retired": lanes_retired,
        # Occupancy counts only lanes that the engine classified:
        # cycles burnt by lanes that later retired to the scalar
        # checker are wasted work, reported under their own key so
        # utilisation is not overstated.
        "vector_occupancy": ((total("lane_cycles") - wasted) / capacity
                             if capacity else 0.0),
        "wasted_retired_cycles": wasted / capacity if capacity else 0.0,
        "rewalk_lanes": total("rewalk_lanes"),
        "rewalk_lane_cycles": total("rewalk_lane_cycles"),
        "engine_downgrade_reason": next(
            (batch["engine_downgrade_reason"] for batch in batches
             if batch["engine_downgrade_reason"]), None),
    }


def measure_campaign_throughput(
        spec: WorkloadSpec, config: MachineConfig, n: int, seed: int,
        spaces: Sequence[str] = DEFAULT_SPACES,
        watchdog_factor: float = 4.0,
        checkpoint_interval: Optional[int] = None,
        checkpoint_store=None,
        progress: Optional[Callable[[str], None]] = None,
        ) -> Tuple[CampaignReport, Dict[str, object]]:
    """Run one campaign twice — from zero, then checkpointed — and
    compare.

    Both passes share one :class:`LockstepChecker` (same compile,
    golden model and reference run), differing only in the
    ``checkpoints`` toggle, so the measured ratio isolates the
    fast-forward machinery.  The two reports must be byte-identical
    (:func:`campaign_payload` forms are diffed; a mismatch raises) —
    the speedup is only meaningful if the answers agree.

    Returns the checkpointed report plus a timing record with both
    passes' timings and the ``speedup`` ratio.
    """
    from repro.errors import SimulationError

    checker = LockstepChecker(spec, config,
                              watchdog_factor=watchdog_factor,
                              checkpoints=False,
                              checkpoint_interval=checkpoint_interval,
                              checkpoint_store=checkpoint_store)
    baseline = run_campaign(spec, config, n, seed, spaces=spaces,
                            watchdog_factor=watchdog_factor,
                            checker=checker, progress=progress,
                            checkpoints=False)
    # Capture the golden stream outside the timed region: it is a
    # one-time cost per (workload, machine), amortised across shards
    # and processes by the CheckpointStore, so steady-state campaign
    # throughput is the honest comparison.
    checker.checkpoints = True
    checker.prepare_checkpoints()
    fastrun = run_campaign(spec, config, n, seed, spaces=spaces,
                           watchdog_factor=watchdog_factor,
                           checker=checker, progress=progress,
                           checkpoints=True)
    if campaign_payload([baseline]) != campaign_payload([fastrun]):
        raise SimulationError(
            f"checkpointed campaign diverged from the from-zero "
            f"campaign on {spec.name}/{config.n_alus} ALUs — the "
            f"fast-forward machinery is not exact")
    from_zero_s = baseline.timing["elapsed_s"]
    checkpointed_s = fastrun.timing["elapsed_s"]
    timing = {
        "workload": fastrun.workload,
        "machine": fastrun.machine,
        "n": n,
        "seed": seed,
        "from_zero": dict(baseline.timing),
        "checkpointed": dict(fastrun.timing),
        "speedup": (from_zero_s / checkpointed_s
                    if checkpointed_s > 0 else float("inf")),
    }
    return fastrun, timing


def measure_vector_throughput(
        spec: WorkloadSpec, config: MachineConfig, n: int, seed: int,
        spaces: Sequence[str] = DEFAULT_SPACES,
        watchdog_factor: float = 4.0,
        checkpoint_interval: Optional[int] = None,
        checkpoint_store=None,
        progress: Optional[Callable[[str], None]] = None,
        repeat: int = 1,
        ) -> Tuple[CampaignReport, Dict[str, object]]:
    """Run one campaign twice — scalar checkpointed, then vector — and
    compare.

    Both passes share one :class:`LockstepChecker` with checkpointing
    on (the PR 5 baseline), differing only in the classification
    engine, so the measured ratio isolates the batched vector walk.
    The two reports must be byte-identical (:func:`campaign_payload`
    forms are diffed; a mismatch raises).

    ``repeat`` reruns each pass that many times and keeps the fastest
    (best-of-N) — every rerun is still byte-compared, so extra repeats
    buy timing stability on noisy hosts without weakening the
    exactness check.

    Returns the vector report plus a timing record with both passes'
    timings and the ``speedup`` ratio.
    """
    from repro.errors import SimulationError

    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    checker = LockstepChecker(spec, config,
                              watchdog_factor=watchdog_factor,
                              checkpoints=True,
                              checkpoint_interval=checkpoint_interval,
                              checkpoint_store=checkpoint_store)
    # The golden stream is a shared one-time cost (amortised by the
    # CheckpointStore across both passes and any other campaign on the
    # same pair); capture it outside both timed regions.
    checker.prepare_checkpoints()
    scalar = vector = None
    for _ in range(repeat):
        trial = run_campaign(spec, config, n, seed, spaces=spaces,
                             watchdog_factor=watchdog_factor,
                             checker=checker, progress=progress,
                             checkpoints=True)
        if scalar is None \
                or trial.timing["elapsed_s"] < scalar.timing["elapsed_s"]:
            scalar = trial
        trial = run_campaign(spec, config, n, seed, spaces=spaces,
                             watchdog_factor=watchdog_factor,
                             checker=checker, progress=progress,
                             checkpoints=True, engine="vector")
        if campaign_payload([scalar]) != campaign_payload([trial]):
            raise SimulationError(
                f"vector campaign diverged from the scalar checkpointed "
                f"campaign on {spec.name}/{config.n_alus} ALUs — the "
                f"vector engine is not exact")
        if vector is None \
                or trial.timing["elapsed_s"] < vector.timing["elapsed_s"]:
            vector = trial
    scalar_s = scalar.timing["elapsed_s"]
    vector_s = vector.timing["elapsed_s"]
    timing = {
        "workload": vector.workload,
        "machine": vector.machine,
        "n": n,
        "seed": seed,
        "scalar": dict(scalar.timing),
        "vector": dict(vector.timing),
        "speedup": scalar_s / vector_s if vector_s > 0 else float("inf"),
    }
    return vector, timing


def render_vulnerability_table(reports: Sequence[CampaignReport]) -> str:
    """Render the per-benchmark vulnerability table as aligned text."""
    header = ("benchmark", "machine", "N", "masked", "detected", "hung",
              "SDC", "SDC rate")
    rows = [header]
    for report in reports:
        rows.append((
            report.workload,
            report.machine,
            str(report.n),
            str(report.counts.get(Outcome.MASKED.value, 0)),
            str(report.counts.get(Outcome.DETECTED.value, 0)),
            str(report.counts.get(Outcome.HUNG.value, 0)),
            str(report.counts.get(Outcome.SDC.value, 0)),
            f"{report.sdc_rate * 100:.1f}%",
        ))
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = []
    for number, row in enumerate(rows):
        lines.append("  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if number == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def campaign_payload(reports: Sequence[CampaignReport]) -> List[dict]:
    """JSON-friendly form of campaign reports (for the CLI and tools)."""
    return [
        {
            "workload": report.workload,
            "machine": report.machine,
            "n": report.n,
            "seed": report.seed,
            "reference_cycles": report.reference_cycles,
            "counts": dict(report.counts),
            "classified": report.classified,
            "sdc_rate": report.sdc_rate,
            "outcomes": [
                result_payload(result) for result in report.results
            ],
        }
        for report in reports
    ]
