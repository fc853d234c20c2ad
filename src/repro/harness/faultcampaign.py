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

import time
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
    #: Non-deterministic measurement context: the campaign's
    #: classification records folded by :func:`merge_records`.
    #: Deliberately excluded from :func:`campaign_payload` — the JSON
    #: report is diffed byte-for-byte across serial/parallel/
    #: checkpointed runs.
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


def classify_faults(checker: LockstepChecker, faults: Sequence[FaultSpec],
                    engine: str,
                    on_result: Optional[
                        Callable[[InjectionResult], None]] = None,
                    ) -> Tuple[List[InjectionResult], Dict[str, object]]:
    """Classify ``faults`` on ``checker``; returns ``(results, record)``.

    The one campaign body: :func:`run_campaign`'s in-process path and
    every serve campaign shard (:mod:`repro.serve.worker`) call it.
    ``engine="vector"`` hands the list to
    :meth:`~repro.reliability.LockstepChecker.run_batch`; any other
    engine runs each fault through
    :meth:`~repro.reliability.LockstepChecker.run_one`.  Results come
    back in input order, byte-identical either way; ``on_result`` sees
    each one as it lands (after the batch, for the vector engine).

    ``record`` is the campaign timing record — measurement context,
    never part of a payload.  It holds ``engine``, ``elapsed_s`` (this
    classification only), ``faults_run``, ``faults_per_s``,
    ``checkpointed`` and the checker's fast-forward deltas
    ``ff_restores``, ``ff_cycles_skipped`` and ``ff_convergence_cuts``;
    a vector record also holds ``run_batch``'s stats dict under its own
    key names.  :func:`merge_records` folds records into
    ``CampaignReport.timing``.
    """
    started = time.perf_counter()
    before = checker.fastforward_stats()
    if engine == "vector":
        results, record = checker.run_batch(faults)
        if on_result is not None:
            for result in results:
                on_result(result)
    else:
        results, record = [], {}
        for fault in faults:
            result = checker.run_one(fault)
            results.append(result)
            if on_result is not None:
                on_result(result)
    elapsed = time.perf_counter() - started
    after = checker.fastforward_stats()
    record.update({
        "engine": engine,
        "elapsed_s": elapsed,
        "faults_run": len(results),
        "faults_per_s": len(results) / elapsed if elapsed > 0 else 0.0,
        "checkpointed": bool(checker.checkpoints),
        "ff_restores": after["restores"] - before["restores"],
        "ff_cycles_skipped":
            after["cycles_skipped"] - before["cycles_skipped"],
        "ff_convergence_cuts":
            after["convergence_cuts"] - before["convergence_cuts"],
    })
    return results, record


def merge_records(records: Sequence[Dict[str, object]],
                  elapsed_s: float) -> Dict[str, object]:
    """``CampaignReport.timing``: classification records folded into one.

    One record for a serial campaign, one per shard for a sharded one
    (see :func:`classify_faults`).  Counters add up, and so do the
    per-reason ``retired`` counts; ``checkpointed`` holds if it held for
    any record; the first ``engine_downgrade_reason`` wins.
    ``elapsed_s`` and ``faults_per_s`` become the whole campaign's wall
    clock.  A vector campaign also gets ``vector_occupancy`` and
    ``wasted_retired_cycles``.
    """
    timing: Dict[str, object] = {}
    for record in records:
        for key, value in record.items():
            if key not in timing:
                timing[key] = dict(value) if isinstance(value, dict) \
                    else value
            elif isinstance(value, dict):
                merged = timing[key]
                for reason, count in value.items():
                    merged[reason] = merged.get(reason, 0) + count
            elif isinstance(value, bool):
                timing[key] = timing[key] or value
            elif isinstance(value, (int, float)):
                timing[key] += value
            elif timing[key] is None:
                timing[key] = value
    capacity = timing.get("lane_capacity")
    if capacity is not None:
        # Occupancy counts only lanes that the engine classified:
        # cycles burnt by lanes that later retired to the scalar
        # checker are wasted work, reported under their own key so
        # utilisation is not overstated.
        wasted = timing["wasted_lane_cycles"]
        timing["vector_occupancy"] = ((timing["lane_cycles"] - wasted)
                                      / capacity if capacity else 0.0)
        timing["wasted_retired_cycles"] = (wasted / capacity
                                           if capacity else 0.0)
    timing["elapsed_s"] = elapsed_s
    timing["faults_per_s"] = (timing.get("faults_run", 0) / elapsed_s
                              if elapsed_s > 0 else 0.0)
    return timing


#: Keys a serve campaign outcome's meta carries besides its
#: classification record: the worker's checker-memo counters and the
#: executor's own annotations.
_JOB_META_KEYS = ("checker_memo_hit", "checker_memo", "worker", "degraded")


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
    enters the serve job digests.

    ``engine`` selects the classification path: ``"auto"`` runs every
    fault through the scalar checker; ``"vector"`` rides the batched
    vector engine (:mod:`repro.core.vector`) and retires inexact lanes
    to the scalar checker.  Like ``checkpoints`` it is a pure perf
    knob — outcome tables are byte-identical either way.

    Either way the faults are classified by :func:`classify_faults`,
    and the report's ``timing`` is :func:`merge_records` over its
    records: one for a serial campaign, one per shard otherwise.
    """
    if engine not in ("auto", "vector"):
        raise ValueError(
            f"unknown campaign engine {engine!r}: expected 'auto' or "
            f"'vector'")
    started = time.perf_counter()
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
        # Cached shards ran nothing here and carry no record.
        records = [{key: value for key, value in outcome.meta.items()
                    if key not in _JOB_META_KEYS}
                   for outcome in outcomes
                   if outcome.meta and "faults_run" in outcome.meta]
    else:
        if checker is None:
            if checkpoints is None:
                from repro.serve.worker import checkpoints_enabled

                checkpoints = checkpoints_enabled()
            checker = LockstepChecker(
                spec, config, watchdog_factor=watchdog_factor,
                checkpoints=checkpoints,
                checkpoint_interval=checkpoint_interval,
                checkpoint_store=checkpoint_store)
        elif checkpoints is not None:
            checker.checkpoints = checkpoints
        landed = 0

        def land(result: InjectionResult) -> None:
            nonlocal landed
            landed += 1
            if on_result is not None:
                on_result(result)
            if progress is not None and landed % 25 == 0:
                progress(f"{spec.name}: {landed}/{n} injections")

        results, record = classify_faults(
            checker, generate_faults(checker, n, seed, spaces), engine,
            on_result=land)
        reference_cycles = checker.reference_cycles
        records = [record]
    report = report_from_results(spec, config, n, seed, reference_cycles,
                                 results)
    report.timing = merge_records(records, time.perf_counter() - started)
    return report


#: The A/B comparisons :func:`measure_speedup` runs, by gate name:
#: ``(baseline pass, measured pass)``, each ``(label, engine,
#: checkpoints)``.  The checkpoint gate isolates the fast-forward
#: machinery; the vector gate isolates the batched vector walk against
#: the checkpointed scalar campaign it replaces.
AB_GATES: Dict[str, Tuple[Tuple[str, str, bool], ...]] = {
    "checkpoint": (("from-zero", "auto", False),
                   ("checkpointed", "auto", True)),
    "vector": (("scalar checkpointed", "auto", True),
               ("vector", "vector", True)),
}


def measure_speedup(
        gate: str, spec: WorkloadSpec, config: MachineConfig, n: int,
        seed: int,
        spaces: Sequence[str] = DEFAULT_SPACES,
        watchdog_factor: float = 4.0,
        checkpoint_interval: Optional[int] = None,
        checkpoint_store=None,
        progress: Optional[Callable[[str], None]] = None,
        repeat: int = 1,
        ) -> Tuple[CampaignReport, Dict[str, object]]:
    """Run one campaign as ``gate``'s baseline pass and measured pass
    (see :data:`AB_GATES`) and compare them.

    Both passes share one :class:`LockstepChecker` (same compile,
    golden model and reference run), so the ratio isolates what the
    gate toggles.  The golden checkpoint stream is captured before
    either pass, outside every timed region: it is a one-time cost per
    (workload, machine), amortised across shards and processes by the
    CheckpointStore, so steady-state throughput is the honest
    comparison.

    ``repeat`` runs the pair that many times and keeps each pass's
    fastest trial (best-of-N).  Every trial's :func:`campaign_payload`
    is diffed against the first and a mismatch raises: the speedup is
    only meaningful if the answers agree, and extra repeats buy timing
    stability on noisy hosts without weakening that check.

    Returns the measured pass's report and its timing record, extended
    with ``workload``, ``machine``, ``n``, ``seed``, the baseline
    pass's record under ``baseline`` and the ``speedup`` ratio.
    """
    from repro.errors import SimulationError

    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    passes = AB_GATES[gate]
    checker = LockstepChecker(spec, config,
                              watchdog_factor=watchdog_factor,
                              checkpoints=True,
                              checkpoint_interval=checkpoint_interval,
                              checkpoint_store=checkpoint_store)
    checker.prepare_checkpoints()
    best: List[Optional[CampaignReport]] = [None] * len(passes)
    reference = None
    for _ in range(repeat):
        for side, (label, engine, checkpoints) in enumerate(passes):
            trial = run_campaign(spec, config, n, seed, spaces=spaces,
                                 watchdog_factor=watchdog_factor,
                                 checker=checker, progress=progress,
                                 checkpoints=checkpoints, engine=engine)
            payload = campaign_payload([trial])
            if reference is None:
                reference = payload
            elif payload != reference:
                raise SimulationError(
                    f"{label} campaign diverged from the {passes[0][0]} "
                    f"campaign on {spec.name}/{config.n_alus} ALUs — the "
                    f"{label} pass is not exact")
            if best[side] is None or trial.timing["elapsed_s"] \
                    < best[side].timing["elapsed_s"]:
                best[side] = trial
    baseline, measured = best
    baseline_s = baseline.timing["elapsed_s"]
    measured_s = measured.timing["elapsed_s"]
    timing = dict(measured.timing)
    timing.update(
        workload=measured.workload, machine=measured.machine, n=n,
        seed=seed, baseline=dict(baseline.timing),
        speedup=(baseline_s / measured_s if measured_s > 0
                 else float("inf")))
    return measured, timing


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
