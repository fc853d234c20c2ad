"""Lockstep divergence checking against the IR-interpreter golden model.

Every injected run is compared, after the fact, with the program the
compiler *meant* to execute: the IR interpreter
(:mod:`repro.ir.interp`) runs the same module the EPIC binary was
compiled from and supplies the golden architectural outputs (the
workload's named global arrays plus the checksum return value).  The
checker then classifies each run into exactly one outcome:

* **masked** — the machine halted normally and every architectural
  output matches the golden model; the fault had no visible effect.
* **detected** — an architectural trap fired (illegal instruction,
  out-of-bounds access, register-port overflow, parity error) or the
  machine otherwise refused to continue; the hardware *knows* something
  went wrong.
* **hung** — the watchdog cut the run off after it blew far past the
  fault-free cycle count (fault-induced livelock or runaway loop).
* **sdc** — silent data corruption: the machine halted normally but an
  output differs from the golden model.  The worst case — nothing
  noticed, wrong answer.

This mirrors the classic FPGA fault-injection methodology (and the
golden-model functional-test harness of Rodrigues & Cardoso): run the
design against a reference executor and diff the observable state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.backend import compile_ir_to_epic
from repro.config import MachineConfig
from repro.core import EpicProcessor
from repro.core.snapshot import CheckpointStore, capture_checkpoints
from repro.errors import (
    CycleLimitExceeded,
    SimulationError,
    TrapError,
)
from repro.ir.interp import Interpreter
from repro.reliability.fault import FaultInjector, FaultSpec
from repro.workloads import WorkloadSpec

#: Checkpoint spacing defaults: aim for ~``_CHECKPOINT_COUNT`` golden
#: checkpoints per workload but never space them closer than
#: ``_MIN_CHECKPOINT_INTERVAL`` cycles (a snapshot costs more than
#: simulating a few dozen cycles).
_MIN_CHECKPOINT_INTERVAL = 64
_CHECKPOINT_COUNT = 24


class Outcome(enum.Enum):
    """Classification of one injected run (see module docstring)."""

    MASKED = "masked"
    DETECTED = "detected"
    HUNG = "hung"
    SDC = "sdc"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class InjectionResult:
    """One injected run, classified."""

    fault: Optional[FaultSpec]
    outcome: Outcome
    detail: str
    cycles: int
    trap_cause: Optional[str] = None

    def __str__(self) -> str:
        fault = self.fault.describe() if self.fault else "no fault"
        return f"{fault}: {self.outcome.value} ({self.detail})"


class LockstepChecker:
    """Compile once, run the golden model once, then classify many runs.

    The expensive parts — MiniC -> IR -> EPIC compilation, the IR
    interpreter's golden execution, and the fault-free reference run —
    happen in the constructor; each :meth:`run_one` call then costs one
    simulator run.  The fault-free reference doubles as a self-check
    (its outputs must match the golden model exactly) and sizes the
    watchdog: an injected run is declared *hung* once it exceeds
    ``watchdog_factor`` times the reference cycle count.
    """

    def __init__(self, spec: WorkloadSpec, config: MachineConfig,
                 watchdog_factor: float = 4.0,
                 max_cycles: int = 200_000_000,
                 checkpoints: bool = True,
                 checkpoint_interval: Optional[int] = None,
                 checkpoint_store: Optional[CheckpointStore] = None):
        from repro.lang.compile import compile_minic  # local: avoid cycle

        self.spec = spec
        self.config = config
        self.max_cycles = max_cycles
        module = compile_minic(spec.source)
        self.compilation = compile_ir_to_epic(module, config)

        interpreter = Interpreter(module, spec.mem_words)
        self.golden_return = interpreter.call("main")
        self.golden_outputs: Dict[str, List[int]] = {
            name: interpreter.read_global(name)[:len(expected)]
            for name, expected in spec.expected.items()
        }

        reference = EpicProcessor(config, self.compilation.program,
                                  mem_words=spec.mem_words)
        result = reference.run(max_cycles=max_cycles)
        mismatch = self.diff_outputs(reference)
        if mismatch:
            raise SimulationError(
                f"lockstep baseline broken on {spec.name}: {mismatch}")
        self.reference_cycles = result.cycles
        self.watchdog_cycles = int(result.cycles * watchdog_factor) + 1024

        #: Checkpoint fast-forwarding (see :mod:`repro.core.snapshot`).
        #: ``checkpoints`` may be toggled at any time; the golden
        #: checkpoint stream is built lazily on the first injected run
        #: that can use it.  A reference run that traps disables the
        #: machinery outright: the convergence cut assumes a trap-free
        #: golden trajectory.
        self.checkpoints = checkpoints
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_store = checkpoint_store
        self._checkpoints_ok = not result.traps
        self._stream = None
        self._campaign_cpu = None
        self._vector = None
        self._ifetch_fmt = None
        #: Fast-forward telemetry, cumulative over :meth:`run_one` calls.
        self.ff_restores = 0
        self.ff_cycles_skipped = 0
        self.ff_convergence_cuts = 0

    # -- checkpointing -----------------------------------------------------

    def fastforward_stats(self) -> Dict[str, int]:
        """Cumulative fast-forward counters (for campaign timing)."""
        return {
            "restores": self.ff_restores,
            "cycles_skipped": self.ff_cycles_skipped,
            "convergence_cuts": self.ff_convergence_cuts,
            "checkpoints": len(self._stream) if self._stream else 0,
        }

    def prepare_checkpoints(self) -> bool:
        """Build (or fetch) the golden checkpoint stream eagerly.

        Returns whether checkpointing is active.  Useful before forking
        campaign workers, so they inherit the stream instead of each
        rebuilding it.
        """
        if not (self.checkpoints and self._checkpoints_ok):
            return False
        self._checkpoint_stream()
        return True

    def _checkpoint_stream(self):
        """The golden checkpoint stream (built or fetched on demand)."""
        if self._stream is None:
            interval = self.checkpoint_interval
            if interval is None:
                interval = max(_MIN_CHECKPOINT_INTERVAL,
                               self.reference_cycles // _CHECKPOINT_COUNT)
            program = self.compilation.program
            stream = None
            if self.checkpoint_store is not None:
                stream = self.checkpoint_store.get(
                    self.config, program, self.spec.mem_words, interval)
            if stream is None:
                stream = capture_checkpoints(
                    self.config, program, self.spec.mem_words, interval,
                    max_cycles=self.max_cycles)
                if self.checkpoint_store is not None:
                    self.checkpoint_store.put(
                        self.config, program, self.spec.mem_words, stream)
            if stream.reference_cycles != self.reference_cycles:
                raise SimulationError(
                    f"golden checkpoint stream disagrees with the "
                    f"reference run ({stream.reference_cycles} vs "
                    f"{self.reference_cycles} cycles); stale store?")
            self._stream = stream
        return self._stream

    def _campaign_machine(self) -> EpicProcessor:
        """One persistent machine reused across injected runs.

        Every run starts by restoring a golden snapshot, which resets
        the *complete* machine state in place, so reuse is exact — and
        it lets the predecoded bundles and the specialised fast engine
        (compiled on the first post-quiescence handoff) amortise over
        the whole campaign instead of being rebuilt per fault.
        """
        if self._campaign_cpu is None:
            self._campaign_cpu = EpicProcessor(
                self.config, self.compilation.program,
                mem_words=self.spec.mem_words)
        return self._campaign_cpu

    # -- output comparison -------------------------------------------------

    def diff_outputs(self, cpu: EpicProcessor) -> Optional[str]:
        """First divergence between ``cpu`` and the golden model, if any.

        Reads bypass the parity network (``peek``): the diff is an
        oracle outside the machine, and a poisoned-but-unread output
        word must still count as corrupted data.
        """
        symbols = self.compilation.symbols
        for name, golden in self.golden_outputs.items():
            base = symbols[name]
            for offset, expected in enumerate(golden):
                got = cpu.memory.peek(base + offset)
                if got != expected:
                    return (f"output {name}[{offset}] = {got:#x}, "
                            f"golden {expected:#x}")
        if self.golden_return is not None:
            expected = self.golden_return & self.config.mask
            got = cpu.gpr.peek(2)  # r2 carries main's return value
            if got != expected:
                return f"checksum {got:#x}, golden {expected:#x}"
        return None

    # -- batched (vector-engine) classification ----------------------------

    def _vector_engine(self):
        """The cached :class:`repro.core.vector.VectorEngine`."""
        if self._vector is None:
            from repro.core.vector import VectorEngine

            symbols = self.compilation.symbols
            outputs = [(name, symbols[name], tuple(golden))
                       for name, golden in self.golden_outputs.items()]
            self._vector = VectorEngine(
                self.config, self.compilation.program,
                mem_words=self.spec.mem_words,
                outputs=outputs,
                golden_checksum=self.golden_return,
                reference_cycles=self.reference_cycles,
                watchdog_cycles=self.watchdog_cycles,
                max_cycles=self.max_cycles)
        return self._vector

    def _ifetch_outcome(self, cycle: int, pc: int, fault: FaultSpec):
        """Resolve an instruction-fetch fault at the fetch it corrupts.

        Two resolutions, both fully determined at the fetch (the fault
        is one-shot and machine state at the fetch is still golden):

        * the word no longer decodes and the trap policy is ``halt`` —
          the scalar run raises a ``TrapError`` before anything
          executes, so the outcome (DETECTED, the trap text, the fetch
          cycle) is a ``LaneOutcome`` right here;
        * the word still decodes into a different-but-legal bundle, or
          it no longer decodes but a non-halt policy records the trap
          and skips the bundle — either way the program is
          deterministically *rewritten* at this fetch: return a
          :class:`~repro.core.vector.RewalkTicket`, which the walk
          absorbs in-lane when it can and :meth:`run_batch` otherwise
          classifies with one scalar re-walk.
        """
        from repro.core.vector import LaneOutcome, RewalkTicket
        from repro.errors import TRAP_ILLEGAL_INSTRUCTION
        from repro.reliability.fault import corrupt_fetched_word

        if self._ifetch_fmt is None:
            from repro.isa.encoding import InstructionFormat
            from repro.mdes import Mdes

            mdes = Mdes(self.config)
            self._ifetch_fmt = (InstructionFormat(self.config, mdes.table),
                                mdes)
        fmt, mdes = self._ifetch_fmt
        corrupted, word, slot, error = corrupt_fetched_word(
            fmt, mdes, self.compilation.program, self.config.issue_width,
            pc, fault.index, fault.bit)
        if corrupted is not None or self.config.trap_policy != "halt":
            # Every rewritten fetch is transient: the injector consumes
            # an ifetch fault at its first fetch regardless of model
            # (``fetch_bundle`` advances past it), so stuck-at ifetch
            # faults corrupt exactly one bundle too.
            return RewalkTicket(slot, bundle=corrupted)
        trap = TrapError(
            f"corrupted instruction word {word:#x} does not decode: "
            f"{error}",
            cause=TRAP_ILLEGAL_INSTRUCTION, slot=slot,
        )
        trap.annotate(cycle, pc)
        return LaneOutcome("detected", str(trap), max(trap.cycle, 0),
                           trap_cause=trap.cause)

    def run_batch(self, faults: Sequence[FaultSpec],
                  lane_cap: Optional[int] = None):
        """Classify a batch of faults, vector-first.

        Chunks of up to ``lane_cap`` faults ride the vector engine
        (:mod:`repro.core.vector`); every lane the engine cannot
        classify *exactly* retires to :meth:`run_one`, so the returned
        results — in input order — are byte-identical to a pure-scalar
        campaign.  Returns ``(results, stats)``.

        Instruction-fetch faults that deterministically rewrite the
        program, and that the walk could not absorb in-lane, come back
        as :class:`~repro.core.vector.RewalkTicket` markers; each is
        classified with :meth:`run_one` and counted as a re-walk
        (``rewalk_lanes``, ``rewalk_lane_cycles``), not as a retired
        lane.

        The walk handles all trap policies: under each one a lane that
        would trap retires to :meth:`run_one` (``trap-risk``), which
        models the halt, the squashed bundle or the recorded trap.  It
        still requires a trap-free golden reference; when ineligible
        every fault runs scalar and ``stats["engine_downgrade_reason"]``
        says why.
        """
        from repro.core.vector import DEFAULT_LANES, RewalkTicket

        faults = list(faults)
        if lane_cap is None:
            lane_cap = DEFAULT_LANES
        stats: Dict[str, object] = {
            "vector_faults": 0, "scalar_faults": 0, "classified": 0,
            "activated": 0, "cuts": 0, "jumps": 0, "iterations": 0,
            "lane_cycles": 0, "wasted_lane_cycles": 0,
            "lane_capacity": 0, "rewalk_lanes": 0,
            "rewalk_lane_cycles": 0, "absorbed_lanes": 0,
            "retired": {}, "passes": 0,
            "engine_downgrade_reason": None,
        }
        if lane_cap <= 0:
            stats["engine_downgrade_reason"] = "lane-cap-disabled"
        elif not self._checkpoints_ok:
            stats["engine_downgrade_reason"] = "golden-run-traps"
        eligible = stats["engine_downgrade_reason"] is None
        results: List[Optional[InjectionResult]] = [None] * len(faults)
        retired: Dict[str, int] = stats["retired"]
        if eligible:
            engine = self._vector_engine()
            stream = None
            if self.checkpoints and self._checkpoints_ok:
                stream = self._checkpoint_stream()
            for start in range(0, len(faults), lane_cap):
                chunk = faults[start:start + lane_cap]
                outcomes, pass_stats = engine.run_pass(
                    chunk, stream=stream, ifetch=self._ifetch_outcome)
                stats["passes"] += 1
                for key, value in pass_stats.items():
                    if key == "retired":
                        for reason, count in value.items():
                            retired[reason] = retired.get(reason, 0) + count
                    else:
                        stats[key] += value
                for offset, outcome in enumerate(outcomes):
                    if outcome is None:
                        continue
                    fault = chunk[offset]
                    if isinstance(outcome, RewalkTicket):
                        result = self.run_one(fault)
                        stats["rewalk_lane_cycles"] += result.cycles
                    else:
                        result = InjectionResult(
                            fault, Outcome(outcome.outcome),
                            outcome.detail, outcome.cycles,
                            trap_cause=outcome.trap_cause)
                    results[start + offset] = result
        for position, fault in enumerate(faults):
            if results[position] is None:
                results[position] = self.run_one(fault)
                stats["scalar_faults"] += 1
        return results, stats

    # -- classification ----------------------------------------------------

    def run_one(self,
                fault: Union[FaultSpec, Sequence[FaultSpec], None]
                ) -> InjectionResult:
        """Run the workload with ``fault`` injected and classify it."""
        if fault is None:
            faults: List[FaultSpec] = []
            first = None
        elif isinstance(fault, FaultSpec):
            faults = [fault]
            first = fault
        else:
            faults = list(fault)
            first = faults[0] if faults else None

        injector = FaultInjector(faults)

        # Checkpoint fast-forward: the injector's hooks are no-ops
        # before its earliest fault cycle, so the run may start from
        # the latest golden checkpoint at or before it (exact — see
        # repro.core.snapshot).  Fault-free runs skip the machinery.
        stream = None
        first_cycle = injector.first_cycle
        if self.checkpoints and self._checkpoints_ok \
                and first_cycle is not None:
            stream = self._checkpoint_stream()
        if stream is not None:
            # nearest() always succeeds: a stream starts with the
            # cycle-0 snapshot, so the worst case is a plain cold start
            # on the (reused, fully restored) campaign machine.
            snap = stream.nearest(first_cycle)
            cpu = self._campaign_machine()
            cpu.restore(snap)
            cpu.injector = injector
            injector.attach(cpu)
            if snap.cycle > 0:
                self.ff_restores += 1
                self.ff_cycles_skipped += snap.cycle
        else:
            cpu = EpicProcessor(self.config, self.compilation.program,
                                mem_words=self.spec.mem_words,
                                injector=injector)
        try:
            result = None
            if stream is not None and faults:
                # Early engine handoff: pause at the first quiescent
                # cycle after the last scheduled fault.  If every
                # one-shot fault has been consumed and nothing is
                # stuck, the injector can never act again — detach it
                # so the remainder runs on the fast engine.
                handoff = max(f.cycle for f in faults) + 1
                if handoff > cpu._resume_cycle:
                    segment = cpu.run(max_cycles=self.max_cycles,
                                      watchdog_cycles=self.watchdog_cycles,
                                      until_cycle=handoff)
                    if segment.halted:
                        result = segment
                if result is None and injector.quiescent \
                        and cpu.injector is not None:
                    cpu.injector = None
            if result is None and stream is not None:
                # Segmented run with a convergence cut: pause at each
                # remaining golden checkpoint cycle; once the injector
                # can never fire again and the paused state equals the
                # golden snapshot bit-for-bit, the continuation is the
                # reference trajectory — classify MASKED immediately
                # with the reference's final cycle count.
                for snap in stream.after(cpu._resume_cycle):
                    segment = cpu.run(max_cycles=self.max_cycles,
                                      watchdog_cycles=self.watchdog_cycles,
                                      until_cycle=snap.cycle)
                    if segment.halted:
                        result = segment
                        break
                    if (segment.cycles == snap.cycle
                            and injector.quiescent
                            and not cpu.traps
                            and snap.matches_state(cpu)):
                        self.ff_convergence_cuts += 1
                        return InjectionResult(first, Outcome.MASKED,
                                               "outputs match",
                                               self.reference_cycles)
                    if cpu.injector is not None and injector.quiescent:
                        # Engine handoff: a quiescent injector's hooks
                        # are provably no-ops for the rest of the run,
                        # so detach it — run() then picks the fast
                        # engine when the program (and any planted
                        # parity poison) allows, falling back to the
                        # instrumented loop otherwise.  All engines are
                        # bit-identical, traps and budgets included.
                        cpu.injector = None
            if result is None:
                result = cpu.run(max_cycles=self.max_cycles,
                                 watchdog_cycles=self.watchdog_cycles)
        except CycleLimitExceeded as error:
            # HangDetected (the watchdog) or the outer safety net: either
            # way the run did not converge.
            return InjectionResult(first, Outcome.HUNG, str(error),
                                   max(error.cycle, 0))
        except TrapError as error:
            return InjectionResult(first, Outcome.DETECTED, str(error),
                                   max(error.cycle, 0),
                                   trap_cause=error.cause)
        except SimulationError as error:
            # The model refused to continue (e.g. a strict-NUAL check):
            # an anomaly the machinery noticed, so it counts as detected.
            return InjectionResult(first, Outcome.DETECTED,
                                   f"machine check: {error}",
                                   max(error.cycle, 0))

        if result.traps:
            trap = result.traps[0]
            return InjectionResult(first, Outcome.DETECTED,
                                   f"{len(result.traps)} trap(s), first: "
                                   f"{trap}",
                                   result.cycles, trap_cause=trap.cause)
        mismatch = self.diff_outputs(cpu)
        if mismatch:
            return InjectionResult(first, Outcome.SDC, mismatch,
                                   result.cycles)
        return InjectionResult(first, Outcome.MASKED, "outputs match",
                               result.cycles)
