"""The cycle-accurate EPIC processor model (paper Fig. 2).

Timing model
============

* **2-stage pipeline.**  Stage 1 (Fetch/Decode/Issue) launches one bundle
  per cycle; stage 2 executes and writes back.  A *taken* branch is
  resolved in stage 2 and flushes stage 1, costing one bubble cycle.
* **Architecturally visible latencies** (the HPL-PD/Trimaran contract):
  an operation issued in cycle ``T`` with latency ``L`` makes its result
  visible to bundles issued at ``T+L`` or later.  The hardware does not
  interlock — the compiler guarantees consumers are scheduled far enough
  away, exactly as the paper's elcor-based toolchain does (§4.1).
  Operations in the *same* bundle read the old register values (VLIW
  parallel semantics).
* **Register-file port budget** (§3.2): the dual-port block-RAM file is
  driven by a controller at 4x the clock, allowing eight read/write
  operations per processor cycle.  "Exceeding this limit would result in
  processor stall.  Fortunately, this limitation is mitigated by
  forwarding of recently calculated results."  We count the distinct GPRs
  read by a bundle (reads satisfied by a value that completed in this
  very cycle are forwarded when forwarding is on) plus the GPR write-backs
  landing this cycle; every started group of eight beyond the first
  costs one stall cycle.
* **Memory bandwidth** (§3.2): four 32-bit banks behind a 2x-clock
  controller deliver the 256 bits/cycle needed for a full fetch.  When
  ``lsu_shares_fetch_bandwidth`` is set, data accesses steal fetch slots
  and stall the front end (ablation A-series); the stall is static per
  bundle, ``PreBundle.fetch_stall`` (:mod:`repro.core.decode`).
* **Predication** (§2): an operation whose guard predicate reads false is
  squashed — "only those instructions associated with a predicate
  register showing a true condition will be committed; others will be
  discarded."
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig
from repro.core import decode as dec
from repro.core.memory import DataMemory
from repro.core.regfile import BtrFile, GprFile, PredFile
from repro.core.stats import SimStats
from repro.errors import (
    CycleLimitExceeded,
    HangDetected,
    SimulationError,
    TrapError,
    TRAP_ILLEGAL_INSTRUCTION,
)
from repro.isa.bundle import Program
from repro.isa.semantics import to_signed
from repro.mdes import Mdes

#: Default data-memory size in 32-bit words (256 KiB).
DEFAULT_MEM_WORDS = 1 << 16

# Pending-write target spaces.
_SPACE_GPR = 0
_SPACE_PRED = 1
_SPACE_BTR = 2


@dataclass
class SimulationResult:
    """Outcome of one run: cycle count, statistics and final state.

    ``traps`` lists the architectural traps recorded during the run; it
    is only non-empty under the ``squash-bundle`` and
    ``record-and-continue`` trap policies (under ``halt`` the first trap
    propagates as a :class:`~repro.errors.TrapError` instead).
    """

    cycles: int
    stats: SimStats
    halted: bool
    traps: List[TrapError] = field(default_factory=list)

    def __str__(self) -> str:
        return f"SimulationResult(cycles={self.cycles}, halted={self.halted})"


class EpicProcessor:
    """One configured EPIC core, loaded with a program.

    >>> from repro.config import epic_config
    >>> from repro.asm import assemble
    >>> program = assemble("HALT", epic_config())
    >>> EpicProcessor(epic_config(), program).run().cycles
    1
    """

    def __init__(self, config: MachineConfig, program: Program,
                 mem_words: int = DEFAULT_MEM_WORDS,
                 strict_nual: bool = False,
                 injector=None,
                 trace_hotness: int = 16,
                 trace_cap: int = 64,
                 trace_cache=None):
        #: Strict NUAL checking: raise if any operation reads a location
        #: with a write still in flight from an *earlier* cycle.  The
        #: compiler guarantees this never happens (consumers are
        #: scheduled past producer latencies), so with compiled code this
        #: mode is a scheduler validator; hand-written assembly may rely
        #: on reading old values and should leave it off.
        self.strict_nual = strict_nual
        self.config = config
        self.program = program
        self.gpr = GprFile(config.n_gprs, config.datapath_width)
        self.pred = PredFile(config.n_preds)
        self.btr = BtrFile(config.n_btrs)
        if len(program.data) > mem_words:
            raise SimulationError(
                f"program data ({len(program.data)} words) exceeds memory "
                f"({mem_words} words)"
            )
        self.memory = DataMemory(mem_words, program.data, config.datapath_width)
        self.stats = SimStats()
        self._bundles = dec.predecode_program(program, config)
        self._mask = config.mask
        self._width = config.datapath_width
        #: Architectural traps recorded under the non-halting policies.
        self.traps: List[TrapError] = []
        #: Optional :class:`repro.reliability.FaultInjector`.  ``None``
        #: (the default) keeps the run loop on the exact pre-reliability
        #: path: the hook is a single ``is not None`` test per cycle and
        #: injection-free runs are cycle-identical.
        self.injector = injector
        if injector is not None:
            injector.attach(self)
        #: Lazily-built fast execution engine (``False`` once the
        #: program has been found ineligible for specialisation).
        self._fastsim = None
        #: Lazily-built trace engine (``False`` once found ineligible).
        self._tracesim = None
        #: Why the loaded program cannot use the specialised engines
        #: ("" while undetermined or when the fast path is available).
        self.fastpath_reject_reason = ""
        #: Which engine the most recent :meth:`run` actually used
        #: ("reference", "fast" or "trace"; "" before any run).
        self.last_engine = ""
        #: Trace-engine tuning: bundle-entry count at a taken-branch
        #: target before a superblock is compiled, and the maximum
        #: number of bundles chained into one trace.
        self._trace_hotness = trace_hotness
        self._trace_cap = trace_cap
        self._trace_cache = trace_cache
        #: Pause/resume state (see ``run(until_cycle=...)`` and
        #: :mod:`repro.core.snapshot`): when ``_paused`` is true the next
        #: :meth:`run` continues from ``(_resume_cycle, _resume_pc)``
        #: instead of ``(0, program.entry)``.  Set by a quiescent pause
        #: or by restoring a :class:`~repro.core.snapshot.CoreSnapshot`.
        self._paused = False
        self._resume_cycle = 0
        self._resume_pc = program.entry
        # Stack grows down from the top of data memory.
        self.gpr.write(1, mem_words)

    @cached_property
    def mdes(self) -> Mdes:
        """The machine description, built on first use: predecoding is
        memoised per program, so only fault injection's fetch
        corruption still needs it."""
        return Mdes(self.config)

    # -- operand access ----------------------------------------------------

    def _value(self, lit: bool, payload: int) -> int:
        if lit:
            return payload & self._mask
        return self.gpr.read(payload)

    # -- main loop ----------------------------------------------------------

    def run(self, max_cycles: int = 200_000_000,
            trace=None,
            watchdog_cycles: Optional[int] = None,
            engine: str = "auto",
            until_cycle: Optional[int] = None) -> SimulationResult:
        """Execute until HALT; returns the cycle count and statistics.

        ``trace``, if given, is called once per issued bundle with
        ``(cycle, pc, bundle)`` where ``bundle`` is the architectural
        :class:`~repro.isa.Bundle` that actually entered the pipeline —
        when a fault injector substitutes a corrupted fetch, the
        corrupted bundle is passed with ``corrupted=True`` as an extra
        keyword argument.  See :mod:`repro.core.trace` for a ready-made
        text tracer.

        Exhausting ``max_cycles`` raises
        :class:`~repro.errors.CycleLimitExceeded`.  ``watchdog_cycles``,
        if given, is a much tighter budget (fault-injection harnesses set
        it to a small multiple of the fault-free cycle count); blowing
        through it raises :class:`~repro.errors.HangDetected` so a
        fault-induced livelock is cut off long before the 200M-cycle
        safety net.

        ``engine`` selects the execution engine by name:

        * ``"auto"`` (the default) picks the pre-specialised fast path
          (:mod:`repro.core.fastpath`) whenever no tracer, no fault
          injector, no strict-NUAL checking and the ``halt`` trap
          policy are in effect, the instrumented loop otherwise;
        * ``"reference"`` forces the instrumented loop — the
          behavioural reference for differential testing;
        * ``"fast"`` demands the bundle-specialised engine and raises
          :class:`~repro.errors.SimulationError` (citing
          ``fastpath_reject_reason``) if it cannot honour the
          configuration or program;
        * ``"trace"`` demands the profile-guided superblock engine
          (:mod:`repro.core.tracejit`), with the same eligibility
          rules as the fast path.

        All engines are cycle-exact: they produce bit-identical cycle
        counts, statistics and architectural state.  ``last_engine``
        records which engine actually ran.

        ``until_cycle``, if given, pauses the run at the first
        *quiescent* cycle at or after it: a top-of-loop point with no
        write-back in flight (the trace engine's empty-pending entry
        condition), where machine state is purely architectural.  A
        paused run returns ``halted=False`` and the next :meth:`run`
        call resumes exactly where it stopped; the concatenated
        segments are bit-identical to one uninterrupted run.  Cycle
        budgets stay absolute (checked before the pause), so limit
        exceptions fire at the same cycle either way.  A run that halts
        before reaching ``until_cycle`` returns normally.
        """
        if engine not in ("auto", "fast", "trace", "reference"):
            raise SimulationError(
                f"unknown engine {engine!r}: expected one of auto, fast, "
                "trace, reference"
            )
        eligible = (trace is None and self.injector is None
                    and not self.strict_nual
                    and self.config.trap_policy == "halt"
                    and not (self.memory._poisoned or self.gpr._poisoned
                             or self.pred._poisoned or self.btr._poisoned))
        if engine in ("fast", "trace") and not eligible:
            raise SimulationError(
                "fast path requested but unavailable: it supports neither "
                "tracing, fault injection, strict NUAL checking, non-halt "
                "trap policies nor planted parity faults"
            )
        # Consume the resume point (a pause or a snapshot restore); a
        # completed run leaves the machine starting fresh again.
        start_cycle, start_pc = 0, self.program.entry
        if self._paused:
            start_cycle, start_pc = self._resume_cycle, self._resume_pc
            self._paused = False
        try:
            if engine != "reference" and eligible:
                sim = self._fast_sim()
                if sim is None and engine != "auto":
                    requested = ("trace engine" if engine == "trace"
                                 else "fast path")
                    raise SimulationError(
                        f"{requested} requested but the loaded program "
                        f"cannot be specialised: "
                        f"{self.fastpath_reject_reason}"
                    )
                if sim is not None:
                    # The trace engine runs the fast engine's loop with
                    # superblock dispatch switched on.
                    tracer = (self._trace_sim() if engine == "trace"
                              else None)
                    self.last_engine = "trace" if tracer else "fast"
                    cycles = sim.run(max_cycles=max_cycles,
                                     watchdog_cycles=watchdog_cycles,
                                     until_cycle=until_cycle,
                                     start_cycle=start_cycle,
                                     start_pc=start_pc, trace=tracer)
                    return SimulationResult(cycles=cycles, stats=self.stats,
                                            halted=not self._paused,
                                            traps=list(self.traps))
            self.last_engine = "reference"
            return self._run_instrumented(
                max_cycles=max_cycles, trace=trace,
                watchdog_cycles=watchdog_cycles, until_cycle=until_cycle,
                start_cycle=start_cycle, start_pc=start_pc)
        except SimulationError as stop:
            # Every engine stops at the exception's cycle: the stats
            # report how far the run got (watchdog hangs and machine
            # checks included).  An error without a cycle (a bad
            # request, a load-time error) leaves them alone.
            if stop.cycle >= 0:
                self.stats.cycles = stop.cycle
            raise

    def _fast_sim(self):
        """The cached fast engine, or ``None`` if the program is ineligible."""
        if self._fastsim is None:
            from repro.core.fastpath import specialise

            self._fastsim = specialise(self) or False
        return self._fastsim or None

    def _trace_sim(self):
        """The cached trace engine, or ``None`` if the program is ineligible.

        The trace engine is layered on the fast path (it reuses the
        specialised per-bundle functions for cold code), so eligibility
        is exactly fast-path eligibility.
        """
        if self._tracesim is None:
            fastsim = self._fast_sim()
            if fastsim is None:
                self._tracesim = False
            else:
                from repro.core.tracejit import TraceSim

                self._tracesim = TraceSim(
                    self, fastsim,
                    hotness=self._trace_hotness,
                    cap=self._trace_cap,
                    cache=self._trace_cache,
                )
        return self._tracesim or None

    # -- snapshot/restore ---------------------------------------------------

    def snapshot(self):
        """Capture the machine's exact state (see :mod:`repro.core.snapshot`).

        Only meaningful on a fresh machine or one paused at a quiescent
        cycle via ``run(until_cycle=...)`` — at those points all state
        is architectural (nothing in flight).
        """
        from repro.core.snapshot import CoreSnapshot

        return CoreSnapshot.capture(self)

    def restore(self, snap) -> None:
        """Restore a :class:`~repro.core.snapshot.CoreSnapshot` in place.

        The next :meth:`run` resumes from the snapshot's cycle and PC;
        the continuation is bit-identical to a run that paused there.
        """
        snap.apply(self)

    def _run_instrumented(self, max_cycles: int = 200_000_000,
                          trace=None,
                          watchdog_cycles: Optional[int] = None,
                          until_cycle: Optional[int] = None,
                          start_cycle: int = 0,
                          start_pc: Optional[int] = None
                          ) -> SimulationResult:
        """The fully-hooked reference loop (tracing, injection, strict NUAL).

        This is the behavioural definition of the machine; the fast path
        must match it bit-for-bit (see :mod:`repro.core.fastpath`).
        """
        config = self.config
        stats = self.stats
        bundles = self._bundles
        n_bundles = len(bundles)
        mask = self._mask
        width = self._width
        gpr = self.gpr
        pred = self.pred
        btr = self.btr
        memory = self.memory

        port_budget = config.regfile_ops_per_cycle
        model_ports = config.model_port_limit
        forwarding = config.forwarding
        branch_penalty = config.taken_branch_penalty

        # Pending write-backs: heap of (ready_cycle, seq, space, index, value).
        pending: List[Tuple[int, int, int, int, int]] = []
        seq = 0
        # Cycle at which each GPR last received a write-back (for
        # forwarding) — a flat list indexed by register number.
        n_gprs = config.n_gprs
        gpr_ready_at: List[int] = [-1] * n_gprs
        # Strict-NUAL bookkeeping: writes in flight from earlier cycles.
        strict = self.strict_nual
        inflight: Dict[Tuple[int, int], int] = {}

        def check_read(space: int, index: int, pc_now: int,
                       cycle_now: int) -> None:
            if inflight.get((space, index), 0):
                kind = {_SPACE_GPR: "r", _SPACE_PRED: "p",
                        _SPACE_BTR: "b"}[space]
                raise SimulationError(
                    f"NUAL violation: read of {kind}{index} while a write "
                    "is still in flight (scheduler bug?)",
                    cycle=cycle_now, pc=pc_now,
                )

        injector = self.injector
        policy = config.trap_policy
        traps = self.traps
        # Stores buffered within the current bundle: addresses are
        # validated (trapping) at issue time, the writes land when the
        # whole bundle has executed, so a squashed bundle leaves memory
        # untouched.  Same-bundle loads legally see pre-bundle memory
        # (VLIW parallel semantics), so this is unobservable otherwise.
        store_buffer: List[Tuple[int, int]] = []

        cycle = start_cycle
        pc = start_pc if start_pc is not None else self.program.entry
        halted = False

        while not halted:
            if cycle >= max_cycles:
                raise CycleLimitExceeded(
                    "cycle budget exhausted (runaway program?)",
                    cycle=cycle, pc=pc, limit=max_cycles,
                )
            if watchdog_cycles is not None and cycle >= watchdog_cycles:
                raise HangDetected(
                    "watchdog fired: execution ran far past the expected "
                    "cycle count",
                    cycle=cycle, pc=pc, limit=watchdog_cycles,
                )
            # Quiescent pause point: nothing in flight at all (checked
            # before the drain), so state is purely architectural.
            # Limit checks come first — budgets are absolute, and a
            # segmented run must trip them at the same cycle as an
            # uninterrupted one.
            if until_cycle is not None and cycle >= until_cycle \
                    and not pending:
                self._paused = True
                self._resume_cycle = cycle
                self._resume_pc = pc
                stats.cycles = cycle
                return SimulationResult(cycles=cycle, stats=stats,
                                        halted=False, traps=list(traps))
            if not 0 <= pc < n_bundles:
                raise TrapError(
                    "control fell outside the program (missing HALT or "
                    "corrupted branch target?)",
                    cause=TRAP_ILLEGAL_INSTRUCTION, cycle=cycle, pc=pc,
                )

            # Apply write-backs due by the start of this cycle; count those
            # landing exactly now against this cycle's port budget.
            writes_landing = 0
            while pending and pending[0][0] <= cycle:
                ready, _, space, index, value = heapq.heappop(pending)
                if strict:
                    inflight[(space, index)] -= 1
                try:
                    if space == _SPACE_GPR:
                        gpr.write(index, value)
                        gpr_ready_at[index] = ready
                        stats.regfile_writes += 1
                        if ready == cycle:
                            writes_landing += 1
                    elif space == _SPACE_PRED:
                        pred.write(index, value)
                    else:
                        btr.write(index, value)
                except TrapError as trap:
                    # Only reachable with corrupted state/instructions: a
                    # write-back addressed a port that does not exist.
                    trap.annotate(cycle, pc)
                    traps.append(trap)
                    stats.traps += 1
                    if policy == "halt":
                        raise
                except SimulationError as error:
                    # A machine check (e.g. a negative branch target)
                    # stops the run under every trap policy.
                    raise error.annotate(cycle, pc)

            bundle = bundles[pc]
            stats.bundles += 1

            seq_start = seq
            taken = False
            target = 0
            reads = 0
            forwarded = 0
            try:
                corrupted_fetch = False
                if injector is not None:
                    injector.on_cycle(cycle)
                    corrupted = injector.fetch_bundle(cycle, pc)
                    if corrupted is not None:
                        bundle = corrupted
                        corrupted_fetch = True
                # Trace the bundle that actually entered the pipeline: a
                # corrupted fetch substitutes for the program's own bundle
                # and is flagged so fault-campaign traces are honest.  (If
                # the corrupted word no longer decodes at all, the fetch
                # raises before anything executes and no line is traced.)
                if trace is not None:
                    if corrupted_fetch:
                        trace(cycle, pc, bundle.source, corrupted=True)
                    else:
                        trace(cycle, pc, self.program.bundles[pc])
                if strict:
                    for op in bundle.ops:
                        if op.guard:
                            check_read(_SPACE_PRED, op.guard, pc, cycle)
                        if not pred.read(op.guard):
                            continue
                        for reg in op.gpr_reads:
                            if reg:
                                check_read(_SPACE_GPR, reg, pc, cycle)
                        kind = op.kind
                        if kind in (dec.K_BR, dec.K_BRL):
                            check_read(_SPACE_BTR, op.s1, pc, cycle)
                        elif kind in (dec.K_BRCT, dec.K_BRCF):
                            check_read(_SPACE_BTR, op.s1, pc, cycle)
                            check_read(_SPACE_PRED, op.s2, pc, cycle)

                # ---- stage 1: read operands (reads see pre-cycle state) --
                for reg in bundle.gpr_read_set:
                    if reg == 0:
                        continue  # r0 is not a real port
                    # A corrupted fetch can name a register beyond the
                    # file; it still occupies a read port here and traps
                    # when stage 2 actually reads it.
                    if forwarding and reg < n_gprs \
                            and gpr_ready_at[reg] == cycle:
                        forwarded += 1
                    else:
                        reads += 1
                stats.regfile_reads += reads + forwarded
                stats.regfile_reads_forwarded += forwarded

                # ---- stage 2: execute ------------------------------------
                for op in bundle.ops:
                    kind = op.kind
                    if kind == dec.K_NOP:
                        stats.nops += 1
                        continue
                    if not pred.read(op.guard):
                        stats.ops_squashed += 1
                        continue
                    stats.ops_executed += 1
                    stats.note_fu(op.fu)

                    if kind == dec.K_ALU:
                        a = self._value(op.s1_lit, op.s1)
                        if op.fn is None:  # MOVE
                            result = a
                        else:
                            result = op.fn(a, self._value(op.s2_lit, op.s2),
                                           width)
                        seq += 1
                        heapq.heappush(
                            pending,
                            (cycle + op.latency, seq, _SPACE_GPR, op.d1,
                             result),
                        )
                    elif kind == dec.K_CUSTOM:
                        a = self._value(op.s1_lit, op.s1)
                        b = self._value(op.s2_lit, op.s2)
                        result = op.fn(a, b, mask)
                        seq += 1
                        heapq.heappush(
                            pending,
                            (cycle + op.latency, seq, _SPACE_GPR, op.d1,
                             result),
                        )
                    elif kind == dec.K_MOVI:
                        seq += 1
                        heapq.heappush(
                            pending,
                            (cycle + op.latency, seq, _SPACE_GPR, op.d1,
                             op.s1 & mask),
                        )
                    elif kind == dec.K_CMP:
                        a = self._value(op.s1_lit, op.s1)
                        b = self._value(op.s2_lit, op.s2)
                        condition = op.fn(a, b, width)
                        seq += 1
                        heapq.heappush(
                            pending,
                            (cycle + op.latency, seq, _SPACE_PRED, op.d1,
                             condition),
                        )
                        seq += 1
                        heapq.heappush(
                            pending,
                            (cycle + op.latency, seq, _SPACE_PRED, op.d2,
                             1 - condition),
                        )
                    elif kind in (dec.K_LOAD, dec.K_LOAD_SPEC):
                        base = self._value(op.s1_lit, op.s1)
                        offset = self._value(op.s2_lit, op.s2)
                        address = to_signed(base + offset & mask, width)
                        if kind == dec.K_LOAD_SPEC:
                            value = memory.read_speculative(address)
                        else:
                            value = memory.read(address)
                        stats.memory_reads += 1
                        seq += 1
                        heapq.heappush(
                            pending,
                            (cycle + op.latency, seq, _SPACE_GPR, op.d1,
                             value),
                        )
                    elif kind == dec.K_STORE:
                        base = self._value(op.s1_lit, op.s1)
                        offset = self._value(op.s2_lit, op.s2)
                        address = to_signed(base + offset & mask, width)
                        memory.check_write(address)
                        store_buffer.append((address, gpr.read(op.d1)))
                        stats.memory_writes += 1
                    elif kind == dec.K_PBR:
                        seq += 1
                        heapq.heappush(
                            pending,
                            (cycle + op.latency, seq, _SPACE_BTR, op.d1,
                             op.s1),
                        )
                    elif kind == dec.K_MOVGBP:
                        seq += 1
                        heapq.heappush(
                            pending,
                            (cycle + op.latency, seq, _SPACE_BTR, op.d1,
                             self._value(op.s1_lit, op.s1)),
                        )
                    elif kind == dec.K_BR:
                        stats.branches += 1
                        taken = True
                        target = btr.read(op.s1)
                    elif kind == dec.K_BRCT:
                        stats.branches += 1
                        if pred.read(op.s2):
                            taken = True
                            target = btr.read(op.s1)
                    elif kind == dec.K_BRCF:
                        stats.branches += 1
                        if not pred.read(op.s2):
                            taken = True
                            target = btr.read(op.s1)
                    elif kind == dec.K_BRL:
                        stats.branches += 1
                        taken = True
                        target = btr.read(op.s1)
                        seq += 1
                        heapq.heappush(
                            pending,
                            (cycle + op.latency, seq, _SPACE_GPR, op.d1,
                             (pc + 1) & mask),
                        )
                    elif kind == dec.K_HALT:
                        halted = True
                    else:  # pragma: no cover - defensive
                        raise SimulationError(
                            f"unhandled op kind {kind}", cycle=cycle, pc=pc
                        )
            except TrapError as trap:
                trap.annotate(cycle, pc)
                traps.append(trap)
                stats.traps += 1
                if policy == "halt":
                    raise
                if policy == "squash-bundle":
                    # Discard every effect of the trapping bundle: its
                    # buffered stores, its in-flight write-backs, its
                    # branch decision — then fall through to the next PC.
                    del store_buffer[:]
                    if seq != seq_start:
                        pending = [entry for entry in pending
                                   if entry[1] <= seq_start]
                        heapq.heapify(pending)
                    taken = False
                    halted = False
                # record-and-continue keeps whatever the bundle did before
                # the trap; the remaining slots of the bundle are skipped.

            # Buffered stores land now (addresses were validated at issue).
            if store_buffer:
                for address, value in store_buffer:
                    memory.write(address, value)
                del store_buffer[:]

            if strict:
                # Writes enqueued by THIS bundle become "in flight" only
                # for later cycles (same-cycle reads legally see the old
                # values).
                for entry in pending:
                    if entry[1] > seq_start:
                        key = (entry[2], entry[3])
                        inflight[key] = inflight.get(key, 0) + 1

            # ---- issue-cost accounting ----------------------------------
            extra = 0
            if model_ports:
                port_ops = reads + writes_landing
                if port_ops > port_budget:
                    port_stall = (port_ops + port_budget - 1) // port_budget - 1
                    stats.port_stall_cycles += port_stall
                    extra += port_stall
            if bundle.fetch_stall:
                stats.fetch_stall_cycles += bundle.fetch_stall
                extra += bundle.fetch_stall

            if taken and not halted:
                stats.branches_taken += 1
                stats.branch_bubble_cycles += branch_penalty
                extra += branch_penalty
                pc = target
            else:
                pc += 1

            cycle += 1 + extra

        # Drain outstanding write-backs so final state is architectural.
        while pending:
            _, _, space, index, value = heapq.heappop(pending)
            try:
                if space == _SPACE_GPR:
                    gpr.write(index, value)
                elif space == _SPACE_PRED:
                    pred.write(index, value)
                else:
                    btr.write(index, value)
            except TrapError as trap:
                trap.annotate(cycle, pc)
                traps.append(trap)
                stats.traps += 1
                if policy == "halt":
                    raise
            except SimulationError as error:
                raise error.annotate(cycle, pc)

        stats.cycles = cycle
        return SimulationResult(cycles=cycle, stats=stats, halted=True,
                                traps=list(traps))
