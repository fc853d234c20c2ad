"""Deterministic, seed-driven fault injection for the EPIC core.

The paper's processor lives on an SRAM-based Virtex-II FPGA, where
single-event upsets (SEUs) in user state are the canonical reliability
threat.  :class:`FaultInjector` models them directly on the
architectural state the core exposes for the purpose:

* **GPR / predicate / BTR files** — a bit flip (SEU) or a persistently
  forced bit (stuck-at) in one register;
* **data memory** — the same, in one word of the external banks;
* **fetched instruction words** — one bit of an encoded instruction is
  flipped on its way through Fetch/Decode/Issue; the corrupted word is
  re-decoded, so the fault may turn into a different-but-legal
  operation, an illegal opcode (an ``illegal-instruction`` trap) or an
  operand index beyond the configured register files (a
  ``register-port-overflow`` trap).

The injector plugs into :class:`~repro.core.EpicProcessor` through two
hooks called from the run loop (``on_cycle`` and ``fetch_bundle``) —
no monkey-patching.  When no injector is installed the hooks cost one
``is not None`` test per cycle and the run is cycle-identical to a
build without the reliability subsystem.

Protection interaction: the machine configuration's
``regfile_protection`` / ``memory_protection`` knobs decide what an
injection does.  Under ``ecc`` a single-bit fault is corrected at the
injection site (logged, no architectural effect).  Under ``parity`` the
bit is flipped *and* the word is poisoned, so the next committed read
raises a ``parity-error`` trap.  Unprotected state simply takes the
flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.decode import PreBundle, predecode_bundle
from repro.errors import (
    EncodingError,
    SimulationError,
    TrapError,
    TRAP_ILLEGAL_INSTRUCTION,
)
from repro.isa.bundle import Bundle

#: Fault target spaces.
SPACE_GPR = "gpr"
SPACE_PRED = "pred"
SPACE_BTR = "btr"
SPACE_MEM = "mem"
SPACE_IFETCH = "ifetch"

FAULT_SPACES = (SPACE_GPR, SPACE_PRED, SPACE_BTR, SPACE_MEM, SPACE_IFETCH)

#: Fault models.
MODEL_SEU = "seu"
MODEL_STUCK0 = "stuck-at-0"
MODEL_STUCK1 = "stuck-at-1"

FAULT_MODELS = (MODEL_SEU, MODEL_STUCK0, MODEL_STUCK1)


def corrupt_fetched_word(fmt, mdes, program, issue_width: int, pc: int,
                         slot_hint: int, bit_hint: int):
    """Corrupt one encoded instruction of the bundle at ``pc``.

    The single source of truth for what an instruction-fetch fault does
    — used by :meth:`FaultInjector.fetch_bundle` (scalar runs) and by
    the vector engine's fetch-fault resolver, which must predict the
    scalar outcome exactly.  ``slot_hint``/``bit_hint`` are the raw
    fault fields; they wrap modulo the padded slot count and the
    encoded instruction width.

    Returns ``(prebundle, word, slot, error)``: the re-decoded bundle
    (or ``None`` when the corrupted word no longer decodes or no longer
    fits the machine's issue resources), the corrupted instruction
    word, the slot it sat in, and the decode error's message if any.
    Only the message is returned: held by a caller, the exception's
    traceback frames would form a reference cycle with the caller's
    own frame, keeping everything up the stack (a vector walk's
    lane-memory plane, for one) alive until the cyclic collector runs.
    """
    padded = program.bundles[pc].padded(issue_width)
    slot = slot_hint % len(padded.slots)
    bit = bit_hint % fmt.instruction_bits
    word = fmt.encode(padded.slots[slot]) ^ (1 << bit)
    try:
        slots = list(padded.slots)
        slots[slot] = fmt.decode(word)
        corrupted = predecode_bundle(Bundle(tuple(slots)), mdes, pc)
    except (EncodingError, SimulationError) as error:
        return None, word, slot, str(error)
    return corrupted, word, slot, None


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: where, which bit, when, and which model.

    ``index`` is a register number (``gpr``/``pred``/``btr``), a word
    address (``mem``), or a bundle slot (``ifetch``).  ``cycle`` is the
    earliest processor cycle at which the fault strikes; state faults
    are applied at the first simulated cycle >= ``cycle`` (stall cycles
    are not separately simulated), instruction-fetch faults corrupt the
    first bundle fetched at or after it.
    """

    space: str
    index: int
    bit: int
    cycle: int
    model: str = MODEL_SEU

    def describe(self) -> str:
        return (f"{self.model} {self.space}[{self.index}] bit {self.bit} "
                f"@ cycle {self.cycle}")


@dataclass(frozen=True)
class InjectionEvent:
    """What actually happened when a fault was applied."""

    fault: FaultSpec
    cycle: int
    #: ``flipped``, ``forced``, ``flipped+poisoned``, ``forced+poisoned``,
    #: ``corrected`` (ECC), ``no-storage`` (hardwired r0/p0),
    #: ``fetch-corrupted`` or ``fetch-illegal``.
    disposition: str


class FaultInjector:
    """Applies a fixed list of :class:`FaultSpec` to one processor run.

    An injector is single-use: it is bound to one
    :class:`~repro.core.EpicProcessor` via :meth:`attach` (done by the
    processor constructor) and carries per-run cursors.  The ``log``
    records every applied fault and its disposition.
    """

    def __init__(self, faults):
        faults = list(faults)
        for fault in faults:
            if fault.space not in FAULT_SPACES:
                raise SimulationError(
                    f"unknown fault space {fault.space!r}")
            if fault.model not in FAULT_MODELS:
                raise SimulationError(
                    f"unknown fault model {fault.model!r}")
            if fault.index < 0 or fault.bit < 0 or fault.cycle < 0:
                raise SimulationError(
                    f"fault fields must be non-negative: {fault}")
        order = {space: rank for rank, space in enumerate(FAULT_SPACES)}
        key = lambda f: (f.cycle, order[f.space], f.index, f.bit, f.model)
        self._state_faults = sorted(
            (f for f in faults if f.space != SPACE_IFETCH), key=key)
        self._ifetch_faults = sorted(
            (f for f in faults if f.space == SPACE_IFETCH), key=key)
        self.log: List[InjectionEvent] = []
        self._machine = None
        self._fmt = None
        self._stuck: List[FaultSpec] = []
        self._next_state = 0
        self._next_fetch = 0

    # -- campaign fast-forward hooks ---------------------------------------

    @property
    def first_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending fault (None when fault-free).

        Before this cycle the injector's hooks are provably no-ops, so
        a run may be fast-forwarded to any point at or before it (see
        :mod:`repro.core.snapshot`).
        """
        cycles = []
        if self._state_faults:
            cycles.append(self._state_faults[0].cycle)
        if self._ifetch_faults:
            cycles.append(self._ifetch_faults[0].cycle)
        return min(cycles) if cycles else None

    @property
    def quiescent(self) -> bool:
        """True once the injector can never touch the machine again:
        every one-shot fault has been consumed and no stuck-at bit is
        being re-asserted.  A prerequisite for the convergence cut — a
        state match against the golden run only proves identical
        continuation if no future injection can diverge it.
        """
        return (self._next_state >= len(self._state_faults)
                and self._next_fetch >= len(self._ifetch_faults)
                and not self._stuck)

    # -- machine binding ---------------------------------------------------

    def attach(self, machine) -> None:
        if self._machine is not None and self._machine is not machine:
            raise SimulationError(
                "a FaultInjector is single-use; build a new one per run")
        self._machine = machine
        config = machine.config
        for fault in self._state_faults:
            limit = {
                SPACE_GPR: config.n_gprs,
                SPACE_PRED: config.n_preds,
                SPACE_BTR: config.n_btrs,
                SPACE_MEM: len(machine.memory),
            }[fault.space]
            if fault.index >= limit:
                raise SimulationError(
                    f"fault target {fault.space}[{fault.index}] out of "
                    f"range (limit {limit})")

    def _target(self, space: str):
        machine = self._machine
        config = machine.config
        if space == SPACE_GPR:
            return machine.gpr, config.regfile_protection
        if space == SPACE_PRED:
            return machine.pred, config.regfile_protection
        if space == SPACE_BTR:
            return machine.btr, config.regfile_protection
        return machine.memory, config.memory_protection

    # -- run-loop hooks ----------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        """Apply state faults due at ``cycle``; re-assert stuck-at bits."""
        faults = self._state_faults
        while self._next_state < len(faults):
            fault = faults[self._next_state]
            if fault.cycle > cycle:
                break
            self._next_state += 1
            self._apply_state(fault, cycle)
        for fault in self._stuck:
            target, protection = self._target(fault.space)
            before = target.peek(fault.index)
            after = target.force_bit(
                fault.index, fault.bit, 1 if fault.model == MODEL_STUCK1 else 0)
            if after != before and protection == "parity":
                target.poison(fault.index)

    def _apply_state(self, fault: FaultSpec, cycle: int) -> None:
        target, protection = self._target(fault.space)
        if fault.space in (SPACE_GPR, SPACE_PRED) and fault.index == 0:
            # Hardwired zero / hardwired-true guard: no storage to upset.
            self.log.append(InjectionEvent(fault, cycle, "no-storage"))
            return
        if protection == "ecc":
            # SEC-DED corrects any single-bit error on the next read; the
            # scrubbed state is indistinguishable from no fault at all.
            self.log.append(InjectionEvent(fault, cycle, "corrected"))
            return
        if fault.model == MODEL_SEU:
            target.flip_bit(fault.index, fault.bit)
            disposition = "flipped"
        else:
            target.force_bit(
                fault.index, fault.bit, 1 if fault.model == MODEL_STUCK1 else 0)
            self._stuck.append(fault)
            disposition = "forced"
        if protection == "parity":
            target.poison(fault.index)
            disposition += "+poisoned"
        self.log.append(InjectionEvent(fault, cycle, disposition))

    def fetch_bundle(self, cycle: int, pc: int) -> Optional[PreBundle]:
        """Return a corrupted replacement for the bundle fetched at
        ``(cycle, pc)``, or ``None`` when no fetch fault is due.

        Raises a :class:`~repro.errors.TrapError` with the
        ``illegal-instruction`` cause when the corrupted word no longer
        decodes or no longer fits the machine's issue resources.
        """
        faults = self._ifetch_faults
        if self._next_fetch >= len(faults):
            return None
        fault = faults[self._next_fetch]
        if fault.cycle > cycle:
            return None
        self._next_fetch += 1

        machine = self._machine
        if self._fmt is None:
            from repro.isa.encoding import InstructionFormat

            self._fmt = InstructionFormat(machine.config, machine.mdes.table)
        corrupted, word, slot, error = corrupt_fetched_word(
            self._fmt, machine.mdes, machine.program,
            machine.config.issue_width, pc, fault.index, fault.bit)
        if corrupted is None:
            self.log.append(InjectionEvent(fault, cycle, "fetch-illegal"))
            raise TrapError(
                f"corrupted instruction word {word:#x} does not decode: "
                f"{error}",
                cause=TRAP_ILLEGAL_INSTRUCTION, slot=slot,
            ) from None
        self.log.append(InjectionEvent(fault, cycle, "fetch-corrupted"))
        return corrupted
