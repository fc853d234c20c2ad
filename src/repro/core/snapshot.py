"""Exact snapshot/restore and golden checkpoint streams for the EPIC core.

Fault-injection campaigns re-simulate the *fault-free prefix* of every
injected run from cycle 0 — under the instrumented engine, because the
fault injector forces it.  This module removes that cost:

* :class:`CoreSnapshot` captures the machine's complete state —
  GPR/predicate/BTR files including their parity-poison sets, data
  memory, the program counter, the statistics counters and any recorded
  traps — and restores it in place, so a run resumed from a snapshot is
  bit-identical to one that executed the prefix.
* :func:`capture_checkpoints` runs the *fault-free* program once (on
  the fast engine whenever it is eligible) and snapshots it at a grid
  of **quiescent cycles** — ``run(until_cycle=...)`` pause points where
  the pending write-back queue is empty, the trace engine's own
  empty-pending entry condition.  At such a point there is no
  microarchitectural state left to save: no write-back is in flight,
  the store buffer is empty, and stale forwarding ages can never equal
  a future cycle, so the snapshot is purely architectural *and* exact.
* :class:`CheckpointStore` is a content-addressed on-disk home for
  checkpoint streams, keyed like the serve result cache (machine
  configuration digest + program identity + repro code salt), so
  parallel campaign shards — separate processes — share one golden
  checkpoint stream per (workload, machine) pair.

Exactness argument
==================

Restoring the golden snapshot at cycle ``C <= min(fault.cycle)`` and
resuming under an injector is trajectory-identical to running the
injected machine from cycle 0:

* the fault-free prefix of the injected run *is* the golden run — the
  injector's hooks are no-ops before the first fault's cycle (state
  cursors only advance once ``fault.cycle <= cycle``, the stuck-at list
  is empty until a stuck fault applies);
* cycle budgets (``max_cycles``, the hang watchdog) are absolute cycle
  values checked before the pause test, so limit exceptions fire at the
  same cycle in segmented and uninterrupted runs;
* per-run working state reset at a resume (forwarding ages, write-back
  queues) is invisible, because quiescence means none of it was live.

The same quiescence argument powers the checker's *convergence cut*
(see :mod:`repro.reliability.lockstep`): if the injected run, paused at
a golden checkpoint's exact cycle with the injector quiescent and no
trap recorded, matches the golden snapshot's architectural state
bit-for-bit, its continuation is provably the reference continuation —
the run can be classified MASKED immediately with the reference's final
cycle count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.core.stats import SimStats
from repro.errors import SimulationError, TrapError
from repro.store import RecordStore, canonical_digest

#: Version of the on-disk checkpoint record schema; a mismatch
#: invalidates (a stale stream must never be restored as fresh).
CHECKPOINT_SCHEMA_VERSION = 2

#: One serialised trap: (message, cause, cycle, pc, slot).
TrapTuple = Tuple[str, str, int, int, int]


def _stats_payload(stats: SimStats) -> Dict[str, object]:
    payload: Dict[str, object] = {}
    for spec in fields(SimStats):
        value = getattr(stats, spec.name)
        payload[spec.name] = dict(value) if spec.name == "fu_busy" else value
    return payload


def _traps_payload(traps) -> List[TrapTuple]:
    return [(trap.raw_message, trap.cause, trap.cycle, trap.pc, trap.slot)
            for trap in traps]


@dataclass
class CoreSnapshot:
    """The complete state of one :class:`~repro.core.EpicProcessor`.

    Snapshots may only be captured on a *fresh* machine (never run) or
    one *paused* at a quiescent cycle by ``run(until_cycle=...)`` — the
    two situations in which no write-back is in flight and the state
    below is the whole machine.  Restoring (:meth:`apply`) mutates the
    target's storage in place, which keeps the fast/trace engines'
    pre-bound references (they alias the raw value lists) valid.
    """

    cycle: int
    pc: int
    gpr: List[int]
    pred: List[int]
    btr: List[int]
    gpr_poison: FrozenSet[int]
    pred_poison: FrozenSet[int]
    btr_poison: FrozenSet[int]
    mem: List[int]
    mem_poison: FrozenSet[int]
    stats: Dict[str, object]
    traps: List[TrapTuple] = field(default_factory=list)

    # -- capture / restore ---------------------------------------------

    @classmethod
    def capture(cls, cpu) -> "CoreSnapshot":
        if cpu.last_engine and not cpu._paused:
            raise SimulationError(
                "snapshot requires a fresh machine or one paused at a "
                "quiescent cycle (run(until_cycle=...)); a completed or "
                "aborted run cannot be snapshotted for resume"
            )
        return cls(
            cycle=cpu._resume_cycle,
            pc=cpu._resume_pc,
            gpr=list(cpu.gpr._values),
            pred=list(cpu.pred._values),
            btr=list(cpu.btr._values),
            gpr_poison=frozenset(cpu.gpr._poisoned),
            pred_poison=frozenset(cpu.pred._poisoned),
            btr_poison=frozenset(cpu.btr._poisoned),
            mem=list(cpu.memory._words),
            mem_poison=frozenset(cpu.memory._poisoned),
            stats=_stats_payload(cpu.stats),
            traps=_traps_payload(cpu.traps),
        )

    def apply(self, cpu) -> None:
        """Restore this state into ``cpu``; the next run resumes here."""
        if len(cpu.gpr._values) != len(self.gpr) \
                or len(cpu.pred._values) != len(self.pred) \
                or len(cpu.btr._values) != len(self.btr) \
                or len(cpu.memory._words) != len(self.mem):
            raise SimulationError(
                "snapshot does not fit this machine: register-file or "
                "memory sizes differ (wrong config or mem_words?)"
            )
        # In-place slice/set mutation: the specialised engines bind the
        # raw lists at build time and must observe the restored values.
        cpu.gpr._values[:] = self.gpr
        cpu.pred._values[:] = self.pred
        cpu.btr._values[:] = self.btr
        cpu.memory._words[:] = self.mem
        cpu.gpr._poisoned.clear()
        cpu.gpr._poisoned.update(self.gpr_poison)
        cpu.pred._poisoned.clear()
        cpu.pred._poisoned.update(self.pred_poison)
        cpu.btr._poisoned.clear()
        cpu.btr._poisoned.update(self.btr_poison)
        cpu.memory._poisoned.clear()
        cpu.memory._poisoned.update(self.mem_poison)
        for spec in fields(SimStats):
            value = self.stats[spec.name]
            setattr(cpu.stats, spec.name,
                    dict(value) if spec.name == "fu_busy" else value)
        cpu.traps[:] = [
            TrapError(message, cause=cause, cycle=cycle, pc=pc, slot=slot)
            for message, cause, cycle, pc, slot in self.traps
        ]
        cpu._paused = True
        cpu._resume_cycle = self.cycle
        cpu._resume_pc = self.pc

    # -- comparison ----------------------------------------------------

    def matches_state(self, cpu) -> bool:
        """Exact architectural equality against a *paused* processor.

        Early-exit list comparisons ordered cheapest-first; the result
        is exactly ``state_hash() == state-hash-of(cpu)`` without the
        hashing cost on the per-checkpoint hot path.
        """
        return (cpu._resume_pc == self.pc
                and cpu.gpr._values == self.gpr
                and cpu.pred._values == self.pred
                and cpu.btr._values == self.btr
                and cpu.gpr._poisoned == self.gpr_poison
                and cpu.pred._poisoned == self.pred_poison
                and cpu.btr._poisoned == self.btr_poison
                and cpu.memory._poisoned == self.mem_poison
                and cpu.memory._words == self.mem)

    def state_hash(self) -> str:
        """Digest of the architectural state (pc, files, poison, memory).

        Statistics and the cycle number are excluded: two runs in the
        same architectural state continue identically regardless of how
        they got there.
        """
        digest = hashlib.sha256()
        canonical = (
            self.pc, self.gpr, self.pred, self.btr,
            sorted(self.gpr_poison), sorted(self.pred_poison),
            sorted(self.btr_poison), self.mem, sorted(self.mem_poison),
        )
        digest.update(repr(canonical).encode("utf-8"))
        return digest.hexdigest()

    # -- JSON round-trip (sparse memory against a base image) ----------

    def to_payload(self, base_mem: List[int]) -> Dict[str, object]:
        """JSON form; memory stored as a delta against ``base_mem``."""
        delta = {
            str(address): word
            for address, (word, base) in enumerate(zip(self.mem, base_mem))
            if word != base
        }
        return {
            "cycle": self.cycle,
            "pc": self.pc,
            "gpr": list(self.gpr),
            "pred": list(self.pred),
            "btr": list(self.btr),
            "gpr_poison": sorted(self.gpr_poison),
            "pred_poison": sorted(self.pred_poison),
            "btr_poison": sorted(self.btr_poison),
            "mem_delta": delta,
            "mem_poison": sorted(self.mem_poison),
            "stats": dict(self.stats),
            "traps": [list(trap) for trap in self.traps],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object], base_mem: List[int],
                     config) -> "CoreSnapshot":
        """Inverse of :meth:`to_payload` for a machine of ``config``.

        Raises ``ValueError`` (or ``KeyError``/``TypeError`` on a
        missing or mistyped field) unless the payload is a state such a
        machine can hold: register files of the configured sizes,
        every GPR and memory word in ``[0, mask]`` with ``r0`` zero —
        the specialised engines rely on that — and memory addresses in
        range in canonical decimal form.
        """
        limit = config.mask + 1
        mem = list(base_mem)
        delta = payload["mem_delta"]
        if not isinstance(delta, dict):
            raise TypeError("memory delta is not a mapping")
        for address, word in delta.items():
            index = int(address)
            if str(index) != address or not 0 <= index < len(mem):
                raise ValueError(f"memory address {address!r} out of range")
            mem[index] = _checked_word(word, limit)
        gpr = _checked_words(payload["gpr"], config.n_gprs, limit, "GPR")
        if gpr[0]:
            raise ValueError("r0 holds a non-zero value")
        stats = dict(payload["stats"])
        missing = {spec.name for spec in fields(SimStats)} - set(stats)
        if missing:
            raise ValueError(f"stats lack {sorted(missing)}")
        stats["fu_busy"] = dict(stats["fu_busy"])
        traps = [tuple(trap) for trap in payload["traps"]]
        if any(len(trap) != 5 for trap in traps):
            raise ValueError("malformed trap record")
        return cls(
            cycle=_checked_word(payload["cycle"], None),
            pc=_checked_word(payload["pc"], None),
            gpr=gpr,
            pred=_checked_words(payload["pred"], config.n_preds, 2,
                                "predicate"),
            btr=_checked_words(payload["btr"], config.n_btrs, None, "BTR"),
            gpr_poison=_checked_indices(payload["gpr_poison"],
                                        config.n_gprs),
            pred_poison=_checked_indices(payload["pred_poison"],
                                         config.n_preds),
            btr_poison=_checked_indices(payload["btr_poison"],
                                        config.n_btrs),
            mem=mem,
            mem_poison=_checked_indices(payload["mem_poison"], len(mem)),
            stats=stats,
            traps=traps,
        )


def _checked_word(value, limit: Optional[int]) -> int:
    """``value`` if it is an int in ``[0, limit)`` (``None``: unbounded)."""
    if type(value) is not int or value < 0 \
            or (limit is not None and value >= limit):
        raise ValueError(f"{value!r} is not a word in [0, {limit})")
    return value


def _checked_words(values, count: int, limit: Optional[int],
                   what: str) -> List[int]:
    values = [_checked_word(value, limit) for value in values]
    if len(values) != count:
        raise ValueError(f"{len(values)} {what} values, not {count}")
    return values


def _checked_indices(values, count: int) -> FrozenSet[int]:
    return frozenset(_checked_word(value, count) for value in values)


@dataclass
class CheckpointStream:
    """One golden run's checkpoints, ascending by cycle (first at 0)."""

    interval: int
    reference_cycles: int
    snapshots: List[CoreSnapshot]

    def __len__(self) -> int:
        return len(self.snapshots)

    def nearest(self, cycle: int) -> Optional[CoreSnapshot]:
        """The latest checkpoint at or before ``cycle`` (None if none)."""
        best = None
        for snap in self.snapshots:
            if snap.cycle > cycle:
                break
            best = snap
        return best

    def after(self, cycle: int) -> Iterator[CoreSnapshot]:
        """Checkpoints strictly after ``cycle``, ascending."""
        for snap in self.snapshots:
            if snap.cycle > cycle:
                yield snap


def capture_checkpoints(config, program, mem_words: int, interval: int,
                        max_cycles: int = 200_000_000) -> CheckpointStream:
    """Run the fault-free program once, snapshotting every ~``interval``
    cycles at quiescent pause points.

    The capture run uses ``engine="auto"`` — the fast path whenever the
    program is eligible — so building a stream costs far less than one
    instrumented run.  Checkpoint cycles land at the first quiescent
    cycle at or after each target, so actual spacing can exceed
    ``interval`` (and a program with no quiescent window simply yields
    fewer checkpoints; the cycle-0 snapshot always exists).
    """
    from repro.core.machine import EpicProcessor

    if interval < 1:
        raise SimulationError("checkpoint interval must be >= 1 cycle")
    cpu = EpicProcessor(config, program, mem_words=mem_words)
    snapshots = [CoreSnapshot.capture(cpu)]
    target = interval
    while True:
        result = cpu.run(max_cycles=max_cycles, until_cycle=target)
        if result.halted:
            return CheckpointStream(interval=interval,
                                    reference_cycles=result.cycles,
                                    snapshots=snapshots)
        snapshots.append(CoreSnapshot.capture(cpu))
        target = result.cycles + interval


def program_digest(config, program) -> str:
    """Content identity of a loaded program under ``config``.

    Hashes the *encoded* instruction words (padded to the issue width)
    plus the data image, entry point and datapath width — the bits that
    decide every cycle of execution.  Falls back to the textual listing
    for programs the encoder cannot round-trip (e.g. hand-built bundles
    outside the encodable space).
    """
    digest = hashlib.sha256()
    digest.update(f"entry={program.entry};width={config.datapath_width};"
                  .encode("utf-8"))
    try:
        from repro.isa.encoding import InstructionFormat

        fmt = InstructionFormat(config)
        n_bytes = (fmt.instruction_bits + 7) // 8
        for bundle in program.bundles:
            for instruction in bundle.padded(config.issue_width).slots:
                digest.update(fmt.encode(instruction)
                              .to_bytes(n_bytes, "little"))
            digest.update(b";")
    except Exception:
        digest.update(program.listing().encode("utf-8"))
    digest.update(b"|data|")
    digest.update(repr(program.data).encode("utf-8"))
    return digest.hexdigest()


def _base_image(config, program, mem_words: int) -> List[int]:
    """The initial data-memory contents (what a fresh machine holds)."""
    mask = config.mask
    base = [word & mask for word in program.data]
    base.extend([0] * (mem_words - len(base)))
    return base


class CheckpointStore(RecordStore):
    """Content-addressed on-disk store of golden checkpoint streams.

    A :class:`~repro.store.RecordStore`, like the serve result cache,
    keyed by the machine configuration's canonical form, the program's
    content identity, the memory size and the checkpoint interval; the
    store checks the code salt, so a stale golden stream never
    fast-forwards a campaign.
    """

    def __init__(self, root: str, salt: Optional[str] = None):
        super().__init__(root, CHECKPOINT_SCHEMA_VERSION, salt)

    def key(self, config, program, mem_words: int, interval: int) -> str:
        return canonical_digest({
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "config": config.canonical(),
            "program": program_digest(config, program),
            "mem_words": mem_words,
            "interval": interval,
        })

    def get(self, config, program, mem_words: int,
            interval: int) -> Optional[CheckpointStream]:
        """The stored stream, or None; a record whose snapshots are not
        states this machine can hold is invalidated as corrupt."""

        def decode(payload) -> CheckpointStream:
            base = _base_image(config, program, mem_words)
            return CheckpointStream(
                interval=payload["interval"],
                reference_cycles=payload["reference_cycles"],
                snapshots=[CoreSnapshot.from_payload(entry, base, config)
                           for entry in payload["snapshots"]],
            )

        return self.read(self.key(config, program, mem_words, interval),
                         decode)

    def put(self, config, program, mem_words: int,
            stream: CheckpointStream) -> None:
        base = _base_image(config, program, mem_words)
        self.write(self.key(config, program, mem_words, stream.interval), {
            "interval": stream.interval,
            "reference_cycles": stream.reference_cycles,
            "snapshots": [snap.to_payload(base)
                          for snap in stream.snapshots],
        })
