"""Pre-decoding of bundles into an efficient executable form.

The Fetch/Decode/Issue stage's *decode* work is done once per static
bundle instead of once per dynamic execution: each instruction becomes a
:class:`PreOp` with resolved semantics, operand accessors and latency.
This keeps the per-cycle simulation loop small without changing observable
behaviour.  Structural legality (at most N ALU ops, one LSU/CMPU/BRU op
per issue group — the conflicts the compiler must avoid, §4.1) is checked
here, at program-load time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.isa.bundle import Bundle, Program
from repro.isa.opcodes import FuClass, OpcodeTable
from repro.isa.operands import Btr, Lit, Pred, Reg
from repro.isa.semantics import ALU_SEMANTICS, CMP_SEMANTICS
from repro.mdes import Mdes

# Execution kinds dispatched by the core loop.
K_ALU = 0       # binary ALU op (includes MOVE with literal/register src)
K_MOVI = 1      # long-immediate move
K_CMP = 2       # CMPP family -> two predicate destinations
K_LOAD = 3
K_LOAD_SPEC = 4
K_STORE = 5
K_PBR = 6
K_MOVGBP = 7
K_BR = 8        # unconditional
K_BRCT = 9
K_BRCF = 10
K_BRL = 11
K_HALT = 12
K_NOP = 13
K_CUSTOM = 14


class PreOp:
    """One pre-decoded operation."""

    __slots__ = (
        "kind", "mnemonic", "fu", "fn", "latency",
        "d1", "d2", "s1_lit", "s1", "s2_lit", "s2", "guard",
        "gpr_reads", "writes_gpr",
    )

    def __init__(self, kind: int, mnemonic: str, fu: str, fn, latency: int,
                 d1: int, d2: int, s1_lit: bool, s1: int,
                 s2_lit: bool, s2: int, guard: int,
                 gpr_reads: Tuple[int, ...], writes_gpr: Optional[int]):
        self.kind = kind
        self.mnemonic = mnemonic
        self.fu = fu
        self.fn = fn
        self.latency = latency
        self.d1 = d1
        self.d2 = d2
        self.s1_lit = s1_lit
        self.s1 = s1
        self.s2_lit = s2_lit
        self.s2 = s2
        self.guard = guard
        self.gpr_reads = gpr_reads
        self.writes_gpr = writes_gpr


class PreBundle:
    """A pre-decoded issue group plus its static issue metadata.

    ``source`` keeps the architectural :class:`~repro.isa.Bundle` the
    group was decoded from, so tracers can render what actually entered
    the pipeline — essential when a fault injector substitutes a
    corrupted fetch for the program's own bundle.

    ``fetch_stall`` is the bundle's static front-end stall: the cycles
    its data accesses steal from the fetch when the LSU shares the
    memory bandwidth (0 otherwise).  Every engine reads it from here.
    """

    __slots__ = ("ops", "fetch_stall", "gpr_read_set", "n_real", "source")

    def __init__(self, ops: List[PreOp], fetch_stall: int,
                 gpr_read_set: Tuple[int, ...], n_real: int,
                 source: Bundle):
        self.ops = ops
        self.fetch_stall = fetch_stall
        self.gpr_read_set = gpr_read_set
        self.n_real = n_real
        self.source = source


def _src(op) -> Tuple[bool, int]:
    """Split a source operand into (is_literal, payload)."""
    if op is None:
        return True, 0
    if isinstance(op, Lit):
        return True, op.value
    if isinstance(op, (Reg, Pred, Btr)):
        return False, op.index
    raise SimulationError(f"unsupported source operand {op!r}")


_KIND_BY_MNEMONIC = {
    "MOVI": K_MOVI,
    "LW": K_LOAD,
    "LWS": K_LOAD_SPEC,
    "SW": K_STORE,
    "PBR": K_PBR,
    "MOVGBP": K_MOVGBP,
    "BR": K_BR,
    "BRCT": K_BRCT,
    "BRCF": K_BRCF,
    "BRL": K_BRL,
    "HALT": K_HALT,
    "NOP": K_NOP,
}


def predecode_bundle(bundle: Bundle, mdes: Mdes, address: int) -> PreBundle:
    """Pre-decode one bundle and validate its structural legality."""
    table: OpcodeTable = mdes.table
    if len(bundle) > mdes.issue_width:
        raise SimulationError(
            f"bundle {address} has {len(bundle)} slots, issue width is "
            f"{mdes.issue_width}"
        )

    ops: List[PreOp] = []
    fu_counts = {cls: 0 for cls in FuClass}
    n_mem = 0
    read_set = set()
    n_real = 0

    for instr in bundle:
        info = table.lookup(instr.mnemonic)
        fu_counts[info.fu_class] += 1
        latency = mdes.latency_of(info)

        d1 = instr.dest1.index if instr.dest1 is not None else 0
        d2 = instr.dest2.index if instr.dest2 is not None else 0
        s1_lit, s1 = _src(instr.src1)
        s2_lit, s2 = _src(instr.src2)
        guard = instr.guard.index

        mnemonic = instr.mnemonic
        fn = None
        writes_gpr: Optional[int] = None
        gpr_reads: List[int] = []

        if info.is_custom:
            kind = K_CUSTOM
            fn = info.custom_spec.evaluate
            writes_gpr = d1
        elif mnemonic in _KIND_BY_MNEMONIC:
            kind = _KIND_BY_MNEMONIC[mnemonic]
        elif mnemonic in CMP_SEMANTICS:
            kind = K_CMP
            fn = CMP_SEMANTICS[mnemonic]
        elif mnemonic == "MOVE":
            kind = K_ALU
            fn = None  # copy of src1
            writes_gpr = d1
        elif mnemonic in ALU_SEMANTICS:
            kind = K_ALU
            fn = ALU_SEMANTICS[mnemonic]
            writes_gpr = d1
        else:
            raise SimulationError(f"cannot pre-decode opcode {mnemonic!r}")

        if kind in (K_ALU, K_CUSTOM, K_CMP, K_LOAD, K_LOAD_SPEC, K_STORE):
            if not s1_lit:
                gpr_reads.append(s1)
            if not s2_lit:
                gpr_reads.append(s2)
        if kind in (K_LOAD, K_LOAD_SPEC):
            writes_gpr = d1
        if kind == K_STORE:
            gpr_reads.append(d1)  # store value travels in DEST1
        if kind == K_MOVI:
            writes_gpr = d1
        if kind == K_MOVGBP and not s1_lit:
            gpr_reads.append(s1)
        if kind == K_BRL:
            writes_gpr = d1

        if kind != K_NOP:
            n_real += 1
            read_set.update(gpr_reads)

        ops.append(PreOp(
            kind=kind, mnemonic=mnemonic, fu=info.fu_class.value, fn=fn,
            latency=latency, d1=d1, d2=d2,
            s1_lit=s1_lit, s1=s1, s2_lit=s2_lit, s2=s2, guard=guard,
            gpr_reads=tuple(gpr_reads), writes_gpr=writes_gpr,
        ))
        if info.is_memory:
            n_mem += 1

    for fu_class in (FuClass.ALU, FuClass.LSU, FuClass.CMPU, FuClass.BRU):
        available = mdes.resource_count(fu_class)
        if fu_counts[fu_class] > available:
            raise SimulationError(
                f"bundle {address} needs {fu_counts[fu_class]} "
                f"{fu_class.value} units but only {available} exist "
                "(the compiler must avoid resource conflicts)"
            )

    # Memory bandwidth (§3.2): four 32-bit banks behind a 2x-clock
    # controller deliver a full fetch per cycle; with the LSU sharing
    # them, each data access adds 32 bits of demand, and every started
    # group of bank bandwidth beyond the first costs a fetch stall.
    config = mdes.config
    fetch_stall = 0
    if config.lsu_shares_fetch_bandwidth and n_mem:
        bank_bits = config.n_mem_banks * 32 * 2
        demand = config.issue_width * 64 + 32 * n_mem
        fetch_stall = (demand + bank_bits - 1) // bank_bits - 1

    return PreBundle(ops=ops, fetch_stall=fetch_stall,
                     gpr_read_set=tuple(sorted(read_set)), n_real=n_real,
                     source=bundle)


def predecode_program(program: Program, config) -> List[PreBundle]:
    """``program``'s predecoded bundles under ``config``, memoised on the
    program like the fast path's code generation, keyed by the
    configuration's :meth:`~repro.config.MachineConfig.digest`; the
    machine description is only built on a memo miss.  A program that
    fails to predecode is not memoised: it raises on every call.
    """
    memo = program.__dict__.setdefault("_predecoded", {})
    key = config.digest()
    bundles = memo.get(key)
    if bundles is None:
        mdes = Mdes(config)
        bundles = memo[key] = [
            predecode_bundle(bundle, mdes, address)
            for address, bundle in enumerate(program.bundles)
        ]
    return bundles
