"""Pre-specialised fast execution path for the EPIC core.

The instrumented run loop in :mod:`repro.core.machine` re-dispatches on
``op.kind`` for every dynamic operation, funnels every write-back
through one global heap, and keeps its forwarding bookkeeping in a
dictionary.  That generality is only needed when a tracer, a fault
injector, strict NUAL checking or a non-``halt`` trap policy is
configured — the common benchmarking case (design-space sweeps,
Table 1 regeneration) pays for hooks it never uses.

This module removes that per-cycle overhead by *pre-specialising* each
decoded bundle once, at program-load time, into a compact execution
record: one generated Python function per static bundle with

* operand accessors resolved (literals folded to constants, ``r0`` to
  ``0``, register reads compiled to direct list indexing),
* the per-op ``kind`` dispatch unrolled into straight-line code,
* the common ALU/CMPP semantics inlined as direct masked expressions
  (``(a + b) & 0xFFFFFFFF`` instead of a call into
  :mod:`repro.isa.semantics` — register and memory words are
  invariantly in ``[0, mask]``, so the results are bit-identical by
  construction and are never re-masked),
* loads and stores compiled to direct word-array indexing: an
  in-range address of two literals becomes a constant index with no
  check, any other takes one compare whose failing branch calls the
  :class:`~repro.core.memory.DataMemory` methods, which raise the
  architectural trap, and
* latencies, destination indices, the read-port set and guard checks
  (emitted only for non-``p0`` guards) inlined as constants; a guarded
  op's counters become one site counter, bumped when it is taken.

Write-back scheduling replaces the global ``(ready, seq)`` heap with a
dictionary of per-ready-cycle lists: every write-back latency is at
least one cycle, so the drain simply scans forward from the last
drained cycle — ascending ready order, list order preserving issue
order, exactly the heap's pop order.  Forwarding bookkeeping is a flat
list indexed by register number.

One code generator and one run loop serve both specialised engines.
:class:`_Coder` describes each op once — operand reads, write-backs,
counter bumps, whether it can trap, its control effect — and the
trace compiler (:mod:`repro.core.tracejit`) subclasses it to emit
superblocks.  :meth:`FastSim.run` is the trace engine's loop as well:
given a :class:`~repro.core.tracejit.TraceSim` it also dispatches
superblocks and profiles taken-branch targets.  A superblock can leave
write-backs in flight that are due before its exit cycle, so after one
returns the scan restarts from the earliest pending cycle; only the
end-of-run drain sorts what is still pending.

Cycle-exactness guarantee
=========================

The fast path is an *optimisation*, never a semantic fork: for every
program it accepts it produces bit-identical cycle counts, statistics
and architectural state to the instrumented path.  Differential tests
(``tests/core/test_fastpath.py``) enforce this over all four paper
workloads across the 1-4 ALU presets, and ``repro-bench`` re-asserts
it on every benchmarking run.  Two intentional asymmetries exist only
on *aborted* runs, which neither path completes:

* per-op counters of a bundle whose later operation traps may include
  statically-hoisted increments for operations after the trap point
  (a guarded one counts as squashed);
* the ``halt`` trap policy is required, so a trap always propagates.

Programs the specialiser cannot prove safe (register indices outside
the configured files, more than one control operation or store per
bundle, sub-cycle write-back latencies) are rejected at load time and
the processor silently uses the instrumented path instead.  Planted
parity faults (``poison``) are a run-time condition with the same
effect: :meth:`~repro.core.machine.EpicProcessor.run` routes runs with
a non-empty poison set to the instrumented loop, whose register reads
go through the parity-checking accessors.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core import decode as dec
from repro.errors import (
    CycleLimitExceeded,
    HangDetected,
    TrapError,
    TRAP_ILLEGAL_INSTRUCTION,
)
from repro.isa.semantics import ALU_SEMANTICS, CMP_SEMANTICS, to_signed

# Layout of the shared counts list ``C`` referenced by generated code.
_C_EXEC = 0        # ops_executed
_C_SQUASH = 1      # ops_squashed
_C_NOPS = 2
_C_BRANCHES = 3
_C_MEMR = 4        # memory_reads
_C_MEMW = 5        # memory_writes
_C_READS = 6       # regfile_reads (ports + forwarded)
_C_FWD = 7         # regfile_reads_forwarded
_C_FU0 = 8         # first per-FU-class slot; more appended as discovered

#: Trace-engine slots, at offsets from ``FastSim._t_base`` (the end of
#: the per-FU slots); they stay zero on runs without traces.
_T_RFW = 0       # regfile_writes landed inside traces
_T_PORT = 1      # port stall cycles charged at trace exits
_T_FETCH = 2     # fetch stall cycles (static, folded per exit)
_T_BRT = 3       # branches taken at trace exits
_T_BUB = 4       # branch bubble cycles at trace exits
_T_BUNDLES = 5   # bundles issued inside traces
_T_SLOTS = 6

#: Control-transfer kinds — at most one may appear per bundle for the
#: specialiser's single branch-decision variable to be faithful.
_CONTROL_KINDS = frozenset({
    dec.K_BR, dec.K_BRCT, dec.K_BRCF, dec.K_BRL, dec.K_HALT,
})

#: Kinds that never schedule a write-back (everything else must have a
#: latency of at least one cycle for the forward-scanning drain to see
#: its pending entry).
_NO_WRITEBACK_KINDS = frozenset({
    dec.K_STORE, dec.K_BR, dec.K_BRCT, dec.K_BRCF, dec.K_HALT,
})

#: CMPP mnemonics comparing the raw (unsigned) register values, which
#: are invariantly masked — inlined as a bare Python comparison.
_CMP_UNSIGNED = {
    "CMPP_EQ": "==", "CMPP_NE": "!=", "CMPP_ULT": "<", "CMPP_UGE": ">=",
}

#: CMPP mnemonics comparing two's-complement values — inlined with the
#: sign conversion open-coded.
_CMP_SIGNED = {
    "CMPP_LT": "<", "CMPP_LE": "<=", "CMPP_GT": ">", "CMPP_GE": ">=",
}

#: Open-coded ALU ops (SHRA, which needs a signed operand, is special);
#: ``{s}`` is the shift amount, already reduced to the datapath width.
_ALU_INLINE = {
    "ADD": "({a} + {b}) & {mask}",
    "SUB": "({a} - {b}) & {mask}",
    "MUL": "({a} * {b}) & {mask}",
    "AND": "{a} & {b}",
    "OR": "{a} | {b}",
    "XOR": "{a} ^ {b}",
    "ANDCM": "{a} & ~{b}",
    "SHL": "({a} << {s}) & {mask}",
    "SHR": "{a} >> {s}",
}


class _Ineligible(Exception):
    """Internal: the program cannot be specialised; use the slow path."""


def _check_index(value: int, limit: int, what: str) -> None:
    if not 0 <= value < limit:
        raise _Ineligible(f"{what} index {value} outside configured file "
                          f"(limit {limit})")


def _queue_lines(when: str, var: str = "_q") -> List[str]:
    """Bind ``var`` to the pending list of write-backs landing at ``when``.

    Entries are grouped by ready cycle and applied by the drain in
    ``(ready, issue-order)`` order, the instrumented path's heap order.
    The list is created here, so the caller must append to it at once:
    the drain and the pause test read an empty ``PD`` as nothing in
    flight.
    """
    return [f"{var} = PD.get({when})", f"if {var} is None:",
            f"    {var} = PD[{when}] = []"]


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


class _OpCode(NamedTuple):
    """One op, described for either engine's code generator to emit.

    ``lines`` read the operands and compute every value (only they can
    raise the op's trap, and only when ``can_trap``).  ``writes`` are
    ``(space, dest, latency, value)`` write-backs (space 0 = GPR,
    1 = predicate, 2 = BTR) whose ``value`` is a literal, a local set
    by ``lines`` or ``1 - local``; a GPR value is always in
    ``[0, mask]``.  ``bumps`` are the ``(counts_index, increment)``
    pairs an executed op adds.  ``control`` is ``None``, or
    ``(test, target)`` for a control op: ``test`` is the taken
    condition (``None``: always) and ``target`` the branch-target read
    (``None``: HALT).
    """

    lines: List[str]
    writes: List[Tuple[int, int, int, str]]
    bumps: List[Tuple[int, int]]
    can_trap: bool
    control: Optional[Tuple[Optional[str], Optional[str]]]


class _Coder:
    """The per-op code generator shared by the bundle and trace compilers.

    Register reads go through :meth:`reg` and values are named by
    :meth:`new_var`; the trace compiler overrides both, to read
    promoted Python locals and to keep each value in a fresh local, and
    overrides :meth:`may_trap` to record which bundle raised.  ``used``
    collects the free names the generated code binds.

    Only what is unknown at generation time is left to run time.  Every
    register and memory word is in ``[0, mask]`` (each
    :class:`~repro.core.regfile.GprFile` and
    :class:`~repro.core.memory.DataMemory` write masks), so values read
    from them, literals and the open-coded results are never re-masked;
    only semantics-function results are, once, where they are computed.
    ``r0`` reads as the literal ``0``, literal shift amounts are reduced
    here, and an address of two literals is computed here: an in-range
    one indexes memory directly, with no bounds test and no trap path.
    """

    def __init__(self, config, n_words: int):
        self.config = config
        self.mask = config.mask
        self.n_words = n_words
        #: The datapath sign bit: ``(x ^ H) - H`` is ``x`` signed.
        self.sign_bit = 1 << (config.datapath_width - 1)
        #: A wrapped (unsigned) address below this is in range as it
        #: stands, and every one at or above it is out of range: it is
        #: either past the memory or negative once signed.
        self.addr_limit = min(n_words, self.sign_bit)
        self.used: Set[str] = set()
        #: ``(name, pc, slot)`` of every semantics function called.
        self.fn_refs: List[Tuple[str, int, int]] = []

    def reg(self, space: int, index: int) -> str:
        if space == 0 and index == 0:
            return "0"  # GprFile.write drops every write to r0
        file_name = "GPB"[space]
        self.used.add(file_name)
        return f"{file_name}[{index}]"

    def new_var(self) -> str:
        return "_v"

    def may_trap(self, lines: List[str]) -> List[str]:
        """``lines``, which may raise the op's trap, as emitted."""
        return lines

    def _value(self, lines: List[str], expr: str) -> str:
        """``expr`` itself if it is a literal, else a local holding it."""
        if expr.isdigit():
            return expr
        var = self.new_var()
        lines.append(f"{var} = {expr}")
        return var

    def _src(self, lit: bool, payload: int) -> str:
        """Source operand: literal folded, register read."""
        return repr(payload & self.mask) if lit else self.reg(0, payload)

    def _sign(self, expr: str) -> str:
        """The datapath word ``expr`` read as two's complement."""
        return f"(({expr} ^ {self.sign_bit}) - {self.sign_bit})"

    def _signed(self, lit: bool, payload: int) -> str:
        """A source operand read as two's complement."""
        operand = self._src(lit, payload)
        if operand.isdigit():
            return repr(to_signed(int(operand),
                                  self.config.datapath_width))
        return self._sign(operand)

    def _shift(self, lit: bool, payload: int) -> str:
        """A shift-amount operand, reduced to the datapath width."""
        amount = self._src(lit, payload)
        shift = self.config.datapath_width - 1
        if amount.isdigit():
            return repr(int(amount) & shift)
        return f"({amount} & {shift})"

    def _addr(self, op) -> Tuple[str, bool]:
        """``(address, static)``: the effective address wrapped onto the
        datapath but not signed, and whether it is a literal known to be
        in range.  An out-of-range literal address stays dynamic code,
        so its trap is raised at run time as before.
        """
        base = self._src(op.s1_lit, op.s1)
        offset = self._src(op.s2_lit, op.s2)
        if base.isdigit() and offset.isdigit():
            address = to_signed((int(base) + int(offset)) & self.mask,
                                self.config.datapath_width)
            if 0 <= address < self.n_words:
                return repr(address), True
        if offset == "0":
            return base, False
        if base == "0":
            return offset, False
        return f"({base} + {offset}) & {self.mask}", False

    def _call(self, op, pc: int, slot: int, third: int,
              lines: List[str], masked: bool) -> str:
        """A local holding the op's semantics-function result
        (DIV/REM/MIN/MAX, custom); ``masked`` wraps a GPR result onto
        the datapath."""
        name = f"F{pc}_{slot}"
        self.used.add(name)
        self.fn_refs.append((name, pc, slot))
        a = self._src(op.s1_lit, op.s1)
        b = self._src(op.s2_lit, op.s2)
        expr = f"{name}({a}, {b}, {third})"
        if masked:
            expr += f" & {self.mask}"
        var = self.new_var()
        lines += self.may_trap([f"{var} = {expr}"])
        return var

    def _alu_inline(self, op) -> Optional[str]:
        """Open-coded expression for a built-in ALU op, if one exists.

        Register values and folded literals are invariantly in
        ``[0, mask]``, which is what lets the ``to_unsigned`` clamps of
        :mod:`repro.isa.semantics` reduce to a single ``& mask`` (or
        vanish for the bitwise ops, whose results cannot leave the
        range).
        """
        if op.mnemonic == "SHRA":
            return (f"({self._signed(op.s1_lit, op.s1)} >> "
                    f"{self._shift(op.s2_lit, op.s2)}) & {self.mask}")
        template = _ALU_INLINE.get(op.mnemonic)
        if template is None:
            return None  # DIV/REM/MIN/MAX stay on the semantics call
        return template.format(
            a=self._src(op.s1_lit, op.s1), b=self._src(op.s2_lit, op.s2),
            s=self._shift(op.s2_lit, op.s2), mask=self.mask)

    def _cmp_inline(self, op) -> Optional[str]:
        """Open-coded 0/1 expression for a built-in CMPP op, if one exists."""
        mnemonic = op.mnemonic
        if mnemonic in _CMP_UNSIGNED:
            a = self._src(op.s1_lit, op.s1)
            b = self._src(op.s2_lit, op.s2)
            return f"{a} {_CMP_UNSIGNED[mnemonic]} {b}"
        if mnemonic in _CMP_SIGNED:
            a = self._signed(op.s1_lit, op.s1)
            b = self._signed(op.s2_lit, op.s2)
            return f"{a} {_CMP_SIGNED[mnemonic]} {b}"
        return None

    def op_code(self, op, pc: int, slot: int) -> _OpCode:
        """Describe one pre-decoded op (see :class:`_OpCode`).

        Raises :class:`_Ineligible` for anything the specialised engines
        cannot reproduce bit-exactly.
        """
        config = self.config
        kind = op.kind
        mask = self.mask
        width = config.datapath_width
        n_gprs, n_preds, n_btrs = config.n_gprs, config.n_preds, config.n_btrs
        for reg in op.gpr_reads:
            _check_index(reg, n_gprs, "GPR read")
        _check_index(op.guard, n_preds, "guard predicate")
        if op.latency < 1 and kind not in _NO_WRITEBACK_KINDS:
            # The forward-scanning drain only looks at cycles it has not
            # drained yet; a same-cycle write-back would be missed.
            raise _Ineligible("write-back latency below one cycle")
        lines: List[str] = []
        writes: List[Tuple[int, int, int, str]] = []
        bumps: List[Tuple[int, int]] = []
        can_trap = False
        control = None

        if kind in (dec.K_ALU, dec.K_CUSTOM):
            _check_index(op.d1, n_gprs, "GPR destination")
            if op.fn is None:  # MOVE: plain copy of src1
                value = self._value(lines, self._src(op.s1_lit, op.s1))
            else:
                inline = None
                if (kind == dec.K_ALU
                        and op.fn is ALU_SEMANTICS.get(op.mnemonic)):
                    inline = self._alu_inline(op)
                if inline is None:
                    can_trap = True
                    third = mask if kind == dec.K_CUSTOM else width
                    value = self._call(op, pc, slot, third, lines,
                                       masked=True)
                else:
                    value = self._value(lines, inline)
            writes.append((0, op.d1, op.latency, value))

        elif kind == dec.K_MOVI:
            _check_index(op.d1, n_gprs, "GPR destination")
            writes.append((0, op.d1, op.latency, repr(op.s1 & mask)))

        elif kind == dec.K_CMP:
            _check_index(op.d1, n_preds, "predicate destination")
            _check_index(op.d2, n_preds, "predicate destination")
            condition = None
            if op.fn is CMP_SEMANTICS.get(op.mnemonic):
                condition = self._cmp_inline(op)
            if condition is None:
                can_trap = True
                value = self._call(op, pc, slot, width, lines, masked=False)
            else:
                value = self._value(lines, condition)
            writes += [(1, op.d1, op.latency, value),
                       (1, op.d2, op.latency, f"1 - {value}")]

        elif kind in (dec.K_LOAD, dec.K_LOAD_SPEC):
            _check_index(op.d1, n_gprs, "GPR destination")
            self.used.add("MEM")
            address, static = self._addr(op)
            if static:
                value = self._value(lines, f"MEM[{address}]")
            else:
                # One compare decides in-range; only the out-of-range
                # branch signs the address (for the trap's message).
                value = self.new_var()
                lines += [f"_a = {address}",
                          f"if _a < {self.addr_limit}:",
                          f"    {value} = MEM[_a]",
                          "else:"]
                if kind == dec.K_LOAD_SPEC:
                    # Dismissible load: bad addresses read as zero.
                    lines.append(f"    {value} = 0")
                else:
                    # DataMemory.read raises the OOB load trap.
                    self.used.add("MR")
                    can_trap = True
                    lines += _indent(self.may_trap(
                        [f"{value} = MR({self._sign('_a')})"]))
            writes.append((0, op.d1, op.latency, value))
            bumps.append((_C_MEMR, 1))

        elif kind == dec.K_STORE:
            _check_index(op.d1, n_gprs, "store source")
            address, static = self._addr(op)
            lines.append(f"_sa = {address}")
            if not static:
                self.used.add("MC")
                can_trap = True
                lines += [f"if _sa >= {self.addr_limit}:"] + _indent(
                    self.may_trap([f"MC({self._sign('_sa')})"]))
            lines.append(f"_sv = {self.reg(0, op.d1)}")
            bumps.append((_C_MEMW, 1))

        elif kind == dec.K_PBR:
            _check_index(op.d1, n_btrs, "BTR destination")
            if op.s1 < 0:
                raise _Ineligible("PBR with negative target")
            writes.append((2, op.d1, op.latency, repr(op.s1)))

        elif kind == dec.K_MOVGBP:
            _check_index(op.d1, n_btrs, "BTR destination")
            value = self._value(lines, self._src(op.s1_lit, op.s1))
            writes.append((2, op.d1, op.latency, value))

        elif kind in (dec.K_BR, dec.K_BRL):
            _check_index(op.s1, n_btrs, "branch-target read")
            control = (None, self.reg(2, op.s1))
            if kind == dec.K_BRL:
                _check_index(op.d1, n_gprs, "link destination")
                writes.append((0, op.d1, op.latency, repr((pc + 1) & mask)))
            bumps.append((_C_BRANCHES, 1))

        elif kind in (dec.K_BRCT, dec.K_BRCF):
            _check_index(op.s1, n_btrs, "branch-target read")
            _check_index(op.s2, n_preds, "branch condition")
            test = self.reg(1, op.s2)
            if kind == dec.K_BRCF:
                test = f"not {test}"
            control = (test, self.reg(2, op.s1))
            bumps.append((_C_BRANCHES, 1))

        elif kind == dec.K_HALT:
            control = (None, None)

        else:
            raise _Ineligible(f"unsupported op kind {kind}")
        return _OpCode(lines, writes, bumps, can_trap, control)

    def guarded(self, guard: int, site: int, lines: List[str]) -> List[str]:
        """``lines`` behind predicate ``guard``.

        The op's counters are folded like trace exits: the static tables
        count it squashed, and a taken op bumps only its site counter
        ``GC[site]``, which the run loop's fold turns into the executed
        op's counters (see :func:`_bundle_source`).
        """
        self.used.add("GC")
        return ([f"if {self.reg(1, guard)}:", f"    GC[{site}] += 1"]
                + _indent(lines))

    def store_frame(self, ops) -> Tuple[List[str], List[str]]:
        """Lines before and after a bundle's ops for its buffered store.

        The store lands once the whole bundle has executed; a guarded
        one marks itself squashed with ``_sa = -1``.
        """
        stores = [op for op in ops if op.kind == dec.K_STORE]
        if not stores:
            return [], []
        if len(stores) > 1:
            # The generated code holds one buffered store in (_sa, _sv).
            raise _Ineligible("more than one store in a bundle")
        self.used.add("MEM")
        if stores[0].guard:  # a stored address is never negative
            return ["_sa = -1"], ["if _sa >= 0:", "    MEM[_sa] = _sv"]
        return [], ["MEM[_sa] = _sv"]


def _bundle_source(pc: int, bundle, coder: _Coder, fu_slot, guard_site,
                   forwarding: bool) -> Tuple[str, str, List[Tuple[int, int]]]:
    """Generate one bundle's execution function.

    Returns ``(name, source, static_counts)``.  ``static_counts`` holds
    the counter increments every execution of the bundle is known to
    make (ops not behind a guard, NOP slots, the static read set, and
    every guarded op as squashed): the run loop only counts *visits*
    per bundle and multiplies these out at the end, so the generated
    code carries no bookkeeping for them.  A taken guarded op bumps one
    site counter; ``guard_site(pc, slot, pairs)`` allocates it, with
    the ``pairs`` its taken executions add at the fold (the op's
    counters, less the squash the statics counted).
    """
    used = coder.used
    body: List[str] = []
    static: Dict[int, int] = {}

    # -- stage 1: read-port accounting (read set known statically) ------
    read_set = [r for r in bundle.gpr_read_set if r]
    if read_set:
        static[_C_READS] = len(read_set)
    if forwarding and read_set:
        used.update(("RA", "C"))
        # A read is forwarded exactly when its producer's write-back
        # landed this very cycle; total ports used is invariant, so the
        # per-register test collapses to one branch-free sum.
        forwarded = " + ".join(f"(RA[{reg}] == cycle)" for reg in read_set)
        body.append(f"_f = {forwarded}")
        body.append(f"reads = {len(read_set)} - _f")
        body.append(f"C[{_C_FWD}] += _f")
    else:
        body.append(f"reads = {len(read_set)}")

    # -- stage 2: execute, with per-op code unrolled --------------------
    n_control = sum(op.kind in _CONTROL_KINDS for op in bundle.ops)
    if n_control > 1:
        raise _Ineligible("more than one control operation in a bundle")
    if n_control:
        body.append("_tg = None")
    store_init, store_tail = coder.store_frame(bundle.ops)
    body += store_init
    # One queue lookup per latency and bundle: a queue local bound by
    # an unguarded op serves every later op, one bound inside a guarded
    # op's block only that block.
    queues: Dict[int, str] = {}
    for slot, op in enumerate(bundle.ops):
        if op.kind == dec.K_NOP:
            static[_C_NOPS] = static.get(_C_NOPS, 0) + 1
            continue
        code = coder.op_code(op, pc, slot)
        lines = list(code.lines)
        bound = dict(queues) if op.guard else queues
        for space, dest, ready, value in code.writes:
            queue = bound.get(ready)
            if queue is None:
                queue = bound[ready] = f"_q{ready}"
                used.add("PD")
                lines += [f"_t = cycle + {ready}"] + _queue_lines("_t",
                                                                  queue)
            lines.append(f"{queue}.append(({space}, {dest}, {value}))")
        if code.control is not None:
            test, target = code.control
            if target is None:
                lines.append("_tg = -1")  # HALT
            elif test is None:
                lines.append(f"_tg = {target}")
            else:
                lines += [f"if {test}:", f"    _tg = {target}"]
        fu_index = fu_slot(op.fu)
        if op.guard:
            static[_C_SQUASH] = static.get(_C_SQUASH, 0) + 1
            site = guard_site(pc, slot, [(_C_EXEC, 1), (fu_index, 1)]
                              + code.bumps + [(_C_SQUASH, -1)])
            body += coder.guarded(op.guard, site, lines)
        else:
            for index, k in [(_C_EXEC, 1), (fu_index, 1)] + code.bumps:
                static[index] = static.get(index, 0) + k
            body += lines
    body += store_tail
    # Non-control bundles return a bare int: no per-cycle tuple.
    body.append("return reads, _tg" if n_control else "return reads")

    name = f"_b{pc}"
    params = ["cycle"] + [f"{n}={n}" for n in sorted(used)]
    lines = [f"def {name}({', '.join(params)}):"]
    lines.extend("    " + line for line in body)
    return name, "\n".join(lines), sorted(static.items())


def specialise(machine) -> Optional["FastSim"]:
    """Build the fast execution engine for ``machine``'s loaded program.

    Returns ``None`` when the program contains something the fast path
    cannot reproduce bit-exactly (the caller then stays on the
    instrumented loop); the rejection reason is recorded on the machine
    as ``fastpath_reject_reason`` so the downgrade is never silent.
    """
    try:
        sim = FastSim(machine)
    except _Ineligible as reason:
        machine.fastpath_reject_reason = str(reason)
        machine.stats.fastpath_reject_reason = str(reason)
        return None
    machine.fastpath_reject_reason = ""
    return sim


@dataclass
class _Generated:
    """Machine-independent output of the bundle code generator."""

    source: str
    code: object
    names: List[str]
    statics: List[List[Tuple[int, int]]]
    #: Per guarded-op site: the ``(counts_index, k)`` pairs one taken
    #: execution adds; ``site_index`` maps ``(pc, slot)`` to the site.
    site_pairs: List[List[Tuple[int, int]]]
    site_index: Dict[Tuple[int, int], int]
    counts_len: int
    fu_index: Dict[str, int]
    base_namespace: Dict[str, object]


def _generate(machine) -> _Generated:
    config = machine.config
    counts_len = _C_FU0
    fu_index: Dict[str, int] = {}

    def fu_slot(fu_class: str) -> int:
        nonlocal counts_len
        if fu_class not in fu_index:
            fu_index[fu_class] = counts_len
            counts_len += 1
        return fu_index[fu_class]

    site_pairs: List[List[Tuple[int, int]]] = []
    site_index: Dict[Tuple[int, int], int] = {}

    def guard_site(pc: int, slot: int, pairs) -> int:
        site_index[(pc, slot)] = len(site_pairs)
        site_pairs.append(pairs)
        return site_index[(pc, slot)]

    namespace: Dict[str, object] = {}
    names: List[str] = []
    sources: List[str] = []
    statics: List[List[Tuple[int, int]]] = []
    for pc, bundle in enumerate(machine._bundles):
        # Memory size is fixed for the machine's lifetime; the code
        # generator inlines it into the bounds checks.
        coder = _Coder(config, len(machine.memory))
        name, source, static_counts = _bundle_source(
            pc, bundle, coder, fu_slot, guard_site,
            forwarding=config.forwarding,
        )
        for fn_name, _, slot in coder.fn_refs:
            namespace[fn_name] = bundle.ops[slot].fn
        names.append(name)
        sources.append(source)
        statics.append(static_counts)
    source = "\n\n".join(sources)
    code = compile(source, "<repro.core.fastpath>", "exec")
    return _Generated(
        source=source, code=code, names=names, statics=statics, site_pairs=site_pairs,
        site_index=site_index, counts_len=counts_len,
        fu_index=fu_index, base_namespace=namespace,
    )


def _generated_code(machine) -> _Generated:
    """Codegen for ``machine``'s program, cached on the program object.

    Generation and ``compile()`` depend only on the program, the
    machine configuration (keyed by its digest, like every other
    config-keyed cache) and the memory size — not on the machine
    instance — so fault-injection harnesses that build many processors
    for one program pay for code generation once.  Ineligibility is
    cached too, as the rejection reason.
    """
    program = machine.program
    key = (machine.config.digest(), len(machine.memory))
    cache = program.__dict__.setdefault("_fastpath_codegen", {})
    hit = cache.get(key)
    if hit is not None:
        kind, payload = hit
        if kind == "ineligible":
            raise _Ineligible(payload)
        return payload
    try:
        generated = _generate(machine)
    except _Ineligible as reason:
        cache[key] = ("ineligible", str(reason))
        raise
    cache[key] = ("ok", generated)
    return generated


class FastSim:
    """Compiled per-bundle execution records plus the one specialised run
    loop, which the trace engine shares (see :meth:`run`)."""

    def __init__(self, machine):
        config = machine.config
        generated = _generated_code(machine)
        counts = [0] * (generated.counts_len + _T_SLOTS)
        guard_counts = [0] * len(generated.site_pairs)
        pending: Dict[int, List[Tuple[int, int, int]]] = {}
        # Shared mutable context the generated functions bind directly
        # (as default arguments, at exec time below): the raw register
        # and memory lists, the forwarding ages, the counters.
        namespace = dict(generated.base_namespace)
        namespace.update(
            G=machine.gpr._values,
            P=machine.pred._values,
            B=machine.btr._values,
            RA=[-1] * config.n_gprs,
            C=counts,
            GC=guard_counts,
            PD=pending,
            MEM=machine.memory._words,
            MR=machine.memory.read,
            MC=machine.memory.check_write,
        )
        exec(generated.code, namespace)  # noqa: S102 - our own generated source

        # Neither the machine (which holds this engine) nor the
        # namespace (the functions' globals) refers back to what holds
        # it, so a dropped machine is freed by reference counting.
        self._machine = weakref.ref(machine)
        self._fns = [namespace.pop(name) for name in generated.names]
        self._static = generated.statics
        self._counts = counts
        self._guard_counts = guard_counts
        self._site_pairs = generated.site_pairs
        self._site_index = generated.site_index
        self._t_base = generated.counts_len
        self._fu_index = generated.fu_index
        self._pending = pending
        self._ready_at = namespace["RA"]
        self._gpr_values = machine.gpr._values
        self._pred_values = machine.pred._values
        self._btr_values = machine.btr._values

    # -- run loop ----------------------------------------------------------

    def run(self, max_cycles: int, watchdog_cycles: Optional[int],
            until_cycle: Optional[int] = None,
            start_cycle: int = 0,
            start_pc: Optional[int] = None,
            trace=None) -> int:
        """Execute until HALT; returns the final cycle count.

        Statistics are folded into the machine's :class:`SimStats` (also
        on abnormal exits, so a partially-run processor still reports
        what it did).  Raises exactly what the instrumented path would:
        :class:`~repro.errors.CycleLimitExceeded`,
        :class:`~repro.errors.HangDetected` or a propagating
        :class:`~repro.errors.TrapError` under the ``halt`` policy.

        ``until_cycle`` pauses at the first quiescent cycle at or after
        it (machine resume state is set, the partial cycle count is
        returned); ``start_cycle``/``start_pc`` resume a paused or
        restored machine.  Per-run working state (counts, pending,
        forwarding ages) is reset here, which is exact *because* resume
        points are quiescent: nothing was in flight, and stale
        forwarding ages can never equal a future cycle.

        ``trace``, a :class:`~repro.core.tracejit.TraceSim` over this
        engine, turns on superblock dispatch and the taken-branch
        profile that forms superblocks; without it neither costs more
        than one test of a local flag.  Pauses only happen on the
        bundle path: a trace is never entered once the pause target is
        reached (its dispatch guard requires an empty pending queue,
        which is exactly the pause condition, and the pause test runs
        first).
        """
        machine = self._machine()
        config = machine.config
        stats = machine.stats
        fns = self._fns
        bundles = machine._bundles
        n_bundles = len(fns)

        gpr = self._gpr_values
        pred = self._pred_values
        btr = self._btr_values
        counts = self._counts
        pending = self._pending
        pending_pop = pending.pop
        ready_at = self._ready_at

        # Fresh per-run context (a prior aborted run may have leftovers).
        for i in range(len(counts)):
            counts[i] = 0
        pending.clear()
        ready_at[:] = [-1] * len(ready_at)

        port_budget = config.regfile_ops_per_cycle
        model_ports = config.model_port_limit
        share_bandwidth = config.lsu_shares_fetch_bandwidth
        branch_penalty = config.taken_branch_penalty

        tracing = trace is not None
        if tracing:
            traces = trace._traces
            blacklist = trace._blacklist
            hot = trace._hot
            hotness = trace._hotness
            bi = trace._bi
            runtimes = trace._runtimes
        else:
            runtimes = ()

        # Per-bundle visit counts: each visit implies the bundle's
        # static counter increments, multiplied out in the fold below.
        visits = [0] * n_bundles
        branches_taken = 0
        branch_bubbles = 0
        port_stalls = 0
        fetch_stalls = 0
        regfile_writes = 0
        traps_seen = 0

        # One hoisted limit check per cycle; which limit tripped decides
        # the exception, preserving the instrumented path's precedence
        # (cycle budget checked before the watchdog).
        limit = max_cycles
        if watchdog_cycles is not None and watchdog_cycles < limit:
            limit = watchdog_cycles

        cycle = start_cycle
        next_ready = start_cycle  # lowest write-back cycle not yet drained
        pc = start_pc if start_pc is not None else machine.program.entry
        try:
            while True:
                if cycle >= limit:
                    if cycle >= max_cycles:
                        raise CycleLimitExceeded(
                            "cycle budget exhausted (runaway program?)",
                            cycle=cycle, pc=pc, limit=max_cycles,
                        )
                    raise HangDetected(
                        "watchdog fired: execution ran far past the "
                        "expected cycle count",
                        cycle=cycle, pc=pc, limit=watchdog_cycles,
                    )
                if until_cycle is not None and cycle >= until_cycle \
                        and not pending:
                    # Quiescent pause (see the instrumented loop): no
                    # write-back in flight, checked after the absolute
                    # cycle budgets so limits fire at the same cycle as
                    # an uninterrupted run.
                    machine._paused = True
                    machine._resume_cycle = cycle
                    machine._resume_pc = pc
                    break
                if not 0 <= pc < n_bundles:
                    raise TrapError(
                        "control fell outside the program (missing HALT "
                        "or corrupted branch target?)",
                        cause=TRAP_ILLEGAL_INSTRUCTION, cycle=cycle, pc=pc,
                    )

                # Write-backs due by now, in (ready, issue-order) order.
                # Every pending entry is scheduled at or after
                # ``next_ready``, so scanning forward from it visits each
                # ready cycle exactly once.  GPR values are already in
                # [0, mask] (see _OpCode), so none is re-masked.
                writes_landing = 0
                if pending:
                    while next_ready < cycle:
                        queue = pending_pop(next_ready, None)
                        if queue is not None:
                            for space, index, value in queue:
                                if space == 0:
                                    if index:
                                        gpr[index] = value
                                    ready_at[index] = next_ready
                                    regfile_writes += 1
                                elif space == 1:
                                    if index:
                                        pred[index] = 1 if value else 0
                                else:
                                    btr[index] = value
                        next_ready += 1
                    queue = pending_pop(cycle, None)
                    if queue is not None:
                        for space, index, value in queue:
                            if space == 0:
                                if index:
                                    gpr[index] = value
                                ready_at[index] = cycle
                                regfile_writes += 1
                                writes_landing += 1
                            elif space == 1:
                                if index:
                                    pred[index] = 1 if value else 0
                            else:
                                btr[index] = value
                # Bundles push at least one cycle ahead of their issue.
                next_ready = cycle + 1

                # -- superblock dispatch ------------------------------
                # Entry guards: the pending queue must be empty (the
                # compiled schedule assumes no external landings at
                # in-trace cycles) and the whole trace must issue
                # inside the limit (limit precedence stays with the
                # bundle loop above).
                if tracing:
                    runtime = traces[pc]
                    if (runtime is not None and not pending
                            and cycle + runtime.o_last < limit):
                        try:
                            pc, cycle = runtime.fn(cycle, writes_landing)
                        except TrapError as trap:
                            k = bi[0]
                            trap_pc, pairs = runtime.trap_info[k]
                            trap.annotate(cycle + runtime.offsets[k],
                                          trap_pc)
                            machine.traps.append(trap)
                            traps_seen += 1
                            for index, n in pairs:
                                counts[index] += n
                            raise
                        if pc < 0:  # HALT inside the trace
                            break
                        # Writes still in flight at the exit can be due
                        # before the exit cycle: rescan from the first.
                        if pending:
                            next_ready = min(pending)
                        # Side-exit targets are profiled too (trace
                        # linking): a cap-split loop body's continuation
                        # is only ever reached through a trace exit,
                        # never through a taken branch on the bundle path.
                        if traces[pc] is None and pc not in blacklist:
                            count = hot[pc] + 1
                            hot[pc] = count
                            if count >= hotness:
                                trace._compile_trace(pc)
                        continue

                visits[pc] += 1
                try:
                    result = fns[pc](cycle)
                except TrapError as trap:
                    trap.annotate(cycle, pc)
                    machine.traps.append(trap)
                    traps_seen += 1
                    raise  # specialised engines require the "halt" policy
                if result.__class__ is int:  # non-control bundle
                    reads = result
                    target = None
                else:
                    reads, target = result

                extra = 0
                if model_ports:
                    port_ops = reads + writes_landing
                    if port_ops > port_budget:
                        stall = (port_ops + port_budget - 1) // port_budget - 1
                        port_stalls += stall
                        extra += stall
                if share_bandwidth:
                    stall = bundles[pc].fetch_stall
                    fetch_stalls += stall
                    extra += stall

                if target is None:
                    pc += 1
                elif target >= 0:
                    branches_taken += 1
                    branch_bubbles += branch_penalty
                    extra += branch_penalty
                    pc = target
                    # Taken-branch targets are the trace profile: loop
                    # heads cross the threshold after a few iterations,
                    # cold code never pays more than this counter bump.
                    if tracing and traces[pc] is None \
                            and pc not in blacklist:
                        count = hot[pc] + 1
                        hot[pc] = count
                        if count >= hotness:
                            trace._compile_trace(pc)
                else:  # HALT
                    cycle += 1 + extra
                    break
                cycle += 1 + extra
        finally:
            # Fold local and generated-code counters into the shared
            # stats object — also on abnormal exits.  Trace exit
            # counters multiply out their per-exit static tables and
            # per-bundle visit counts the bundles' static counts, which
            # is what lets the generated code skip them entirely; taken
            # guarded-op sites add their executed counters the same way.
            for runtime in runtimes:
                ex = runtime.ex
                for j, n in enumerate(ex):
                    if n:
                        for index, k in runtime.exit_static[j]:
                            counts[index] += n * k
                        ex[j] = 0
            guard_counts = self._guard_counts
            site_pairs = self._site_pairs
            for j, n in enumerate(guard_counts):
                if n:
                    for index, k in site_pairs[j]:
                        counts[index] += n * k
                    guard_counts[j] = 0
            bundles_issued = 0
            statics = self._static
            for i, n in enumerate(visits):
                if n:
                    bundles_issued += n
                    for index, k in statics[i]:
                        counts[index] += n * k
            tb = self._t_base
            stats.bundles += bundles_issued + counts[tb + _T_BUNDLES]
            stats.branches_taken += branches_taken + counts[tb + _T_BRT]
            stats.branch_bubble_cycles += (
                branch_bubbles + counts[tb + _T_BUB])
            stats.port_stall_cycles += port_stalls + counts[tb + _T_PORT]
            stats.fetch_stall_cycles += fetch_stalls + counts[tb + _T_FETCH]
            stats.regfile_writes += regfile_writes + counts[tb + _T_RFW]
            stats.traps += traps_seen
            stats.ops_executed += counts[_C_EXEC]
            stats.ops_squashed += counts[_C_SQUASH]
            stats.nops += counts[_C_NOPS]
            stats.branches += counts[_C_BRANCHES]
            stats.memory_reads += counts[_C_MEMR]
            stats.memory_writes += counts[_C_MEMW]
            stats.regfile_reads += counts[_C_READS]
            stats.regfile_reads_forwarded += counts[_C_FWD]
            fu_busy = stats.fu_busy
            for fu_class, index in self._fu_index.items():
                if counts[index]:
                    fu_busy[fu_class] = (
                        fu_busy.get(fu_class, 0) + counts[index]
                    )
            for i in range(len(counts)):
                counts[i] = 0

        # Drain outstanding write-backs so final state is architectural.
        for ready in sorted(pending):
            for space, index, value in pending[ready]:
                if space == 0:
                    if index:
                        gpr[index] = value
                elif space == 1:
                    if index:
                        pred[index] = 1 if value else 0
                else:
                    btr[index] = value
        pending.clear()

        stats.cycles = cycle
        return cycle
