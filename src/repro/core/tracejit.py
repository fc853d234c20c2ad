"""Profile-guided superblock compilation for the EPIC core.

The fast path (:mod:`repro.core.fastpath`) removed per-op dispatch but
still pays, on *every* simulated cycle, for one Python function call,
a write-back drain probe, the PC bounds check and the port/fetch stall
arithmetic.  For loop-dominated workloads (all four paper benchmarks)
nearly all of that is invariant across iterations.

This module removes it by compiling *superblocks*.  It has no run loop
of its own: :meth:`~repro.core.fastpath.FastSim.run`, given a
:class:`TraceSim`, counts entries at taken-branch targets, and once a
target crosses a hotness threshold the trace builder walks the
statically-known fall-through chain from it — ending at an
unconditional control transfer, a loop-back, the end of the program or
a length cap — and emits ONE generated Python function for the whole
chain, from the fast path's per-op code generator.

Leaf calls are inlined into the chain.  Like the paper's EPIC, the
compiled code prepares branch targets ahead of the branch (``PBR`` into
a branch-target register, ``MOVGBP`` of the link for a return), so the
chain walk tracks which registers hold constants written inside the
chain and when they land.  An unguarded ``BRL`` whose target is such a
constant is followed into the callee, and the ``BR`` whose constant
target is that call's link is followed back out; plain jumps and loop
back-edges are never followed.  A chain that would end inside a callee
is cut back to its outermost open call instead.  Each followed branch
costs its taken-branch bubble inside the static schedule and no exit.
The generated function has

* the per-bundle issue schedule folded to constant cycle offsets
  (static fetch stalls and followed-branch bubbles included),
* write-backs that are produced *and* land inside the trace promoted
  to Python locals (the register-file lists are not touched until a
  trace exit materialises them),
* per-cycle statistics folded into per-exit static tables multiplied
  by exit counters at fold time,
* every fold of the bundle generator (``r0``, literal addresses,
  one-compare bounds tests, no re-masking of range-known values), so
  a landing is a bare assignment,
* trap bookkeeping off the hot path: each op that may trap is wrapped
  in a ``try`` whose ``except`` records the chain position that
  raised, and
* guarded side exits wherever the static schedule cannot continue — a
  taken conditional branch, a register-port stall, a HALT — that
  return control to the bundle-level engine with architectural state
  (dirty promoted locals, still-in-flight write-backs, stats deltas)
  materialised exactly.

Cycle-exactness contract
========================

The trace engine is an optimisation of the fast path, which is itself
an optimisation of the instrumented reference loop: for every program
it accepts it produces bit-identical cycle counts, statistics and
architectural state.  Eligibility is exactly fast-path eligibility
(the trace engine reuses the specialised bundle functions for cold
code).  Differential tests (``tests/core/test_tracejit.py``) enforce
the guarantee over all four paper workloads across the 1-4 ALU
presets, including randomized trace caps and hotness thresholds that
force every side-exit shape.

Two structural guards keep entry cheap and exact:

* a trace is only entered when the pending write-back queue is empty
  after the entry-cycle drain — the compiler pads block tails so every
  in-flight write lands before control leaves a block, so in steady
  state this holds on every loop iteration;
* a trace is only entered when its last bundle would still issue
  inside the cycle budget, so limit/watchdog precedence is decided by
  the bundle-level loop exactly as before.

The same statically-hoisted-counter asymmetry as the fast path applies
to *aborted* runs only: per-op counters of a bundle whose later
operation traps may include increments for operations after the trap
point.

Trace cache
===========

Compiled traces are reusable across processors running the same
program (object identity) under the same machine configuration
(:meth:`~repro.config.MachineConfig.digest`) and memory size: a
:class:`TraceCache` stores the generated source (compiled once) plus
its static tables, and re-binds per-machine state at instantiation.
Records live only in memory, for the life of the process that compiled
them, so they never outlive the simulator source they came from.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Set, Tuple

from repro.core import decode as dec
from repro.core.fastpath import (
    _Coder,
    _indent,
    _queue_lines,
    _C_FWD,
    _CONTROL_KINDS,
    _T_BRT,
    _T_BUB,
    _T_BUNDLES,
    _T_FETCH,
    _T_PORT,
    _T_RFW,
)
from repro.errors import TrapError

#: Unconditional control kinds: a trace never crosses one (it ends the
#: chain), and never *contains* a guarded one (the chain stops before).
_UNCONDITIONAL_KINDS = frozenset({dec.K_BR, dec.K_BRL, dec.K_HALT})

#: Operation kinds that schedule a register-file write-back (used by the
#: quiescent-cut trim; must match the ``_add_write`` sites below).
_WRITER_KINDS = frozenset({
    dec.K_ALU, dec.K_CUSTOM, dec.K_MOVI, dec.K_CMP, dec.K_LOAD,
    dec.K_LOAD_SPEC, dec.K_PBR, dec.K_MOVGBP, dec.K_BRL,
})


def _issue_offsets(machine, pcs: List[int], follow,
                   offsets: Optional[List[int]] = None) -> List[int]:
    """Issue-cycle offset of each chain position (entry = 0), plus one
    trailing entry for the cycle after the last bundle.

    A bundle takes one cycle plus its static fetch stall (an LSU that
    shares fetch bandwidth), and a followed branch at position ``k``
    (``k in follow``) adds the taken-branch penalty before ``k + 1``.
    Passing an already-computed prefix as ``offsets`` extends it in
    place, so a chain walk can grow it one bundle at a time.
    """
    bundles = machine._bundles
    penalty = machine.config.taken_branch_penalty
    if offsets is None:
        offsets = [0]
    for k in range(len(offsets) - 1, len(pcs)):
        step = 1 + bundles[pcs[k]].fetch_stall
        if k in follow:
            step += penalty
        offsets.append(offsets[k] + step)
    return offsets


class _Write:
    """One scheduled write-back inside a trace."""

    __slots__ = ("k", "seq", "space", "dest", "ready", "land", "flag", "var")

    def __init__(self, k: int, seq: int, space: int, dest: int,
                 ready: int, flag: Optional[str], var: str):
        self.k = k            # issuing bundle position in the chain
        self.seq = seq        # global issue order (heap tie-break)
        self.space = space    # 0 = GPR, 1 = predicate, 2 = BTR
        self.dest = dest
        self.ready = ready    # relative cycle offset the value lands at
        self.land = None      # chain position it lands at (None: after)
        self.flag = flag      # guard flag local, or None if unguarded
        self.var = var        # expression holding the value at issue


class _TraceCode:
    """Machine-independent compiled trace: source + static tables."""

    __slots__ = ("entry_pc", "pcs", "name", "source", "compiled",
                 "offsets", "o_last", "exit_static", "trap_info",
                 "fn_refs", "uses", "n_exits", "program")

    def __init__(self, entry_pc, pcs, name, source, offsets, o_last,
                 exit_static, trap_info, fn_refs, uses, program):
        self.entry_pc = entry_pc
        self.pcs = pcs
        self.name = name
        self.source = source
        self.compiled = compile(source, f"<repro.core.tracejit:{entry_pc}>",
                                "exec")
        self.offsets = offsets
        self.o_last = o_last
        self.exit_static = exit_static
        self.trap_info = trap_info
        self.fn_refs = fn_refs
        self.uses = uses
        self.n_exits = len(exit_static)
        self.program = program


class _TraceRuntime:
    """A trace bound to one machine: generated function + exit counters."""

    __slots__ = ("fn", "code", "ex", "o_last", "offsets", "trap_info",
                 "exit_static")

    def __init__(self, fn, code: _TraceCode, ex: List[int]):
        self.fn = fn
        self.code = code
        self.ex = ex
        self.o_last = code.o_last
        self.offsets = code.offsets
        self.trap_info = code.trap_info
        self.exit_static = code.exit_static


class TraceCache:
    """Reuses compiled traces across processors.

    Keyed by entry PC + :meth:`MachineConfig.digest` + memory size,
    with the program checked by object identity (the generated source
    inlines bundle shapes).
    """

    def __init__(self) -> None:
        self._records: Dict[tuple, _TraceCode] = {}
        self.compiles = 0
        self.hits = 0

    def _key(self, machine, entry_pc: int) -> tuple:
        return (entry_pc, machine.config.digest(), len(machine.memory))

    def get(self, machine, entry_pc: int) -> Optional[_TraceCode]:
        record = self._records.get(self._key(machine, entry_pc))
        if record is None or record.program is not machine.program:
            return None
        self.hits += 1
        return record

    def put(self, machine, entry_pc: int, code: _TraceCode) -> None:
        self._records[self._key(machine, entry_pc)] = code
        self.compiles += 1

    def entries(self, machine) -> List[_TraceCode]:
        """Every cached trace applicable to ``machine``, counted as hits.

        Lets a fresh :class:`TraceSim` over an already-profiled program
        start fully warm instead of re-discovering each hot entry
        through the profiling counters.
        """
        digest = machine.config.digest()
        n_words = len(machine.memory)
        records = [
            record
            for (pc, config_digest, mem_words), record
            in self._records.items()
            if config_digest == digest and mem_words == n_words
            and record.program is machine.program
        ]
        self.hits += len(records)
        return records

    def stats(self) -> Dict[str, int]:
        return {"traces": len(self._records), "compiles": self.compiles,
                "hits": self.hits}


class _TraceBuilder(_Coder):
    """Generates one superblock function for a chain of bundle PCs.

    Ops come from the bundle engine's generator (:class:`_Coder`); this
    subclass reads promoted locals instead of the register files and
    keeps every value in a fresh local, so landings and side exits can
    decide later whether it ever touches the register-file lists.
    """

    def __init__(self, machine, fastsim, pcs: List[int], follow: List[int]):
        super().__init__(machine.config, len(machine.memory))
        self.machine = machine
        self.pcs = pcs
        #: Chain positions of followed branches (inlined calls/returns).
        self.follow = frozenset(follow)
        self.bundles = [machine._bundles[pc] for pc in pcs]
        self.site_index = fastsim._site_index  # (pc, slot) -> GC site
        self.pc_static = fastsim._static      # per-PC (index, k) pairs
        self.t_base = t_base = fastsim._t_base

        config = self.config
        self.penalty = config.taken_branch_penalty
        self.budget = config.regfile_ops_per_cycle
        self.model_ports = config.model_port_limit
        self.forwarding = config.forwarding
        offsets = _issue_offsets(machine, pcs, self.follow)
        #: Static fetch stall per chain position.
        self.fetch = [bundle.fetch_stall for bundle in self.bundles]
        self.o_end = offsets.pop()  # cycle after the last bundle
        #: Issue-cycle offset of each chain position (entry = 0).
        self.offsets = offsets

        self.writes: List[_Write] = []
        self.used.add("EX")
        self.exit_static: List[List[Tuple[int, int]]] = []
        self.trap_info: Dict[int, Tuple[int, List[Tuple[int, int]]]] = {}
        #: Unguarded counter increments implied by "bundle k executed".
        self.exec_static: List[Dict[int, int]] = [
            dict(self.pc_static[pc]) for pc in pcs
        ]
        for k in range(len(pcs)):
            bump = self.exec_static[k]
            bump[t_base + _T_BUNDLES] = bump.get(t_base + _T_BUNDLES, 0) + 1
            if self.fetch[k]:
                bump[t_base + _T_FETCH] = (
                    bump.get(t_base + _T_FETCH, 0) + self.fetch[k]
                )
            if k in self.follow:
                # A followed branch is taken inside the trace: its
                # bubble is part of the static schedule.
                bump[t_base + _T_BRT] = bump.get(t_base + _T_BRT, 0) + 1
                if self.penalty:
                    bump[t_base + _T_BUB] = (
                        bump.get(t_base + _T_BUB, 0) + self.penalty
                    )
        #: Promoted locals: (space, index) -> local name, insertion order.
        self.bind: Dict[Tuple[int, int], str] = {}
        self._vseq = 0
        self._wseq = 0
        self._fseq = 0
        self._k = 0                       # chain position being emitted
        self._can_trap = False            # current bundle may raise TrapError
        self.flag_inits: List[str] = []

    # -- operand resolution (promoted local, else register file) -------

    def reg(self, space: int, index: int) -> str:
        name = self.bind.get((space, index))
        return name if name is not None else super().reg(space, index)

    def new_var(self) -> str:
        self._vseq += 1
        return f"_v{self._vseq}"

    def may_trap(self, lines: List[str]) -> List[str]:
        """Record the raising chain position on the way out only: a
        ``try`` costs nothing until something raises."""
        self.used.update(("BI", "TE"))
        return (["try:"] + _indent(lines)
                + ["except TE:", f"    BI[0] = {self._k}", "    raise"])

    def _add_write(self, k: int, space: int, dest: int, latency: int,
                   var: str, flag: Optional[str]) -> None:
        self._wseq += 1
        ready = self.offsets[k] + latency
        write = _Write(k, self._wseq, space, dest, ready, flag, var)
        # First chain position whose issue cycle is >= ready.
        for m in range(k + 1, len(self.pcs)):
            if self.offsets[m] >= ready:
                write.land = m
                break
        self.writes.append(write)

    # -- landings -------------------------------------------------------

    def _emit_landings(self, k: int, body: List[str]
                       ) -> Tuple[int, List[str]]:
        """Apply in-trace write-backs due when chain position ``k`` issues.

        Returns ``(wl_static, wl_flags)``: the statically-known count of
        GPR writes landing *exactly* at this issue cycle (they occupy
        write ports) plus the guard flags of conditional ones.
        """
        o_k = self.offsets[k]
        t_rfw = self.t_base + _T_RFW
        wl_static = 0
        wl_flags: List[str] = []
        landings = [w for w in self.writes if w.land == k]
        landings.sort(key=lambda w: (w.ready, w.seq))
        for w in landings:
            if w.space == 0:
                if w.ready == o_k:
                    if w.flag is None:
                        wl_static += 1
                    else:
                        wl_flags.append(w.flag)
                value = w.var  # GPR values are in [0, mask] at issue
            elif w.space == 1:
                value = f"1 if {w.var} else 0"
            else:
                value = w.var
            if w.dest == 0 and w.space != 2:
                # r0/p0 are hardwired; a GPR write still takes a port.
                if w.space == 0:
                    if w.flag is None:
                        bump = self.exec_static[k]
                        bump[t_rfw] = bump.get(t_rfw, 0) + 1
                    else:
                        self.used.add("C")
                        body.append(f"if {w.flag}:")
                        body.append(f"    C[{t_rfw}] += 1")
                continue
            name = self.bind.get((w.space, w.dest))
            if name is None:
                name = f"_{'rpb'[w.space]}{w.dest}"
                if w.flag is not None:
                    # Guarded first landing: seed the local so a false
                    # guard leaves the architectural value in place.
                    file_name = "GPB"[w.space]
                    self.used.add(file_name)
                    body.append(f"{name} = {file_name}[{w.dest}]")
                self.bind[(w.space, w.dest)] = name
            if w.flag is None:
                body.append(f"{name} = {value}")
                if w.space == 0:
                    bump = self.exec_static[k]
                    bump[t_rfw] = bump.get(t_rfw, 0) + 1
            else:
                self.used.add("C")
                body.append(f"if {w.flag}:")
                body.append(f"    {name} = {value}")
                if w.space == 0:
                    body.append(f"    C[{t_rfw}] += 1")
        return wl_static, wl_flags

    # -- read ports + forwarding ---------------------------------------

    def _fwd_expr(self, reg: int, k: int) -> str:
        """0/1 expression: is the read of ``reg`` at position ``k`` forwarded?

        For ``k > 0`` only in-trace landings matter (the entry guard
        drained the pending queue, so nothing external can land at a
        later in-trace cycle): the candidate that decides is the
        *latest* landed write to ``reg``, walked latest-first with
        guarded candidates turned into conditional expressions.
        """
        o_k = self.offsets[k]
        cands = [w for w in self.writes
                 if w.space == 0 and w.dest == reg
                 and w.land is not None and w.land <= k]
        cands.sort(key=lambda w: (w.ready, w.seq))
        parts: List[Tuple[str, str]] = []
        final = "0"
        for w in reversed(cands):
            hit = "1" if w.ready == o_k else "0"
            if w.flag is None:
                final = hit
                break
            parts.append((w.flag, hit))
        expr = final
        for flag, hit in reversed(parts):
            if hit != expr:
                expr = f"({hit} if {flag} else {expr})"
        return expr

    def _emit_reads(self, k: int, body: List[str]) -> Tuple[str, int]:
        """Forwarding accounting; returns ``(reads_expr, n_reads)``."""
        read_set = [r for r in self.bundles[k].gpr_read_set if r]
        n_reads = len(read_set)
        if not (self.forwarding and read_set):
            return str(n_reads), n_reads
        if k == 0:
            # External write-backs can land exactly at the entry cycle:
            # the dynamic ready-at test, same as the fast path.
            self.used.update(("RA", "C"))
            forwarded = " + ".join(f"(RA[{r}] == cycle0)" for r in read_set)
            body.append(f"_f = {forwarded}")
            body.append(f"C[{_C_FWD}] += _f")
            return f"({n_reads} - _f)", n_reads
        static_fwd = 0
        dyn: List[str] = []
        for reg in read_set:
            expr = self._fwd_expr(reg, k)
            if expr == "1":
                static_fwd += 1
            elif expr != "0":
                dyn.append(expr)
        if static_fwd:
            bump = self.exec_static[k]
            bump[_C_FWD] = bump.get(_C_FWD, 0) + static_fwd
        if not dyn:
            return str(n_reads - static_fwd), n_reads
        self.used.add("C")
        body.append(f"C[{_C_FWD}] += " + " + ".join(dyn))
        return (f"({n_reads - static_fwd} - " + " - ".join(dyn) + ")",
                n_reads)

    # -- op issue -------------------------------------------------------

    def _emit_ops(self, k: int, pc: int, body: List[str]):
        """Issue every op of chain position ``k``; returns the control op."""
        bundle = self.bundles[k]
        control = None
        store_init, store_tail = self.store_frame(bundle.ops)
        body += store_init
        for slot, op in enumerate(bundle.ops):
            if op.kind == dec.K_NOP:
                continue  # static NOP counts are already folded
            if op.kind in _CONTROL_KINDS:
                control = op
            branch = op.kind in (dec.K_BRCT, dec.K_BRCF)
            flag = None
            if op.guard and not branch and op.kind != dec.K_STORE:
                self._fseq += 1
                flag = f"_g{self._fseq}"
                self.flag_inits.append(f"{flag} = 0")
            code = self.op_code(op, pc, slot)
            self._can_trap |= code.can_trap
            lines = list(code.lines)
            for space, dest, latency, value in code.writes:
                if not (value.isdigit() or value.isidentifier()):
                    var = self.new_var()
                    lines.append(f"{var} = {value}")
                    value = var
                self._add_write(k, space, dest, latency, value, flag)
            if code.control is not None:
                test, target = code.control
                # A followed branch's target is the next chain position.
                if test is not None:
                    lines += [f"_tk = {test}", f"_tg = {target}"]
                elif target is not None and k not in self.follow:
                    lines.append(f"_tg = {target}")
            if op.guard:
                if branch:
                    body.append("_tk = 0")
                if flag is not None:
                    lines.append(f"{flag} = 1")
                body += self.guarded(op.guard, self.site_index[(pc, slot)],
                                     lines)
            else:
                # Unguarded counter bumps are already in the fast
                # path's per-bundle statics (folded per exit).
                body += lines
        body += store_tail
        return control

    # -- side exits -----------------------------------------------------

    def _exit(self, k: int, taken: bool, pc_expr: str, cycle_expr: str,
              need_port: bool) -> List[str]:
        """Materialise architectural state and leave after position ``k``."""
        j = len(self.exit_static)
        pairs: Dict[int, int] = {}
        for i in range(k + 1):
            for index, n in self.exec_static[i].items():
                pairs[index] = pairs.get(index, 0) + n
        if taken:
            t_brt = self.t_base + _T_BRT
            pairs[t_brt] = pairs.get(t_brt, 0) + 1
            if self.penalty:
                t_bub = self.t_base + _T_BUB
                pairs[t_bub] = pairs.get(t_bub, 0) + self.penalty
        self.exit_static.append(sorted(pairs.items()))

        lines = [f"EX[{j}] += 1"]
        if need_port:
            self.used.add("C")
            lines.append(f"C[{self.t_base + _T_PORT}] += _x")
        # Dirty promoted locals back to the register files.
        for (space, index), name in self.bind.items():
            file_name = "GPB"[space]
            self.used.add(file_name)
            lines.append(f"{file_name}[{index}] = {name}")
        # Still-in-flight write-backs into the pending queue, in
        # (ready, issue-order) order — the drain's pop order.
        flush = [w for w in self.writes
                 if w.k <= k and (w.land is None or w.land > k)]
        flush.sort(key=lambda w: (w.ready, w.seq))
        if flush:
            self.used.add("PD")
        i = 0
        while i < len(flush):
            w = flush[i]
            if w.flag is not None:
                lines.append(f"if {w.flag}:")
                lines.extend("    " + line for line in self._push_one(w))
                i += 1
                continue
            group = [w]
            while (i + len(group) < len(flush)
                   and flush[i + len(group)].flag is None
                   and flush[i + len(group)].ready == w.ready):
                group.append(flush[i + len(group)])
            lines.extend(self._push_group(group))
            i += len(group)
        lines.append(f"return {pc_expr}, {cycle_expr}")
        return lines

    def _push_one(self, w: _Write) -> List[str]:
        return self._push_group([w])

    def _push_group(self, group: List[_Write]) -> List[str]:
        lines = _queue_lines(f"cycle0 + {group[0].ready}")
        for w in group:
            lines.append(f"_q.append(({w.space}, {w.dest}, {w.var}))")
        return lines

    def _emit_exits(self, k: int, control, need_port: bool,
                    body: List[str]) -> None:
        last = len(self.pcs) - 1
        o_next = self.offsets[k + 1] if k < last else self.o_end
        px = " + _x" if need_port else ""
        kind = control.kind if control is not None else None
        if k in self.follow:
            kind = None  # taken inside the trace: only a port-stall exit
        if kind in (dec.K_BR, dec.K_BRL):
            body.extend(self._exit(
                k, True, "_tg",
                f"cycle0 + {o_next + self.penalty}{px}", need_port))
        elif kind == dec.K_HALT:
            body.extend(self._exit(
                k, False, "-1", f"cycle0 + {o_next}{px}", need_port))
        elif kind in (dec.K_BRCT, dec.K_BRCF):
            taken = self._exit(k, True, "_tg",
                               f"cycle0 + {o_next + self.penalty}{px}",
                               need_port)
            body.append("if _tk:")
            body.extend("    " + line for line in taken)
            if k == last:
                body.extend(self._exit(
                    k, False, str(self.pcs[k] + 1),
                    f"cycle0 + {o_next}{px}", need_port))
            elif need_port:
                body.append("if _x:")
                stall = self._exit(k, False, str(self.pcs[k + 1]),
                                   f"cycle0 + {o_next} + _x", True)
                body.extend("    " + line for line in stall)
        else:
            if k == last:
                body.extend(self._exit(
                    k, False, str(self.pcs[k] + 1),
                    f"cycle0 + {o_next}{px}", need_port))
            elif need_port:
                body.append("if _x:")
                stall = self._exit(k, False, str(self.pcs[k + 1]),
                                   f"cycle0 + {o_next} + _x", True)
                body.extend("    " + line for line in stall)

    # -- assembly -------------------------------------------------------

    def build(self, name: str) -> _TraceCode:
        body: List[str] = []
        trap_bundles: List[int] = []
        for k, pc in enumerate(self.pcs):
            wl_static, wl_flags = self._emit_landings(k, body)
            reads_expr, n_reads = self._emit_reads(k, body)
            self._k = k
            self._can_trap = False
            control = self._emit_ops(k, pc, body)
            if self._can_trap:
                trap_bundles.append(k)
            # Port-stall test: bundle 0 sees externally-landing writes
            # (dynamic count), later positions only in-trace landings
            # (static upper bound decides whether the test is needed).
            need_port = self.model_ports and (
                k == 0
                or n_reads + wl_static + len(wl_flags) > self.budget
            )
            if need_port:
                if k == 0:
                    wl_expr = "_wl0"
                else:
                    wl_expr = " + ".join([str(wl_static)] + wl_flags)
                body.append(f"_po = {reads_expr} + {wl_expr}")
                body.append(f"if _po > {self.budget}:")
                body.append(
                    f"    _x = (_po + {self.budget - 1}) "
                    f"// {self.budget} - 1")
                body.append("else:")
                body.append("    _x = 0")
            self._emit_exits(k, control, need_port, body)

        # Trap fold tables: a trap at position k has executed bundles
        # 0..k (the usual hoisted-counter asymmetry on aborted runs)
        # but never charged the trapping bundle's fetch stall, nor
        # taken its branch if that one was followed.
        trap_info: Dict[int, Tuple[int, List[Tuple[int, int]]]] = {}
        t_base = self.t_base
        for k in trap_bundles:
            pairs: Dict[int, int] = {}
            for i in range(k + 1):
                for index, n in self.exec_static[i].items():
                    pairs[index] = pairs.get(index, 0) + n
            uncharged = [(t_base + _T_FETCH, self.fetch[k])]
            if k in self.follow:
                uncharged += [(t_base + _T_BRT, 1),
                              (t_base + _T_BUB, self.penalty)]
            for index, n in uncharged:
                if n:
                    pairs[index] -= n
                    if not pairs[index]:
                        del pairs[index]
            trap_info[k] = (self.pcs[k], sorted(pairs.items()))

        # A trap aborts the run, but the architectural state it leaves
        # behind must still match the instrumented loop: every write
        # landed by the trap cycle lives in a promoted local, so flush
        # whichever of them exist yet (a trap at position k leaves
        # later positions' locals unbound) before re-raising.
        handler: List[str] = []
        if trap_bundles and self.bind:
            handler.append("_loc = locals()")
            for (space, index), local in self.bind.items():
                file_name = "GPB"[space]
                self.used.add(file_name)
                handler.append(f"if {local!r} in _loc:")
                handler.append(f"    {file_name}[{index}] = _loc[{local!r}]")
            handler.append("raise")
            self.used.add("TE")

        params = ["cycle0", "_wl0"]
        params += [f"{n}={n}" for n in sorted(self.used)]
        lines = [f"def {name}({', '.join(params)}):"]
        lines.extend("    " + line for line in self.flag_inits)
        if handler:
            lines.append("    try:")
            lines.extend("        " + line for line in body)
            lines.append("    except TE:")
            lines.extend("        " + line for line in handler)
        else:
            lines.extend("    " + line for line in body)
        source = "\n".join(lines)
        return _TraceCode(
            entry_pc=self.pcs[0], pcs=list(self.pcs), name=name,
            source=source, offsets=list(self.offsets),
            o_last=self.offsets[-1], exit_static=self.exit_static,
            trap_info=trap_info, fn_refs=self.fn_refs,
            uses=sorted(self.used), program=self.machine.program,
        )


class TraceSim:
    """The trace engine's state: profile, blacklist and superblocks.

    Layered on a :class:`~repro.core.fastpath.FastSim`, whose run loop
    takes this object (``FastSim.run(..., trace=...)``): cold bundles
    execute through the specialised bundle functions exactly as the
    fast path would; hot taken-branch targets are compiled into
    superblocks and dispatched whenever their entry guards hold.
    """

    def __init__(self, machine, fastsim, hotness: int = 16,
                 cap: int = 64, cache: Optional[TraceCache] = None):
        # A weak reference: the machine holds this engine.
        self._machine = weakref.ref(machine)
        self._fastsim = fastsim
        self._hotness = max(1, hotness)
        self._cap = max(1, cap)
        self._min_len = 2 if self._cap >= 2 else 1
        self._cache = cache
        n_bundles = len(machine._bundles)
        self._traces: List[Optional[_TraceRuntime]] = [None] * n_bundles
        self._hot = [0] * n_bundles
        self._blacklist: Set[int] = set()
        self._runtimes: List[_TraceRuntime] = []
        self._bi = [0]  # chain position of the bundle that trapped
        #: Superblocks compiled by this engine (cache hits included).
        self.traces_compiled = 0
        # A shared cache warmed by an earlier run makes this engine hot
        # from cycle one: every applicable record is instantiated up
        # front instead of re-profiled back up to the hotness threshold.
        if cache is not None:
            for code in cache.entries(machine):
                self._traces[code.entry_pc] = self._instantiate(code)
                self.traces_compiled += 1

    @property
    def trace_count(self) -> int:
        return len(self._runtimes)

    # -- trace formation ------------------------------------------------

    def _chain(self, entry_pc: int) -> Tuple[List[int], List[int]]:
        """Walk the static chain from ``entry_pc``; returns ``(pcs, follow)``.

        Conditional branches fall through: the taken direction becomes a
        side exit.  Leaf calls are inlined: an unguarded ``BRL`` whose
        target register holds an in-chain constant is followed, and so
        is the ``BR`` whose constant target is the innermost open call's
        link (its return).  ``follow`` lists the chain positions of
        those followed branches.

        The chain otherwise ends at an unconditional control transfer
        (which joins the trace), a loop-back onto the chain, the edge
        of the program, the length cap, or *before* a guarded
        unconditional transfer (those stay on the bundle engine).  If a
        call is still open when it ends, the chain is cut back to the
        outermost open ``BRL``, which then ends it unfollowed.

        Branch targets are read from the in-chain writes only (nothing
        from before the entry is known): ``PBR``, the ``BRL`` link,
        ``MOVI`` and ``MOVE``/``MOVGBP`` of a literal or a known GPR
        give constants, every other or guarded write gives unknown, and
        a read at issue offset ``o`` sees the latest write (by ready
        offset, then issue order) ready by ``o``.  Predicates never hold
        a target, so they are not tracked.
        """
        machine = self._machine()
        bundles = machine._bundles
        n_bundles = len(bundles)
        mask = machine.config.mask
        pcs: List[int] = []
        follow: List[int] = []
        offsets = [0]
        #: (space, index) -> [(ready, value or None)] in issue order;
        #: space 0 = GPR, 2 = BTR.
        written: Dict[Tuple[int, int], List[Tuple[int, Optional[int]]]] = {}
        calls: List[Tuple[int, int]] = []  # open calls: (position, link)
        #: (pc, open-call links): a callee entered twice is no loop.
        seen: Set[Tuple[int, tuple]] = set()
        frame: tuple = ()

        def known(space: int, index: int, o: int) -> Optional[int]:
            if space == 0 and index == 0:
                return 0
            value = None
            latest = -1
            for ready, constant in written.get((space, index), ()):
                if latest <= ready <= o:  # ties: later issue wins
                    latest, value = ready, constant
            return value

        pc = entry_pc
        capped = True  # until another terminator fires first
        while len(pcs) < self._cap:
            if not 0 <= pc < n_bundles or (pc, frame) in seen:
                capped = False
                break
            bundle = bundles[pc]
            control = next((op for op in bundle.ops
                            if op.kind in _CONTROL_KINDS), None)
            if (control is not None and control.guard
                    and control.kind in _UNCONDITIONAL_KINDS):
                capped = False
                break
            o = offsets[-1]
            target = None
            if control is not None and control.kind in (dec.K_BR,
                                                        dec.K_BRL):
                target = known(2, control.s1, o)
            for op in bundle.ops:
                kind = op.kind
                if kind == dec.K_PBR:
                    space, value = 2, op.s1
                elif kind == dec.K_BRL:
                    space, value = 0, (pc + 1) & mask
                elif kind == dec.K_MOVI:
                    space, value = 0, op.s1 & mask
                elif (kind == dec.K_MOVGBP
                      or (kind == dec.K_ALU and op.fn is None)):  # MOVE
                    space = 2 if kind == dec.K_MOVGBP else 0
                    value = (op.s1 & mask if op.s1_lit
                             else known(0, op.s1, o))
                elif kind in _WRITER_KINDS and kind != dec.K_CMP:
                    space, value = 0, None
                else:
                    continue  # no write, or predicates only
                if op.guard:
                    value = None
                if space == 0 and op.d1 == 0:
                    continue  # r0 is hardwired
                written.setdefault((space, op.d1), []).append(
                    (o + op.latency, value))
            k = len(pcs)
            pcs.append(pc)
            seen.add((pc, frame))
            if control is not None and control.kind in _UNCONDITIONAL_KINDS:
                if (control.kind == dec.K_BRL and target is not None
                        and 0 <= target < n_bundles):
                    calls.append((k, (pc + 1) & mask))
                elif (control.kind == dec.K_BR and calls
                      and target == calls[-1][1]):
                    calls.pop()
                else:
                    capped = False
                    break
                follow.append(k)
                frame = tuple(link for _, link in calls)
                pc = target
            else:
                pc += 1
            _issue_offsets(machine, pcs, follow, offsets)
        if calls:
            del pcs[calls[0][0] + 1:]
        elif capped:
            del pcs[self._trim_quiescent(pcs, offsets):]
        # A followed branch that now ends the chain is an ordinary
        # terminator again: it leaves through its taken exit.
        return pcs, [k for k in follow if k < len(pcs) - 1]

    def _trim_quiescent(self, pcs: List[int], offsets: List[int]) -> int:
        """Length to trim a cap-cut chain to, at a quiescent hand-over.

        A chain cut mid-block can leave write-backs in flight past its
        fall-through exit, so the continuation trace (formed by exit
        profiling below) would fail its pending-empty entry guard on
        every single dispatch.  Trim to the longest prefix whose writes
        all land by the prefix's exit cycle (``offsets`` are the chain's
        issue offsets, from :func:`_issue_offsets`); linked traces then
        hand over cleanly.  When no such point exists in the back half,
        keep the raw cut — still correct, just slower.
        """
        bundles = self._machine()._bundles
        #: Latest write-back ready cycle among bundles [0, k).
        last_ready = [0] * (len(pcs) + 1)
        latest = 0
        for k, pc in enumerate(pcs):
            for op in bundles[pc].ops:
                if op.kind in _WRITER_KINDS:
                    latest = max(latest, offsets[k] + op.latency)
            last_ready[k + 1] = latest
        floor = max(self._min_len, len(pcs) // 2)
        for m in range(len(pcs), floor - 1, -1):
            if last_ready[m] <= offsets[m]:
                return m
        return len(pcs)

    def _compile_trace(self, entry_pc: int) -> None:
        machine = self._machine()
        code = None
        if self._cache is not None:
            code = self._cache.get(machine, entry_pc)
        if code is None:
            pcs, follow = self._chain(entry_pc)
            if len(pcs) < self._min_len:
                self._blacklist.add(entry_pc)
                return
            builder = _TraceBuilder(machine, self._fastsim, pcs, follow)
            code = builder.build(f"_t{entry_pc}")
            if self._cache is not None:
                self._cache.put(machine, entry_pc, code)
        self._traces[entry_pc] = self._instantiate(code)
        self.traces_compiled += 1

    def _instantiate(self, code: _TraceCode) -> _TraceRuntime:
        machine = self._machine()
        fastsim = self._fastsim
        ex = [0] * code.n_exits
        providers = {
            "G": fastsim._gpr_values,
            "P": fastsim._pred_values,
            "B": fastsim._btr_values,
            "RA": fastsim._ready_at,
            "C": fastsim._counts,
            "GC": fastsim._guard_counts,
            "PD": fastsim._pending,
            "MEM": machine.memory._words,
            "MR": machine.memory.read,
            "MC": machine.memory.check_write,
            "BI": self._bi,
            "EX": ex,
            "TE": TrapError,
        }
        for fn_name, pc, slot in code.fn_refs:
            providers[fn_name] = machine._bundles[pc].ops[slot].fn
        namespace = {name: providers[name] for name in code.uses}
        exec(code.compiled, namespace)  # noqa: S102 - our generated source
        # Popped, so the function's globals do not hold the function.
        runtime = _TraceRuntime(namespace.pop(code.name), code, ex)
        self._runtimes.append(runtime)
        return runtime
