"""Batched vectorised fault-campaign engine: N injected lanes, one pass.

Fault campaigns are thousands of near-identical runs: every injected
machine executes the *golden* (fault-free) trajectory up to its fault
cycle, diverges — usually locally and briefly — and in the common case
converges right back onto the golden trajectory (MASKED).  The scalar
checker pays one full simulator run per fault; this engine walks the
golden trajectory **once** and carries N injected machines along as
*lanes* of lane-major 2-D state:

* the data-memory plane is one NumPy ``int64`` array of shape
  ``(lanes + 1, mem_words)`` (row 0 is the golden machine), so lane
  activation (row copy), golden stores (column write), golden-address
  loads (column compare), convergence compares (row diff) and final
  output diffs vectorise;
* register/predicate/BTR state is the golden row (Python lists) plus
  a sparse per-lane overlay dict, because per-operation scalar access
  dominates there and the rows are tiny.

Exactness contract
==================

The walk replays ``EpicProcessor._run_instrumented`` exactly — same
drain order, same port/bandwidth stall arithmetic, same store buffering,
same operation semantics (it calls the *same* ``PreOp.fn`` callables) —
so row 0 reproduces the reference run cycle-for-cycle.  A lane only
stays in the vector while its future is provably identical to the
golden machine's *control flow*:

* a lane whose guard predicate disagrees with the golden guard retires
  (``guard-divergence``) — per-lane squash would change the write-back
  schedule and hence the port-stall timing;
* a lane whose branch condition or branch target disagrees retires
  (``branch-divergence``);
* a lane that would trap (out-of-bounds load/store) or divide by zero
  retires (``trap-risk``) under every trap policy: halting, squashing
  the bundle or recording the trap is the scalar machine's job, and
  non-halt campaigns still ride the vector for every lane that does
  not trap;
* instruction-fetch faults are resolved at the fetch they corrupt: a
  word that no longer decodes under the ``halt`` policy is classified
  DETECTED on the spot (the caller supplies the exact trap text via the
  ``ifetch`` callback); a fetch that deterministically *rewrites* the
  program (it still decodes, or the recorded decode trap skips the
  bundle) is first *absorbed* in-lane when it provably keeps the
  golden timing, and otherwise yields a :class:`RewalkTicket`: the
  caller classifies that lane with one scalar re-walk;
* parity-protected targets retire (``parity-protected``) — poison
  bookkeeping belongs to the scalar machine;
* out-of-range or malformed fault specs retire (``fault-out-of-range``)
  so the scalar path reproduces today's error behaviour;
* any internal surprise retires every unresolved lane
  (``engine-error``) — the engine may only ever *decline* work.

Retired lanes are re-run by the scalar ``LockstepChecker``, which is
ground truth, so retirement can never change an outcome table.  For
lanes that survive, matched guards + matched branches + no trap imply
the lane issues the same bundles at the same cycles as the golden run
(write-back schedules, forwarding ages and stall arithmetic are
lane-invariant), so its final cycle count *is* ``reference_cycles`` and
in-vector classification is exact:

* **convergence cut** — at a quiescent cycle (empty write-back queue),
  an activated non-stuck lane whose whole state (registers and memory
  row) equals row 0 can never diverge again: MASKED immediately;
* **end of walk** — surviving lanes halt with the golden machine and
  are classified by diffing their outputs against the golden model in
  exactly the scalar checker's order (SDC on the first mismatch,
  MASKED otherwise);
* faults whose cycle lies beyond the last issue cycle never fire:
  MASKED with the reference cycle count, as in the scalar run.

Between activations with no live lane the walk fast-forwards along the
shared golden checkpoint stream (``golden-jump``), and it stops early
once every lane is resolved — so sparse campaigns do not pay for the
whole trajectory.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import decode as dec
from repro.errors import SimulationError
from repro.isa.semantics import to_signed

#: Fault target spaces / models, mirrored locally (``repro.reliability``
#: imports the core, not the other way around).
_SPACE_GPR = "gpr"
_SPACE_PRED = "pred"
_SPACE_BTR = "btr"
_SPACE_MEM = "mem"
_SPACE_IFETCH = "ifetch"
_STATE_SPACES = (_SPACE_GPR, _SPACE_PRED, _SPACE_BTR, _SPACE_MEM)
_MODEL_SEU = "seu"
_MODEL_STUCK0 = "stuck-at-0"
_MODEL_STUCK1 = "stuck-at-1"
_MODELS = (_MODEL_SEU, _MODEL_STUCK0, _MODEL_STUCK1)

#: Retirement reasons (stats keys; every retired lane re-runs scalar).
RETIRE_GUARD = "guard-divergence"
RETIRE_BRANCH = "branch-divergence"
RETIRE_TRAP = "trap-risk"
RETIRE_IFETCH = "ifetch-rewrite"
RETIRE_PARITY = "parity-protected"
RETIRE_BOUNDS = "fault-out-of-range"
RETIRE_ENGINE = "engine-error"

#: Control kinds that may branch, and all control kinds.
_BRANCH_KINDS = frozenset({dec.K_BR, dec.K_BRCT, dec.K_BRCF, dec.K_BRL})
_CONTROL_KINDS = _BRANCH_KINDS | {dec.K_HALT}

#: Kinds whose value comes from the op's semantics function (a MOVE
#: has none and copies its source).
_SEMANTICS_KINDS = frozenset({dec.K_ALU, dec.K_CUSTOM, dec.K_CMP})

#: Default lane count per pass; bounds the memory plane at
#: ``(DEFAULT_LANES + 1) * mem_words`` words.
DEFAULT_LANES = 64

# Pending write-back spaces (same codes as the scalar core).
_P_GPR = 0
_P_PRED = 1
_P_BTR = 2


@dataclass
class LaneOutcome:
    """One lane classified in-vector.

    ``outcome`` uses the checker's wire values (``"masked"``,
    ``"detected"``, ``"sdc"``) so the caller can map it straight onto
    its ``Outcome`` enum.
    """

    outcome: str
    detail: str
    cycles: int
    trap_cause: Optional[str] = None


@dataclass(frozen=True)
class RewalkTicket:
    """One fetch-fault lane to classify with a scalar re-walk.

    The fault corrupts exactly one fetch: the fetched bundle is
    replaced by one whose slot ``slot`` was re-encoded with one bit
    flipped.  Unlike a retired lane, a ticket is an expected
    resolution, not a failure of the walk: the caller runs the lane on
    the scalar checker and counts it as a re-walk.

    ``bundle`` is the re-decoded :class:`~repro.core.decode.PreBundle`
    of the rewritten fetch, or ``None`` when the word no longer
    decodes.  The walk uses it to *absorb* the rewritten fetch
    in-vector (see ``absorb`` in the walk) instead of issuing the
    ticket, and falls back to the ticket whenever it cannot prove
    timing congruence.
    """

    slot: int
    bundle: object = None


class _VectorAbort(Exception):
    """Internal invariant violation: decline the pass, retire lanes."""


class _Lane:
    """One injected machine riding the walk."""

    __slots__ = ("index", "fault", "row", "gpr", "pred", "btr", "mem",
                 "witness", "stuck", "born", "running")

    def __init__(self, index: int, fault, row: int):
        self.index = index       # position in the caller's fault list
        self.fault = fault
        self.row = row           # row in the lane-major planes
        #: Register state is a sparse *overlay* over the live golden
        #: row: ``gpr[i]`` present means the lane's register ``i``
        #: holds that value; absent means it equals ``g_gpr[i]`` right
        #: now.  Reads go through ``.get(i, golden)``; the walk's
        #: divergence sets index which (register, row) pairs carry an
        #: overlay entry, so per-op work scales with *divergent* lanes
        #: instead of active lanes.
        self.gpr: Dict[int, int] = {}
        self.pred: Dict[int, int] = {}
        self.btr: Dict[int, int] = {}
        self.mem = None          # row of the memory plane
        #: An address where ``mem`` differed from the golden row at the
        #: last convergence check.  While it still differs the lane
        #: cannot be cut, so the check skips the full-row diff.
        self.witness = 0
        #: True while the lane is in ``active`` (a runner); cleared on
        #: retire/cut so stale divergence-set rows are skippable without
        #: list membership tests.
        self.running = False
        self.stuck = fault.model != _MODEL_SEU
        #: ``stats["iterations"]`` value at activation; -1 until then.
        #: Used to attribute walked cycles to lanes that later retire.
        self.born = -1


class VectorEngine:
    """Walks the golden trajectory once, carrying N injected lanes.

    Construction mirrors the scalar checker's knowledge: the compiled
    program, the golden outputs (``(name, base_address, expected)``
    tuples in the checker's diff order), the golden checksum and the
    reference cycle count.  :meth:`run_pass` then classifies a batch of
    fault specs, returning ``None`` for every lane it retires to the
    scalar path.
    """

    def __init__(self, config, program, mem_words: int,
                 outputs: Sequence[Tuple[str, int, Sequence[int]]] = (),
                 golden_checksum: Optional[int] = None,
                 reference_cycles: int = 0,
                 watchdog_cycles: Optional[int] = None,
                 max_cycles: int = 200_000_000):
        self.config = config
        self.program = program
        self.mem_words = mem_words
        self.outputs = tuple((name, base, tuple(values))
                             for name, base, values in outputs)
        self.golden_checksum = golden_checksum
        self.reference_cycles = reference_cycles
        self.watchdog_cycles = watchdog_cycles
        self.max_cycles = max_cycles

        if len(program.data) > mem_words:
            raise SimulationError(
                f"program data ({len(program.data)} words) exceeds memory "
                f"({mem_words} words)")
        mask = config.mask
        self._base_mem = [word & mask for word in program.data]
        self._base_mem.extend([0] * (mem_words - len(self._base_mem)))

        self._bundles = dec.predecode_program(program, config)

    # -- fault triage ------------------------------------------------------

    def _space_limit(self, space: str) -> int:
        config = self.config
        return {_SPACE_GPR: config.n_gprs,
                _SPACE_PRED: config.n_preds,
                _SPACE_BTR: config.n_btrs,
                _SPACE_MEM: self.mem_words}[space]

    def _protection(self, space: str) -> str:
        if space == _SPACE_MEM:
            return self.config.memory_protection
        return self.config.regfile_protection

    def _masked(self) -> LaneOutcome:
        return LaneOutcome("masked", "outputs match", self.reference_cycles)

    # -- the pass ----------------------------------------------------------

    def run_pass(self, faults: Sequence,
                 stream=None,
                 ifetch: Optional[Callable] = None,
                 strict: bool = False):
        """Classify ``faults``; returns ``(outcomes, stats)``.

        ``outcomes[i]`` is a :class:`LaneOutcome`, a
        :class:`RewalkTicket` (the caller re-walks the lane on the
        scalar checker) or ``None`` (lane retired — re-run it on the
        scalar checker).  ``stream`` is an optional golden
        :class:`~repro.core.snapshot.CheckpointStream` used for
        golden-jumps between activations.  ``ifetch`` resolves
        instruction-fetch faults: called as ``ifetch(cycle, pc, fault)``
        at the exact fetch the fault corrupts, it returns a
        :class:`LaneOutcome` (the word no longer decodes under the
        ``halt`` policy — DETECTED with the scalar trap text), a
        :class:`RewalkTicket` (the fetch deterministically rewrites the
        program) or ``None`` (the lane retires).  ``strict`` re-raises
        internal errors instead of retiring, for tests.

        ``stats`` uses :meth:`LockstepChecker.run_batch`'s key names,
        so a batch sums its passes key by key.  ``lane_capacity`` is
        walked cycles times lanes in the pass.
        """
        faults = list(faults)
        outcomes: List[Optional[object]] = [None] * len(faults)
        reasons: Dict[int, str] = {}
        stats = {
            "vector_faults": len(faults),
            "classified": 0,
            "activated": 0,
            "cuts": 0,
            "jumps": 0,
            "iterations": 0,
            "lane_cycles": 0,
            "wasted_lane_cycles": 0,
            "lane_capacity": 0,
            "rewalk_lanes": 0,
            "absorbed_lanes": 0,
            "retired": {},
        }

        def retire(index: int, reason: str) -> None:
            reasons[index] = reason

        walk: List[Tuple[int, object]] = []
        fetch_queue: List[Tuple[int, object]] = []
        try:
            for position, fault in enumerate(faults):
                space = fault.space
                model = fault.model
                if (space not in _STATE_SPACES + (_SPACE_IFETCH,)
                        or model not in _MODELS
                        or fault.index < 0 or fault.bit < 0
                        or fault.cycle < 0):
                    # The scalar injector rejects these with an
                    # exception; reproduce that behaviour there.
                    retire(position, RETIRE_BOUNDS)
                    continue
                if space == _SPACE_IFETCH:
                    if ifetch is None:
                        retire(position, RETIRE_IFETCH)
                    else:
                        fetch_queue.append((position, fault))
                    continue
                if fault.index >= self._space_limit(space):
                    retire(position, RETIRE_BOUNDS)
                    continue
                # Triage order mirrors FaultInjector._apply_state.
                if space in (_SPACE_GPR, _SPACE_PRED) and fault.index == 0:
                    outcomes[position] = self._masked()  # no storage
                    continue
                protection = self._protection(space)
                if protection == "ecc":
                    outcomes[position] = self._masked()  # corrected
                    continue
                if protection == "parity":
                    retire(position, RETIRE_PARITY)
                    continue
                walk.append((position, fault))

            if walk or fetch_queue:
                self._walk(walk, fetch_queue, outcomes, stats, retire,
                           stream, ifetch)
        except Exception:
            if strict:
                raise
            # Safety net: the engine may only decline work.  Anything
            # unresolved goes back to the scalar checker.  (Tickets
            # already issued stay valid: a rewritten fetch depends only
            # on golden state, not on the walk's health.)
            for position, outcome in enumerate(outcomes):
                if outcome is None and position not in reasons:
                    reasons[position] = RETIRE_ENGINE
            stats["wasted_lane_cycles"] = stats["lane_cycles"]
        stats["lane_capacity"] = stats["iterations"] * max(
            1, len(walk) + len(fetch_queue))
        retired: Dict[str, int] = stats["retired"]
        for reason in reasons.values():
            retired[reason] = retired.get(reason, 0) + 1
        stats["classified"] = sum(
            1 for o in outcomes if isinstance(o, LaneOutcome))
        return outcomes, stats

    # -- the golden-trajectory walk ---------------------------------------

    def _walk(self, walk, fetch_queue, outcomes, stats, retire,
              stream, ifetch) -> None:
        config = self.config
        mask = config.mask
        width = config.datapath_width
        bundles = self._bundles
        n_bundles = len(bundles)
        n_gprs = config.n_gprs

        port_budget = config.regfile_ops_per_cycle
        model_ports = config.model_port_limit
        forwarding = config.forwarding
        branch_penalty = config.taken_branch_penalty
        reference_cycles = self.reference_cycles

        # Golden row (row 0) — fresh-machine state.
        g_gpr = [0] * n_gprs
        g_gpr[1] = self.mem_words  # stack grows down from the top
        g_pred = [0] * config.n_preds
        g_pred[0] = 1
        g_btr = [0] * config.n_btrs

        lanes = [_Lane(position, fault, row + 1)
                 for row, (position, fault) in enumerate(walk)]
        # Fetch-fault lanes get rows too: a rewritten fetch that proves
        # timing-congruent with the golden bundle is *absorbed* as a
        # normal divergent lane (see ``absorb`` below) instead of being
        # deferred to the scalar re-walk.  Rows stay parked (not
        # ``running``) until absorption succeeds.
        fetch_queue = sorted(fetch_queue, key=lambda item: item[1].cycle)
        fetch_lanes = [_Lane(position, fault, len(lanes) + 1 + i)
                       for i, (position, fault) in enumerate(fetch_queue)]
        n_rows = len(lanes) + len(fetch_lanes) + 1
        row_lane = {lane.row: lane for lane in lanes}
        for lane in fetch_lanes:
            row_lane[lane.row] = lane

        # Divergence sets: for each architectural register, the rows
        # whose overlay carries an entry there.  Conservative supersets
        # are sound (a stale row costs a ``.get`` that returns golden);
        # a *missing* divergent row would be a correctness bug, so
        # every overlay write adds the row and only a landing golden
        # value (or lane release) removes it.  Op dispatch iterates
        # these unions instead of the active list, so the per-cycle
        # cost is O(divergent lanes), not O(active lanes).
        div_gpr: List[set] = [set() for _ in range(n_gprs)]
        div_pred: List[set] = [set() for _ in range(config.n_preds)]
        div_btr: List[set] = [set() for _ in range(config.n_btrs)]

        mem_plane = np.empty((n_rows, self.mem_words), dtype=np.int64)
        # Every row starts at base memory (not zeros): golden column
        # stores keep unactivated rows in sync, so the K_LOAD column
        # compare does not chase phantom divergence through them.
        mem_plane[:] = self._base_mem
        g_mem = mem_plane[0]
        for lane in lanes + fetch_lanes:
            lane.mem = mem_plane[lane.row]

        # Activation queues, ascending by fault cycle (stable).
        activations = sorted(lanes, key=lambda lane: lane.fault.cycle)
        act_at = 0
        fetch_at = 0

        # ``active`` lanes (runners) are the activated, unresolved lanes.
        # A lane whose registers match the golden row costs nothing per
        # op (it sits in no divergence set); its dirty memory words
        # reach it through the golden-address column compare on loads.
        active: List[_Lane] = []
        stuck: List[_Lane] = []
        # The injector re-asserts stuck-at bits every cycle, but the
        # assert is idempotent: between writes to the target the value
        # cannot drift.  Re-asserting only when a write actually lands
        # on the target (drain or store flush) is therefore exact and
        # saves a per-cycle loop.  ``stuck_reg`` keys register-space
        # targets by their drain coordinates; ``stuck_mem`` lanes are
        # checked against the address their own row received.
        stuck_reg: Dict[tuple, List[_Lane]] = {}
        stuck_mem: List[_Lane] = []

        # Pending write-backs: (ready, seq, space, index, golden, vec)
        # where ``vec`` is None (value identical in every lane) or a
        # {row: value} dict; rows absent from the dict take the golden
        # value — which is exactly right for lanes activated after the
        # push, so activation needs no queue fix-up.
        pending: List[tuple] = []
        seq = 0
        gpr_ready_at = [-1] * n_gprs
        store_buffer: List[tuple] = []

        # Convergence cuts compare lanes against the *live* golden row,
        # not against stored checkpoints, so the cut cadence is free to
        # be much denser than the checkpoint spacing: a lane whose
        # divergence dies is dropped within a few dozen cycles instead
        # of riding along to the halt.  Purely a perf knob — a cut lane
        # and a survivor whose outputs match classify identically.
        cut_interval = max(32, reference_cycles // 192)
        next_cut = cut_interval

        def stuck_key(lane: _Lane) -> tuple:
            space = lane.fault.space
            code = _P_GPR if space == _SPACE_GPR else \
                _P_PRED if space == _SPACE_PRED else _P_BTR
            return (code, lane.fault.index)

        def release_rows(lane: _Lane) -> None:
            # Purge the lane's row from every divergence set it sits
            # in (its overlay keys are a superset of those sets) and
            # reset the overlays.
            row = lane.row
            for r in lane.gpr:
                div_gpr[r].discard(row)
            for r in lane.pred:
                div_pred[r].discard(row)
            for r in lane.btr:
                div_btr[r].discard(row)
            lane.gpr.clear()
            lane.pred.clear()
            lane.btr.clear()

        def drop(lane: _Lane) -> None:
            active.remove(lane)
            lane.running = False
            release_rows(lane)
            if lane in stuck:
                stuck.remove(lane)
                if lane.fault.space == _SPACE_MEM:
                    stuck_mem.remove(lane)
                else:
                    stuck_reg[stuck_key(lane)].remove(lane)

        def retire_lane(lane: _Lane, reason: str) -> None:
            drop(lane)
            retire(lane.index, reason)
            if lane.born >= 0:
                # Cycles this lane rode the vector are sunk cost — the
                # scalar checker reruns it from scratch.
                stats["wasted_lane_cycles"] += \
                    stats["iterations"] - lane.born

        def port_stall(port_ops: int) -> int:
            # Register-file port budget (§3.2): every started group of
            # ``port_budget`` port operations beyond the first stalls
            # the issue one cycle.
            if port_ops > port_budget:
                return (port_ops + port_budget - 1) // port_budget - 1
            return 0

        # Per pending-write space: the golden row, the divergence sets
        # and each row's overlay (a lane's overlay dicts are cleared,
        # never replaced).
        by_space = tuple(
            (gold, div, {lane.row: getattr(lane, name)
                         for lane in lanes + fetch_lanes})
            for gold, div, name in ((g_gpr, div_gpr, "gpr"),
                                    (g_pred, div_pred, "pred"),
                                    (g_btr, div_btr, "btr")))
        pred_overlay = by_space[_P_PRED][2]
        btr_overlay = by_space[_P_BTR][2]

        def retire_disagreeing(rows, files, index: int, golden: int,
                               reason: str) -> None:
            # Retire every live lane whose overlay reads other than
            # ``golden`` at ``index`` (a guard, a branch condition or a
            # branch target): its control flow leaves row 0's.
            for row in list(rows):
                lane = row_lane[row]
                if not lane.running:
                    continue
                if files[row].get(index, golden) != golden:
                    retire_lane(lane, reason)

        def land(gold, rows, files, index: int, golden: int, vec) -> None:
            # Land one write-back at ``index`` on row 0 (``gold``) and
            # clear or rewrite each divergent row's overlay entry there:
            # rows absent from ``vec`` take the golden value (entry
            # popped, divergence gone); rows in ``vec`` stay divergent.
            gold[index] = golden
            if vec is None:
                if rows:
                    for row in rows:
                        files[row].pop(index, None)
                    rows.clear()
                return
            if rows:
                stale = rows.difference(vec)
                if stale:
                    for row in stale:
                        files[row].pop(index, None)
                    rows.difference_update(stale)
            for row, value in vec.items():
                if row_lane[row].running:
                    files[row][index] = value
                    rows.add(row)

        # ---- in-lane absorption of rewritten fetches ---------------------
        # A transient ifetch fault rewrites exactly one fetched word; the
        # machine then runs the original program with one bundle swapped
        # for its re-decode.  When that swap provably cannot bend the
        # machine's timing — same write-back schedule, same read-port and
        # memory-bank demand, no control-flow ops, no trap potential —
        # the fault is just a *value* divergence at the differing slot:
        # the lane rides the vector like any register fault, and the
        # scalar re-walk is skipped entirely.  Any check that
        # fails falls back to the ticket, so absorption can only ever
        # trade a scalar re-walk for an in-vector ride, never change an
        # outcome.
        _GPR_KINDS = (dec.K_ALU, dec.K_MOVI, dec.K_CUSTOM,
                      dec.K_LOAD, dec.K_LOAD_SPEC)
        # absorb_map: op slot -> [(row, payload)] merged into the value
        # columns the golden dispatch pushes this cycle.  Payload shape
        # follows the slot's write shape: a value for GPR/BTR writers, a
        # flag for K_CMP (the site derives both destinations), an
        # (address, value) pair for K_STORE.
        absorb_map: Dict[int, list] = {}

        def op_writes(op) -> tuple:
            kind = op.kind
            if kind in _GPR_KINDS:
                return ((_P_GPR, op.d1, op.latency),)
            if kind == dec.K_CMP:
                return ((_P_PRED, op.d1, op.latency),
                        (_P_PRED, op.d2, op.latency))
            if kind in (dec.K_PBR, dec.K_MOVGBP):
                return ((_P_BTR, op.d1, op.latency),)
            return ()

        def stage1_reads(read_set) -> int:
            # The exact stage-1 read-port count, for row 0's stage 1
            # and for ``absorb``; ``gpr_ready_at`` is stable between
            # the drain and stage 1, so evaluating it at fetch
            # resolution matches what stage 1 will see.
            n = 0
            for reg in read_set:
                if reg == 0:
                    continue
                if forwarding and reg < n_gprs \
                        and gpr_ready_at[reg] == cycle:
                    continue
                n += 1
            return n

        def absorb(lane: _Lane, ticket) -> bool:
            corrupted = ticket.bundle
            golden_pb = bundles[pc]
            slot = ticket.slot
            gop = golden_pb.ops[slot] \
                if slot < len(golden_pb.ops) else None
            lop = corrupted.ops[slot] \
                if slot < len(corrupted.ops) else None
            gkind = gop.kind if gop is not None else dec.K_NOP
            lkind = lop.kind if lop is not None else dec.K_NOP
            if gkind in _CONTROL_KINDS or lkind in _CONTROL_KINDS:
                return False
            if corrupted.fetch_stall != golden_pb.fetch_stall:
                # Different memory-bank demand this cycle: the lane's
                # fetch stall would diverge from row 0's.
                return False
            if model_ports:
                # Equal read counts are sufficient but not necessary:
                # only the *stall* (port ops over budget) must match,
                # and ``writes_landing`` — already drained this cycle —
                # is identical for every lane.
                if port_stall(stage1_reads(golden_pb.gpr_read_set)
                              + writes_landing) \
                        != port_stall(stage1_reads(corrupted.gpr_read_set)
                                      + writes_landing):
                    return False
            # A corrupted register field can land outside the
            # configured file — the scalar machine machine-checks on
            # that read (DETECTED), which absorption cannot model.
            if lop is not None and lop.guard \
                    and lop.guard >= len(g_pred):
                return False
            # Guards read predicates that cannot change mid-bundle
            # (write-backs land at the drain), so execute/squash is
            # decided here once for both machines.
            g_exec = gkind != dec.K_NOP \
                and (not gop.guard or g_pred[gop.guard])
            l_exec = lkind != dec.K_NOP \
                and (not lop.guard or g_pred[lop.guard])
            if g_exec != l_exec:
                return False
            payload = None
            if g_exec:
                if op_writes(gop) != op_writes(lop):
                    return False
                # The lane's value at the differing slot, computed
                # against the live golden state (the lane's registers
                # and memory are golden at this fetch — ifetch faults
                # touch no architectural state before they fire).
                try:
                    if lkind == dec.K_ALU:
                        la = lop.s1 & mask if lop.s1_lit \
                            else g_gpr[lop.s1]
                        if lop.fn is None:
                            payload = la
                        else:
                            lb = lop.s2 & mask if lop.s2_lit \
                                else g_gpr[lop.s2]
                            payload = lop.fn(la, lb, width)
                    elif lkind == dec.K_CUSTOM:
                        la = lop.s1 & mask if lop.s1_lit \
                            else g_gpr[lop.s1]
                        lb = lop.s2 & mask if lop.s2_lit \
                            else g_gpr[lop.s2]
                        payload = lop.fn(la, lb, mask)
                    elif lkind == dec.K_MOVI:
                        payload = lop.s1 & mask
                    elif lkind == dec.K_CMP:
                        la = lop.s1 & mask if lop.s1_lit \
                            else g_gpr[lop.s1]
                        lb = lop.s2 & mask if lop.s2_lit \
                            else g_gpr[lop.s2]
                        payload = lop.fn(la, lb, width)
                    elif lkind in (dec.K_LOAD, dec.K_LOAD_SPEC):
                        lb = lop.s1 & mask if lop.s1_lit \
                            else g_gpr[lop.s1]
                        lo = lop.s2 & mask if lop.s2_lit \
                            else g_gpr[lop.s2]
                        laddr = to_signed(lb + lo & mask, width)
                        if not 0 <= laddr < self.mem_words:
                            if lkind == dec.K_LOAD:
                                return False  # would trap
                            payload = 0  # dismissible
                        else:
                            payload = int(g_mem[laddr])
                    elif lkind == dec.K_PBR:
                        if lop.s1 < 0:
                            # The scalar machine machine-checks when a
                            # negative target lands in its BTR.
                            return False
                        payload = lop.s1
                    elif lkind == dec.K_MOVGBP:
                        payload = lop.s1 & mask if lop.s1_lit \
                            else g_gpr[lop.s1]
                    elif lkind == dec.K_STORE:
                        lb = lop.s1 & mask if lop.s1_lit \
                            else g_gpr[lop.s1]
                        lo = lop.s2 & mask if lop.s2_lit \
                            else g_gpr[lop.s2]
                        laddr = to_signed(lb + lo & mask, width)
                        if not 0 <= laddr < self.mem_words:
                            return False  # would trap
                        payload = (laddr, g_gpr[lop.d1])
                    else:
                        return False  # unknown kind: decline
                except SimulationError:
                    return False  # e.g. division by zero: would trap
                except IndexError:
                    # Source register outside the configured file:
                    # the scalar machine machine-checks on the read.
                    return False
            # Congruent: activate the lane as a normal runner.  The
            # delta (if any) rides the golden push for this slot, so
            # the pending-queue guard keeps convergence cuts honest
            # until it lands and registers in the divergence sets.
            lane.born = stats["iterations"]
            lane.mem[:] = g_mem
            lane.running = True
            active.append(lane)
            stats["activated"] += 1
            if g_exec:
                absorb_map.setdefault(slot, []).append(
                    (lane.row, payload))
            return True

        cycle = 0
        pc = self.program.entry
        halted = False

        while not halted:
            if cycle >= reference_cycles:
                raise _VectorAbort(
                    f"walk overran the reference run ({cycle} >= "
                    f"{reference_cycles} cycles)")
            if not active and act_at >= len(activations) \
                    and fetch_at >= len(fetch_queue):
                # Every lane resolved; the golden continuation is known.
                break
            if not pending:
                if active and cycle >= next_cut:
                    for lane in list(active):
                        if lane.stuck:
                            continue
                        # An overlay entry equal to golden is a stale
                        # divergence; only a real mismatch keeps the
                        # lane running.
                        if any(v != g_gpr[r]
                               for r, v in lane.gpr.items()) \
                                or any(v != g_pred[r]
                                       for r, v in lane.pred.items()) \
                                or any(v != g_btr[r]
                                       for r, v in lane.btr.items()):
                            continue
                        # Registers reconverged; diff the memory row,
                        # first at the word that differed last time (a
                        # full-row diff costs O(mem_words) per check).
                        word = lane.witness
                        if lane.mem[word] != g_mem[word]:
                            continue
                        word = int((lane.mem != g_mem).argmax())
                        if lane.mem[word] != g_mem[word]:
                            lane.witness = word
                        else:
                            drop(lane)
                            outcomes[lane.index] = self._masked()
                            stats["cuts"] += 1
                    next_cut = cycle + cut_interval
                elif not active and stream is not None:
                    # Golden-jump: fast-forward row 0 to the nearest
                    # checkpoint at or before the next activation.
                    targets = []
                    if act_at < len(activations):
                        targets.append(activations[act_at].fault.cycle)
                    if fetch_at < len(fetch_queue):
                        targets.append(fetch_queue[fetch_at][1].cycle)
                    snap = stream.nearest(min(targets))
                    if snap is not None and snap.cycle > cycle:
                        if snap.traps or snap.gpr_poison \
                                or snap.pred_poison or snap.btr_poison \
                                or snap.mem_poison:
                            raise _VectorAbort(
                                "golden checkpoint carries traps/poison")
                        g_gpr[:] = snap.gpr
                        g_pred[:] = snap.pred
                        g_btr[:] = snap.btr
                        # No lane is live here (jump precondition), so
                        # a whole-plane refresh keeps parked fetch rows
                        # in sync with the golden row; dead rows are
                        # harmlessly overwritten.
                        mem_plane[:] = snap.mem
                        cycle = snap.cycle
                        pc = snap.pc
                        stats["jumps"] += 1
                        continue
            if not 0 <= pc < n_bundles:
                raise _VectorAbort(f"golden pc {pc} out of program")

            # ---- write-back drain (landing writes count port ops) ----
            writes_landing = 0
            while pending and pending[0][0] <= cycle:
                ready, _, space, index, golden, vec = heapq.heappop(pending)
                if space == _P_GPR:
                    gpr_ready_at[index] = ready
                    if ready == cycle:
                        writes_landing += 1
                if not index and space != _P_BTR:
                    continue  # r0 and p0 are hardwired
                gold, div, files = by_space[space]
                rows = div[index]
                if vec is None and not rows:
                    # No lane diverges here or is pushed: row 0 only
                    # (the common case, kept off the call).
                    gold[index] = golden
                else:
                    land(gold, rows, files, index, golden, vec)
                if stuck_reg:
                    hits = stuck_reg.get((space, index))
                    if hits:
                        # The landing write clobbered a stuck-at target;
                        # the injector forces the bit back before reads.
                        for s in hits:
                            self._apply_fault(s, mask,
                                              g_gpr, g_pred, g_btr)
                            rows.add(s.row)

            # ---- injector position: activations ----------------------
            while act_at < len(activations) \
                    and activations[act_at].fault.cycle <= cycle:
                lane = activations[act_at]
                act_at += 1
                lane.born = stats["iterations"]
                lane.mem[:] = g_mem
                lane.running = True
                active.append(lane)
                if lane.stuck:
                    stuck.append(lane)
                    if lane.fault.space == _SPACE_MEM:
                        stuck_mem.append(lane)
                    else:
                        stuck_reg.setdefault(
                            stuck_key(lane), []).append(lane)
                self._apply_fault(lane, mask, g_gpr, g_pred, g_btr)
                space = lane.fault.space
                if space == _SPACE_GPR:
                    div_gpr[lane.fault.index].add(lane.row)
                elif space == _SPACE_PRED:
                    div_pred[lane.fault.index].add(lane.row)
                elif space == _SPACE_BTR:
                    div_btr[lane.fault.index].add(lane.row)
                stats["activated"] += 1
            while fetch_at < len(fetch_queue) \
                    and fetch_queue[fetch_at][1].cycle <= cycle:
                position, fault = fetch_queue[fetch_at]
                resolved = ifetch(cycle, pc, fault)
                if resolved is None:
                    retire(position, RETIRE_IFETCH)
                elif isinstance(resolved, RewalkTicket):
                    if resolved.bundle is not None \
                            and absorb(fetch_lanes[fetch_at], resolved):
                        # Timing-congruent rewrite: absorbed in-lane,
                        # no scalar re-walk needed.
                        stats["absorbed_lanes"] += 1
                    else:
                        outcomes[position] = resolved
                        stats["rewalk_lanes"] += 1
                else:
                    outcomes[position] = resolved
                fetch_at += 1

            bundle = bundles[pc]
            stats["iterations"] += 1
            stats["lane_cycles"] += len(active)

            # ---- stage 1: read-port accounting (lane-invariant) ------
            reads = stage1_reads(bundle.gpr_read_set)

            # ---- stage 2: execute ------------------------------------
            # Each op computes row 0's value (``golden``) and the
            # divergent lanes' column (``vec``, {row: value} or None);
            # the tail merges absorbed fetch deltas and pushes.
            taken = False
            target = 0
            for op_slot, op in enumerate(bundle.ops):
                kind = op.kind
                if kind == dec.K_NOP:
                    continue
                guard = op.guard
                if guard:
                    g_guard = g_pred[guard]
                    if div_pred[guard]:
                        retire_disagreeing(div_pred[guard], pred_overlay,
                                           guard, g_guard, RETIRE_GUARD)
                    if not g_guard:
                        continue  # squashed in the golden machine

                vec = None
                space = _P_GPR
                if kind in _SEMANTICS_KINDS:
                    # A CMPP's ``golden``/``vec`` are its condition; the
                    # second destination takes the complement at the push.
                    fn = op.fn
                    a = op.s1 & mask if op.s1_lit else g_gpr[op.s1]
                    if fn is None:  # MOVE
                        golden = a
                    else:
                        third = mask if kind == dec.K_CUSTOM else width
                        b = op.s2 & mask if op.s2_lit else g_gpr[op.s2]
                        golden = fn(a, b, third)
                    d1 = () if op.s1_lit else div_gpr[op.s1]
                    d2 = () if op.s2_lit or fn is None \
                        else div_gpr[op.s2]
                    if op.gpr_reads and (d1 or d2):
                        # Only rows divergent at an operand can compute
                        # a non-golden result; everyone else is covered
                        # by the drain's golden default.
                        if not d2:
                            drows = list(d1)
                        elif not d1:
                            drows = list(d2)
                        else:
                            drows = list(d1 | d2)
                        # Lanes whose operands match the golden machine's
                        # compute the golden result: leave them out of
                        # the column (the drain's .get() default fills
                        # it in) and skip the fn call.
                        vec = {}
                        for row in drows:
                            lane = row_lane[row]
                            if not lane.running:
                                continue
                            la = a if op.s1_lit \
                                else lane.gpr.get(op.s1, a)
                            if fn is None:
                                if la != a:
                                    vec[row] = la
                                continue
                            lb = b if op.s2_lit \
                                else lane.gpr.get(op.s2, b)
                            if la == a and lb == b:
                                continue
                            try:
                                vec[row] = fn(la, lb, third)
                            except SimulationError:
                                # Division by zero in this lane only
                                # (raised past every trap policy).
                                retire_lane(lane, RETIRE_TRAP)
                elif kind == dec.K_MOVI:
                    golden = op.s1 & mask
                elif kind == dec.K_LOAD or kind == dec.K_LOAD_SPEC:
                    base = op.s1 & mask if op.s1_lit else g_gpr[op.s1]
                    offset = op.s2 & mask if op.s2_lit else g_gpr[op.s2]
                    address = to_signed(base + offset & mask, width)
                    if not 0 <= address < self.mem_words:
                        if kind == dec.K_LOAD:
                            raise _VectorAbort(
                                f"golden load from {address}")
                        golden = 0
                    else:
                        golden = int(g_mem[address])
                    if active:
                        vec = {}
                        # Rows divergent at an address operand compute
                        # their own address (with the OOB/trap paths).
                        d1 = () if op.s1_lit else div_gpr[op.s1]
                        d2 = () if op.s2_lit else div_gpr[op.s2]
                        du = ()
                        if d1 or d2:
                            du = (d1 | d2) if (d1 and d2) \
                                else set(d1 or d2)
                            for row in list(du):
                                lane = row_lane[row]
                                if not lane.running:
                                    continue
                                lb = base if op.s1_lit \
                                    else lane.gpr.get(op.s1, base)
                                lo = offset if op.s2_lit \
                                    else lane.gpr.get(op.s2, offset)
                                if lb == base and lo == offset:
                                    laddr = address
                                else:
                                    laddr = to_signed(
                                        lb + lo & mask, width)
                                if not 0 <= laddr < self.mem_words:
                                    if kind != dec.K_LOAD:
                                        if golden:
                                            vec[row] = 0  # dismissible
                                    else:
                                        # Would trap OOB: exact
                                        # classification is the
                                        # scalar's job under every
                                        # trap policy.
                                        retire_lane(lane, RETIRE_TRAP)
                                    continue
                                value = lane.mem[laddr]
                                if value != golden:
                                    vec[row] = int(value)
                        if 0 <= address < self.mem_words:
                            # Golden-address rows: divergent only where
                            # the memory plane's column differs.
                            col_hits = (mem_plane[:, address]
                                        != golden).nonzero()[0]
                            for r in col_hits.tolist():
                                if r in du:
                                    continue
                                lane = row_lane.get(r)
                                if lane is None or not lane.running:
                                    continue
                                vec[r] = int(mem_plane[r, address])
                elif kind == dec.K_STORE:
                    # ``golden``/``vec`` are (address, value) pairs, and
                    # no space: a store is buffered, not pushed.
                    space = None
                    base = op.s1 & mask if op.s1_lit else g_gpr[op.s1]
                    offset = op.s2 & mask if op.s2_lit else g_gpr[op.s2]
                    address = to_signed(base + offset & mask, width)
                    if not 0 <= address < self.mem_words:
                        raise _VectorAbort(f"golden store to {address}")
                    value = g_gpr[op.d1]  # store value travels in DEST1
                    golden = (address, value)
                    d1 = () if op.s1_lit else div_gpr[op.s1]
                    d2 = () if op.s2_lit else div_gpr[op.s2]
                    dv = div_gpr[op.d1]
                    if d1 or d2 or dv:
                        vec = {}
                        union = set()
                        for dset in (d1, d2, dv):
                            if dset:
                                union |= dset
                        for row in list(union):
                            lane = row_lane[row]
                            if not lane.running:
                                continue
                            lb = base if op.s1_lit \
                                else lane.gpr.get(op.s1, base)
                            lo = offset if op.s2_lit \
                                else lane.gpr.get(op.s2, offset)
                            if lb == base and lo == offset:
                                lvalue = lane.gpr.get(op.d1, value)
                                if lvalue != value:
                                    vec[row] = (address, lvalue)
                                continue
                            laddr = to_signed(lb + lo & mask, width)
                            if not 0 <= laddr < self.mem_words:
                                retire_lane(lane, RETIRE_TRAP)
                                continue
                            vec[row] = (laddr,
                                        lane.gpr.get(op.d1, value))
                elif kind == dec.K_PBR:
                    space = _P_BTR
                    golden = op.s1
                elif kind == dec.K_MOVGBP:
                    space = _P_BTR
                    golden = op.s1 & mask if op.s1_lit else g_gpr[op.s1]
                    if not op.s1_lit and div_gpr[op.s1]:
                        vec ={row: value for row in div_gpr[op.s1]
                               if row_lane[row].running
                               and (value := row_lane[row].gpr.get(
                                   op.s1, golden)) != golden}
                elif kind == dec.K_HALT:
                    halted = True
                    continue
                elif kind in _BRANCH_KINDS:
                    branches = True
                    if kind == dec.K_BRCT or kind == dec.K_BRCF:
                        condition = g_pred[op.s2]
                        if div_pred[op.s2]:
                            retire_disagreeing(div_pred[op.s2], pred_overlay,
                                               op.s2, condition,
                                               RETIRE_BRANCH)
                        branches = condition if kind == dec.K_BRCT \
                            else not condition
                    if branches:
                        taken = True
                        target = g_btr[op.s1]
                        if div_btr[op.s1]:
                            retire_disagreeing(div_btr[op.s1], btr_overlay,
                                               op.s1, target, RETIRE_BRANCH)
                    if kind != dec.K_BRL:
                        continue
                    golden = (pc + 1) & mask  # the link write-back
                else:
                    raise _VectorAbort(f"unhandled op kind {kind}")

                if absorb_map and op_slot in absorb_map:
                    for arow, avalue in absorb_map[op_slot]:
                        if avalue != golden:
                            if vec is None:
                                vec = {}
                            vec[arow] = avalue
                if space is None:
                    store_buffer.append(golden + (vec or None,))
                    continue
                if kind == dec.K_CMP:
                    vec2 = None
                    if vec:
                        vec2 = {row: 1 - flag for row, flag in vec.items()}
                    seq += 1
                    heapq.heappush(pending, (cycle + op.latency, seq,
                                             _P_PRED, op.d1, golden,
                                             vec or None))
                    seq += 1
                    heapq.heappush(pending, (cycle + op.latency, seq,
                                             _P_PRED, op.d2, 1 - golden,
                                             vec2))
                else:
                    seq += 1
                    heapq.heappush(pending, (cycle + op.latency, seq,
                                             space, op.d1, golden,
                                             vec or None))

            if absorb_map:
                # One-shot by construction: the deltas rode the pushes
                # of the bundle issued this cycle.
                absorb_map.clear()

            # ---- buffered stores land (validated at issue) -----------
            if store_buffer:
                for address, golden, vec in store_buffer:
                    # Column write: every row (golden, active, even
                    # dead — harmless) takes the golden store;
                    # divergent entries then redirect their own rows.
                    # A row storing elsewhere needs the word's
                    # PRE-store value back, so capture it first.
                    prior = None
                    if vec:
                        prior = {}
                        for row, (laddr, _) in vec.items():
                            if laddr != address:
                                prior[row] = int(mem_plane[row, address])
                    mem_plane[:, address] = golden
                    if vec:
                        for row, (laddr, lvalue) in vec.items():
                            lane = row_lane[row]
                            if not lane.running:
                                continue
                            if laddr != address:
                                lane.mem[address] = prior[row]
                            lane.mem[laddr] = lvalue
                    for s in stuck_mem:
                        # Each lane stored to its own address; if that
                        # hit the lane's stuck word, force the bit back.
                        entry = vec.get(s.row) if vec else None
                        hit = address if entry is None else entry[0]
                        if hit == s.fault.index:
                            self._apply_fault(s, mask,
                                              g_gpr, g_pred, g_btr)
                del store_buffer[:]

            # ---- issue-cost accounting -------------------------------
            extra = bundle.fetch_stall
            if model_ports:
                port_ops = reads + writes_landing
                if port_ops > port_budget:  # the common case skips the call
                    extra += port_stall(port_ops)

            if taken and not halted:
                extra += branch_penalty
                pc = target
            else:
                pc += 1

            cycle += 1 + extra

        if not halted:
            # Early stop: every lane resolved before the golden halt.
            return

        # Final drain: outstanding write-backs become architectural.
        # The scalar machine does not re-assert stuck-at bits after
        # HALT, so only the overlay landing runs here.
        while pending:
            _, _, space, index, golden, vec = heapq.heappop(pending)
            if index or space == _P_BTR:
                gold, div, files = by_space[space]
                land(gold, div[index], files, index, golden, vec)

        if cycle != reference_cycles:
            raise _VectorAbort(
                f"walk halted at cycle {cycle}, reference says "
                f"{reference_cycles}")

        # Surviving lanes halted in lockstep with the golden machine:
        # classify by output diff, in the scalar checker's exact order.
        for lane in active:
            outcomes[lane.index] = self._classify_outputs(lane, g_gpr)
        # Faults whose cycle lay beyond the last issue cycle never
        # fired; the machine ran the golden trajectory to completion.
        while act_at < len(activations):
            outcomes[activations[act_at].index] = self._masked()
            act_at += 1
        while fetch_at < len(fetch_queue):
            outcomes[fetch_queue[fetch_at][0]] = self._masked()
            fetch_at += 1

    # -- lane fault application -------------------------------------------

    def _apply_fault(self, lane: _Lane, mask: int,
                     g_gpr, g_pred, g_btr) -> None:
        """Apply the lane's fault to its (overlay) register row.

        Bit semantics mirror ``GprFile``/``PredFile``/``BtrFile``/
        ``DataMemory`` exactly (masking included).  Register reads go
        through the overlay with the live golden value as default; the
        caller registers the row in the matching divergence set.
        """
        fault = lane.fault
        space, index, bit = fault.space, fault.index, fault.bit
        seu = fault.model == _MODEL_SEU
        level = 1 if fault.model == _MODEL_STUCK1 else 0
        if space == _SPACE_GPR:
            value = lane.gpr.get(index, g_gpr[index])
            if seu:
                value ^= 1 << bit
            elif level:
                value |= 1 << bit
            else:
                value &= ~(1 << bit)
            lane.gpr[index] = value & mask
        elif space == _SPACE_PRED:
            # Predicates are one bit wide; any requested bit is bit 0.
            if seu:
                lane.pred[index] = lane.pred.get(index,
                                                 g_pred[index]) ^ 1
            else:
                lane.pred[index] = level
        elif space == _SPACE_BTR:
            value = lane.btr.get(index, g_btr[index])
            if seu:
                value ^= 1 << bit
            elif level:
                value |= 1 << bit
            else:
                value &= ~(1 << bit)
            lane.btr[index] = value
        else:  # mem
            value = int(lane.mem[index])
            if seu:
                value = (value ^ (1 << bit)) & mask
            elif level:
                value |= (1 << bit) & mask
            else:
                value &= ~(1 << bit)
            lane.mem[index] = value

    # -- end-of-walk classification ---------------------------------------

    def _classify_outputs(self, lane: _Lane, g_gpr) -> LaneOutcome:
        """Diff a surviving lane against the golden outputs.

        Byte-compatible with ``LockstepChecker.diff_outputs`` +
        ``run_one``: first mismatching output word (or the checksum)
        yields SDC with the same detail string; no mismatch is MASKED.
        The cycle count is ``reference_cycles`` — the lane issued every
        bundle in lockstep with the golden machine (that is what kept
        it in the vector), so its halt cycle is the reference's.
        """
        for name, base, expected_values in self.outputs:
            row = lane.mem
            for offset, expected in enumerate(expected_values):
                got = int(row[base + offset])
                if got != expected:
                    return LaneOutcome(
                        "sdc",
                        f"output {name}[{offset}] = {got:#x}, "
                        f"golden {expected:#x}",
                        self.reference_cycles)
        if self.golden_checksum is not None:
            expected = self.golden_checksum & self.config.mask
            # r2 carries main's return value; the overlay defaults to
            # the (post-final-drain) golden row.
            got = lane.gpr.get(2, g_gpr[2])
            if got != expected:
                return LaneOutcome(
                    "sdc",
                    f"checksum {got:#x}, golden {expected:#x}",
                    self.reference_cycles)
        return self._masked()
