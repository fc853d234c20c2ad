"""Automatic custom-instruction generation (paper §6, implemented).

"Current and future work includes ... supporting automatic generation
of custom instructions."  This module closes that loop:

1. **profile** — run the program on the golden IR interpreter with
   per-instruction execution counts;
2. **discover** — find dataflow-adjacent pairs of pure binary operations
   where the intermediate value has exactly one consumer and the fused
   operation needs at most two register sources (constants are baked
   into the pattern, matching how a synthesised functional unit would
   hard-wire them);
3. **synthesize** — emit a :class:`~repro.isa.CustomOpSpec` (hardware
   semantics + slice estimate) and a MiniC-independent IR *fallback
   function*, so the transformed program still runs everywhere;
4. **rewrite** — replace each matched pair with a call to the fallback;
   on a configuration carrying the spec, the EPIC instruction selector
   intrinsifies that call into the single fused operation.

The result: ``discover_and_apply`` takes a module and returns the specs
to add to a :class:`~repro.config.MachineConfig` — the §3.3 "replace a
group of frequently-used instructions" workflow, automated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir.instructions import BinOp, Call, Instr
from repro.ir.module import Block, Function, Module
from repro.ir.values import Const, Value, VReg
from repro.isa.custom import CustomOpSpec
from repro.isa.semantics import ALU_SEMANTICS
from repro.ir.interp import Interpreter

_SEM = {
    "add": "ADD", "sub": "SUB", "mul": "MUL",
    "and": "AND", "or": "OR", "xor": "XOR",
    "shl": "SHL", "shr": "SHR", "shra": "SHRA",
}

#: Operand roles inside a fused pattern: source registers or a baked
#: constant.
_SRC0, _SRC1 = "s0", "s1"

#: Estimated slice cost per fused pattern, by constituent op.
_SLICE_COST = {
    "add": 60, "sub": 60, "and": 20, "or": 20, "xor": 25,
    "shl": 90, "shr": 90, "shra": 95, "mul": 140,
}


@dataclass(frozen=True)
class FusionPattern:
    """A fusible (inner, outer) operation shape with operand roles.

    ``roles`` gives, in order, the roles of (inner.a, inner.b,
    outer.other): each is ``"s0"``/``"s1"`` (a register source) or an
    ``int`` (a baked constant).  ``inner_position`` records whether the
    inner result feeds the outer op's left (0) or right (1) operand.
    """

    inner_op: str
    outer_op: str
    inner_position: int
    roles: Tuple

    @property
    def mnemonic(self) -> str:
        def role_tag(role) -> str:
            if isinstance(role, int):
                return f"K{role & 0xFFFFFFFF:X}"
            return role.upper()

        tags = "_".join(role_tag(role) for role in self.roles)
        return (f"F_{self.inner_op}_{self.outer_op}_"
                f"{self.inner_position}_{tags}").upper()

    @property
    def n_sources(self) -> int:
        return len({role for role in self.roles if not isinstance(role, int)})

    def evaluate(self, s0: int, s1: int, mask: int, width: int = 32) -> int:
        values = []
        for role in self.roles:
            if isinstance(role, int):
                values.append(role & mask)
            else:
                values.append(s0 if role == _SRC0 else s1)
        inner = ALU_SEMANTICS[_SEM[self.inner_op]](values[0], values[1],
                                                   width)
        if self.inner_position == 0:
            return ALU_SEMANTICS[_SEM[self.outer_op]](inner, values[2], width)
        return ALU_SEMANTICS[_SEM[self.outer_op]](values[2], inner, width)

    def to_spec(self, latency: int = 1) -> CustomOpSpec:
        pattern = self

        slices = 40 + _SLICE_COST.get(self.inner_op, 60) \
            + _SLICE_COST.get(self.outer_op, 60)
        return CustomOpSpec(
            mnemonic=self.mnemonic,
            func=lambda a, b, mask: pattern.evaluate(a, b, mask),
            latency=latency,
            slices=slices,
            description=(
                f"fused {self.inner_op}/{self.outer_op} "
                f"(auto-generated)"
            ),
        )


@dataclass
class FusionCandidate:
    """One ranked pattern with its dynamic payoff."""

    pattern: FusionPattern
    dynamic_count: int
    static_count: int


def profile_module(module: Module, entry: str = "main",
                   mem_words: int = 1 << 16) -> Counter:
    """Execution counts per (function, block, instruction index)."""
    interpreter = Interpreter(module, mem_words=mem_words)
    interpreter.profile = Counter()
    interpreter.call(entry)
    return interpreter.profile


def _use_counts(function: Function) -> Counter:
    counts: Counter = Counter()
    for instr in function.instructions():
        for value in instr.uses():
            if isinstance(value, VReg):
                counts[value] += 1
    return counts


def _role_of(value: Value, sources: List[Value]):
    """Map an operand onto a source slot or a baked constant."""
    if isinstance(value, Const):
        return value.value
    if value in sources:
        return _SRC0 if sources.index(value) == 0 else _SRC1
    if len(sources) >= 2:
        return None
    sources.append(value)
    return _SRC0 if len(sources) == 1 else _SRC1


def _match_pair(inner: BinOp, outer: BinOp,
                inner_position: int) -> Optional[Tuple[FusionPattern,
                                                       List[Value]]]:
    if inner.op not in _SEM or outer.op not in _SEM:
        return None
    sources: List[Value] = []
    roles = []
    for operand in (inner.a, inner.b):
        role = _role_of(operand, sources)
        if role is None:
            return None
        roles.append(role)
    other = outer.b if inner_position == 0 else outer.a
    role = _role_of(other, sources)
    if role is None:
        return None
    roles.append(role)
    pattern = FusionPattern(inner.op, outer.op, inner_position,
                            tuple(roles))
    return pattern, sources


def find_fusion_candidates(module: Module,
                           profile: Optional[Counter] = None,
                           entry: str = "main",
                           min_dynamic_count: int = 2,
                           ) -> List[FusionCandidate]:
    """Rank fusible operation pairs by dynamic execution count."""
    if profile is None:
        profile = profile_module(module, entry)
    patterns: Dict[FusionPattern, List[int]] = {}

    for function in module.functions.values():
        uses = _use_counts(function)
        for block in function.blocks:
            defs_here: Dict[VReg, Tuple[int, BinOp]] = {}
            for index, instr in enumerate(block.instrs):
                if not isinstance(instr, BinOp):
                    for reg in instr.defs():
                        defs_here.pop(reg, None)
                    continue
                for position, operand in enumerate((instr.a, instr.b)):
                    if not isinstance(operand, VReg):
                        continue
                    producer = defs_here.get(operand)
                    if producer is None or uses[operand] != 1:
                        continue
                    match = _match_pair(producer[1], instr, position)
                    if match is None:
                        continue
                    pattern, _ = match
                    count = profile.get(
                        (function.name, block.name, index), 0
                    )
                    patterns.setdefault(pattern, []).append(count)
                    break  # one fusion per consumer
                defs_here[instr.dst] = (index, instr)

    candidates = [
        FusionCandidate(
            pattern=pattern,
            dynamic_count=sum(counts),
            static_count=len(counts),
        )
        for pattern, counts in patterns.items()
        if sum(counts) >= min_dynamic_count
    ]
    candidates.sort(key=lambda c: (-c.dynamic_count, c.pattern.mnemonic))
    return candidates


def _build_fallback(module: Module, pattern: FusionPattern) -> str:
    """Add the software-fallback IR function for one pattern."""
    name = pattern.mnemonic.lower()
    if name in module.functions:
        return name
    function = Function(name=name, params=[])
    s0 = function.new_vreg("a")
    s1 = function.new_vreg("b")
    function.params = [s0, s1]

    def as_value(role) -> Value:
        if isinstance(role, int):
            return Const(role)
        return s0 if role == _SRC0 else s1

    inner_dst = function.new_vreg("inner")
    result = function.new_vreg("out")
    inner = BinOp(pattern.inner_op, inner_dst,
                  as_value(pattern.roles[0]), as_value(pattern.roles[1]))
    other = as_value(pattern.roles[2])
    if pattern.inner_position == 0:
        outer = BinOp(pattern.outer_op, result, inner_dst, other)
    else:
        outer = BinOp(pattern.outer_op, result, other, inner_dst)
    from repro.ir.instructions import Ret

    function.blocks = [Block("entry", [inner, outer, Ret(result)])]
    module.add_function(function)
    return name


def apply_fusions(module: Module,
                  candidates: Sequence[FusionCandidate]) -> int:
    """Rewrite matched pairs into calls to fallback functions.

    Returns the number of rewrites.  Compile the module with a
    configuration whose ``custom_ops`` includes ``c.pattern.to_spec()``
    for each applied candidate and the calls become single fused EPIC
    operations; everywhere else the fallback executes.
    """
    chosen = {candidate.pattern for candidate in candidates}
    rewrites = 0
    fallback_names = {}
    for pattern in chosen:
        fallback_names[pattern] = _build_fallback(module, pattern)

    for function in module.functions.values():
        if function.name in fallback_names.values():
            continue
        uses = _use_counts(function)
        for block in function.blocks:
            defs_here: Dict[VReg, Tuple[int, BinOp]] = {}
            for index, instr in enumerate(list(block.instrs)):
                if not isinstance(instr, BinOp):
                    for reg in instr.defs():
                        defs_here.pop(reg, None)
                    continue
                replaced = False
                for position, operand in enumerate((instr.a, instr.b)):
                    if not isinstance(operand, VReg):
                        continue
                    producer = defs_here.get(operand)
                    if producer is None or uses[operand] != 1:
                        continue
                    match = _match_pair(producer[1], instr, position)
                    if match is None or match[0] not in chosen:
                        continue
                    pattern, sources = match
                    while len(sources) < 2:
                        sources.append(Const(0))
                    block.instrs[index] = Call(
                        fallback_names[pattern], list(sources), instr.dst
                    )
                    rewrites += 1
                    replaced = True
                    break
                if replaced:
                    # The destination is now produced by a call; drop any
                    # stale BinOp producer entry so later consumers never
                    # fuse against it.
                    defs_here.pop(instr.dst, None)
                else:
                    defs_here[instr.dst] = (index, instr)
    return rewrites


def discover_and_apply(module: Module, top_k: int = 2,
                       entry: str = "main",
                       mem_words: int = 1 << 16) -> List[CustomOpSpec]:
    """The full §6 loop: profile, pick the top-k patterns, rewrite.

    Returns the CustomOpSpecs to install in the machine configuration.
    The dead inner operations left behind by the rewrite are removed by
    the standard DCE pass (run `optimize_module` afterwards).
    """
    profile = profile_module(module, entry, mem_words)
    candidates = find_fusion_candidates(module, profile, entry)[:top_k]
    if not candidates:
        return []
    apply_fusions(module, candidates)
    from repro.ir.passes import optimize_module

    optimize_module(module)
    return [candidate.pattern.to_spec() for candidate in candidates]
