"""Local common-subexpression, redundant-load elimination and
store-to-load forwarding.

Within a block, a pure expression computed twice with identical operands
is replaced by a copy of the first result, provided no operand was
redefined in between.  Loads participate too: a load from [base+offset]
repeats a previous load — or picks up the value of a previous store —
with the same address expression, as long as no *other* store or call
intervened.  The memory model is conservative: any store or call kills
all remembered loads (except the mapping created by the store itself,
which is exact).  An instruction that redefines one of its own operands
(``x = add x, 1``) is not remembered: its key no longer describes it.

Cost is linear in block length: reverse indexes (register -> keys that
mention it as operand or result, plus the live load keys) let a
definition, store or call kill exactly its victims without a scan.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple

from repro.ir.instructions import BinOp, Call, Cmp, Copy, Load, Store
from repro.ir.module import Function
from repro.ir.values import Const, Value, VReg


def _key_of(instr) -> Tuple:
    if isinstance(instr, BinOp):
        # Commutative operators get a canonical operand order.
        a, b = instr.a, instr.b
        if instr.op in ("add", "mul", "and", "or", "xor"):
            a, b = sorted((a, b), key=str)
        return ("bin", instr.op, a, b)
    if isinstance(instr, Cmp):
        return ("cmp", instr.op, instr.a, instr.b)
    if isinstance(instr, Load) and not instr.speculative:
        return ("load", instr.base, instr.offset)
    return ()


def _operands(key: Tuple) -> List[VReg]:
    return [value for value in key[1:] if isinstance(value, VReg)]


def eliminate_common_subexpressions(function: Function) -> int:
    rewrites = 0
    for block in function.blocks:
        available: Dict[Tuple, Value] = {}
        # Reverse indexes over ``available`` (see the module docstring).
        mentions: Dict[VReg, Set[Tuple]] = defaultdict(set)
        loads: Set[Tuple] = set()

        def remember(key: Tuple, value: Value) -> None:
            if key in available:
                forget(key)
            available[key] = value
            for reg in _operands(key + (value,)):
                mentions[reg].add(key)
            if key[0] == "load":
                loads.add(key)

        def forget(key: Tuple) -> None:
            for reg in _operands(key + (available.pop(key),)):
                mentions[reg].discard(key)
            loads.discard(key)

        for index, instr in enumerate(block.instrs):
            if isinstance(instr, (Store, Call)):
                # Conservative: memory changed; all remembered loads die.
                for key in list(loads):
                    forget(key)

            key = _key_of(instr)
            if key and key in available:
                block.instrs[index] = Copy(instr.defs()[0], available[key])
                rewrites += 1
                instr = block.instrs[index]

            # Kill expressions mentioning a register this instruction defines.
            defined = instr.defs()
            for reg in defined:
                for dead in mentions.pop(reg, ()):
                    forget(dead)

            # Never remember a key that this instruction's own def stales.
            if key and key not in available and not any(
                    reg in defined for reg in _operands(key)):
                remember(key, defined[0])

            # Store-to-load forwarding: the stored value is exactly what
            # a matching load would observe.
            if isinstance(instr, Store) and isinstance(instr.value,
                                                       (VReg, Const)):
                remember(("load", instr.base, instr.offset), instr.value)
    return rewrites
