"""Local copy propagation.

Within each block, uses of a register that currently holds a copy of
another value are rewritten to use the source directly.  Copies of both
registers and constants propagate; a mapping entry dies when either side
is redefined.  (The front-end emits all expression temporaries in-block,
so local propagation catches essentially everything; the global cases
are handled by later CSE/DCE iterations.)

Cost is linear in block length: uses are looked up in the copy map, and
a reverse map (value -> registers holding a copy of it) finds the
entries a definition kills.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Set

from repro.ir.instructions import Copy
from repro.ir.module import Function
from repro.ir.values import Const, Value, VReg


def propagate_copies(function: Function) -> int:
    rewrites = 0
    for block in function.blocks:
        available: Dict[VReg, Value] = {}
        holders: Dict[Value, Set[VReg]] = defaultdict(set)
        for instr in block.instrs:
            # Rewrite uses through the available copies (chase one level;
            # chains resolve over pipeline iterations).
            mapping = {
                use: available[use] for use in instr.uses() if use in available
            }
            if mapping:
                instr.replace_uses(mapping)
                rewrites += len(mapping)

            # Kill mappings invalidated by this instruction's definitions.
            for defined in instr.defs():
                if defined in available:
                    holders[available.pop(defined)].discard(defined)
                for reg in holders.pop(defined, ()):
                    del available[reg]

            if isinstance(instr, Copy) and isinstance(instr.src, (VReg, Const)):
                if instr.src != instr.dst:
                    available[instr.dst] = instr.src
                    holders[instr.src].add(instr.dst)
    return rewrites
