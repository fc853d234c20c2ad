"""IR containers: blocks, functions, global arrays and modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import IRError
from repro.ir.instructions import Br, CondBr, Instr, Ret
from repro.ir.values import VReg


@dataclass
class Block:
    """A basic block: straight-line instructions plus one terminator."""

    name: str
    instrs: List[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr:
        if not self.instrs or not self.instrs[-1].is_terminator:
            raise IRError(f"block {self.name!r} lacks a terminator")
        return self.instrs[-1]

    @property
    def body(self) -> List[Instr]:
        """Instructions excluding the terminator."""
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[:-1]
        return list(self.instrs)

    def successors(self) -> List[str]:
        term = self.terminator
        if isinstance(term, Br):
            return [term.target]
        if isinstance(term, CondBr):
            return [term.if_true, term.if_false]
        return []

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        lines.extend(f"  {instr}" for instr in self.instrs)
        return "\n".join(lines)


@dataclass
class Function:
    """A function: named parameters (virtual registers) and blocks."""

    name: str
    params: List[VReg]
    blocks: List[Block] = field(default_factory=list)
    next_vreg: int = 0

    def block(self, name: str) -> Block:
        for block in self.blocks:
            if block.name == name:
                return block
        raise IRError(f"no block {name!r} in function {self.name!r}")

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    def predecessors(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {block.name: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                if succ not in preds:
                    raise IRError(
                        f"{self.name}: branch to unknown block {succ!r}"
                    )
                preds[succ].append(block.name)
        return preds

    def new_vreg(self, hint: str = "") -> VReg:
        reg = VReg(self.next_vreg, hint)
        self.next_vreg += 1
        return reg

    def instructions(self) -> Iterator[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def __str__(self) -> str:
        params = ", ".join(str(param) for param in self.params)
        header = f"func {self.name}({params}) {{"
        body = "\n".join(str(block) for block in self.blocks)
        return f"{header}\n{body}\n}}"


@dataclass
class GlobalArray:
    """A global word array; becomes part of the data-memory image."""

    name: str
    size: int
    init: Tuple[int, ...] = ()
    #: Immutable (declared const): loads at constant offsets may fold.
    immutable: bool = False

    def __post_init__(self) -> None:
        if self.size < 1:
            raise IRError(f"global {self.name!r} must have size >= 1")
        if len(self.init) > self.size:
            raise IRError(
                f"global {self.name!r}: initialiser longer than the array"
            )

    def image(self, mask: int) -> List[int]:
        words = [value & mask for value in self.init]
        words.extend(0 for _ in range(self.size - len(words)))
        return words


@dataclass
class Module:
    """A translation unit: globals plus functions."""

    functions: Dict[str, Function] = field(default_factory=dict)
    globals: Dict[str, GlobalArray] = field(default_factory=dict)

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def add_global(self, array: GlobalArray) -> GlobalArray:
        if array.name in self.globals or array.name in self.functions:
            raise IRError(f"duplicate global {array.name!r}")
        self.globals[array.name] = array
        return array

    def layout_globals(self) -> Dict[str, int]:
        """Assign word addresses to globals (stable, declaration order)."""
        addresses: Dict[str, int] = {}
        cursor = 0
        for name, array in self.globals.items():
            addresses[name] = cursor
            cursor += array.size
        return addresses

    def data_image(self, mask: int = 0xFFFFFFFF) -> List[int]:
        """Initial data-memory image following :meth:`layout_globals`."""
        image: List[int] = []
        for array in self.globals.values():
            image.extend(array.image(mask))
        return image

    def __str__(self) -> str:
        parts = [
            f"global {array.name}[{array.size}]"
            for array in self.globals.values()
        ]
        parts.extend(str(function) for function in self.functions.values())
        return "\n\n".join(parts)
