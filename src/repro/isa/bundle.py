"""Issue groups (bundles) and whole programs.

The compiler emits *bundles*: groups of up to ``issue_width`` operations
that the Fetch/Decode/Issue stage launches in one cycle (paper §3.2, "up
to four instructions are issued per clock cycle").  The program counter
addresses bundles; branch targets are bundle indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import EncodingError
from repro.isa.instruction import Instruction, nop


@dataclass(frozen=True)
class Bundle:
    """One issue group: instructions that launch in the same cycle."""

    slots: Tuple[Instruction, ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise EncodingError("bundle must contain at least one slot")

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.slots)

    def padded(self, width: int) -> "Bundle":
        """Pad with NOPs to exactly ``width`` slots (assembler duty)."""
        if len(self.slots) > width:
            raise EncodingError(
                f"bundle has {len(self.slots)} slots, exceeds issue width {width}"
            )
        missing = width - len(self.slots)
        return Bundle(self.slots + tuple(nop() for _ in range(missing)))

    @property
    def real_ops(self) -> Tuple[Instruction, ...]:
        """Slots that are not padding."""
        return tuple(instr for instr in self.slots if not instr.is_nop)

    def __str__(self) -> str:
        return " ;; ".join(str(instr) for instr in self.slots)


@dataclass
class Program:
    """An assembled EPIC program: bundles plus symbol/data images.

    ``labels`` maps symbolic names to bundle indices (code) — retained for
    disassembly and debugging.  ``data`` is the initial data-memory image
    (word-addressed); ``symbols`` maps data symbols to word addresses.
    ``entry`` is the starting bundle index.
    """

    bundles: List[Bundle]
    labels: Dict[str, int] = field(default_factory=dict)
    data: List[int] = field(default_factory=list)
    symbols: Dict[str, int] = field(default_factory=dict)
    entry: int = 0

    def __len__(self) -> int:
        return len(self.bundles)

    def __iter__(self) -> Iterator[Bundle]:
        return iter(self.bundles)

    @property
    def n_operations(self) -> int:
        """Number of non-NOP operations (static code size)."""
        return sum(len(bundle.real_ops) for bundle in self.bundles)

    @property
    def n_slots(self) -> int:
        """Total slots including NOP padding (encoded size / 64 bits)."""
        return sum(len(bundle) for bundle in self.bundles)

    def listing(self) -> str:
        """Human-readable listing with bundle addresses and labels."""
        by_address: Dict[int, List[str]] = {}
        for name, address in self.labels.items():
            by_address.setdefault(address, []).append(name)
        lines = []
        for address, bundle in enumerate(self.bundles):
            for name in sorted(by_address.get(address, [])):
                lines.append(f"{name}:")
            lines.append(f"  {address:5d}: {bundle}")
        return "\n".join(lines)
