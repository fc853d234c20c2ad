"""Shared workload infrastructure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

_MASK = 0xFFFFFFFF


@dataclass
class WorkloadSpec:
    """One benchmark instance: source, expected outputs, metadata."""

    name: str
    source: str
    #: Global arrays to read back and compare, mapped to expected words.
    expected: Dict[str, List[int]]
    #: Expected return value of main (a checksum), if defined.
    expected_return: Optional[int] = None
    #: Human-readable description of the instance size.
    scale_note: str = ""
    #: Data-memory words the simulators should provision.
    mem_words: int = 1 << 16
    #: Positional arguments the workload constructor was called with, so
    #: another process can rebuild this exact instance via
    #: ``WORKLOADS[name](*instance_args)`` (the job-serving layer's
    #: serialisation hook; empty means "constructor defaults").
    instance_args: Tuple[int, ...] = ()


class XorShift32:
    """Deterministic 32-bit xorshift PRNG for input generation."""

    def __init__(self, seed: int = 0x2545F491):
        if seed == 0:
            seed = 1
        self.state = seed & _MASK

    def next(self) -> int:
        x = self.state
        x ^= (x << 13) & _MASK
        x ^= x >> 17
        x ^= (x << 5) & _MASK
        self.state = x
        return x

    def below(self, bound: int) -> int:
        return self.next() % bound


def words_from_bytes(data: bytes) -> List[int]:
    """Pack bytes into big-endian 32-bit words, zero-padding the tail."""
    padded = data + b"\x00" * (-len(data) % 4)
    return [
        int.from_bytes(padded[index:index + 4], "big")
        for index in range(0, len(padded), 4)
    ]


def signed(value: int) -> int:
    """Two's-complement interpretation of a 32-bit word."""
    value &= _MASK
    return value - (1 << 32) if value & 0x80000000 else value


def unsigned(value: int) -> int:
    return value & _MASK


def format_words(values: Sequence[int]) -> str:
    """Render an initialiser list for a MiniC global array."""
    return ", ".join(str(signed(v)) for v in values)
