"""The candidate space: which machines the autotuner may propose.

A :class:`SearchSpace` is a base :class:`~repro.config.MachineConfig`
plus an ordered list of :class:`Axis` objects, each naming the discrete
values one knob may take.  The cartesian product of the axis values is
the candidate space; every candidate has a stable integer index
(mixed-radix, rightmost axis fastest), so strategies, resume artifacts
and reports all speak the same coordinates.

Not every coordinate is a machine: combinations the config validator
rejects (say, ``regs_per_instruction`` below ``n_gprs``) decode to
``None`` and are skipped, never evaluated.  Custom-instruction axes are
populated by mining the workload itself (:func:`mine_custom_ops`), so
the space can range over "no custom ops / top-1 / top-2" exactly as the
paper's customisation flow does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.errors import ConfigError, TuneError
from repro.store import canonical_digest
from repro.workloads import WorkloadSpec, XorShift32

#: Latency classes a latency axis may range over (mirrors the config
#: validator's required table).
LATENCY_CLASSES = ("alu", "mul", "div", "cmp", "load", "store",
                   "branch", "pbr")


@dataclass(frozen=True)
class Axis:
    """One knob: a name, its candidate values, and how a value lands."""

    name: str
    values: Tuple[object, ...]
    setter: Callable[[MachineConfig, object], MachineConfig] = field(
        compare=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise TuneError(f"axis {self.name!r} has no values")
        if len(set(map(repr, self.values))) != len(self.values):
            raise TuneError(f"axis {self.name!r} has duplicate values")

    def apply(self, config: MachineConfig,
              value: object) -> MachineConfig:
        return self.setter(config, value)


def field_axis(name: str, values: Sequence[object]) -> Axis:
    """An axis over one :class:`MachineConfig` dataclass field."""
    if name not in MachineConfig.__dataclass_fields__:
        raise TuneError(f"unknown MachineConfig field {name!r}")
    return Axis(name, tuple(values),
                lambda config, value: config.with_changes(**{name: value}))


def latency_axis(op_class: str, values: Sequence[int]) -> Axis:
    """An axis over one operation class's latency (in cycles)."""
    if op_class not in LATENCY_CLASSES:
        raise TuneError(
            f"unknown latency class {op_class!r} "
            f"(known: {', '.join(LATENCY_CLASSES)})"
        )
    return Axis(f"latency.{op_class}", tuple(int(v) for v in values),
                lambda config, value: config.with_latency(op_class, value))


def custom_ops_axis(specs: Sequence[object],
                    counts: Sequence[int]) -> Axis:
    """An axis over how many mined custom instructions to adopt.

    ``specs`` is the ranked list from :func:`mine_custom_ops`; each
    axis value ``k`` equips the candidate with the top ``k`` of them.
    """
    specs = tuple(specs)
    counts = tuple(int(c) for c in counts)
    for count in counts:
        if count < 0 or count > len(specs):
            raise TuneError(
                f"custom-op count {count} out of range: "
                f"{len(specs)} instruction(s) were mined"
            )
    return Axis(
        "custom_ops", counts,
        lambda config, value: config.with_changes(
            custom_ops=specs[:value]),
    )


def mine_custom_ops(spec: WorkloadSpec, top_k: int) -> Tuple[object, ...]:
    """Mine the workload for fusable custom instructions, ranked.

    Compiles the workload's MiniC source and runs the fusion-discovery
    pass (:func:`repro.explore.custominsn.discover_and_apply`) on a
    scratch module; only the resulting :class:`CustomOpSpec` contracts
    are kept.  The evaluation layer re-derives the same rewrite
    deterministically when it scores a custom-op candidate.
    """
    from repro.explore.custominsn import discover_and_apply
    from repro.lang.compile import compile_minic

    module = compile_minic(spec.source)
    return tuple(discover_and_apply(module, top_k=top_k,
                                    mem_words=spec.mem_words))


class SearchSpace:
    """A base config crossed with a list of axes, indexable and seeded."""

    def __init__(self, base: MachineConfig, axes: Sequence[Axis]):
        axes = tuple(axes)
        if not axes:
            raise TuneError("a search space needs at least one axis")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise TuneError(f"duplicate axis names: {sorted(names)}")
        self.base = base
        self.axes = axes

    @property
    def size(self) -> int:
        """Number of coordinates (valid or not) in the space."""
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size

    # -- coordinates ---------------------------------------------------

    def decode(self, index: int) -> Tuple[int, ...]:
        """Mixed-radix digits of ``index`` (rightmost axis fastest)."""
        if not 0 <= index < self.size:
            raise TuneError(f"index {index} out of range for a "
                            f"{self.size}-point space")
        digits = []
        for axis in reversed(self.axes):
            index, digit = divmod(index, len(axis.values))
            digits.append(digit)
        return tuple(reversed(digits))

    def encode(self, digits: Sequence[int]) -> int:
        index = 0
        for axis, digit in zip(self.axes, digits):
            index = index * len(axis.values) + digit
        return index

    def choices_at(self, index: int) -> Dict[str, object]:
        """Axis-name -> value mapping of one coordinate."""
        digits = self.decode(index)
        return {axis.name: axis.values[digit]
                for axis, digit in zip(self.axes, digits)}

    def config_at(self, index: int) -> Optional[MachineConfig]:
        """The machine at one coordinate; ``None`` if it fails to
        validate (an invalid knob combination, not an error)."""
        digits = self.decode(index)
        config = self.base
        try:
            for axis, digit in zip(self.axes, digits):
                config = axis.apply(config, axis.values[digit])
        except ConfigError:
            return None
        return config

    def enumerate_configs(self) -> Iterator[Tuple[int, MachineConfig]]:
        """All valid candidates in index order."""
        for index in range(self.size):
            config = self.config_at(index)
            if config is not None:
                yield index, config

    def neighbours(self, index: int) -> List[int]:
        """Coordinates one step along one axis (no wrap-around).

        Deterministic order: axis by axis, down-step before up-step —
        the hill-climber's move order depends only on the coordinate.
        """
        digits = list(self.decode(index))
        result = []
        for position, axis in enumerate(self.axes):
            digit = digits[position]
            for step in (-1, 1):
                neighbour = digit + step
                if 0 <= neighbour < len(axis.values):
                    digits[position] = neighbour
                    result.append(self.encode(digits))
            digits[position] = digit
        return result

    def sample(self, rng: XorShift32) -> int:
        """One seeded coordinate draw (uniform over all coordinates)."""
        return rng.below(self.size)

    # -- identity ------------------------------------------------------

    def fingerprint(self) -> str:
        """Content digest of the space: base config + axes + values.

        Two spaces with the same fingerprint index the same candidates,
        which is what resuming a search from a report artifact needs.
        """
        return canonical_digest({
            "base": self.base.canonical(),
            "axes": [{"name": axis.name,
                      "values": [repr(v) for v in axis.values]}
                     for axis in self.axes],
        })

    def describe(self) -> str:
        parts = [f"{axis.name}({len(axis.values)})" for axis in self.axes]
        return f"{self.size} candidates: {' x '.join(parts)}"
