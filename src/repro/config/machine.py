"""The machine configuration object (paper §3.3).

The paper's customisable EPIC description supports these parameters,
"instantiated in the configuration header file":

* number of ALU units
* number of general purpose registers
* number of predicate registers
* number of branch target registers
* number of registers each instruction can use
* number of instructions per issue (constrained to 1..4 by memory
  bandwidth)
* width of datapath and registers
* functionality of the ALU

:class:`MachineConfig` is the Python equivalent of that header file.  It is
immutable (a frozen dataclass) so one config can safely be shared by the
compiler, assembler, simulator and FPGA model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Tuple

from repro.errors import ConfigError
from repro.store import canonical_digest

#: Version of the :meth:`MachineConfig.canonical` schema.  Bump whenever
#: a field is added, removed, or its canonical rendering changes — the
#: version is hashed into :meth:`MachineConfig.digest`, so bumping it
#: invalidates every digest-keyed artifact (result caches, batch files)
#: built under the old schema.
CONFIG_DIGEST_VERSION = 1


class AluFeature(enum.Enum):
    """Optional functionality groups of the ALU (paper §3.3).

    "ALUs do not need to support division if this operation is not
    required by the particular application program."  Dropping a feature
    removes its opcodes from the ISA, shrinks the FPGA area estimate and
    makes the compiler refuse (or software-expand) the operation.
    """

    MULTIPLY = "multiply"
    DIVIDE = "divide"
    SHIFT = "shift"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AluFeature.{self.name}"


_ALL_ALU_FEATURES = frozenset(AluFeature)

#: Architectural trap handling policies (reliability subsystem):
#: ``halt`` stops the machine on the first trap (raising
#: :class:`~repro.errors.TrapError`), ``squash-bundle`` discards the
#: trapping bundle's effects and continues at the next bundle, and
#: ``record-and-continue`` logs the trap and keeps going.
TRAP_POLICIES = ("halt", "squash-bundle", "record-and-continue")

#: Storage protection schemes for the register file and data memory:
#: ``parity`` detects single-bit upsets on read (raising a parity trap),
#: ``ecc`` (SEC-DED Hamming) corrects them silently.  Both cost slices
#: (and, for the block-RAM register file, wider words) in the FPGA
#: resource model.
PROTECTION_SCHEMES = ("none", "parity", "ecc")

#: Memory-bandwidth bound from §3.3: "the number of instructions per issue
#: is constrained between one and four" (4 external 32-bit banks at 2x
#: clock provide 256 bits = four 64-bit instructions per cycle).
MAX_ISSUE_WIDTH = 4


@dataclass(frozen=True)
class MachineConfig:
    """Compile-time parameters of one EPIC processor instance.

    Defaults follow the paper: 4 ALUs, 64 general-purpose registers, 32
    predicate registers, 16 branch-target registers, 32-bit datapath,
    4 instructions per issue.
    """

    n_alus: int = 4
    n_gprs: int = 64
    n_preds: int = 32
    n_btrs: int = 16
    issue_width: int = 4
    datapath_width: int = 32
    #: Registers each instruction can name (paper lists this separately
    #: from n_gprs; it bounds the encoded register-index field width).
    regs_per_instruction: int = 64
    alu_features: FrozenSet[AluFeature] = _ALL_ALU_FEATURES
    #: Operation latencies in processor cycles, keyed by resource class.
    #: These feed the machine description and the simulator in lock-step
    #: so the static schedule and the hardware agree (EPIC's core
    #: contract).  Defaults follow Trimaran/ReaCT-ILP conventions for an
    #: uncached 2-stage FPGA design: single-cycle ALU, block-multiplier
    #: multiply, iterative divide, 2-cycle external-SRAM load.
    latencies: Tuple[Tuple[str, int], ...] = (
        ("alu", 1),
        ("mul", 3),
        ("div", 12),
        ("cmp", 1),
        ("load", 2),
        ("store", 1),
        ("branch", 1),
        ("pbr", 1),
    )
    #: Register-file controller budget (§3.2): dual-port block RAM clocked
    #: at 4x gives 8 read/write operations per processor cycle.
    regfile_ops_per_cycle: int = 8
    #: Forwarding of results computed in the previous cycle (§3.2),
    #: handled by the register file controller; reduces port pressure.
    forwarding: bool = True
    #: Model the register-file port budget at all (ablation switch A1).
    model_port_limit: bool = True
    #: Number of external 32-bit memory banks (§3.2).
    n_mem_banks: int = 4
    #: When True, data accesses steal fetch bandwidth from the 2x-clock
    #: memory controller (256 bits/cycle total), stalling the fetch stage
    #: for one cycle per load/store.  The paper's ReaCT-ILP numbers do not
    #: appear to include this effect, so it defaults to off; it is an
    #: ablation switch.
    lsu_shares_fetch_bandwidth: bool = False
    #: Custom instructions: mapping from mnemonic to a CustomOp spec
    #: (see repro.isa.custom).  Stored as a tuple for hashability.
    custom_ops: Tuple[object, ...] = ()
    #: Pipeline depth (paper §6 lists "parameterising the level of
    #: pipelining" as current/future work; we implement it).  The
    #: prototype is 2-stage; deeper front ends raise the achievable
    #: clock (see repro.fpga.timing_model) but cost one branch bubble
    #: per extra stage, since branches still resolve in the final stage.
    pipeline_stages: int = 2
    #: Target clock rate of the soft core in MHz (paper: 41.8 MHz
    #: prototype).  The FPGA timing model can re-estimate this.
    clock_mhz: float = 41.8
    #: How the core reacts to an architectural trap (illegal instruction,
    #: out-of-bounds non-speculative access, register-port overflow,
    #: parity error) — one of :data:`TRAP_POLICIES`.
    trap_policy: str = "halt"
    #: SEU protection of the block-RAM register files (GPR/predicate/BTR)
    #: — one of :data:`PROTECTION_SCHEMES`.
    regfile_protection: str = "none"
    #: SEU protection of the external data-memory banks.
    memory_protection: str = "none"

    def __post_init__(self) -> None:
        self._validate()

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        if self.n_alus < 1:
            raise ConfigError("n_alus must be >= 1")
        if self.n_gprs < 4:
            raise ConfigError("n_gprs must be >= 4 (zero reg, SP, RV, RA)")
        if self.n_preds < 2:
            raise ConfigError("n_preds must be >= 2 (p0 is hardwired true)")
        if self.n_btrs < 1:
            raise ConfigError("n_btrs must be >= 1")
        if not 1 <= self.issue_width <= MAX_ISSUE_WIDTH:
            raise ConfigError(
                f"issue_width must be in 1..{MAX_ISSUE_WIDTH} "
                "(limited by memory bandwidth, paper §3.3)"
            )
        if self.datapath_width not in (8, 16, 32, 64):
            raise ConfigError("datapath_width must be one of 8, 16, 32, 64")
        if self.regs_per_instruction < self.n_gprs:
            raise ConfigError(
                "regs_per_instruction must be >= n_gprs: every architected "
                "register must be addressable"
            )
        if self.regfile_ops_per_cycle < 2:
            raise ConfigError("regfile_ops_per_cycle must be >= 2")
        if self.n_mem_banks < 1:
            raise ConfigError("n_mem_banks must be >= 1")
        if not 2 <= self.pipeline_stages <= 4:
            raise ConfigError("pipeline_stages must be in 2..4")
        if self.trap_policy not in TRAP_POLICIES:
            raise ConfigError(
                f"trap_policy must be one of {TRAP_POLICIES}, "
                f"got {self.trap_policy!r}"
            )
        if self.regfile_protection not in PROTECTION_SCHEMES:
            raise ConfigError(
                f"regfile_protection must be one of {PROTECTION_SCHEMES}, "
                f"got {self.regfile_protection!r}"
            )
        if self.memory_protection not in PROTECTION_SCHEMES:
            raise ConfigError(
                f"memory_protection must be one of {PROTECTION_SCHEMES}, "
                f"got {self.memory_protection!r}"
            )
        latency_map = dict(self.latencies)
        for name in ("alu", "mul", "div", "cmp", "load", "store", "branch", "pbr"):
            if name not in latency_map:
                raise ConfigError(f"missing latency entry for {name!r}")
            if latency_map[name] < 1:
                raise ConfigError(f"latency for {name!r} must be >= 1")
        seen = set()
        for spec in self.custom_ops:
            mnemonic = getattr(spec, "mnemonic", None)
            if not mnemonic:
                raise ConfigError("custom op spec must define a mnemonic")
            if mnemonic in seen:
                raise ConfigError(f"duplicate custom op {mnemonic!r}")
            seen.add(mnemonic)

    # -- derived quantities --------------------------------------------

    @property
    def latency(self) -> Dict[str, int]:
        """Latency table as a dictionary (resource class -> cycles)."""
        return dict(self.latencies)

    @property
    def taken_branch_penalty(self) -> int:
        """Bubble cycles after a taken branch (front-end flush)."""
        return self.pipeline_stages - 1

    @property
    def mask(self) -> int:
        """Bit mask of the datapath width (e.g. 0xFFFFFFFF for 32 bits)."""
        return (1 << self.datapath_width) - 1

    @property
    def sign_bit(self) -> int:
        """Sign-bit value of the datapath width."""
        return 1 << (self.datapath_width - 1)

    def has_feature(self, feature: AluFeature) -> bool:
        return feature in self.alu_features

    def with_changes(self, **kwargs) -> "MachineConfig":
        """Return a modified copy (frozen-dataclass friendly)."""
        return replace(self, **kwargs)

    def with_latency(self, name: str, cycles: int) -> "MachineConfig":
        """Return a copy with one latency entry overridden."""
        table = dict(self.latencies)
        if name not in table:
            raise ConfigError(f"unknown latency class {name!r}")
        table[name] = cycles
        return replace(self, latencies=tuple(sorted(table.items())))

    def canonical(self) -> Dict[str, object]:
        """Canonical, order-stable description of the configuration.

        The dictionary is pure JSON data (no enums, no sets) with every
        unordered collection sorted, so two semantically equal configs
        produce the same rendering regardless of construction order,
        process, or platform.  Custom operations are represented by
        their architectural contract (mnemonic, functional unit,
        latency, slice cost); their Python semantics callable cannot be
        hashed, so two custom ops that agree on the contract are
        considered the same operation.  Cosmetic fields (the custom-op
        ``description``) are excluded: the digest must change iff a
        semantically relevant field changes.
        """
        return {
            "version": CONFIG_DIGEST_VERSION,
            "n_alus": self.n_alus,
            "n_gprs": self.n_gprs,
            "n_preds": self.n_preds,
            "n_btrs": self.n_btrs,
            "issue_width": self.issue_width,
            "datapath_width": self.datapath_width,
            "regs_per_instruction": self.regs_per_instruction,
            "alu_features": sorted(f.value for f in self.alu_features),
            "latencies": [[name, cycles]
                          for name, cycles in sorted(self.latencies)],
            "regfile_ops_per_cycle": self.regfile_ops_per_cycle,
            "forwarding": self.forwarding,
            "model_port_limit": self.model_port_limit,
            "n_mem_banks": self.n_mem_banks,
            "lsu_shares_fetch_bandwidth": self.lsu_shares_fetch_bandwidth,
            "custom_ops": sorted(
                (
                    {
                        "mnemonic": spec.mnemonic,
                        "fu_class": getattr(spec, "fu_class", "alu"),
                        "latency": getattr(spec, "latency", 1),
                        "slices": getattr(spec, "slices", 0),
                    }
                    for spec in self.custom_ops
                ),
                key=lambda entry: entry["mnemonic"],
            ),
            "pipeline_stages": self.pipeline_stages,
            "clock_mhz": self.clock_mhz,
            "trap_policy": self.trap_policy,
            "regfile_protection": self.regfile_protection,
            "memory_protection": self.memory_protection,
        }

    def digest(self) -> str:
        """Stable SHA-256 content digest of :meth:`canonical`.

        Used as the configuration component of result-cache keys
        (:mod:`repro.serve`): equal digests guarantee the simulator,
        compiler and FPGA model see the same machine.  Computed once
        per (immutable) configuration.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = canonical_digest(self.canonical())
            object.__setattr__(self, "_digest", digest)
        return digest

    def describe(self) -> str:
        """One-line human-readable summary, used by tools and reports."""
        features = ",".join(sorted(f.value for f in self.alu_features))
        return (
            f"EPIC[{self.n_alus} ALU, {self.n_gprs} GPR, {self.n_preds} PR, "
            f"{self.n_btrs} BTR, issue={self.issue_width}, "
            f"width={self.datapath_width}, alu={{{features}}}]"
        )
