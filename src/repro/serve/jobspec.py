"""Canonical job descriptions: what exactly is one evaluation?

A :class:`JobSpec` pins down everything a worker needs to reproduce an
evaluation bit-for-bit in another process: the workload (by registry
name plus the constructor arguments that size it), the machine
configuration (carried whole, digested canonically), the execution
engine, the cycle budget, and — for fault campaigns — the seed, the
fault spaces, and the slice of the campaign this job covers.

Two properties matter:

* **canonical** — :meth:`JobSpec.canonical` renders the spec as pure,
  order-stable JSON data, and :meth:`JobSpec.digest` hashes it (with a
  schema version), so semantically equal jobs share a digest across
  processes and platforms.  This digest is the result-cache key.
* **self-contained** — :meth:`JobSpec.to_payload` /
  :meth:`JobSpec.from_payload` round-trip through JSON, so batches of
  jobs live in plain files and travel to worker processes without
  pickling anything richer than a dict.

Configurations carrying custom instructions are rejected: a custom
op's semantics is an arbitrary Python callable that cannot be hashed
or serialised, so two such configs could collide in the cache while
meaning different machines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

from repro.config import MachineConfig
from repro.config.machine import AluFeature
from repro.errors import ServeError
from repro.store import canonical_digest
from repro.workloads import WORKLOADS, WorkloadSpec, XorShift32

#: Version of the JobSpec canonical schema; hashed into every digest,
#: so bumping it invalidates result caches built under the old schema.
#: v2 added ``cycle_limit_ok`` to sweep jobs (budget-truncated runs
#: surface as structured payloads instead of errors); v3 dropped the
#: ``both`` bench engine.
SPEC_VERSION = 3

#: Version of the batch-file envelope written by :func:`dump_batch`.
BATCH_VERSION = 1

KIND_SWEEP = "sweep"
KIND_CAMPAIGN = "campaign"
KIND_BENCH = "bench"
#: Probe jobs exercise the executor itself (self-tests and the crash /
#: timeout acceptance checks); they never touch the simulator.
KIND_PROBE = "probe"

JOB_KINDS = (KIND_SWEEP, KIND_CAMPAIGN, KIND_BENCH, KIND_PROBE)

#: Execution engines a job may request (see ``EpicProcessor.run``):
#: ``auto`` lets the simulator pick the fast path when eligible,
#: ``fast`` / ``reference`` / ``trace`` force one engine, and the bench
#: engine ``all`` runs all three and cross-checks them.  Campaign jobs
#: additionally accept ``vector``: the batched lane engine
#: (:mod:`repro.core.vector`), byte-identical to the scalar checker.
ENGINES = ("auto", "fast", "reference", "trace", "all", "vector")

#: Probe behaviours understood by the worker.  ``stubborn`` ignores
#: SIGTERM and hangs — the acceptance probe for the executors'
#: SIGTERM -> SIGKILL reap escalation.
PROBE_BEHAVIOURS = ("ok", "fail", "crash", "hang", "sleep", "stubborn")

#: Default cycle budget, matching the harness runner.
DEFAULT_MAX_CYCLES = 200_000_000


@dataclass(frozen=True, eq=False)
class JobSpec:
    """One pure, independent evaluation, canonically described.

    Equality and hashing follow the *canonical* form, not raw field
    identity: a spec that round-trips through JSON compares equal to
    the original even where a field's cosmetic ordering (say, the
    config's latency tuple) was normalised along the way.
    """

    kind: str
    workload: str = ""
    #: Positional constructor args of the workload instance (empty
    #: means the constructor's defaults — the full paper-size input).
    workload_args: Tuple[int, ...] = ()
    config: Optional[MachineConfig] = None
    engine: str = "auto"
    validate: bool = True
    max_cycles: int = DEFAULT_MAX_CYCLES
    #: Sweep jobs only: treat blowing the ``max_cycles`` budget as a
    #: *result* (outcome ``cycle-limit-exceeded``, cycles clamped to
    #: the budget) instead of a job error.  Lets a design-space search
    #: prune hopeless candidates cheaply without tripping the
    #: executor's failure accounting.
    cycle_limit_ok: bool = False
    # -- campaign jobs only -------------------------------------------
    n: int = 0
    seed: int = 0
    spaces: Tuple[str, ...] = ()
    watchdog_factor: float = 4.0
    #: Slice of the campaign's fault list this job covers.  The full
    #: fault list is always regenerated from (n, seed) and then sliced,
    #: so any sharding of one campaign yields byte-identical faults.
    fault_offset: int = 0
    #: Number of faults in the slice; -1 means "through the end".
    fault_count: int = -1
    # -- probe jobs only ----------------------------------------------
    behavior: str = ""
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServeError(f"unknown job kind {self.kind!r}")
        if self.engine not in ENGINES:
            raise ServeError(
                f"unknown engine {self.engine!r}: expected one of "
                f"{', '.join(ENGINES)}"
            )
        if self.engine == "vector" and self.kind != KIND_CAMPAIGN:
            raise ServeError(
                "the vector engine batches fault lanes; only campaign "
                "jobs can request it"
            )
        if self.kind == KIND_PROBE:
            if self.behavior not in PROBE_BEHAVIOURS:
                raise ServeError(
                    f"probe behaviour must be one of {PROBE_BEHAVIOURS}, "
                    f"got {self.behavior!r}"
                )
            return
        if self.workload not in WORKLOADS:
            raise ServeError(
                f"unknown workload {self.workload!r} "
                f"(known: {', '.join(sorted(WORKLOADS))})"
            )
        if self.config is None:
            raise ServeError(f"{self.kind} jobs require a machine config")
        if self.config.custom_ops:
            raise ServeError(
                "configs with custom instructions cannot be served: the "
                "op semantics callable is not serialisable, so the job "
                "digest could not distinguish two different machines"
            )
        if self.cycle_limit_ok and self.kind != KIND_SWEEP:
            raise ServeError(
                "cycle_limit_ok only applies to sweep jobs: campaigns "
                "already classify budget blow-ups as the hung outcome"
            )
        if self.kind == KIND_CAMPAIGN:
            if self.n < 1:
                raise ServeError("campaign jobs need n >= 1 injections")
            if not self.seed:
                # Mirrors generate_faults(): XorShift32 cannot hold
                # state 0, so a zero seed would fail in the worker.
                # Reject it at build time instead.
                raise ServeError("campaign jobs need a non-zero seed")
            if not self.spaces:
                raise ServeError("campaign jobs need at least one fault "
                                 "space (use campaign_job())")
            if self.fault_offset < 0 or self.fault_offset > self.n:
                raise ServeError("fault_offset out of range")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobSpec):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.digest())

    # -- canonical form and digest ------------------------------------

    def canonical(self) -> Dict[str, object]:
        """Order-stable pure-JSON description (the digest pre-image)."""
        payload: Dict[str, object] = {
            "version": SPEC_VERSION,
            "kind": self.kind,
            "engine": self.engine,
        }
        if self.kind == KIND_PROBE:
            payload["behavior"] = self.behavior
            payload["seconds"] = self.seconds
            payload["seed"] = self.seed
            return payload
        payload["workload"] = self.workload
        payload["workload_args"] = list(self.workload_args)
        payload["config"] = self.config.canonical()
        payload["validate"] = self.validate
        payload["max_cycles"] = self.max_cycles
        if self.kind == KIND_SWEEP:
            payload["cycle_limit_ok"] = self.cycle_limit_ok
        if self.kind == KIND_CAMPAIGN:
            payload["n"] = self.n
            payload["seed"] = self.seed
            payload["spaces"] = list(self.spaces)
            payload["watchdog_factor"] = self.watchdog_factor
            payload["fault_offset"] = self.fault_offset
            payload["fault_count"] = self.fault_count
        return payload

    def digest(self) -> str:
        """SHA-256 content digest of :meth:`canonical` (cache key)."""
        return canonical_digest(self.canonical())

    @property
    def job_id(self) -> str:
        """Short human-readable identity: kind, subject, digest prefix."""
        subject = self.workload if self.kind != KIND_PROBE else self.behavior
        return f"{self.kind}:{subject}:{self.digest()[:10]}"

    def affinity_key(self) -> str:
        """Worker-affinity routing key: the (workload instance, machine)
        cell this job's expensive per-process state is keyed by.

        Every in-process cache a warm worker accumulates — the memoised
        lockstep checker, the fastpath/trace compile caches, the golden
        checkpoint stream — is keyed by the workload instance and the
        machine configuration, never by the job's seed or fault slice.
        Jobs sharing this key therefore reuse each other's warm state,
        which is exactly what the warm pool routes on.  Probe jobs
        carry no warm state and share one key.
        """
        if self.kind == KIND_PROBE:
            return "probe"
        args = ",".join(str(arg) for arg in self.workload_args)
        return f"{self.workload}:{args}:{self.config.digest()[:16]}"

    def describe(self) -> str:
        if self.kind == KIND_PROBE:
            return f"probe({self.behavior})"
        parts = [self.kind, self.workload]
        if self.workload_args:
            parts.append("x".join(str(a) for a in self.workload_args))
        parts.append(f"EPIC-{self.config.n_alus}ALU")
        if self.kind == KIND_CAMPAIGN:
            count = self.fault_count if self.fault_count >= 0 \
                else self.n - self.fault_offset
            parts.append(f"n={self.n} seed={self.seed} "
                         f"[{self.fault_offset}:+{count}]")
        return " ".join(parts)

    # -- JSON round-trip ----------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable form, reversible via :meth:`from_payload`."""
        return self.canonical()

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "JobSpec":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ServeError("malformed job payload: expected a dict "
                             "with a 'kind' key")
        version = payload.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ServeError(
                f"job payload schema v{version} is not supported "
                f"(this build speaks v{SPEC_VERSION})"
            )
        kind = payload["kind"]
        common = dict(
            kind=kind,
            engine=payload.get("engine", "auto"),
        )
        try:
            if kind == KIND_PROBE:
                return cls(behavior=payload.get("behavior", ""),
                           seconds=float(payload.get("seconds", 0.0)),
                           seed=int(payload.get("seed", 0)),
                           **common)
            spec = cls(
                workload=payload.get("workload", ""),
                workload_args=tuple(payload.get("workload_args", ())),
                config=config_from_canonical(payload.get("config")),
                validate=bool(payload.get("validate", True)),
                max_cycles=int(payload.get("max_cycles",
                                           DEFAULT_MAX_CYCLES)),
                cycle_limit_ok=bool(payload.get("cycle_limit_ok", False)),
                n=int(payload.get("n", 0)),
                seed=int(payload.get("seed", 0)),
                spaces=tuple(payload.get("spaces", ())),
                watchdog_factor=float(payload.get("watchdog_factor", 4.0)),
                fault_offset=int(payload.get("fault_offset", 0)),
                fault_count=int(payload.get("fault_count", -1)),
                **common,
            )
        except (TypeError, ValueError) as error:
            raise ServeError(f"malformed job payload: {error}") from error
        return spec


def config_from_canonical(payload: object) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from its canonical rendering."""
    if not isinstance(payload, dict):
        raise ServeError("job payload carries no machine config")
    if payload.get("custom_ops"):
        raise ServeError("cannot rebuild a config with custom "
                         "instructions from a payload")
    try:
        return MachineConfig(
            n_alus=payload["n_alus"],
            n_gprs=payload["n_gprs"],
            n_preds=payload["n_preds"],
            n_btrs=payload["n_btrs"],
            issue_width=payload["issue_width"],
            datapath_width=payload["datapath_width"],
            regs_per_instruction=payload["regs_per_instruction"],
            alu_features=frozenset(
                AluFeature(value) for value in payload["alu_features"]),
            latencies=tuple(
                (name, cycles) for name, cycles in payload["latencies"]),
            regfile_ops_per_cycle=payload["regfile_ops_per_cycle"],
            forwarding=payload["forwarding"],
            model_port_limit=payload["model_port_limit"],
            n_mem_banks=payload["n_mem_banks"],
            lsu_shares_fetch_bandwidth=payload[
                "lsu_shares_fetch_bandwidth"],
            pipeline_stages=payload["pipeline_stages"],
            clock_mhz=payload["clock_mhz"],
            trap_policy=payload["trap_policy"],
            regfile_protection=payload["regfile_protection"],
            memory_protection=payload["memory_protection"],
        )
    except KeyError as error:
        raise ServeError(
            f"config payload is missing field {error.args[0]!r}"
        ) from error


# -- job builders ------------------------------------------------------

def sweep_job(spec: WorkloadSpec, config: MachineConfig,
              validate: bool = True,
              max_cycles: int = DEFAULT_MAX_CYCLES,
              engine: str = "auto",
              cycle_limit_ok: bool = False) -> JobSpec:
    """A design-point evaluation job (cycles + area + clock).

    ``cycle_limit_ok=True`` turns a blown cycle budget into a payload
    with outcome ``cycle-limit-exceeded`` instead of a failed job —
    the knob the autotuner uses to prune slow candidates.
    """
    return JobSpec(kind=KIND_SWEEP, workload=spec.name,
                   workload_args=tuple(spec.instance_args), config=config,
                   validate=validate, max_cycles=max_cycles, engine=engine,
                   cycle_limit_ok=cycle_limit_ok)


def campaign_job(spec: WorkloadSpec, config: MachineConfig,
                 n: int, seed: int,
                 spaces: Sequence[str] = (),
                 watchdog_factor: float = 4.0,
                 fault_offset: int = 0,
                 fault_count: int = -1,
                 max_cycles: int = DEFAULT_MAX_CYCLES,
                 engine: str = "auto") -> JobSpec:
    """A fault-injection campaign job (or one shard of a campaign).

    ``engine`` is ``auto`` (scalar checker) or ``vector`` (batched
    lane engine) — a perf knob; the outcome payload is byte-identical.
    """
    if not spaces:
        from repro.harness.faultcampaign import DEFAULT_SPACES
        spaces = DEFAULT_SPACES
    return JobSpec(kind=KIND_CAMPAIGN, workload=spec.name,
                   workload_args=tuple(spec.instance_args), config=config,
                   max_cycles=max_cycles, n=n, seed=seed,
                   spaces=tuple(spaces), watchdog_factor=watchdog_factor,
                   fault_offset=fault_offset, fault_count=fault_count,
                   engine=engine)


def bench_job(spec: WorkloadSpec, config: MachineConfig,
              max_cycles: int = DEFAULT_MAX_CYCLES,
              engine: str = "all") -> JobSpec:
    """A multi-engine bench cell job (exactness re-checked in-worker).

    ``engine`` selects the engines the cell times: ``all`` (default,
    reference + fast + trace) or a single engine name.
    """
    return JobSpec(kind=KIND_BENCH, workload=spec.name,
                   workload_args=tuple(spec.instance_args), config=config,
                   max_cycles=max_cycles, engine=engine)


def shard_campaign(job: JobSpec, shards: int) -> List[JobSpec]:
    """Split one campaign job into ``shards`` contiguous fault slices.

    Slicing happens on the job's *index space* (the full fault list is
    regenerated from ``(n, seed)`` in every worker), so the union of
    the shards is byte-identical to the unsharded campaign no matter
    how many shards there are or in which order they finish.
    """
    if job.kind != KIND_CAMPAIGN:
        raise ServeError("only campaign jobs can be sharded")
    if job.fault_offset != 0 or job.fault_count != -1:
        raise ServeError("cannot re-shard an already-sliced campaign job")
    shards = max(1, min(int(shards), job.n))
    base, extra = divmod(job.n, shards)
    jobs: List[JobSpec] = []
    offset = 0
    for index in range(shards):
        count = base + (1 if index < extra else 0)
        jobs.append(JobSpec(
            kind=KIND_CAMPAIGN, workload=job.workload,
            workload_args=job.workload_args, config=job.config,
            max_cycles=job.max_cycles, n=job.n, seed=job.seed,
            spaces=job.spaces, watchdog_factor=job.watchdog_factor,
            fault_offset=offset, fault_count=count,
            engine=job.engine,
        ))
        offset += count
    return jobs


def derive_seeds(master_seed: int, count: int) -> List[int]:
    """``count`` per-job seeds from one master seed, order-stable.

    Drawn from the repo's :class:`~repro.workloads.XorShift32` at
    batch-construction time — never at scheduling time — so the seed a
    job receives depends only on its position in the batch.

    A zero (or otherwise falsy) master seed is rejected, exactly as
    :func:`~repro.harness.faultcampaign.generate_faults` rejects a
    zero campaign seed: XorShift32 cannot hold state 0, and silently
    substituting another seed would make two nominally different
    batches identical.  The derived seeds themselves are always
    non-zero (a non-zero xorshift state never reaches 0), so every
    derived seed is a valid campaign seed.
    """
    if not master_seed:
        raise ServeError("master seed must be non-zero (XorShift32 "
                         "cannot hold state 0)")
    rng = XorShift32(master_seed)
    return [rng.next() for _ in range(count)]


# -- batch files -------------------------------------------------------

def dump_batch(specs: Sequence[JobSpec],
               destination: Union[str, IO[str]]) -> None:
    """Write a batch file (JSON envelope) of job specs."""
    payload = {
        "version": BATCH_VERSION,
        "jobs": [spec.to_payload() for spec in specs],
    }
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        json.dump(payload, destination, indent=2, sort_keys=True)
        destination.write("\n")


def load_batch(source: Union[str, IO[str]]) -> List[JobSpec]:
    """Read a batch file back into job specs (input order preserved)."""
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        else:
            payload = json.load(source)
    except (OSError, json.JSONDecodeError) as error:
        raise ServeError(f"cannot read batch file: {error}") from error
    if not isinstance(payload, dict) or "jobs" not in payload:
        raise ServeError("malformed batch file: expected a JSON object "
                         "with a 'jobs' list")
    if payload.get("version", BATCH_VERSION) != BATCH_VERSION:
        raise ServeError(
            f"batch file version {payload.get('version')} is not "
            f"supported (this build speaks v{BATCH_VERSION})"
        )
    return [JobSpec.from_payload(entry) for entry in payload["jobs"]]
