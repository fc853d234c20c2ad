"""Snapshot/restore: quiescent-cycle checkpoints must be exact.

The fault-injection fast-forward machinery (repro.reliability.lockstep)
is only sound if a restored machine is bit-for-bit indistinguishable
from one that executed every cycle from reset.  These tests pin that
property for all three execution engines, across an active fault
injector, and across the pickle boundary used by the on-disk store.
"""

import json
import os
import pickle

import pytest

from repro.backend import compile_minic_to_epic
from repro.config import epic_config, epic_with_alus
from repro.core import EpicProcessor
from repro.asm import assemble
from repro.core.snapshot import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    CheckpointStream,
    CoreSnapshot,
    capture_checkpoints,
    program_digest,
)
from repro.errors import SimulationError
from repro.reliability import SPACE_GPR, FaultInjector, FaultSpec
from tests import store_contract

MEM_WORDS = 1 << 12

SOURCE = """
int a[8] = {3, 1, 4, 1, 5, 9, 2, 6};
int out[8];
int main() {
  int i; int acc;
  acc = 0;
  for (i = 0; i < 8; i += 1) {
    out[i] = a[i] * 5 + i;
    acc = acc + out[i];
  }
  return acc;
}
"""

ENGINES = ("reference", "fast", "trace")


def fresh_cpu(config=None):
    config = config or epic_config()
    compilation = compile_minic_to_epic(SOURCE, config)
    return EpicProcessor(config, compilation.program, mem_words=MEM_WORDS)


def observable(cpu, result):
    """Everything an exactness argument cares about."""
    return (result.cycles, result.stats, cpu.gpr._values, cpu.pred._values,
            cpu.btr._values, cpu.memory._words,
            [str(trap) for trap in cpu.traps])


@pytest.fixture(scope="module")
def uninterrupted():
    cpu = fresh_cpu()
    result = cpu.run()
    return observable(cpu, result)


class TestSegmentedRuns:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_paused_and_resumed_run_is_bit_identical(self, engine,
                                                     uninterrupted):
        cpu = fresh_cpu()
        segment = cpu.run(engine=engine, until_cycle=10)
        assert not segment.halted
        assert segment.cycles >= 10
        result = cpu.run(engine=engine)
        assert result.halted
        assert observable(cpu, result) == uninterrupted

    @pytest.mark.parametrize("engine", ENGINES)
    def test_many_tiny_segments(self, engine, uninterrupted):
        cpu = fresh_cpu()
        result = cpu.run(engine=engine, until_cycle=1)
        while not result.halted:
            result = cpu.run(engine=engine,
                             until_cycle=cpu._resume_cycle + 7)
        assert observable(cpu, result) == uninterrupted

    def test_run_past_halt_returns_normally(self):
        cpu = fresh_cpu()
        result = cpu.run(until_cycle=10 ** 9)
        assert result.halted


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_restore_after_mutation_resumes_identically(self, engine,
                                                        uninterrupted):
        cpu = fresh_cpu()
        cpu.run(engine=engine, until_cycle=12)
        snap = cpu.snapshot()
        # Trash every architectural file, then restore.
        cpu.run(engine=engine, until_cycle=snap.cycle + 9)
        cpu.gpr._values[4] ^= 0xDEAD
        cpu.memory._words[0] ^= 1
        cpu.restore(snap)
        assert snap.matches_state(cpu)
        result = cpu.run(engine=engine)
        assert observable(cpu, result) == uninterrupted

    def test_restore_onto_sibling_machine(self, uninterrupted):
        donor = fresh_cpu()
        donor.run(until_cycle=20)
        twin = fresh_cpu()
        twin.restore(donor.snapshot())
        result = twin.run()
        assert observable(twin, result) == uninterrupted

    def test_pickled_snapshot_restores_identically(self, uninterrupted):
        cpu = fresh_cpu()
        cpu.run(until_cycle=16)
        snap = pickle.loads(pickle.dumps(cpu.snapshot()))
        twin = fresh_cpu()
        twin.restore(snap)
        result = twin.run()
        assert observable(twin, result) == uninterrupted

    def test_snapshot_under_active_injector(self):
        config = epic_config()
        fault = FaultSpec(SPACE_GPR, 4, 2, 30)
        # From-zero faulty run.
        cpu = fresh_cpu(config)
        cpu.injector = FaultInjector([fault])
        cpu.injector.attach(cpu)
        reference = observable(cpu, cpu.run())
        # Checkpoint at cycle 8 (before the fault fires), restore onto
        # a fresh machine, inject from there: must land the same place.
        donor = fresh_cpu(config)
        donor.run(until_cycle=8)
        snap = donor.snapshot()
        assert snap.cycle < fault.cycle
        twin = fresh_cpu(config)
        twin.restore(snap)
        twin.injector = FaultInjector([fault])
        twin.injector.attach(twin)
        assert observable(twin, twin.run()) == reference

    def test_capture_requires_quiescent_machine(self):
        cpu = fresh_cpu()
        cpu.run()
        with pytest.raises(SimulationError):
            cpu.snapshot()

    def test_fresh_machine_snapshot_is_cycle_zero(self):
        cpu = fresh_cpu()
        snap = cpu.snapshot()
        assert snap.cycle == 0
        assert snap.pc == cpu.program.entry

    def test_matches_state_detects_divergence(self):
        cpu = fresh_cpu()
        cpu.run(until_cycle=10)
        snap = cpu.snapshot()
        assert snap.matches_state(cpu)
        cpu.gpr._values[5] ^= 2
        assert not snap.matches_state(cpu)


class TestCheckpointStream:
    @pytest.fixture(scope="class")
    def stream(self):
        config = epic_config()
        compilation = compile_minic_to_epic(SOURCE, config)
        return capture_checkpoints(config, compilation.program,
                                   MEM_WORDS, interval=16)

    def test_starts_at_cycle_zero(self, stream):
        assert stream.snapshots[0].cycle == 0

    def test_cycles_strictly_increase(self, stream):
        cycles = [snap.cycle for snap in stream.snapshots]
        assert cycles == sorted(set(cycles))

    def test_nearest_is_latest_at_or_before(self, stream):
        for probe in range(stream.reference_cycles + 2):
            snap = stream.nearest(probe)
            assert snap.cycle <= probe
            later = [s for s in stream.snapshots
                     if snap.cycle < s.cycle <= probe]
            assert not later

    def test_after_is_strictly_later(self, stream):
        pivot = stream.snapshots[1].cycle
        assert all(s.cycle > pivot for s in stream.after(pivot))

    def test_checkpoints_land_on_true_machine_states(self, stream,
                                                     uninterrupted):
        # Replay from the mid-stream checkpoint: identical finish.
        snap = stream.snapshots[len(stream.snapshots) // 2]
        cpu = fresh_cpu()
        cpu.restore(snap)
        result = cpu.run()
        assert observable(cpu, result) == uninterrupted


class TestCheckpointStore:
    @pytest.fixture()
    def parts(self):
        config = epic_config()
        compilation = compile_minic_to_epic(SOURCE, config)
        return config, compilation.program

    def test_round_trip(self, parts, tmp_path):
        config, program = parts
        store = CheckpointStore(str(tmp_path), salt="s1")
        stream = capture_checkpoints(config, program, MEM_WORDS,
                                     interval=16)
        assert store.get(config, program, MEM_WORDS, 16) is None
        store.put(config, program, MEM_WORDS, stream)
        loaded = store.get(config, program, MEM_WORDS, 16)
        assert loaded is not None
        assert loaded.reference_cycles == stream.reference_cycles
        assert len(loaded) == len(stream)
        for ours, theirs in zip(stream.snapshots, loaded.snapshots):
            assert ours == theirs

    def test_interval_is_part_of_the_key(self, parts, tmp_path):
        config, program = parts
        store = CheckpointStore(str(tmp_path), salt="s1")
        stream = capture_checkpoints(config, program, MEM_WORDS,
                                     interval=16)
        store.put(config, program, MEM_WORDS, stream)
        assert store.get(config, program, MEM_WORDS, 32) is None

    def test_salt_mismatch_invalidates(self, parts, tmp_path):
        config, program = parts
        stream = capture_checkpoints(config, program, MEM_WORDS,
                                     interval=16)
        CheckpointStore(str(tmp_path), salt="old").put(
            config, program, MEM_WORDS, stream)
        fresh = CheckpointStore(str(tmp_path), salt="new")
        assert fresh.get(config, program, MEM_WORDS, 16) is None
        assert fresh.stats.invalidations == 1

    @pytest.mark.parametrize("tamper", [
        lambda snap: snap["mem_delta"].update({"-1": 5}),
        lambda snap: snap["mem_delta"].update({str(MEM_WORDS): 5}),
        lambda snap: snap["mem_delta"].update({"07": 5}),
        lambda snap: snap["mem_delta"].update({"3": 1 << 32}),
        lambda snap: snap["mem_delta"].update({"3": -1}),
        lambda snap: snap.pop("gpr"),
        lambda snap: snap["gpr"].__setitem__(5, 1 << 32),
        lambda snap: snap["gpr"].__setitem__(0, 7),
        lambda snap: snap["gpr"].pop(),
        lambda snap: snap["pred"].__setitem__(1, 2),
        lambda snap: snap["stats"].pop("cycles"),
        lambda snap: snap["mem_poison"].append(MEM_WORDS),
        lambda snap: snap.__setitem__("mem_delta", [[3, 5]]),
    ], ids=["negative-address", "address-past-memory", "non-canonical",
            "wide-word", "negative-word", "missing-gprs", "wide-gpr",
            "nonzero-r0", "short-gpr-file", "wide-predicate",
            "missing-stat", "poison-past-memory", "delta-not-a-map"])
    def test_invalid_snapshot_reads_as_corrupt_miss(self, parts, tmp_path,
                                                    tamper):
        # The fast and trace engines take every register and memory
        # word to be in [0, mask]: a stored state that breaks that (or
        # does not fit the machine) must never be restored.
        config, program = parts
        store = CheckpointStore(str(tmp_path), salt="s1")
        stream = capture_checkpoints(config, program, MEM_WORDS,
                                     interval=16)
        store.put(config, program, MEM_WORDS, stream)
        path = store.path_for(store.key(config, program, MEM_WORDS, 16))
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        tamper(record["payload"]["snapshots"][-1])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert store.get(config, program, MEM_WORDS, 16) is None
        assert store.stats.corrupt == 1
        assert store.stats.hits == 0
        assert not os.path.exists(path)
        store.put(config, program, MEM_WORDS, stream)
        assert store.get(config, program, MEM_WORDS, 16) is not None

    def test_restored_from_disk_resumes_identically(self, parts, tmp_path,
                                                    uninterrupted):
        config, program = parts
        store = CheckpointStore(str(tmp_path), salt="s1")
        store.put(config, program, MEM_WORDS,
                  capture_checkpoints(config, program, MEM_WORDS,
                                      interval=16))
        loaded = store.get(config, program, MEM_WORDS, 16)
        snap = loaded.snapshots[-1]
        cpu = fresh_cpu()
        cpu.restore(snap)
        result = cpu.run()
        assert observable(cpu, result) == uninterrupted


class CheckpointKeys:
    """Record ``n`` is an empty stream of ``n`` reference cycles, keyed
    by interval ``n + 1`` on a one-bundle program."""

    config = epic_config()
    program = assemble("HALT", config)

    def open(self, root, salt):
        return CheckpointStore(root, salt=salt)

    def put(self, store, n, reference_cycles=None):
        store.put(self.config, self.program, MEM_WORDS, CheckpointStream(
            interval=n + 1, snapshots=[],
            reference_cycles=n if reference_cycles is None
            else reference_cycles))

    def get(self, store, n):
        stream = store.get(self.config, self.program, MEM_WORDS, n + 1)
        return None if stream is None else stream.reference_cycles

    def key(self, store, n):
        return store.key(self.config, self.program, MEM_WORDS, n + 1)

    def put_unserialisable(self, store, n):
        self.put(store, n, reference_cycles=object())


class TestCheckpointStoreRecords(CheckpointKeys,
                                 store_contract.RecordContract):
    pass


class TestProgramDigest:
    def test_stable_across_recompiles(self):
        config = epic_config()
        first = compile_minic_to_epic(SOURCE, config).program
        second = compile_minic_to_epic(SOURCE, config).program
        assert program_digest(config, first) == \
            program_digest(config, second)

    def test_different_machines_differ(self):
        one = epic_with_alus(1)
        four = epic_with_alus(4)
        assert program_digest(one, compile_minic_to_epic(SOURCE,
                                                         one).program) != \
            program_digest(four, compile_minic_to_epic(SOURCE,
                                                       four).program)

    def test_schema_version_is_positive(self):
        assert CHECKPOINT_SCHEMA_VERSION >= 1


def test_snapshot_dataclass_equality():
    cpu = fresh_cpu()
    assert CoreSnapshot.capture(cpu) == CoreSnapshot.capture(cpu)
