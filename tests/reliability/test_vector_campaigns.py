"""Differential proof for the batched vector campaign engine.

The acceptance property of ``LockstepChecker.run_batch``: for every
workload, machine width and fault space, the outcome table produced by
the lane-major vector walk — with convergence cuts, in-lane fetch
absorption and scalar retirement — is byte-identical to a pure-scalar
campaign: same outcome, same detail string, same cycle count, same
trap cause.  Every lane the engine refuses to classify must retire to
``run_one`` with a recorded reason.
"""

import json

import pytest

from repro.config import epic_with_alus
from repro.core import EpicProcessor, vector
from repro.core import decode as dec
from repro.errors import SimulationError
from repro.harness.cli import quick_specs
from repro.harness.faultcampaign import (
    campaign_payload,
    generate_faults,
    measure_speedup,
    result_payload,
    run_campaign,
)
from repro.isa.encoding import InstructionFormat
from repro.mdes import Mdes
from repro.reliability import (
    FAULT_SPACES,
    FaultInjector,
    FaultSpec,
    LockstepChecker,
    MODEL_STUCK0,
    MODEL_STUCK1,
    Outcome,
    SPACE_BTR,
    SPACE_GPR,
    SPACE_IFETCH,
    SPACE_MEM,
)
from repro.reliability.fault import corrupt_fetched_word
from repro.workloads import WorkloadSpec
from tests.reliability.test_lockstep import tiny_spec

#: Trap policies rotate across the grid cells so every workload and
#: every ALU width exercises each policy somewhere without tripling
#: the grid's runtime.
POLICIES = ("halt", "squash-bundle", "record-and-continue")

GRID = [(name, n_alus, POLICIES[(w * 4 + n_alus - 1) % len(POLICIES)])
        for w, name in enumerate(("SHA", "AES", "DCT", "Dijkstra"))
        for n_alus in (1, 2, 3, 4)]

#: Fills ``buf`` and then loads every word back: a flip in ``buf``
#: before the first loop is overwritten before the program reads it.
STORE_THEN_LOAD_SOURCE = """
int buf[16];
int main() {
  int i; int acc;
  for (i = 0; i < 16; i += 1) {
    buf[i] = i * 3;
  }
  acc = 0;
  for (i = 0; i < 16; i += 1) {
    acc = acc + buf[i];
  }
  return acc;
}
"""

KNOWN_REASONS = {
    vector.RETIRE_GUARD, vector.RETIRE_BRANCH, vector.RETIRE_TRAP,
    vector.RETIRE_IFETCH, vector.RETIRE_PARITY, vector.RETIRE_BOUNDS,
    vector.RETIRE_ENGINE,
}


@pytest.fixture(scope="module")
def checker():
    """One checkpointed tiny-workload checker shared by the fast tests."""
    checker = LockstepChecker(tiny_spec(), epic_with_alus(2))
    checker.prepare_checkpoints()
    return checker


@pytest.fixture(scope="module")
def squash_checker():
    """Same tiny workload under the squash-bundle trap policy."""
    checker = LockstepChecker(
        tiny_spec(), epic_with_alus(2, trap_policy="squash-bundle"))
    checker.prepare_checkpoints()
    return checker


def _payloads(results):
    return [result_payload(result) for result in results]


def _negative_pbr_faults(checker):
    """Fetch faults that flip a ``PBR`` literal negative in place, each
    timed at its bundle's first fetch."""
    config = checker.config
    program = checker.compilation.program
    mdes = Mdes(config)
    fmt = InstructionFormat(config, mdes.table)
    first_fetch = {}
    cpu = EpicProcessor(config, program, mem_words=checker.spec.mem_words)
    cpu.run(engine="reference",
            trace=lambda cycle, pc, bundle: first_fetch.setdefault(pc,
                                                                   cycle))
    faults = []
    for pc, cycle in sorted(first_fetch.items()):
        for slot, op in enumerate(cpu._bundles[pc].ops):
            if op.kind != dec.K_PBR:
                continue
            for bit in range(fmt.instruction_bits):
                corrupted = corrupt_fetched_word(
                    fmt, mdes, program, config.issue_width, pc, slot,
                    bit)[0]
                if corrupted is None:
                    continue
                flipped = corrupted.ops[slot]
                if (flipped.kind == dec.K_PBR and flipped.d1 == op.d1
                        and flipped.s1 < 0):
                    faults.append(FaultSpec(SPACE_IFETCH, slot, bit, cycle))
    return faults


class TestWorkloadMachineGrid:
    """Serial, checkpointed and vector: all three tables byte-equal."""

    @pytest.mark.parametrize("name,n_alus,policy", GRID,
                             ids=[f"{n}-{a}alu-{p}" for n, a, p in GRID])
    def test_three_way_byte_identical(self, name, n_alus, policy):
        spec = quick_specs([name])[0]
        config = epic_with_alus(n_alus, trap_policy=policy)
        checker = LockstepChecker(spec, config, checkpoints=False)
        serial = run_campaign(spec, config, 4, 11, checker=checker,
                              checkpoints=False)
        checkpointed = run_campaign(spec, config, 4, 11, checker=checker,
                                    checkpoints=True)
        vectored = run_campaign(spec, config, 4, 11, checker=checker,
                                checkpoints=True, engine="vector")
        left = json.dumps(campaign_payload([serial]), sort_keys=True)
        middle = json.dumps(campaign_payload([checkpointed]),
                            sort_keys=True)
        right = json.dumps(campaign_payload([vectored]), sort_keys=True)
        assert left == middle == right
        assert vectored.timing["engine"] == "vector"
        # Non-halt policies are first-class vector configs now, never
        # a silent downgrade to the scalar path.
        assert vectored.timing["engine_downgrade_reason"] is None


class TestPerSpaceDifferential:
    """Each fault space alone, scalar vs vector, on the tiny workload."""

    @pytest.mark.parametrize("space", sorted(FAULT_SPACES))
    def test_single_space_byte_identical(self, checker, space):
        faults = generate_faults(checker, 24, 9, spaces=(space,))
        scalar = [checker.run_one(fault) for fault in faults]
        results, stats = checker.run_batch(faults)
        assert _payloads(results) == _payloads(scalar)
        assert stats["vector_faults"] == len(faults)

    def test_mixed_campaign_byte_identical(self, checker):
        faults = generate_faults(checker, 48, 13)
        scalar = [checker.run_one(fault) for fault in faults]
        results, stats = checker.run_batch(faults)
        assert _payloads(results) == _payloads(scalar)
        # Every fault got exactly one classification, vector or scalar.
        assert stats["scalar_faults"] == sum(stats["retired"].values())
        assert all(result is not None for result in results)


class TestDivergentLanes:
    """Inputs that stress the memory plane and the per-lane op path."""

    HOT_REGISTER_FAULTS = [FaultSpec(SPACE_GPR, 14, 8 + bit, 0,
                                     model=MODEL_STUCK1)
                           for bit in range(20)]

    def test_hot_register_stuck_at_vs_scalar(self, checker):
        # Stuck-at faults on one hot data register keep every lane
        # divergent there, so each ALU/CMP op walks many divergent rows.
        scalar = [checker.run_one(fault)
                  for fault in self.HOT_REGISTER_FAULTS]
        results, stats = checker.run_batch(self.HOT_REGISTER_FAULTS)
        assert _payloads(results) == _payloads(scalar)
        assert stats["vector_faults"] == len(self.HOT_REGISTER_FAULTS)

    def test_mem_lanes_vs_scalar(self, checker):
        # Memory-fault lanes track golden stores through their plane rows.
        faults = generate_faults(checker, 16, 9, spaces=(SPACE_MEM,))
        scalar = [checker.run_one(fault) for fault in faults]
        results, stats = checker.run_batch(faults)
        assert _payloads(results) == _payloads(scalar)


class TestTrapPolicyVector:
    """Non-halt trap policies ride the vector instead of downgrading."""

    @pytest.mark.parametrize("space", sorted(FAULT_SPACES))
    def test_squash_bundle_per_space(self, squash_checker, space):
        faults = generate_faults(squash_checker, 24, 9, spaces=(space,))
        scalar = [squash_checker.run_one(fault) for fault in faults]
        results, stats = squash_checker.run_batch(faults)
        assert _payloads(results) == _payloads(scalar)
        assert stats["engine_downgrade_reason"] is None
        assert stats["vector_faults"] == len(faults)

    def test_record_and_continue_mixed(self):
        checker = LockstepChecker(
            tiny_spec(),
            epic_with_alus(2, trap_policy="record-and-continue"))
        checker.prepare_checkpoints()
        faults = generate_faults(checker, 32, 13)
        scalar = [checker.run_one(fault) for fault in faults]
        results, stats = checker.run_batch(faults)
        assert _payloads(results) == _payloads(scalar)
        assert stats["engine_downgrade_reason"] is None

    @pytest.mark.parametrize("policy",
                             ("squash-bundle", "record-and-continue"))
    def test_oob_store_trap_lane_retires(self, policy):
        # The flipped base register sends a store out of bounds: under
        # every trap policy the lane retires as RETIRE_TRAP, and the
        # scalar rerun records the trap and classifies it DETECTED.
        checker = LockstepChecker(tiny_spec(),
                                  epic_with_alus(2, trap_policy=policy))
        fault = FaultSpec(SPACE_GPR, 12, 20, 8)
        results, stats = checker.run_batch([fault])
        assert stats["retired"] == {vector.RETIRE_TRAP: 1}
        assert results[0].outcome is Outcome.DETECTED
        assert results[0].trap_cause == "oob-store"
        assert result_payload(results[0]) == \
            result_payload(checker.run_one(fault))


class TestLaneRetirement:
    """Lanes the vector walk cannot hold retire to the scalar checker."""

    @pytest.mark.parametrize("copies", (1, 2))
    def test_ifetch_rewrites_rewalk(self, checker, copies):
        # A duplicated fault list rides the same pass twice over.
        faults = generate_faults(checker, 16, 9, spaces=("ifetch",)) \
            * copies
        scalar = [checker.run_one(fault) for fault in faults]
        results, stats = checker.run_batch(faults)
        # Rewritten bundles that cannot be absorbed in-lane break
        # lane-invariant timing, but they do not count as retirements:
        # each becomes a RewalkTicket and is re-walked on the scalar
        # checker.
        assert stats["rewalk_lanes"] > 0
        assert stats["retired"].get(vector.RETIRE_IFETCH, 0) == 0
        assert stats["scalar_faults"] == sum(stats["retired"].values())
        assert _payloads(results) == _payloads(scalar)

    def test_negative_branch_target_fetch_is_not_absorbed(self, checker):
        # A flipped PBR literal can turn its target negative without
        # changing the bundle's timing shape; the scalar machine then
        # machine-checks when the target lands in the BTR, even if no
        # branch ever reads it.  Found by the generated-program vector
        # differential: the walk absorbed such a fetch and classified
        # the lane MASKED.
        faults = _negative_pbr_faults(checker)
        assert faults
        results, stats = checker.run_batch(faults)
        assert stats["absorbed_lanes"] == 0
        assert stats["rewalk_lanes"] == len(faults)
        assert _payloads(results) == \
            _payloads([checker.run_one(fault) for fault in faults])
        assert all(result.detail.startswith(
            "machine check: negative branch target") for result in results)

    def test_negative_branch_target_machine_check_has_its_cycle(
            self, checker):
        # The machine check fires in the write-back drain when the
        # negative target lands, after the corrupted fetch: the error
        # carries that cycle, the machine's stats stop there, and
        # run_one reports it instead of 0.
        faults = _negative_pbr_faults(checker)
        cpu = EpicProcessor(checker.config, checker.compilation.program,
                            mem_words=checker.spec.mem_words,
                            injector=FaultInjector([faults[0]]))
        with pytest.raises(SimulationError) as error:
            cpu.run()
        assert error.value.cycle > faults[0].cycle
        assert cpu.stats.cycles == error.value.cycle
        scalar = [checker.run_one(fault) for fault in faults]
        assert all(result.cycles > fault.cycle
                   for fault, result in zip(faults, scalar))
        results, _ = checker.run_batch(faults)
        assert _payloads(results) == _payloads(scalar)

    def test_trap_risk_lane_retires_mid_vector(self, checker):
        # A flipped base register sends a store out of bounds: the lane
        # must leave the vector (a trap cannot be recorded there) and
        # the scalar rerun classifies the trap exactly.
        fault = FaultSpec(SPACE_GPR, 12, 20, 8)
        results, stats = checker.run_batch([fault])
        assert stats["retired"] == {vector.RETIRE_TRAP: 1}
        assert stats["scalar_faults"] == 1
        assert results[0].outcome is Outcome.DETECTED
        assert results[0].trap_cause == "oob-store"
        assert result_payload(results[0]) == \
            result_payload(checker.run_one(fault))

    def test_hanging_lane_retires_on_branch_divergence(self, checker):
        # A stuck BTR bit derails the control flow into a hang: the
        # divergence is caught at the branch, the lane retires, and the
        # scalar watchdog classifies HUNG.
        fault = FaultSpec(SPACE_BTR, 0, 2, 78, model=MODEL_STUCK0)
        results, stats = checker.run_batch([fault])
        assert stats["retired"] == {vector.RETIRE_BRANCH: 1}
        assert results[0].outcome is Outcome.HUNG
        assert result_payload(results[0]) == \
            result_payload(checker.run_one(fault))

    def test_retirement_reasons_are_known(self, checker):
        reasons = set()
        for seed in (2, 13, 77):
            _, stats = checker.run_batch(generate_faults(checker, 48,
                                                         seed))
            reasons |= set(stats["retired"])
        assert reasons
        assert reasons <= KNOWN_REASONS

    def test_stuck_lane_rides_the_vector_to_halt(self, checker):
        # A persistent stuck-at-0 on r2 corrupts data but never the
        # control flow, so the lane stays in the vector all the way to
        # the halt and classifies as SDC there.
        fault = FaultSpec(SPACE_GPR, 2, 0, 5, model=MODEL_STUCK0)
        results, stats = checker.run_batch([fault])
        assert stats["scalar_faults"] == 0
        assert results[0].outcome is Outcome.SDC
        assert result_payload(results[0]) == \
            result_payload(checker.run_one(fault))

    def test_r0_flip_is_instantly_classified(self, checker):
        # The hardwired zero register cannot propagate: the engine
        # classifies the fault without walking a single cycle.
        results, stats = checker.run_batch([FaultSpec(SPACE_GPR, 0, 1,
                                                      2)])
        assert stats["iterations"] == 0
        assert stats["scalar_faults"] == 0
        assert results[0].outcome is Outcome.MASKED
        assert results[0].detail == "outputs match"
        assert results[0].cycles == checker.reference_cycles

    def test_overwritten_mem_flip_is_cut_mid_walk(self, checker):
        # Word 13 sits in the ``out`` array: the flipped bit is
        # overwritten by the program's own store, the lane's memory row
        # matches the golden row again, and the lane is cut MASKED long
        # before the halt.
        results, stats = checker.run_batch([FaultSpec(SPACE_MEM, 13, 5,
                                                      60)])
        assert stats["cuts"] >= 1
        assert stats["scalar_faults"] == 0
        assert results[0].outcome is Outcome.MASKED
        assert results[0].detail == "outputs match"
        assert results[0].cycles == checker.reference_cycles

    def test_mem_flip_overwritten_before_read_back_is_cut(self):
        # The lane's registers never diverge; the program's own store
        # makes its memory row golden again before the word is loaded,
        # so a convergence cut classifies the lane mid-walk.
        spec = WorkloadSpec(
            name="store-then-load", source=STORE_THEN_LOAD_SOURCE,
            expected={"buf": [3 * i for i in range(16)]},
            expected_return=360, mem_words=1 << 12)
        checker = LockstepChecker(spec, epic_with_alus(2))
        fault = FaultSpec(SPACE_MEM, checker.compilation.symbols["buf"] + 5,
                          4, 0)
        results, stats = checker.run_batch([fault])
        assert stats["cuts"] >= 1
        assert stats["scalar_faults"] == 0
        assert result_payload(results[0]) == \
            result_payload(checker.run_one(fault))

    def test_untouched_mem_word_masks_at_halt(self, checker):
        # A flip in a data word the program never touches leaves the
        # lane's registers golden and one memory word dirty: it is never
        # cut and classifies by the output diff at the halt.
        fault = FaultSpec(SPACE_MEM, 3000, 5, 10)
        results, stats = checker.run_batch([fault])
        assert stats["scalar_faults"] == 0
        assert stats["cuts"] == 0
        assert result_payload(results[0]) == \
            result_payload(checker.run_one(fault))

    def test_lane_cap_zero_disables_the_vector(self, checker):
        faults = generate_faults(checker, 6, 3)
        results, stats = checker.run_batch(faults, lane_cap=0)
        assert stats["vector_faults"] == 0
        assert stats["scalar_faults"] == len(faults)
        assert stats["engine_downgrade_reason"] == "lane-cap-disabled"
        assert _payloads(results) == \
            _payloads([checker.run_one(fault) for fault in faults])

    def test_eligible_batch_records_no_downgrade(self, checker):
        _results, stats = checker.run_batch(generate_faults(checker, 4,
                                                            3))
        assert stats["engine_downgrade_reason"] is None


class TestThroughputHarness:
    def test_measure_speedup_vector_shape(self):
        report, timing = measure_speedup(
            "vector", tiny_spec(), epic_with_alus(2), n=8, seed=5,
            repeat=2)
        assert report.classified == 8
        assert timing["baseline"]["engine"] == "auto"
        assert timing["engine"] == "vector"
        assert timing["speedup"] > 0
        assert timing["vector_faults"] == 8

    def test_measure_speedup_checkpoint_shape(self):
        report, timing = measure_speedup(
            "checkpoint", tiny_spec(), epic_with_alus(2), n=8, seed=5)
        assert report.classified == 8
        assert timing["baseline"]["checkpointed"] is False
        assert timing["checkpointed"] is True
        assert timing["engine"] == timing["baseline"]["engine"] == "auto"
        assert timing["speedup"] > 0

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError, match="repeat"):
            measure_speedup("vector", tiny_spec(), epic_with_alus(2),
                            n=4, seed=5, repeat=0)


class TestCampaignTelemetry:
    """The occupancy split and re-walk counters reach the report."""

    def test_occupancy_excludes_wasted_and_rewalk_counts_surface(self):
        spec = tiny_spec()
        config = epic_with_alus(2)
        checker = LockstepChecker(spec, config)
        checker.prepare_checkpoints()
        _results, stats = checker.run_batch(generate_faults(checker, 48,
                                                            13))
        report = run_campaign(spec, config, 48, 13, checker=checker,
                              engine="vector")
        timing = report.timing
        capacity = stats["lane_capacity"]
        assert timing["vector_occupancy"] == pytest.approx(
            (stats["lane_cycles"] - stats["wasted_lane_cycles"])
            / capacity)
        assert timing["wasted_retired_cycles"] == pytest.approx(
            stats["wasted_lane_cycles"] / capacity)
        # Occupancy + waste is exactly the old (overstated) number.
        assert (timing["vector_occupancy"]
                + timing["wasted_retired_cycles"]) == pytest.approx(
            stats["lane_cycles"] / capacity)
        assert timing["rewalk_lanes"] == stats["rewalk_lanes"]
        assert timing["rewalk_lane_cycles"] == stats["rewalk_lane_cycles"]
        assert timing["engine_downgrade_reason"] is None

    def test_sharded_meta_carries_the_split(self):
        from repro.serve import SerialExecutor
        from repro.serve.jobspec import campaign_job
        from repro.serve.worker import execute_spec

        spec = quick_specs(["SHA"])[0]
        config = epic_with_alus(2)
        serial = run_campaign(spec, config, 16, 13,
                              engine="vector").timing
        sharded = run_campaign(spec, config, 16, 13,
                               executor=SerialExecutor(), shards=3,
                               engine="vector").timing
        # One record schema, whether one record or three were merged.
        assert set(sharded) == set(serial)
        for key in ("vector_occupancy", "wasted_retired_cycles",
                    "rewalk_lanes", "rewalk_lane_cycles",
                    "engine_downgrade_reason"):
            assert key in sharded
        assert sharded["engine_downgrade_reason"] is None
        # Counters that do not depend on how the faults were split.
        for key in ("engine", "faults_run", "checkpointed",
                    "vector_faults", "scalar_faults", "classified",
                    "rewalk_lanes", "rewalk_lane_cycles", "retired",
                    "engine_downgrade_reason"):
            assert sharded[key] == serial[key], key
        assert serial["faults_run"] == 16
        # A worker's meta is its record plus the checker-memo keys.
        _payload, meta = execute_spec(
            campaign_job(spec, config, 16, 13, engine="vector"))
        derived = {"vector_occupancy", "wasted_retired_cycles"}
        assert set(serial) - derived <= set(meta)
        assert set(meta) - set(serial) == {"checker_memo_hit",
                                           "checker_memo"}
