"""Fault injector unit behaviour: models, protection, determinism."""

import gc
import weakref

import pytest

from repro.asm import assemble
from repro.config import epic_config
from repro.core import EpicProcessor
from repro.errors import SimulationError, TrapError, TRAP_PARITY
from repro.isa.encoding import InstructionFormat
from repro.reliability import (
    FaultInjector,
    FaultSpec,
    MODEL_SEU,
    MODEL_STUCK0,
    MODEL_STUCK1,
    SPACE_GPR,
    SPACE_IFETCH,
    SPACE_MEM,
    SPACE_PRED,
)
from repro.reliability.fault import corrupt_fetched_word


def build(source, faults=(), mem_words=64, **overrides):
    config = epic_config(**overrides)
    return EpicProcessor(config, assemble(source, config),
                         mem_words=mem_words,
                         injector=FaultInjector(faults))


class TestValidation:
    def test_unknown_space_rejected(self):
        with pytest.raises(SimulationError):
            FaultInjector([FaultSpec("flux", 0, 0, 0)])

    def test_unknown_model_rejected(self):
        with pytest.raises(SimulationError):
            FaultInjector([FaultSpec(SPACE_GPR, 1, 0, 0, model="glitch")])

    def test_negative_fields_rejected(self):
        with pytest.raises(SimulationError):
            FaultInjector([FaultSpec(SPACE_GPR, 1, -1, 0)])

    def test_out_of_range_target_rejected_at_attach(self):
        with pytest.raises(SimulationError):
            build("HALT", [FaultSpec(SPACE_GPR, 10_000, 0, 0)])

    def test_injector_is_single_use(self):
        injector = FaultInjector([])
        config = epic_config()
        program = assemble("HALT", config)
        EpicProcessor(config, program, mem_words=64, injector=injector)
        with pytest.raises(SimulationError):
            EpicProcessor(config, program, mem_words=64, injector=injector)


class TestStateFaults:
    def test_seu_flips_a_memory_bit(self):
        cpu = build("HALT", [FaultSpec(SPACE_MEM, 3, 4, 0)])
        cpu.run(max_cycles=10)
        assert cpu.memory.peek(3) == 1 << 4
        assert cpu.injector.log[0].disposition == "flipped"

    def test_seu_flips_a_gpr_bit(self):
        source = """
          NOP
          NOP
          HALT
        """
        cpu = build(source, [FaultSpec(SPACE_GPR, 4, 7, 1)])
        cpu.run(max_cycles=10)
        assert cpu.gpr.peek(4) == 1 << 7

    def test_hardwired_registers_have_no_storage(self):
        cpu = build("HALT", [FaultSpec(SPACE_GPR, 0, 3, 0),
                             FaultSpec(SPACE_PRED, 0, 0, 0)])
        cpu.run(max_cycles=10)
        assert cpu.gpr.peek(0) == 0
        assert cpu.pred.peek(0) == 1
        assert [e.disposition for e in cpu.injector.log] == \
            ["no-storage", "no-storage"]

    def test_stuck_at_zero_defeats_a_later_write(self):
        source = """
        .data
        buf: .space 4
        .text
          MOVI r4, 5
          NOP
          SW r4, r0, buf
          NOP
          NOP
          HALT
        """
        cpu = build(source, [FaultSpec(SPACE_MEM, 0, 0, 0,
                                       model=MODEL_STUCK0)])
        cpu.run(max_cycles=20)
        # The store wrote 5, but bit 0 is stuck at 0 -> 4 remains.
        assert cpu.memory.peek(0) == 4

    def test_stuck_at_one_sets_bit(self):
        cpu = build("HALT", [FaultSpec(SPACE_MEM, 2, 1, 0,
                                       model=MODEL_STUCK1)])
        cpu.run(max_cycles=10)
        assert cpu.memory.peek(2) == 2
        assert cpu.injector.log[0].disposition == "forced"


class TestProtection:
    def test_ecc_corrects_the_fault(self):
        cpu = build("HALT", [FaultSpec(SPACE_MEM, 3, 4, 0)],
                    memory_protection="ecc")
        cpu.run(max_cycles=10)
        assert cpu.memory.peek(3) == 0
        assert cpu.injector.log[0].disposition == "corrected"

    def test_parity_poisons_and_traps_on_read(self):
        source = """
        .data
        v: .word 9
        .text
          NOP
          NOP
          LW r4, r0, v
          HALT
        """
        cpu = build(source, [FaultSpec(SPACE_MEM, 0, 2, 0)],
                    memory_protection="parity")
        with pytest.raises(TrapError) as info:
            cpu.run(max_cycles=20)
        assert info.value.cause == TRAP_PARITY
        assert cpu.injector.log[0].disposition == "flipped+poisoned"

    def test_parity_unread_word_never_traps(self):
        cpu = build("HALT", [FaultSpec(SPACE_MEM, 3, 4, 0)],
                    memory_protection="parity")
        result = cpu.run(max_cycles=10)
        assert result.halted and result.traps == []

    def test_write_repairs_parity_poison(self):
        source = """
        .data
        v: .word 9
        .text
          MOVI r4, 6
          NOP
          SW r4, r0, v
          NOP
          LW r5, r0, v
          HALT
        """
        cpu = build(source, [FaultSpec(SPACE_MEM, 0, 2, 0)],
                    memory_protection="parity")
        result = cpu.run(max_cycles=20)
        assert result.halted
        assert cpu.gpr.read(5) == 6


COUNTDOWN = """
  MOVI r4, 20
  NOP
loop:
  PBR b0, loop
  SUB r4, r4, 1
  CMPP_EQ p1, p2, r4, 0
  NOP
  (p2) BR b0
  HALT
"""


class TestZeroCostWhenIdle:
    def test_empty_fault_list_is_cycle_identical(self):
        config = epic_config()
        program = assemble(COUNTDOWN, config)
        plain = EpicProcessor(config, program, mem_words=64)
        baseline = plain.run(max_cycles=10_000)
        injected = EpicProcessor(config, program, mem_words=64,
                                 injector=FaultInjector([]))
        shadowed = injected.run(max_cycles=10_000)
        assert shadowed.cycles == baseline.cycles
        assert injected.gpr.peek(4) == plain.gpr.peek(4)
        assert injected.injector.log == []


class TestFetchFaults:
    def test_ifetch_fault_logs_and_classifies(self):
        # Whatever the flipped bit turns the op into, the injector must
        # log the corruption and the machine must either trap or halt.
        config = epic_config()
        for bit in (0, 7, 21, 40):
            program = assemble(COUNTDOWN, config)
            injector = FaultInjector(
                [FaultSpec(SPACE_IFETCH, 0, bit, 2)])
            cpu = EpicProcessor(config, program, mem_words=64,
                                injector=injector)
            try:
                cpu.run(max_cycles=10_000)
            except SimulationError:
                pass
            assert len(injector.log) == 1
            assert injector.log[0].disposition in (
                "fetch-corrupted", "fetch-illegal")

    def test_ifetch_fault_is_deterministic(self):
        config = epic_config()
        outcomes = []
        for _ in range(2):
            program = assemble(COUNTDOWN, config)
            injector = FaultInjector([FaultSpec(SPACE_IFETCH, 0, 13, 2)])
            cpu = EpicProcessor(config, program, mem_words=64,
                                injector=injector)
            try:
                result = cpu.run(max_cycles=10_000)
                outcomes.append(("ran", result.cycles, cpu.gpr.peek(4)))
            except SimulationError as error:
                outcomes.append(("error", type(error).__name__, str(error)))
        assert outcomes[0] == outcomes[1]

    def test_undecodable_fetch_keeps_no_caller_frame_alive(self):
        # A decode error with its traceback would keep the caller's
        # frame (a vector walk's lane-memory plane, for one) alive until
        # the cyclic collector runs; only the message comes back.
        config = epic_config()
        program = assemble(COUNTDOWN, config)
        cpu = EpicProcessor(config, program, mem_words=64)
        fmt = InstructionFormat(config, cpu.mdes.table)

        class Marker:
            pass

        def caller(bit):
            marker = Marker()
            return weakref.ref(marker), corrupt_fetched_word(
                fmt, cpu.mdes, program, config.issue_width, 0, 0, bit)

        gc.disable()
        try:
            undecodable = 0
            for bit in range(fmt.instruction_bits):
                alive, (bundle, _, _, error) = caller(bit)
                if bundle is None:
                    undecodable += 1
                    assert isinstance(error, str) and error
                    assert alive() is None
        finally:
            gc.enable()
        assert undecodable
