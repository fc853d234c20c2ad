"""Differential tests for the pre-specialised fast execution path.

The fast path (:mod:`repro.core.fastpath`) is an optimisation, never a
semantic fork: for every program it accepts it must produce
bit-identical cycle counts, statistics and architectural state to the
instrumented reference loop, whose outputs are in turn validated
against each workload's golden reference values.
"""

import gc
import re
import weakref

import pytest

from repro.asm import assemble
from repro.backend import compile_minic_to_epic
from repro.config import epic_config, epic_with_alus
from repro.core import EpicProcessor, fastpath
from repro.core.trace import Tracer
from repro.errors import (
    SimulationError,
    TrapError,
    TRAP_OOB_STORE,
    TRAP_PARITY,
)
from repro.perf.bench import stats_fingerprint
from repro.reliability import FaultInjector
from repro.workloads import (
    aes_workload,
    dct_workload,
    dijkstra_workload,
    sha_workload,
)

SMALL_WORKLOADS = {
    "SHA": lambda: sha_workload(8, 8),
    "AES": lambda: aes_workload(2),
    "DCT": lambda: dct_workload(8, 8),
    "Dijkstra": lambda: dijkstra_workload(8),
}


def architectural_state(cpu):
    return (
        cpu.gpr.dump(),
        cpu.pred.dump(),
        cpu.btr.dump(),
        cpu.memory.read_block(0, len(cpu.memory)),
    )


def run_both(config, program, mem_words):
    """Run the same program on both engines; returns the two machines."""
    slow = EpicProcessor(config, program, mem_words=mem_words)
    slow_result = slow.run(engine="reference")
    fast = EpicProcessor(config, program, mem_words=mem_words)
    fast_result = fast.run(engine="fast")
    assert slow_result.cycles == fast_result.cycles
    assert stats_fingerprint(slow.stats) == stats_fingerprint(fast.stats)
    assert architectural_state(slow) == architectural_state(fast)
    return slow, fast


class TestDifferentialWorkloads:
    """Fast vs instrumented vs golden reference, all four workloads."""

    @pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
    def test_bit_identical_across_alu_presets(self, name):
        spec = SMALL_WORKLOADS[name]()
        for n_alus in (1, 2, 3, 4):
            config = epic_with_alus(n_alus)
            compilation = compile_minic_to_epic(spec.source, config)
            slow, fast = run_both(config, compilation.program,
                                  spec.mem_words)
            # Both engines must also agree with the golden reference
            # (computed by the IR-level model, independent of the core).
            for cpu in (slow, fast):
                for global_name, expected in spec.expected.items():
                    base = compilation.symbols[global_name]
                    got = [cpu.memory.read(base + i)
                           for i in range(len(expected))]
                    assert got == expected, (name, n_alus, global_name)
                if spec.expected_return is not None:
                    assert (cpu.gpr.read(2) & 0xFFFFFFFF) == \
                        spec.expected_return


FORWARDING_HEAVY = """
main:
  MOVI r4, 100
  MOVI r5, 3
  ADD r6, r4, r5
  ADD r7, r6, r6
  SUB r8, r7, r4
  CMPP_LT p1, p2, r8, r4
  (p1) ADD r9, r8, 1
  (p2) ADD r9, r8, 2
  SW r9, r0, 20
  HALT
"""


#: One op per bundle (``_b{pc}``): static and dynamic memory accesses,
#: a signed compare and shift, and a guarded op reading r0.
CODEGEN_SHAPES = """
main:
  MOVI r4, 7
  LW r5, r0, 20
  SW r4, r0, 21
  LW r6, r4, 3
  SW r5, r4, 9
  { CMPP_LT p1, p2, r4, r5 ; SHRA r7, r4, 1 }
  (p1) ADD r8, r0, r4
  HALT
"""


#: Bundles whose ops all write back one cycle after issue, guarded and
#: unguarded, in both orders (4 ALUs).
SAME_LATENCY_WRITES = """
main:
  MOVI r4, 7
  CMPP_EQ p1, p2, r4, 7
  { ADD r5, r4, 1 ; ADD r6, r4, 2 ; (p1) ADD r7, r4, 3 ; (p2) ADD r8, r4, 4 }
  { (p1) ADD r9, r4, 5 ; ADD r10, r4, 6 ; ADD r11, r4, 7 }
  SW r7, r0, 30
  SW r8, r0, 31
  SW r9, r0, 32
  HALT
"""


def generated_bundles(config, mem_words, source=CODEGEN_SHAPES):
    """The fast engine's generated source, by bundle function name."""
    cpu = EpicProcessor(config, assemble(source, config),
                        mem_words=mem_words)
    source = fastpath._generated_code(cpu).source
    return {chunk.split("(", 1)[0][len("def "):]: chunk
            for chunk in re.split(r"\n(?=def )", source)}


class TestGeneratedCode:
    """The generator emits code only for what is unknown at generation
    time; these pin each fold so a refactor cannot silently drop one."""

    def test_r0_reads_as_literal_zero(self):
        bundles = generated_bundles(epic_config(), 64)
        assert not any("G[0]" in code for code in bundles.values())
        assert "(0 + G[4])" in bundles["_b6"]

    def test_static_in_range_access_has_no_bounds_test(self):
        bundles = generated_bundles(epic_config(), 64)
        load, store = bundles["_b1"], bundles["_b2"]
        assert "MEM[20]" in load
        assert "_a" not in load and "MR" not in load
        assert "_sa = 21" in store
        assert "if" not in store and "MC" not in store

    def test_dynamic_access_is_one_compare(self):
        bundles = generated_bundles(epic_config(), 64)
        sign = "^ 2147483648) - 2147483648)"
        assert "if _a < 64:" in bundles["_b3"]
        assert f"MR(((_a {sign})" in bundles["_b3"]
        assert "if _sa >= 64:" in bundles["_b4"]
        assert f"MC(((_sa {sign})" in bundles["_b4"]

    def test_sign_fix_up_kept_where_memory_outgrows_the_sign_bit(self):
        # 8-bit addresses reach only words 0-127 of a 256-word memory:
        # the one compare is against the sign bit, and the trap branch
        # still signs the address.
        config = epic_config(datapath_width=8)
        bundles = generated_bundles(config, 256)
        assert "if _a < 128:" in bundles["_b3"]
        assert "MR(((_a ^ 128) - 128))" in bundles["_b3"]
        assert "if _sa >= 128:" in bundles["_b4"]
        assert "MC(((_sa ^ 128) - 128))" in bundles["_b4"]
        run_both(config, assemble(CODEGEN_SHAPES, config), 256)

    def test_signed_reads_are_branch_free(self):
        compare_and_shift = generated_bundles(epic_config(), 64)["_b5"]
        assert "((G[4] ^ 2147483648) - 2147483648) < " in compare_and_shift
        assert "(((G[4] ^ 2147483648) - 2147483648) >> 1)" \
            in compare_and_shift
        assert ">= 2147483648" not in compare_and_shift

    def test_guarded_op_bumps_one_site_counter(self):
        guarded = generated_bundles(epic_config(), 64)["_b6"]
        assert "GC[0] += 1" in guarded
        assert not re.search(r"\bC\[[01]\]", guarded)  # exec, squash
        assert "else" not in guarded

    def test_shapes_program_matches_instrumented(self):
        config = epic_config()
        run_both(config, assemble(CODEGEN_SHAPES, config), 64)

    def test_one_queue_lookup_per_bundle_and_latency(self):
        config = epic_with_alus(4)
        bundles = generated_bundles(config, 64, SAME_LATENCY_WRITES)
        # Unguarded first: its lookup serves all four writes.
        assert bundles["_b2"].count("PD.get(") == 1
        # Guarded first: its lookup stays inside its block, so the
        # unguarded ops look up once more, and only once.
        assert bundles["_b3"].count("PD.get(") == 2
        assert "\n        _q1 = PD.get(_t)" in bundles["_b3"]
        run_both(config, assemble(SAME_LATENCY_WRITES, config), 64)


class TestDifferentialAssembly:
    """Hand-written corner cases beyond what the compiler emits."""

    def test_predication_and_forwarding(self):
        config = epic_config()
        program = assemble(FORWARDING_HEAVY, config)
        run_both(config, program, 256)

    def test_ablation_configs_match(self):
        source = FORWARDING_HEAVY
        for overrides in (
            {"forwarding": False},
            {"model_port_limit": False},
            {"lsu_shares_fetch_bandwidth": True},
        ):
            config = epic_config(**overrides)
            program = assemble(source, config)
            run_both(config, program, 256)

    def test_repeat_run_reuses_cached_engine(self):
        config = epic_config()
        cpu = EpicProcessor(config, assemble(FORWARDING_HEAVY, config),
                            mem_words=256)
        first = cpu.run()
        engine = cpu._fastsim
        assert engine not in (None, False)  # auto-dispatch specialised
        second = cpu.run()
        assert cpu._fastsim is engine
        assert first.cycles == second.cycles


OOB_STORE = """
  MOVI r4, 500
  NOP
  SW r4, r4, 0
  HALT
"""


class TestLifetime:
    """A specialised machine is not cyclic garbage: dropping the last
    reference frees it, its engines and its memory at once."""

    @pytest.mark.parametrize("engine", ["fast", "trace"])
    def test_dropped_machine_freed_without_the_collector(self, engine):
        spec = SMALL_WORKLOADS["SHA"]()
        config = epic_with_alus(2)
        program = compile_minic_to_epic(spec.source, config).program
        gc.collect()
        gc.disable()
        try:
            cpu = EpicProcessor(config, program, mem_words=spec.mem_words,
                                trace_hotness=2)
            cpu.run(engine=engine)
            assert cpu.last_engine == engine
            if engine == "trace":
                assert cpu._tracesim.trace_count > 0
            machine, memory = weakref.ref(cpu), weakref.ref(cpu.memory)
            del cpu
            assert machine() is None
            assert memory() is None
        finally:
            gc.enable()


class TestTrapEquivalence:
    def test_oob_store_trap_matches_instrumented(self):
        config = epic_config()
        observed = []
        for engine in ("reference", "fast"):
            cpu = EpicProcessor(config, assemble(OOB_STORE, config),
                                mem_words=64)
            with pytest.raises(TrapError) as info:
                cpu.run(max_cycles=100, engine=engine)
            observed.append(
                (info.value.cause, info.value.cycle, info.value.pc,
                 cpu.stats.traps, len(cpu.traps))
            )
        assert observed[0] == observed[1]
        assert observed[0][0] == TRAP_OOB_STORE


class TestEligibility:
    def make(self, **kwargs):
        config = epic_config()
        return EpicProcessor(config, assemble(FORWARDING_HEAVY, config),
                             mem_words=256, **kwargs)

    def test_fast_refused_with_tracer(self):
        cpu = self.make()
        with pytest.raises(SimulationError, match="fast path requested"):
            cpu.run(trace=Tracer(), engine="fast")

    def test_fast_refused_with_injector(self):
        cpu = self.make(injector=FaultInjector([]))
        with pytest.raises(SimulationError, match="fast path requested"):
            cpu.run(engine="fast")

    def test_fast_refused_with_strict_nual(self):
        cpu = self.make(strict_nual=True)
        with pytest.raises(SimulationError, match="fast path requested"):
            cpu.run(engine="fast")

    def test_fast_refused_under_non_halt_policy(self):
        config = epic_config(trap_policy="record-and-continue")
        cpu = EpicProcessor(config, assemble(FORWARDING_HEAVY, config),
                            mem_words=256)
        with pytest.raises(SimulationError, match="fast path requested"):
            cpu.run(engine="fast")

    def test_fast_refused_with_planted_parity_fault(self):
        cpu = self.make()
        cpu.gpr.poison(4)
        with pytest.raises(SimulationError, match="fast path requested"):
            cpu.run(engine="fast")

    def test_poisoned_run_takes_parity_checking_path(self):
        # Auto dispatch must route a poisoned machine to the
        # instrumented loop, whose reads raise the parity trap the
        # fast path's direct list indexing could never see.
        config = epic_config()
        cpu = EpicProcessor(config, assemble("ADD r5, r4, 1\nHALT", config),
                            mem_words=64)
        cpu.gpr.poison(4)
        with pytest.raises(TrapError) as info:
            cpu.run(max_cycles=100)
        assert info.value.cause == TRAP_PARITY
        assert cpu._fastsim is None  # the fast engine was never built

    def test_reject_reason_recorded_for_register_oob(self):
        source = """
        main:
          PBR b0, end
          NOP
          BR b0
          ADD r60, r1, 1
        end:
          HALT
        """
        big = epic_config()
        program = assemble(source, big)
        small = big.with_changes(n_gprs=32)
        cpu = EpicProcessor(small, program, mem_words=64)
        cpu.run(max_cycles=100)  # auto: quiet fallback
        assert cpu.last_engine == "reference"
        assert "index" in cpu.fastpath_reject_reason
        assert "limit" in cpu.fastpath_reject_reason
        # The reason rides along on the stats summary so a downgraded
        # run is visible in any report that prints it.
        assert "fast path rejected" in cpu.stats.summary()
        assert cpu.fastpath_reject_reason in cpu.stats.summary()

    def test_reject_reason_recorded_for_extra_control_op(self):
        import copy

        source = """
        main:
          PBR b0, end
          NOP
          BR b0
          NOP
        end:
          HALT
        """
        config = epic_config()
        cpu = EpicProcessor(config, assemble(source, config), mem_words=64)
        # Predecode enforces one BRU per issue group at load time, so
        # forge the illegal shape post-decode: a second copy of the
        # branch in its own bundle (same target, so the instrumented
        # loop's behaviour is unchanged).
        from repro.core import decode as dec

        branch_bundle = next(b for b in cpu._bundles
                             if any(op.kind == dec.K_BR for op in b.ops))
        branch_op = next(op for op in branch_bundle.ops
                         if op.kind == dec.K_BR)
        branch_bundle.ops.append(copy.copy(branch_op))
        with pytest.raises(SimulationError,
                           match="more than one control operation"):
            cpu.run(max_cycles=100, engine="fast")
        assert cpu.fastpath_reject_reason == \
            "more than one control operation in a bundle"
        result = cpu.run(max_cycles=100)  # auto: quiet fallback
        assert cpu.last_engine == "reference"
        assert result.cycles > 0

    def test_reject_reason_recorded_for_sub_cycle_latency(self):
        config = epic_config()
        cpu = EpicProcessor(config, assemble(FORWARDING_HEAVY, config),
                            mem_words=256)
        from repro.core import decode as dec

        add_op = next(op for b in cpu._bundles for op in b.ops
                      if op.kind == dec.K_ALU)
        add_op.latency = 0
        with pytest.raises(SimulationError, match="cannot be specialised"):
            cpu.run(engine="fast")
        assert cpu.fastpath_reject_reason == \
            "write-back latency below one cycle"
        assert cpu.stats.fastpath_reject_reason == cpu.fastpath_reject_reason
        cpu.run()  # auto: quiet fallback onto the instrumented loop
        assert cpu.last_engine == "reference"

    def test_ineligible_program_falls_back_silently(self):
        # Assemble against a large register file, run on a small one:
        # the dead code past the branch names a GPR beyond the small
        # file, which the specialiser rejects at load time, while the
        # instrumented path never executes it.
        source = """
        main:
          PBR b0, end
          NOP
          BR b0
          ADD r60, r1, 1
        end:
          HALT
        """
        big = epic_config()
        program = assemble(source, big)
        small = big.with_changes(n_gprs=32)
        cpu = EpicProcessor(small, program, mem_words=64)
        result = cpu.run(max_cycles=100)  # auto: quiet fallback
        assert cpu._fastsim is False  # marked ineligible, cached
        with pytest.raises(SimulationError, match="cannot be specialised"):
            cpu.run(max_cycles=100, engine="fast")
        reference = EpicProcessor(small, program, mem_words=64)
        assert reference.run(max_cycles=100, engine="reference").cycles \
            == result.cycles
