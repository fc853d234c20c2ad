"""Differential tests for the profile-guided trace engine.

The trace engine (:mod:`repro.core.tracejit`) compiles hot superblocks
on top of the fast path's per-bundle functions.  Like the fast path it
is an optimisation, never a semantic fork: for every program it runs it
must produce bit-identical cycle counts, statistics and architectural
state to both the instrumented reference loop and the bundle-level fast
engine — at every hotness threshold and chain cap, including the
degenerate ones that force a side exit out of every superblock.
"""

import random

import pytest

from repro.asm import assemble
from repro.backend import compile_minic_to_epic
from repro.config import epic_config, epic_with_alus
from repro.core import EpicProcessor
from repro.core.tracejit import TraceCache
from repro.errors import SimulationError, TrapError, TRAP_OOB_STORE
from repro.perf.bench import stats_fingerprint
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


def run_three(config, program, mem_words, hotness=2, cap=64, cache=None):
    """Run the program on all three engines; returns the machines.

    A low default hotness makes superblocks form even on the small
    differential inputs, so the generated trace code actually executes
    instead of the comparison degenerating into fast-vs-fast.
    """
    reference = EpicProcessor(config, program, mem_words=mem_words)
    reference_result = reference.run(engine="reference")
    fast = EpicProcessor(config, program, mem_words=mem_words)
    fast_result = fast.run(engine="fast")
    tracer = EpicProcessor(config, program, mem_words=mem_words,
                           trace_hotness=hotness, trace_cap=cap,
                           trace_cache=cache)
    trace_result = tracer.run(engine="trace")
    assert reference_result.cycles == fast_result.cycles
    assert reference_result.cycles == trace_result.cycles
    assert stats_fingerprint(reference.stats) == \
        stats_fingerprint(fast.stats)
    assert stats_fingerprint(reference.stats) == \
        stats_fingerprint(tracer.stats)
    assert architectural_state(reference) == architectural_state(fast)
    assert architectural_state(reference) == architectural_state(tracer)
    assert tracer.last_engine == "trace"
    return reference, fast, tracer


class TestDifferentialWorkloads:
    """Trace vs fast vs instrumented vs golden, all four workloads."""

    @pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
    def test_bit_identical_across_alu_presets(self, name):
        spec = SMALL_WORKLOADS[name]()
        traced_somewhere = False
        for n_alus in (1, 2, 3, 4):
            config = epic_with_alus(n_alus)
            compilation = compile_minic_to_epic(spec.source, config)
            reference, _, tracer = run_three(
                config, compilation.program, spec.mem_words)
            traced_somewhere |= tracer._tracesim.trace_count > 0
            for cpu in (reference, tracer):
                for global_name, expected in spec.expected.items():
                    base = compilation.symbols[global_name]
                    got = [cpu.memory.read(base + i)
                           for i in range(len(expected))]
                    assert got == expected, (name, n_alus, global_name)
                if spec.expected_return is not None:
                    assert (cpu.gpr.read(2) & 0xFFFFFFFF) == \
                        spec.expected_return
        # The equivalence must have exercised real superblocks, not a
        # trace engine that never got hot enough to compile one.
        assert traced_somewhere, name

    def test_randomised_hotness_and_caps(self):
        # Degenerate tunings force every interesting path: cap=1
        # superblocks exit after a single bundle, tiny hotness compiles
        # everything, large hotness compiles almost nothing, and odd
        # caps split loop bodies so linked traces hand over mid-loop.
        spec = SMALL_WORKLOADS["SHA"]()
        config = epic_with_alus(2)
        compilation = compile_minic_to_epic(spec.source, config)
        rng = random.Random(1905)
        tunings = [(1, 1), (1, 3)] + [
            (rng.randint(1, 24), rng.randint(1, 96)) for _ in range(4)
        ]
        for hotness, cap in tunings:
            run_three(config, compilation.program, spec.mem_words,
                      hotness=hotness, cap=cap)

    def test_ablation_configs_match(self):
        spec = SMALL_WORKLOADS["DCT"]()
        for overrides in (
            {"forwarding": False},
            {"model_port_limit": False},
            {"lsu_shares_fetch_bandwidth": True},
        ):
            config = epic_config(**overrides)
            compilation = compile_minic_to_epic(spec.source, config)
            run_three(config, compilation.program, spec.mem_words)


TRAPPING_LOOP = """
main:
  PBR b0, loop
  MOVI r4, 0
loop:
  ADD r4, r4, 1
  SW r4, r4, 56
  CMPP_LT p1, p2, r4, 40
  (p1) BR b0
  HALT
"""


class TestTrapEquivalence:
    def test_oob_store_inside_a_hot_trace(self):
        # The store goes out of bounds only after the loop has run hot
        # and been compiled, so the trap fires *inside* the generated
        # superblock — its guarded side exit must materialise the exact
        # architectural point the instrumented loop reports.
        config = epic_config()
        program = assemble(TRAPPING_LOOP, config)
        observed = []
        for engine in ("reference", "fast", "trace"):
            cpu = EpicProcessor(config, program, mem_words=64,
                                trace_hotness=2)
            with pytest.raises(TrapError) as info:
                cpu.run(max_cycles=10_000, engine=engine)
            observed.append(
                (info.value.cause, info.value.cycle, info.value.pc,
                 cpu.stats.traps, len(cpu.traps),
                 architectural_state(cpu))
            )
            if engine == "trace":
                assert cpu._tracesim.trace_count > 0
        assert observed[0] == observed[1] == observed[2]
        assert observed[0][0] == TRAP_OOB_STORE


class TestTraceCache:
    def make(self, cache, n_alus=2):
        spec = SMALL_WORKLOADS["DCT"]()
        config = epic_with_alus(n_alus)
        compilation = compile_minic_to_epic(spec.source, config)
        return spec, config, compilation

    def test_second_processor_starts_warm(self):
        cache = TraceCache()
        spec, config, compilation = self.make(cache)
        first = EpicProcessor(config, compilation.program,
                              mem_words=spec.mem_words,
                              trace_hotness=2, trace_cache=cache)
        first_result = first.run(engine="trace")
        compiled = cache.stats()["compiles"]
        assert compiled > 0

        second = EpicProcessor(config, compilation.program,
                               mem_words=spec.mem_words,
                               trace_hotness=2, trace_cache=cache)
        # Pre-instantiation: every cached superblock is live before the
        # first cycle, without re-profiling up to the hotness threshold.
        assert second._trace_sim().traces_compiled == compiled
        assert cache.stats()["hits"] >= compiled
        second_result = second.run(engine="trace")
        assert second_result.cycles == first_result.cycles
        assert stats_fingerprint(first.stats) == \
            stats_fingerprint(second.stats)

        # A warm start shifts the observed branch profile (linked
        # traces expose new side-exit targets), so a few more entries
        # may go hot — but the set converges, and a processor built at
        # the fixpoint compiles nothing new.
        for _ in range(8):
            known = cache.stats()["traces"]
            EpicProcessor(config, compilation.program,
                          mem_words=spec.mem_words, trace_hotness=2,
                          trace_cache=cache).run(engine="trace")
            if cache.stats()["traces"] == known:
                break
        settled = cache.stats()["compiles"]
        final = EpicProcessor(config, compilation.program,
                              mem_words=spec.mem_words, trace_hotness=2,
                              trace_cache=cache)
        final_result = final.run(engine="trace")
        assert cache.stats()["compiles"] == settled
        assert final_result.cycles == first_result.cycles

    def test_cache_checks_program_identity(self):
        # The generated source inlines bundle shapes, so records are
        # only valid for the exact Program object they were built from;
        # a recompilation of the same source must start cold.
        cache = TraceCache()
        spec, config, compilation = self.make(cache)
        EpicProcessor(config, compilation.program,
                      mem_words=spec.mem_words,
                      trace_hotness=2, trace_cache=cache).run(engine="trace")
        assert cache.stats()["compiles"] > 0
        rebuilt = compile_minic_to_epic(spec.source, config)
        assert rebuilt.program is not compilation.program
        cold = EpicProcessor(config, rebuilt.program,
                             mem_words=spec.mem_words,
                             trace_hotness=2, trace_cache=cache)
        assert cold._trace_sim().traces_compiled == 0

    def test_cache_keyed_by_machine_config(self):
        cache = TraceCache()
        spec, config, compilation = self.make(cache)
        EpicProcessor(config, compilation.program,
                      mem_words=spec.mem_words,
                      trace_hotness=2, trace_cache=cache).run(engine="trace")
        other_config = epic_with_alus(3)
        other = compile_minic_to_epic(spec.source, other_config)
        cold = EpicProcessor(other_config, other.program,
                             mem_words=spec.mem_words,
                             trace_hotness=2, trace_cache=cache)
        assert cold._trace_sim().traces_compiled == 0


SIMPLE_LOOP = """
main:
  PBR b0, loop
  MOVI r4, 0
loop:
  ADD r4, r4, 1
  CMPP_LT p1, p2, r4, 30
  (p1) BR b0
  SW r4, r0, 20
  HALT
"""


class TestEngineDispatch:
    def test_trace_engine_recorded_and_used(self):
        config = epic_config()
        cpu = EpicProcessor(config, assemble(SIMPLE_LOOP, config),
                            mem_words=64, trace_hotness=2)
        reference = EpicProcessor(config, assemble(SIMPLE_LOOP, config),
                                  mem_words=64)
        assert cpu.run(engine="trace").cycles == \
            reference.run(engine="reference").cycles
        assert cpu.last_engine == "trace"
        assert reference.last_engine == "instrumented"
        assert cpu._tracesim.trace_count > 0

    def test_trace_refused_when_fast_path_is(self):
        config = epic_config()
        cpu = EpicProcessor(config, assemble(SIMPLE_LOOP, config),
                            mem_words=64, strict_nual=True)
        with pytest.raises(SimulationError, match="fast path requested"):
            cpu.run(engine="trace")

    def test_trace_refused_for_unspecialisable_program(self):
        # Same trick as the fast-path eligibility tests: dead code past
        # the branch names a GPR beyond the small register file.
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
        with pytest.raises(SimulationError, match="cannot be specialised"):
            cpu.run(max_cycles=100, engine="trace")
        assert cpu.fastpath_reject_reason  # the refusal names its cause

    def test_unknown_engine_rejected(self):
        config = epic_config()
        cpu = EpicProcessor(config, assemble("HALT", config), mem_words=64)
        with pytest.raises(SimulationError, match="unknown engine"):
            cpu.run(engine="warp")
