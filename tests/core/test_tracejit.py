"""Differential tests for the profile-guided trace engine.

The trace engine (:mod:`repro.core.tracejit`) compiles hot superblocks
on top of the fast path's per-bundle functions.  Like the fast path it
is an optimisation, never a semantic fork: for every program it runs it
must produce bit-identical cycle counts, statistics and architectural
state to both the instrumented reference loop and the bundle-level fast
engine — at every hotness threshold and chain cap, including the
degenerate ones that force a side exit out of every superblock.
"""

import os
import random
import subprocess
import sys
import textwrap

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
        # AES is the workload with calls: small caps fall inside
        # inlined callees and cut chains back to their call.
        config = epic_with_alus(2)
        for name in ("SHA", "AES"):
            spec = SMALL_WORKLOADS[name]()
            compilation = compile_minic_to_epic(spec.source, config)
            rng = random.Random(1905)
            tunings = [(1, 1), (1, 3)] + [
                (rng.randint(1, 24), rng.randint(1, 96)) for _ in range(4)
            ]
            for hotness, cap in tunings:
                run_three(config, compilation.program, spec.mem_words,
                          hotness=hotness, cap=cap)

    def test_ablation_configs_match(self):
        # On AES the port-limit and shared-fetch ablations put
        # port-stall exits and fetch-stall gaps after inlined calls
        # and returns.
        for name in ("DCT", "AES"):
            spec = SMALL_WORKLOADS[name]()
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


TRAPPING_CALL = """
main:
  PBR b0, loop
  MOVI r4, 0
loop:
  PBR b1, leaf
  ADD r4, r4, 1
  { SW r4, r4, 40 ; BRL r3, b1 }
  CMPP_LT p1, p2, r4, 40
  BRCT b0, p1
  HALT
leaf:
  MOVGBP b2, r3
  BR b2
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

    def test_trap_beside_an_inlined_call(self):
        # The store shares its bundle with a followed BRL: the trap
        # fold must not charge that call's taken branch, just as the
        # fast path never counts a branch of a bundle that trapped.
        config = epic_config()
        program = assemble(TRAPPING_CALL, config)
        observed = []
        for engine in ("reference", "fast", "trace"):
            cpu = EpicProcessor(config, program, mem_words=64,
                                trace_hotness=2)
            with pytest.raises(TrapError) as info:
                cpu.run(max_cycles=10_000, engine=engine)
            observed.append((info.value.cause, info.value.cycle,
                             info.value.pc, architectural_state(cpu)))
            if engine != "reference":
                observed[-1] += (stats_fingerprint(cpu.stats),)
            if engine == "trace":
                assert any(inlines_a_call(runtime.code)
                           for runtime in cpu._tracesim._runtimes)
        assert observed[0] == observed[1][:4] == observed[2][:4]
        assert observed[1] == observed[2]
        assert observed[0][0] == TRAP_OOB_STORE


#: A hot loop with static and dynamic loads and stores and a DIV, whose
#: semantics call is the one other op that may trap.
CODEGEN_LOOP = """
main:
  PBR b0, loop
  MOVI r4, 0
loop:
  ADD r4, r4, 1
  LW r5, r0, 20
  SW r5, r0, 21
  LW r6, r4, 3
  SW r6, r4, 9
  DIV r7, r6, r4
  CMPP_LT p1, p2, r4, 30
  (p1) BR b0
  HALT
"""


def trace_sources(config, mem_words):
    """Run the loop on every engine; returns the trace engine's sources."""
    program = assemble(CODEGEN_LOOP, config)
    *_, trace = run_three(config, program, mem_words)
    sources = [runtime.code.source for runtime in trace._tracesim._runtimes]
    assert sources
    return sources


class TestGeneratedCode:
    """Superblocks get the bundle generator's folds; these pin them so
    a refactor cannot silently drop one."""

    def test_r0_reads_as_literal_zero(self):
        for source in trace_sources(epic_config(), 64):
            assert "G[0]" not in source

    def test_static_in_range_access_has_no_bounds_test(self):
        sources = trace_sources(epic_config(), 64)
        assert "MEM[20]" in sources[0] and "_sa = 21" in sources[0]
        # Only the dynamic load and store keep a bounds test and a
        # trap call.
        for source in sources:
            for call, compare in (("MR(", "if _a < 64:"),
                                  ("MC(", "if _sa >= 64:")):
                assert source.count(call) == source.count(compare) <= 1

    def test_trap_bookkeeping_only_on_raising_branches(self):
        marks = 0
        for source in trace_sources(epic_config(), 64):
            lines = [line.strip() for line in source.splitlines()]
            for i, line in enumerate(lines):
                if line.startswith("BI[0] ="):
                    marks += 1
                    assert lines[i - 1] == "except TE:", source
        assert marks  # the dynamic accesses and the DIV may trap

    def test_sign_fix_up_kept_where_memory_outgrows_the_sign_bit(self):
        source = "\n".join(trace_sources(epic_config(datapath_width=8),
                                         256))
        assert "if _a < 128:" in source
        assert "MR(((_a ^ 128) - 128))" in source
        assert "MC(((_sa ^ 128) - 128))" in source


class TestTraceCache:
    def make(self, cache, n_alus=2):
        spec = SMALL_WORKLOADS["DCT"]()
        config = epic_with_alus(n_alus)
        compilation = compile_minic_to_epic(spec.source, config)
        return spec, config, compilation

    def test_trace_engine_imports_nothing_from_serve(self):
        # The core layer sits below the serving tier: compiling and
        # running superblocks must not pull repro.serve into a process.
        script = textwrap.dedent("""
            import sys
            from repro.backend import compile_minic_to_epic
            from repro.config import epic_config
            from repro.core import EpicProcessor
            from repro.core.tracejit import TraceCache
            from repro.workloads import dct_workload

            spec = dct_workload(8, 8)
            config = epic_config()
            program = compile_minic_to_epic(spec.source, config).program
            cache = TraceCache()
            EpicProcessor(config, program, mem_words=spec.mem_words,
                          trace_hotness=2, trace_cache=cache,
                          ).run(engine="trace")
            assert cache.stats()["compiles"] > 0
            print(sorted(name for name in sys.modules
                         if name.startswith("repro.serve")))
        """)
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert result.stdout.strip() == "[]"

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


LEAF_CALL = """
main:
  PBR b0, loop
  MOVI r4, 0
  MOVI r5, 0
loop:
  PBR b1, leaf
  BRL r3, b1
  ADD r4, r4, 1
  CMPP_LT p1, p2, r4, 20
  BRCT b0, p1
  SW r5, r0, 40
  HALT
leaf:
  ADD r5, r5, 3
  MOVGBP b2, r3
  BR b2
"""

#: The callee's return address travels through memory.
RETURN_FROM_MEMORY = """
main:
  PBR b0, loop
  MOVI r4, 0
  MOVI r5, 0
loop:
  PBR b1, leaf
  BRL r3, b1
  ADD r4, r4, 1
  CMPP_LT p1, p2, r4, 20
  BRCT b0, p1
  SW r5, r0, 40
  HALT
leaf:
  ADD r5, r5, 3
  SW r3, r0, 50
  LW r6, r0, 50
  NOP
  MOVGBP b2, r6
  BR b2
"""

#: A guarded PBR is the latest write to the call's target register.
GUARDED_PBR = """
main:
  PBR b0, loop
  MOVI r4, 0
  MOVI r5, 0
  CMPP_EQ p3, p4, r0, 0
loop:
  PBR b1, leaf
  (p3) PBR b1, leaf
  BRL r3, b1
  ADD r4, r4, 1
  CMPP_LT p1, p2, r4, 20
  BRCT b0, p1
  SW r5, r0, 40
  HALT
leaf:
  ADD r5, r5, 3
  MOVGBP b2, r3
  BR b2
"""

#: The callee bumps its link past one bundle of the call site.
CLOBBERED_LINK = """
main:
  PBR b0, loop
  MOVI r4, 0
  MOVI r5, 0
loop:
  PBR b1, leaf
  BRL r3, b1
  ADD r5, r5, 100
  ADD r4, r4, 1
  CMPP_LT p1, p2, r4, 20
  BRCT b0, p1
  SW r5, r0, 40
  HALT
leaf:
  ADD r3, r3, 1
  ADD r5, r5, 3
  MOVGBP b2, r3
  BR b2
"""

#: A loop closed by an unconditional BR whose target is in-chain known.
BACK_EDGE_LOOP = """
main:
  PBR b1, done
  MOVI r4, 0
head:
  PBR b0, head
  ADD r4, r4, 1
  CMPP_GE p1, p2, r4, 20
  BRCT b1, p1
  BR b0
done:
  SW r4, r0, 40
  HALT
"""

#: A call bundle that reads two registers while a write lands.
STALLING_CALL = """
main:
  PBR b0, loop
  MOVI r4, 0
  MOVI r5, 7
loop:
  PBR b1, leaf
  ADD r8, r4, 1
  { ADD r6, r4, r5 ; SW r4, r0, 40 ; BRL r3, b1 }
  ADD r4, r4, 1
  CMPP_LT p1, p2, r4, 20
  BRCT b0, p1
  HALT
leaf:
  ADD r5, r5, r6
  MOVGBP b2, r3
  BR b2
"""


def chain_of(source, entry_label, cap=64):
    """The chain the trace engine forms at a label, and the program."""
    config = epic_config()
    program = assemble(source, config)
    cpu = EpicProcessor(config, program, mem_words=64, trace_cap=cap)
    pcs, follow = cpu._trace_sim()._chain(program.labels[entry_label])
    return program, pcs, follow


def inlines_a_call(code):
    """Does a compiled trace leave fall-through order somewhere?"""
    return any(b != a + 1 for a, b in zip(code.pcs, code.pcs[1:]))


class TestLeafCallInlining:
    """Chain shapes on hand-written calls; every run stays exact."""

    def test_leaf_call_and_return_are_inlined(self):
        program, pcs, follow = chain_of(LEAF_CALL, "loop")
        loop, leaf = program.labels["loop"], program.labels["leaf"]
        assert pcs == [loop, loop + 1, leaf, leaf + 1, leaf + 2,
                       loop + 2, loop + 3, loop + 4, loop + 5, loop + 6]
        assert follow == [1, 4]  # the BRL and the callee's BR
        _, _, tracer = run_three(epic_config(), program, 64)
        assert any(inlines_a_call(runtime.code)
                   for runtime in tracer._tracesim._runtimes)

    def test_return_address_from_memory_is_not_inlined(self):
        program, pcs, follow = chain_of(RETURN_FROM_MEMORY, "loop")
        loop = program.labels["loop"]
        assert pcs == [loop, loop + 1]  # cut back to the BRL
        assert follow == []
        run_three(epic_config(), program, 64)

    def test_guarded_pbr_is_not_followed(self):
        program, pcs, follow = chain_of(GUARDED_PBR, "loop")
        loop = program.labels["loop"]
        assert pcs == [loop, loop + 1, loop + 2]  # ends at the BRL
        assert follow == []
        run_three(epic_config(), program, 64)

    def test_clobbered_link_is_not_followed(self):
        program, pcs, follow = chain_of(CLOBBERED_LINK, "loop")
        loop = program.labels["loop"]
        assert pcs == [loop, loop + 1]
        assert follow == []
        reference, _, _ = run_three(epic_config(), program, 64)
        assert reference.memory.read(40) == 20 * 3  # the ADD is skipped

    def test_loop_back_edge_is_not_followed(self):
        program, pcs, follow = chain_of(BACK_EDGE_LOOP, "head")
        head = program.labels["head"]
        assert pcs == [head, head + 1, head + 2, head + 3, head + 4]
        assert follow == []
        run_three(epic_config(), program, 64)

    def test_cap_inside_callee_truncates_to_the_call(self):
        program, pcs, follow = chain_of(LEAF_CALL, "loop", cap=4)
        loop = program.labels["loop"]
        assert pcs == [loop, loop + 1]
        assert follow == []
        for cap in (2, 3, 4, 5, 6, 7):
            run_three(epic_config(), program, 64, cap=cap)

    def test_port_and_fetch_stalls_at_an_inlined_call(self):
        # Two register ports: the BRL bundle's two reads plus the
        # write landing beside them stall, so the trace leaves through
        # the port-stall exit into the callee; with shared fetch
        # bandwidth its store adds a fetch stall before the bubble.
        program = assemble(STALLING_CALL, epic_config())
        for overrides in ({}, {"lsu_shares_fetch_bandwidth": True}):
            config = epic_config(regfile_ops_per_cycle=2, **overrides)
            for hotness, cap in ((1, 4), (3, 7), (2, 64)):
                _, _, tracer = run_three(config, program, 64,
                                         hotness=hotness, cap=cap)
            assert any(inlines_a_call(runtime.code)
                       for runtime in tracer._tracesim._runtimes)
            assert tracer.stats.port_stall_cycles > 0

    def test_gmul_trace_contains_xtime(self):
        spec = SMALL_WORKLOADS["AES"]()
        config = epic_with_alus(2)
        program = compile_minic_to_epic(spec.source, config).program
        _, _, tracer = run_three(config, program, spec.mem_words,
                                 hotness=16)
        gmul = tracer._tracesim._traces[program.labels["gmul"]]
        assert gmul is not None
        assert program.labels["xtime"] in gmul.code.pcs


def observe(cpu):
    """Cycle count, statistics and architectural state after a run."""
    return (cpu.stats.cycles, stats_fingerprint(cpu.stats),
            architectural_state(cpu))


class TestInlinedTracesPauseAndRestore:
    """Quiescent pause/resume and snapshots around inlined AES traces."""

    @pytest.fixture(scope="class")
    def aes(self):
        spec = SMALL_WORKLOADS["AES"]()
        config = epic_with_alus(2)
        program = compile_minic_to_epic(spec.source, config).program
        reference = EpicProcessor(config, program, mem_words=spec.mem_words)
        reference.run(engine="reference")
        return spec, config, program, observe(reference)

    def test_segmented_run_matches(self, aes):
        spec, config, program, expected = aes
        cpu = EpicProcessor(config, program, mem_words=spec.mem_words,
                            trace_hotness=2)
        result = cpu.run(engine="trace", until_cycle=997)
        while not result.halted:
            result = cpu.run(engine="trace",
                             until_cycle=cpu._resume_cycle + 4099)
        assert any(inlines_a_call(runtime.code)
                   for runtime in cpu._tracesim._runtimes)
        assert observe(cpu) == expected

    def test_snapshot_round_trip_matches(self, aes):
        spec, config, program, expected = aes
        cpu = EpicProcessor(config, program, mem_words=spec.mem_words,
                            trace_hotness=2)
        cpu.run(engine="trace", until_cycle=20_000)
        snap = cpu.snapshot()
        cpu.run(engine="trace", until_cycle=snap.cycle + 5_000)
        cpu.gpr._values[4] ^= 0xBEEF
        cpu.memory._words[0] ^= 1
        cpu.restore(snap)
        cpu.run(engine="trace")
        assert any(inlines_a_call(runtime.code)
                   for runtime in cpu._tracesim._runtimes)
        assert observe(cpu) == expected


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
        assert reference.last_engine == "reference"
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
