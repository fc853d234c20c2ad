"""Differential property test: random MiniC programs across engines.

Hypothesis generates small structured MiniC programs — assignments over
scalars and a global array, nested ``if``/``else``, bounded ``for``
loops — and every program is executed on the golden IR interpreter, the
EPIC core (in strict-NUAL schedule-validating mode) and the SA-110
baseline.  All observables must agree.  This is the single most
bug-finding test in the repository: it exercises the front end, the
optimiser, two instruction selectors, the register allocator, the list
scheduler and both simulators against each other.

The cross-engine test runs the same programs on the EPIC core's
reference, fast and trace engines, including paused-and-resumed runs,
and the vector-engine test runs seeded fault campaigns on them, batched
against one scalar run per fault, with one program per ALU count (1
or 4) and trap policy in each example.
Its programs also index the array with computed indices, mostly masked
into range and occasionally far outside memory, so loads and stores
take the engines' dynamic bounds tests and some runs end in a trap.  It
checks a fixed, derandomised corpus by default, and so does the vector
test; loading the ``cross-engine-wide`` profile (``tests/conftest.py``)
with ``--hypothesis-profile=cross-engine-wide --hypothesis-seed=N``
widens both to 300 seeded programs.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.backend import compile_minic_to_epic
from repro.baseline import Sa110Simulator, compile_minic_to_armlet
from repro.config import epic_config, epic_with_alus
from repro.core import EpicProcessor
from repro.errors import TrapError
from repro.harness.faultcampaign import generate_faults, result_payload
from repro.ir import run_module
from repro.lang import compile_minic
from repro.perf.bench import stats_fingerprint
from repro.reliability import LockstepChecker
from repro.workloads import WorkloadSpec

_VARS = ["v0", "v1", "v2", "v3"]
_ARRAY = "garr"
_ARRAY_SIZE = 6
_BINOPS = ["+", "-", "*", "&", "|", "^"]
_CMPS = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def indices(draw, depth=0, wild=False):
    """An array index: a literal, or (``wild``) a computed one, masked
    into range or, now and then, far outside a 4,096-word memory."""
    if not (wild and draw(st.booleans())):
        return str(draw(st.integers(0, _ARRAY_SIZE - 1)))
    inner = draw(expressions(depth=depth + 1, wild=wild))
    if draw(st.integers(0, 15)):
        return f"({inner}) & 3"
    return f"(({inner}) & 3) {draw(st.sampled_from(['+', '-']))} 70000"


@st.composite
def expressions(draw, depth=0, wild=False):
    choice = draw(st.integers(0, 5 if depth < 3 else 2))
    if choice == 0:
        return str(draw(st.integers(-100, 100)))
    if choice == 1:
        return draw(st.sampled_from(_VARS))
    if choice == 2:
        return f"{_ARRAY}[{draw(indices(depth=depth, wild=wild))}]"
    if choice == 3:
        op = draw(st.sampled_from(_BINOPS))
        left = draw(expressions(depth=depth + 1, wild=wild))
        right = draw(expressions(depth=depth + 1, wild=wild))
        return f"({left} {op} {right})"
    if choice == 4:
        op = draw(st.sampled_from(["&", ">>"]))
        inner = draw(expressions(depth=depth + 1, wild=wild))
        amount = draw(st.integers(0, 7))
        return f"(({inner}) {op} {amount})" if op == ">>" \
            else f"(({inner}) & {amount})"
    op = draw(st.sampled_from(_CMPS))
    left = draw(expressions(depth=depth + 1, wild=wild))
    right = draw(expressions(depth=depth + 1, wild=wild))
    return f"({left} {op} {right})"


@st.composite
def statements(draw, depth=0, in_loop=False, wild=False):
    choice = draw(st.integers(0, 4 if depth < 2 else 1))
    if choice == 0:
        target = draw(st.sampled_from(_VARS))
        value = draw(expressions(wild=wild))
        return f"{target} = {value};"
    if choice == 1:
        index = draw(indices(wild=wild))
        value = draw(expressions(wild=wild))
        return f"{_ARRAY}[{index}] = {value};"
    if choice == 2:
        cond = draw(expressions(wild=wild))
        then = draw(blocks(depth=depth + 1, in_loop=in_loop, wild=wild))
        if draw(st.booleans()):
            els = draw(blocks(depth=depth + 1, in_loop=in_loop, wild=wild))
            return f"if ({cond}) {{ {then} }} else {{ {els} }}"
        return f"if ({cond}) {{ {then} }}"
    if choice == 3:
        # Bounded loop over a depth-unique induction variable: nested
        # loops must never share one, or an inner loop can reset the
        # outer induction and the program never terminates.
        trips = draw(st.integers(1, 5))
        body = draw(blocks(depth=depth + 1, in_loop=True, wild=wild))
        var = f"idx{depth}"
        return (f"for ({var} = 0; {var} < {trips}; {var} += 1) "
                f"{{ {body} }}")
    # Compound assignment.
    target = draw(st.sampled_from(_VARS))
    op = draw(st.sampled_from(["+=", "-=", "^=", "|="]))
    value = draw(expressions(wild=wild))
    return f"{target} {op} {value};"


@st.composite
def blocks(draw, depth=0, in_loop=False, wild=False):
    count = draw(st.integers(1, 3))
    return " ".join(
        draw(statements(depth=depth, in_loop=in_loop, wild=wild))
        for _ in range(count)
    )


@st.composite
def programs(draw, wild=False):
    """A MiniC program; ``wild`` ones compute array indices (see
    :func:`indices`) and may trap."""
    body = " ".join(draw(statements(wild=wild))
                    for _ in range(draw(st.integers(1, 6))))
    checksum = " ^ ".join(
        _VARS + [f"{_ARRAY}[{i}]" for i in range(_ARRAY_SIZE)]
        + ["idx0", "idx1", "idx2"]
    )
    return f"""
    int {_ARRAY}[{_ARRAY_SIZE}] = {{7, -3, 11, 0, 5, -9}};
    int main() {{
      int v0; int v1; int v2; int v3;
      int idx0; int idx1; int idx2;
      v0 = 1; v1 = -2; v2 = 3; v3 = -4;
      idx0 = 0; idx1 = 0; idx2 = 0;
      {body}
      return {checksum};
    }}
    """


def _golden(source):
    interpreter = run_module(compile_minic(source), mem_words=4096)
    return (
        (interpreter.result or 0) & 0xFFFFFFFF,
        interpreter.read_global(_ARRAY),
    )


@settings(max_examples=40, deadline=None)
@given(programs(), st.sampled_from([1, 4]))
def test_random_programs_agree_on_epic(source, n_alus):
    expected_return, expected_array = _golden(source)
    config = epic_with_alus(n_alus)
    compilation = compile_minic_to_epic(source, config)
    cpu = EpicProcessor(config, compilation.program, mem_words=4096,
                        strict_nual=True)
    cpu.run(max_cycles=2_000_000)
    assert cpu.gpr.read(2) == expected_return
    base = compilation.symbols[_ARRAY]
    got = [cpu.memory.read(base + i) for i in range(_ARRAY_SIZE)]
    assert got == expected_array


@settings(max_examples=25, deadline=None)
@given(programs())
def test_random_programs_agree_on_baseline(source):
    expected_return, expected_array = _golden(source)
    compilation = compile_minic_to_armlet(source)
    simulator = Sa110Simulator(compilation.program, compilation.labels,
                               compilation.data, mem_words=4096)
    result = simulator.run(max_instructions=5_000_000)
    assert (result.return_value & 0xFFFFFFFF) == expected_return
    base = compilation.symbols[_ARRAY]
    assert simulator.memory[base:base + _ARRAY_SIZE] == expected_array


@settings(max_examples=15, deadline=None)
@given(programs())
def test_random_programs_unoptimised_equals_optimised(source):
    optimised = run_module(compile_minic(source, optimize=True),
                           mem_words=4096)
    plain = run_module(compile_minic(source, optimize=False),
                       mem_words=4096)
    assert optimised.result == plain.result
    assert optimised.read_global(_ARRAY) == plain.read_global(_ARRAY)


#: The corpus: fixed and derandomised, unless the wide profile is loaded.
_CROSS_ENGINE = (
    settings.default
    if settings.default is settings.get_profile("cross-engine-wide")
    else settings(max_examples=30, derandomize=True, deadline=None)
)


@_CROSS_ENGINE
@given(programs(wild=True), st.sampled_from([1, 4]), st.integers(1, 8),
       st.integers(0, 99))
def test_random_programs_agree_across_engines(source, n_alus, cap,
                                              pause_percent):
    # Hotness 1 compiles a trace at every taken-branch target, and caps
    # of 1-8 bundles cut chains mid-block, so linked traces, cap-cut
    # chains and trimmed chains all form on these small programs.
    config = epic_with_alus(n_alus)
    compilation = compile_minic_to_epic(source, config)

    def machine():
        return EpicProcessor(config, compilation.program, mem_words=4096,
                             trace_hotness=1, trace_cap=cap)

    def finish(cpu, engine, until_cycle=None):
        """Run to HALT or a trap; returns the trap's cause, cycle, pc."""
        try:
            result = cpu.run(max_cycles=2_000_000, engine=engine,
                             until_cycle=until_cycle)
            while not result.halted:
                result = cpu.run(max_cycles=2_000_000, engine=engine)
        except TrapError as trap:
            return trap.cause, trap.cycle, trap.pc
        return None

    def state(cpu):
        return (cpu.gpr.dump(), cpu.pred.dump(), cpu.btr.dump(),
                cpu.memory.read_block(0, len(cpu.memory)))

    reference = machine()
    trap = finish(reference, "reference")
    expected = (trap, state(reference))
    if trap is not None:
        assert reference.stats.cycles == trap[1]
    end = reference.stats.cycles if trap is None else trap[1]
    pause_at = 1 + end * pause_percent // 100
    trapped_stats = {}
    for engine in ("fast", "trace"):
        for until_cycle in (None, pause_at):
            cpu = machine()
            observed = (finish(cpu, engine, until_cycle), state(cpu))
            assert cpu.last_engine == engine
            assert observed == expected, (engine, until_cycle)
            stats = stats_fingerprint(cpu.stats)
            if trap is None:
                assert stats == stats_fingerprint(reference.stats), \
                    (engine, until_cycle)
            else:
                # A trapped run keeps the specialised engines' documented
                # hoisted counters, so its stats are compared between
                # them; every engine stops its cycle count at the trap.
                assert cpu.stats.cycles == trap[1], (engine, until_cycle)
                assert stats == trapped_stats.setdefault(until_cycle,
                                                         stats), \
                    (engine, until_cycle)


#: Each example draws one program per (ALU count, trap policy) pair,
#: so the corpus covers all six pairs with an unchanged program budget:
#: 30 programs in tier-1, 300 under the wide profile.
_VECTOR_PAIRS = [(n_alus, policy) for n_alus in (1, 4)
                 for policy in ("halt", "squash-bundle",
                                "record-and-continue")]


@settings(_CROSS_ENGINE,
          max_examples=_CROSS_ENGINE.max_examples // len(_VECTOR_PAIRS))
@given(st.data())
def test_random_programs_agree_on_vector_engine(data):
    # 32 faults over every space (stuck-at and ifetch ones included):
    # the batched walk must classify each exactly as a scalar run.
    for n_alus, policy in _VECTOR_PAIRS:
        source = data.draw(programs(), label=f"{n_alus} ALUs, {policy}")
        seed = data.draw(st.integers(1, 1 << 16), label="fault seed")
        spec = WorkloadSpec(name="generated", source=source,
                            expected={_ARRAY: [0] * _ARRAY_SIZE},
                            mem_words=4096)
        checker = LockstepChecker(spec, epic_with_alus(n_alus,
                                                       trap_policy=policy))
        faults = generate_faults(checker, 32, seed)
        batched, stats = checker.run_batch(faults)
        assert [result_payload(result) for result in batched] == \
            [result_payload(checker.run_one(fault)) for fault in faults]
        # Not vacuous: the program's lanes rode the vector engine.
        assert stats["engine_downgrade_reason"] is None
        assert stats["vector_faults"] == len(faults)
        assert stats["activated"] > 0
