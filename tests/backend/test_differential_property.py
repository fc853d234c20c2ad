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
reference, fast and trace engines, including paused-and-resumed runs.
It checks a fixed, derandomised corpus by default; loading the
``cross-engine-wide`` profile (``tests/conftest.py``) with
``--hypothesis-profile=cross-engine-wide --hypothesis-seed=N`` widens it
to 300 seeded programs.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.backend import compile_minic_to_epic
from repro.baseline import Sa110Simulator, compile_minic_to_armlet
from repro.config import epic_config, epic_with_alus
from repro.core import EpicProcessor
from repro.ir import run_module
from repro.lang import compile_minic
from repro.perf.bench import stats_fingerprint

_VARS = ["v0", "v1", "v2", "v3"]
_ARRAY = "garr"
_ARRAY_SIZE = 6
_BINOPS = ["+", "-", "*", "&", "|", "^"]
_CMPS = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def expressions(draw, depth=0):
    choice = draw(st.integers(0, 5 if depth < 3 else 2))
    if choice == 0:
        return str(draw(st.integers(-100, 100)))
    if choice == 1:
        return draw(st.sampled_from(_VARS))
    if choice == 2:
        index = draw(st.integers(0, _ARRAY_SIZE - 1))
        return f"{_ARRAY}[{index}]"
    if choice == 3:
        op = draw(st.sampled_from(_BINOPS))
        left = draw(expressions(depth=depth + 1))
        right = draw(expressions(depth=depth + 1))
        return f"({left} {op} {right})"
    if choice == 4:
        op = draw(st.sampled_from(["&", ">>"]))
        inner = draw(expressions(depth=depth + 1))
        amount = draw(st.integers(0, 7))
        return f"(({inner}) {op} {amount})" if op == ">>" \
            else f"(({inner}) & {amount})"
    op = draw(st.sampled_from(_CMPS))
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    return f"({left} {op} {right})"


@st.composite
def statements(draw, depth=0, in_loop=False):
    choice = draw(st.integers(0, 4 if depth < 2 else 1))
    if choice == 0:
        target = draw(st.sampled_from(_VARS))
        value = draw(expressions())
        return f"{target} = {value};"
    if choice == 1:
        index = draw(st.integers(0, _ARRAY_SIZE - 1))
        value = draw(expressions())
        return f"{_ARRAY}[{index}] = {value};"
    if choice == 2:
        cond = draw(expressions())
        then = draw(blocks(depth=depth + 1, in_loop=in_loop))
        if draw(st.booleans()):
            els = draw(blocks(depth=depth + 1, in_loop=in_loop))
            return f"if ({cond}) {{ {then} }} else {{ {els} }}"
        return f"if ({cond}) {{ {then} }}"
    if choice == 3:
        # Bounded loop over a depth-unique induction variable: nested
        # loops must never share one, or an inner loop can reset the
        # outer induction and the program never terminates.
        trips = draw(st.integers(1, 5))
        body = draw(blocks(depth=depth + 1, in_loop=True))
        var = f"idx{depth}"
        return (f"for ({var} = 0; {var} < {trips}; {var} += 1) "
                f"{{ {body} }}")
    # Compound assignment.
    target = draw(st.sampled_from(_VARS))
    op = draw(st.sampled_from(["+=", "-=", "^=", "|="]))
    value = draw(expressions())
    return f"{target} {op} {value};"


@st.composite
def blocks(draw, depth=0, in_loop=False):
    count = draw(st.integers(1, 3))
    return " ".join(
        draw(statements(depth=depth, in_loop=in_loop)) for _ in range(count)
    )


@st.composite
def programs(draw):
    body = " ".join(draw(statements()) for _ in range(draw(st.integers(1, 6))))
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
@given(programs(), st.sampled_from([1, 4]), st.integers(1, 8),
       st.integers(0, 99))
def test_random_programs_agree_across_engines(source, n_alus, cap,
                                              pause_percent):
    # Hotness 1 compiles a trace at every taken-branch target, and caps
    # of 1-8 bundles cut chains mid-block, so linked traces, cap-cut
    # chains and trimmed chains all form on these small programs.
    config = epic_with_alus(n_alus)
    compilation = compile_minic_to_epic(source, config)
    base = compilation.symbols[_ARRAY]

    def machine():
        return EpicProcessor(config, compilation.program, mem_words=4096,
                             trace_hotness=1, trace_cap=cap)

    def observe(cpu):
        return (stats_fingerprint(cpu.stats), cpu.gpr.read(2),
                [cpu.memory.read(base + i) for i in range(_ARRAY_SIZE)])

    reference = machine()
    reference.run(max_cycles=2_000_000, engine="reference")
    expected = observe(reference)
    pause_at = 1 + reference.stats.cycles * pause_percent // 100
    for engine in ("fast", "trace"):
        cpu = machine()
        cpu.run(max_cycles=2_000_000, engine=engine)
        assert cpu.last_engine == engine
        assert observe(cpu) == expected, engine
        # Paused at a drawn cycle, then resumed to the end.
        cpu = machine()
        result = cpu.run(max_cycles=2_000_000, engine=engine,
                         until_cycle=pause_at)
        while not result.halted:
            result = cpu.run(max_cycles=2_000_000, engine=engine)
        assert observe(cpu) == expected, (engine, pause_at)
