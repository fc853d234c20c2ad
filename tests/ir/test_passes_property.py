"""Property test: the optimisation pipeline preserves semantics.

Hypothesis generates random straight-line MiniC-like computations over
a handful of variables plus a small mutable global array; the program is
interpreted before and after `optimize_module` and must produce the same
return value and memory.  Besides the front end's shape (fresh temporary,
then a copy into the variable), steps also redefine a register in place
(``x = add x, y``, ``p = load [p + 0]``) and reload a slot across a
store, the cases local CSE and copy propagation must kill correctly.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro.ir import BinOp, Cmp, Const, Load, ModuleBuilder, Sym, run_module
from repro.ir.passes import optimize_module

_N_VARS = 4
_OPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr", "shra"]
_CMPS = ["eq", "lt", "ult", "ge"]
_VAR = st.integers(0, _N_VARS - 1)
_PTR = st.integers(0, 1)

# One step of the random program, interpreted against an environment of
# virtual registers v0..v3, pointer registers p0..p1, a 4-word global g
# and a 4-word ring "links" (laid out after g) whose words point into
# itself, so chasing a pointer always stays in bounds.
_step = st.one_of(
    st.tuples(st.just("bin"), st.sampled_from(_OPS),
              st.integers(0, _N_VARS - 1), st.integers(0, _N_VARS - 1),
              st.integers(0, _N_VARS - 1)),
    st.tuples(st.just("const"), st.integers(0, _N_VARS - 1),
              st.integers(-(2 ** 31), 2 ** 31 - 1)),
    st.tuples(st.just("copy"), st.integers(0, _N_VARS - 1),
              st.integers(0, _N_VARS - 1)),
    st.tuples(st.just("cmp"), st.sampled_from(_CMPS),
              st.integers(0, _N_VARS - 1), st.integers(0, _N_VARS - 1),
              st.integers(0, _N_VARS - 1)),
    st.tuples(st.just("load"), st.integers(0, _N_VARS - 1),
              st.integers(0, 3)),
    st.tuples(st.just("store"), st.integers(0, _N_VARS - 1),
              st.integers(0, 3)),
    st.tuples(st.just("bin_in_place"), st.sampled_from(_OPS), _VAR, _VAR,
              st.booleans()),
    st.tuples(st.just("cmp_in_place"), st.sampled_from(_CMPS), _VAR, _VAR,
              st.booleans()),
    st.tuples(st.just("chase"), _PTR, _PTR),
    st.tuples(st.just("reload"), _VAR, _VAR, st.integers(0, 3),
              st.integers(0, 3)),
)


def _build(steps):
    mb = ModuleBuilder()
    mb.global_array("g", 4, [3, 1, 4, 1])
    mb.global_array("links", 4, [5, 6, 7, 4])
    fb = mb.function("main")
    fb.set_block(fb.new_block("entry"))
    env = [fb.copy(seed, hint=f"v{i}") for i, seed in
           enumerate((1, 2, 3, 4))]
    ptrs = [fb.copy(seed, hint=f"p{i}") for i, seed in enumerate((4, 6))]
    emit = fb.current_block.instrs.append
    for step in steps:
        kind = step[0]
        if kind == "bin":
            _, op, dst, a, b = step
            fb.copy_to(env[dst], fb.binop(op, env[a], env[b]))
        elif kind == "const":
            _, dst, value = step
            fb.copy_to(env[dst], value)
        elif kind == "copy":
            _, dst, src = step
            fb.copy_to(env[dst], env[src])
        elif kind == "cmp":
            _, op, dst, a, b = step
            fb.copy_to(env[dst], fb.cmp(op, env[a], env[b]))
        elif kind == "load":
            _, dst, slot = step
            fb.copy_to(env[dst], fb.load(Sym("g"), slot))
        elif kind == "store":
            _, src, slot = step
            fb.store(env[src], Sym("g"), slot)
        elif kind in ("bin_in_place", "cmp_in_place"):
            _, op, dst, other, dst_first = step
            a, b = env[dst], env[other]
            if not dst_first:
                a, b = b, a
            emit((BinOp if kind == "bin_in_place" else Cmp)(op, env[dst], a, b))
        elif kind == "chase":
            _, dst, src = step
            emit(Load(ptrs[dst], ptrs[src], Const(0)))
        elif kind == "reload":
            _, dst, src, slot, other_slot = step
            first = fb.load(Sym("g"), slot)
            fb.store(env[src], Sym("g"), other_slot)
            second = fb.load(Sym("g"), slot)
            fb.copy_to(env[dst], fb.binop("sub", first, second))
    checksum = env[0]
    for reg in env[1:] + ptrs:
        checksum = fb.binop("xor", checksum, reg)
    fb.ret(checksum)
    return mb.build()


def _observe(module):
    interp = run_module(module, mem_words=256)
    return (interp.result, interp.read_global("g"),
            interp.read_global("links"))


@settings(max_examples=60, deadline=None)
@given(st.lists(_step, min_size=0, max_size=40))
def test_pipeline_preserves_semantics(steps):
    module = _build(steps)
    before = _observe(_build(steps))
    optimize_module(module)
    after = _observe(module)
    assert after == before
