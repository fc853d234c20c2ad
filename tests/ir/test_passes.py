"""Optimisation passes: targeted rewrites plus semantic preservation."""

import time

import pytest

from repro.ir import (
    BinOp, Copy, ModuleBuilder, Sym, run_module, verify_module,
)
from repro.ir.instructions import Cmp, Load, Store
from repro.ir.passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_const_loads,
    fold_constants,
    optimize_function,
    optimize_module,
    propagate_copies,
    simplify_cfg,
)
from repro.ir.values import Const


def _function(body, globals_spec=()):
    mb = ModuleBuilder()
    for name, size, init, *rest in globals_spec:
        mb.global_array(name, size, init,
                        immutable=bool(rest and rest[0]))
    fb = mb.function("main")
    fb.set_block(fb.new_block("entry"))
    body(fb)
    return mb.build(), mb.module.functions["main"]


class TestConstFold:
    def test_const_binop_folds(self):
        module, function = _function(
            lambda fb: fb.ret(fb.binop("add", 2, 3)))
        fold_constants(function)
        assert isinstance(function.entry.instrs[0], Copy)
        assert run_module(module).result == 5

    def test_identities(self):
        def body(fb):
            x = fb.binop("add", fb.params[0] if fb.params else 0, 0)
            fb.ret(x)

        mb = ModuleBuilder()
        fb = mb.function("main", ["x"])
        fb.set_block(fb.new_block("entry"))
        t = fb.binop("add", fb.params[0], 0)
        fb.ret(t)
        function = mb.module.functions["main"]
        assert fold_constants(function) == 1
        assert isinstance(function.entry.instrs[0], Copy)

    def test_mul_by_power_of_two_becomes_shift(self):
        mb = ModuleBuilder()
        fb = mb.function("main", ["x"])
        fb.set_block(fb.new_block("entry"))
        fb.ret(fb.binop("mul", fb.params[0], 8))
        function = mb.module.functions["main"]
        fold_constants(function)
        instr = function.entry.instrs[0]
        assert isinstance(instr, BinOp) and instr.op == "shl"
        assert instr.b == Const(3)

    def test_div_by_zero_left_for_runtime(self):
        module, function = _function(
            lambda fb: fb.ret(fb.binop("div", 4, 0)))
        assert fold_constants(function) == 0

    def test_cmp_folds(self):
        module, function = _function(lambda fb: fb.ret(fb.cmp("lt", 2, 3)))
        fold_constants(function)
        assert isinstance(function.entry.instrs[0], Copy)


class TestCopyProp:
    def test_chain_collapses(self):
        mb = ModuleBuilder()
        fb = mb.function("main", ["x"])
        fb.set_block(fb.new_block("entry"))
        a = fb.copy(fb.params[0])
        b = fb.copy(a)
        fb.ret(fb.binop("add", b, 1))
        function = mb.module.functions["main"]
        optimize_function(function)
        # After propagation + DCE only the add and ret remain.
        assert len(function.entry.instrs) == 2

    def test_redefinition_blocks_propagation(self):
        mb = ModuleBuilder()
        fb = mb.function("main", ["x", "y"])
        fb.set_block(fb.new_block("entry"))
        a = fb.vreg("a")
        fb.copy_to(a, fb.params[0])
        fb.copy_to(a, fb.params[1])       # kills the first copy
        fb.ret(a)
        module = mb.build()
        function = module.functions["main"]
        propagate_copies(function)
        # The final value must still be y.
        from repro.ir import Interpreter
        interp = Interpreter(module, mem_words=64)
        assert interp.call("main", [10, 20]) == 20

    def test_source_redefinition_kills_every_copy(self):
        mb = ModuleBuilder()
        fb = mb.function("main", ["x"])
        fb.set_block(fb.new_block("entry"))
        x = fb.params[0]
        a = fb.copy(x)
        b = fb.copy(x)
        fb.copy_to(x, 5)                   # kills a -> x and b -> x
        fb.ret(fb.binop("add", a, b))
        module = mb.build()
        assert propagate_copies(module.functions["main"]) == 0
        assert run_module(module, args=[10]).result == 20


class TestCse:
    def test_repeated_expression_shared(self):
        mb = ModuleBuilder()
        fb = mb.function("main", ["x", "y"])
        fb.set_block(fb.new_block("entry"))
        a = fb.binop("mul", fb.params[0], fb.params[1])
        b = fb.binop("mul", fb.params[0], fb.params[1])
        fb.ret(fb.binop("add", a, b))
        function = mb.module.functions["main"]
        assert eliminate_common_subexpressions(function) == 1

    def test_commutative_canonicalisation(self):
        mb = ModuleBuilder()
        fb = mb.function("main", ["x", "y"])
        fb.set_block(fb.new_block("entry"))
        a = fb.binop("add", fb.params[0], fb.params[1])
        b = fb.binop("add", fb.params[1], fb.params[0])
        fb.ret(fb.binop("xor", a, b))
        function = mb.module.functions["main"]
        assert eliminate_common_subexpressions(function) == 1

    def test_store_kills_loads(self):
        mb = ModuleBuilder()
        mb.global_array("g", 4)
        fb = mb.function("main", ["x"])
        fb.set_block(fb.new_block("entry"))
        first = fb.load(Sym("g"), 0)
        fb.store(fb.params[0], Sym("g"), 0)
        second = fb.load(Sym("g"), 0)
        fb.ret(fb.binop("add", first, second))
        function = mb.module.functions["main"]
        eliminate_common_subexpressions(function)
        loads = [i for i in function.entry.instrs if isinstance(i, Load)]
        # Second load must NOT be CSEd with the first (store between)...
        assert len(loads) >= 1
        # ...but store-to-load forwarding may replace it with the stored
        # value; either way semantics hold:
        from repro.ir import Interpreter
        interp = Interpreter(mb.build(), mem_words=64)
        assert interp.call("main", [9]) == 9

    def test_redundant_load_eliminated(self):
        mb = ModuleBuilder()
        mb.global_array("g", 4, [5])
        fb = mb.function("main")
        fb.set_block(fb.new_block("entry"))
        first = fb.load(Sym("g"), 0)
        second = fb.load(Sym("g"), 0)
        fb.ret(fb.binop("add", first, second))
        function = mb.module.functions["main"]
        assert eliminate_common_subexpressions(function) == 1


    def test_self_redefinition_not_remembered(self):
        # x = add x, 1 computes a value that "add x, 1" no longer
        # describes once x changed; y must not become a copy of x.
        mb = ModuleBuilder()
        fb = mb.function("main", ["x"])
        fb.set_block(fb.new_block("entry"))
        x = fb.params[0]
        fb.current_block.instrs.append(BinOp("add", x, x, Const(1)))
        fb.ret(fb.binop("add", x, 1))
        module = mb.build()
        assert eliminate_common_subexpressions(module.functions["main"]) == 0
        assert run_module(module, args=[10]).result == 12

    def test_self_redefining_cmp_not_remembered(self):
        mb = ModuleBuilder()
        fb = mb.function("main", ["x"])
        fb.set_block(fb.new_block("entry"))
        x = fb.params[0]
        fb.current_block.instrs.append(Cmp("eq", x, x, Const(0)))
        fb.ret(fb.cmp("eq", x, 0))
        module = mb.build()
        eliminate_common_subexpressions(module.functions["main"])
        # x == 0 -> x = 1 -> (1 == 0) = 0.
        assert run_module(module, args=[0]).result == 0

    def test_load_redefining_its_base_not_remembered(self):
        # g is laid out at address 0 and links each word to the next.
        mb = ModuleBuilder()
        mb.global_array("g", 4, [1, 2, 3, 0])
        fb = mb.function("main", ["p"])
        fb.set_block(fb.new_block("entry"))
        p = fb.params[0]
        fb.current_block.instrs.append(Load(p, p, Const(0)))
        fb.ret(fb.load(p, 0))
        module = mb.build()
        eliminate_common_subexpressions(module.functions["main"])
        assert run_module(module, args=[0]).result == 2

    def test_redefined_stored_value_not_forwarded(self):
        mb = ModuleBuilder()
        mb.global_array("g", 4, [5])
        fb = mb.function("main", ["x"])
        fb.set_block(fb.new_block("entry"))
        first = fb.load(Sym("g"), 0)
        fb.store(fb.params[0], Sym("g"), 0)
        fb.copy_to(fb.params[0], 7)       # stales the forwarded value
        second = fb.load(Sym("g"), 0)
        fb.ret(fb.binop("add", first, second))
        module = mb.build()
        assert eliminate_common_subexpressions(module.functions["main"]) == 0
        assert run_module(module, args=[9]).result == 14


class TestDce:
    def test_dead_chain_removed(self):
        mb = ModuleBuilder()
        fb = mb.function("main", ["x"])
        fb.set_block(fb.new_block("entry"))
        a = fb.binop("add", fb.params[0], 1)
        b = fb.binop("mul", a, 2)          # dead
        fb.binop("xor", b, 3)              # dead
        fb.ret(a)
        function = mb.module.functions["main"]
        removed = eliminate_dead_code(function)
        assert removed == 2
        assert len(function.entry.instrs) == 2

    def test_stores_and_calls_never_removed(self):
        mb = ModuleBuilder()
        mb.global_array("g", 1)
        callee = mb.function("effectful")
        callee.set_block(callee.new_block("entry"))
        callee.store(1, Sym("g"), 0)
        callee.ret(0)
        fb = mb.function("main")
        fb.set_block(fb.new_block("entry"))
        fb.call("effectful", [])
        fb.store(2, Sym("g"), 0)
        fb.ret(0)
        function = mb.module.functions["main"]
        assert eliminate_dead_code(function) <= 1  # only the call result


class TestSimplifyCfg:
    def test_constant_branch_folds(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        entry = fb.new_block("entry")
        yes = fb.new_block("yes")
        no = fb.new_block("no")
        fb.set_block(entry)
        fb.cond_br(1, yes, no)
        fb.set_block(yes)
        fb.ret(1)
        fb.set_block(no)
        fb.ret(0)
        function = mb.module.functions["main"]
        simplify_cfg(function)
        # The 'no' block became unreachable and was removed; yes merged.
        assert run_module(mb.build()).result == 1
        assert len(function.blocks) == 1

    def test_jump_threading(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        entry = fb.new_block("entry")
        hop = fb.new_block("hop")
        final = fb.new_block("final")
        fb.set_block(entry)
        fb.br(hop)
        fb.set_block(hop)
        fb.br(final)
        fb.set_block(final)
        fb.ret(7)
        function = mb.module.functions["main"]
        simplify_cfg(function)
        assert len(function.blocks) == 1
        assert run_module(mb.build()).result == 7

    def test_self_loop_not_broken(self):
        mb = ModuleBuilder()
        fb = mb.function("main")
        entry = fb.new_block("entry")
        loop = fb.new_block("loop")
        fb.set_block(entry)
        fb.br(loop)
        fb.set_block(loop)
        fb.br(loop)
        function = mb.module.functions["main"]
        simplify_cfg(function)  # must not crash or mis-thread
        verify_module(mb.build())


class TestConstLoads:
    def test_const_table_load_folds(self):
        module, function = _function(
            lambda fb: fb.ret(fb.load(Sym("table"), 2)),
            globals_spec=[("table", 4, [10, 20, 30, 40], True)],
        )
        assert fold_const_loads(function, module) == 1
        assert run_module(module).result == 30

    def test_mutable_global_not_folded(self):
        module, function = _function(
            lambda fb: fb.ret(fb.load(Sym("table"), 2)),
            globals_spec=[("table", 4, [10, 20, 30, 40], False)],
        )
        assert fold_const_loads(function, module) == 0

    def test_variable_index_not_folded(self):
        mb = ModuleBuilder()
        mb.global_array("table", 4, [1, 2, 3, 4], immutable=True)
        fb = mb.function("main", ["i"])
        fb.set_block(fb.new_block("entry"))
        fb.ret(fb.load(Sym("table"), fb.params[0]))
        function = mb.module.functions["main"]
        assert fold_const_loads(function, mb.build()) == 0

    def test_uninitialised_tail_folds_to_zero(self):
        module, function = _function(
            lambda fb: fb.ret(fb.load(Sym("table"), 3)),
            globals_spec=[("table", 4, [10], True)],
        )
        fold_const_loads(function, module)
        assert run_module(module).result == 0


class TestPipeline:
    def test_optimize_module_verifies(self):
        module, _ = _function(lambda fb: fb.ret(fb.binop("add", 1, 2)))
        optimize_module(module)
        assert run_module(module).result == 3

    def test_fixpoint_terminates(self):
        module, function = _function(
            lambda fb: fb.ret(fb.binop("add", 1, 2)))
        first = optimize_function(function)
        second = optimize_function(function)
        assert second == 0

    def test_long_block_optimises_in_linear_time(self):
        # 4000 chained add/xor expressions, each copied into a fresh
        # register, keep thousands of CSE and copy entries live at once.
        # Per-instruction scans of them take over a minute; the indexed
        # passes take a fraction of a second.
        mb = ModuleBuilder()
        fb = mb.function("main", ["x", "y"])
        fb.set_block(fb.new_block("entry"))
        x, y = fb.params
        value = x
        for i in range(4000):
            op = "add" if i % 2 else "xor"
            value = fb.copy(fb.binop(op, value, y if i % 3 else i))
        fb.ret(value)
        module = mb.build()
        start = time.perf_counter()
        optimize_module(module)
        assert time.perf_counter() - start < 3.0
