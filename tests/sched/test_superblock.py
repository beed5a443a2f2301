"""Tests for superblock assembly: elision, fusing, hazards, predicates."""

import pytest

from repro.arch.operations import default_costs
from repro.ir.builder import KernelBuilder
from repro.sched.predication import PredPlanner
from repro.sched.schedule import PredRef, SchedulingError
from repro.sched.superblock import build_superblock


def simple_kernel():
    kb = KernelBuilder("k")
    x = kb.param("x")
    y = kb.param("y")
    add = kb.binop("IADD", kb.read(x), kb.read(y))
    kb.write(x, add)
    kernel = kb.finish(results=[x])
    return kernel, kb


class TestElision:
    def test_reads_and_consts_elided(self):
        kb = KernelBuilder("k")
        x = kb.param("x")
        add = kb.binop("IADD", kb.read(x), kb.const(5))
        kb.write(x, add)
        kernel = kb.finish(results=[x])
        sb = build_superblock(list(kernel.body.items), None, PredPlanner())
        opcodes = {item.opcode for item in sb.items.values()}
        assert "VARREAD" not in opcodes
        assert "CONST" not in opcodes
        (item,) = sb.items.values()  # the IADD with fused write
        kinds = [op.kind for op in item.operands]
        assert kinds == ["var", "const"]

    def test_fusion_single_consumer(self):
        kernel, _ = simple_kernel()
        sb = build_superblock(list(kernel.body.items), None, PredPlanner())
        assert len(sb.items) == 1
        item = next(iter(sb.items.values()))
        assert item.opcode == "IADD"
        assert item.dest_var is not None and item.dest_var.name == "x"
        assert item.fused_write is not None
        assert sb.fused_writes  # recorded for the scheduler

    def test_no_fusion_with_two_consumers(self):
        kb = KernelBuilder("k")
        x = kb.param("x")
        y = kb.param("y")
        add = kb.binop("IADD", kb.read(x), kb.read(y))
        kb.write(x, add)
        mul = kb.binop("IMUL", add, add)  # second consumer of add
        kb.write(y, mul)
        kernel = kb.finish(results=[x, y])
        sb = build_superblock(list(kernel.body.items), None, PredPlanner())
        writes = [i for i in sb.items.values() if i.opcode == "VARWRITE"]
        assert len(writes) == 1  # x's write kept, y's write fused into mul

    def test_var_to_var_move_not_fused(self):
        kb = KernelBuilder("k")
        x = kb.param("x")
        y = kb.local("y")
        kb.write(y, kb.read(x))
        kernel = kb.finish(results=[y])
        sb = build_superblock(list(kernel.body.items), None, PredPlanner())
        (item,) = sb.items.values()
        assert item.opcode == "VARWRITE"
        assert item.operands[0].kind == "var"


class TestHazards:
    def test_cross_block_war(self):
        """A write in a later region must wait for earlier readers."""
        kb = KernelBuilder("k")
        x = kb.param("x")
        y = kb.local("y")
        add = kb.binop("IADD", kb.read(x), kb.const(1))
        kb.write(y, add)
        kb.if_(
            lambda: kb.cmp("IFGT", kb.read(y), kb.const(0)),
            lambda: kb.write(x, kb.const(9)),
        )
        kernel = kb.finish(results=[x, y])
        planner = PredPlanner()
        sb = build_superblock(list(kernel.body.items), None, planner)
        # the write of x (in the then branch) depends on the IADD that
        # read x (possibly via its fused write)
        write_x = [
            i
            for i in sb.items.values()
            if i.dest_var is not None and i.dest_var.name == "x"
        ]
        assert write_x, "x write item missing"
        assert write_x[0].deps, "WAR hazard across blocks lost"

    def test_waw_ordering(self):
        kb = KernelBuilder("k")
        x = kb.param("x")
        kb.write(x, kb.const(1))
        kb.write(x, kb.const(2))
        kernel = kb.finish(results=[x])
        sb = build_superblock(list(kernel.body.items), None, PredPlanner())
        writes = sorted(
            (i for i in sb.items.values() if i.opcode == "VARWRITE"),
            key=lambda i: i.key,
        )
        assert len(writes) == 2
        assert writes[0].key in writes[1].deps


def if_kernel():
    kb = KernelBuilder("k")
    x = kb.param("x")
    kb.if_(
        lambda: kb.cmp("IFGT", kb.read(x), kb.const(0)),
        lambda: kb.write(x, kb.binop("IADD", kb.read(x), kb.const(1))),
        lambda: kb.write(x, kb.binop("ISUB", kb.read(x), kb.const(1))),
    )
    return kb.finish(results=[x])


class TestPredicates:
    def test_then_else_sides(self):
        kernel = if_kernel()
        planner = PredPlanner()
        sb = build_superblock(list(kernel.body.items), None, planner)
        preds = {
            i.opcode: i.pred
            for i in sb.items.values()
            if i.pred is not None
        }
        assert preds["IADD"].positive is True
        assert preds["ISUB"].positive is False
        assert preds["IADD"].pair == preds["ISUB"].pair
        assert len(sb.pairs) == 1

    def test_cond_compare_unpredicated(self):
        kernel = if_kernel()
        planner = PredPlanner()
        sb = build_superblock(list(kernel.body.items), None, planner)
        compares = [i for i in sb.items.values() if i.node.is_compare]
        assert len(compares) == 1
        assert compares[0].pred is None
        assert compares[0].cond_step is not None

    def test_nested_if_forks(self):
        kb = KernelBuilder("k")
        x = kb.param("x")

        def outer_cond():
            return kb.cmp("IFGT", kb.read(x), kb.const(0))

        def outer_then():
            kb.if_(
                lambda: kb.cmp("IFLT", kb.read(x), kb.const(100)),
                lambda: kb.write(x, kb.const(1)),
            )

        kb.if_(outer_cond, outer_then)
        kernel = kb.finish(results=[x])
        planner = PredPlanner()
        sb = build_superblock(list(kernel.body.items), None, planner)
        assert len(sb.pairs) == 2
        inner_cmp = [
            i
            for i in sb.items.values()
            if i.node.is_compare and i.node.opcode == "IFLT"
        ][0]
        # the inner compare itself runs under the outer predicate and
        # its step forks from it
        assert inner_cmp.pred is not None
        from repro.arch.cbox import CBoxFunc

        assert inner_cmp.cond_step.func is CBoxFunc.FORK_AND

    def test_priorities_positive_and_chain_ordered(self):
        kernel = if_kernel()
        sb = build_superblock(list(kernel.body.items), None, PredPlanner())
        for item in sb.items.values():
            assert item.priority >= 1


def _items_by_node(sb):
    return {item.node.id: item for item in sb.items.values()}


class TestPriorities:
    """Longest-path priorities (Section V-F) on ``SBItem.priority``."""

    def test_chain_weights_decrease(self):
        kb = KernelBuilder("k")
        x = kb.param("x")
        a = kb.binop("IADD", kb.read(x), kb.const(1))
        b = kb.binop("IMUL", a, kb.const(2))
        kb.write(x, b)
        kernel = kb.finish(results=[x])
        sb = build_superblock(list(kernel.body.items), None, PredPlanner())
        items = _items_by_node(sb)
        # the write fuses into the IMUL: a two-item chain IADD -> IMUL
        assert set(items) == {a.id, b.id}
        mul_duration = default_costs("IMUL").duration
        assert items[b.id].priority == mul_duration
        assert items[a.id].priority == mul_duration + 1

    def test_independent_chains(self):
        kb = KernelBuilder("k")
        x = kb.param("x")
        y = kb.param("y")
        long_chain = kb.binop("IADD", kb.read(x), kb.const(1))
        head = long_chain
        for _ in range(4):
            long_chain = kb.binop("IADD", long_chain, kb.const(1))
        kb.write(x, long_chain)
        short = kb.binop("IADD", kb.read(y), kb.const(1))
        kb.write(y, short)
        kernel = kb.finish(results=[x, y])
        sb = build_superblock(list(kernel.body.items), None, PredPlanner())
        items = _items_by_node(sb)
        assert items[head.id].priority == 5
        assert items[short.id].priority == 1

    def test_respects_edges(self):
        kernel = if_kernel()
        sb = build_superblock(list(kernel.body.items), None, PredPlanner())
        assert any(sb.succs.values())
        for key, succs in sb.succs.items():
            for succ in succs:
                assert sb.items[key].priority > sb.items[succ].priority

    def test_dependence_cycle_raises(self):
        kb = KernelBuilder("k")
        x = kb.param("x")
        add = kb.binop("IADD", kb.read(x), kb.const(1))
        mul = kb.binop("IMUL", add, kb.const(2))
        kb.write(x, mul)
        kernel = kb.finish(results=[x])
        add.deps.append(mul)  # artificial cycle: add <-> mul
        with pytest.raises(SchedulingError, match="dependence cycle"):
            build_superblock(list(kernel.body.items), None, PredPlanner())
