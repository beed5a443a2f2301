"""Tests for the loop graph."""

from repro.ir.frontend import IntArray, compile_kernel
from repro.ir.loops import LoopGraph


def k_triple(n: int, a: IntArray, b: IntArray, c: IntArray) -> int:
    i = 0
    while i < n:
        j = 0
        while j < n:
            acc = 0
            k = 0
            while k < n:
                acc += a[i * n + k] * b[k * n + j]
                k += 1
            c[i * n + j] = acc
            j += 1
        i += 1
    return i


class TestLoopGraph:
    def test_nesting_depths(self):
        kernel = compile_kernel(k_triple)
        lg = LoopGraph(kernel)
        assert len(lg.loops) == 3
        depths = sorted(lg.depth_of_loop(l) for l in lg.loops)
        assert depths == [1, 2, 3]

    def test_parent_chain(self):
        kernel = compile_kernel(k_triple)
        lg = LoopGraph(kernel)
        inner = [l for l in lg.loops if lg.depth_of_loop(l) == 3][0]
        mid = lg.parent(inner)
        outer = lg.parent(mid)
        assert lg.parent(outer) is None
        assert lg.children(outer) == (mid,)
        assert lg.children(inner) == ()

    def test_node_membership(self):
        kernel = compile_kernel(k_triple)
        lg = LoopGraph(kernel)
        # header compare of the outer loop belongs to the outer loop
        outer = [l for l in lg.loops if lg.depth_of_loop(l) == 1][0]
        for cmp_node in outer.controlling_nodes():
            assert lg.loop_of(cmp_node) is outer
            assert lg.depth(cmp_node) == 1

    def test_top_level_nodes_have_no_loop(self):
        kernel = compile_kernel(k_triple)
        lg = LoopGraph(kernel)
        first_block = next(kernel.blocks())
        for node in first_block.node_list:
            assert lg.loop_of(node) is None
            assert lg.depth(node) == 0

    def test_enclosing_chain(self):
        kernel = compile_kernel(k_triple)
        lg = LoopGraph(kernel)
        inner = [l for l in lg.loops if lg.depth_of_loop(l) == 3][0]
        some_node = inner.header.node_list[0]
        chain = lg.enclosing_chain(some_node)
        assert len(chain) == 3
        assert chain[0] is inner

    def test_same_loop(self):
        kernel = compile_kernel(k_triple)
        lg = LoopGraph(kernel)
        inner = [l for l in lg.loops if lg.depth_of_loop(l) == 3][0]
        nodes = inner.header.node_list
        assert lg.same_loop(nodes[0], nodes[-1])

