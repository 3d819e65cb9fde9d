"""AST node utilities: traversal, cloning, substitution, builders."""

import dataclasses

import pytest

from repro.kernels import BENCHMARKS
from repro.minicuda import nodes as n
from repro.minicuda.build import (
    add,
    assign,
    block,
    call,
    decl,
    e,
    for_range,
    if_,
    ix,
    name,
    sync,
)
from repro.minicuda.errors import MiniCudaError, SourceLoc
from repro.minicuda.parser import parse_kernel
from repro.minicuda.pretty import emit_kernel


def test_scalar_type_validation():
    with pytest.raises(ValueError):
        n.ScalarType("double")


def test_array_type_validation():
    with pytest.raises(ValueError):
        n.ArrayType(n.FLOAT, (0,))
    with pytest.raises(ValueError):
        n.ArrayType(n.FLOAT, (4,), "heap")


def test_array_numel():
    assert n.ArrayType(n.FLOAT, (4, 8)).numel == 32


def test_walk_visits_all_names():
    kernel = parse_kernel(
        "__global__ void t(float *a, int w) {"
        " int x = w + 1; if (x > 0) a[x] = (float)x; }"
    )
    assert n.names_used(kernel.body) == {"a", "w", "x"}


def test_children_order():
    stmt = if_(e("c"), [assign("x", 1)], [assign("y", 2)])
    kids = list(n.children(stmt))
    assert isinstance(kids[0], n.Name)
    assert isinstance(kids[1], n.Block)
    assert isinstance(kids[2], n.Block)


def test_clone_is_deep():
    loop = for_range("i", 0, 8, [assign(ix("a", "i"), 0)])
    copy = n.clone(loop)
    copy.body.stmts[0].value = n.IntLit(9)
    assert loop.body.stmts[0].value.value == 0


def test_substitute_replaces_free_names():
    expr = add(name("x"), add(name("y"), name("x")))
    out = n.substitute(expr, {"x": n.IntLit(5)})
    found = [node.value for node in n.walk(out) if isinstance(node, n.IntLit)]
    assert found == [5, 5]
    # original untouched
    assert n.names_used(expr) == {"x", "y"}


def test_map_expr_bottom_up():
    expr = add(name("a"), name("b"))

    def repl(node):
        if isinstance(node, n.Name):
            return n.IntLit(1)
        return node

    out = n.map_expr(expr, repl)
    assert isinstance(out.lhs, n.IntLit) and isinstance(out.rhs, n.IntLit)


class TestBuilders:
    def test_e_coercion(self):
        assert isinstance(e(3), n.IntLit)
        assert isinstance(e(1.5), n.FloatLit)
        assert isinstance(e("x"), n.Name)
        member = e("threadIdx.x")
        assert isinstance(member, n.Member) and member.name == "x"

    def test_e_rejects_unknown(self):
        with pytest.raises(TypeError):
            e(object())

    def test_ix_multi(self):
        expr = ix("t", 1, 2)
        assert isinstance(expr, n.Index) and isinstance(expr.base, n.Index)

    def test_for_range_shape(self):
        loop = for_range("i", 2, "n", [sync()], step=3)
        assert isinstance(loop.init, n.VarDecl)
        assert loop.cond.op == "<"
        assert loop.update.value.value == 3

    def test_block_flattens(self):
        b = block(assign("x", 1), [assign("y", 2), assign("z", 3)])
        assert len(b.stmts) == 3

    def test_if_wraps_single_stmt(self):
        stmt = if_(e(1), assign("x", 1))
        assert isinstance(stmt.then, n.Block)

    def test_call_builder(self):
        c = call("fminf", 1.0, "x")
        assert c.func == "fminf" and len(c.args) == 2

    def test_decl_builder(self):
        d = decl("x", n.FLOAT, 0.0)
        assert d.name == "x" and isinstance(d.init, n.FloatLit)


# ---------------------------------------------------------------------------
# The clone/walk contract over the paper kernels and their NP variants
# ---------------------------------------------------------------------------

_MUTABLE = (n.Node, list, dict)
_SHARED_LEAVES = (n.ScalarType, n.PointerType, n.ArrayType, SourceLoc)


@pytest.fixture(scope="module", params=sorted(BENCHMARKS))
def paper_trees(request) -> list:
    """A paper kernel as parsed, then every compiled variant of it (padded
    ones included)."""
    bench = BENCHMARKS[request.param]()
    trees = [parse_kernel(bench.source)]
    for config in bench.configs(include_padded=True):
        try:
            trees.append(bench.compile_variant(config).kernel)
        except MiniCudaError:
            continue
    return trees


def _reachable(root) -> list:
    """Every object reachable from ``root`` through node attributes, lists,
    tuples and dicts, once per path (a shared object appears twice)."""
    out = []
    stack = [root]
    while stack:
        obj = stack.pop()
        out.append(obj)
        if isinstance(obj, n.Node):
            stack.extend(reversed(list(vars(obj).values())))
        elif isinstance(obj, (list, tuple)):
            stack.extend(reversed(obj))
        elif isinstance(obj, dict):
            stack.extend(reversed(list(obj.values())))
    return out


def _reference_preorder(node) -> list:
    out = [node]
    for f in dataclasses.fields(node):
        if f.name == "loc":
            continue
        value = getattr(node, f.name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, n.Node):
                out.extend(_reference_preorder(item))
    return out


class TestTreeContract:
    def test_no_node_reachable_twice(self, paper_trees):
        for tree in paper_trees:
            mutable = [o for o in _reachable(tree) if isinstance(o, _MUTABLE)]
            assert len({id(o) for o in mutable}) == len(mutable), tree.name

    def test_clone_equals_and_emits_same_source(self, paper_trees):
        for tree in paper_trees:
            copy = n.clone(tree)
            assert copy == tree
            assert emit_kernel(copy) == emit_kernel(tree)

    def test_clone_copies_structure_and_shares_leaves(self, paper_trees):
        for tree in paper_trees:
            source, copy = _reachable(tree), _reachable(n.clone(tree))
            assert [type(o) for o in source] == [type(o) for o in copy]
            source_ids = {id(o) for o in source if isinstance(o, _MUTABLE)}
            assert not any(
                id(o) in source_ids for o in copy if isinstance(o, _MUTABLE)
            ), tree.name
            leaves = [
                (a, b) for a, b in zip(source, copy) if isinstance(a, _SHARED_LEAVES)
            ]
            assert {type(a) for a, _ in leaves} >= {n.ScalarType, SourceLoc}
            assert all(a is b for a, b in leaves), tree.name

    def test_walk_is_recursive_preorder(self, paper_trees):
        for tree in paper_trees:
            got, want = list(n.walk(tree)), _reference_preorder(tree)
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want)), tree.name


def test_walk_descends_into_children_replaced_during_the_walk():
    stmt = if_(e("c"), [assign("x", 1)], [assign("y", 2)])
    seen = []
    for node in n.walk(stmt):
        seen.append(node)
        if isinstance(node, n.If):
            node.then = n.Block([assign("z", 3)])
    assert "z" in {x.id for x in seen if isinstance(x, n.Name)}
    assert "x" not in {x.id for x in seen if isinstance(x, n.Name)}
