"""AST node utilities: traversal, cloning, substitution, builders."""

import dataclasses
import functools
import os
import subprocess
import sys
from typing import Optional

import pytest

import repro
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
from repro.npc.pipeline import compile_np, enumerate_configs
from repro.testing.fuzzgen import generate


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
# The clone/walk contract over the paper kernels, their NP variants, fuzz
# kernels and a kernel of the unary operators
# ---------------------------------------------------------------------------

_MUTABLE = (n.Node, list, dict)
_SHARED_LEAVES = (n.ScalarType, n.PointerType, n.ArrayType, SourceLoc)

#: The first kernels of the CI fuzz sweep's base seed: they add ``While``,
#: ``Break`` and ``Continue``, which no paper kernel has.
FUZZ_SEEDS = range(20260808, 20260808 + 50)

#: ``BoolLit`` and every unary operator, under an NP loop so the compiled
#: variants carry them too.
UNARY_KERNEL = """
__global__ void unary(float *a, int *b, int n) {
    bool flag = true;
    int x = b[threadIdx.x];
    float s = 0;
    #pragma np parallel for reduction(+:s)
    for (int i = 0; i < n; i++) {
        if (!flag || ~x < 0) s += -a[i];
    }
    a[threadIdx.x] = s;
}
"""

#: Every Node class defined in nodes.py; the three bases are abstract.
NODE_CLASSES = [
    c for c in vars(n).values() if isinstance(c, type) and issubclass(c, n.Node)
]
CONCRETE_NODE_CLASSES = set(NODE_CLASSES) - {n.Node, n.Expr, n.Stmt}


def _with_variants(kernel, configs, compile_variant) -> list:
    trees = [kernel]
    for config in configs:
        try:
            trees.append(compile_variant(config).kernel)
        except MiniCudaError:
            continue
    return trees


@functools.lru_cache(maxsize=None)
def _corpus(name: str) -> list:
    """The trees of one corpus entry: a paper kernel as parsed, then every
    compiled variant of it (padded ones included); the fuzz kernels; or the
    unary kernel and its variants."""
    if name in BENCHMARKS:
        bench = BENCHMARKS[name]()
        return _with_variants(
            parse_kernel(bench.source),
            bench.configs(include_padded=True),
            bench.compile_variant,
        )
    if name == "fuzz":
        return [parse_kernel(generate(seed).source) for seed in FUZZ_SEEDS]
    kernel = parse_kernel(UNARY_KERNEL)
    return _with_variants(
        kernel,
        enumerate_configs(kernel, 32, include_padded=True),
        lambda config: compile_np(kernel, 32, config),
    )


CORPUS = sorted(BENCHMARKS) + ["fuzz", "unary"]


@pytest.fixture(scope="module", params=CORPUS)
def corpus_trees(request) -> list:
    return _corpus(request.param)


def _reachable(root) -> list:
    """Every object reachable from ``root`` through node attributes, lists,
    tuples and dicts, once per path (a shared object appears twice)."""
    out = []
    stack = [root]
    while stack:
        obj = stack.pop()
        out.append(obj)
        if isinstance(obj, n.Node):
            values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
            stack.extend(reversed(values))
        elif isinstance(obj, (list, tuple)):
            stack.extend(reversed(obj))
        elif isinstance(obj, dict):
            stack.extend(reversed(list(obj.values())))
    return out


def _reference_children(node) -> list:
    out = []
    for f in dataclasses.fields(node):
        if f.name == "loc":
            continue
        value = getattr(node, f.name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, n.Node):
                out.append(item)
    return out


def _reference_preorder(node) -> list:
    out = [node]
    for kid in _reference_children(node):
        out.extend(_reference_preorder(kid))
    return out


def _reference_expr_postorder(node) -> list:
    """The Exprs below ``node`` in the order ``map_expr`` hands them to its
    callback: each after its children, children in source order."""
    out = []
    for kid in _reference_children(node):
        out.extend(_reference_expr_postorder(kid))
    if isinstance(node, n.Expr):
        out.append(node)
    return out


def _identical(got: list, want: list) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def _map_recording(tree) -> tuple:
    """``map_expr(tree, identity)`` and the Exprs its callback saw."""
    seen = []

    def record(expr):
        seen.append(expr)
        return expr

    return n.map_expr(tree, record), seen


class TestTreeContract:
    def test_no_node_reachable_twice(self, corpus_trees):
        for tree in corpus_trees:
            mutable = [o for o in _reachable(tree) if isinstance(o, _MUTABLE)]
            assert len({id(o) for o in mutable}) == len(mutable), tree.name

    def test_clone_equals_and_emits_same_source(self, corpus_trees):
        for tree in corpus_trees:
            copy = n.clone(tree)
            assert copy == tree
            assert emit_kernel(copy) == emit_kernel(tree)

    def test_clone_copies_structure_and_shares_leaves(self, corpus_trees):
        for tree in corpus_trees:
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

    def test_walk_is_recursive_preorder(self, corpus_trees):
        for tree in corpus_trees:
            got, want = list(n.walk(tree)), _reference_preorder(tree)
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want)), tree.name

    def test_children_in_source_order(self, corpus_trees):
        for tree in corpus_trees:
            for node in n.walk(tree):
                assert _identical(list(n.children(node)), _reference_children(node))

    def test_map_expr_identity_equals_and_emits_same_source(self, corpus_trees):
        for tree in corpus_trees:
            copy = n.map_expr(tree, lambda expr: expr)
            assert copy == tree
            assert emit_kernel(copy) == emit_kernel(tree)

    def test_map_expr_copies_nodes_and_lists_and_shares_leaves(self, corpus_trees):
        new = (n.Node, list)
        for tree in corpus_trees:
            source = _reachable(tree)
            copy = _reachable(n.map_expr(tree, lambda expr: expr))
            assert [type(o) for o in source] == [type(o) for o in copy]
            source_ids = {id(o) for o in source if isinstance(o, new)}
            assert not any(
                id(o) in source_ids for o in copy if isinstance(o, new)
            ), tree.name
            leaves = [
                (a, b) for a, b in zip(source, copy) if isinstance(a, _SHARED_LEAVES)
            ]
            assert leaves and all(a is b for a, b in leaves), tree.name

    def test_map_expr_calls_back_once_per_expr_children_first(self, corpus_trees):
        for tree in corpus_trees:
            copy, seen = _map_recording(tree)
            assert _identical(seen, _reference_expr_postorder(copy)), tree.name
            assert seen == _reference_expr_postorder(tree)


def test_walk_descends_into_children_replaced_during_the_walk():
    stmt = if_(e("c"), [assign("x", 1)], [assign("y", 2)])
    seen = []
    for node in n.walk(stmt):
        seen.append(node)
        if isinstance(node, n.If):
            node.then = n.Block([assign("z", 3)])
    assert "z" in {x.id for x in seen if isinstance(x, n.Name)}
    assert "x" not in {x.id for x in seen if isinstance(x, n.Name)}


def test_corpus_covers_every_node_class():
    """The contract tests above trust ``walk`` and ``clone`` on every node
    class, so the corpus must hold each one (``Program`` is never built
    by the parser or a pass)."""
    seen = {
        type(node) for key in CORPUS for tree in _corpus(key) for node in n.walk(tree)
    }
    assert seen == CONCRETE_NODE_CLASSES - {n.Program}


def test_walk_does_not_descend_into_dicts():
    """``Program.kernels`` and ``Kernel.const_env`` are dicts: ``walk``
    yields neither their values nor anything below them."""
    kernel = parse_kernel("__global__ void k(int *a) { a[0] = 1; }")
    hidden = kernel.const_env["hidden"] = n.IntLit(7)
    program = n.Program(kernels={"k": kernel})
    assert list(n.walk(program)) == [program]
    assert all(node is not hidden for node in n.walk(kernel))


# ---------------------------------------------------------------------------
# Slotted nodes: one object per node, one shared default location
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cls",
    NODE_CLASSES + [n.ScalarType, n.PointerType, n.ArrayType, SourceLoc],
    ids=lambda cls: cls.__name__,
)
def test_class_is_slotted(cls):
    """A class without ``slots=True`` would give every node a ``__dict__``
    again, one more object per node for the garbage collector."""
    assert "__slots__" in vars(cls)
    assert not hasattr(object.__new__(cls), "__dict__")


def test_nodes_built_without_a_location_share_one():
    assert name("x").loc is n.NO_LOC
    assert assign("x", 1).loc is n.NO_LOC
    assert n.Block().loc is n.NO_LOC


def test_clone_creates_no_source_loc():
    tree = parse_kernel(BENCHMARKS["LE"]().source)
    locs = {id(o) for o in _reachable(tree) if isinstance(o, SourceLoc)}
    copied = [o for o in _reachable(n.clone(tree)) if isinstance(o, SourceLoc)]
    assert copied and {id(o) for o in copied} <= locs


# ---------------------------------------------------------------------------
# Per-class traversal functions
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class Clamp(n.Expr):
    """An Expr class declared outside nodes.py, with a Node field, an
    optional one, a list of nodes and a leaf."""

    value: n.Expr
    bounds: list[n.Expr]
    fallback: Optional[n.Expr] = None
    mode: str = "sat"


@dataclasses.dataclass(slots=True)
class TaggedBinary(n.Binary):
    """A subclass of a nodes.py class: it needs functions of its own, or a
    copy would lose its type and its ``tag``."""

    tag: str = ""


def test_node_classes_declared_elsewhere_are_traversed_alike():
    n.clone(add(1, 2))  # Binary's functions exist before TaggedBinary's
    clamp = Clamp(add(name("x"), 1), [e(0), e("hi")], mode="wrap")
    tagged = TaggedBinary("*", clamp, name("y"), tag="t")
    tree = block(assign("z", tagged), n.ExprStmt(Clamp(name("w"), [], e("x"))))

    assert _identical(list(n.walk(tree)), _reference_preorder(tree))
    assert _identical(list(n.children(clamp)), _reference_children(clamp))

    copy = n.clone(tree)
    assert copy == tree
    source, copied = _reachable(tree), _reachable(copy)
    assert [type(o) for o in source] == [type(o) for o in copied]
    source_ids = {id(o) for o in source if isinstance(o, _MUTABLE)}
    assert not any(id(o) in source_ids for o in copied if isinstance(o, _MUTABLE))
    assert all(a is b for a, b in zip(source, copied) if isinstance(a, str))
    assert type(copy.stmts[0].value) is TaggedBinary
    assert copy.stmts[0].value.tag == "t"

    mapped, seen = _map_recording(tree)
    assert mapped == tree
    assert _identical(seen, _reference_expr_postorder(mapped))
    assert {type(x) for x in seen} >= {Clamp, TaggedBinary}

    out = n.substitute(tree, {"x": n.IntLit(5)})
    assert "x" not in n.names_used(out) and "x" in n.names_used(tree)


def test_import_generates_no_traversal_function():
    """Each class's functions are generated on its first visit, never at
    import, so a process that parses nothing pays nothing for them."""
    code = (
        "import repro.minicuda.nodes as n, repro.npc.pipeline\n"
        "print(len(n._CLONE), len(n._PUSH), len(n._MAP))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert done.stdout.split() == ["0", "0", "0"]
