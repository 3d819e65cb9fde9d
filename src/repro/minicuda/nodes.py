"""AST node definitions for the mini-CUDA language.

All nodes are plain dataclasses with ``slots=True``, so a node is one
object with no per-instance ``__dict__`` (assigning an undeclared
attribute raises).  A node built without a location shares the one
:data:`NO_LOC`.  Transform passes produce *new* trees via :func:`clone`
plus targeted rewrites; nothing in the compiler mutates a tree it does not
own.

Trees are trees: no :class:`Node`, list or dict object is reachable twice
from one root, either after parsing or after any pass.  Everything else a
node holds is an immutable leaf (the frozen types, :class:`SourceLoc`,
str, int, float, bool, None, tuples of those), which copies share.
:func:`clone` relies on that contract: it copies the Node/list/dict
structure and shares the leaves.  :func:`walk` visits a tree pre-order,
children in source order (field declaration order, list items in order);
dict-valued fields (``Kernel.const_env``, ``Program.kernels``) are not
descended.

:func:`clone`, :func:`walk`, :func:`children` and :func:`map_expr`
dispatch on a node's exact class to straight-line functions generated for
that class on its first visit, the way :mod:`dataclasses` generates
``__init__``.  Their source is built from the class's field names alone,
with the declared field types choosing each field's line, so no kernel
text or other program input can reach it: the kernel server parses
untrusted kernels.  A walk reads only the fields whose declared type can
hold a Node or a list, so a visit of a leaf such as ``Name`` reads none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Optional, Union, get_args, get_origin, get_type_hints

from .errors import SourceLoc

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

#: Scalar type names understood by the language.
SCALAR_TYPES = ("void", "int", "uint", "float", "bool")


@dataclass(frozen=True, slots=True)
class ScalarType:
    """A scalar value type: ``int``, ``uint``, ``float``, ``bool``, ``void``."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in SCALAR_TYPES:
            raise ValueError(f"unknown scalar type {self.name!r}")

    def __str__(self) -> str:
        return {"uint": "unsigned int"}.get(self.name, self.name)


INT = ScalarType("int")
UINT = ScalarType("uint")
FLOAT = ScalarType("float")
BOOL = ScalarType("bool")
VOID = ScalarType("void")


@dataclass(frozen=True, slots=True)
class PointerType:
    """A pointer to global memory (kernel parameters) or to a local slice."""

    elem: ScalarType

    def __str__(self) -> str:
        return f"{self.elem}*"


@dataclass(frozen=True, slots=True)
class ArrayType:
    """A statically sized array in a specific memory space.

    ``space`` is one of ``"local"`` (per-thread, i.e. CUDA local memory when
    it does not fit the register file), ``"shared"`` (per thread block),
    ``"constant"``, or ``"reg"`` — a small per-thread array the backend
    promotes into the register file (produced by the CUDA-NP local-array
    partitioning, which the paper instantiates via ``template<int
    slave_size>`` so indices become compile-time constants).
    """

    elem: ScalarType
    dims: tuple[int, ...]
    space: str = "local"

    def __post_init__(self) -> None:
        if self.space not in ("local", "shared", "constant", "reg"):
            raise ValueError(f"bad array space {self.space!r}")
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ValueError(f"bad array dims {self.dims!r}")

    @property
    def numel(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def __str__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.dims)
        prefix = {
            "shared": "__shared__ ",
            "constant": "__constant__ ",
            "local": "",
            "reg": "",
        }[self.space]
        return f"{prefix}{self.elem}{dims}"


Type = Union[ScalarType, PointerType, ArrayType]

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


#: The location of every node built without one (by a pass or a
#: :mod:`repro.minicuda.build` helper rather than the parser).  One object
#: serves them all: ``SourceLoc`` is frozen and ``loc`` takes no part in
#: ``==``.
NO_LOC = SourceLoc()


@dataclass(slots=True)
class Node:
    """Common base so passes can test ``isinstance(x, Node)``."""

    loc: SourceLoc = field(default=NO_LOC, kw_only=True, compare=False)


@dataclass(slots=True)
class Expr(Node):
    pass


@dataclass(slots=True)
class IntLit(Expr):
    value: int


@dataclass(slots=True)
class FloatLit(Expr):
    value: float


@dataclass(slots=True)
class BoolLit(Expr):
    value: bool


@dataclass(slots=True)
class Name(Expr):
    """A reference to a variable, parameter, or named constant."""

    id: str


@dataclass(slots=True)
class Member(Expr):
    """``base.name`` — in practice only builtin dim3 members (threadIdx.x)."""

    base: Expr
    name: str


@dataclass(slots=True)
class Index(Expr):
    """``base[index]``; multi-dimensional access is a chain of Index nodes."""

    base: Expr
    index: Expr


@dataclass(slots=True)
class Call(Expr):
    """A builtin/device function call, e.g. ``sqrtf(x)`` or ``__shfl(...)``."""

    func: str
    args: list[Expr]


@dataclass(slots=True)
class Unary(Expr):
    op: str  # '-', '+', '!', '~'
    operand: Expr


@dataclass(slots=True)
class Binary(Expr):
    op: str  # arithmetic, comparison, logical, bitwise, shifts
    lhs: Expr
    rhs: Expr


@dataclass(slots=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    els: Expr


@dataclass(slots=True)
class Cast(Expr):
    type: ScalarType
    expr: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Stmt(Node):
    pass


@dataclass(slots=True)
class VarDecl(Stmt):
    """A single variable declaration, possibly with an initializer.

    Scalars live in the (virtual) register file; arrays carry their memory
    space in their :class:`ArrayType`.  Pointer declarations are used by
    generated code to alias a kernel parameter plus offset.
    """

    name: str
    type: Type
    init: Optional[Expr] = None
    const: bool = False


@dataclass(slots=True)
class Assign(Stmt):
    """``target op value`` where op is '=', '+=', '-=', '*=', '/='."""

    target: Expr  # Name or Index chain
    op: str
    value: Expr


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(slots=True)
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: Block = field(default_factory=Block)
    els: Optional[Block] = None


@dataclass(slots=True)
class NpPragma(Node):
    """A parsed ``#pragma np parallel for`` directive (see paper §3.6)."""

    parallel_for: bool = True
    reductions: list[tuple[str, str]] = field(default_factory=list)  # (op, var)
    scans: list[tuple[str, str]] = field(default_factory=list)
    copyins: list[str] = field(default_factory=list)
    num_threads: Optional[int] = None
    np_type: Optional[str] = None  # 'inter' | 'intra'
    sm_version: Optional[int] = None


@dataclass(slots=True)
class For(Stmt):
    init: Optional[Stmt]  # VarDecl or Assign
    cond: Optional[Expr]
    update: Optional[Stmt]  # Assign
    body: Block = field(default_factory=Block)
    pragma: Optional[NpPragma] = None


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: Block = field(default_factory=Block)


@dataclass(slots=True)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(slots=True)
class Break(Stmt):
    pass


@dataclass(slots=True)
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Param(Node):
    name: str
    type: Type


@dataclass(slots=True)
class Kernel(Node):
    """A ``__global__`` function."""

    name: str
    params: list[Param] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    #: Compile-time constants visible inside the kernel (e.g. slave_size for
    #: generated variants — the paper emits ``template<int slave_size>``; we
    #: bind the instantiated value here instead).
    const_env: dict[str, int] = field(default_factory=dict)
    #: For compiler-generated kernels: which source kernel and transform
    #: produced this one (surfaced by fault diagnostics so a crash in
    #: generated code points back at its origin).  None for hand-written
    #: kernels.
    provenance: Optional[str] = None

    def param_names(self) -> list[str]:
        return [p.name for p in self.params]


@dataclass(slots=True)
class Program(Node):
    kernels: dict[str, Kernel] = field(default_factory=dict)
    defines: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


class _ByType(dict):
    """A traversal's function per exact value type.

    A miss on a :class:`Node` class generates that class's functions for
    all three traversals (:func:`_specialize`); a miss on any other type
    stores ``fallback(cls)``.
    """

    __slots__ = ("fallback",)

    def __init__(self, fallback) -> None:
        super().__init__()
        self.fallback = fallback

    def __missing__(self, cls: type):
        if issubclass(cls, Node):
            _specialize(cls)
            return self[cls]
        fn = self[cls] = self.fallback(cls)
        return fn


def _same(value):
    return value


def _no_children(stack: list, value) -> None:
    pass


def _map_leaf(value, fn):
    return value


def _clone_list(items: list) -> list:
    return [_CLONE[type(v)](v) for v in items]


def _clone_dict(items: dict) -> dict:
    return {k: _CLONE[type(v)](v) for k, v in items.items()}


def _clone_fallback(cls: type):
    if issubclass(cls, list):
        return _clone_list
    return _clone_dict if issubclass(cls, dict) else _same


#: ``clone`` per type: the class's generated copy for a Node, a new
#: container for a list or dict, the value itself for a leaf.
_CLONE = _ByType(_clone_fallback)
#: ``walk``'s child push per Node class; other values have no children.
_PUSH = _ByType(lambda cls: _no_children)
#: ``map_expr`` per Node class; other values map to themselves.
_MAP = _ByType(lambda cls: _map_leaf)


def _kinds(tp) -> set[str]:
    """What a field declared ``tp`` can hold: ``"node"``, ``"list"``,
    ``"dict"``, ``"none"``, ``"leaf"``, or ``"any"`` for a declaration that
    names no class."""
    origin = get_origin(tp)
    if origin is Union:
        return set().union(*map(_kinds, get_args(tp)))
    tp = origin or tp
    if tp is type(None):
        return {"none"}
    if tp is Any or not isinstance(tp, type):
        return {"any"}
    for kind, base in (("node", Node), ("list", list), ("dict", dict)):
        if issubclass(tp, base):
            return {kind}
    return {"leaf"}


def _specialize(cls: type) -> None:
    """Generate ``cls``'s clone, child push and map functions and enter
    them in :data:`_CLONE`, :data:`_PUSH` and :data:`_MAP`.

    Each function is straight-line code over the class's fields, compiled
    from a source built, like a dataclass ``__init__``, from the field
    names alone (every one checked to be an identifier).  No kernel text
    or other program input reaches that source, so parsing an untrusted
    kernel cannot inject code.  A field's declared type picks its code:
    a leaf type is shared, a Node type is copied or mapped through the
    per-type tables and pushed unless None, a ``list[...]`` gets a new
    list, and any other type (a dict) is copied by :func:`clone` and
    shared by :func:`map_expr`; neither ``walk`` nor ``map_expr`` descends
    into it.
    """
    hints = get_type_hints(cls)
    copy, pushes, mapped = [], [], []
    for f in fields(cls):
        name = f.name
        if not name.isidentifier():
            raise TypeError(f"{cls.__name__} field {name!r} is not an identifier")
        tp = hints[name]
        kinds = _kinds(tp)
        value = f"node.{name}"
        if kinds <= {"leaf", "none"}:
            copy.append(f"new.{name} = {value}")
            mapped.append(f"new.{name} = {value}")
        elif kinds == {"list"}:
            copy.append(f"new.{name} = [C[type(x)](x) for x in {value}]")
            mapped.append(f"new.{name} = [M[type(x)](x, fn) for x in {value}]")
            item = get_args(tp)
            if not item or _kinds(item[0]) & {"node", "any"}:
                pushes.append(
                    [f"stack += [x for x in reversed({value}) if isinstance(x, Node)]"]
                )
        elif kinds <= {"node", "none"}:
            keep = "v if v is None else " if "none" in kinds else ""
            copy += [f"v = {value}", f"new.{name} = {keep}C[type(v)](v)"]
            mapped += [f"v = {value}", f"new.{name} = {keep}M[type(v)](v, fn)"]
            pushes.append([f"v = {value}", "if v is not None:", "    stack.append(v)"])
        elif kinds & {"node", "list"}:
            raise TypeError(f"{cls.__name__}.{name}: cannot traverse {tp!r}")
        else:
            copy += [f"v = {value}", f"new.{name} = C[type(v)](v)"]
            mapped.append(f"new.{name} = {value}")
    push = [line for lines in reversed(pushes) for line in lines] or ["pass"]
    result = "fn(new)" if issubclass(cls, Expr) else "new"
    source = "\n".join(
        ["def clone(node):", "    new = new_(cls)"]
        + [f"    {line}" for line in copy]
        + ["    return new", "def push(stack, node):"]
        + [f"    {line}" for line in push]
        + ["def map_expr(node, fn):", "    new = new_(cls)"]
        + [f"    {line}" for line in mapped]
        + [f"    return {result}"]
    )
    namespace = {
        "cls": cls, "new_": object.__new__, "C": _CLONE, "M": _MAP, "Node": Node
    }
    exec(compile(source, f"<traversal of {cls.__qualname__}>", "exec"), namespace)
    _CLONE[cls] = namespace["clone"]
    _PUSH[cls] = namespace["push"]
    _MAP[cls] = namespace["map_expr"]


def clone(node):
    """Structurally copy an AST node (or a list or dict of nodes).

    Every Node, list and dict below ``node`` is a new object; every other
    value is an immutable leaf and is shared with the source (see the
    module docstring).  The source tree has no shared subtrees, so neither
    does the copy.
    """
    return _CLONE[type(node)](node)


def children(node: Node) -> Iterator[Node]:
    """Yield direct child nodes of ``node`` in source order."""
    kids: list[Node] = []
    _PUSH[type(node)](kids, node)
    yield from reversed(kids)


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants, pre-order: a node, then each
    child's subtree in source order.

    A node's children are read only when the caller resumes after receiving
    that node, so a caller may replace the visited node's child fields
    (``body``, ``stmts``, ...) and the walk descends into the new children.
    """
    push = _PUSH
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        push[type(node)](stack, node)


def names_used(node: Node) -> set[str]:
    """All :class:`Name` identifiers appearing anywhere below ``node``."""
    return {n.id for n in walk(node) if isinstance(n, Name)}


def map_expr(node, fn):
    """Return a copy of ``node`` with every :class:`Expr` descendant replaced
    by ``fn(expr)`` (applied bottom-up).  ``fn`` must return an Expr.

    The copy's nodes and list fields are new; its other fields, dicts
    included, are shared with ``node``.  A value that is not a Node is
    returned as it is.
    """
    return _MAP[type(node)](node, fn)


def substitute(node, mapping: dict[str, Expr]):
    """Replace free ``Name`` occurrences per ``mapping`` (returns a copy)."""

    def repl(e: Expr) -> Expr:
        if isinstance(e, Name) and e.id in mapping:
            return clone(mapping[e.id])
        return e

    return map_expr(node, repl)
