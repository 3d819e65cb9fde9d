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
children in source order (field declaration order, list items in order).
It reads, per node class, only the fields whose declared type can hold a
Node or a list; dict-valued fields (``Kernel.const_env``,
``Program.kernels``) are not descended.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union, get_args, get_origin, get_type_hints

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

#: Per node class, filled on the class's first visit: the names of all its
#: dataclass fields (``loc`` included), and of the fields whose declared
#: type can hold a Node or a list, both in declaration (= source) order.
#: Leaves such as ``Name`` and ``IntLit`` have no child fields, so a walk
#: reads no field of theirs.
_FIELDS: dict[type, tuple[tuple[str, ...], tuple[str, ...]]] = {}


def _holds_children(tp) -> bool:
    """Whether a field declared ``tp`` can hold a Node or a list (a dict
    cannot: traversal does not descend into dicts)."""
    origin = get_origin(tp)
    if origin is Union:
        return any(_holds_children(arg) for arg in get_args(tp))
    if origin is not None:
        return origin is list
    return isinstance(tp, type) and issubclass(tp, (Node, list))


def _fields(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(all fields, child fields)`` of node class ``cls``."""
    tables = _FIELDS.get(cls)
    if tables is None:
        hints = get_type_hints(cls)
        names = tuple(f.name for f in fields(cls))
        kids = tuple(name for name in names if _holds_children(hints[name]))
        tables = _FIELDS[cls] = (names, kids)
    return tables


#: The containers :func:`clone` copies; every other value is a shared leaf.
_COPIED = (Node, list, dict)


def clone(node):
    """Structurally copy an AST node (or a list or dict of nodes).

    Every Node, list and dict below ``node`` is a new object; every other
    value is an immutable leaf and is shared with the source (see the
    module docstring).  The source tree has no shared subtrees, so neither
    does the copy.
    """
    if isinstance(node, Node):
        new = object.__new__(type(node))
        for name in _fields(type(node))[0]:
            value = getattr(node, name)
            setattr(new, name, clone(value) if isinstance(value, _COPIED) else value)
        return new
    if isinstance(node, list):
        return [clone(v) if isinstance(v, _COPIED) else v for v in node]
    if isinstance(node, dict):
        return {k: clone(v) if isinstance(v, _COPIED) else v for k, v in node.items()}
    return node


def _push_children(stack: list, node: Node) -> None:
    """Append the direct child nodes of ``node`` to ``stack`` in reverse
    source order, so that popping them yields source order."""
    for name in reversed(_fields(type(node))[1]):
        value = getattr(node, name)
        if isinstance(value, Node):
            stack.append(value)
        elif isinstance(value, list):
            stack += [item for item in reversed(value) if isinstance(item, Node)]


def children(node: Node) -> Iterator[Node]:
    """Yield direct child nodes of ``node`` in source order."""
    kids: list[Node] = []
    _push_children(kids, node)
    yield from reversed(kids)


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants, pre-order: a node, then each
    child's subtree in source order.

    A node's children are read only when the caller resumes after receiving
    that node, so a caller may replace the visited node's child fields
    (``body``, ``stmts``, ...) and the walk descends into the new children.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        _push_children(stack, node)


def names_used(node: Node) -> set[str]:
    """All :class:`Name` identifiers appearing anywhere below ``node``."""
    return {n.id for n in walk(node) if isinstance(n, Name)}


def map_expr(node, fn):
    """Return a copy of ``node`` with every :class:`Expr` descendant replaced
    by ``fn(expr)`` (applied bottom-up).  ``fn`` must return an Expr.
    """
    if not isinstance(node, Node):
        return node
    names, kids = _fields(type(node))
    new = object.__new__(type(node))
    for name in names:
        setattr(new, name, getattr(node, name))
    for name in kids:
        value = getattr(node, name)
        if isinstance(value, Node):
            setattr(new, name, map_expr(value, fn))
        elif isinstance(value, list):
            setattr(
                new,
                name,
                [map_expr(v, fn) if isinstance(v, Node) else v for v in value],
            )
    if isinstance(new, Expr):
        new = fn(new)
    return new


def substitute(node, mapping: dict[str, Expr]):
    """Replace free ``Name`` occurrences per ``mapping`` (returns a copy)."""

    def repl(e: Expr) -> Expr:
        if isinstance(e, Name) and e.id in mapping:
            return clone(mapping[e.id])
        return e

    return map_expr(node, repl)
