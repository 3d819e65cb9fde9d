"""Shared pieces of the lowering engine, and its digest-keyed cache.

The megablock engine (:mod:`repro.gpusim.megablock`) lowers a kernel AST
*once* into a tree of specialized Python closures over batched lane arrays.
This module holds what that lowering builds on and what other callers
import:

* the fast binary operators (:data:`FAST_BINARY_IMPLS`), each a
  line-for-line mirror of its interpreter counterpart with only the *costs*
  removed: per-op ``np.errstate`` (hoisted to one guard around the whole
  batch), ``np.issubdtype`` dtype tests (replaced by ``dtype.kind`` checks)
  and redundant ``astype`` copies (``copy=False`` — safe because evaluation
  results are never mutated in place).  That mirroring is how the
  differential tests can demand *bit-identical* outputs against the
  interpreter;
* small closure helpers (literals, names, deferred errors, lane-mask tests);
* the three kernel analyses the launch ladder consults
  (:func:`kernel_uses_atomics`, :func:`kernel_flatten_safe`,
  :func:`kernel_atomic_order_free`);
* :func:`kernel_digest` and the digest-keyed LRU that makes lowering a
  once-per-source cost shared by ``launch()``, the autotuner and the oracle.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..minicuda.nodes import (
    ArrayType,
    Assign,
    Block,
    Break,
    Call,
    Continue,
    ExprStmt,
    For,
    If,
    Index,
    Kernel,
    Name,
    PointerType,
    Return,
    VarDecl,
    While,
    walk,
)
from ..minicuda.pretty import emit_kernel
from .errors import MemoryFault, SimError
from .interp import (
    BINARY_IMPLS,
    WARP_SIZE,
    _resolve_index_chain,
    PointerValue,
)
from .memory import GlobalBuffer, dtype_for

#: ``fn(ctx, mask)``: every lowered expression and statement closure.
ClosureFn = Callable[[object, np.ndarray], object]


def _stmt_loc(node) -> Optional[object]:
    loc = getattr(node, "loc", None)
    if loc is not None and loc.line:
        return loc
    return None


def _raising(exc_type, message, loc=None) -> ClosureFn:
    """A closure that defers a statically-detected error to run time, so the
    lowered engine reports it with the same warp/line attribution as the
    interpreter (which only discovers it upon execution)."""

    def fn(ctx, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        raise exc_type(message)

    return fn


# ---------------------------------------------------------------------------
# Fast-path numeric implementations
#
# Each function here mirrors an interpreter helper line for line; only the
# overheads differ (see the module docstring).  ``MegablockExecutor.run``
# holds one ``np.errstate(all="ignore")`` around the whole batch, which is
# what the interpreter's per-op guards amount to, so these impls omit them.
# ---------------------------------------------------------------------------


def _mask_any(m: np.ndarray) -> bool:
    """``bool(m.any())`` for a lane mask, without the ufunc-reduce machinery.

    Lane masks are always products of numpy boolean ops (comparisons,
    ``&``/``|``/``~``, ``astype(bool)``), which store exactly 0x00/0x01 per
    lane, so a byte scan is equivalent and ~6x faster on 32 lanes.
    """
    return b"\x01" in m.tobytes()


def _and_not(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a & ~b for bool lane masks in a single ufunc: True>False is the only
    # pair that compares greater.
    return np.greater(a, b)


def _fast_c_int_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Mirrors interp._c_int_div (C truncating division).
    safe_b = np.where(b == 0, 1, b)
    q = np.abs(a) // np.abs(safe_b)
    q = (np.sign(a) * np.sign(safe_b)).astype(q.dtype) * q
    return np.where(b == 0, 0, q).astype(np.result_type(a, b), copy=False)


def _fast_c_int_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    q = _fast_c_int_div(a, b)
    return (a - q * np.where(b == 0, 1, b)).astype(
        np.result_type(a, b), copy=False
    )


def _make_fast_bitwise_impl(fn):
    def impl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return fn(
            a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
        ).astype(np.int32)

    return impl


def _make_fast_arith_impl(fop, iop):
    # `dtype.kind == "f"` is interp._is_float (issubdtype(.., floating))
    # without the numpy class-hierarchy walk.
    def impl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            return fop(
                a.astype(np.float32, copy=False),
                b.astype(np.float32, copy=False),
            ).astype(np.float32, copy=False)
        ai = a.astype(np.int32) if a.dtype.kind == "b" else a
        bi = b.astype(np.int32) if b.dtype.kind == "b" else b
        return iop(ai, bi).astype(np.result_type(ai, bi), copy=False)

    return impl


def _make_fast_int_special_impl(fop, ifn):
    def impl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            return fop(
                a.astype(np.float32, copy=False),
                b.astype(np.float32, copy=False),
            ).astype(np.float32, copy=False)
        ai = a.astype(np.int32) if a.dtype.kind == "b" else a
        bi = b.astype(np.int32) if b.dtype.kind == "b" else b
        return ifn(ai, bi)

    return impl


#: Same keys and bit-identical results as interp.BINARY_IMPLS.
FAST_BINARY_IMPLS: dict = {
    "&&": lambda a, b: a.astype(bool, copy=False) & b.astype(bool, copy=False),
    "||": lambda a, b: a.astype(bool, copy=False) | b.astype(bool, copy=False),
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "&": _make_fast_bitwise_impl(np.bitwise_and),
    "|": _make_fast_bitwise_impl(np.bitwise_or),
    "^": _make_fast_bitwise_impl(np.bitwise_xor),
    "<<": _make_fast_bitwise_impl(np.left_shift),
    ">>": _make_fast_bitwise_impl(np.right_shift),
    "+": _make_fast_arith_impl(np.add, np.add),
    "-": _make_fast_arith_impl(np.subtract, np.subtract),
    "*": _make_fast_arith_impl(np.multiply, np.multiply),
    "/": _make_fast_int_special_impl(np.divide, _fast_c_int_div),
    "%": _make_fast_int_special_impl(np.fmod, _fast_c_int_mod),
}

assert FAST_BINARY_IMPLS.keys() == BINARY_IMPLS.keys()


# ---------------------------------------------------------------------------
# Small closure helpers
# ---------------------------------------------------------------------------


def _compile_literal(values: np.ndarray) -> ClosureFn:
    values.flags.writeable = False

    def fn(ctx, mask: np.ndarray):
        return values

    return fn


def _compile_name(name: str) -> ClosureFn:
    # Scalar kernel params broadcast to the same (block-invariant) lane
    # vector on every read; cache the read-only broadcast per value.  Keys are ("i"/"f", value)
    # tuples because int and float keys of equal value collide in a dict.
    broadcasts: dict = {}

    def fn(ctx, mask: np.ndarray):
        try:
            value = ctx.env[name]
        except KeyError as exc:
            raise SimError(f"undefined variable {name!r}") from exc
        if value.__class__ is np.ndarray:
            return value
        if isinstance(value, (int, np.integer)):
            key = ("i", int(value))
            arr = broadcasts.get(key)
            if arr is None:
                arr = np.full(WARP_SIZE, key[1], dtype=np.int32)
                arr.flags.writeable = False
                broadcasts[key] = arr
            return arr
        if isinstance(value, float):
            key = ("f", value)
            arr = broadcasts.get(key)
            if arr is None:
                arr = np.full(WARP_SIZE, value, dtype=np.float32)
                arr.flags.writeable = False
                broadcasts[key] = arr
            return arr
        if isinstance(value, GlobalBuffer):
            return PointerValue(value, np.zeros(WARP_SIZE, dtype=np.int64))
        return value

    return fn


def _has_flow(block: Block) -> bool:
    """Whether the loop body can park lanes via break/continue/return."""
    return any(
        isinstance(n, (Break, Continue, Return)) for n in walk(block)
    )


def _plain_iterator(body_fn: ClosureFn, ctx, mask: np.ndarray):
    """The warp generator of a barrier-free body: it runs to completion on
    the first ``next()``."""
    body_fn(ctx, mask)
    return
    yield  # pragma: no cover - makes this function a generator


# ---------------------------------------------------------------------------
# Kernel analyses consulted by the launch ladder
# ---------------------------------------------------------------------------


def kernel_uses_atomics(kernel: Kernel) -> bool:
    """True when the kernel calls ``atomicAdd``: atomics accumulate across
    blocks, so the megablock engine must reproduce their sequential order."""
    return any(
        isinstance(n, Call) and n.func == "atomicAdd" for n in walk(kernel.body)
    )


def kernel_flatten_safe(kernel: Kernel) -> bool:
    """True when no ``__syncthreads`` sits under an ``if`` branch.

    The megawarp lowering executes all warps of all blocks in statement
    lockstep, which makes a top-level (or loop-level) barrier a trivially
    satisfied ordering point.  A barrier *inside a divergent branch* is the
    one pattern lockstep cannot honour: pre-Volta master/slave kernels rely
    on the round-robin letting a producer branch run before a consumer
    branch that textually precedes it, so those kernels must keep the
    per-warp-slot generator schedule.
    """

    def scan(stmt, branched: bool) -> bool:
        if isinstance(stmt, ExprStmt):
            return not (
                branched
                and isinstance(stmt.expr, Call)
                and stmt.expr.func == "__syncthreads"
            )
        if isinstance(stmt, Block):
            return all(scan(s, branched) for s in stmt.stmts)
        if isinstance(stmt, If):
            if not scan(stmt.then, True):
                return False
            return stmt.els is None or scan(stmt.els, True)
        if isinstance(stmt, For):
            if stmt.init is not None and not scan(stmt.init, branched):
                return False
            if stmt.update is not None and not scan(stmt.update, branched):
                return False
            return scan(stmt.body, branched)
        if isinstance(stmt, While):
            return scan(stmt.body, branched)
        return True

    return scan(kernel.body, False)


def kernel_atomic_order_free(kernel: Kernel) -> bool:
    """True when batched per-statement atomic execution is bit-exact.

    Sequential execution interleaves atomic issues warp-by-warp (warp 0 runs
    its whole body, then warp 1 …), while the flattened megablock engine
    issues each atomic *statement* once for every row.  The two orders
    produce identical bytes exactly when, for every atomic target buffer,
    either

    * the buffer has a **single** ``atomicAdd`` site outside any loop — each
      row contributes at most one delta per address and the batched
      sort-by-address fold replays them in ascending row (= sequential)
      order, so both the final values and every returned "old" value match
      bit-for-bit, any dtype; or
    * the buffer has an **integer** element type and every site discards the
      ``atomicAdd`` result — modular integer addition is associative and
      commutative, so the final bytes are order-independent (but the "old"
      values are not, hence the discard requirement).

    Anything else — float accumulators hit from several sites or from inside
    a loop, observed old values on multi-site buffers, or a target that
    cannot be resolved to a kernel parameter / shared / local declaration
    (pointer aliasing) — reports False and keeps the exact per-block path.
    """
    elem_kind: dict[str, str] = {}
    pointer_params = set()
    for param in kernel.params:
        if isinstance(param.type, PointerType):
            pointer_params.add(param.name)
            try:
                elem_kind[param.name] = dtype_for(param.type.elem.name).kind
            except MemoryFault:
                pass
    aliasing = False
    for node in walk(kernel.body):
        if isinstance(node, VarDecl):
            if isinstance(node.type, ArrayType):
                try:
                    elem_kind[node.name] = dtype_for(node.type.elem.name).kind
                except MemoryFault:
                    pass
            elif isinstance(node.type, PointerType):
                # A derived pointer may alias a parameter buffer, defeating
                # the name-based site counting below.
                aliasing = True
        elif isinstance(node, Assign):
            if isinstance(node.target, Name) and node.target.id in pointer_params:
                aliasing = True

    sites: dict[str, list[tuple[bool, bool]]] = {}
    resolvable = True

    def record(call: Call, in_loop: bool, discarded: bool) -> None:
        nonlocal resolvable
        if len(call.args) != 2 or not isinstance(call.args[0], Index):
            return  # malformed call: raises at execution in every engine
        root_expr, _ = _resolve_index_chain(call.args[0])
        if not isinstance(root_expr, Name):
            resolvable = False
            return
        sites.setdefault(root_expr.id, []).append((in_loop, discarded))

    def scan_expr(expr, in_loop: bool, top: bool) -> None:
        if expr is None:
            return
        for node in walk(expr):
            if isinstance(node, Call) and node.func == "atomicAdd":
                record(node, in_loop, discarded=(top and node is expr))

    def scan_stmt(stmt, in_loop: bool) -> None:
        if isinstance(stmt, ExprStmt):
            scan_expr(stmt.expr, in_loop, top=True)
        elif isinstance(stmt, VarDecl):
            scan_expr(stmt.init, in_loop, top=False)
        elif isinstance(stmt, Assign):
            scan_expr(stmt.target, in_loop, top=False)
            scan_expr(stmt.value, in_loop, top=False)
        elif isinstance(stmt, Return):
            scan_expr(stmt.value, in_loop, top=False)
        elif isinstance(stmt, Block):
            for s in stmt.stmts:
                scan_stmt(s, in_loop)
        elif isinstance(stmt, If):
            scan_expr(stmt.cond, in_loop, top=False)
            scan_stmt(stmt.then, in_loop)
            if stmt.els is not None:
                scan_stmt(stmt.els, in_loop)
        elif isinstance(stmt, For):
            if stmt.init is not None:
                scan_stmt(stmt.init, True)
            scan_expr(stmt.cond, True, top=False)
            if stmt.update is not None:
                scan_stmt(stmt.update, True)
            scan_stmt(stmt.body, True)
        elif isinstance(stmt, While):
            scan_expr(stmt.cond, True, top=False)
            scan_stmt(stmt.body, True)

    scan_stmt(kernel.body, False)
    if sites and (aliasing or not resolvable):
        return False
    for name, lst in sites.items():
        if name not in elem_kind:
            return False
        if len(lst) == 1 and not lst[0][0]:
            continue
        if elem_kind[name] in ("i", "u", "b") and all(
            disc for _, disc in lst
        ):
            continue
        return False
    return True


def kernel_digest(kernel: Kernel) -> Optional[str]:
    """Content digest of a kernel: pretty-printed source (which includes
    ``#define`` constants and pragmas) hashed.  ``None`` when the AST cannot
    be printed — such kernels compile uncached."""
    try:
        source = emit_kernel(kernel)
    except Exception:
        return None
    return hashlib.sha256(source.encode()).hexdigest()



# ---------------------------------------------------------------------------
# The digest-keyed lowering cache
# ---------------------------------------------------------------------------


@dataclass
class CompileCacheStats:
    hits: int = 0
    misses: int = 0
    size: int = 0
    #: Process the counters belong to.  Forked processes inherit the
    #: parent's cache through copy-on-write but must not inherit its
    #: hit/miss history as their own — see :func:`_check_fork`.
    pid: int = 0
    #: Live cache entries broken down by lowering variant: plain artifacts
    #: (``base``) and profiled ones (``prof``, cache keys carrying the
    #: ``#prof`` suffix).
    variants: dict = field(default_factory=dict)


_CACHE: "OrderedDict[str, object]" = OrderedDict()
_CACHE_CAPACITY = 128
_CACHE_STATS = CompileCacheStats(pid=os.getpid())


def _check_fork() -> None:
    """Keep cache accounting honest across ``fork``.

    A forked process inherits the parent's cache *contents* (copy-on-write
    artifacts genuinely serve hits in the child, so they stay) and also the
    parent's ``_CACHE_STATS`` counters — which would silently report the
    parent's compile history as the child's own.  On first cache use in a
    new process the counters restart at zero under the child's pid.
    """
    pid = os.getpid()
    if pid != _CACHE_STATS.pid:
        _CACHE_STATS.pid = pid
        _CACHE_STATS.hits = 0
        _CACHE_STATS.misses = 0


def _cache_get(key: str):
    """LRU lookup; hit/miss accounting stays in one place."""
    _check_fork()
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE_STATS.hits += 1
        _CACHE.move_to_end(key)
        return cached
    _CACHE_STATS.misses += 1
    return None


def _cache_put(key: str, artifact) -> None:
    _CACHE[key] = artifact
    while len(_CACHE) > _CACHE_CAPACITY:
        _CACHE.popitem(last=False)
    _CACHE_STATS.size = len(_CACHE)


def compile_kernel(kernel: Kernel, cache: bool = True, profile: bool = False):
    """Alias of :func:`~repro.gpusim.megablock.compile_megablock`, kept
    because the traced benchmark run (``perfbench/common.py``) calls it.
    New code calls ``compile_megablock`` directly."""
    from .megablock import compile_megablock

    return compile_megablock(kernel, cache=cache, profile=profile)


def compile_cache_stats() -> CompileCacheStats:
    """Per-process cache counters (honest under forked processes: a child's
    counters restart at zero, its ``pid`` field says whose they are)."""
    _check_fork()
    _CACHE_STATS.size = len(_CACHE)
    variants = {"base": 0, "prof": 0}
    for key in _CACHE:
        variants["prof" if key.endswith("#prof") else "base"] += 1
    return CompileCacheStats(
        hits=_CACHE_STATS.hits,
        misses=_CACHE_STATS.misses,
        size=len(_CACHE),
        pid=_CACHE_STATS.pid,
        variants=variants,
    )


def clear_compile_cache() -> None:
    _check_fork()
    _CACHE.clear()
    _CACHE_STATS.hits = 0
    _CACHE_STATS.misses = 0
    _CACHE_STATS.size = 0
