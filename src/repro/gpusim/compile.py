"""Closure-compiled execution engine for mini-CUDA kernels.

The tree-walking interpreter in :mod:`repro.gpusim.interp` re-dispatches on
AST node types for every statement, every warp, every loop iteration.  This
module lowers a kernel AST *once* into a tree of specialized Python closures:
operator dispatch, index-chain resolution, dtype coercion, stat weights and
the fault/sanitizer hook sites are all resolved at compile time, so the
per-step inner loop is plain closure calls over numpy lane vectors.

Semantics are defined once by the interpreter; the closures either call the
same helpers (``_atomic_add``, shfl, the memory objects) or use the fast
re-implementations below, each of which is a line-for-line mirror of its
interpreter counterpart with only the *costs* removed: per-op ``np.errstate``
(hoisted to one guard around the whole block in ``BlockExecutor.run``),
``np.issubdtype`` dtype tests (replaced by ``dtype.kind`` checks),
``np.unique`` in the coalescing stats (replaced by Python ``set`` counting,
3x faster on 32-lane vectors), and redundant ``astype`` copies
(``copy=False`` — safe because evaluation results are never mutated in
place).  That mirroring is how the differential tests can demand
*bit-identical* outputs and statistics.

Two structural ideas keep the fast path fast while staying exact:

* **Barrier splitting** — only statements whose subtree contains
  ``__syncthreads`` are compiled to generator closures (the barrier yield
  protocol the block executor round-robins on).  Everything else compiles to
  plain functions; a barrier-free kernel body runs as one direct call wrapped
  in a never-yielding generator.
* **Lazy inactive-mask tracking** — ``ctx.has_inactive`` is only raised when
  a lane actually parks (return/break/continue/loop-exit), letting
  straight-line code skip the per-statement ``mask & ~inactive`` + ``any()``
  recomputation the interpreter always pays.

A digest-keyed LRU cache (:func:`compile_kernel`) makes lowering a
once-per-source cost shared by ``launch()``, the autotuner and the oracle.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

import numpy as np

from ..minicuda.nodes import (
    ArrayType,
    Assign,
    Binary,
    Block,
    BoolLit,
    Break,
    Call,
    Cast,
    Continue,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    If,
    Index,
    IntLit,
    Kernel,
    Member,
    Name,
    PointerType,
    Return,
    ScalarType,
    Stmt,
    Ternary,
    Unary,
    VarDecl,
    While,
    walk,
)
from ..minicuda.pretty import emit_kernel
from . import coalescing
from .errors import IntrinsicError, MemoryFault, SimError, SyncError
from .interp import (
    BINARY_IMPLS,
    WARP_SIZE,
    WarpContext,
    _DIM_NAMES,
    _LoopFrame,
    _atomic_add,
    _broadcast,
    _pointer_arith,
    _resolve_index_chain,
    PointerValue,
)
from .intrinsics import (
    BINOP_WEIGHTS,
    DEFAULT_BINOP_WEIGHT,
    MATH_INTRINSICS,
    shfl,
    shfl_down,
    shfl_up,
)
from .memory import ConstArray, GlobalBuffer, LocalArray, SharedArray, dtype_for

if TYPE_CHECKING:
    from ..analysis.resources import ResourceReport

#: ``ExprFn(ctx, mask) -> ndarray | PointerValue | memory object``
ExprFn = Callable[[WarpContext, np.ndarray], object]
#: ``StmtFn(ctx, mask) -> None`` (plain) or an iterator (generator form).
StmtFn = Callable[[WarpContext, np.ndarray], object]


def _stmt_loc(node) -> Optional[object]:
    loc = getattr(node, "loc", None)
    if loc is not None and loc.line:
        return loc
    return None


def _raising(exc_type, message, loc=None) -> ExprFn:
    """A closure that defers a statically-detected error to run time, so the
    compiled backend reports it with the same warp/line attribution as the
    interpreter (which only discovers it upon execution)."""

    def fn(ctx: WarpContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        raise exc_type(message)

    return fn


# ---------------------------------------------------------------------------
# Fast-path numeric and memory implementations
#
# Each function here mirrors an interpreter helper line for line; only the
# overheads differ (see the module docstring).  ``BlockExecutor.run`` holds
# one ``np.errstate(all="ignore")`` around the whole block, which is what the
# interpreter's per-op guards amount to, so these impls omit them.
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


def _fast_global_stats(
    byte_addrs: np.ndarray, mask: np.ndarray, elem_bytes: int
) -> tuple[int, bool]:
    """(transactions, fully_coalesced) in one pass over the active lanes.

    Equals ``coalescing.transactions_for`` + ``coalescing.is_fully_coalesced``
    (which recomputes the transactions); ``len(set(...))`` counts the same
    distinct 128-byte segments ``np.unique`` would.
    """
    active = byte_addrs[mask]
    if active.size == 0:
        return 0, True
    txns = len(set((active // 128).tolist()))
    needed = int(np.ceil(active.size * elem_bytes / 128))
    return txns, txns <= max(needed, 1)


def _fast_txns(byte_addrs: np.ndarray, mask: np.ndarray) -> int:
    active = byte_addrs[mask]
    if active.size == 0:
        return 0
    return len(set((active // 128).tolist()))


def _fast_bank_replays(byte_addrs: np.ndarray, mask: np.ndarray) -> int:
    # Mirrors coalescing.bank_conflict_replays: distinct 4-byte words per
    # bank, worst bank sets the pass count.
    active = byte_addrs[mask]
    if active.size == 0:
        return 0
    words = set((active // 4).tolist())
    if len(words) <= 1:
        return 0  # broadcast (or single lane): conflict-free
    counts: dict = {}
    max_degree = 1
    for word in words:
        bank = word % 32
        degree = counts.get(bank, 0) + 1
        counts[bank] = degree
        if degree > max_degree:
            max_degree = degree
    return max_degree - 1


_LANES = np.arange(WARP_SIZE)
_LANES_I64 = np.arange(WARP_SIZE, dtype=np.int64)


def _fast_global_load(buf: GlobalBuffer, offsets, mask) -> np.ndarray:
    # Mirrors GlobalBuffer.load; the bounds test delegates to _check on the
    # failing path so the MemoryFault is constructed identically.
    data = buf.data
    bad = mask & ((offsets < 0) | (offsets >= data.size))
    if _mask_any(bad):
        buf._check(offsets, mask)
    return data[np.where(mask, offsets, 0)]


def _fast_global_store(buf: GlobalBuffer, offsets, mask, values) -> None:
    data = buf.data
    bad = mask & ((offsets < 0) | (offsets >= data.size))
    if _mask_any(bad):
        buf._check(offsets, mask)
    data[offsets[mask]] = values[mask].astype(data.dtype, copy=False)


def _fast_shared_load(root: SharedArray, flat, mask) -> np.ndarray:
    data = root.data
    bad = mask & ((flat < 0) | (flat >= data.size))
    if _mask_any(bad):
        root._check(flat, mask)
    return data[np.where(mask, flat, 0)]


def _fast_shared_store(root: SharedArray, flat, mask, values) -> None:
    data = root.data
    bad = mask & ((flat < 0) | (flat >= data.size))
    if _mask_any(bad):
        root._check(flat, mask)
    data[flat[mask]] = values[mask].astype(data.dtype, copy=False)


def _local_lanes(root: LocalArray) -> np.ndarray:
    return _LANES if root.warp_size == WARP_SIZE else np.arange(root.warp_size)


def _fast_local_byte_addrs(root: LocalArray, idx) -> np.ndarray:
    # Mirrors LocalArray.byte_addrs with the lane iota cached.
    lanes = _LANES_I64 if root.warp_size == WARP_SIZE else np.arange(
        root.warp_size, dtype=np.int64
    )
    return root.base_addr + (
        idx.astype(np.int64, copy=False) * root.warp_size + lanes
    ) * root.itemsize


def _fast_local_load(root: LocalArray, idx, mask) -> np.ndarray:
    bad = mask & ((idx < 0) | (idx >= root.numel))
    if _mask_any(bad):
        root._check(idx, mask)
    return root.data[_local_lanes(root), np.where(mask, idx, 0)]


def _fast_local_store(root: LocalArray, idx, mask, values) -> None:
    bad = mask & ((idx < 0) | (idx >= root.numel))
    if _mask_any(bad):
        root._check(idx, mask)
    data = root.data
    data[_local_lanes(root)[mask], idx[mask]] = values[mask].astype(
        data.dtype, copy=False
    )


def _fast_flat_index(root: SharedArray, indices: list) -> np.ndarray:
    # Mirrors SharedArray.flat_index (row-major flattening).
    dims = root.dims
    if len(indices) != len(dims):
        raise MemoryFault(
            f"shared array {root.name!r} expects {len(dims)} indices, "
            f"got {len(indices)}"
        )
    if len(dims) == 1:
        return indices[0]
    flat = indices[0]
    for dim, idx in zip(dims[1:], indices[1:]):
        flat = flat * dim + idx
    return flat


def _fast_load_object(
    ctx: WarpContext, root, indices: list, mask: np.ndarray
):
    # Mirrors interp._load_object; stat values, hook order and failure modes
    # are identical, only the stat computation is cheaper.
    stats = ctx.stats
    inj = ctx.injector
    if isinstance(root, PointerValue):
        if len(indices) != 1:
            raise MemoryFault("global pointers are 1-D; use manual 2-D math")
        buf = root.buffer
        offsets = root.offsets + indices[0]
        if inj is not None:
            offsets = inj.corrupt_index(
                ctx, "global", buf.name, offsets, mask, buf.size
            )
        addrs = buf.base_addr + offsets.astype(np.int64, copy=False) * buf.itemsize
        if inj is not None:
            addrs = inj.corrupt_addrs(ctx, "global", buf.name, addrs, mask)
        txns, coalesced = _fast_global_stats(addrs, mask, buf.itemsize)
        stats.global_load_insts += 1
        stats.global_transactions += txns
        if not coalesced:
            stats.uncoalesced_accesses += 1
        if ctx.trace.enabled:
            ctx.trace.record_global(buf.name, txns, int(mask.sum()))
        if ctx.profile is not None:
            ctx.profile.global_access(ctx.current_loc, txns, not coalesced, False)
        value = _fast_global_load(buf, offsets, mask)
        if inj is not None:
            value = inj.flip_bits(ctx, "global", buf.name, value, mask)
        return value
    if isinstance(root, SharedArray):
        flat = _fast_flat_index(root, indices)
        if inj is not None:
            flat = inj.corrupt_index(ctx, "shared", root.name, flat, mask, root.numel)
        stats.shared_load_insts += 1
        replays = _fast_bank_replays(
            root.base_offset + flat * root.itemsize, mask
        )
        stats.shared_bank_replays += replays
        if ctx.trace.enabled:
            ctx.trace.record_shared(root.name, replays)
        if ctx.profile is not None:
            ctx.profile.shared_access(ctx.current_loc, replays, False)
        value = _fast_shared_load(root, flat, mask)
        if ctx.sanitizer is not None:
            ctx.sanitizer.shared_load(ctx, root, flat, mask)
        if inj is not None:
            value = inj.flip_bits(ctx, "shared", root.name, value, mask)
        return value
    if isinstance(root, LocalArray):
        if len(indices) != 1:
            raise MemoryFault("local arrays are 1-D in this subset")
        idx = indices[0]
        if root.in_registers:
            pass  # register operand: free (the template unrolls the index)
        else:
            stats.local_load_insts += 1
            ltx = _fast_txns(_fast_local_byte_addrs(root, idx), mask)
            stats.local_transactions += ltx
            stats.local_bytes += int(mask.sum()) * root.itemsize
            if ctx.profile is not None:
                ctx.profile.local_access(ctx.current_loc, ltx)
        value = _fast_local_load(root, idx, mask)
        if ctx.sanitizer is not None:
            ctx.sanitizer.local_load(ctx, root, idx, mask)
        return value
    if isinstance(root, ConstArray):
        if len(indices) != 1:
            raise MemoryFault("constant arrays are 1-D")
        idx = indices[0]
        stats.const_load_insts += 1
        serialized = not coalescing.broadcast_segments(root.byte_addrs(idx), mask)
        if serialized:
            stats.const_serialized += 1
        if ctx.profile is not None:
            ctx.profile.const_access(ctx.current_loc, serialized)
        return root.load(idx, mask)
    raise MemoryFault(f"cannot index into {type(root).__name__}")


def _fast_store_object(
    ctx: WarpContext, root, indices: list, mask: np.ndarray, values
) -> None:
    # Mirrors interp._store_object (see _fast_load_object).
    stats = ctx.stats
    inj = ctx.injector
    values = np.asarray(values)
    if isinstance(root, PointerValue):
        if len(indices) != 1:
            raise MemoryFault("global pointers are 1-D; use manual 2-D math")
        buf = root.buffer
        offsets = root.offsets + indices[0]
        if inj is not None:
            offsets = inj.corrupt_index(
                ctx, "global", buf.name, offsets, mask, buf.size
            )
        addrs = buf.base_addr + offsets.astype(np.int64, copy=False) * buf.itemsize
        if inj is not None:
            addrs = inj.corrupt_addrs(ctx, "global", buf.name, addrs, mask)
        txns, coalesced = _fast_global_stats(addrs, mask, buf.itemsize)
        stats.global_store_insts += 1
        stats.global_transactions += txns
        if not coalesced:
            stats.uncoalesced_accesses += 1
        if ctx.trace.enabled:
            ctx.trace.record_global(buf.name, txns, int(mask.sum()))
        if ctx.profile is not None:
            ctx.profile.global_access(ctx.current_loc, txns, not coalesced, True)
        _fast_global_store(buf, offsets, mask, values)
        return
    if isinstance(root, SharedArray):
        flat = _fast_flat_index(root, indices)
        if inj is not None:
            flat = inj.corrupt_index(ctx, "shared", root.name, flat, mask, root.numel)
        stats.shared_store_insts += 1
        replays = _fast_bank_replays(
            root.base_offset + flat * root.itemsize, mask
        )
        stats.shared_bank_replays += replays
        if ctx.trace.enabled:
            ctx.trace.record_shared(root.name, replays)
        if ctx.profile is not None:
            ctx.profile.shared_access(ctx.current_loc, replays, True)
        _fast_shared_store(root, flat, mask, values)
        if ctx.sanitizer is not None:
            ctx.sanitizer.shared_store(ctx, root, flat, mask)
        return
    if isinstance(root, LocalArray):
        if len(indices) != 1:
            raise MemoryFault("local arrays are 1-D in this subset")
        idx = indices[0]
        if root.in_registers:
            pass  # register operand: free (the template unrolls the index)
        else:
            stats.local_store_insts += 1
            ltx = _fast_txns(_fast_local_byte_addrs(root, idx), mask)
            stats.local_transactions += ltx
            stats.local_bytes += int(mask.sum()) * root.itemsize
            if ctx.profile is not None:
                ctx.profile.local_access(ctx.current_loc, ltx)
        _fast_local_store(root, idx, mask, values)
        if ctx.sanitizer is not None:
            ctx.sanitizer.local_store(ctx, root, idx, mask)
        return
    if isinstance(root, ConstArray):
        raise MemoryFault(f"constant array {root.name!r} is read-only")
    raise MemoryFault(f"cannot store into {type(root).__name__}")


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------


def _compile_literal(values: np.ndarray) -> ExprFn:
    values.flags.writeable = False

    def fn(ctx: WarpContext, mask: np.ndarray):
        return values

    return fn


def _compile_name(name: str) -> ExprFn:
    # Scalar kernel params broadcast to the same lane vector on every read;
    # cache the (read-only) broadcast per value.  Keys are ("i"/"f", value)
    # tuples because int and float keys of equal value collide in a dict.
    broadcasts: dict = {}

    def fn(ctx: WarpContext, mask: np.ndarray):
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


def _compile_binary(expr: Binary) -> ExprFn:
    lhs_fn = compile_expr(expr.lhs)
    rhs_fn = compile_expr(expr.rhs)
    op = expr.op
    impl = FAST_BINARY_IMPLS.get(op)
    if impl is None:
        # Same failure mode as the interpreter's table lookup.
        def unknown(ctx: WarpContext, mask: np.ndarray):
            lhs_fn(ctx, mask)
            rhs_fn(ctx, mask)
            ctx.stats.alu_insts += DEFAULT_BINOP_WEIGHT
            raise KeyError(op)

        return unknown
    weight = BINOP_WEIGHTS.get(op, DEFAULT_BINOP_WEIGHT)
    const_name: Optional[str] = None
    if op in ("/", "%"):
        if isinstance(expr.rhs, IntLit):
            # Division by a compile-time constant strength-reduces (the
            # NP variants divide by the template parameter slave_size).
            weight = 1.0
        elif isinstance(expr.rhs, Name):
            const_name = expr.rhs.id

    if const_name is not None:
        heavy = weight

        def fn_dyn(ctx: WarpContext, mask: np.ndarray):
            lhs = lhs_fn(ctx, mask)
            rhs = rhs_fn(ctx, mask)
            if isinstance(ctx.env.get(const_name), (int, np.integer)):
                ctx.stats.alu_insts += 1.0
            else:
                ctx.stats.alu_insts += heavy
            if lhs.__class__ is PointerValue or rhs.__class__ is PointerValue:
                return _pointer_arith(op, lhs, rhs)
            return impl(lhs, rhs)

        return fn_dyn

    def fn(ctx: WarpContext, mask: np.ndarray):
        lhs = lhs_fn(ctx, mask)
        rhs = rhs_fn(ctx, mask)
        ctx.stats.alu_insts += weight
        if lhs.__class__ is PointerValue or rhs.__class__ is PointerValue:
            return _pointer_arith(op, lhs, rhs)
        return impl(lhs, rhs)

    return fn


def _compile_unary(expr: Unary) -> ExprFn:
    operand_fn = compile_expr(expr.operand)
    op = expr.op
    if op == "-":
        def neg(ctx, mask):
            value = operand_fn(ctx, mask)
            ctx.stats.alu_insts += 1
            return -value

        return neg
    if op == "+":
        def pos(ctx, mask):
            value = operand_fn(ctx, mask)
            ctx.stats.alu_insts += 1
            return value

        return pos
    if op == "!":
        def lnot(ctx, mask):
            value = operand_fn(ctx, mask)
            ctx.stats.alu_insts += 1
            return ~value.astype(bool, copy=False)

        return lnot
    if op == "~":
        def bnot(ctx, mask):
            value = operand_fn(ctx, mask)
            ctx.stats.alu_insts += 1
            return (~value.astype(np.int64)).astype(np.int32)

        return bnot

    def unknown(ctx, mask):
        operand_fn(ctx, mask)
        ctx.stats.alu_insts += 1
        raise SimError(f"unknown unary op {op}")

    return unknown


def _compile_index_chain(expr: Index):
    root_expr, index_exprs = _resolve_index_chain(expr)
    root_fn = compile_expr(root_expr)
    idx_fns = tuple(compile_expr(ie) for ie in index_exprs)
    return root_fn, idx_fns


def _compile_load(expr: Index) -> ExprFn:
    loc = _stmt_loc(expr)
    root_fn, idx_fns = _compile_index_chain(expr)

    def fn(ctx: WarpContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        root = root_fn(ctx, mask)
        indices = [f(ctx, mask).astype(np.int64, copy=False) for f in idx_fns]
        return _fast_load_object(ctx, root, indices, mask)

    return fn


def _compile_call(expr: Call) -> ExprFn:
    func = expr.func
    loc = _stmt_loc(expr)
    if func == "__syncthreads":
        return _raising(
            SimError, "__syncthreads() must be a standalone statement", loc
        )
    if func in ("__shfl", "__shfl_down", "__shfl_up"):
        if len(expr.args) != 3:
            return _raising(
                IntrinsicError, f"{func} expects (var, lane, width)", loc
            )
        var_fn = compile_expr(expr.args[0])
        lane_fn = compile_expr(expr.args[1])
        width_fn = compile_expr(expr.args[2])
        if func == "__shfl":
            def do_shfl(ctx: WarpContext, mask: np.ndarray):
                if loc is not None:
                    ctx.current_loc = loc
                var = var_fn(ctx, mask)
                lane = lane_fn(ctx, mask)
                width = int(width_fn(ctx, mask)[0])
                ctx.stats.shfl_insts += 1
                if ctx.profile is not None:
                    ctx.profile.shfl(ctx.current_loc)
                if ctx.injector is not None:
                    lane = ctx.injector.corrupt_shfl_lane(
                        ctx, _broadcast(lane), width
                    )
                return shfl(var, lane, width)

            return do_shfl
        shift_fn = shfl_down if func == "__shfl_down" else shfl_up

        def do_shift(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            var = var_fn(ctx, mask)
            lane = lane_fn(ctx, mask)
            width = int(width_fn(ctx, mask)[0])
            ctx.stats.shfl_insts += 1
            if ctx.profile is not None:
                ctx.profile.shfl(ctx.current_loc)
            return shift_fn(var, int(lane[0]), width)

        return do_shift
    if func == "atomicAdd":
        if len(expr.args) != 2 or not isinstance(expr.args[0], Index):
            return _raising(
                IntrinsicError, "atomicAdd expects (array[index], value)", loc
            )
        root_fn, idx_fns = _compile_index_chain(expr.args[0])
        delta_fn = compile_expr(expr.args[1])

        def do_atomic(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            root = root_fn(ctx, mask)
            indices = [
                f(ctx, mask).astype(np.int64, copy=False) for f in idx_fns
            ]
            delta = delta_fn(ctx, mask)
            ctx.stats.atomic_insts += 1
            if ctx.profile is not None:
                ctx.profile.atomic(ctx.current_loc)
            return _atomic_add(ctx, root, indices, mask, delta)

        return do_atomic
    if func == "tex1Dfetch":
        if len(expr.args) != 2 or not isinstance(expr.args[0], Name):
            return _raising(
                IntrinsicError, "tex1Dfetch expects (texture_name, index)", loc
            )
        tex_name = expr.args[0].id
        idx_fn = compile_expr(expr.args[1])

        def do_tex(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            tex = ctx.env.get(tex_name)
            idx = idx_fn(ctx, mask).astype(np.int64, copy=False)
            if isinstance(tex, (ConstArray, GlobalBuffer)):
                # Texture-cache amortization: see interp._eval_call.
                ctx.stats.global_load_insts += 1
                active = int(mask.sum())
                txns = max(1, (active * tex.itemsize + 127) // 128)
                ctx.stats.global_transactions += txns
                if ctx.profile is not None:
                    ctx.profile.global_access(ctx.current_loc, txns, False, False)
                return tex.load(idx, mask)
            raise IntrinsicError(f"texture {tex_name!r} not bound")

        return do_tex
    intrinsic = MATH_INTRINSICS.get(func)
    if intrinsic is not None:
        if len(expr.args) != intrinsic.arity:
            return _raising(
                IntrinsicError,
                f"{func} expects {intrinsic.arity} args, got {len(expr.args)}",
                loc,
            )
        arg_fns = tuple(compile_expr(a) for a in expr.args)
        impl = intrinsic.fn
        weight = intrinsic.weight

        def do_intrinsic(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            args = [f(ctx, mask) for f in arg_fns]
            ctx.stats.alu_insts += weight
            return impl(*args)

        return do_intrinsic
    return _raising(IntrinsicError, f"unknown device function {func!r}", loc)


def compile_expr(expr: Expr) -> ExprFn:
    """Lower one expression to a specialized closure ``fn(ctx, mask)``."""
    if isinstance(expr, IntLit):
        value = expr.value & 0xFFFFFFFF
        if value > 0x7FFFFFFF:
            value -= 0x100000000  # wrap to int32 like C
        return _compile_literal(np.full(WARP_SIZE, value, dtype=np.int32))
    if isinstance(expr, FloatLit):
        return _compile_literal(np.full(WARP_SIZE, expr.value, dtype=np.float32))
    if isinstance(expr, BoolLit):
        return _compile_literal(np.full(WARP_SIZE, expr.value, dtype=np.bool_))
    if isinstance(expr, Name):
        return _compile_name(expr.id)
    if isinstance(expr, Member):
        if isinstance(expr.base, Name) and expr.base.id in _DIM_NAMES:
            key = f"{expr.base.id}.{expr.name}"

            def builtin(ctx: WarpContext, mask: np.ndarray):
                try:
                    return ctx.env[key]
                except KeyError as exc:
                    raise SimError(f"unknown builtin {key}") from exc

            return builtin
        return _raising(SimError, f"unsupported member access .{expr.name}")
    if isinstance(expr, Unary):
        return _compile_unary(expr)
    if isinstance(expr, Binary):
        return _compile_binary(expr)
    if isinstance(expr, Ternary):
        cond_fn = compile_expr(expr.cond)
        then_fn = compile_expr(expr.then)
        els_fn = compile_expr(expr.els)

        def ternary(ctx: WarpContext, mask: np.ndarray):
            cond = cond_fn(ctx, mask).astype(bool, copy=False)
            then = then_fn(ctx, mask)
            els = els_fn(ctx, mask)
            ctx.stats.alu_insts += 1  # select
            if then.dtype.kind == "f" or els.dtype.kind == "f":
                then = then.astype(np.float32, copy=False)
                els = els.astype(np.float32, copy=False)
            return np.where(cond, then, els)

        return ternary
    if isinstance(expr, Cast):
        inner_fn = compile_expr(expr.expr)
        type_name = expr.type.name
        try:
            cast_dtype = dtype_for(type_name)
        except MemoryFault as exc:
            cast_dtype = None
            cast_error = str(exc)

        def cast(ctx: WarpContext, mask: np.ndarray):
            value = inner_fn(ctx, mask)
            ctx.stats.alu_insts += 1
            if value.__class__ is PointerValue:
                return value
            if cast_dtype is None:
                raise MemoryFault(cast_error)
            return value.astype(cast_dtype, copy=False)

        return cast
    if isinstance(expr, Index):
        return _compile_load(expr)
    if isinstance(expr, Call):
        return _compile_call(expr)
    return _raising(SimError, f"cannot evaluate expression {expr!r}")


# ---------------------------------------------------------------------------
# Statement lowering
# ---------------------------------------------------------------------------


def _has_barrier(node) -> bool:
    return any(
        isinstance(n, Call) and n.func == "__syncthreads" for n in walk(node)
    )


def _has_flow(block: Block) -> bool:
    """Whether the loop body can park lanes via break/continue/return."""
    return any(
        isinstance(n, (Break, Continue, Return)) for n in walk(block)
    )


def _compile_decl(stmt: VarDecl) -> StmtFn:
    type_ = stmt.type
    name = stmt.name
    loc = _stmt_loc(stmt)
    if isinstance(type_, ArrayType):
        if type_.space in ("shared", "constant"):
            missing = (
                f"shared array {name!r} was not pre-allocated"
                if type_.space == "shared"
                else f"constant array {name!r} was not bound"
            )

            def check(ctx: WarpContext, mask: np.ndarray):
                if loc is not None:
                    ctx.current_loc = loc
                ctx.current_mask = mask
                if name not in ctx.env:
                    raise SimError(missing)

            return check
        numel = type_.numel
        elem = type_.elem.name
        in_registers = type_.space == "reg"

        def local_decl(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            existing = ctx.env.get(name)
            if isinstance(existing, LocalArray) and existing.numel == numel:
                existing.data[...] = 0
                existing.shadow = None  # re-declared: sanitizer state resets
            else:
                base = ctx.env.get("__local_base__", 1 << 32)
                arr = LocalArray(
                    name, numel, elem, base_addr=base, in_registers=in_registers
                )
                ctx.env["__local_base__"] = base + arr.bytes_per_thread * WARP_SIZE
                ctx.env[name] = arr

        return local_decl
    if stmt.init is None:
        if isinstance(type_, PointerType):
            message = f"pointer {name!r} declared without initializer"

            def bad_ptr(ctx: WarpContext, mask: np.ndarray):
                if loc is not None:
                    ctx.current_loc = loc
                ctx.current_mask = mask
                raise SimError(message)

            return bad_ptr
        dtype = (
            np.float32
            if isinstance(type_, ScalarType) and type_.name == "float"
            else np.int32
        )
        zeros = np.zeros(WARP_SIZE, dtype=dtype)
        zeros.flags.writeable = False  # shared: assignments replace, not mutate

        def zero_decl(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            ctx.env[name] = zeros

        return zero_decl
    init_fn = compile_expr(stmt.init)
    if isinstance(type_, PointerType):
        def ptr_decl(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            value = init_fn(ctx, mask)
            if not isinstance(value, PointerValue):
                raise SimError(f"pointer {name!r} initialized with non-pointer")
            ctx.env[name] = value

        return ptr_decl
    type_name = type_.name
    try:
        decl_dtype = dtype_for(type_name)
    except MemoryFault as exc:
        return _raising(MemoryFault, str(exc), loc)

    def scalar_decl(ctx: WarpContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        value = init_fn(ctx, mask)
        if isinstance(value, PointerValue):
            raise SimError(f"scalar {name!r} initialized with pointer")
        ctx.env[name] = value.astype(decl_dtype, copy=False)

    return scalar_decl


def _compile_assign(stmt: Assign) -> StmtFn:
    loc = _stmt_loc(stmt)
    if stmt.op != "=":
        # Compound assignment: evaluate target op value (loads count).
        value_fn = compile_expr(Binary(stmt.op[:-1], stmt.target, stmt.value))
    else:
        value_fn = compile_expr(stmt.value)
    target = stmt.target
    if isinstance(target, Name):
        name = target.id

        def assign_name(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            value = value_fn(ctx, mask)
            old = ctx.env.get(name)
            if value.__class__ is PointerValue:
                ctx.env[name] = value
                return
            if old is None:
                raise SimError(f"assignment to undeclared variable {name!r}")
            if isinstance(old, (int, float)):
                # Scalar kernel params broadcast per warp on first write.
                old = _broadcast(
                    old, np.int32 if isinstance(old, int) else np.float32
                )
            if old.__class__ is PointerValue:
                ctx.env[name] = value
                return
            if (
                mask is ctx.entry_mask
                and ctx.entry_full
                and not ctx.has_inactive
            ):
                # Every lane of a full warp is active: np.where would select
                # `value` in every lane, so skip it.  The identity test is
                # exact — divergent regions always pass freshly-derived mask
                # arrays, never the warp's entry mask object.
                ctx.env[name] = value.astype(old.dtype, copy=False)
            else:
                ctx.env[name] = np.where(
                    mask, value.astype(old.dtype, copy=False), old
                )

        return assign_name
    if isinstance(target, Index):
        root_fn, idx_fns = _compile_index_chain(target)

        def assign_index(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            value = value_fn(ctx, mask)
            root = root_fn(ctx, mask)
            indices = [
                f(ctx, mask).astype(np.int64, copy=False) for f in idx_fns
            ]
            _fast_store_object(ctx, root, indices, mask, value)

        return assign_index
    message = f"invalid assignment target {type(target).__name__}"

    def bad_target(ctx: WarpContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        value_fn(ctx, mask)
        raise SimError(message)

    return bad_target


def _compile_sync(stmt: ExprStmt) -> StmtFn:
    loc = _stmt_loc(stmt)
    line = stmt.loc.line if stmt.loc is not None else 0

    def sync(ctx: WarpContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        ctx.stats.syncthreads += 1
        if ctx.profile is not None:
            ctx.profile.sync(line)
        sync_mask = mask
        if ctx.injector is not None:
            skip = ctx.injector.sync_skip_lanes(ctx, sync_mask)
            if skip is not None:
                sync_mask = sync_mask & ~skip
        # A withheld lane is always a fault: lanes that executed this
        # statement did not all arrive (only injection can cause this).
        withheld = mask & ~sync_mask
        if withheld.any():
            lanes = np.nonzero(withheld)[0].tolist()
            raise SyncError(
                f"lanes {lanes} of warp {ctx.warp_idx} missed the "
                "barrier: __syncthreads reached by only part of the warp",
                lanes=lanes,
            )
        if ctx.synccheck:
            # See interp.exec_stmt for the synccheck/hardware semantics note.
            expected = ctx.init_mask & ~ctx.returned
            missing = expected & ~mask
            if missing.any():
                lanes = np.nonzero(missing)[0].tolist()
                raise SyncError(
                    "__syncthreads reached by only part of the thread "
                    f"block: lanes {lanes} of warp {ctx.warp_idx} are "
                    "divergence-parked at this barrier",
                    lanes=lanes,
                )
        yield ("sync", line)

    return sync


def _compile_if(stmt: If) -> tuple[StmtFn, bool]:
    loc = _stmt_loc(stmt)
    line = loc.line if loc is not None else None
    cond_fn = compile_expr(stmt.cond)
    then_fn, then_gen = compile_block(stmt.then)
    has_else = stmt.els is not None and bool(stmt.els.stmts)
    els_fn, els_gen = (
        compile_block(stmt.els) if has_else else (None, False)
    )
    is_gen = then_gen or els_gen

    if not is_gen:
        def plain_if(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            cond = cond_fn(ctx, mask).astype(bool, copy=False)
            ctx.stats.control_insts += 1
            m_then = mask & cond
            then_any = _mask_any(m_then)
            if has_else:
                m_else = _and_not(mask, cond)
                else_any = _mask_any(m_else)
                if then_any and else_any:
                    ctx.stats.divergent_branches += 1
                    if ctx.profile is not None and line is not None:
                        ctx.profile.divergent(line)
                if then_any:
                    then_fn(ctx, m_then)
                if else_any:
                    els_fn(ctx, m_else)
            elif then_any:
                then_fn(ctx, m_then)

        return plain_if, False

    def gen_if(ctx: WarpContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        cond = cond_fn(ctx, mask).astype(bool, copy=False)
        ctx.stats.control_insts += 1
        m_then = mask & cond
        then_any = _mask_any(m_then)
        if has_else:
            m_else = _and_not(mask, cond)
            else_any = _mask_any(m_else)
            if then_any and else_any:
                ctx.stats.divergent_branches += 1
                if ctx.profile is not None and line is not None:
                    ctx.profile.divergent(line)
            if then_any:
                if then_gen:
                    yield from then_fn(ctx, m_then)
                else:
                    then_fn(ctx, m_then)
            if else_any:
                if els_gen:
                    yield from els_fn(ctx, m_else)
                else:
                    els_fn(ctx, m_else)
        elif then_any:
            if then_gen:
                yield from then_fn(ctx, m_then)
            else:
                then_fn(ctx, m_then)

    return gen_if, True


def _compile_for(stmt: For) -> tuple[StmtFn, bool]:
    loc = _stmt_loc(stmt)
    init_fn, init_gen = (
        compile_stmt(stmt.init) if stmt.init is not None else (None, False)
    )
    cond_fn = compile_expr(stmt.cond) if stmt.cond is not None else None
    update_fn, update_gen = (
        compile_stmt(stmt.update) if stmt.update is not None else (None, False)
    )
    body_fn, body_gen = compile_block(stmt.body)
    flow = _has_flow(stmt.body)
    is_gen = init_gen or update_gen or body_gen

    if not is_gen:
        def plain_for(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            if init_fn is not None:
                init_fn(ctx, mask)
            frame = _LoopFrame.new()
            ctx.loop_stack.append(frame)
            try:
                while True:
                    if ctx.has_inactive:
                        m = _and_not(mask, ctx.inactive)
                        if not _mask_any(m):
                            break
                    else:
                        m = mask
                    if cond_fn is not None:
                        cond = cond_fn(ctx, m).astype(bool, copy=False)
                        ctx.stats.control_insts += 1
                        leaving = _and_not(m, cond)
                        if _mask_any(leaving):
                            frame.exited |= leaving
                            ctx.inactive |= leaving
                            ctx.has_inactive = True
                            m = m & cond
                            if not _mask_any(m):
                                break
                    body_fn(ctx, m)
                    if flow:
                        # Reactivate lanes parked by 'continue'.
                        ctx.inactive &= ~frame.cont
                        frame.cont[:] = False
                        ctx.has_inactive = _mask_any(ctx.inactive)
                        if update_fn is not None:
                            mu = _and_not(mask, ctx.inactive)
                            if _mask_any(mu):
                                update_fn(ctx, mu)
                    elif update_fn is not None:
                        # No break/continue/return in the body: the active
                        # set cannot shrink between cond and update.
                        update_fn(ctx, m)
            finally:
                ctx.loop_stack.pop()
                ctx.inactive &= ~(frame.broken | frame.exited)
                ctx.has_inactive = _mask_any(ctx.inactive)

        return plain_for, False

    def gen_for(ctx: WarpContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        if init_fn is not None:
            if init_gen:
                yield from init_fn(ctx, mask)
            else:
                init_fn(ctx, mask)
        frame = _LoopFrame.new()
        ctx.loop_stack.append(frame)
        try:
            while True:
                if ctx.has_inactive:
                    m = _and_not(mask, ctx.inactive)
                    if not _mask_any(m):
                        break
                else:
                    m = mask
                if cond_fn is not None:
                    cond = cond_fn(ctx, m).astype(bool, copy=False)
                    ctx.stats.control_insts += 1
                    leaving = _and_not(m, cond)
                    if _mask_any(leaving):
                        frame.exited |= leaving
                        ctx.inactive |= leaving
                        ctx.has_inactive = True
                        m = m & cond
                        if not _mask_any(m):
                            break
                if body_gen:
                    yield from body_fn(ctx, m)
                else:
                    body_fn(ctx, m)
                if flow:
                    ctx.inactive &= ~frame.cont
                    frame.cont[:] = False
                    ctx.has_inactive = _mask_any(ctx.inactive)
                    if update_fn is not None:
                        mu = _and_not(mask, ctx.inactive)
                        if _mask_any(mu):
                            if update_gen:
                                yield from update_fn(ctx, mu)
                            else:
                                update_fn(ctx, mu)
                elif update_fn is not None:
                    if update_gen:
                        yield from update_fn(ctx, m)
                    else:
                        update_fn(ctx, m)
        finally:
            ctx.loop_stack.pop()
            ctx.inactive &= ~(frame.broken | frame.exited)
            ctx.has_inactive = _mask_any(ctx.inactive)

    return gen_for, True


def _compile_while(stmt: While) -> tuple[StmtFn, bool]:
    loc = _stmt_loc(stmt)
    cond_fn = compile_expr(stmt.cond)
    body_fn, body_gen = compile_block(stmt.body)
    flow = _has_flow(stmt.body)

    if not body_gen:
        def plain_while(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            frame = _LoopFrame.new()
            ctx.loop_stack.append(frame)
            try:
                while True:
                    if ctx.has_inactive:
                        m = _and_not(mask, ctx.inactive)
                        if not _mask_any(m):
                            break
                    else:
                        m = mask
                    cond = cond_fn(ctx, m).astype(bool, copy=False)
                    ctx.stats.control_insts += 1
                    leaving = _and_not(m, cond)
                    if _mask_any(leaving):
                        frame.exited |= leaving
                        ctx.inactive |= leaving
                        ctx.has_inactive = True
                        m = m & cond
                        if not _mask_any(m):
                            break
                    body_fn(ctx, m)
                    if flow:
                        ctx.inactive &= ~frame.cont
                        frame.cont[:] = False
                        ctx.has_inactive = _mask_any(ctx.inactive)
            finally:
                ctx.loop_stack.pop()
                ctx.inactive &= ~(frame.broken | frame.exited)
                ctx.has_inactive = _mask_any(ctx.inactive)

        return plain_while, False

    def gen_while(ctx: WarpContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        frame = _LoopFrame.new()
        ctx.loop_stack.append(frame)
        try:
            while True:
                if ctx.has_inactive:
                    m = _and_not(mask, ctx.inactive)
                    if not _mask_any(m):
                        break
                else:
                    m = mask
                cond = cond_fn(ctx, m).astype(bool, copy=False)
                ctx.stats.control_insts += 1
                leaving = _and_not(m, cond)
                if _mask_any(leaving):
                    frame.exited |= leaving
                    ctx.inactive |= leaving
                    ctx.has_inactive = True
                    m = m & cond
                    if not _mask_any(m):
                        break
                yield from body_fn(ctx, m)
                if flow:
                    ctx.inactive &= ~frame.cont
                    frame.cont[:] = False
                    ctx.has_inactive = _mask_any(ctx.inactive)
        finally:
            ctx.loop_stack.pop()
            ctx.inactive &= ~(frame.broken | frame.exited)
            ctx.has_inactive = _mask_any(ctx.inactive)

    return gen_while, True


#: True while :func:`compile_kernel` lowers a kernel in profile mode: every
#: located statement closure is then wrapped with the per-line issue hook
#: (the compiled analogue of the hook at the top of ``interp.exec_stmt``).
#: Lowering is synchronous and single-threaded, so a module flag is safe and
#: avoids threading a parameter through the whole recursive lowerer.
_PROFILE_LOWERING = False


def _wrap_profiled(fn: StmtFn, is_gen: bool, line: int) -> StmtFn:
    """Fire ``profile.stmt`` when the statement executes.

    Mirrors the interpreter exactly: ``exec_stmt`` is a generator whose
    hook runs on first advance, and ``yield from`` advances immediately
    after creation, so a generator wrapper keeps both the firing point and
    the per-execution count identical.
    """
    if is_gen:

        def gen_hook(ctx: WarpContext, mask: np.ndarray):
            if ctx.profile is not None:
                ctx.profile.stmt(line, int(mask.sum()))
            yield from fn(ctx, mask)

        return gen_hook

    def hook(ctx: WarpContext, mask: np.ndarray):
        if ctx.profile is not None:
            ctx.profile.stmt(line, int(mask.sum()))
        fn(ctx, mask)

    return hook


def compile_stmt(stmt: Stmt) -> tuple[StmtFn, bool]:
    """Lower one statement; returns ``(fn, is_generator)``.

    In profile-lowering mode every statement with a source location gets
    the per-line issue hook — the same condition (``loc is not None and
    loc.line``, i.e. :func:`_stmt_loc`) the interpreter's hook uses.
    """
    fn, is_gen = _compile_stmt_dispatch(stmt)
    if _PROFILE_LOWERING:
        loc = _stmt_loc(stmt)
        if loc is not None:
            return _wrap_profiled(fn, is_gen, loc.line), is_gen
    return fn, is_gen


def _compile_stmt_dispatch(stmt: Stmt) -> tuple[StmtFn, bool]:
    loc = _stmt_loc(stmt)
    if isinstance(stmt, VarDecl):
        return _compile_decl(stmt), False
    if isinstance(stmt, Assign):
        return _compile_assign(stmt), False
    if isinstance(stmt, ExprStmt):
        if isinstance(stmt.expr, Call) and stmt.expr.func == "__syncthreads":
            return _compile_sync(stmt), True
        expr_fn = compile_expr(stmt.expr)

        def eval_stmt(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            expr_fn(ctx, mask)

        return eval_stmt, False
    if isinstance(stmt, Block):
        block_fn, block_gen = compile_block(stmt)
        if not block_gen:
            def plain_nested(ctx: WarpContext, mask: np.ndarray):
                if loc is not None:
                    ctx.current_loc = loc
                ctx.current_mask = mask
                block_fn(ctx, mask)

            return plain_nested, False

        def gen_nested(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            yield from block_fn(ctx, mask)

        return gen_nested, True
    if isinstance(stmt, If):
        return _compile_if(stmt)
    if isinstance(stmt, For):
        return _compile_for(stmt)
    if isinstance(stmt, While):
        return _compile_while(stmt)
    if isinstance(stmt, Return):
        value_fn = compile_expr(stmt.value) if stmt.value is not None else None

        def do_return(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            if value_fn is not None:
                value_fn(ctx, mask)
            ctx.returned |= mask
            ctx.inactive |= mask
            ctx.has_inactive = True

        return do_return, False
    if isinstance(stmt, Break):
        def do_break(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            if not ctx.loop_stack:
                raise SimError("break outside loop")
            ctx.loop_stack[-1].broken |= mask
            ctx.inactive |= mask
            ctx.has_inactive = True

        return do_break, False
    if isinstance(stmt, Continue):
        def do_continue(ctx: WarpContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            if not ctx.loop_stack:
                raise SimError("continue outside loop")
            ctx.loop_stack[-1].cont |= mask
            ctx.inactive |= mask
            ctx.has_inactive = True

        return do_continue, False
    kind = type(stmt).__name__

    def unknown(ctx: WarpContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        raise SimError(f"cannot execute statement {kind}")

    return unknown, False


def compile_block(block: Block) -> tuple[StmtFn, bool]:
    """Lower a statement list; returns ``(fn, is_generator)``.

    The per-statement ``mask & ~inactive`` recomputation the interpreter
    always performs is gated on ``ctx.has_inactive``: as long as no lane has
    parked, each statement runs under the block's entry mask directly.
    """
    pairs = [compile_stmt(s) for s in block.stmts]
    if not any(gen for _, gen in pairs):
        fns = tuple(fn for fn, _ in pairs)
        if len(fns) == 1:
            single = fns[0]

            def run_single(ctx: WarpContext, mask: np.ndarray):
                if ctx.has_inactive:
                    m = _and_not(mask, ctx.inactive)
                    if not _mask_any(m):
                        return
                    single(ctx, m)
                else:
                    single(ctx, mask)

            return run_single, False

        def run_plain(ctx: WarpContext, mask: np.ndarray):
            for fn in fns:
                if ctx.has_inactive:
                    m = _and_not(mask, ctx.inactive)
                    if not _mask_any(m):
                        return
                    fn(ctx, m)
                else:
                    fn(ctx, mask)

        return run_plain, False
    items = tuple(pairs)

    def run_gen(ctx: WarpContext, mask: np.ndarray):
        for fn, is_gen in items:
            if ctx.has_inactive:
                m = _and_not(mask, ctx.inactive)
                if not _mask_any(m):
                    return
            else:
                m = mask
            if is_gen:
                yield from fn(ctx, m)
            else:
                fn(ctx, m)

    return run_gen, True


# ---------------------------------------------------------------------------
# Compiled kernels and the compile cache
# ---------------------------------------------------------------------------


@dataclass
class CompiledKernel:
    """One kernel lowered to closures — a drop-in body for
    :class:`~repro.gpusim.interp.BlockExecutor` (``program=`` argument)."""

    kernel: Kernel
    digest: Optional[str]
    body_fn: StmtFn
    body_is_gen: bool
    uses_atomics: bool
    #: Whether statement closures carry the per-line profile issue hook
    #: (compiled via ``compile_kernel(..., profile=True)``; cached under a
    #: separate key so the non-profiled hot path stays wrapper-free).
    profiled: bool = False
    _resources: Optional[ResourceReport] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def has_barriers(self) -> bool:
        return self.body_is_gen

    def resources(self) -> ResourceReport:
        """The kernel's :class:`~repro.analysis.resources.ResourceReport`,
        estimated on first use.  It depends only on the source, so every
        launch that hits this cached artifact shares it."""
        if self._resources is None:
            from ..analysis.resources import estimate_resources

            self._resources = estimate_resources(self.kernel)
        return self._resources

    def warp_iterator(self, ctx: WarpContext, mask: np.ndarray) -> Iterator:
        """The generator the block executor round-robins; a barrier-free
        body runs to completion on the first ``next()``."""
        if self.body_is_gen:
            return self.body_fn(ctx, mask)
        return _plain_iterator(self.body_fn, ctx, mask)


def _plain_iterator(body_fn: StmtFn, ctx: WarpContext, mask: np.ndarray):
    body_fn(ctx, mask)
    return
    yield  # pragma: no cover - makes this function a generator


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


def _lower(
    kernel: Kernel, digest: Optional[str], profile: bool = False
) -> CompiledKernel:
    global _PROFILE_LOWERING
    prev = _PROFILE_LOWERING
    _PROFILE_LOWERING = profile
    try:
        body_fn, body_is_gen = compile_block(kernel.body)
    finally:
        _PROFILE_LOWERING = prev
    return CompiledKernel(
        kernel=kernel,
        digest=digest,
        body_fn=body_fn,
        body_is_gen=body_is_gen,
        uses_atomics=kernel_uses_atomics(kernel),
        profiled=profile,
    )


@dataclass
class CompileCacheStats:
    hits: int = 0
    misses: int = 0
    size: int = 0
    #: Process the counters belong to.  Forked pool workers inherit the
    #: parent's cache through copy-on-write but must not inherit its
    #: hit/miss history as their own — see :func:`_check_fork`.
    pid: int = 0
    #: Live cache entries broken down by lowering variant: plain per-block
    #: artifacts (``base``), profiled per-block artifacts (``prof``), and
    #: batched megablock artifacts of either flavor (``megablock``, cache
    #: keys carrying the ``#mb`` suffix).
    variants: dict = field(default_factory=dict)
    #: Aggregate disk-tier counters (all namespaces; zeros when no
    #: ``GPUSIM_CACHE_DIR`` / ``cache_dir`` is active) — see
    #: :mod:`repro.gpusim.diskcache`.
    disk: Optional[object] = None


def _variant_of(key: str) -> str:
    """Which lowering variant a cache key names (see key suffix scheme)."""
    if "#mb" in key:
        return "megablock"
    if key.endswith("#prof"):
        return "prof"
    return "base"


_CACHE: "OrderedDict[str, CompiledKernel]" = OrderedDict()
_CACHE_CAPACITY = 128
_CACHE_STATS = CompileCacheStats(pid=os.getpid())


def _check_fork() -> None:
    """Keep cache accounting honest across ``fork``.

    A forked worker inherits the parent's cache *contents* (copy-on-write
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
    """Shared LRU lookup (also used by the megablock lowering's ``#mb`` keys)
    so hit/miss accounting stays in one place."""
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


def compile_kernel(
    kernel: Kernel, cache: bool = True, profile: bool = False
) -> CompiledKernel:
    """Lower ``kernel`` to closures, reusing the digest-keyed LRU cache.

    Two structurally identical kernels (same pretty-printed source, including
    ``#define`` constants) share one compiled artifact; injector, sanitizer
    and synccheck plumbing is resolved from the runtime context, so a single
    artifact serves every launch mode.  ``profile=True`` lowers with the
    per-line issue hooks; profiled artifacts live under their own cache key
    so they never slow down non-profiled launches.
    """
    _check_fork()
    digest = kernel_digest(kernel) if cache else None
    if digest is None:
        return _lower(kernel, None, profile)
    key = digest + "#prof" if profile else digest
    cached = _cache_get(key)
    if cached is not None:
        return cached
    compiled = _lower(kernel, digest, profile)
    _cache_put(key, compiled)
    return compiled


def compile_cache_stats() -> CompileCacheStats:
    """Per-process cache counters (honest under forked workers: a child's
    counters restart at zero, its ``pid`` field says whose they are)."""
    _check_fork()
    _CACHE_STATS.size = len(_CACHE)
    variants = {"base": 0, "prof": 0, "megablock": 0}
    for key in _CACHE:
        variants[_variant_of(key)] += 1
    from .diskcache import disk_cache_stats

    return CompileCacheStats(
        hits=_CACHE_STATS.hits,
        misses=_CACHE_STATS.misses,
        size=len(_CACHE),
        pid=_CACHE_STATS.pid,
        variants=variants,
        disk=disk_cache_stats(),
    )


def clear_compile_cache() -> None:
    _check_fork()
    _CACHE.clear()
    _CACHE_STATS.hits = 0
    _CACHE_STATS.misses = 0
    _CACHE_STATS.size = 0
