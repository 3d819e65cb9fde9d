"""Batch-vectorized "megablock" execution engine.

The tree-walking interpreter in :mod:`repro.gpusim.interp` re-dispatches on
AST node types for every statement, every warp, every loop iteration, and
runs blocks one at a time.  This module lowers a kernel AST *once* into a
tree of specialized Python closures — operator dispatch, index-chain
resolution, dtype coercion and stat weights are resolved at lowering time —
and lowers the *block loop itself* into an ndarray axis: all blocks' lanes
stack into ``(blocks, WARP_SIZE)`` arrays (one "mega-warp" per warp slot)
and each statement closure runs exactly once for the entire batch.

The lowering is a statement-for-statement mirror of the interpreter with a
leading block axis:

* **Masks** are ``(blocks, lanes)``; a block whose row goes empty simply
  stops contributing — loops keep running until *no* block has active lanes,
  and every cost hook scales by the number of non-empty rows so counters
  stay bit-identical to the interpreter.
* **Stats** that the interpreter bumps by a constant per execution
  (``alu_insts += w``, ``global_load_insts += 1`` …) become ``+= w * rows``
  where ``rows`` counts blocks with at least one active lane.  Per-block
  execution never runs a statement under an empty mask, so ``rows`` is
  exactly the number of blocks that would have executed it.  All instruction
  weights are integer-valued floats, so the batched partial sums are exact.
* **Per-row reductions** replace the per-block coalescing/bank-conflict
  scalars: a sentinel sort counts distinct 128-byte segments per row, a
  sort + bincount finds the worst shared-memory bank degree per row, and a
  masked min/max detects constant-memory broadcasts per row.
* **Full mask.** When a memory access runs under the launch's full entry
  mask (:meth:`MegaContext.full_mask`), the hooks skip the per-lane
  masking: a block-invariant ``(WARP_SIZE,)`` address vector is reduced
  once and scaled by ``rows``, row-varying addresses reduce per row with
  no sentinel, and gathers and scatters index the data directly.
* **Shared/local memory** materializes as one ``(blocks, …)`` slab per
  declaration (:class:`~repro.gpusim.memory.BatchedSharedArray` /
  ``BatchedLocalArray``) with the same per-block byte addressing, so replay
  and transaction accounting match the interpreter bit-for-bit.
* **Barriers** keep the generator yield protocol: one stacked generator per
  mega-warp, round-robined exactly like ``BlockExecutor._run_block``.
* **Megawarp flattening** (:func:`megablock_flatten`) goes one step
  further for multi-warp blocks: the ``(blocks, warps)`` pair collapses
  into a single row axis of ``blocks * warps`` rows (block-major, matching
  the interpreter's issue order), so each statement closure runs once
  for the *entire grid* instead of once per warp slot.  Barriers become
  trivially satisfied lockstep points over the flattened axis; kernels
  whose barrier placement depends on the per-warp round-robin
  (``__syncthreads`` under divergent branches) keep the slotted form.
* **Atomics** lower into a deterministic segmented reduce
  (:func:`_mb_atomic_apply`): active lanes sort stably by address and fold
  in ascending (row, lane) order as a strict sequential left fold, so
  final memory bytes, returned old values, and the
  ``atomic_serializations`` counter all match the interpreter
  bit-for-bit.  That replay is only exact when the kernel's atomic traffic
  is order-free (:func:`~repro.gpusim.compile.kernel_atomic_order_free`);
  order-sensitive kernels take the launcher's ``"atomic-order"`` fallback.

Batching is *speculative*: anything the batched semantics cannot reproduce
exactly — block-varying shuffle widths, order-sensitive atomics, any
``SimError`` raised mid-batch — aborts the whole megablock run, and the
launcher restores the pre-launch global-memory snapshot and re-runs per
block on the interpreter.  A spurious batched fault therefore costs only
time, never correctness, and real faults surface with their exact
per-block diagnostics.

Lowered kernels (:class:`MegaKernel`) live in the digest-keyed LRU of
:mod:`repro.gpusim.compile`, profiled ones under a ``#prof`` key suffix
(:func:`compile_megablock`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

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
)
from ..prof.counters import KernelProfile, LineCounters, _line_of
from .compile import (
    FAST_BINARY_IMPLS,
    _LOWERING_CACHE,
    _and_not,
    _compile_literal,
    _compile_name,
    _has_flow,
    _mask_any,
    _plain_iterator,
    _raising,
    _stmt_loc,
    kernel_atomic_order_free,
    kernel_digest,
    kernel_flatten_safe,
    kernel_uses_atomics,
)
from .errors import IntrinsicError, MemoryFault, SimError, SyncError
from .interp import (
    WARP_SIZE,
    WarpScaffold,
    _broadcast,
    _pointer_arith,
    _resolve_index_chain,
    PointerValue,
)
from .intrinsics import (
    BINOP_WEIGHTS,
    DEFAULT_BINOP_WEIGHT,
    MATH_INTRINSICS,
    _check_width,
)
from .memory import (
    BatchedLocalArray,
    BatchedSharedArray,
    ConstArray,
    GlobalBuffer,
    dtype_for,
)

if TYPE_CHECKING:
    from ..analysis.resources import ResourceReport

#: ``ExprFn(ctx, mask) -> ndarray | PointerValue | memory object`` where
#: ``mask`` is ``(blocks, WARP_SIZE)``; values broadcast between
#: ``(WARP_SIZE,)`` (block-invariant) and ``(blocks, WARP_SIZE)``.
ExprFn = Callable[["MegaContext", np.ndarray], object]
StmtFn = Callable[["MegaContext", np.ndarray], object]

_LANES = np.arange(WARP_SIZE)
_I64_MAX = np.iinfo(np.int64).max


# ---------------------------------------------------------------------------
# Per-row batched stat reductions
#
# Each mirrors one per-warp scalar of repro.gpusim.coalescing, computed for
# every row of the batch at once.  Rows with no active lanes reduce to zero.
# ---------------------------------------------------------------------------


def _batch_txns(byte_addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Distinct 128-byte segments per row (``coalescing.transactions_for``)."""
    segs = np.where(mask, byte_addrs // 128, _I64_MAX)  # fresh, writable
    segs.sort(axis=1)
    row_any = segs[:, 0] != _I64_MAX
    fresh = (segs[:, 1:] != segs[:, :-1]) & (segs[:, 1:] != _I64_MAX)
    return row_any.astype(np.int64) + fresh.sum(axis=1)


def _batch_global_stats(
    byte_addrs: np.ndarray,
    mask: np.ndarray,
    elem_bytes: int,
    active_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(transactions, uncoalesced)`` — ``transactions_for`` and
    ``not is_fully_coalesced`` of :mod:`~repro.gpusim.coalescing`.

    ``active * elem_bytes`` is at most 256, so the integer ceiling equals the
    per-block float ``np.ceil`` exactly.  Empty rows: 0 transactions,
    coalesced (``0 > max(0, 1)`` is false), matching the per-block
    ``(0, True)`` early-out.
    """
    txns = _batch_txns(byte_addrs, mask)
    needed = (active_rows * elem_bytes + 127) // 128
    uncoalesced = txns > np.maximum(needed, 1)
    return txns, uncoalesced


def _batch_bank_replays(byte_addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Worst-bank replay count per row (``coalescing.bank_conflict_replays``):
    distinct 4-byte words per bank, worst bank sets the pass count."""
    words = np.where(mask, byte_addrs // 4, _I64_MAX)
    words.sort(axis=1)
    valid = words != _I64_MAX
    uniq = valid.copy()
    uniq[:, 1:] &= words[:, 1:] != words[:, :-1]
    nwords = uniq.sum(axis=1)
    nblocks = mask.shape[0]
    banks = words % 32
    keys = np.where(uniq, np.arange(nblocks)[:, None] * 32 + banks, nblocks * 32)
    counts = np.bincount(keys.ravel(), minlength=nblocks * 32 + 1)
    counts = counts[: nblocks * 32].reshape(nblocks, 32)
    max_degree = counts.max(axis=1)
    return np.where(nwords <= 1, 0, np.maximum(max_degree - 1, 0))


def _batch_const_serialized(byte_addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row ``not coalescing.broadcast_segments`` (all-equal address
    test); empty rows are broadcast-friendly like the per-block early-out."""
    addrs = np.broadcast_to(byte_addrs, mask.shape)
    lo = np.where(mask, addrs, _I64_MAX).min(axis=1)
    hi = np.where(mask, addrs, -1).max(axis=1)
    return (lo != hi) & mask.any(axis=1)


# ---------------------------------------------------------------------------
# Full-mask stat reductions
#
# Under the launch's full entry mask (:meth:`MegaContext.full_mask`) every
# lane of every row is active, so no reduction needs the inactive-lane
# sentinel or a per-row active count.  A block-invariant ``(WARP_SIZE,)``
# address vector is the same warp access in every row: the ``_warp_*``
# helpers reduce it once, and the hooks multiply by ``rows``.  The
# ``_full_*`` helpers reduce ``(rows, WARP_SIZE)`` addresses per row.
# ---------------------------------------------------------------------------


def _warp_txns(byte_addrs: np.ndarray) -> int:
    """``coalescing.transactions_for`` of one full warp."""
    return len(set((byte_addrs // 128).tolist()))


def _warp_bank_replays(byte_addrs: np.ndarray) -> int:
    """``coalescing.bank_conflict_replays`` of one full warp."""
    words = np.unique(byte_addrs // 4)
    return int(np.bincount(words % 32).max()) - 1


def _warp_const_serialized(byte_addrs: np.ndarray) -> bool:
    """``not coalescing.broadcast_segments`` of one full warp."""
    return len(set(byte_addrs.tolist())) > 1


def _full_txns(byte_addrs: np.ndarray) -> np.ndarray:
    """Per-row ``transactions_for`` of full rows."""
    segs = byte_addrs // 128  # fresh, writable
    segs.sort(axis=1)
    return 1 + np.count_nonzero(segs[:, 1:] != segs[:, :-1], axis=1)


def _full_bank_replays(byte_addrs: np.ndarray) -> np.ndarray:
    """Per-row ``bank_conflict_replays`` of full rows: distinct words per
    (row, bank), the worst bank sets the pass count."""
    words = byte_addrs // 4
    words.sort(axis=1)
    fresh = np.ones(words.shape, dtype=bool)
    fresh[:, 1:] = words[:, 1:] != words[:, :-1]
    nrows = words.shape[0]
    keys = (np.arange(nrows)[:, None] * 32 + words % 32)[fresh]
    counts = np.bincount(keys, minlength=nrows * 32).reshape(nrows, 32)
    return counts.max(axis=1) - 1


def _full_const_serialized(byte_addrs: np.ndarray) -> np.ndarray:
    """Per-row ``not broadcast_segments`` of full rows."""
    return byte_addrs.min(axis=1) != byte_addrs.max(axis=1)


def _in_bounds(idx: np.ndarray, limit: int) -> bool:
    """Every lane's index lies in ``[0, limit)``."""
    if idx.ndim == 1:  # one warp: list min/max beat two ufunc reductions
        lanes = idx.tolist()
        return min(lanes) >= 0 and max(lanes) < limit
    return int(idx.min()) >= 0 and int(idx.max()) < limit


def _batch_distinct(addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Distinct exact addresses per row — the batched form of the per-warp
    ``np.unique(offsets).size`` in :func:`interp._atomic_add`'s
    serialization accounting (``_batch_txns`` without the /128 segmenting)."""
    vals = np.where(mask, addrs, _I64_MAX)  # fresh, writable
    vals.sort(axis=1)
    row_any = vals[:, 0] != _I64_MAX
    fresh = (vals[:, 1:] != vals[:, :-1]) & (vals[:, 1:] != _I64_MAX)
    return row_any.astype(np.int64) + fresh.sum(axis=1)


# ---------------------------------------------------------------------------
# Deterministic batched atomics
#
# ``atomicAdd`` over the whole flattened batch reduces to: sort the active
# (row-major = sequential block/warp/lane order) elements by address, then
# left-fold each address group sequentially.  Because ``np.add.accumulate``
# is a strict left fold (no pairwise regrouping) and the stable sort keeps
# the sequential order within each group, both the final memory values and
# every lane's returned "old" value are bit-identical to the per-warp
# ``np.add.at`` issues of sequential execution — including float32 rounding.
# ---------------------------------------------------------------------------


def _group_prefix_fold(
    init_vals: np.ndarray,
    deltas: np.ndarray,
    lens: np.ndarray,
    gidx: np.ndarray,
    pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential per-group left fold.

    ``init_vals[g]`` seeds group ``g``; ``deltas`` are the sorted per-element
    addends, with ``gidx``/``pos`` giving each element's group and position.
    Returns ``(prefix, totals)``: the accumulator value *before* each element
    and the final value per group.  Groups are bucketed by power-of-two
    padded length into ``(groups, P + 1)`` matrices (column 0 holds the
    seed), so memory stays O(n) even under power-law collision skew; the
    trailing zero padding sits after every real delta, which leaves the
    prefixes — and, read at its exact length, each total — untouched.
    """
    dtype = deltas.dtype
    n = deltas.size
    prefix = np.empty(n, dtype=dtype)
    totals = np.empty(lens.size, dtype=dtype)
    arange_n = np.arange(n)
    maxlen = int(lens.max())
    done = np.zeros(lens.size, dtype=bool)
    cap = 1
    while True:
        sel = ~done & (lens <= cap)
        if sel.any():
            idx_g = np.nonzero(sel)[0]
            g = idx_g.size
            local = np.empty(lens.size, dtype=np.int64)
            local[idx_g] = np.arange(g)
            esel = sel[gidx]
            er = local[gidx[esel]]
            ec = pos[esel] + 1
            matrix = np.zeros((g, cap + 1), dtype=dtype)
            matrix[:, 0] = init_vals[idx_g]
            matrix[er, ec] = deltas[esel]
            acc = np.add.accumulate(matrix, axis=1)
            prefix[esel] = acc[er, ec - 1]
            totals[idx_g] = acc[np.arange(g), lens[idx_g]]
            done |= sel
        if cap >= maxlen:
            break
        cap *= 2
    return prefix, totals


def _mb_atomic_apply(data: np.ndarray, addrs, mask: np.ndarray, delta):
    """Apply one batched ``atomicAdd`` issue to the 1-D view ``data``.

    Mirrors the sequential per-warp semantics exactly: every lane's "old"
    value is the memory value at the start of its own row's issue (all lanes
    of one row observe the same pre-issue value, like the per-warp
    ``data[offsets].copy()`` before ``np.add.at``), and deltas accumulate in
    ascending (row, lane) order.
    """
    dtype = data.dtype
    out = np.zeros(mask.shape, dtype=dtype)
    if not _mask_any(mask):
        return out
    a = np.broadcast_to(addrs, mask.shape)[mask]
    d = np.broadcast_to(np.asarray(delta), mask.shape)[mask].astype(
        dtype, copy=False
    )
    row_e = np.nonzero(mask)[0]  # row per element, row-major like a/d
    n = a.size
    order = np.argsort(a, kind="stable")
    a_s = a[order]
    d_s = d[order]
    r_s = row_e[order]
    gstart = np.empty(n, dtype=bool)
    gstart[0] = True
    gstart[1:] = a_s[1:] != a_s[:-1]
    starts = np.nonzero(gstart)[0]
    lens = np.diff(np.append(starts, n))
    gidx = np.cumsum(gstart) - 1
    pos = np.arange(n) - starts[gidx]
    init_vals = data[a_s[starts]]
    prefix, totals = _group_prefix_fold(init_vals, d_s, lens, gidx, pos)
    # Old value = accumulator at the first element of this (group, row) run.
    rstart = gstart.copy()
    rstart[1:] |= r_s[1:] != r_s[:-1]
    run_first = np.maximum.accumulate(np.where(rstart, np.arange(n), 0))
    old_s = prefix[run_first]
    data[a_s[starts]] = totals
    old = np.empty(n, dtype=dtype)
    old[order] = old_s
    out[mask] = old
    return out


def _mb_atomic_add(ctx: "MegaContext", root, indices: list, mask: np.ndarray, delta):
    """Batched ``atomicAdd`` dispatch (global / shared), with the same
    serialization accounting as :func:`interp._atomic_add` per row."""
    stats = ctx.stats
    if isinstance(root, PointerValue):
        if len(indices) != 1:
            raise MemoryFault("global pointers are 1-D; use manual 2-D math")
        buf = root.buffer
        offsets = (root.offsets + indices[0]).astype(np.int64, copy=False)
        bad = mask & ((offsets < 0) | (offsets >= buf.data.size))
        if bad.any():
            raise _mb_bounds_fault(
                buf.name, "global", offsets, mask, buf.data.size
            )
        stats.atomic_serializations += int(mask.sum()) - int(
            _batch_distinct(offsets, mask).sum()
        )
        return _mb_atomic_apply(buf.data, offsets, mask, delta)
    if isinstance(root, BatchedSharedArray):
        flat = root.flat_index(indices)
        bad = mask & ((flat < 0) | (flat >= root.numel))
        if bad.any():
            raise _mb_bounds_fault(root.name, "shared", flat, mask, root.numel)
        # Key = slab_row * numel + flat: distinct blocks never collide, and
        # all warps of one block fold into that block's slab row.
        keys = root.batch_rows()[:, None] * root.numel + flat
        stats.atomic_serializations += int(mask.sum()) - int(
            _batch_distinct(keys, mask).sum()
        )
        return _mb_atomic_apply(root.data.reshape(-1), keys, mask, delta)
    raise IntrinsicError("atomicAdd target must be global or shared memory")


# ---------------------------------------------------------------------------
# Batched memory accessors
#
# Bounds faults raise generic MemoryFaults here: any SimError aborts the
# megablock run and the per-block rerun reproduces the exact located fault.
# ---------------------------------------------------------------------------


def _mb_bounds_fault(name: str, space: str, idx, mask, limit: int) -> MemoryFault:
    bad = np.broadcast_to(idx, mask.shape)[mask & ((idx < 0) | (idx >= limit))]
    return MemoryFault(
        f"{space} buffer {name!r}: index out of range (size {limit})",
        space=space,
        buffer=name,
        index=int(bad[0]),
        limit=limit,
    )


def _mb_global_load(buf: GlobalBuffer, offsets, mask) -> np.ndarray:
    data = buf.data
    bad = mask & ((offsets < 0) | (offsets >= data.size))
    if bad.any():
        raise _mb_bounds_fault(buf.name, "global", offsets, mask, data.size)
    return data[np.where(mask, offsets, 0)]


def _mb_global_store(buf: GlobalBuffer, offsets, mask, values) -> None:
    data = buf.data
    bad = mask & ((offsets < 0) | (offsets >= data.size))
    if bad.any():
        raise _mb_bounds_fault(buf.name, "global", offsets, mask, data.size)
    offsets_b = np.broadcast_to(offsets, mask.shape)
    values_b = np.broadcast_to(values, mask.shape)
    # Row-major flatten scatters ascending block order: the same last-writer-
    # wins order as the sequential per-block loop.
    data[offsets_b[mask]] = values_b[mask].astype(data.dtype, copy=False)


def _mb_tex_load(tex, idx, mask) -> np.ndarray:
    data = tex.data
    bad = mask & ((idx < 0) | (idx >= data.size))
    if bad.any():
        raise _mb_bounds_fault(tex.name, "global", idx, mask, data.size)
    return data[np.where(mask, idx, 0)]


# ---------------------------------------------------------------------------
# Batched shuffles
#
# Shuffle width (and shfl_up/down delta) is a per-warp scalar in the
# interpreter (``int(arr[0])``).  When the batched operand varies by
# block the batch cannot express it in one gather — abort to the fallback.
# ---------------------------------------------------------------------------


def _uniform_int(arr) -> int:
    arr = np.asarray(arr)
    if arr.ndim <= 1:
        return int(arr.flat[0])
    first = arr[:, 0]
    if (first != first[0]).any():
        raise SimError("megablock: shuffle operand varies across blocks")
    return int(first[0])


def _mb_shfl(values, lane_id, lane_size: int) -> np.ndarray:
    _check_width("__shfl", lane_size, WARP_SIZE)
    src = (_LANES // lane_size) * lane_size + np.asarray(lane_id) % lane_size
    values = np.asarray(values)
    if src.ndim <= 1:
        return values[..., src]
    if values.ndim < src.ndim:
        values = np.broadcast_to(values, src.shape)
    return np.take_along_axis(values, src, axis=-1)


def _mb_shfl_shift(values, delta: int, lane_size: int, down: bool) -> np.ndarray:
    _check_width("__shfl_down" if down else "__shfl_up", lane_size, WARP_SIZE)
    group = _LANES // lane_size
    pos = _LANES % lane_size
    moved = pos + delta if down else pos - delta
    in_range = moved < lane_size if down else moved >= 0
    src = group * lane_size + np.where(in_range, moved, pos)
    return np.asarray(values)[..., src]


# ---------------------------------------------------------------------------
# Batched profile adapter
# ---------------------------------------------------------------------------


class MegaProfile:
    """Accumulates batched profile counters, then reduces them into a
    :class:`~repro.prof.counters.KernelProfile` identical to what the
    interpreter would have produced for the same blocks.

    Line counters take the already-reduced row counts directly; the only
    per-block state a profile carries — ``BlockCost.inst_issues`` and
    ``.transactions`` — accumulates in two ``(blocks,)`` vectors and splits
    back into per-block records in :meth:`finish`.
    """

    def __init__(
        self, kernel_name: str, block_ids, num_warps: int, threads: int
    ):
        self.kernel = kernel_name
        self.block_ids = [int(b) for b in block_ids]
        self.num_warps = num_warps
        self.threads = threads
        self.lines: Dict[int, LineCounters] = {}
        nblocks = len(self.block_ids)
        self.rows_per_block = 1
        self.blk_issues = np.zeros(nblocks, dtype=np.int64)
        self.blk_txns = np.zeros(nblocks, dtype=np.int64)

    def set_rows_per_block(self, rows: int) -> None:
        """Switch to the flattened (megawarp) row layout: ``rows`` batch rows
        per block, block-major, folded back per block in :meth:`finish`.
        The executor calls this before the first statement hook fires."""
        self.rows_per_block = rows
        n = len(self.block_ids) * rows
        self.blk_issues = np.zeros(n, dtype=np.int64)
        self.blk_txns = np.zeros(n, dtype=np.int64)

    def _line(self, line: int) -> LineCounters:
        lc = self.lines.get(line)
        if lc is None:
            lc = self.lines[line] = LineCounters()
        return lc

    def stmt_rows(
        self, line: int, rows: int, active: int, row_any: np.ndarray
    ) -> None:
        lc = self._line(line)
        lc.inst_issues += rows
        lc.thread_issues += active
        self.blk_issues += row_any

    def divergent_n(self, line: int, n: int) -> None:
        self._line(line).divergent_branches += n

    def global_access_rows(
        self, loc, rows: int, txns_rows: np.ndarray, uncoalesced: int, store: bool
    ) -> None:
        lc = self._line(_line_of(loc))
        if store:
            lc.global_store_insts += rows
        else:
            lc.global_load_insts += rows
        lc.global_transactions += int(txns_rows.sum())
        lc.uncoalesced_accesses += uncoalesced
        self.blk_txns += txns_rows

    def shared_access_rows(self, loc, rows: int, replays: int, store: bool) -> None:
        lc = self._line(_line_of(loc))
        if store:
            lc.shared_store_insts += rows
        else:
            lc.shared_load_insts += rows
        lc.shared_bank_replays += replays

    def local_access_rows(self, loc, rows: int, txns_rows: np.ndarray) -> None:
        lc = self._line(_line_of(loc))
        lc.local_insts += rows
        lc.local_transactions += int(txns_rows.sum())
        self.blk_txns += txns_rows

    def const_access_rows(self, loc, rows: int, serialized: int) -> None:
        lc = self._line(_line_of(loc))
        lc.const_insts += rows
        lc.const_serialized += serialized

    def shfl_rows(self, loc, rows: int) -> None:
        self._line(_line_of(loc)).shfl_insts += rows

    def atomic_rows(self, loc, rows: int) -> None:
        self._line(_line_of(loc)).atomic_insts += rows

    def sync_rows(self, line: int, rows: int) -> None:
        self._line(line).syncthreads += rows

    def finish(self, target: KernelProfile) -> None:
        """Reduce into ``target`` exactly as per-block execution would."""
        target.merge(KernelProfile(kernel=self.kernel, lines=self.lines))
        issues = self.blk_issues
        txns = self.blk_txns
        if self.rows_per_block > 1:
            shape = (len(self.block_ids), self.rows_per_block)
            issues = issues.reshape(shape).sum(axis=1)
            txns = txns.reshape(shape).sum(axis=1)
        for i, bid in enumerate(self.block_ids):
            target.begin_block(bid, self.num_warps, self.threads)
            bc = target.blocks[bid]
            bc.inst_issues += int(issues[i])
            bc.transactions += int(txns[i])
        target._current = None


# ---------------------------------------------------------------------------
# Batched execution context
# ---------------------------------------------------------------------------


class _MbLoopFrame:
    """(blocks, lanes) liveness bookkeeping for one loop nest level."""

    __slots__ = ("broken", "cont", "exited")

    def __init__(self, shape: tuple[int, int]):
        self.broken = np.zeros(shape, dtype=bool)
        self.cont = np.zeros(shape, dtype=bool)
        self.exited = np.zeros(shape, dtype=bool)


class MegaContext:
    """Per-mega-warp execution state: ``WarpContext`` with a block axis.

    Carries only what the batched closures touch — trace/injector/sanitizer
    launches are never eligible for this engine.  ``rows``/``rows_any``
    cache the row reduction by mask identity: several hooks on one statement
    always receive the same mask object.
    """

    __slots__ = (
        "env",
        "init_mask",
        "entry_mask",
        "entry_full",
        "nblocks",
        "inactive",
        "has_inactive",
        "returned",
        "loop_stack",
        "stats",
        "profile",
        "atomics_ok",
        "current_loc",
        "current_mask",
        "warp_idx",
        "_rows_key",
        "_rows_any",
        "_rows_val",
    )

    def __init__(
        self,
        env: dict,
        init_mask: np.ndarray,
        stats,
        nblocks: int,
        warp_idx: int = 0,
        profile: Optional[MegaProfile] = None,
        atomics_ok: bool = False,
    ):
        self.env = env
        self.init_mask = init_mask
        #: The entry mask *object* and whether it covers every lane; see
        #: :meth:`full_mask`.
        self.entry_mask = init_mask
        self.entry_full = bool(init_mask.all())
        self.nblocks = nblocks
        self.inactive = np.zeros(init_mask.shape, dtype=bool)
        #: True whenever ``inactive`` may have set lanes, letting
        #: barrier-free straight-line code skip the per-statement
        #: ``mask & ~inactive`` recomputation the interpreter always pays.
        self.has_inactive = False
        self.returned = np.zeros(init_mask.shape, dtype=bool)
        self.loop_stack: List[_MbLoopFrame] = []
        self.stats = stats
        self.profile = profile
        # Only the flattened (megawarp) run order equals sequential atomic
        # order; the per-warp-slot schedule issues warp-major across blocks.
        self.atomics_ok = atomics_ok
        self.current_loc = None
        self.current_mask = init_mask
        self.warp_idx = warp_idx
        self._rows_key = None
        self._rows_any: Optional[np.ndarray] = None
        self._rows_val = 0

    def rows_any(self, mask: np.ndarray) -> np.ndarray:
        """(blocks,) bool: which rows have at least one active lane."""
        if mask is not self._rows_key:
            row_any = mask.any(axis=1)
            self._rows_key = mask
            self._rows_any = row_any
            self._rows_val = int(row_any.sum())
        return self._rows_any

    def rows(self, mask: np.ndarray) -> int:
        """How many blocks have at least one active lane — exactly the
        number of blocks the interpreter would run this statement for
        (it never executes a statement under an empty mask)."""
        if mask is not self._rows_key:
            self.rows_any(mask)
        return self._rows_val

    def full_mask(self, mask: np.ndarray) -> bool:
        """Is ``mask`` the launch's full entry mask, every lane of every row
        active?  Statements narrow a mask into new arrays and never mutate
        one, so the identity test is exact.  Assignments then skip the
        per-lane ``np.where`` merge, and the memory hooks take their
        full-mask path."""
        return mask is self.entry_mask and self.entry_full and not self.has_inactive


# ---------------------------------------------------------------------------
# Batched memory access (mirrors interp._load_object/_store_object minus the
# injector/trace/sanitizer hooks — those launches are ineligible)
#
# Each hook first tries its full-mask path: under the full entry mask of an
# unprofiled launch, stats come from the full-mask reductions above, bounds
# from min/max over all lanes, and gathers/scatters index the data without
# the per-lane ``np.where``/boolean compress.  An access with an
# out-of-range lane returns ``None``/``False`` there and takes the general
# path, which raises the fault.
# ---------------------------------------------------------------------------


def _full_global_stats(ctx: MegaContext, buf: GlobalBuffer, offsets) -> None:
    stats = ctx.stats
    rows = ctx.nblocks  # every row is active
    addrs = buf.byte_addrs(offsets)
    needed = max((WARP_SIZE * buf.itemsize + 127) // 128, 1)
    if addrs.ndim == 1:
        txns = _warp_txns(addrs)
        stats.global_transactions += txns * rows
        if txns > needed:
            stats.uncoalesced_accesses += rows
    else:
        txns_rows = _full_txns(addrs)
        stats.global_transactions += int(txns_rows.sum())
        stats.uncoalesced_accesses += int(np.count_nonzero(txns_rows > needed))


def _full_shared_stats(ctx: MegaContext, root: BatchedSharedArray, flat) -> None:
    addrs = root.byte_addrs(flat)
    if addrs.ndim == 1:
        ctx.stats.shared_bank_replays += _warp_bank_replays(addrs) * ctx.nblocks
    else:
        ctx.stats.shared_bank_replays += int(_full_bank_replays(addrs).sum())


def _full_local_stats(ctx: MegaContext, root: BatchedLocalArray, idx) -> None:
    stats = ctx.stats
    rows = ctx.nblocks
    addrs = root.byte_addrs(idx)
    if addrs.ndim == 1:
        stats.local_transactions += _warp_txns(addrs) * rows
    else:
        stats.local_transactions += int(_full_txns(addrs).sum())
    stats.local_bytes += rows * WARP_SIZE * root.itemsize


def _mb_load_full(ctx: MegaContext, root, indices: list):
    """Full-mask load; ``None`` defers to the general path.  A global or
    constant gather at block-invariant offsets returns the ``(WARP_SIZE,)``
    value every row reads."""
    stats = ctx.stats
    rows = ctx.nblocks
    if isinstance(root, PointerValue):
        if len(indices) != 1:
            return None
        buf = root.buffer
        offsets = root.offsets + indices[0]
        if not _in_bounds(offsets, buf.data.size):
            return None
        stats.global_load_insts += rows
        _full_global_stats(ctx, buf, offsets)
        return buf.data[offsets]
    if isinstance(root, BatchedSharedArray):
        flat = root.flat_index(indices)
        if not _in_bounds(flat, root.numel):
            return None
        stats.shared_load_insts += rows
        _full_shared_stats(ctx, root, flat)
        return root.data[root.batch_rows()[:, None], flat]
    if isinstance(root, BatchedLocalArray):
        if len(indices) != 1:
            return None
        idx = indices[0]
        if not _in_bounds(idx, root.numel):
            return None
        if not root.in_registers:
            stats.local_load_insts += rows
            _full_local_stats(ctx, root, idx)
        return root.data[np.arange(rows)[:, None], _LANES, idx]
    if isinstance(root, ConstArray):
        if len(indices) != 1:
            return None
        idx = indices[0]
        if not _in_bounds(idx, root.numel):
            return None
        stats.const_load_insts += rows
        addrs = root.byte_addrs(idx)
        if addrs.ndim == 1:
            stats.const_serialized += rows * _warp_const_serialized(addrs)
        else:
            stats.const_serialized += int(
                np.count_nonzero(_full_const_serialized(addrs))
            )
        return root.data[idx]
    return None


def _mb_store_full(ctx: MegaContext, root, indices: list, values) -> bool:
    """Full-mask store; ``False`` defers to the general path.  Global and
    shared scatters run in ``ravel()`` order, which under a full mask is
    the general path's ``arr[mask]`` order: row-major, so the last writer
    in sequential (block, warp, lane) order wins."""
    stats = ctx.stats
    rows = ctx.nblocks
    shape = (rows, WARP_SIZE)
    if isinstance(root, PointerValue):
        if len(indices) != 1:
            return False
        buf = root.buffer
        data = buf.data
        offsets = root.offsets + indices[0]
        if not _in_bounds(offsets, data.size):
            return False
        stats.global_store_insts += rows
        _full_global_stats(ctx, buf, offsets)
        data[np.broadcast_to(offsets, shape).ravel()] = np.broadcast_to(
            values, shape
        ).ravel().astype(data.dtype, copy=False)
        return True
    if isinstance(root, BatchedSharedArray):
        flat = root.flat_index(indices)
        if not _in_bounds(flat, root.numel):
            return False
        stats.shared_store_insts += rows
        _full_shared_stats(ctx, root, flat)
        slab_rows = np.broadcast_to(root.batch_rows()[:, None], shape).ravel()
        root.data[slab_rows, np.broadcast_to(flat, shape).ravel()] = (
            np.broadcast_to(values, shape).ravel().astype(root.data.dtype)
        )
        return True
    if isinstance(root, BatchedLocalArray):
        if len(indices) != 1:
            return False
        idx = indices[0]
        if not _in_bounds(idx, root.numel):
            return False
        if not root.in_registers:
            stats.local_store_insts += rows
            _full_local_stats(ctx, root, idx)
        # Every (row, lane) owns its element, so the scatter never collides.
        root.data[np.arange(rows)[:, None], _LANES, idx] = values.astype(
            root.data.dtype, copy=False
        )
        return True
    return False


def _mb_tex_full(ctx: MegaContext, tex, idx):
    """Full-mask ``tex1Dfetch`` with the general path's texture-cache
    amortization; ``None`` defers to the general path."""
    if not _in_bounds(idx, tex.data.size):
        return None
    rows = ctx.nblocks
    ctx.stats.global_load_insts += rows
    ctx.stats.global_transactions += rows * max(
        (WARP_SIZE * tex.itemsize + 127) // 128, 1
    )
    return tex.data[idx]


def _mb_load_object(ctx: MegaContext, root, indices: list, mask: np.ndarray):
    if ctx.profile is None and ctx.full_mask(mask):
        value = _mb_load_full(ctx, root, indices)
        if value is not None:
            return value
    stats = ctx.stats
    if isinstance(root, PointerValue):
        if len(indices) != 1:
            raise MemoryFault("global pointers are 1-D; use manual 2-D math")
        buf = root.buffer
        offsets = root.offsets + indices[0]
        addrs = buf.byte_addrs(offsets)
        rows = ctx.rows(mask)
        active_rows = mask.sum(axis=1)
        txns_rows, unco_rows = _batch_global_stats(
            addrs, mask, buf.itemsize, active_rows
        )
        stats.global_load_insts += rows
        stats.global_transactions += int(txns_rows.sum())
        uncoalesced = int(np.count_nonzero(unco_rows))
        stats.uncoalesced_accesses += uncoalesced
        if ctx.profile is not None:
            ctx.profile.global_access_rows(
                ctx.current_loc, rows, txns_rows, uncoalesced, False
            )
        return _mb_global_load(buf, offsets, mask)
    if isinstance(root, BatchedSharedArray):
        flat = root.flat_index(indices)
        rows = ctx.rows(mask)
        stats.shared_load_insts += rows
        replays_rows = _batch_bank_replays(root.byte_addrs(flat), mask)
        replays = int(replays_rows.sum())
        stats.shared_bank_replays += replays
        if ctx.profile is not None:
            ctx.profile.shared_access_rows(ctx.current_loc, rows, replays, False)
        return root.load(flat, mask)
    if isinstance(root, BatchedLocalArray):
        if len(indices) != 1:
            raise MemoryFault("local arrays are 1-D in this subset")
        idx = indices[0]
        if root.in_registers:
            pass  # register operand: free (the template unrolls the index)
        else:
            rows = ctx.rows(mask)
            stats.local_load_insts += rows
            ltx_rows = _batch_txns(root.byte_addrs(idx), mask)
            stats.local_transactions += int(ltx_rows.sum())
            stats.local_bytes += int(mask.sum()) * root.itemsize
            if ctx.profile is not None:
                ctx.profile.local_access_rows(ctx.current_loc, rows, ltx_rows)
        return root.load(idx, mask)
    if isinstance(root, ConstArray):
        if len(indices) != 1:
            raise MemoryFault("constant arrays are 1-D")
        idx = indices[0]
        rows = ctx.rows(mask)
        stats.const_load_insts += rows
        serialized = int(
            np.count_nonzero(_batch_const_serialized(root.byte_addrs(idx), mask))
        )
        stats.const_serialized += serialized
        if ctx.profile is not None:
            ctx.profile.const_access_rows(ctx.current_loc, rows, serialized)
        return _mb_tex_load(root, idx, mask)
    raise MemoryFault(f"cannot index into {type(root).__name__}")


def _mb_store_object(
    ctx: MegaContext, root, indices: list, mask: np.ndarray, values
) -> None:
    values = np.asarray(values)
    if ctx.profile is None and ctx.full_mask(mask):
        if _mb_store_full(ctx, root, indices, values):
            return
    stats = ctx.stats
    if isinstance(root, PointerValue):
        if len(indices) != 1:
            raise MemoryFault("global pointers are 1-D; use manual 2-D math")
        buf = root.buffer
        offsets = root.offsets + indices[0]
        addrs = buf.byte_addrs(offsets)
        rows = ctx.rows(mask)
        active_rows = mask.sum(axis=1)
        txns_rows, unco_rows = _batch_global_stats(
            addrs, mask, buf.itemsize, active_rows
        )
        stats.global_store_insts += rows
        stats.global_transactions += int(txns_rows.sum())
        uncoalesced = int(np.count_nonzero(unco_rows))
        stats.uncoalesced_accesses += uncoalesced
        if ctx.profile is not None:
            ctx.profile.global_access_rows(
                ctx.current_loc, rows, txns_rows, uncoalesced, True
            )
        _mb_global_store(buf, offsets, mask, values)
        return
    if isinstance(root, BatchedSharedArray):
        flat = root.flat_index(indices)
        rows = ctx.rows(mask)
        stats.shared_store_insts += rows
        replays_rows = _batch_bank_replays(root.byte_addrs(flat), mask)
        replays = int(replays_rows.sum())
        stats.shared_bank_replays += replays
        if ctx.profile is not None:
            ctx.profile.shared_access_rows(ctx.current_loc, rows, replays, True)
        root.store(flat, mask, values)
        return
    if isinstance(root, BatchedLocalArray):
        if len(indices) != 1:
            raise MemoryFault("local arrays are 1-D in this subset")
        idx = indices[0]
        if root.in_registers:
            pass  # register operand: free (the template unrolls the index)
        else:
            rows = ctx.rows(mask)
            stats.local_store_insts += rows
            ltx_rows = _batch_txns(root.byte_addrs(idx), mask)
            stats.local_transactions += int(ltx_rows.sum())
            stats.local_bytes += int(mask.sum()) * root.itemsize
            if ctx.profile is not None:
                ctx.profile.local_access_rows(ctx.current_loc, rows, ltx_rows)
        root.store(idx, mask, values)
        return
    if isinstance(root, ConstArray):
        raise MemoryFault(f"constant array {root.name!r} is read-only")
    raise MemoryFault(f"cannot store into {type(root).__name__}")


# ---------------------------------------------------------------------------
# Expression lowering (mirrors interp.py; stat bumps scale by active rows)
# ---------------------------------------------------------------------------


def _mb_binary(expr: Binary) -> ExprFn:
    lhs_fn = mb_expr(expr.lhs)
    rhs_fn = mb_expr(expr.rhs)
    op = expr.op
    impl = FAST_BINARY_IMPLS.get(op)
    if impl is None:
        def unknown(ctx: MegaContext, mask: np.ndarray):
            lhs_fn(ctx, mask)
            rhs_fn(ctx, mask)
            ctx.stats.alu_insts += DEFAULT_BINOP_WEIGHT * ctx.rows(mask)
            raise KeyError(op)

        return unknown
    weight = BINOP_WEIGHTS.get(op, DEFAULT_BINOP_WEIGHT)
    const_name: Optional[str] = None
    if op in ("/", "%"):
        if isinstance(expr.rhs, IntLit):
            weight = 1.0
        elif isinstance(expr.rhs, Name):
            const_name = expr.rhs.id

    if const_name is not None:
        heavy = weight

        def fn_dyn(ctx: MegaContext, mask: np.ndarray):
            lhs = lhs_fn(ctx, mask)
            rhs = rhs_fn(ctx, mask)
            if isinstance(ctx.env.get(const_name), (int, np.integer)):
                ctx.stats.alu_insts += 1.0 * ctx.rows(mask)
            else:
                ctx.stats.alu_insts += heavy * ctx.rows(mask)
            if lhs.__class__ is PointerValue or rhs.__class__ is PointerValue:
                return _pointer_arith(op, lhs, rhs)
            return impl(lhs, rhs)

        return fn_dyn

    def fn(ctx: MegaContext, mask: np.ndarray):
        lhs = lhs_fn(ctx, mask)
        rhs = rhs_fn(ctx, mask)
        ctx.stats.alu_insts += weight * ctx.rows(mask)
        if lhs.__class__ is PointerValue or rhs.__class__ is PointerValue:
            return _pointer_arith(op, lhs, rhs)
        return impl(lhs, rhs)

    return fn


def _mb_unary(expr: Unary) -> ExprFn:
    operand_fn = mb_expr(expr.operand)
    op = expr.op
    if op == "-":
        def neg(ctx, mask):
            value = operand_fn(ctx, mask)
            ctx.stats.alu_insts += ctx.rows(mask)
            return -value

        return neg
    if op == "+":
        def pos(ctx, mask):
            value = operand_fn(ctx, mask)
            ctx.stats.alu_insts += ctx.rows(mask)
            return value

        return pos
    if op == "!":
        def lnot(ctx, mask):
            value = operand_fn(ctx, mask)
            ctx.stats.alu_insts += ctx.rows(mask)
            return ~value.astype(bool, copy=False)

        return lnot
    if op == "~":
        def bnot(ctx, mask):
            value = operand_fn(ctx, mask)
            ctx.stats.alu_insts += ctx.rows(mask)
            return (~value.astype(np.int64)).astype(np.int32)

        return bnot

    def unknown(ctx, mask):
        operand_fn(ctx, mask)
        ctx.stats.alu_insts += ctx.rows(mask)
        raise SimError(f"unknown unary op {op}")

    return unknown


def _mb_index_chain(expr: Index):
    root_expr, index_exprs = _resolve_index_chain(expr)
    root_fn = mb_expr(root_expr)
    idx_fns = tuple(mb_expr(ie) for ie in index_exprs)
    return root_fn, idx_fns


def _mb_load(expr: Index) -> ExprFn:
    loc = _stmt_loc(expr)
    root_fn, idx_fns = _mb_index_chain(expr)

    def fn(ctx: MegaContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        root = root_fn(ctx, mask)
        indices = [f(ctx, mask).astype(np.int64, copy=False) for f in idx_fns]
        return _mb_load_object(ctx, root, indices, mask)

    return fn


def _mb_call(expr: Call) -> ExprFn:
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
        var_fn = mb_expr(expr.args[0])
        lane_fn = mb_expr(expr.args[1])
        width_fn = mb_expr(expr.args[2])
        if func == "__shfl":
            def do_shfl(ctx: MegaContext, mask: np.ndarray):
                if loc is not None:
                    ctx.current_loc = loc
                var = var_fn(ctx, mask)
                lane = lane_fn(ctx, mask)
                width = _uniform_int(width_fn(ctx, mask))
                ctx.stats.shfl_insts += ctx.rows(mask)
                if ctx.profile is not None:
                    ctx.profile.shfl_rows(ctx.current_loc, ctx.rows(mask))
                return _mb_shfl(var, lane, width)

            return do_shfl
        down = func == "__shfl_down"

        def do_shift(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            var = var_fn(ctx, mask)
            lane = lane_fn(ctx, mask)
            width = _uniform_int(width_fn(ctx, mask))
            ctx.stats.shfl_insts += ctx.rows(mask)
            if ctx.profile is not None:
                ctx.profile.shfl_rows(ctx.current_loc, ctx.rows(mask))
            return _mb_shfl_shift(var, _uniform_int(lane), width, down)

        return do_shift
    if func == "atomicAdd":
        if len(expr.args) != 2 or not isinstance(expr.args[0], Index):
            return _raising(
                IntrinsicError, "atomicAdd expects (array[index], value)", loc
            )
        root_fn, idx_fns = _mb_index_chain(expr.args[0])
        delta_fn = mb_expr(expr.args[1])

        def do_atomic(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            if not ctx.atomics_ok:
                # Per-warp-slot scheduling issues warp 0 of every block
                # before warp 1 of any block — not the sequential atomic
                # order.  Abort to the exact per-block fallback.
                raise SimError(
                    "megablock: atomics need the flattened (megawarp) order"
                )
            root = root_fn(ctx, mask)
            indices = [
                f(ctx, mask).astype(np.int64, copy=False) for f in idx_fns
            ]
            delta = delta_fn(ctx, mask)
            rows = ctx.rows(mask)
            ctx.stats.atomic_insts += rows
            if ctx.profile is not None:
                ctx.profile.atomic_rows(ctx.current_loc, rows)
            return _mb_atomic_add(ctx, root, indices, mask, delta)

        return do_atomic
    if func == "tex1Dfetch":
        if len(expr.args) != 2 or not isinstance(expr.args[0], Name):
            return _raising(
                IntrinsicError, "tex1Dfetch expects (texture_name, index)", loc
            )
        tex_name = expr.args[0].id
        idx_fn = mb_expr(expr.args[1])

        def do_tex(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            tex = ctx.env.get(tex_name)
            idx = idx_fn(ctx, mask).astype(np.int64, copy=False)
            if isinstance(tex, (ConstArray, GlobalBuffer)):
                if ctx.profile is None and ctx.full_mask(mask):
                    value = _mb_tex_full(ctx, tex, idx)
                    if value is not None:
                        return value
                # Texture-cache amortization: see interp._eval_call.
                rows = ctx.rows(mask)
                ctx.stats.global_load_insts += rows
                active_rows = mask.sum(axis=1)
                txns_rows = np.where(
                    active_rows > 0,
                    np.maximum((active_rows * tex.itemsize + 127) // 128, 1),
                    0,
                )
                ctx.stats.global_transactions += int(txns_rows.sum())
                if ctx.profile is not None:
                    ctx.profile.global_access_rows(
                        ctx.current_loc, rows, txns_rows, 0, False
                    )
                return _mb_tex_load(tex, idx, mask)
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
        arg_fns = tuple(mb_expr(a) for a in expr.args)
        impl = intrinsic.fn
        weight = intrinsic.weight

        def do_intrinsic(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            args = [f(ctx, mask) for f in arg_fns]
            ctx.stats.alu_insts += weight * ctx.rows(mask)
            return impl(*args)

        return do_intrinsic
    return _raising(IntrinsicError, f"unknown device function {func!r}", loc)


def mb_expr(expr: Expr) -> ExprFn:
    """Lower one expression to a batched closure ``fn(ctx, mask)``.

    Literals and name lookups reuse the per-block lowerers: their
    ``(WARP_SIZE,)`` results broadcast against ``(blocks, WARP_SIZE)``
    operands, which is exactly the block-invariant semantics.
    """
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
        if isinstance(expr.base, Name) and expr.base.id in _MB_DIM_NAMES:
            key = f"{expr.base.id}.{expr.name}"

            def builtin(ctx: MegaContext, mask: np.ndarray):
                try:
                    return ctx.env[key]
                except KeyError as exc:
                    raise SimError(f"unknown builtin {key}") from exc

            return builtin
        return _raising(SimError, f"unsupported member access .{expr.name}")
    if isinstance(expr, Unary):
        return _mb_unary(expr)
    if isinstance(expr, Binary):
        return _mb_binary(expr)
    if isinstance(expr, Ternary):
        cond_fn = mb_expr(expr.cond)
        then_fn = mb_expr(expr.then)
        els_fn = mb_expr(expr.els)

        def ternary(ctx: MegaContext, mask: np.ndarray):
            cond = cond_fn(ctx, mask).astype(bool, copy=False)
            then = then_fn(ctx, mask)
            els = els_fn(ctx, mask)
            ctx.stats.alu_insts += ctx.rows(mask)  # select
            if then.dtype.kind == "f" or els.dtype.kind == "f":
                then = then.astype(np.float32, copy=False)
                els = els.astype(np.float32, copy=False)
            return np.where(cond, then, els)

        return ternary
    if isinstance(expr, Cast):
        inner_fn = mb_expr(expr.expr)
        type_name = expr.type.name
        try:
            cast_dtype = dtype_for(type_name)
        except MemoryFault as exc:
            cast_dtype = None
            cast_error = str(exc)

        def cast(ctx: MegaContext, mask: np.ndarray):
            value = inner_fn(ctx, mask)
            ctx.stats.alu_insts += ctx.rows(mask)
            if value.__class__ is PointerValue:
                return value
            if cast_dtype is None:
                raise MemoryFault(cast_error)
            return value.astype(cast_dtype, copy=False)

        return cast
    if isinstance(expr, Index):
        return _mb_load(expr)
    if isinstance(expr, Call):
        return _mb_call(expr)
    return _raising(SimError, f"cannot evaluate expression {expr!r}")


_MB_DIM_NAMES = ("threadIdx", "blockIdx", "blockDim", "gridDim")


# ---------------------------------------------------------------------------
# Statement lowering
# ---------------------------------------------------------------------------


def _mb_decl(stmt: VarDecl) -> StmtFn:
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

            def check(ctx: MegaContext, mask: np.ndarray):
                if loc is not None:
                    ctx.current_loc = loc
                ctx.current_mask = mask
                if name not in ctx.env:
                    raise SimError(missing)

            return check
        numel = type_.numel
        elem = type_.elem.name
        in_registers = type_.space == "reg"

        def local_decl(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            existing = ctx.env.get(name)
            if isinstance(existing, BatchedLocalArray) and existing.numel == numel:
                existing.data[...] = 0
            else:
                base = ctx.env.get("__local_base__", 1 << 32)
                arr = BatchedLocalArray(
                    name,
                    numel,
                    elem,
                    nblocks=ctx.nblocks,
                    base_addr=base,
                    in_registers=in_registers,
                )
                ctx.env["__local_base__"] = base + arr.bytes_per_thread * WARP_SIZE
                ctx.env[name] = arr

        return local_decl
    if stmt.init is None:
        if isinstance(type_, PointerType):
            message = f"pointer {name!r} declared without initializer"

            def bad_ptr(ctx: MegaContext, mask: np.ndarray):
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

        def zero_decl(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            ctx.env[name] = zeros

        return zero_decl
    init_fn = mb_expr(stmt.init)
    if isinstance(type_, PointerType):
        def ptr_decl(ctx: MegaContext, mask: np.ndarray):
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

    def scalar_decl(ctx: MegaContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        value = init_fn(ctx, mask)
        if isinstance(value, PointerValue):
            raise SimError(f"scalar {name!r} initialized with pointer")
        ctx.env[name] = value.astype(decl_dtype, copy=False)

    return scalar_decl


def _mb_assign(stmt: Assign) -> StmtFn:
    loc = _stmt_loc(stmt)
    if stmt.op != "=":
        value_fn = mb_expr(Binary(stmt.op[:-1], stmt.target, stmt.value))
    else:
        value_fn = mb_expr(stmt.value)
    target = stmt.target
    if isinstance(target, Name):
        name = target.id

        def assign_name(ctx: MegaContext, mask: np.ndarray):
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
                old = _broadcast(
                    old, np.int32 if isinstance(old, int) else np.float32
                )
            if old.__class__ is PointerValue:
                ctx.env[name] = value
                return
            if ctx.full_mask(mask):
                ctx.env[name] = value.astype(old.dtype, copy=False)
            else:
                ctx.env[name] = np.where(
                    mask, value.astype(old.dtype, copy=False), old
                )

        return assign_name
    if isinstance(target, Index):
        root_fn, idx_fns = _mb_index_chain(target)

        def assign_index(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            value = value_fn(ctx, mask)
            root = root_fn(ctx, mask)
            indices = [
                f(ctx, mask).astype(np.int64, copy=False) for f in idx_fns
            ]
            _mb_store_object(ctx, root, indices, mask, value)

        return assign_index
    message = f"invalid assignment target {type(target).__name__}"

    def bad_target(ctx: MegaContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        value_fn(ctx, mask)
        raise SimError(message)

    return bad_target


def _mb_sync(stmt: ExprStmt) -> StmtFn:
    loc = _stmt_loc(stmt)
    line = stmt.loc.line if stmt.loc is not None else 0

    def sync(ctx: MegaContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        ctx.stats.syncthreads += ctx.rows(mask)
        if ctx.profile is not None:
            ctx.profile.sync_rows(line, ctx.rows(mask))
        yield ("sync", line)

    return sync


def _mb_then_mask(ctx: MegaContext, mask: np.ndarray, cond: np.ndarray):
    """``mask & cond``, or ``mask`` itself when it is the full entry mask
    and every lane takes the branch: the two are equal lane for lane, and
    the body of a uniform branch keeps the full-mask path."""
    if ctx.full_mask(mask) and b"\x00" not in cond.tobytes():
        return mask
    return mask & cond


def _mb_if(stmt: If) -> tuple[StmtFn, bool]:
    loc = _stmt_loc(stmt)
    line = loc.line if loc is not None else None
    cond_fn = mb_expr(stmt.cond)
    then_fn, then_gen = mb_block(stmt.then)
    has_else = stmt.els is not None and bool(stmt.els.stmts)
    els_fn, els_gen = mb_block(stmt.els) if has_else else (None, False)
    is_gen = then_gen or els_gen

    if not is_gen:
        def plain_if(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            cond = cond_fn(ctx, mask).astype(bool, copy=False)
            ctx.stats.control_insts += ctx.rows(mask)
            m_then = _mb_then_mask(ctx, mask, cond)
            then_any = _mask_any(m_then)
            if has_else:
                m_else = _and_not(mask, cond)
                else_any = _mask_any(m_else)
                if then_any and else_any:
                    both = m_then.any(axis=1) & m_else.any(axis=1)
                    ndiv = int(np.count_nonzero(both))
                    if ndiv:
                        ctx.stats.divergent_branches += ndiv
                        if ctx.profile is not None and line is not None:
                            ctx.profile.divergent_n(line, ndiv)
                if then_any:
                    then_fn(ctx, m_then)
                if else_any:
                    els_fn(ctx, m_else)
            elif then_any:
                then_fn(ctx, m_then)

        return plain_if, False

    def gen_if(ctx: MegaContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        cond = cond_fn(ctx, mask).astype(bool, copy=False)
        ctx.stats.control_insts += ctx.rows(mask)
        m_then = _mb_then_mask(ctx, mask, cond)
        then_any = _mask_any(m_then)
        if has_else:
            m_else = _and_not(mask, cond)
            else_any = _mask_any(m_else)
            if then_any and else_any:
                both = m_then.any(axis=1) & m_else.any(axis=1)
                ndiv = int(np.count_nonzero(both))
                if ndiv:
                    ctx.stats.divergent_branches += ndiv
                    if ctx.profile is not None and line is not None:
                        ctx.profile.divergent_n(line, ndiv)
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


def _mb_for(stmt: For) -> tuple[StmtFn, bool]:
    loc = _stmt_loc(stmt)
    init_fn, init_gen = (
        mb_stmt(stmt.init) if stmt.init is not None else (None, False)
    )
    cond_fn = mb_expr(stmt.cond) if stmt.cond is not None else None
    update_fn, update_gen = (
        mb_stmt(stmt.update) if stmt.update is not None else (None, False)
    )
    body_fn, body_gen = mb_block(stmt.body)
    flow = _has_flow(stmt.body)
    is_gen = init_gen or update_gen or body_gen

    if not is_gen:
        def plain_for(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            if init_fn is not None:
                init_fn(ctx, mask)
            frame = _MbLoopFrame(ctx.init_mask.shape)
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
                        ctx.stats.control_insts += ctx.rows(m)
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
                        if update_fn is not None:
                            mu = _and_not(mask, ctx.inactive)
                            if _mask_any(mu):
                                update_fn(ctx, mu)
                    elif update_fn is not None:
                        update_fn(ctx, m)
            finally:
                ctx.loop_stack.pop()
                ctx.inactive &= ~(frame.broken | frame.exited)
                ctx.has_inactive = _mask_any(ctx.inactive)

        return plain_for, False

    def gen_for(ctx: MegaContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        if init_fn is not None:
            if init_gen:
                yield from init_fn(ctx, mask)
            else:
                init_fn(ctx, mask)
        frame = _MbLoopFrame(ctx.init_mask.shape)
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
                    ctx.stats.control_insts += ctx.rows(m)
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


def _mb_while(stmt: While) -> tuple[StmtFn, bool]:
    loc = _stmt_loc(stmt)
    cond_fn = mb_expr(stmt.cond)
    body_fn, body_gen = mb_block(stmt.body)
    flow = _has_flow(stmt.body)

    if not body_gen:
        def plain_while(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            frame = _MbLoopFrame(ctx.init_mask.shape)
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
                    ctx.stats.control_insts += ctx.rows(m)
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

    def gen_while(ctx: MegaContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        frame = _MbLoopFrame(ctx.init_mask.shape)
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
                ctx.stats.control_insts += ctx.rows(m)
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


#: True while :func:`compile_megablock` lowers a kernel in profile mode:
#: every located statement closure is then wrapped with the per-line issue
#: hook (the batched analogue of the hook at the top of
#: ``interp.exec_stmt``).  Lowering is synchronous and single-threaded, so
#: a module flag is safe and avoids threading a parameter through the whole
#: recursive lowerer.
_MB_PROFILE_LOWERING = False


def _mb_wrap_profiled(fn: StmtFn, is_gen: bool, line: int) -> StmtFn:
    """Fire the per-line issue hook when the statement executes: one call
    per execution carrying the row count, total active lanes and the
    per-row activity vector (for BlockCost.inst_issues).

    Mirrors the interpreter: ``exec_stmt`` is a generator whose hook runs
    on first advance, and ``yield from`` advances immediately after
    creation, so a generator wrapper keeps the firing point identical.
    """
    if is_gen:

        def gen_hook(ctx: MegaContext, mask: np.ndarray):
            if ctx.profile is not None:
                ctx.profile.stmt_rows(
                    line, ctx.rows(mask), int(mask.sum()), ctx.rows_any(mask)
                )
            yield from fn(ctx, mask)

        return gen_hook

    def hook(ctx: MegaContext, mask: np.ndarray):
        if ctx.profile is not None:
            ctx.profile.stmt_rows(
                line, ctx.rows(mask), int(mask.sum()), ctx.rows_any(mask)
            )
        fn(ctx, mask)

    return hook


def mb_stmt(stmt: Stmt) -> tuple[StmtFn, bool]:
    fn, is_gen = _mb_stmt_dispatch(stmt)
    if _MB_PROFILE_LOWERING:
        loc = _stmt_loc(stmt)
        if loc is not None:
            return _mb_wrap_profiled(fn, is_gen, loc.line), is_gen
    return fn, is_gen


def _mb_stmt_dispatch(stmt: Stmt) -> tuple[StmtFn, bool]:
    loc = _stmt_loc(stmt)
    if isinstance(stmt, VarDecl):
        return _mb_decl(stmt), False
    if isinstance(stmt, Assign):
        return _mb_assign(stmt), False
    if isinstance(stmt, ExprStmt):
        if isinstance(stmt.expr, Call) and stmt.expr.func == "__syncthreads":
            return _mb_sync(stmt), True
        expr_fn = mb_expr(stmt.expr)

        def eval_stmt(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            expr_fn(ctx, mask)

        return eval_stmt, False
    if isinstance(stmt, Block):
        block_fn, block_gen = mb_block(stmt)
        if not block_gen:
            def plain_nested(ctx: MegaContext, mask: np.ndarray):
                if loc is not None:
                    ctx.current_loc = loc
                ctx.current_mask = mask
                block_fn(ctx, mask)

            return plain_nested, False

        def gen_nested(ctx: MegaContext, mask: np.ndarray):
            if loc is not None:
                ctx.current_loc = loc
            ctx.current_mask = mask
            yield from block_fn(ctx, mask)

        return gen_nested, True
    if isinstance(stmt, If):
        return _mb_if(stmt)
    if isinstance(stmt, For):
        return _mb_for(stmt)
    if isinstance(stmt, While):
        return _mb_while(stmt)
    if isinstance(stmt, Return):
        value_fn = mb_expr(stmt.value) if stmt.value is not None else None

        def do_return(ctx: MegaContext, mask: np.ndarray):
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
        def do_break(ctx: MegaContext, mask: np.ndarray):
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
        def do_continue(ctx: MegaContext, mask: np.ndarray):
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

    def unknown(ctx: MegaContext, mask: np.ndarray):
        if loc is not None:
            ctx.current_loc = loc
        ctx.current_mask = mask
        raise SimError(f"cannot execute statement {kind}")

    return unknown, False


def mb_block(block: Block) -> tuple[StmtFn, bool]:
    pairs = [mb_stmt(s) for s in block.stmts]
    if not any(gen for _, gen in pairs):
        fns = tuple(fn for fn, _ in pairs)
        if len(fns) == 1:
            single = fns[0]

            def run_single(ctx: MegaContext, mask: np.ndarray):
                if ctx.has_inactive:
                    m = _and_not(mask, ctx.inactive)
                    if not _mask_any(m):
                        return
                    single(ctx, m)
                else:
                    single(ctx, mask)

            return run_single, False

        def run_plain(ctx: MegaContext, mask: np.ndarray):
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

    def run_gen(ctx: MegaContext, mask: np.ndarray):
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
# Lowered kernels and the compile cache
# ---------------------------------------------------------------------------


@dataclass
class MegaKernel:
    """One kernel lowered to batched closures for
    :class:`MegablockExecutor`."""

    kernel: Kernel
    digest: Optional[str]
    body_fn: StmtFn
    body_is_gen: bool
    uses_atomics: bool
    flatten_safe: bool
    atomics_exact: bool
    profiled: bool = False
    _resources: Optional["ResourceReport"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def has_barriers(self) -> bool:
        return self.body_is_gen

    def resources(self) -> "ResourceReport":
        """The kernel's :class:`~repro.analysis.resources.ResourceReport`,
        estimated on first use.  It depends only on the source, so every
        launch that hits this cached artifact shares it."""
        if self._resources is None:
            from ..analysis.resources import estimate_resources

            self._resources = estimate_resources(self.kernel)
        return self._resources

    def warp_iterator(self, ctx: MegaContext, mask: np.ndarray) -> Iterator:
        if self.body_is_gen:
            return self.body_fn(ctx, mask)
        return _plain_iterator(self.body_fn, ctx, mask)


def _mb_lower(
    kernel: Kernel, digest: Optional[str], profile: bool = False
) -> MegaKernel:
    global _MB_PROFILE_LOWERING
    prev = _MB_PROFILE_LOWERING
    _MB_PROFILE_LOWERING = profile
    try:
        body_fn, body_is_gen = mb_block(kernel.body)
    finally:
        _MB_PROFILE_LOWERING = prev
    return MegaKernel(
        kernel=kernel,
        digest=digest,
        body_fn=body_fn,
        body_is_gen=body_is_gen,
        uses_atomics=kernel_uses_atomics(kernel),
        flatten_safe=kernel_flatten_safe(kernel),
        atomics_exact=kernel_atomic_order_free(kernel),
        profiled=profile,
    )


def megablock_flatten(
    program: MegaKernel, num_warps: int, has_shared: bool
) -> bool:
    """Can this launch fold the warp axis into the batch (megawarp)?

    One warp per block is trivially the flattened layout.  With several
    warps, flattening replaces the per-warp-slot round-robin with statement
    lockstep over ``(blocks × warps)`` rows, which is exact unless:

    * a ``__syncthreads`` sits under an ``if`` (``flatten_safe`` is false) —
      pre-Volta master/slave kernels depend on the round-robin schedule;
    * shared memory is used without any barrier — cross-warp shared traffic
      with no sync would see lockstep instead of warp-sequential order
      (thread-private use would be fine, but the cheap syntactic test cannot
      tell them apart, and the per-warp path stays exact).

    Atomics additionally *require* the flattened order: the launch ladder
    reports ``"atomic-order"`` when a kernel uses atomics and this returns
    False.
    """
    if num_warps <= 1:
        return True
    if not program.flatten_safe:
        return False
    if has_shared and not program.has_barriers:
        return False
    return True


def compile_megablock(
    kernel: Kernel, cache: bool = True, profile: bool = False
) -> MegaKernel:
    """Lower ``kernel`` to batched closures, reusing the digest-keyed LRU.

    Two structurally identical kernels (same pretty-printed source,
    including ``#define`` constants) share one artifact.  ``profile=True``
    lowers with the per-line issue hooks; profiled artifacts live under
    their own ``#prof`` key so they never slow down non-profiled launches.
    """
    digest = kernel_digest(kernel) if cache else None
    if digest is None:
        return _mb_lower(kernel, None, profile)
    key = digest + "#prof" if profile else digest
    cached = _LOWERING_CACHE.get(key)
    if cached is not None:
        return cached
    compiled = _mb_lower(kernel, digest, profile)
    _LOWERING_CACHE.put(key, compiled)
    return compiled


# ---------------------------------------------------------------------------
# The megablock executor
# ---------------------------------------------------------------------------


class MegablockExecutor:
    """Runs a batch of independent blocks as stacked mega-warps.

    Mirrors :class:`~repro.gpusim.interp.BlockExecutor`: one generator per
    warp slot (covering that slot in *every* block), round-robined on the
    ``("sync", line)`` yield protocol.  Shared/local memory materializes as
    batched slabs at the same sequential base offsets the per-block
    allocator assigns, and blockIdx builtins are ``(blocks, lanes)``
    broadcast views.
    """

    def __init__(
        self,
        kernel: Kernel,
        block_ids,
        block_dim: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        base_env: dict,
        stats,
        program: MegaKernel,
        scaffold: Optional[WarpScaffold] = None,
        profile: Optional[MegaProfile] = None,
    ):
        self.kernel = kernel
        self.block_ids = [int(b) for b in block_ids]
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.base_env = base_env
        self.stats = stats
        self.program = program
        self.profile = profile
        if scaffold is None:
            scaffold = WarpScaffold(kernel, block_dim, grid_dim)
        else:
            assert scaffold.kernel is kernel and scaffold.block_dim == block_dim
        self.scaffold = scaffold
        nblocks = len(self.block_ids)
        self.nblocks = nblocks
        ids = np.asarray(self.block_ids, dtype=np.int64)
        gx, gy, _gz = grid_dim
        plane = gx * gy
        shape = (nblocks, WARP_SIZE)
        self._block_builtins = {
            "blockIdx.x": np.broadcast_to(
                (ids % gx).astype(np.int32)[:, None], shape
            ),
            "blockIdx.y": np.broadcast_to(
                ((ids % plane) // gx).astype(np.int32)[:, None], shape
            ),
            "blockIdx.z": np.broadcast_to(
                (ids // plane).astype(np.int32)[:, None], shape
            ),
        }
        self._pointer_keys = [
            key
            for key, value in base_env.items()
            if isinstance(value, (GlobalBuffer, PointerValue))
        ]
        self.shared: Dict[str, BatchedSharedArray] = {}
        offset = 0
        for decl in scaffold.shared_decls:
            assert isinstance(decl.type, ArrayType)
            arr = BatchedSharedArray(
                decl.name,
                decl.type.dims,
                decl.type.elem.name,
                nblocks=nblocks,
                base_offset=offset,
            )
            offset += arr.nbytes
            self.shared[decl.name] = arr
        self.flatten = megablock_flatten(
            program, scaffold.num_warps, bool(self.shared)
        )
        if self.flatten and scaffold.num_warps > 1:
            # Batch rows become (block, warp) pairs, block-major; all warps
            # of one block keep addressing that block's shared slab row.
            row_index = np.repeat(np.arange(nblocks), scaffold.num_warps)
            for arr in self.shared.values():
                arr.row_index = row_index

    @property
    def shared_bytes(self) -> int:
        """Per-block shared footprint (occupancy accounting is per block)."""
        return sum(arr.nbytes for arr in self.shared.values())

    def _warp_env(self, warp_idx: int) -> tuple[dict, np.ndarray]:
        warp_mask, builtins = self.scaffold.warp_builtins(warp_idx)
        env = dict(self.base_env)
        env.update(self.shared)
        env.update(self.kernel.const_env)
        env.update(builtins)
        env.update(self._block_builtins)
        for key in self._pointer_keys:
            value = env[key]
            if isinstance(value, GlobalBuffer):
                env[key] = PointerValue(value, np.zeros(WARP_SIZE, dtype=np.int64))
            elif isinstance(value, PointerValue):
                env[key] = PointerValue(value.buffer, value.offsets.copy())
        init_mask = np.broadcast_to(warp_mask, (self.nblocks, WARP_SIZE))
        return env, init_mask

    def _flat_env(self) -> tuple[dict, np.ndarray]:
        """Environment and init mask for the flattened (megawarp) run with
        several warps per block: batch row ``r`` is warp ``r % W`` of batch
        block ``r // W``.  Block-major row order is the sequential execution
        order, so row-major scatters and the batched atomic fold replay
        sequential last-writer/accumulation semantics."""
        num_warps = self.scaffold.num_warps
        nrows = self.nblocks * num_warps
        shape = (nrows, WARP_SIZE)
        env = dict(self.base_env)
        env.update(self.shared)
        env.update(self.kernel.const_env)
        masks = []
        per_warp: List[dict] = []
        for w in range(num_warps):
            warp_mask, builtins = self.scaffold.warp_builtins(w)
            masks.append(warp_mask)
            per_warp.append(builtins)
        for key in per_warp[0]:
            stacked = np.stack([b[key] for b in per_warp])
            if (stacked == stacked[0]).all():
                env[key] = stacked[0]  # warp-invariant (blockDim/gridDim)
            else:
                env[key] = np.tile(stacked, (self.nblocks, 1))
        init_mask = np.tile(np.stack(masks), (self.nblocks, 1))
        ids = np.repeat(
            np.asarray(self.block_ids, dtype=np.int64), num_warps
        )
        gx, gy, _gz = self.grid_dim
        plane = gx * gy
        env["blockIdx.x"] = np.broadcast_to(
            (ids % gx).astype(np.int32)[:, None], shape
        )
        env["blockIdx.y"] = np.broadcast_to(
            ((ids % plane) // gx).astype(np.int32)[:, None], shape
        )
        env["blockIdx.z"] = np.broadcast_to(
            (ids // plane).astype(np.int32)[:, None], shape
        )
        for key in self._pointer_keys:
            value = env[key]
            if isinstance(value, GlobalBuffer):
                env[key] = PointerValue(value, np.zeros(WARP_SIZE, dtype=np.int64))
            elif isinstance(value, PointerValue):
                env[key] = PointerValue(value.buffer, value.offsets.copy())
        return env, init_mask

    def run(self) -> None:
        # Same single errstate guard the per-block executor holds.
        with np.errstate(all="ignore"):
            if self.flatten:
                self._run_flat()
            else:
                self._run()

    def _run_flat(self) -> None:
        """Megawarp execution: one context, one generator, the whole grid.

        With one warp per block this is exactly the classic megablock run
        (which already had a single generator); with several it stacks
        ``(blocks × warps)`` rows so every statement closure fires once for
        the entire launch.  Barriers degenerate to trivially satisfied
        ordering points because all rows execute in statement lockstep.
        Atomics are only legal here (``atomics_ok``): batch rows ascend in
        sequential (block, warp) order, which the deterministic atomic fold
        relies on.
        """
        total = self.scaffold.total_threads
        num_warps = self.scaffold.num_warps
        nblocks = self.nblocks
        self.stats.blocks_executed += nblocks
        self.stats.warps_executed += nblocks * num_warps
        self.stats.threads_launched += nblocks * total
        if num_warps == 1:
            env, init_mask = self._warp_env(0)
            nrows = nblocks
        else:
            env, init_mask = self._flat_env()
            nrows = nblocks * num_warps
            if self.profile is not None:
                self.profile.set_rows_per_block(num_warps)
        ctx = MegaContext(
            env,
            init_mask,
            self.stats,
            nrows,
            warp_idx=0,
            profile=self.profile,
            # The launch ladder only admits atomic kernels whose batched
            # order is provably exact; honour the same analysis here so a
            # directly constructed executor aborts (SimError -> per-block
            # rerun) instead of silently reordering float accumulation.
            atomics_ok=self.program.atomics_exact,
        )
        for _event in self.program.warp_iterator(ctx, init_mask):
            pass

    def _run(self) -> None:
        total = self.scaffold.total_threads
        num_warps = self.scaffold.num_warps
        nblocks = self.nblocks
        self.stats.blocks_executed += nblocks
        self.stats.warps_executed += nblocks * num_warps
        self.stats.threads_launched += nblocks * total
        alive: List[tuple[MegaContext, Iterator]] = []
        for w in range(num_warps):
            env, init_mask = self._warp_env(w)
            ctx = MegaContext(
                env,
                init_mask,
                self.stats,
                nblocks,
                warp_idx=w,
                profile=self.profile,
            )
            gen = self.program.warp_iterator(ctx, init_mask)
            alive.append((ctx, gen))
        while alive:
            still_alive = []
            for ctx, gen in alive:
                try:
                    event = next(gen)
                except StopIteration:
                    continue
                if not (isinstance(event, tuple) and event[0] == "sync"):
                    raise SyncError(
                        f"unexpected warp event {event!r}"
                    )  # pragma: no cover - defensive
                still_alive.append((ctx, gen))
            alive = still_alive
