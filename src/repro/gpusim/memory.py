"""Simulated GPU memory spaces.

Four spaces, mirroring the paper's resource discussion (§2.3, Table 1):

- **global** (:class:`GlobalMemory` / :class:`GlobalBuffer`) — device DRAM,
  visible to all threads, accessed through 128-byte coalesced transactions;
- **shared** (:class:`SharedArray`) — per-thread-block scratchpad with
  32 banks;
- **local** (:class:`LocalArray`) — per-thread spilled arrays; physically in
  DRAM but cached in L1, laid out interleaved so lane-uniform indices are
  coalesced;
- **constant** (:class:`ConstArray`) — read-only, broadcast when all lanes
  read the same address.

All warp-wide operations are vectorized over the 32 lanes with numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import MemoryFault

_DTYPES = {
    "float": np.float32,
    "int": np.int32,
    "uint": np.uint32,
    "bool": np.bool_,
}


def dtype_for(type_name: str) -> np.dtype:
    try:
        return np.dtype(_DTYPES[type_name])
    except KeyError as exc:
        raise MemoryFault(f"no device dtype for {type_name!r}") from exc


class GlobalBuffer:
    """A 1-D typed allocation in simulated device DRAM."""

    def __init__(self, name: str, data: np.ndarray, base_addr: int):
        if data.ndim != 1:
            raise MemoryFault(f"global buffer {name!r} must be 1-D")
        self.name = name
        self.data = data
        self.base_addr = base_addr

    @property
    def itemsize(self) -> int:
        return int(self.data.dtype.itemsize)

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def byte_addrs(self, elem_offsets: np.ndarray) -> np.ndarray:
        offsets = elem_offsets.astype(np.int64, copy=False)
        return self.base_addr + offsets * self.itemsize

    def _check(self, offsets: np.ndarray, mask: np.ndarray) -> None:
        bad = mask & ((offsets < 0) | (offsets >= self.size))
        if bad.any():
            lanes = np.nonzero(bad)[0]
            idx = int(offsets[lanes[0]])
            raise MemoryFault(
                f"global buffer {self.name!r}: index {idx} out of range "
                f"[0, {self.size})",
                space="global",
                buffer=self.name,
                index=idx,
                limit=self.size,
                address=self.base_addr + idx * self.itemsize,
                lanes=lanes.tolist(),
            )

    def load(self, offsets: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Gather per-lane elements; inactive lanes read element 0 safely."""
        self._check(offsets, mask)
        safe = np.where(mask, offsets, 0)
        return self.data[safe]

    def store(self, offsets: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        self._check(offsets, mask)
        # CUDA leaves intra-warp write collisions to the same address
        # unordered; numpy fancy assignment keeps the last lane, which is one
        # of the permitted outcomes.
        self.data[offsets[mask]] = values[mask].astype(self.data.dtype)


class GlobalMemory:
    """The device DRAM heap: named, 256-byte-aligned buffers."""

    _ALIGN = 256

    def __init__(self) -> None:
        self._buffers: dict[str, GlobalBuffer] = {}
        self._next_addr = self._ALIGN

    def alloc(self, name: str, data: np.ndarray) -> GlobalBuffer:
        """Allocate a buffer initialized with a copy of ``data``."""
        if name in self._buffers:
            raise MemoryFault(f"buffer {name!r} already allocated")
        arr = np.ascontiguousarray(data).reshape(-1).copy()
        buf = GlobalBuffer(name, arr, self._next_addr)
        self._next_addr += (buf.nbytes + self._ALIGN - 1) // self._ALIGN * self._ALIGN
        self._buffers[name] = buf
        return buf

    def alloc_zeros(self, name: str, size: int, type_name: str = "float") -> GlobalBuffer:
        return self.alloc(name, np.zeros(size, dtype=dtype_for(type_name)))

    def __getitem__(self, name: str) -> GlobalBuffer:
        return self._buffers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def buffers(self) -> dict[str, GlobalBuffer]:
        return dict(self._buffers)


class SharedArray:
    """A per-thread-block shared-memory array with bank-conflict addressing."""

    def __init__(self, name: str, dims: tuple[int, ...], type_name: str, base_offset: int = 0):
        self.name = name
        self.dims = dims
        self.data = np.zeros(dims, dtype=dtype_for(type_name)).reshape(-1)
        self.base_offset = base_offset  # byte offset within the block's smem
        #: Per-element access shadow, lazily attached by
        #: :class:`repro.gpusim.racecheck.Sanitizer`.  Lives on the array so
        #: it resets with the array (shared arrays are recreated per block).
        self.shadow = None

    @property
    def numel(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def itemsize(self) -> int:
        return int(self.data.dtype.itemsize)

    def flat_index(self, indices: list[np.ndarray]) -> np.ndarray:
        """Row-major flattening of per-lane multi-dim indices."""
        if len(indices) != len(self.dims):
            raise MemoryFault(
                f"shared array {self.name!r} expects {len(self.dims)} indices, "
                f"got {len(indices)}"
            )
        flat = np.zeros_like(indices[0], dtype=np.int64)
        for dim, idx in zip(self.dims, indices):
            flat = flat * dim + idx.astype(np.int64)
        return flat

    def byte_addrs(self, flat: np.ndarray) -> np.ndarray:
        return self.base_offset + flat * self.itemsize

    def _check(self, flat: np.ndarray, mask: np.ndarray) -> None:
        bad = mask & ((flat < 0) | (flat >= self.numel))
        if bad.any():
            lanes = np.nonzero(bad)[0]
            idx = int(flat[lanes[0]])
            raise MemoryFault(
                f"shared array {self.name!r}: flat index out of range "
                f"(size {self.numel})",
                space="shared",
                buffer=self.name,
                index=idx,
                limit=self.numel,
                address=self.base_offset + idx * self.itemsize,
                lanes=lanes.tolist(),
            )

    def load(self, flat: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self._check(flat, mask)
        return self.data[np.where(mask, flat, 0)]

    def store(self, flat: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        self._check(flat, mask)
        self.data[flat[mask]] = values[mask].astype(self.data.dtype)


class LocalArray:
    """A per-thread local-memory array, stored warp-wide as (32, numel).

    CUDA interleaves local memory so that, when every lane of a warp accesses
    the same array element ``j``, the 32 words are consecutive in DRAM.
    :meth:`byte_addrs` reproduces that layout for the coalescing/L1 models.
    """

    def __init__(
        self,
        name: str,
        numel: int,
        type_name: str,
        warp_size: int = 32,
        base_addr: int = 0,
        in_registers: bool = False,
    ):
        self.name = name
        self.numel = numel
        self.warp_size = warp_size
        self.data = np.zeros((warp_size, numel), dtype=dtype_for(type_name))
        self.base_addr = base_addr
        #: True for register-promoted partitions (no local-memory traffic).
        self.in_registers = in_registers
        #: Written-bitmap shadow, lazily attached by
        #: :class:`repro.gpusim.racecheck.Sanitizer`.
        self.shadow = None

    @property
    def itemsize(self) -> int:
        return int(self.data.dtype.itemsize)

    @property
    def bytes_per_thread(self) -> int:
        return self.numel * self.itemsize

    def byte_addrs(self, idx: np.ndarray) -> np.ndarray:
        lanes = np.arange(self.warp_size, dtype=np.int64)
        return self.base_addr + (
            idx.astype(np.int64) * self.warp_size + lanes
        ) * self.itemsize

    def _check(self, idx: np.ndarray, mask: np.ndarray) -> None:
        bad = mask & ((idx < 0) | (idx >= self.numel))
        if bad.any():
            lanes = np.nonzero(bad)[0]
            first = int(idx[lanes[0]])
            raise MemoryFault(
                f"local array {self.name!r}: index out of range (size {self.numel})",
                space="local",
                buffer=self.name,
                index=first,
                limit=self.numel,
                lanes=lanes.tolist(),
            )

    def load(self, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Each lane reads *its own* element ``idx[lane]``."""
        self._check(idx, mask)
        lanes = np.arange(self.warp_size)
        return self.data[lanes, np.where(mask, idx, 0)]

    def store(self, idx: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        self._check(idx, mask)
        lanes = np.arange(self.warp_size)[mask]
        self.data[lanes, idx[mask]] = values[mask].astype(self.data.dtype)


class BatchedSharedArray:
    """Shared memory for a whole batch of blocks as one ``(blocks, numel)`` slab.

    The megablock engine executes many independent blocks at once, so each
    ``__shared__`` declaration materializes as a single slab with one row per
    block.  ``base_offset`` and the per-block byte addressing are identical to
    :class:`SharedArray`, so bank-replay accounting matches the per-block
    engines bit-for-bit.  :meth:`block_view` exposes a single block's row with
    per-block :class:`SharedArray` semantics for inspection.

    ``row_index`` supports the megawarp (flattened) batch layout where the
    batch carries one row per ``(block, warp)`` pair instead of per block:
    when set to a ``(batch_rows,)`` int array it maps every batch row to its
    slab row, so all warps of one block address that block's shared memory.
    Batch rows are block-major (``r = block * warps + warp``), which keeps
    the row-major scatter in :meth:`store` in sequential last-writer-wins
    order.
    """

    def __init__(
        self,
        name: str,
        dims: tuple[int, ...],
        type_name: str,
        nblocks: int,
        base_offset: int = 0,
    ):
        self.name = name
        self.dims = dims
        self.nblocks = nblocks
        numel = 1
        for dim in dims:
            numel *= dim
        self.data = np.zeros((nblocks, numel), dtype=dtype_for(type_name))
        self.base_offset = base_offset
        self.row_index = None

    def batch_rows(self) -> np.ndarray:
        """Slab row per batch row: identity unless flattened (megawarp)."""
        if self.row_index is not None:
            return self.row_index
        return np.arange(self.nblocks)

    @property
    def numel(self) -> int:
        """Per-block element count (matches :attr:`SharedArray.numel`)."""
        return int(self.data.shape[1])

    @property
    def nbytes(self) -> int:
        """Per-block byte footprint: occupancy accounting is per block."""
        return self.numel * self.itemsize

    @property
    def itemsize(self) -> int:
        return int(self.data.dtype.itemsize)

    def block_view(self, row: int) -> np.ndarray:
        """The 1-D shared-memory contents of one block (a live view)."""
        return self.data[row]

    def flat_index(self, indices: list[np.ndarray]) -> np.ndarray:
        """Row-major flattening of int64 lane indices, as
        :meth:`SharedArray.flat_index`; a 1-D array's index is returned
        as is, uncopied."""
        dims = self.dims
        if len(indices) != len(dims):
            raise MemoryFault(
                f"shared array {self.name!r} expects {len(dims)} indices, "
                f"got {len(indices)}"
            )
        flat = indices[0]
        for dim, idx in zip(dims[1:], indices[1:]):
            flat = flat * dim + idx
        return flat

    def byte_addrs(self, flat: np.ndarray) -> np.ndarray:
        return self.base_offset + flat * self.itemsize

    def _check(self, flat: np.ndarray, mask: np.ndarray) -> None:
        bad = mask & ((flat < 0) | (flat >= self.numel))
        if bad.any():
            first = int(np.broadcast_to(flat, mask.shape)[bad][0])
            raise MemoryFault(
                f"shared array {self.name!r}: flat index out of range "
                f"(size {self.numel})",
                space="shared",
                buffer=self.name,
                index=first,
                limit=self.numel,
                address=self.base_offset + first * self.itemsize,
            )

    def load(self, flat: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Gather ``(rows, lanes)`` elements, each batch row from its slab row."""
        self._check(flat, mask)
        rows = self.batch_rows()[:, None]
        return self.data[rows, np.where(mask, flat, 0)]

    def store(self, flat: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        self._check(flat, mask)
        rows = np.broadcast_to(self.batch_rows()[:, None], mask.shape)
        flat = np.broadcast_to(flat, mask.shape)
        values = np.broadcast_to(values, mask.shape)
        self.data[rows[mask], flat[mask]] = values[mask].astype(self.data.dtype)


class BatchedLocalArray:
    """Per-thread local arrays for a batch of blocks: ``(blocks, 32, numel)``.

    Mirrors :class:`LocalArray` (same interleaved byte addressing per block)
    with a leading block axis so the megablock engine can load/store every
    block's lanes in one gather/scatter.
    """

    def __init__(
        self,
        name: str,
        numel: int,
        type_name: str,
        nblocks: int,
        warp_size: int = 32,
        base_addr: int = 0,
        in_registers: bool = False,
    ):
        self.name = name
        self.numel = numel
        self.nblocks = nblocks
        self.warp_size = warp_size
        self.data = np.zeros((nblocks, warp_size, numel), dtype=dtype_for(type_name))
        self.base_addr = base_addr
        self.in_registers = in_registers
        self._lanes = np.arange(warp_size, dtype=np.int64)

    @property
    def itemsize(self) -> int:
        return int(self.data.dtype.itemsize)

    @property
    def bytes_per_thread(self) -> int:
        return self.numel * self.itemsize

    def byte_addrs(self, idx: np.ndarray) -> np.ndarray:
        """Interleaved per-block addresses; identical per row to LocalArray."""
        return self.base_addr + (
            idx.astype(np.int64, copy=False) * self.warp_size + self._lanes
        ) * self.itemsize

    def _check(self, idx: np.ndarray, mask: np.ndarray) -> None:
        bad = mask & ((idx < 0) | (idx >= self.numel))
        if bad.any():
            first = int(np.broadcast_to(idx, mask.shape)[bad][0])
            raise MemoryFault(
                f"local array {self.name!r}: index out of range (size {self.numel})",
                space="local",
                buffer=self.name,
                index=first,
                limit=self.numel,
            )

    def load(self, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self._check(idx, mask)
        rows = np.arange(self.nblocks)[:, None]
        lanes = np.arange(self.warp_size)
        return self.data[rows, lanes, np.where(mask, idx, 0)]

    def store(self, idx: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        self._check(idx, mask)
        rows = np.broadcast_to(np.arange(self.nblocks)[:, None], mask.shape)
        lanes = np.broadcast_to(np.arange(self.warp_size), mask.shape)
        idx = np.broadcast_to(idx, mask.shape)
        values = np.broadcast_to(values, mask.shape)
        self.data[rows[mask], lanes[mask], idx[mask]] = values[mask].astype(
            self.data.dtype
        )


class ConstArray:
    """A read-only constant-memory array shared by the whole grid."""

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.ascontiguousarray(data).reshape(-1)

    @property
    def numel(self) -> int:
        return int(self.data.size)

    @property
    def itemsize(self) -> int:
        return int(self.data.dtype.itemsize)

    def byte_addrs(self, idx: np.ndarray) -> np.ndarray:
        return idx.astype(np.int64) * self.itemsize

    def load(self, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
        bad = mask & ((idx < 0) | (idx >= self.numel))
        if bad.any():
            lanes = np.nonzero(bad)[0]
            raise MemoryFault(
                f"constant array {self.name!r}: index out of range",
                space="constant",
                buffer=self.name,
                index=int(idx[lanes[0]]),
                limit=self.numel,
                lanes=lanes.tolist(),
            )
        return self.data[np.where(mask, idx, 0)]
