"""Execution statistics collected by the SIMT interpreter.

The interpreter is functional (it computes real results) and, as it runs,
counts the microarchitectural events the timing model needs: issued
instructions (divergence-serialized), global-memory instructions and their
coalesced transaction counts, local-memory traffic, shared accesses and bank
replays, shuffles and barriers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class KernelStats:
    """Aggregate event counts for one kernel launch (or a sampled subset)."""

    # Execution shape
    blocks_executed: int = 0
    warps_executed: int = 0
    threads_launched: int = 0

    # Instruction mix (counted once per warp issue, i.e. SIMD-amortized)
    alu_insts: float = 0.0          # weighted: transcendental ops count > 1
    control_insts: float = 0.0
    divergent_branches: int = 0

    # Global memory
    global_load_insts: int = 0
    global_store_insts: int = 0
    global_transactions: int = 0
    uncoalesced_accesses: int = 0

    # Local memory (per-thread spilled arrays)
    local_load_insts: int = 0
    local_store_insts: int = 0
    local_transactions: int = 0
    local_bytes: int = 0

    # Shared memory
    shared_load_insts: int = 0
    shared_store_insts: int = 0
    shared_bank_replays: int = 0

    # Constant memory
    const_load_insts: int = 0
    const_serialized: int = 0       # non-broadcast constant accesses

    # Synchronization / intra-warp exchange
    syncthreads: int = 0
    shfl_insts: int = 0
    atomic_insts: int = 0
    #: Extra serialized passes of atomic read-modify-writes: per warp issue,
    #: active lanes minus distinct target addresses (colliding lanes
    #: serialize, like shared_bank_replays for banks).  Counted identically
    #: by the per-warp engines and the batched segmented-reduce path.
    atomic_serializations: int = 0

    @property
    def global_mem_insts(self) -> int:
        return self.global_load_insts + self.global_store_insts

    @property
    def local_mem_insts(self) -> int:
        return self.local_load_insts + self.local_store_insts

    @property
    def shared_mem_insts(self) -> int:
        return self.shared_load_insts + self.shared_store_insts

    @property
    def total_insts(self) -> float:
        return (
            self.alu_insts
            + self.control_insts
            + self.global_mem_insts
            + self.local_mem_insts
            + self.shared_mem_insts
            + self.const_load_insts
            + self.shfl_insts
            + self.atomic_insts
            + self.syncthreads
        )

    @property
    def dram_bytes(self) -> int:
        """Global DRAM traffic from coalesced transactions (local traffic is
        added by the timing model after applying the L1 hit rate)."""
        return self.global_transactions * 128

    def merge(self, other: "KernelStats") -> None:
        """Accumulate another stats object into this one (in place).

        Every field is a plain sum, so merging a batch's stats into the
        launch's is exact — the same invariant the per-line profiler's
        :meth:`repro.prof.counters.KernelProfile.merge` upholds.
        """
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def scaled(self, factor: float) -> "KernelStats":
        """Return a copy with every counter multiplied by ``factor``.

        Used to extrapolate sampled-block statistics to the full grid.
        Integer counters are rounded.
        """
        out = KernelStats()
        for name in self.__dataclass_fields__:
            value = getattr(self, name) * factor
            current = getattr(out, name)
            setattr(out, name, round(value) if isinstance(current, int) else value)
        return out

    def per_warp(self) -> "PerWarpStats":
        """Average event counts per executed warp (timing-model input)."""
        n = max(self.warps_executed, 1)
        return PerWarpStats(
            comp_insts=(
                self.alu_insts
                + self.control_insts
                + self.shared_mem_insts
                + self.shared_bank_replays
                + self.shfl_insts
                + self.const_load_insts
                + self.syncthreads
            )
            / n,
            global_mem_insts=self.global_mem_insts / n,
            global_transactions=self.global_transactions / n,
            local_mem_insts=self.local_mem_insts / n,
            local_transactions=self.local_transactions / n,
        )


@dataclass(frozen=True)
class PerWarpStats:
    """Per-warp averages consumed by the Hong–Kim model."""

    comp_insts: float
    global_mem_insts: float
    global_transactions: float
    local_mem_insts: float
    local_transactions: float

    @property
    def mem_insts(self) -> float:
        return self.global_mem_insts + self.local_mem_insts

    @property
    def transactions_per_mem_inst(self) -> float:
        if self.mem_insts == 0:
            return 0.0
        return (self.global_transactions + self.local_transactions) / self.mem_insts
