"""Per-source-line hotspot counters and per-block cost records.

This module is deliberately free of ``repro.gpusim`` imports: the
launcher, the interpreter and the megablock engine import it, so it must
sit below them in the dependency graph.  The hook methods on
:class:`KernelProfile` are called from the interpreter's warp-execution
hot path at its hook sites (statement entry, memory accesses, intrinsic
calls, barriers); the megablock engine feeds batched twins of them at
mirrored sites.  Both key attribution off the same ``ctx.current_loc``
bookkeeping that the fault diagnostics already maintain, which is what
makes profiles bit-identical between ``interp`` and ``megablock``.

Everything here is a plain dataclass over ints, so profiles pickle
cleanly and merge exactly (integer sums are associative — a batched
megablock run and a per-block run produce equal profiles, which the tests
assert).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class LineCounters:
    """Counters attributed to one source line of the kernel.

    ``inst_issues`` counts warp-level statement issues (one per statement
    execution per warp, multiplied by nothing); ``thread_issues`` weights
    each issue by the number of active lanes, so
    ``thread_issues / (inst_issues * warp_size)`` is the line's SIMD
    efficiency.  Memory counters mirror the aggregate ``KernelStats``
    fields but are scoped to the line the access appears on.
    """

    inst_issues: int = 0
    thread_issues: int = 0
    divergent_branches: int = 0
    global_load_insts: int = 0
    global_store_insts: int = 0
    global_transactions: int = 0
    uncoalesced_accesses: int = 0
    shared_load_insts: int = 0
    shared_store_insts: int = 0
    shared_bank_replays: int = 0
    local_insts: int = 0
    local_transactions: int = 0
    const_insts: int = 0
    const_serialized: int = 0
    shfl_insts: int = 0
    atomic_insts: int = 0
    syncthreads: int = 0

    def merge(self, other: "LineCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def cost(self) -> int:
        """Heuristic hotness used to rank lines in reports and flames.

        Issue count plus memory pressure: each memory transaction and
        each bank-conflict replay costs like an extra issue.  This is a
        ranking key, not a cycle estimate — the MWP/CWP model in
        ``gpusim.timing`` owns absolute time.
        """
        return (
            self.inst_issues
            + self.global_transactions
            + self.local_transactions
            + self.shared_bank_replays
            + self.const_serialized
        )

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class BlockCost:
    """Issue/traffic totals for one thread block, for the timeline."""

    block: int
    warps: int = 0
    threads: int = 0
    inst_issues: int = 0
    transactions: int = 0

    def merge(self, other: "BlockCost") -> None:
        self.warps = max(self.warps, other.warps)
        self.threads = max(self.threads, other.threads)
        self.inst_issues += other.inst_issues
        self.transactions += other.transactions

    @property
    def weight(self) -> int:
        """Relative duration of the block in the greedy timeline."""
        return max(1, self.inst_issues + self.transactions)

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _line_of(loc) -> int:
    """Attribution line for a source location (0 = unattributed)."""
    return loc.line if loc is not None else 0


@dataclass
class KernelProfile:
    """Collected per-line and per-block counters for one launch.

    The execution backends call the ``begin_block``/``stmt``/``*_access``
    hooks; everything else (merging, ranking, serialization) is offline.
    """

    kernel: str = ""
    lines: Dict[int, LineCounters] = field(default_factory=dict)
    blocks: Dict[int, BlockCost] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._current: Optional[BlockCost] = None

    # ------------------------------------------------------------------
    # collection hooks (hot path — keep allocation-free where possible)
    # ------------------------------------------------------------------

    def _line(self, line: int) -> LineCounters:
        lc = self.lines.get(line)
        if lc is None:
            lc = self.lines[line] = LineCounters()
        return lc

    def begin_block(self, block: int, warps: int, threads: int) -> None:
        bc = self.blocks.get(block)
        if bc is None:
            bc = self.blocks[block] = BlockCost(block=block)
        bc.warps = max(bc.warps, warps)
        bc.threads = max(bc.threads, threads)
        self._current = bc

    def stmt(self, line: int, active: int) -> None:
        lc = self._line(line)
        lc.inst_issues += 1
        lc.thread_issues += active
        cur = self._current
        if cur is not None:
            cur.inst_issues += 1

    def divergent(self, line: int) -> None:
        self._line(line).divergent_branches += 1

    def global_access(
        self, loc, transactions: int, uncoalesced: bool, store: bool
    ) -> None:
        lc = self._line(_line_of(loc))
        if store:
            lc.global_store_insts += 1
        else:
            lc.global_load_insts += 1
        lc.global_transactions += transactions
        if uncoalesced:
            lc.uncoalesced_accesses += 1
        cur = self._current
        if cur is not None:
            cur.transactions += transactions

    def shared_access(self, loc, replays: int, store: bool) -> None:
        lc = self._line(_line_of(loc))
        if store:
            lc.shared_store_insts += 1
        else:
            lc.shared_load_insts += 1
        lc.shared_bank_replays += replays

    def local_access(self, loc, transactions: int) -> None:
        lc = self._line(_line_of(loc))
        lc.local_insts += 1
        lc.local_transactions += transactions
        cur = self._current
        if cur is not None:
            cur.transactions += transactions

    def const_access(self, loc, serialized: bool) -> None:
        lc = self._line(_line_of(loc))
        lc.const_insts += 1
        if serialized:
            lc.const_serialized += 1

    def shfl(self, loc) -> None:
        self._line(_line_of(loc)).shfl_insts += 1

    def atomic(self, loc) -> None:
        self._line(_line_of(loc)).atomic_insts += 1

    def sync(self, line: int) -> None:
        self._line(line).syncthreads += 1

    # ------------------------------------------------------------------
    # offline API
    # ------------------------------------------------------------------

    def merge(self, other: "KernelProfile") -> None:
        """Fold ``other`` into this profile (e.g. a megablock batch's
        counters into the launch's).

        Line counters sum field-wise; block records with overlapping ids
        merge additively.
        """
        if other.kernel and not self.kernel:
            self.kernel = other.kernel
        for line, lc in other.lines.items():
            mine = self.lines.get(line)
            if mine is None:
                self.lines[line] = lc
            else:
                mine.merge(lc)
        for bid, bc in other.blocks.items():
            mine_b = self.blocks.get(bid)
            if mine_b is None:
                self.blocks[bid] = bc
            else:
                mine_b.merge(bc)

    def top_lines(self, limit: int = 10) -> List[Tuple[int, LineCounters]]:
        """Hottest source lines, descending by :attr:`LineCounters.cost`."""
        ranked = sorted(
            self.lines.items(), key=lambda kv: (-kv[1].cost, kv[0])
        )
        return ranked[:limit]

    @property
    def total_issues(self) -> int:
        return sum(lc.inst_issues for lc in self.lines.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "lines": {
                str(line): lc.as_dict() for line, lc in sorted(self.lines.items())
            },
            "blocks": {
                str(bid): bc.as_dict() for bid, bc in sorted(self.blocks.items())
            },
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelProfile):
            return NotImplemented
        return (
            self.kernel == other.kernel
            and self.lines == other.lines
            and self.blocks == other.blocks
        )

    def diff_lines(self, other: "KernelProfile") -> List[str]:
        """Human-readable field-level differences (empty when identical)."""
        out: List[str] = []
        for line in sorted(set(self.lines) | set(other.lines)):
            a = self.lines.get(line, LineCounters())
            b = other.lines.get(line, LineCounters())
            for f in fields(LineCounters):
                va, vb = getattr(a, f.name), getattr(b, f.name)
                if va != vb:
                    out.append(f"line {line}: {f.name} {va} != {vb}")
        return out
