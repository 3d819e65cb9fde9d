"""KernelStats bookkeeping tests."""

import pytest

from repro.gpusim.stats import KernelStats, PerWarpStats


def filled_stats():
    s = KernelStats()
    s.warps_executed = 4
    s.blocks_executed = 1
    s.threads_launched = 128
    s.alu_insts = 400.0
    s.control_insts = 40.0
    s.global_load_insts = 8
    s.global_store_insts = 4
    s.global_transactions = 24
    s.local_load_insts = 10
    s.local_transactions = 10
    s.local_bytes = 1280
    s.shared_load_insts = 6
    s.shared_store_insts = 2
    s.shared_bank_replays = 3
    s.shfl_insts = 5
    s.syncthreads = 2
    return s


class TestAggregates:
    def test_derived_counts(self):
        s = filled_stats()
        assert s.global_mem_insts == 12
        assert s.local_mem_insts == 10
        assert s.shared_mem_insts == 8
        assert s.dram_bytes == 24 * 128

    def test_total_insts(self):
        s = filled_stats()
        assert s.total_insts == pytest.approx(400 + 40 + 12 + 10 + 8 + 5 + 2)

    def test_merge(self):
        a, b = filled_stats(), filled_stats()
        a.merge(b)
        assert a.warps_executed == 8
        assert a.alu_insts == 800.0

    def test_scaled(self):
        s = filled_stats().scaled(2.5)
        assert s.warps_executed == 10
        assert s.alu_insts == pytest.approx(1000.0)
        assert isinstance(s.global_load_insts, int)

    def test_per_warp(self):
        pw = filled_stats().per_warp()
        assert isinstance(pw, PerWarpStats)
        assert pw.global_mem_insts == 3.0
        assert pw.mem_insts == pytest.approx(3.0 + 2.5)
        assert pw.transactions_per_mem_inst == pytest.approx((24 + 10) / 22)

    def test_per_warp_empty(self):
        pw = KernelStats().per_warp()
        assert pw.mem_insts == 0
        assert pw.transactions_per_mem_inst == 0.0

    def test_comp_includes_replays_and_syncs(self):
        s = filled_stats()
        pw = s.per_warp()
        bare = s.alu_insts + s.control_insts
        assert pw.comp_insts * s.warps_executed > bare
