"""Profiling layer: counters, timeline export, reports, CLI.

The collection hooks themselves are covered by the backend-differential
suite (profiles must be bit-identical between engines); this module covers
the offline side — merging, the Chrome ``trace_event`` exporter, the
terminal report — plus the launch-level
``profile=True`` contract on a small kernel.
"""

import json

import numpy as np
import pytest

from repro.gpusim.launch import run_kernel
from repro.prof import (
    BlockCost,
    KernelProfile,
    LineCounters,
    build_timeline,
    chrome_trace,
    save_trace,
    top_lines_report,
)

SRC = """
__global__ void saxpy(float* out, const float* a, const float* b, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        out[i] = a[i] * 2.0f + b[i];
    }
}
"""

N = 256


def make_args():
    rng = np.random.default_rng(3)
    return {
        "out": np.zeros(N, np.float32),
        "a": rng.standard_normal(N).astype(np.float32),
        "b": rng.standard_normal(N).astype(np.float32),
        "n": N,
    }


def profiled(**kwargs):
    return run_kernel(SRC, 8, 32, make_args(), profile=True, **kwargs)


class TestLineCounters:
    def test_merge_sums_every_field(self):
        import dataclasses

        a = LineCounters()
        b = LineCounters()
        for i, f in enumerate(dataclasses.fields(LineCounters), start=1):
            setattr(a, f.name, i)
            setattr(b, f.name, 10 * i)
        a.merge(b)
        for i, f in enumerate(dataclasses.fields(LineCounters), start=1):
            assert getattr(a, f.name) == 11 * i, f.name

    def test_cost_weighs_serializing_events(self):
        lc = LineCounters(inst_issues=2, global_transactions=5,
                          shared_bank_replays=3)
        assert lc.cost == 10


class TestKernelProfile:
    def test_hooks_accumulate(self):
        p = KernelProfile(kernel="k")
        p.begin_block(0, warps=2, threads=64)
        p.stmt(4, 32)
        p.stmt(4, 17)
        p.divergent(4)
        p.global_access(None, transactions=3, uncoalesced=True, store=False)
        assert p.lines[4].inst_issues == 2
        assert p.lines[4].thread_issues == 49
        assert p.lines[4].divergent_branches == 1
        # loc=None attributes to line 0, not a crash
        assert p.lines[0].global_transactions == 3
        assert p.lines[0].uncoalesced_accesses == 1
        assert p.blocks[0] == BlockCost(
            block=0, warps=2, threads=64, inst_issues=2, transactions=3
        )

    def test_merge_and_equality(self):
        a = KernelProfile(kernel="k")
        a.begin_block(0, 1, 32)
        a.stmt(3, 32)
        b = KernelProfile(kernel="k")
        b.begin_block(1, 1, 32)
        b.stmt(3, 32)
        b.stmt(7, 16)
        a.merge(b)
        assert a.lines[3].inst_issues == 2
        assert a.lines[7].thread_issues == 16
        assert set(a.blocks) == {0, 1}
        c = KernelProfile(kernel="k")
        c.begin_block(0, 1, 32)
        c.stmt(3, 32)
        c.begin_block(1, 1, 32)
        c.stmt(3, 32)
        c.stmt(7, 16)
        assert a == c

    def test_diff_lines_reports_field_and_line(self):
        a = KernelProfile(kernel="k")
        a.stmt(5, 32)
        b = KernelProfile(kernel="k")
        b.stmt(5, 32)
        b.stmt(5, 32)
        diffs = a.diff_lines(b)
        assert diffs and any("5" in d and "inst_issues" in d for d in diffs)
        assert a != b

    def test_top_lines_ranked_by_cost(self):
        p = KernelProfile(kernel="k")
        p.stmt(1, 32)
        for _ in range(5):
            p.stmt(2, 32)
        ranked = p.top_lines(2)
        assert [line for line, _ in ranked] == [2, 1]


class TestLaunchProfileContract:
    def test_default_launch_has_no_profile(self):
        res = run_kernel(SRC, 8, 32, make_args())
        assert res.profile is None

    def test_profiled_launch_attributes_lines(self):
        res = profiled(backend="megablock")
        p = res.profile
        assert p is not None and p.kernel == "saxpy"
        # Every attributed line is a real 1-indexed source line.
        assert all(line >= 1 for line in p.lines)
        assert p.total_issues > 0
        # One BlockCost per executed block, with the launch's warp shape.
        assert sorted(p.blocks) == list(range(8))
        assert all(bc.warps == 1 and bc.threads == 32
                   for bc in p.blocks.values())
        # The guarded store line carries the global traffic.
        stores = [lc for lc in p.lines.values() if lc.global_store_insts]
        assert stores and sum(lc.global_transactions for lc in stores) > 0

    def test_profile_consistent_with_stats(self):
        res = profiled(backend="interp")
        p, s = res.profile, res.stats
        assert sum(lc.global_transactions for lc in p.lines.values()) == \
            s.global_transactions
        assert sum(lc.divergent_branches for lc in p.lines.values()) == \
            s.divergent_branches
        assert sum(lc.syncthreads for lc in p.lines.values()) == s.syncthreads


class TestTimeline:
    def test_build_timeline_covers_all_blocks(self):
        res = profiled(backend="megablock")
        tl = build_timeline(res)
        assert len(tl.intervals) == 8
        assert tl.num_smx == res.device.num_smx
        # Intervals are scaled so the makespan equals the modeled cycles.
        assert max(iv.end for iv in tl.intervals) == pytest.approx(
            res.timing.cycles
        )
        assert all(iv.end > iv.start >= 0.0 for iv in tl.intervals)

    def test_unprofiled_result_rejected(self):
        res = run_kernel(SRC, 8, 32, make_args())
        with pytest.raises(ValueError):
            build_timeline(res)

    def test_chrome_trace_schema(self):
        """The exported JSON must satisfy the trace_event contract Perfetto
        and chrome://tracing validate: an object with a traceEvents list,
        every event carrying ph/pid/tid, complete events carrying ts+dur."""
        res = profiled(backend="megablock")
        trace = chrome_trace(res)
        events = trace["traceEvents"]
        assert isinstance(events, list) and events
        for ev in events:
            assert ev["ph"] in ("M", "X")
            assert isinstance(ev["pid"], int)
            assert "tid" in ev
            if ev["ph"] == "X":
                assert ev["ts"] >= 0 and ev["dur"] > 0
                assert isinstance(ev["name"], str)
        # Metadata names the process and one row per SMX.
        meta = [ev for ev in events if ev["ph"] == "M"]
        assert any(ev["name"] == "process_name" for ev in meta)
        assert sum(ev["name"] == "thread_name" for ev in meta) == \
            res.device.num_smx
        assert trace["otherData"]["blocks"] == 8

    def test_save_trace_round_trips(self, tmp_path):
        res = profiled(backend="megablock")
        out = tmp_path / "trace.json"
        save_trace(res, str(out))
        loaded = json.loads(out.read_text())
        assert loaded["traceEvents"]
        assert loaded["otherData"]["kernel"] == "saxpy"


class TestReport:
    def test_report_lists_hot_lines_with_source(self):
        res = profiled(backend="megablock")
        text = top_lines_report(res.profile, SRC, limit=5)
        assert "saxpy" in text
        assert "out[i] = a[i] * 2.0f + b[i];" in text
        assert "█" in text

    def test_empty_profile_degrades_gracefully(self):
        text = top_lines_report(KernelProfile(kernel="empty"))
        assert "no attributed lines" in text


class TestCli:
    def test_diff_subcommand_passes(self, capsys):
        from repro.prof.__main__ import main

        assert main(["diff", "--benchmark", "MV"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_trace_subcommand_writes_valid_json(self, tmp_path, capsys):
        from repro.prof.__main__ import main

        out = tmp_path / "mv.json"
        assert main(["trace", str(out), "--benchmark", "MV"]) == 0
        data = json.loads(out.read_text())
        assert data["traceEvents"]

    def test_top_subcommand_prints_table(self, capsys):
        from repro.prof.__main__ import main

        assert main(["top", "--benchmark", "MV", "--limit", "3"]) == 0
        assert "cost%" in capsys.readouterr().out
