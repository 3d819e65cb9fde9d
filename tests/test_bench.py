"""Wall-clock benchmark harness smoke tests (``python -m repro.bench``)."""

import copy
import json
import os
import pathlib

import pytest

import repro.bench
from repro.bench import (
    QUICK_KERNELS,
    _compile_split,
    _time_engines,
    bench_kernel,
    compare_reports,
    main,
    run_serve_bench,
)
from repro.kernels import BENCHMARKS
from repro.serve.metrics import clear_serve_events

#: The committed bench report whose variant digests pin the NP compiler's
#: emitted source.
COMMITTED = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCH_gpusim.json").read_text()
)


@pytest.fixture(autouse=True)
def _isolate_serve_events():
    """The in-process server records into a process-global event deque;
    clear it so serve traffic from the --serve tests doesn't leak a
    "serve" row into later tests' Chrome-trace exports."""
    yield
    clear_serve_events()


def test_bench_kernel_record():
    rec = bench_kernel("CFD", repeats=1)
    assert rec["interp_ms"] > 0 and rec["megablock_ms"] > 0
    assert rec["speedup_megablock"] > 0
    assert set(rec["compile_ms"]) == {"megablock", "np_transform"}
    # The megawarp flag is always present, so it round-trips through
    # BENCH_gpusim.json.
    assert rec["megablock_megawarp"] in (True, False, None)
    if rec["megablock_fallback"] is None:
        assert rec["megablock_megawarp"] is not None


def test_engines_alternate_within_repeats():
    """Each repeat times interp and then megablock, so host drift reaches
    both engines' samples; the best of each engine comes back."""
    calls = []

    class Recorder:
        def run_baseline(self, backend):
            calls.append(backend)
            return backend

    best, result = _time_engines(Recorder(), repeats=3)
    assert calls == ["interp", "megablock"] * 3
    assert set(best) == {"interp", "megablock"}
    assert all(0 <= seconds < 1 for seconds in best.values())
    assert result == "megablock"


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_compile_split_emits_the_committed_variant_sources(name, monkeypatch):
    """Every compiled NP variant of each paper kernel emits byte-identical
    source to the committed ``BENCH_gpusim.json`` (count and sha256).  One
    sample suffices: only the emitted sources are checked."""
    monkeypatch.setattr(repro.bench, "COMPILE_SAMPLES", 1)
    _, np_variants, variants_digest = _compile_split(BENCHMARKS[name]())
    committed = COMMITTED["kernels"][name]
    assert np_variants == committed["np_variants"]
    assert variants_digest == committed["variants_digest"]


def test_compile_split_reports_the_median_of_cold_samples(monkeypatch):
    """Each ``compile_ms`` component is the median of ``COMPILE_SAMPLES``
    back-to-back samples taken with the collector paused; the variant
    cache is cleared before every ``np_transform`` sample, and nothing
    else runs between samples."""
    import gc
    import types

    from repro.gpusim import megablock
    from repro.npc import pipeline

    assert repro.bench.COMPILE_SAMPLES == 5
    events = []
    durations = iter([0.005, 0.001, 0.004, 0.002, 0.003,
                      0.010, 0.050, 0.020, 0.040, 0.030])
    clock = {"now": 100.0, "started": False}

    def perf_counter():
        events.append("clock")
        assert not gc.isenabled()
        if clock["started"]:
            clock["now"] += next(durations)
        clock["started"] = not clock["started"]
        return clock["now"]

    real_lower = megablock.compile_megablock
    real_clear = pipeline.clear_variant_cache
    bench = BENCHMARKS["CFD"]()
    real_compile = bench.compile_variant

    def lower(*args, **kwargs):
        events.append("lower")
        return real_lower(*args, **kwargs)

    def clear():
        events.append("clear")
        real_clear()

    def compile_variant(config):
        events.append("compile")
        return real_compile(config)

    monkeypatch.setattr(repro.bench, "time",
                        types.SimpleNamespace(perf_counter=perf_counter))
    monkeypatch.setattr(megablock, "compile_megablock", lower)
    monkeypatch.setattr(pipeline, "clear_variant_cache", clear)
    monkeypatch.setattr(bench, "compile_variant", compile_variant)
    split, np_variants, variants_digest = _compile_split(bench)

    assert split == {"megablock": 3.0, "np_transform": 30.0}
    configs = len(bench.configs())
    assert events == (
        ["clock", "lower", "clock"] * 5
        + (["clear", "clock"] + ["compile"] * configs + ["clock"]) * 5
    )
    assert np_variants == COMMITTED["kernels"]["CFD"]["np_variants"]
    assert variants_digest == COMMITTED["kernels"]["CFD"]["variants_digest"]


def test_main_quick_writes_json(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["--quick", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["kernels"]) == set(QUICK_KERNELS)
    assert report["config"]["repeats"] == 1
    assert report["geomean_speedup"] > 0
    assert report["host"]["cpu_count"] >= 1
    for rec in report["kernels"].values():
        assert "megablock_megawarp" in rec
    printed = capsys.readouterr().out
    assert "geomean" in printed
    assert " mw " in printed.splitlines()[0] or "mw" in printed.splitlines()[0]


def test_main_kernel_subset(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["--kernels", "CFD", "--repeats", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert list(report["kernels"]) == ["CFD"]


@pytest.mark.parametrize("argv", [
    ["--kernels", "CFD", "--repeats", "0"],
    ["--serve", "--kernels", "MC", "--tenants", "0"],
    ["--serve", "--kernels", "MC", "--requests", "0"],
    ["--serve", "--kernels", "MC", "--requests", "-1"],
], ids=["repeats-0", "tenants-0", "requests-0", "requests-negative"])
def test_counts_below_one_rejected(argv, tmp_path, capsys):
    """A count below 1 exits 2 naming its flag before any work starts,
    and leaves no report behind."""
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--out", str(out)])
    assert excinfo.value.code == 2
    flag = next(a for a in argv if a in ("--repeats", "--tenants", "--requests"))
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, repeats", [
    ([], 3),
    (["--quick"], 1),
    (["--quick", "--repeats", "3"], 3),
    (["--repeats", "1"], 1),
], ids=["default", "quick", "quick-repeats-3", "repeats-1"])
def test_repeats_flag_is_honoured(argv, repeats, tmp_path, monkeypatch):
    """``--quick`` sets one repeat only when ``--repeats`` is not given;
    an explicit ``--repeats 3`` is not mistaken for the default."""
    seen = []
    monkeypatch.setattr(repro.bench, "run_bench",
                        lambda kernels, repeats: seen.append(repeats) or {})
    monkeypatch.setattr(repro.bench, "format_report", lambda report: "")
    assert main(argv + ["--kernels", "CFD", "--out", str(tmp_path / "b.json")]) == 0
    assert seen == [repeats]


@pytest.mark.parametrize("argv, written", [
    (["--serve"], "BENCH_serve.json"),
    (["--serve", "--out", "BENCH_gpusim.json"], "BENCH_gpusim.json"),
    (["--serve", "--out", "mine.json"], "mine.json"),
], ids=["default", "out-gpusim-name", "out-other"])
def test_serve_out_flag_is_honoured(argv, written, tmp_path, monkeypatch):
    """``--serve`` writes ``BENCH_serve.json`` only when ``--out`` is not
    given; an explicit ``--out BENCH_gpusim.json`` is written as named."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(repro.bench, "run_serve_bench", lambda kernels, **kw: {
        "verified_bit_identical": {}, "failures": 0})
    monkeypatch.setattr(repro.bench, "format_serve_report", lambda report: "")
    assert main(argv + ["--kernels", "MC"]) == 0
    assert [path.name for path in tmp_path.iterdir()] == [written]


def _fake_report(ratio, fallback=None, megawarp=True):
    return {
        "kernels": {
            "MC": {
                "speedup_megablock": ratio,
                "megablock_fallback": fallback,
                "megablock_megawarp": megawarp,
            }
        }
    }


class TestCompareReports:
    def test_parity_passes(self):
        ok, table = compare_reports(_fake_report(2.0), _fake_report(2.0))
        assert ok
        assert "geomean delta 1.000" in table

    def test_regression_fails_with_delta_table(self):
        ok, table = compare_reports(
            _fake_report(1.0), _fake_report(2.0), threshold=0.9
        )
        assert not ok
        assert "REGRESSED" in table
        assert "MC" in table and "0.500" in table

    def test_improvement_passes(self):
        ok, _ = compare_reports(_fake_report(3.0), _fake_report(2.0))
        assert ok

    def test_fallback_kernels_listed_but_not_gated(self):
        """A kernel that fell back in the fresh run must not silently drop
        out — its reason appears in the table, and with nothing comparable
        the gate fails rather than passing vacuously."""
        ok, table = compare_reports(
            _fake_report(1.0, fallback="atomic-order", megawarp=None),
            _fake_report(2.0),
        )
        assert not ok
        assert "fallback:atomic-order" in table
        assert "no comparable kernels" in table

    def test_baseline_fallback_excluded(self):
        fresh = _fake_report(2.0)
        base = _fake_report(2.0, fallback="atomics", megawarp=None)
        ok, table = compare_reports(fresh, base)
        assert not ok  # only kernel is non-comparable
        assert "baseline-fallback:atomics" in table

    def test_megawarp_transition_noted(self):
        fresh = _fake_report(2.5, megawarp=True)
        base = _fake_report(2.0, megawarp=False)
        ok, table = compare_reports(fresh, base)
        assert ok
        assert "now megawarp" in table

    def test_missing_kernel_in_baseline(self):
        fresh = _fake_report(2.0)
        fresh["kernels"]["NEW"] = copy.deepcopy(fresh["kernels"]["MC"])
        ok, table = compare_reports(fresh, _fake_report(2.0))
        assert ok  # MC still comparable
        assert "not-in-baseline" in table


def test_serve_bench_schema_round_trips(tmp_path):
    """The --serve load generator's report must carry the documented
    schema, honour the counter invariant, and verify bit-identity."""
    report = run_serve_bench(
        kernels=("MC",), tenants=2, requests=2, duplicate_every=2
    )
    # Schema round-trips through JSON unchanged.
    assert report == json.loads(json.dumps(report))
    assert set(report) >= {
        "config", "verified_bit_identical", "requests", "failures",
        "elapsed_s", "throughput_rps", "latency_ms", "server", "batcher",
    }
    assert report["config"]["tenants"] == 2
    assert report["requests"] == 4 and report["failures"] == 0
    lat = report["latency_ms"]
    assert set(lat) == {"p50", "p90", "p99", "mean", "max"}
    assert lat["p50"] > 0 and lat["p99"] >= lat["p50"]
    assert report["throughput_rps"] > 0
    # Served responses were byte-for-byte what a direct launch produced.
    assert report["verified_bit_identical"] == {"MC": True}
    # The report says where it ran and which engine served every response.
    assert report["host"]["cpu_count"] == os.cpu_count()
    assert {"python", "numpy"} <= set(report["host"])
    assert report["backends"] == {report["default_backend"]: 4}
    # Server-side window accounting: every completed request was either a
    # real launch or a coalesced follower.
    window = report["server"]
    assert window["launches"] + window["coalesced"] == window["completed"]
    assert window["completed"] == 4
    # Launches run on the workers, so their memory is reported beside the
    # server's.
    rss = report["peak_rss_mb"]
    assert rss["server"] > 0
    assert len(rss["workers"]) == len(os.sched_getaffinity(0))
    assert all(mb > 0 for mb in rss["workers"])


def test_serve_cli_writes_json(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "--serve", "--kernels", "MC", "--tenants", "2", "--requests", "2",
    ]) == 0
    report = json.loads((tmp_path / "BENCH_serve.json").read_text())
    assert report["failures"] == 0
    printed = capsys.readouterr().out
    assert "serve load:" in printed
    assert "bit-identity vs direct launch(): ALL OK" in printed
    assert "wrote BENCH_serve.json" in printed


def test_compare_cli_exit_codes(tmp_path):
    baseline = tmp_path / "baseline.json"
    # A generous baseline (ratio well below any real run) must pass...
    base_report = {
        "kernels": {
            "CFD": {
                "speedup_megablock": 0.001,
                "megablock_fallback": None,
                "megablock_megawarp": True,
            }
        }
    }
    baseline.write_text(json.dumps(base_report))
    out = tmp_path / "bench.json"
    assert main([
        "--kernels", "CFD", "--repeats", "1", "--out", str(out),
        "--compare", "--baseline", str(baseline),
    ]) == 0
    # ...and an impossible baseline must fail with exit code 1.
    base_report["kernels"]["CFD"]["speedup_megablock"] = 1e9
    baseline.write_text(json.dumps(base_report))
    assert main([
        "--kernels", "CFD", "--repeats", "1", "--out", str(out),
        "--compare", "--baseline", str(baseline),
    ]) == 1
