"""Documentation consistency checks: the repo's own claims must hold."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _fallback_sentence(doc: str) -> str:
    """The sentence of ``doc`` that lists the megablock fallback reasons:
    from its first backticked ``LaunchResult.megablock_fallback`` to the
    next full stop."""
    start = doc.index("`LaunchResult.megablock_fallback`")
    return re.match(r"(.*?)\.\s", doc[start:], re.S).group(1)


class TestReadme:
    def test_quickstart_code_block_runs(self):
        """Execute the README's quickstart block verbatim."""
        readme = (ROOT / "README.md").read_text()
        match = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
        assert match, "README must contain a python quickstart block"
        code = match.group(1)
        namespace: dict = {}
        exec(compile(code, "README-quickstart", "exec"), namespace)

    def test_examples_listed_exist(self):
        readme = (ROOT / "README.md").read_text()
        for script in re.findall(r"python (examples/\w+\.py)", readme):
            assert (ROOT / script).exists(), script

    def test_cli_modules_exist(self):
        readme = (ROOT / "README.md").read_text()
        for mod in re.findall(r"python -m (repro[.\w]+)", readme):
            parts = mod.split(".")
            pkg = ROOT / "src" / pathlib.Path(*parts)
            assert (pkg / "__main__.py").exists() or pkg.with_suffix(".py").exists(), mod

    def test_sanitizer_section_documents_real_flags(self):
        """The Sanitizers section's launch flags must exist on launch()."""
        import inspect

        from repro.gpusim.launch import launch

        readme = (ROOT / "README.md").read_text()
        assert "## Sanitizers" in readme
        params = inspect.signature(launch).parameters
        for flag in ("racecheck", "initcheck", "synccheck"):
            assert f"launch(..., {flag}=True)" in readme, flag
            assert flag in params, flag

    def test_sanitizer_marker_registered(self):
        """`pytest -m sanitizer` (advertised in README) must be a real,
        tier-1-excluded marker."""
        readme = (ROOT / "README.md").read_text()
        assert "pytest -m sanitizer" in readme
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert "sanitizer:" in pyproject
        assert "-m 'not sanitizer'" in pyproject

    def test_profiling_section_documents_real_api(self):
        """The Profiling section's flag, field, and CLI subcommands must
        all exist."""
        import inspect

        from repro.gpusim.launch import LaunchResult, launch

        readme = (ROOT / "README.md").read_text()
        assert "## Profiling" in readme
        assert "launch(..., profile=True)" in readme
        assert "profile" in inspect.signature(launch).parameters
        fields = {f.name for f in LaunchResult.__dataclass_fields__.values()}
        assert {"profile", "megablock_fallback"} <= fields
        # Every `repro.prof` subcommand shown in the README parses.
        from repro.prof.__main__ import main  # noqa: F401  (import works)

        for sub in re.findall(r"python -m repro\.prof (\w+)", readme):
            assert sub in ("trace", "top", "diff"), sub

    def test_caching_section_documents_real_knobs(self):
        """Every GPUSIM_* knob that README.md or DESIGN.md names must be
        read somewhere under src/ or tests/, and the Caching section's
        stats functions and bench record fields must exist."""
        import inspect

        from repro import bench
        from repro.gpusim.compile import compile_cache_stats
        from repro.npc.pipeline import variant_cache_stats

        code = "\n".join(
            path.read_text()
            for top in ("src", "tests")
            for path in (ROOT / top).rglob("*.py")
            if path.resolve() != pathlib.Path(__file__).resolve()
        )
        for doc in ("README.md", "DESIGN.md"):
            text = (ROOT / doc).read_text()
            for knob in set(re.findall(r"\bGPUSIM_[A-Z0-9_]*[A-Z0-9]", text)):
                assert knob in code, f"{doc} names {knob}, which nothing reads"

        readme = (ROOT / "README.md").read_text()
        assert "## Caching" in readme
        section = readme.split("## Caching", 1)[1].split("\n## ", 1)[0]
        assert "`compile_cache_stats()`" in section
        assert "`variant_cache_stats()`" in section
        assert {"hits", "misses"} <= set(vars(compile_cache_stats()))
        assert {"hits", "misses"} <= set(vars(variant_cache_stats()))
        bench_src = inspect.getsource(bench)
        for column in ("np_transform", "variants_digest", "output_digest"):
            assert f'"{column}"' in bench_src, column
            assert column in section, column

    def test_megablock_section_documents_real_api(self, monkeypatch):
        """The Performance section's megablock claims must hold: megablock
        is the default everywhere the docs say so, the env knob that
        selects the interp reference oracle is documented, the fallback
        field exists, and every documented fallback reason is one the
        launcher can emit."""
        import inspect

        from repro.gpusim.launch import (
            BACKENDS,
            LaunchResult,
            default_backend,
            launch,
        )
        from repro.serve import protocol

        readme = (ROOT / "README.md").read_text()
        assert 'backend="megablock"' in readme
        assert "**`megablock`** (default)" in readme
        assert "GPUSIM_BACKEND=interp" in readme
        assert "reference oracle" in readme
        monkeypatch.delenv("GPUSIM_BACKEND", raising=False)
        assert default_backend() == "megablock"
        launch_doc = " ".join(launch.__doc__.split())
        assert 'else ``"megablock"``' in launch_doc
        assert "megablock (default) | interp" in protocol.__doc__
        assert "runs one block at a time on the interp reference" in " ".join(
            readme.split()
        )
        fields = {f.name for f in LaunchResult.__dataclass_fields__.values()}
        assert "megablock_fallback" in fields
        assert "megablock_megawarp" in fields
        launch_src = inspect.getsource(
            __import__("repro.gpusim.launch", fromlist=["launch"])
        )
        # The reasons are the ladder's assignments; README, DESIGN and the
        # field's doc comment name exactly those, no more and no fewer.
        reasons = set(re.findall(r'megablock_fallback = "([^"]+)"', launch_src))
        assert reasons
        field_doc = re.search(
            r"((?:\n[ ]*#:[^\n]*)+)\n[ ]*megablock_fallback:",
            inspect.getsource(LaunchResult),
        ).group(1)
        design = (ROOT / "DESIGN.md").read_text()
        for where, text in (
            ("README", _fallback_sentence(readme)),
            ("DESIGN", _fallback_sentence(design)),
            ("LaunchResult.megablock_fallback", field_doc),
        ):
            named = set(re.findall(r'"([a-z][a-z-]*)"', text)) - set(BACKENDS)
            assert named == reasons, where
        # One-block launches batch; the removed reason stays removed.
        assert '"single-block"' not in readme
        assert '"single-block"' not in launch_src
        # The bench columns the README describes are the ones bench emits.
        import inspect as _inspect

        from repro import bench

        bench_src = _inspect.getsource(bench)
        for column in ("megablock_ms", "speedup_megablock", "compile_ms",
                       "megablock_megawarp"):
            assert f'"{column}"' in bench_src, column
            assert f"`{column}`" in readme or f'"{column}"' in readme, column

    def test_serving_section_documents_real_surface(self):
        """The Serving section's endpoints, knobs, CLI flags, and wire
        fields must all exist in the serve layer."""
        import inspect

        from repro.serve import __main__ as serve_main
        from repro.serve import app, protocol
        from repro.serve.client import ServeClient

        readme = (ROOT / "README.md").read_text()
        assert "## Serving" in readme
        section = readme.split("## Serving", 1)[1].split("\n## ", 1)[0]
        # Documented endpoints are the ones the handler routes.
        handler_src = inspect.getsource(app.ServeHandler)
        for endpoint in ("/v1/launch", "/healthz", "/statz"):
            assert endpoint in section, endpoint
            assert f'"{endpoint}"' in handler_src, endpoint
        # Documented env knobs are the ones __main__ reads.
        main_src = inspect.getsource(serve_main)
        for knob in ("GPUSIM_SERVE_PORT", "GPUSIM_SERVE_MAX_INFLIGHT"):
            assert knob in section, f"{knob} missing from Serving section"
            assert knob in main_src, f"{knob} documented but never read"
        # Documented repro.serve CLI flags parse.
        for flag in ("--port", "--max-inflight"):
            assert flag in section, flag
            assert f'"{flag}"' in main_src, flag
        # Wire schema fields the section names exist in the protocol.
        protocol_src = inspect.getsource(protocol)
        for field in ("kernel", "grid", "block", "args", "const_arrays",
                      "tenant", "backend", "profile", "deadline_ms"):
            assert f'"{field}"' in protocol_src, field
        # Documented status codes are ones the app emits.
        app_src = inspect.getsource(app)
        for code in ("503", "504", "422"):
            assert code in section, code
            assert code in app_src, code
        assert "Retry-After" in section and "Retry-After" in app_src
        assert "Server-Timing" in section and "Server-Timing" in app_src
        # The README's serve module entry point and bench flags exist.
        assert "python -m repro.serve" in readme
        from repro import bench

        bench_src = inspect.getsource(bench)
        for flag in ("--serve", "--serve-url", "--tenants", "--requests",
                     "--duplicate-every"):
            assert flag in section, flag
            assert f'"{flag}"' in bench_src, flag
        assert "BENCH_serve.json" in section
        assert callable(ServeClient.launch)

    def test_fuzzer_docs_name_real_knobs(self):
        """The fuzzing claims in README/DESIGN must point at real code:
        the generator module, the test file, and the env knobs it reads."""
        readme = (ROOT / "README.md").read_text()
        design = (ROOT / "DESIGN.md").read_text()
        assert "repro.testing.fuzzgen" in readme
        assert "tests/test_backend_fuzz.py" in readme
        assert "repro.testing.fuzzgen" in design
        from repro.testing import fuzzgen

        assert callable(fuzzgen.generate) and callable(fuzzgen.minimize)
        fuzz_test = (ROOT / "tests" / "test_backend_fuzz.py").read_text()
        for knob in ("GPUSIM_FUZZ_COUNT", "GPUSIM_FUZZ_SEED"):
            assert knob in fuzz_test, knob
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "GPUSIM_FUZZ_COUNT" in ci
        assert "test_backend_fuzz.py" in ci

    def test_verify_cli_flags_exist(self):
        """Every --flag in the README's `repro.npc` lines parses."""
        from repro.npc.__main__ import build_parser

        readme = (ROOT / "README.md").read_text()
        parser = build_parser()
        known = {
            opt for action in parser._actions for opt in action.option_strings
        }
        for line in re.findall(r"python -m repro\.npc .*", readme):
            for flag in re.findall(r"(--[\w-]+)", line):
                assert flag in known, flag


class TestDesign:
    def test_experiment_index_complete(self):
        """DESIGN.md's index covers every registered experiment."""
        design = (ROOT / "DESIGN.md").read_text()
        from repro.experiments import EXPERIMENTS

        for exp_id in EXPERIMENTS:
            anchor = {"table1": "Table 1", "sec6": "§6"}.get(
                exp_id, f"Fig. {int(exp_id[3:]) if exp_id.startswith('fig') else ''}"
            )
            assert anchor in design, f"{exp_id} missing from DESIGN.md index"

    def test_benchmark_inventory_complete(self):
        design = (ROOT / "DESIGN.md").read_text()
        from repro.kernels import BENCHMARKS

        for name in BENCHMARKS:
            assert f"| {name}" in design or f"| {name} " in design, name

    def test_paper_confirmation_present(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert "Paper check" in design
        assert "CUDA-NP" in design

    def test_profiler_collection_points_documented(self):
        """DESIGN.md must explain where counters are collected and name the
        real anchor points."""
        design = (ROOT / "DESIGN.md").read_text()
        assert "## Profiler collection points" in design
        for anchor in ("exec_stmt", "current_loc", "_run_block", "#prof"):
            assert anchor in design, anchor

    def test_megablock_batch_axis_documented(self):
        """DESIGN.md must explain the batch axis and name real anchors."""
        design = (ROOT / "DESIGN.md").read_text()
        assert "## Batch axis & divergence masks" in design
        for anchor in ("#prof", "MegaKernel", "megablock_fallback",
                       "BatchedSharedArray", "(blocks, lanes)"):
            assert anchor in design, anchor

    def test_megawarp_and_batched_atomics_documented(self):
        """The megawarp flattening and deterministic-atomics subsections
        must name the real seams they describe."""
        design = (ROOT / "DESIGN.md").read_text()
        for anchor in (
            "megablock_flatten", "kernel_flatten_safe", "megablock_megawarp",
            "_mb_atomic_apply", "kernel_atomic_order_free", "atomic-order",
            "atomic_serializations",
        ):
            assert anchor in design, anchor
        # Each documented seam exists in code.
        from repro.gpusim import compile as gpu_compile
        from repro.gpusim import megablock, stats

        assert callable(megablock.megablock_flatten)
        assert callable(gpu_compile.kernel_flatten_safe)
        assert callable(gpu_compile.kernel_atomic_order_free)
        assert "atomic_serializations" in stats.KernelStats.__dataclass_fields__

    def test_coalescing_vs_batching_documented(self):
        """DESIGN.md must contrast request coalescing with megablock
        batching and name the real seams."""
        design = (ROOT / "DESIGN.md").read_text()
        assert "## Request coalescing vs megablock batching" in design
        for anchor in ("CoalescingBatcher", "serve/batcher.py",
                       "Retry-After", "503", "504"):
            assert anchor in design, anchor
        from repro.serve.batcher import CoalescingBatcher

        assert callable(CoalescingBatcher.submit)

    def test_sanitizer_analogue_documented(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert "compute-sanitizer" in design
        for tool in ("racecheck", "initcheck", "synccheck"):
            assert tool in design, tool
        flat = " ".join(design.split())
        assert "differential transformation oracle" in flat


class TestExperimentsDoc:
    def test_summary_covers_all_experiments(self):
        doc = (ROOT / "EXPERIMENTS.md").read_text()
        for needle in (
            "Fig. 1", "Table 1", "Fig. 10", "Fig. 11", "Fig. 12",
            "Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16", "§6",
        ):
            assert needle in doc, needle

    def test_calibration_documented(self):
        doc = (ROOT / "EXPERIMENTS.md").read_text()
        assert "1.7 µs" in doc or "1.7 us" in doc
        assert "Calibrated constants" in doc
