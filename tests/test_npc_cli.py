"""CLI tests: the source-to-source tool face + copyin clause."""

import numpy as np
import pytest

from repro.npc.__main__ import main

TMV = """
__global__ void tmv(float *a, float *b, float *c, int w, int h) {
    float sum = 0;
    int tx = threadIdx.x + blockIdx.x * blockDim.x;
    #pragma np parallel for reduction(+:sum)
    for (int i = 0; i < h; i++)
        sum += a[i*w+tx] * b[i];
    c[tx] = sum;
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "tmv.cu"
    path.write_text(TMV)
    return str(path)


class TestCli:
    def test_basic_compile(self, kernel_file, capsys):
        assert main([kernel_file, "--block", "64", "--slave-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "__global__ void tmv_np" in out
        assert "slave_id" in out

    def test_output_reparses(self, kernel_file, capsys):
        main([kernel_file, "--block", "64"])
        out = capsys.readouterr().out
        from repro.minicuda.parser import parse

        program = parse(out)
        assert "tmv_np" in program.kernels
        # const_env is emitted as #defines, which the lexer re-expands.
        assert program.defines == {"master_size": "64", "slave_size": "8"}

    def test_intra_no_shfl(self, kernel_file, capsys):
        assert main([
            kernel_file, "--block", "64", "--np-type", "intra", "--no-shfl",
        ]) == 0
        out = capsys.readouterr().out
        assert "__shfl" not in out
        assert "__np_comm_f" in out

    def test_intra_shfl(self, kernel_file, capsys):
        main([kernel_file, "--block", "64", "--np-type", "intra"])
        out = capsys.readouterr().out
        assert "__shfl" in out

    def test_list_variants(self, kernel_file, capsys):
        assert main([kernel_file, "--block", "64", "--list"]) == 0
        out = capsys.readouterr().out
        assert "inter-warp" in out and "intra-warp" in out

    def test_list_honours_sm_and_local(self, tmp_path, capsys):
        """``--list`` enumerates for the ``--sm`` target and the ``--local``
        placement: on sm_20 no intra-warp variant may use ``__shfl``."""
        from repro.kernels import BENCHMARKS

        path = tmp_path / "lib.cu"
        path.write_text(BENCHMARKS["LIB"]().source)
        argv = [str(path), "--block", "32", "--sm", "20", "--local", "shared"]
        assert main(argv + ["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        intra = [line for line in lines if line.startswith("intra-warp")]
        assert intra and all(" smem " in line for line in intra)
        assert all(line.endswith(" local=shared") for line in lines)
        intra_smem = ["--np-type", "intra", "--slave-size", "2", "--no-shfl"]
        assert main(argv + intra_smem) == 0
        assert "__shfl" not in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_input_is_a_one_line_error(self, tmp_path, capsys, kind):
        path = tmp_path / "kernel.cu"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe__global__")
        assert main([str(path), "--block", "32"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert err.count("\n") == 1

    def test_notes(self, kernel_file, capsys):
        main([kernel_file, "--block", "64", "--notes"])
        out = capsys.readouterr().out
        assert "// " in out
        assert "launch block: (64, 8)" in out

    def test_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.cu"
        bad.write_text("__global__ void t(float *a) { a[0] = 0.f; }")
        assert main([str(bad), "--block", "32"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(TMV))
        assert main(["-", "--block", "64"]) == 0
        assert "tmv_np" in capsys.readouterr().out


class TestCopyin:
    def test_copyin_forces_broadcast(self):
        """copyin(scale) must emit a broadcast even though 'scale' is
        slave-invariant (computed from a parameter)."""
        src = """
        __global__ void t(float *a, float *o, int n, float k) {
            int tid = threadIdx.x + blockIdx.x * blockDim.x;
            float scale = k * 2.f;
            float s = 0;
            #pragma np parallel for reduction(+:s) copyin(scale)
            for (int i = 0; i < n; i++)
                s += a[tid * n + i] * scale;
            o[tid] = s;
        }
        """
        from repro.minicuda.pretty import emit_kernel
        from repro.npc.config import NpConfig
        from repro.npc.pipeline import compile_np

        variant = compile_np(src, 32, NpConfig(slave_size=4, np_type="inter"))
        out = emit_kernel(variant.kernel)
        assert "__np_bcast_f" in out  # forced broadcast materialized

        # and the kernel still computes the right thing
        from repro.gpusim.launch import run_kernel
        from repro.npc.autotune import launch_variant

        rng = np.random.default_rng(3)
        data = rng.standard_normal(64 * 5).astype(np.float32)

        def args():
            return dict(a=data.copy(), o=np.zeros(64, np.float32), n=5, k=1.5)

        base = run_kernel(src, 2, 32, args())
        res = launch_variant(variant, 2, args())
        np.testing.assert_allclose(res.buffer("o"), base.buffer("o"), rtol=1e-4)

    def test_copyin_unknown_variable(self):
        src = """
        __global__ void t(float *a, int n) {
            #pragma np parallel for copyin(ghost)
            for (int i = 0; i < n; i++)
                a[i] = 0.f;
        }
        """
        from repro.minicuda.errors import TransformError
        from repro.npc.config import NpConfig
        from repro.npc.pipeline import compile_np

        with pytest.raises(TransformError, match="copyin"):
            compile_np(src, 32, NpConfig(slave_size=4))
