"""Source-to-source CLI: the compiler face of CUDA-NP.

Mirrors how the paper's Cetus-based tool is used — feed in a kernel with
``#pragma np`` directives, get the transformed kernel back as source:

    python -m repro.npc kernel.cu --block 64 --slave-size 8
    python -m repro.npc kernel.cu --block 64 --np-type intra --no-shfl
    python -m repro.npc kernel.cu --block 64 --list     # enumerate variants

Verify mode runs the differential transformation oracle instead of printing
source: every variant is compiled, executed on the simulator under the
racecheck/initcheck sanitizer, and compared against the baseline kernel:

    python -m repro.npc kernel.cu --block 64 --verify --grid 4 --arg n=4096
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from ..gpusim.device import GTX680
from ..minicuda.errors import MiniCudaError
from ..minicuda.pretty import emit_kernel
from .config import NpConfig
from .pipeline import compile_np, enumerate_configs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.npc",
        description="CUDA-NP source-to-source compiler (PPoPP'14 reproduction)",
    )
    parser.add_argument("input", help="kernel source file ('-' for stdin)")
    parser.add_argument("--block", type=int, required=True,
                        help="input kernel's thread-block size")
    parser.add_argument("--slave-size", type=int, default=8,
                        help="threads per master group (default 8)")
    parser.add_argument("--np-type", choices=("inter", "intra"), default="inter")
    parser.add_argument("--no-shfl", action="store_true",
                        help="use shared memory even for intra-warp NP")
    parser.add_argument("--padded", action="store_true",
                        help="padded iteration distribution (§3.7)")
    parser.add_argument("--local", default="auto",
                        choices=("auto", "partition", "shared", "global", "keep"),
                        help="live local-array placement (§3.3)")
    parser.add_argument("--sm", type=int, default=30,
                        help="target compute capability x10 (default 30)")
    parser.add_argument("--recombine-unrolled", action="store_true",
                        help="fold manually unrolled statement runs (§3.7)")
    parser.add_argument("--list", action="store_true",
                        help="list the auto-tuner's variant space and exit")
    parser.add_argument("--notes", action="store_true",
                        help="print the transformation log as comments")
    verify = parser.add_argument_group("verify mode (differential oracle)")
    verify.add_argument("--verify", action="store_true",
                        help="run every variant under the sanitizer and "
                             "compare outputs against the baseline kernel")
    verify.add_argument("--grid", type=int, default=1,
                        help="grid blocks for verification runs (default 1)")
    verify.add_argument("--elems", type=int, default=4096,
                        help="elements per synthesized array argument")
    verify.add_argument("--arg", action="append", default=[], metavar="NAME=VALUE",
                        help="scalar kernel argument (repeatable); required "
                             "for every non-pointer parameter")
    verify.add_argument("--seed", type=int, default=0,
                        help="RNG seed for synthesized array inputs")
    return parser


def _run_verify(source: str, args) -> int:
    """Synthesize inputs and run the differential oracle over all variants."""
    import numpy as np

    from ..minicuda.nodes import PointerType
    from ..minicuda.parser import parse_kernel
    from ..testing.oracle import verify_transformations

    kernel = parse_kernel(source)
    scalars: dict[str, str] = {}
    for item in args.arg:
        name, sep, value = item.partition("=")
        if not sep:
            raise MiniCudaError(f"--arg expects NAME=VALUE, got {item!r}")
        scalars[name] = value

    pointer_params = []
    scalar_values: dict[str, object] = {}
    for param in kernel.params:
        if isinstance(param.type, PointerType):
            pointer_params.append(param)
        elif param.name in scalars:
            text = scalars[param.name]
            scalar_values[param.name] = (
                float(text) if param.type.name == "float" else int(text)
            )
        else:
            raise MiniCudaError(
                f"scalar parameter {param.name!r} needs a value: "
                f"pass --arg {param.name}=VALUE"
            )

    def make_args():
        rng = np.random.default_rng(args.seed)
        values: dict = dict(scalar_values)
        for param in pointer_params:
            if param.type.elem.name == "float":
                values[param.name] = rng.uniform(-1, 1, args.elems).astype(np.float32)
            else:
                values[param.name] = rng.integers(
                    0, args.elems, args.elems
                ).astype(np.int32)
        return values

    report = verify_transformations(kernel, args.block, args.grid, make_args)
    print(report.summary())
    return 0 if report.ok else 1


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        source = _read_source(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: cannot read {args.input}: {reason}", file=sys.stderr)
        return 1

    try:
        if args.list:
            device = replace(GTX680, sm_version=args.sm)
            for config in enumerate_configs(
                source, args.block, device, local_placement=args.local
            ):
                print(config.describe())
            return 0
        if args.verify:
            return _run_verify(source, args)
        config = NpConfig(
            slave_size=args.slave_size,
            np_type=args.np_type,
            use_shfl=not args.no_shfl,
            padded=args.padded or args.np_type == "intra",
            local_placement=args.local,
            sm_version=args.sm,
        )
        variant = compile_np(
            source, args.block, config,
            recombine_unrolled=args.recombine_unrolled,
        )
    except MiniCudaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.notes:
        for note in variant.notes:
            print(f"// {note}")
        print(f"// launch block: {variant.block}")
        for extra in variant.extra_buffers:
            print(
                f"// host must allocate {extra.name}: "
                f"{extra.elems_per_block} x grid elements ({extra.type_name})"
            )
    print(emit_kernel(variant.kernel), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
