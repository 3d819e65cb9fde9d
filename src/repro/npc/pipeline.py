"""The CUDA-NP compilation pipeline (paper Fig. 7) and variant enumeration.

``compile_np`` runs the full source-to-source flow for one configuration:

1. preprocess — flatten multi-dim thread blocks, optionally recombine
   unrolled statements (§3.7);
2. plan and apply live local-array replacement (§3.3);
3. remap thread ids for the chosen inter/intra-warp mapping (§3.4);
4. the master/slave transformation with broadcasts, reductions and scans
   (§3.1–3.2, §3.5);
5. assemble the output kernel: prelude, injected shared buffers, extra
   global scratch parameters, and compile-time constants
   (``master_size``/``slave_size`` — the paper's template parameters).

``enumerate_configs`` produces the variant space the auto-tuner explores
(§4), honouring any ``num_threads``/``np_type``/``sm_version`` clauses the
developer put in the pragma (§3.6).

Compiled variants are memoized per process in a locked
:class:`~repro.lru.LRU` of 256 entries, keyed by kernel digest, block
shape, config, device and transform options (:func:`variant_cache_stats`,
:func:`clear_variant_cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from ..gpusim.compile import kernel_digest
from ..gpusim.device import DeviceSpec, GTX680
from ..lru import LRU
from ..minicuda.errors import TransformError
from ..minicuda.nodes import (
    Block,
    For,
    Kernel,
    Param,
    PointerType,
    ScalarType,
    Stmt,
    VarDecl,
    clone,
    walk,
)
from ..minicuda.parser import parse_kernel
from .config import CompiledVariant, NpConfig, INTRA_WARP_SLAVE_SIZES
from .local_arrays import (
    LocalArrayPlan,
    apply_access_rewrites,
    plan_local_arrays,
    replacement_decl,
)
from .master_slave import (
    MasterSlaveTransformer,
    collect_parallel_loops,
    is_parallel_loop,
    prelude,
    remap_thread_ids,
)
from .preprocess import combine_unrolled, flatten_thread_dims


def _shared_bytes(kernel: Kernel) -> int:
    from ..gpusim.interp import shared_decls

    return sum(
        decl.type.numel * 4 for decl in shared_decls(kernel)  # type: ignore[union-attr]
    )


def _replace_decls(body: Block, plans: dict[str, LocalArrayPlan], master_size: int) -> Block:
    """Swap planned local-array declarations for their replacements."""

    def process(blk: Block) -> Block:
        out: list[Stmt] = []
        for stmt in blk.stmts:
            if isinstance(stmt, VarDecl) and stmt.name in plans:
                out.extend(replacement_decl(plans[stmt.name], master_size))
                continue
            stmt = clone(stmt)
            for node in walk(stmt):
                for field_name in ("body", "then", "els"):
                    child = getattr(node, field_name, None)
                    if isinstance(child, Block):
                        setattr(node, field_name, process(child))
            out.append(stmt)
        return Block(out)

    return process(body)


@dataclass
class VariantCacheStats:
    hits: int = 0
    misses: int = 0
    size: int = 0


#: Compiled variants by :func:`_variant_cache_key`.
_VARIANT_CACHE = LRU(256)


def _variant_cache_key(
    kernel: Kernel,
    block_size: Union[int, tuple[int, ...]],
    config: NpConfig,
    device: DeviceSpec,
    recombine_unrolled: bool,
) -> Optional[tuple]:
    """Cache key: source digest × block shape × NpConfig × device × options.

    The digest is :func:`~repro.gpusim.compile.kernel_digest`, so any change
    to the input kernel's source, ``#define`` constants or pragmas changes
    it.  ``None`` (uncached) when the AST cannot be printed.
    """
    digest = kernel_digest(kernel)
    if digest is None:
        return None
    block = block_size if isinstance(block_size, tuple) else (int(block_size),)
    return (digest, tuple(int(b) for b in block), config, device, recombine_unrolled)


def _share_variant(variant: CompiledVariant) -> CompiledVariant:
    """A per-caller view of a cached variant: the (never mutated) kernel AST
    is shared, the mutable containers are shallow-copied."""
    return replace(
        variant,
        extra_buffers=list(variant.extra_buffers),
        const_arrays=dict(variant.const_arrays),
        notes=list(variant.notes),
    )


def variant_cache_stats() -> VariantCacheStats:
    """This process's variant-cache counters and size."""
    return VariantCacheStats(
        hits=_VARIANT_CACHE.hits,
        misses=_VARIANT_CACHE.misses,
        size=len(_VARIANT_CACHE),
    )


def clear_variant_cache() -> None:
    _VARIANT_CACHE.clear()


def compile_np(
    kernel: Union[str, Kernel],
    block_size: Union[int, tuple[int, ...]],
    config: NpConfig,
    device: DeviceSpec = GTX680,
    recombine_unrolled: bool = False,
) -> CompiledVariant:
    """Compile one CUDA-NP variant of ``kernel``.

    ``block_size`` is the *input* kernel's thread-block shape; the variant's
    launch block grows by ``config.slave_size`` along a new dimension.

    Successful compilations are memoized in a digest-keyed cache shared by
    the autotuner, the oracle and direct callers (see
    :func:`variant_cache_stats` / :func:`clear_variant_cache`).
    """
    if isinstance(kernel, str):
        kernel = parse_kernel(kernel)
    cache_key = _variant_cache_key(
        kernel, block_size, config, device, recombine_unrolled
    )
    if cache_key is not None:
        cached = _VARIANT_CACHE.get(cache_key)
        if cached is not None:
            return _share_variant(cached)
    kernel = clone(kernel)
    notes: list[str] = []
    const_arrays: dict[str, np.ndarray] = {}

    # --- 0. static semantic validation -------------------------------------
    from ..minicuda.check import assert_valid

    assert_valid(kernel)

    # --- 1. preprocessing (§3.7) -----------------------------------------
    block3 = block_size if isinstance(block_size, tuple) else (int(block_size),)
    block3 = tuple(block3) + (1, 1, 1)
    original_block = block3[:3]
    kernel, master_size = flatten_thread_dims(kernel, original_block)
    if original_block[1] * original_block[2] > 1:
        notes.append(f"flattened {original_block} thread block to 1-D ({master_size})")
    if recombine_unrolled:
        rec = combine_unrolled(kernel)
        kernel = rec.kernel
        const_arrays.update(rec.const_arrays)
        if rec.loops_formed:
            notes.append(f"recombined {rec.loops_formed} unrolled statement runs")

    S = config.slave_size
    threads = master_size * S
    if threads > device.max_threads_per_block:
        raise TransformError(
            f"variant needs {master_size}x{S}={threads} threads per block; "
            f"device limit is {device.max_threads_per_block}"
        )
    if config.np_type == "intra" and config.use_shfl and config.sm_version < 30:
        raise TransformError("__shfl requires sm_version >= 30 (§3.6)")

    loops = collect_parallel_loops(kernel.body)
    if not loops:
        raise TransformError(
            f"kernel {kernel.name!r} has no '#pragma np parallel for' loops"
        )

    # --- 2. local-array replacement (§3.3) --------------------------------
    # For partition legality we must know whether the array is touched
    # outside the parallel loops: strip the loops out of a body copy.
    stripped = clone(kernel.body)
    for node in walk(stripped):
        body = getattr(node, "stmts", None)
        if isinstance(body, list):
            node.stmts = [s for s in body if not is_parallel_loop(s)]
    has_scan = any(loop.pragma is not None and loop.pragma.scans for loop in loops)
    plans = plan_local_arrays(
        kernel,
        loops,
        [stripped],
        config,
        master_size,
        baseline_shared_bytes=_shared_bytes(kernel),
        chunked=has_scan,
    )
    if plans:
        new_body = _replace_decls(kernel.body, plans, master_size)
        new_body = apply_access_rewrites(new_body, plans)
        kernel.body = new_body
        for plan in plans.values():
            notes.append(plan.describe())

    # --- 3. thread-id remap (§3.4) ----------------------------------------
    kernel.body = remap_thread_ids(kernel.body, config.np_type)

    # --- extra global scratch parameters (before symbol table is built) ---
    extra_buffers = [p.extra_buffer for p in plans.values() if p.extra_buffer]
    for extra in extra_buffers:
        kernel.params.append(
            Param(extra.name, PointerType(ScalarType(extra.type_name)))
        )

    kernel.const_env = dict(kernel.const_env)
    kernel.const_env["master_size"] = master_size
    kernel.const_env["slave_size"] = S

    # --- 4. master/slave transformation (§3.5) -----------------------------
    section_sync = any(
        plan.placement in ("shared", "global") for plan in plans.values()
    )
    transformer = MasterSlaveTransformer(
        kernel, config, master_size, section_sync=section_sync
    )
    result = transformer.transform()
    notes.extend(result.notes)

    # --- 5. assemble ---------------------------------------------------------
    out = Kernel(
        name=f"{kernel.name}_np",
        params=kernel.params,
        body=Block(
            prelude(config) + list(result.buffers.shared_decls()) + result.body.stmts
        ),
        const_env=kernel.const_env,
        provenance=f"CUDA-NP variant of {kernel.name!r} ({config.describe()})",
    )
    block = (master_size, S) if config.np_type == "inter" else (S, master_size)
    variant = CompiledVariant(
        kernel=out,
        config=config,
        master_size=master_size,
        block=block,
        extra_buffers=extra_buffers,
        const_arrays=const_arrays,
        notes=notes,
    )
    if cache_key is not None:
        # Cache a private view so caller-side mutation of the returned
        # containers cannot leak into later cache hits.
        _VARIANT_CACHE.put(cache_key, _share_variant(variant))
    return variant


def verify_np(
    kernel: Union[str, Kernel],
    block_size: Union[int, tuple[int, ...]],
    grid,
    make_args,
    configs: Optional[Sequence[NpConfig]] = None,
    **kwargs,
):
    """Differentially verify every variant of ``kernel`` (compiler verify
    mode): each :class:`NpConfig` is compiled, launched under the
    racecheck/initcheck sanitizer on the same inputs as the baseline, and
    checked for output equality and zero findings.  Returns a
    :class:`~repro.testing.oracle.OracleReport`.
    """
    # Imported lazily: repro.testing.oracle uses this module's compile_np.
    from ..testing.oracle import verify_transformations

    return verify_transformations(
        kernel, block_size, grid, make_args, configs=configs, **kwargs
    )


def pragma_constraints(kernel: Union[str, Kernel]) -> dict:
    """Collect the variant-space constraints from the kernel's pragmas."""
    if isinstance(kernel, str):
        kernel = parse_kernel(kernel)
    constraints: dict = {}
    for loop in collect_parallel_loops(kernel.body):
        assert loop.pragma is not None
        for attr in ("num_threads", "np_type", "sm_version"):
            value = getattr(loop.pragma, attr)
            if value is not None:
                constraints[attr] = value
    return constraints


def enumerate_configs(
    kernel: Union[str, Kernel],
    block_size: int,
    device: DeviceSpec = GTX680,
    slave_sizes: Sequence[int] = (2, 4, 8, 16, 32),
    include_padded: bool = False,
    local_placement: str = "auto",
) -> list[NpConfig]:
    """The variant space the auto-tuner explores (§4).

    Pragma clauses narrow the space: ``num_threads(N)`` pins the slave
    count, ``np_type`` pins the mapping, ``sm_version`` < 30 disables
    ``__shfl``.
    """
    if isinstance(kernel, str):
        kernel = parse_kernel(kernel)
    constraints = pragma_constraints(kernel)
    sm_version = constraints.get("sm_version", device.sm_version)
    sizes = (
        [constraints["num_threads"]]
        if "num_threads" in constraints
        else list(slave_sizes)
    )
    np_types = (
        [constraints["np_type"]]
        if "np_type" in constraints
        else ["inter", "intra"]
    )
    configs: list[NpConfig] = []
    for np_type in np_types:
        for S in sizes:
            if block_size * S > device.max_threads_per_block:
                continue
            if np_type == "intra" and S not in INTRA_WARP_SLAVE_SIZES:
                continue
            padded_options = [False]
            if np_type == "intra":
                padded_options = [True]  # §3.7: intra-warp pads by default
            elif include_padded:
                padded_options = [False, True]
            for padded in padded_options:
                configs.append(
                    NpConfig(
                        slave_size=S,
                        np_type=np_type,
                        use_shfl=sm_version >= 30,
                        padded=padded,
                        local_placement=local_placement,  # type: ignore[arg-type]
                        sm_version=sm_version,
                    )
                )
    return configs
