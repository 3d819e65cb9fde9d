"""Test-suite configuration.

Hypothesis runs derandomized so CI results are reproducible; the
differential fuzzers still cover fresh ground locally when run with
``--hypothesis-seed=random``.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def mb_paths(monkeypatch):
    """Count which path megablock's memory hooks take.

    Returns a ``Counter`` keyed ``(space, path)``.  ``space`` is
    ``"global"``, ``"shared"``, ``"local"``, ``"const"`` or ``"tex"``;
    ``path`` is ``"warp"`` (full-mask path, block-invariant
    ``(WARP_SIZE,)`` indices), ``"rows"`` (full-mask path, row-varying
    indices) or ``"general"`` (the per-lane path).  Accesses that raise
    are not counted.
    """
    from collections import Counter

    import numpy as np

    from repro.gpusim import megablock as mb

    counts = Counter()
    spaces = {
        mb.PointerValue: "global",
        mb.BatchedSharedArray: "shared",
        mb.BatchedLocalArray: "local",
        mb.ConstArray: "const",
    }
    state = {"full": 0, "in_hook": False}

    def shape(arrays) -> str:
        return "warp" if max(np.ndim(a) for a in arrays) == 1 else "rows"

    def wrap_full(name):
        orig = getattr(mb, name)

        def full(ctx, root, indices, *rest):
            out = orig(ctx, root, indices, *rest)
            if out is not None and out is not False:
                arrays = list(indices)
                if isinstance(root, mb.PointerValue):
                    arrays.append(root.offsets)
                counts[(spaces[type(root)], shape(arrays))] += 1
                state["full"] += 1
            return out

        monkeypatch.setattr(mb, name, full)

    def wrap_hook(name):
        orig = getattr(mb, name)

        def hook(ctx, root, indices, *rest):
            before = state["full"]
            state["in_hook"] = True
            try:
                out = orig(ctx, root, indices, *rest)
            finally:
                state["in_hook"] = False
            if state["full"] == before:
                counts[(spaces.get(type(root), "?"), "general")] += 1
            return out

        monkeypatch.setattr(mb, name, hook)

    tex_full = mb._mb_tex_full
    tex_load = mb._mb_tex_load

    def counted_tex_full(ctx, tex, idx):
        out = tex_full(ctx, tex, idx)
        if out is not None:
            counts[("tex", shape([idx]))] += 1
        return out

    def counted_tex_load(tex, idx, mask):
        out = tex_load(tex, idx, mask)
        if not state["in_hook"]:  # the constant-memory hook also gathers here
            counts[("tex", "general")] += 1
        return out

    wrap_full("_mb_load_full")
    wrap_full("_mb_store_full")
    wrap_hook("_mb_load_object")
    wrap_hook("_mb_store_object")
    monkeypatch.setattr(mb, "_mb_tex_full", counted_tex_full)
    monkeypatch.setattr(mb, "_mb_tex_load", counted_tex_load)
    return counts
