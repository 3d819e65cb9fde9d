"""Named-profile registry: attach profiles to tool outputs by name.

``autotune``, ``repro.bench`` and the Fig. 11-16 experiment scripts all
produce tables whose rows come from individual launches; when those
launches run with ``profile=True`` they record their
:class:`~repro.prof.counters.KernelProfile` here under a descriptive
name (``"bench/MV/baseline"``, ``"autotune/LU/t4"`` ...).  Consumers
fetch profiles by name after the run, or serialize the whole registry
next to the numeric results.

The registry is process-local module state, like the compile cache —
``clear_registry()`` between independent runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .counters import KernelProfile


@dataclass
class ProfileEntry:
    """One named profile plus free-form metadata about its origin."""

    name: str
    profile: KernelProfile
    meta: Dict[str, object] = field(default_factory=dict)


_REGISTRY: Dict[str, ProfileEntry] = {}


def record_profile(
    name: str, profile: Optional[KernelProfile], **meta
) -> Optional[ProfileEntry]:
    """Register ``profile`` under ``name`` (last writer wins).

    ``profile`` may be None (un-profiled launch) — then nothing is
    recorded, so callers can pass ``result.profile`` unconditionally.
    """
    if profile is None:
        return None
    entry = ProfileEntry(name=name, profile=profile, meta=dict(meta))
    _REGISTRY[name] = entry
    return entry


def get_profile(name: str) -> Optional[ProfileEntry]:
    return _REGISTRY.get(name)


def profile_names() -> List[str]:
    return sorted(_REGISTRY)


def clear_registry() -> None:
    _REGISTRY.clear()


def registry_to_json() -> Dict[str, object]:
    """JSON-serializable snapshot of every registered profile."""
    return {
        name: {
            "kernel": entry.profile.kernel,
            "meta": entry.meta,
            "profile": entry.profile.as_dict(),
        }
        for name, entry in sorted(_REGISTRY.items())
    }
