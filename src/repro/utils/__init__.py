"""Shared low-level helpers: math, IO, iteration, timing, RNG.

Public names resolve on first use (:mod:`repro.utils.lazy`), so importing
the package loads none of its submodules.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.utils.iteration import batched, sliding_windows, take
    from repro.utils.lru import LruCache
    from repro.utils.mathx import (
        entropy,
        harmonic_mean,
        log_add,
        normalize_distribution,
        safe_div,
        zipf_weights,
    )
    from repro.utils.randx import rng_from_seed, stable_hash, weighted_choice
    from repro.utils.timer import Timer

__all__ = [
    "batched",
    "sliding_windows",
    "take",
    "LruCache",
    "entropy",
    "harmonic_mean",
    "log_add",
    "normalize_distribution",
    "safe_div",
    "zipf_weights",
    "rng_from_seed",
    "stable_hash",
    "weighted_choice",
    "Timer",
]

if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.utils.iteration": ("batched", "sliding_windows", "take"),
            "repro.utils.lru": ("LruCache",),
            "repro.utils.mathx": (
                "entropy",
                "harmonic_mean",
                "log_add",
                "normalize_distribution",
                "safe_div",
                "zipf_weights",
            ),
            "repro.utils.randx": ("rng_from_seed", "stable_hash", "weighted_choice"),
            "repro.utils.timer": ("Timer",),
        },
    )
