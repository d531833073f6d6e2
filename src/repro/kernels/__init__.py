"""Registry of interchangeable hot-loop kernels.

The influence stack has exactly three inner loops that dominate every
figure: the per-level gather+draw of the batched reachability BFS
(:mod:`repro.influence.engine`), CSR coverage counting
(:func:`repro.utils.csr.batch_group_counts` and the bincount paths in
:mod:`repro.problems.influence`), and the single-item gains re-score
that commits an item. This package holds one implementation *set* per
strategy and dispatches each call to the best available one:

* ``"baseline"`` — the PR 3 reference implementations, moved here
  verbatim from ``engine.py``/``csr.py``. Kept callable forever: it is
  the ground truth every other kernel is bitwise-checked against, and
  the denominator of the ``kernel_serial`` benchmark metric.
* ``"numpy"`` — a tightened pure-NumPy rewrite: preallocated per-thread
  scratch reused across levels and chunks, ``rng.random(out=)`` draws,
  in-place sort+dedup instead of ``np.unique``, ``np.take``/
  ``np.compress`` with ``out=`` in place of fancy-index temporaries,
  and int32 key arithmetic whenever the flat key space fits. Always
  available; must win ≥1.3x over baseline on one core
  (``benchmarks/bench_parallel.py`` gates it).

Every kernel produces bit-for-bit the baseline's arrays for the same
inputs and RNG state — the registry changes speed, never results. The
active set is a process setting with no per-call override: it resolves
as the :func:`set_default_kernel` pin → ``REPRO_KERNEL`` env override →
``"numpy"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "Kernel",
    "available_kernels",
    "default_kernel_name",
    "get_kernel",
    "register_kernel",
    "set_default_kernel",
]

#: Environment override for the active kernel set (e.g. the CI
#: optional-deps leg exports ``REPRO_KERNEL=baseline`` to run the
#: reference loops through the sampling suites).
KERNEL_ENV_VAR = "REPRO_KERNEL"


@dataclass(frozen=True)
class Kernel:
    """One named implementation set of the three hot loops.

    ``reachability_chunk``/``reachability_chunk_sparse`` mirror the
    engine's private chunk functions (flat ``instance * n + node`` keys
    in, reached keys out, one ``rng.random`` consumption per BFS level);
    ``group_counts`` mirrors :func:`repro.utils.csr.batch_group_counts`;
    ``gains_rescore`` is the single-item fresh-coverage count
    (``ids`` of RR sets containing the item → per-group int64 counts);
    ``pack_chunk_keys`` turns one chunk's reached flat keys into the
    packed ``(set_indptr, set_indices)`` pair.
    """

    name: str
    reachability_chunk: Callable
    reachability_chunk_sparse: Callable
    group_counts: Callable
    gains_rescore: Callable
    pack_chunk_keys: Callable


_REGISTRY: dict[str, Kernel] = {}
_DEFAULT_OVERRIDE: Optional[str] = None


def register_kernel(impl: Kernel) -> None:
    """Add (or replace) a kernel set in the registry."""
    _REGISTRY[impl.name] = impl


def available_kernels() -> list[str]:
    """Registered kernel names, baseline first."""
    names = sorted(_REGISTRY)
    if "baseline" in names:
        names.remove("baseline")
        names.insert(0, "baseline")
    return names


def default_kernel_name() -> str:
    """The kernel used when no explicit name is given.

    Resolution order: :func:`set_default_kernel` pin → ``REPRO_KERNEL``
    environment variable → ``"numpy"``.
    """
    if _DEFAULT_OVERRIDE is not None:
        return _DEFAULT_OVERRIDE
    env = os.environ.get(KERNEL_ENV_VAR)
    if env:
        if env not in _REGISTRY:
            raise ValueError(
                f"{KERNEL_ENV_VAR}={env!r} is not a registered kernel "
                f"(available: {available_kernels()})"
            )
        return env
    return "numpy"


def set_default_kernel(name: Optional[str]) -> None:
    """Pin the default kernel set (``None`` restores auto-resolution)."""
    if name is not None and name not in _REGISTRY:
        raise ValueError(
            f"unknown kernel {name!r} (available: {available_kernels()})"
        )
    global _DEFAULT_OVERRIDE
    _DEFAULT_OVERRIDE = name


def get_kernel(name: Optional[str] = None) -> Kernel:
    """Resolve a kernel set by name (``None`` → the active default)."""
    resolved = name if name is not None else default_kernel_name()
    try:
        return _REGISTRY[resolved]
    except KeyError:
        raise ValueError(
            f"unknown kernel {resolved!r} (available: {available_kernels()})"
        ) from None


# Register both sets eagerly.
from repro.kernels import baseline as _baseline  # noqa: E402
from repro.kernels import numpy_kernels as _numpy_kernels  # noqa: E402

register_kernel(
    Kernel(
        name="baseline",
        reachability_chunk=_baseline.reachability_chunk,
        reachability_chunk_sparse=_baseline.reachability_chunk_sparse,
        group_counts=_baseline.group_counts,
        gains_rescore=_baseline.gains_rescore,
        pack_chunk_keys=_baseline.pack_chunk_keys,
    )
)
register_kernel(
    Kernel(
        name="numpy",
        reachability_chunk=_numpy_kernels.reachability_chunk,
        reachability_chunk_sparse=_numpy_kernels.reachability_chunk_sparse,
        group_counts=_numpy_kernels.group_counts,
        gains_rescore=_numpy_kernels.gains_rescore,
        pack_chunk_keys=_numpy_kernels.pack_chunk_keys,
    )
)
