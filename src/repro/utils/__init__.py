"""Shared low-level helpers used across the :mod:`repro` package.

The submodules deliberately stay dependency-free (numpy only) so that every
other subsystem — graphs, datasets, solvers — can import them without
creating cycles.
"""

from repro.utils.caching import (
    BoundedCache,
    CacheStats,
    estimate_nbytes,
)
from repro.utils.parallel import (
    SharedArrays,
    WorkerContext,
    WorkerPool,
    available_cpus,
    fork_available,
    get_pool,
    parallel_imap,
    parallel_map,
    pool_stats,
    resolve_backend,
    resolve_workers,
    shutdown_pools,
    spawn_seed_sequences,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.stats import (
    Aggregate,
    aggregate,
    bootstrap_ci,
    paired_sign_test,
    replicate,
)
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive_int,
    check_probability,
)

__all__ = [
    "Aggregate",
    "BoundedCache",
    "CacheStats",
    "SharedArrays",
    "Timer",
    "WorkerContext",
    "WorkerPool",
    "aggregate",
    "as_generator",
    "available_cpus",
    "bootstrap_ci",
    "check_fraction",
    "check_non_negative",
    "check_positive_int",
    "check_probability",
    "estimate_nbytes",
    "fork_available",
    "get_pool",
    "paired_sign_test",
    "parallel_imap",
    "parallel_map",
    "pool_stats",
    "replicate",
    "resolve_backend",
    "resolve_workers",
    "shutdown_pools",
    "spawn_generators",
    "spawn_seed_sequences",
]
