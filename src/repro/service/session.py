"""Warm per-dataset solver state shared by batch jobs and the service.

A :class:`SolverSession` owns everything that is expensive to derive
from a dataset and cheap to reuse: materialised grouped objectives
(for influence datasets that means the sampled RR collection, its CSR
inverted index and the packed arrays behind it), Monte-Carlo evaluation
bundles, and live :class:`~repro.core.dynamic.DynamicMaximizer`
instances. All of it sits behind byte-budgeted LRU caches
(:mod:`repro.utils.caching`) so a long-lived process cannot leak, and
every cache reports hit/miss statistics that the service surfaces in
responses.

Each warm objective also carries its own sub-result memo: BSM solves
take the ``greedy_utility`` and ``saturate`` results they start from
(``S_f`` and ``S_g``) from it until the objective's version moves, so
repeated BSM requests at one ``k`` compute them once
(:meth:`~repro.core.functions.GroupedObjective.subresult`). Top-level
``greedy`` and ``saturate`` requests always compute their answers. The
``subresults`` block of :meth:`SolverSession.stats` sums the memo's
hits, misses and entries over the session's objectives.

The ``repro serve`` engine (:class:`~repro.service.engine.ServiceEngine`)
keeps the only registry of sessions: an LRU keyed by ``(dataset, seed,
store, memory budget)``, whose eviction drops a session's warm state.
Its ``sweep`` and ``pareto`` ops run the harness sweeps on the request's
session. A batch caller of :func:`~repro.experiments.harness.sweep_tau`
or :func:`~repro.experiments.harness.sweep_k` passes its own session, or
gets a fresh one for that call.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.dynamic import DynamicMaximizer
from repro.core.functions import GroupedObjective
from repro.core.problem import BSMProblem
from repro.core.result import SolverResult
from repro.datasets.registry import Dataset
from repro.utils.caching import BoundedCache

#: Default byte budgets. Objectives dominate (a 30k-sample RR collection
#: on a few thousand nodes is tens of MB); evaluation bundles are a few
#: floats each, bounded anyway so a tau sweep over thousands of distinct
#: solutions cannot grow without bound.
DEFAULT_OBJECTIVE_BUDGET = 256 * 1024 * 1024
DEFAULT_EVAL_BUDGET = 8 * 1024 * 1024
#: Live dynamic maximizers kept per session (count-LRU: each pins an
#: ObjectiveState sized by its objective, and a long-lived daemon must
#: not accumulate one per distinct update configuration forever).
MAX_DYNAMIC_INSTANCES = 8

#: Dataset kinds whose objective ships ready-made with the dataset.
_STATIC_KINDS = ("coverage", "facility", "recommendation", "summarization")


def _decomposition_law(workers: Optional[int]) -> str:
    """Cache-key component for the sampling RNG decomposition.

    ``workers=None`` runs the legacy in-line stream; any worker count
    runs the unit decomposition, and all counts produce bitwise-identical
    results (the parallel backend's determinism contract) — so cached
    entries are shared across worker counts but never across the two
    laws, whose streams differ.
    """
    return "serial" if workers is None else "units"


class SolverSession:
    """Warm solver state for one dataset.

    Parameters
    ----------
    dataset:
        The loaded workload (see :mod:`repro.datasets.registry`).
    store:
        Storage tier of influence objectives: ``"ram"`` keeps the flat
        in-memory RR arrays, ``"mmap"`` samples into the segmented
        out-of-core store (:mod:`repro.storage`).
    memory_budget:
        Resident-byte budget for ``store="mmap"`` (sets the segment
        size; ``None`` = default segments).
    objective_budget, eval_budget:
        Byte budgets of the objective and evaluation caches.

    The worker width is not session state: every sampling or evaluation
    call takes ``workers`` (``None`` = the serial in-line stream), so
    the caller picks one draw law per request. The pool flavour and the
    kernel set are process pins
    (:func:`repro.utils.parallel.set_default_backend`,
    :func:`repro.kernels.set_default_kernel`), not session state either.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        store: str = "ram",
        memory_budget: Optional[int] = None,
        objective_budget: int = DEFAULT_OBJECTIVE_BUDGET,
        eval_budget: int = DEFAULT_EVAL_BUDGET,
    ) -> None:
        if store not in ("ram", "mmap"):
            raise ValueError(f"store must be 'ram' or 'mmap', got {store!r}")
        self.dataset = dataset
        self.store = store
        self.memory_budget = memory_budget
        self._objectives = BoundedCache(objective_budget)
        self._evaluations = BoundedCache(eval_budget)
        self._dynamic = BoundedCache(
            MAX_DYNAMIC_INSTANCES, sizeof=lambda maximizer: 1
        )
        self.requests = 0
        # Warm-repair counters (cumulative over the session's lifetime;
        # the service `stats` op surfaces them).
        self.repairs = 0
        self.full_resamples = 0
        self.sets_repaired = 0
        self.sets_total = 0

    # -- keys -------------------------------------------------------------
    def _graph_key(self) -> tuple:
        graph = self.dataset.graph
        return (self.dataset.name, id(graph), graph.version)

    def _objective_key(
        self, im_samples: int, sample_seed: int, workers: Optional[int]
    ) -> tuple:
        # Deliberately *not* version-keyed: a graph mutation repairs the
        # cached objective in place (see objective()) instead of
        # stranding the old entry and resampling from scratch. The
        # storage tier is part of the key — a segmented objective and a
        # flat one are never interchangeable cache hits.
        return (
            self.dataset.name, id(self.dataset.graph),
            int(im_samples), int(sample_seed), _decomposition_law(workers),
            self.store, self.memory_budget,
        )

    def _record_repair(self, result) -> None:
        """Accumulate one refresh outcome into the session counters."""
        self.repairs += 1
        if result.full_resample:
            self.full_resamples += 1
        self.sets_repaired += result.sets_repaired
        self.sets_total += result.sets_total

    # -- warm accessors ----------------------------------------------------
    def objective(
        self,
        *,
        im_samples: int = 2_000,
        sample_seed: int = 0,
        workers: Optional[int] = None,
    ) -> GroupedObjective:
        """The solvable objective, materialised at most once per config.

        Static kinds return the dataset's ready objective. Influence
        datasets sample an RR collection on first use and keep the
        resulting :class:`~repro.problems.influence.InfluenceObjective`
        — CSR incidence, inverted index and all — warm across requests,
        keyed by graph identity. In-place graph mutation does *not*
        evict the entry: a version-stale hit is brought up to date by
        the objective's incremental repair
        (:meth:`~repro.problems.influence.InfluenceObjective.refresh` —
        only the RR sets touching changed arcs are regenerated), and the
        cache's byte accounting is refreshed alongside.
        """
        self.requests += 1
        dataset = self.dataset
        if dataset.kind in _STATIC_KINDS:
            return dataset.objective
        if dataset.kind != "influence":
            raise ValueError(f"unknown dataset kind {dataset.kind!r}")
        from repro.problems.influence import InfluenceObjective

        key = self._objective_key(im_samples, sample_seed, workers)

        def build() -> InfluenceObjective:
            return InfluenceObjective.from_graph(
                dataset.graph, im_samples,
                seed=sample_seed, workers=workers,
                store=self.store, memory_budget=self.memory_budget,
            )

        objective = self._objectives.get_or_create(
            key, build, anchor=dataset.graph
        )
        version = getattr(objective, "graph_version", None)
        if version is not None and version != dataset.graph.version:
            self._record_repair(objective.refresh())
            self._objectives.reaccount(key)
        return objective

    def evaluate_mc(
        self,
        solution: tuple[int, ...],
        *,
        mc_simulations: int,
        mc_seed: int,
        workers: Optional[int] = None,
    ) -> tuple[float, float]:
        """Monte-Carlo ``(f, g)`` of a seed set, one cascade bundle per
        distinct ``(solution, budget, seed)``.

        Within a sweep every row re-scoring the same solution (flat
        baselines, or a tau-aware algorithm whose selection did not move
        between sweep points) reuses the batched simulation instead of
        re-running thousands of cascades.
        """
        self.requests += 1
        if self.dataset.kind != "influence":
            raise ValueError("evaluate_mc only applies to influence datasets")
        dataset = self.dataset
        key = self._graph_key() + (
            tuple(sorted(solution)), int(mc_simulations), int(mc_seed),
            _decomposition_law(workers),
        )

        def build() -> tuple[float, float]:
            from repro.influence.ic_model import monte_carlo_group_spread

            values = monte_carlo_group_spread(
                dataset.graph, solution, mc_simulations,
                seed=mc_seed, workers=workers,
            )
            weights = dataset.graph.group_sizes() / dataset.graph.num_nodes
            return (float(weights @ values), float(values.min()))

        return self._evaluations.get_or_create(
            key, build, anchor=dataset.graph
        )

    def evaluate(
        self,
        items: tuple[int, ...],
        *,
        im_samples: int = 2_000,
        sample_seed: int = 0,
        mc_simulations: int = 0,
        workers: Optional[int] = None,
    ) -> tuple[float, float]:
        """``(f, g)`` of an arbitrary solution on the warm objective.

        Influence datasets with ``mc_simulations > 0`` re-score by
        Monte-Carlo simulation (the paper's reporting convention);
        otherwise values come from the oracle estimates.
        """
        if self.dataset.kind == "influence" and mc_simulations > 0:
            return self.evaluate_mc(
                tuple(items), mc_simulations=mc_simulations,
                mc_seed=sample_seed, workers=workers,
            )
        objective = self.objective(
            im_samples=im_samples, sample_seed=sample_seed, workers=workers
        )
        values = objective.evaluate(items)
        return (
            float(objective.group_weights @ values), float(values.min())
        )

    def solve(
        self,
        algorithm: str,
        k: int,
        tau: float = 0.0,
        *,
        im_samples: int = 2_000,
        sample_seed: int = 0,
        workers: Optional[int] = None,
        **solver_kwargs: Any,
    ) -> SolverResult:
        """One solver run on the warm objective (via the solver registry)."""
        objective = self.objective(
            im_samples=im_samples, sample_seed=sample_seed, workers=workers
        )
        problem = BSMProblem(objective, k=k, tau=tau)
        return problem.solve(algorithm, **solver_kwargs)

    def dynamic(
        self,
        k: int,
        *,
        im_samples: int = 2_000,
        sample_seed: int = 0,
        rebuild_factor: float = 0.5,
        workers: Optional[int] = None,
    ) -> DynamicMaximizer:
        """The live dynamic maximizer for one update configuration.

        Instances persist across requests (their live set and solution
        are the whole point) inside a count-LRU of
        :data:`MAX_DYNAMIC_INSTANCES` — the least-recently-used
        configuration is dropped, losing its stream state, rather than
        letting a long-lived daemon accumulate maximizers forever. For
        influence datasets an in-place graph mutation no longer retires
        the maximizer: its backing objective is delta-repaired and the
        maintained solution rebuilt over the *same* live set
        (:meth:`~repro.core.dynamic.DynamicMaximizer.refresh`), keeping
        the session warm across a stream of edge updates.
        """
        graph = self.dataset.graph
        key = (int(k), int(im_samples), int(sample_seed),
               float(rebuild_factor), _decomposition_law(workers))

        def build() -> DynamicMaximizer:
            objective = self.objective(
                im_samples=im_samples, sample_seed=sample_seed,
                workers=workers,
            )
            return DynamicMaximizer(
                objective, k, rebuild_factor=rebuild_factor
            )

        anchor = graph if graph is not None else self.dataset.objective
        maximizer = self._dynamic.get_or_create(key, build, anchor=anchor)
        if graph is not None and self.dataset.kind == "influence":
            objective = maximizer.objective
            version = getattr(objective, "graph_version", None)
            if version is not None and version != graph.version:
                # Repair the maximizer's own objective (it may have been
                # evicted from the objective cache — the maximizer keeps
                # it alive) and rebuild the maintained solution.
                result = maximizer.refresh()
                if result is not None:
                    self._record_repair(result)
                    self._objectives.reaccount(
                        self._objective_key(im_samples, sample_seed, workers)
                    )
        return maximizer

    def apply_edge_events(
        self, edge_events: Sequence[tuple[str, int, int, float]]
    ) -> int:
        """Apply arc-level graph mutations (the service ``update`` op).

        Each event is ``(action, u, v, probability)`` with ``action``
        one of ``"add_edge"`` / ``"set_probability"``. Mirrors the
        all-or-nothing contract of
        :meth:`~repro.core.dynamic.DynamicMaximizer.process_events`: the
        whole batch is validated against the *current* graph before
        anything is applied, so a bad event rejects the batch without
        mutating it. Returns the number of events applied. Warm
        objectives are not touched here — they repair lazily on their
        next access, against the collapsed delta of the whole batch.
        """
        if not edge_events:
            return 0
        graph = self.dataset.graph
        if graph is None or self.dataset.kind != "influence":
            raise ValueError(
                "edge_events require an influence dataset with a graph"
            )
        validated: list[tuple[str, int, int, float]] = []
        for action, u, v, probability in edge_events:
            if action not in ("add_edge", "set_probability"):
                raise ValueError(
                    f"unknown edge event action {action!r} "
                    "(expected 'add_edge' or 'set_probability')"
                )
            u, v, probability = int(u), int(v), float(probability)
            for node in (u, v):
                if not 0 <= node < graph.num_nodes:
                    raise IndexError(
                        f"edge event node {node} out of range "
                        f"[0, {graph.num_nodes})"
                    )
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"edge probability must be in [0, 1], got {probability}"
                )
            if action == "set_probability" and v not in graph.out_neighbors(u):
                raise KeyError(f"arc {u} -> {v} not present")
            validated.append((action, u, v, probability))
        for action, u, v, probability in validated:
            if action == "add_edge":
                graph.add_edge(u, v, probability=probability)
            else:
                graph.set_arc_probability(u, v, probability)
        return len(validated)

    # -- bookkeeping -------------------------------------------------------
    @property
    def objective_cache(self) -> BoundedCache:
        return self._objectives

    @property
    def evaluation_cache(self) -> BoundedCache:
        return self._evaluations

    @property
    def dynamic_cache(self) -> BoundedCache:
        return self._dynamic

    def _storage_stats(self) -> dict[str, Any]:
        """Aggregate storage-tier telemetry over the warm objectives.

        ``resident_bytes`` counts only RAM-resident arrays (memory-mapped
        segments report their on-disk footprint separately), so a client
        can see that an mmap-tier session holds gigabytes of RR sets in
        a few MB of resident memory.
        """
        info: dict[str, Any] = {
            "store_kind": self.store,
            "objectives": 0,
            "segments": 0,
            "resident_bytes": 0,
            "on_disk_bytes": 0,
        }
        for key in self._objectives.keys():
            objective = self._objectives.peek(key)
            storage_info = getattr(objective, "storage_info", None)
            if storage_info is None:
                continue
            data = storage_info()
            info["objectives"] += 1
            info["segments"] += int(data.get("segments", 0))
            info["resident_bytes"] += int(data.get("resident_bytes", 0))
            info["on_disk_bytes"] += int(data.get("on_disk_bytes", 0))
        return info

    def _subresult_stats(self) -> dict[str, int]:
        """Sub-result memo counters summed over the warm objectives.

        ``hits`` says whether BSM solves reused ``S_f`` / ``S_g``
        (:meth:`~repro.core.functions.GroupedObjective.subresult`);
        ``misses`` counts the computed ones since each objective was
        built.
        """
        if self.dataset.kind in _STATIC_KINDS:
            objectives = [self.dataset.objective]
        else:
            objectives = [
                self._objectives.peek(key) for key in self._objectives.keys()
            ]
        totals = {"hits": 0, "misses": 0, "entries": 0}
        for objective in objectives:
            for name, value in objective.subresult_stats().items():
                totals[name] += value
        return totals

    def stats(self) -> dict[str, Any]:
        """JSON-safe cache statistics (embedded in service responses)."""
        return {
            "dataset": self.dataset.name,
            "kind": self.dataset.kind,
            "requests": self.requests,
            "storage": self._storage_stats(),
            "objective": self._objectives.stats.as_dict(),
            "evaluation": self._evaluations.stats.as_dict(),
            "dynamic_instances": len(self._dynamic),
            "dynamic": self._dynamic.stats.as_dict(),
            "subresults": self._subresult_stats(),
            "repair": {
                "repairs": self.repairs,
                "full_resamples": self.full_resamples,
                "sets_repaired": self.sets_repaired,
                "sets_total": self.sets_total,
                "repair_ratio": (
                    round(self.sets_repaired / self.sets_total, 6)
                    if self.sets_total else 0.0
                ),
            },
        }

    def memory_bytes(self) -> int:
        """Footprint hook for :func:`repro.utils.caching.estimate_nbytes`."""
        return (
            self._objectives.current_bytes + self._evaluations.current_bytes
        )
