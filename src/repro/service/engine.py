"""Request dispatch and coalescing over warm solver sessions.

:class:`ServiceEngine` is the service's brain: it owns the process's
only registry of :class:`~repro.service.session.SolverSession`
instances (one per ``(dataset, seed, store, memory budget)``, LRU),
dispatches typed requests through the solver registry of
:class:`~repro.core.problem.BSMProblem`, and coalesces compatible
concurrent ``solve`` requests into one shared batched run.

Coalescing rule
---------------
Requests submitted together (a JSON-array line to ``repro serve``, or
one :meth:`handle_batch` call) are *concurrent*. Concurrent ``solve``
requests with ``algorithm="greedy"`` and identical
``(dataset, seed, im_samples, workers)`` — i.e. the same warm objective
and the same ``AverageUtility`` scalarizer (``tau`` does not enter
plain greedy) — run as **one** block-lazy greedy solve at the
largest requested budget. Greedy's prefix property makes this exact:
the run at budget ``k_max`` selects, step by step, precisely the items
a run at any smaller ``k`` would, with identical tie-breaking, and
replaying the first ``k`` accepted items reproduces the smaller run's
state bit for bit (the incremental ``group_values`` sums are performed
in the same order). Solutions, group values, utility and fairness are
therefore *bitwise-identical* to sequential solves — pinned on all five
domains by ``tests/test_service.py``. Shared-run figures
(``oracle_calls``, ``runtime``) are reported on every coalesced
response along with ``extra["coalesced_width"]``.

Execution order
---------------
:meth:`ServiceEngine.plan` splits a batch into *units*: every coalesced
group of two or more solves runs first, in order of first appearance,
then every other request alone, in batch order. :meth:`handle_batch`
runs the units in that order and returns the whole list. The shards of
the TCP front-end (:mod:`repro.service.shards`) run the same units one
``handle_batch`` call each and answer every unit's requests as soon as
that unit finishes, so a request waits for the units planned before
it, never for the ones after it.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.core.problem import BSMProblem
from repro.core.result import SolverResult, make_result
from repro.datasets.registry import DATASETS, load_dataset
from repro.service.protocol import Response, ServiceRequest
from repro.service.session import SolverSession
from repro.utils.caching import BoundedCache
from repro.utils.parallel import pool_stats, set_default_backend
from repro.utils.stats import LatencyWindow
from repro.utils.timing import Timer

#: Algorithms eligible for shared-run coalescing. Deterministic,
#: AverageUtility-scalarized, and prefix-nested in ``k`` — plain greedy
#: is all three; Saturate/BSM runs are not prefix-nested (their inner
#: bisections depend on ``k`` and ``tau``), stochastic greedy is random.
COALESCABLE = ("greedy",)


def coalesce_key(
    request: ServiceRequest, workers: Optional[int]
) -> Optional[tuple]:
    """The group a request coalesces in; ``None`` when it never does.

    Two solves share a run exactly when their keys are equal: same
    algorithm, warm objective and storage tier. ``workers`` is the
    engine's default width, which a request without its own inherits.
    """
    if request.op != "solve" or request.algorithm not in COALESCABLE:
        return None
    return (
        request.algorithm, request.dataset, request.seed,
        request.im_samples,
        request.workers if request.workers is not None else workers,
        request.mc_simulations, request.store, request.memory_budget,
    )


#: Default capacity of the session registry (sessions, LRU).
MAX_SESSIONS = 8


class ServiceEngine:
    """Long-lived dispatcher over warm per-dataset sessions.

    ``exec_backend`` is a process setting, not engine state: a non-``None``
    value pins the pool flavour for the whole process
    (:func:`repro.utils.parallel.set_default_backend`), so shard children
    rebuilding their engine from the same config pin it too; ``None``
    leaves the current pin alone. ``stats`` reports the configured value.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        exec_backend: Optional[str] = None,
        store: str = "ram",
        memory_budget: Optional[int] = None,
        max_sessions: int = MAX_SESSIONS,
    ) -> None:
        if store not in ("ram", "mmap"):
            raise ValueError(f"store must be 'ram' or 'mmap', got {store!r}")
        if exec_backend is not None:
            set_default_backend(exec_backend)
        self.workers = workers
        self.exec_backend = exec_backend
        self.store = store
        self.memory_budget = memory_budget
        self._sessions = BoundedCache(max_sessions, sizeof=lambda s: 1)
        self.requests_served = 0
        self.coalesced_requests = 0
        self.coalesced_runs = 0
        self.latency = LatencyWindow()

    # -- sessions ---------------------------------------------------------
    def session(
        self,
        dataset_name: str,
        seed: int = 0,
        *,
        store: str = "",
        memory_budget: int = 0,
    ) -> SolverSession:
        """The warm session for ``(dataset_name, seed, storage tier)``.

        ``store=""`` / ``memory_budget=0`` defer to the engine defaults;
        a request that pins its own tier gets a distinct session (a
        segmented objective and a flat one are never interchangeable).
        """
        if dataset_name not in DATASETS:
            raise KeyError(
                f"unknown dataset {dataset_name!r}; "
                f"available: {sorted(DATASETS)}"
            )
        store = store or self.store
        budget = memory_budget or self.memory_budget
        key = (dataset_name, int(seed), store, budget)

        def build() -> SolverSession:
            return SolverSession(
                load_dataset(dataset_name, seed=seed),
                store=store,
                memory_budget=budget,
            )

        return self._sessions.get_or_create(key, build)

    def stats(self) -> dict[str, Any]:
        sessions = [
            self._sessions.peek(key).stats() for key in self._sessions.keys()
        ]
        return {
            "requests_served": self.requests_served,
            "coalesced_requests": self.coalesced_requests,
            "coalesced_runs": self.coalesced_runs,
            "exec_backend": self.exec_backend,
            # The construction-time knobs, so a sharded front-end (and
            # operators scraping a fanned-out ``stats``) can verify every
            # shard runs the same engine configuration.
            "config": {
                "workers": self.workers,
                "exec_backend": self.exec_backend,
                "store": self.store,
                "memory_budget": self.memory_budget,
            },
            "op_latency": self.latency.snapshot(),
            # Persistent worker-pool telemetry (module-level registry —
            # one pool per (backend, width) for the whole daemon).
            "pools": pool_stats(),
            "sessions": sessions,
            "session_registry": self._sessions.stats.as_dict(),
        }

    # -- dispatch ----------------------------------------------------------
    def handle(self, request: ServiceRequest) -> Response:
        """Process one request (no coalescing)."""
        self.requests_served += 1
        start = time.perf_counter()
        try:
            return self._dispatch(request)
        except Exception as exc:  # noqa: BLE001 — service boundary
            return Response(
                op=request.op, id=request.id, ok=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            self.latency.record(request.op, time.perf_counter() - start)

    def plan(self, requests: list[ServiceRequest]) -> list[list[int]]:
        """The order :meth:`handle_batch` runs a batch in, as units.

        A unit is a list of positions in ``requests`` that one engine
        call answers together: each coalesced group of two or more
        solves (in order of first appearance) comes first, then every
        other position alone, in order. A batch may mix wire versions (a
        v1 flat solve and a v2 typed one coalesce together): the decoder
        hands over both as typed payloads, so the group key never
        depends on how the request arrived.
        """
        groups: dict[tuple, list[int]] = {}
        for pos, request in enumerate(requests):
            key = coalesce_key(request, self.workers)
            if key is not None:
                groups.setdefault(key, []).append(pos)
        units = [positions for positions in groups.values() if len(positions) > 1]
        grouped = {pos for positions in units for pos in positions}
        return units + [
            [pos] for pos in range(len(requests)) if pos not in grouped
        ]

    def handle_batch(self, requests: list[ServiceRequest]) -> list[Response]:
        """Process concurrent requests, coalescing compatible solves.

        Runs the units of :meth:`plan` in order; the responses come back
        in request order.
        """
        responses: list[Optional[Response]] = [None] * len(requests)
        for unit in self.plan(requests):
            members = [requests[pos] for pos in unit]
            answers = (
                self._handle_group(members) if len(members) > 1
                else [self.handle(members[0])]
            )
            for pos, response in zip(unit, answers):
                responses[pos] = response
        return responses

    def _handle_group(self, requests: list[ServiceRequest]) -> list[Response]:
        """One coalesced group: a shared run, counted and timed as one."""
        start = time.perf_counter()
        try:
            responses = self._solve_coalesced(requests)
        except Exception as exc:  # noqa: BLE001 — service boundary
            responses = [
                Response(
                    op="solve", id=request.id, ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
                for request in requests
            ]
        self.latency.record("solve", time.perf_counter() - start)
        self.requests_served += len(requests)
        self.coalesced_requests += len(requests)
        self.coalesced_runs += 1
        return responses

    def _dispatch(self, request: ServiceRequest) -> Response:
        op = request.op
        if op == "solve":
            return self._op_solve(request)
        if op == "evaluate":
            return self._op_evaluate(request)
        if op == "update":
            return self._op_update(request)
        if op == "sweep":
            return self._op_sweep(request)
        if op == "pareto":
            return self._op_pareto(request)
        if op == "stats":
            return Response(op=op, id=request.id, result=self.stats())
        if op == "shutdown":
            # The daemon loop terminates after sending this ack.
            return Response(op=op, id=request.id, result={"stopping": True})
        raise ValueError(f"unhandled op {op!r}")

    # -- ops ---------------------------------------------------------------
    def _session_for(
        self, request: ServiceRequest
    ) -> tuple[SolverSession, bool]:
        """Resolve the request's session plus whether it already existed."""
        hits_before = self._sessions.stats.hits
        session = self.session(
            request.dataset, request.seed,
            store=request.store, memory_budget=request.memory_budget,
        )
        return session, self._sessions.stats.hits > hits_before

    def _workers(self, request: ServiceRequest) -> Optional[int]:
        """The request's worker width, defaulting to the engine's.

        Resolved once per request and passed to every sampling call, so
        one engine draws one collection per dataset configuration, not
        one per op.
        """
        return request.workers if request.workers is not None else self.workers

    class _WarmProbe:
        """Measure whether an op actually reused paid-for state.

        ``warm`` is true only when the session pre-existed, the op
        scored at least one hit on the watched caches while it ran, *and*
        it caused no objective-cache miss — a solve that triggers a fresh
        sampling pass (say, a new ``im_samples``) reports cold even on a
        warm session, and so does a sweep whose later rows hit the
        evaluation entries its own fresh sample just built.
        """

        def __init__(
            self, session: SolverSession, reused: bool, *caches
        ) -> None:
            self._session = session
            self._reused = reused
            self._caches = caches
            self._before = [cache.stats.hits for cache in caches]
            self._misses = session.objective_cache.stats.misses

        @property
        def warm(self) -> bool:
            if not self._reused:
                return False
            if self._session.dataset.kind != "influence":
                return True
            if self._session.objective_cache.stats.misses > self._misses:
                return False
            return any(
                cache.stats.hits > before
                for cache, before in zip(self._caches, self._before)
            )

    def _result_payload(self, result: SolverResult) -> dict[str, Any]:
        extra = {
            key: value
            for key, value in result.extra.items()
            if isinstance(value, (bool, int, float, str))
        }
        return {
            "algorithm": result.algorithm,
            "solution": [int(v) for v in result.solution],
            "size": result.size,
            "utility": float(result.utility),
            "fairness": float(result.fairness),
            "group_values": [float(v) for v in result.group_values],
            "oracle_calls": int(result.oracle_calls),
            "runtime": float(result.runtime),
            "feasible": bool(result.feasible),
            "extra": extra,
        }

    def _op_solve(self, request: ServiceRequest) -> Response:
        session, reused = self._session_for(request)
        workers = self._workers(request)
        probe = self._WarmProbe(session, reused, session.objective_cache)
        result = session.solve(
            request.algorithm, request.k, request.tau,
            im_samples=request.im_samples,
            sample_seed=request.seed,
            workers=workers,
        )
        payload = self._result_payload(result)
        if (
            session.dataset.kind == "influence"
            and request.mc_simulations > 0
        ):
            f_val, g_val = session.evaluate_mc(
                result.solution,
                mc_simulations=request.mc_simulations,
                mc_seed=request.seed,
                workers=workers,
            )
            payload["mc_utility"] = f_val
            payload["mc_fairness"] = g_val
        return Response(
            op="solve", id=request.id, warm=probe.warm,
            result=payload, cache=session.stats(),
        )

    def _op_evaluate(self, request: ServiceRequest) -> Response:
        session, reused = self._session_for(request)
        probe = self._WarmProbe(
            session, reused,
            session.objective_cache, session.evaluation_cache,
        )
        f_val, g_val = session.evaluate(
            request.items,
            im_samples=request.im_samples,
            sample_seed=request.seed,
            mc_simulations=request.mc_simulations,
            workers=self._workers(request),
        )
        return Response(
            op="evaluate", id=request.id, warm=probe.warm,
            result={
                "items": list(request.items),
                "utility": f_val,
                "fairness": g_val,
            },
            cache=session.stats(),
        )

    def _op_update(self, request: ServiceRequest) -> Response:
        session, reused = self._session_for(request)
        # Graph mutations land before the maximizer is fetched, so the
        # fetch repairs the warm objective against the batch's collapsed
        # delta in one pass.
        edges_applied = session.apply_edge_events(request.edge_events)
        repairs_before = session.repairs
        # A warm update is one whose live maximizer already existed.
        hits_before = session.dynamic_cache.stats.hits
        maximizer = session.dynamic(
            request.k,
            im_samples=request.im_samples,
            sample_seed=request.seed,
            # ``update`` carries no width of its own: the engine's.
            workers=self.workers,
        )
        warm = reused and session.dynamic_cache.stats.hits > hits_before
        # `repaired` reports whether this update landed on warm sampled
        # state (delta-repaired in place). False means the session (or
        # its maximizer) was cold or evicted mid-request and the update
        # paid a fresh build instead — callers budgeting a live edge
        # stream need to see the difference, not a blanket success.
        repaired = warm and (
            session.dataset.kind != "influence"
            or edges_applied == 0
            or session.repairs > repairs_before
        )
        counts = maximizer.process_events(request.events)
        state = maximizer.best()
        return Response(
            op="update", id=request.id, warm=warm,
            result={
                "solution": [int(v) for v in state.solution],
                "value": maximizer.value(),
                "live_items": len(maximizer.live_items),
                "edges_applied": edges_applied,
                "repaired": repaired,
                **counts,
            },
            cache=session.stats(),
        )

    def _sweep(
        self,
        request: ServiceRequest,
        parameter: str,
        values: list[float],
        algorithms: tuple[str, ...],
    ) -> tuple[SolverSession, Any, bool]:
        """Run a harness sweep on the request's session.

        The sweep samples and scores through the session with seeds it
        derives from the request seed, so it is warm, as a solve is, when
        it reused a collection or an evaluation bundle. Returns the
        session, the sweep and that flag.
        """
        from repro.experiments.harness import sweep_k, sweep_tau

        session, reused = self._session_for(request)
        probe = self._WarmProbe(
            session, reused,
            session.objective_cache, session.evaluation_cache,
        )
        kwargs: dict[str, Any] = {
            "im_samples": request.im_samples,
            "mc_simulations": request.mc_simulations,
            "seed": request.seed,
            "workers": self._workers(request),
            "session": session,
        }
        if algorithms:
            kwargs["algorithms"] = list(algorithms)
        if parameter == "tau":
            sweep = sweep_tau(session.dataset, request.k, values, **kwargs)
        else:
            sweep = sweep_k(
                session.dataset, [int(v) for v in values], request.tau,
                **kwargs,
            )
        return session, sweep, probe.warm

    def _op_sweep(self, request: ServiceRequest) -> Response:
        if request.parameter == "tau":
            default = (0.1, 0.3, 0.5, 0.7, 0.9)
        else:
            default = (2.0, 5.0, 10.0)
        session, sweep, warm = self._sweep(
            request, request.parameter, list(request.values or default),
            request.algorithms,
        )
        rows = [
            {
                "algorithm": row.algorithm,
                "parameter": row.parameter,
                "value": row.value,
                "utility": row.utility,
                "fairness": row.fairness,
                "runtime": row.runtime,
                "oracle_calls": row.oracle_calls,
                "solution_size": row.solution_size,
                "feasible": row.feasible,
            }
            for row in sweep.rows
        ]
        return Response(
            op="sweep", id=request.id, warm=warm,
            result={
                "dataset": sweep.dataset,
                "parameter": sweep.parameter,
                "rows": rows,
                "references": {
                    key: float(value)
                    for key, value in sweep.references.items()
                },
            },
            cache=session.stats(),
        )

    def _op_pareto(self, request: ServiceRequest) -> Response:
        from repro.experiments.pareto import hypervolume, pareto_frontier

        algorithms = request.algorithms or ("BSM-TSGreedy", "BSM-Saturate")
        taus = list(request.values) or [0.1, 0.3, 0.5, 0.7, 0.9]
        session, sweep, warm = self._sweep(request, "tau", taus, algorithms)
        frontiers: dict[str, Any] = {}
        for algorithm in algorithms:
            frontier = pareto_frontier(sweep, algorithm)
            frontiers[algorithm] = {
                "hypervolume": float(hypervolume(frontier)),
                "points": [
                    {
                        "tau": point.tau,
                        "utility": point.utility,
                        "fairness": point.fairness,
                    }
                    for point in frontier
                ],
            }
        return Response(
            op="pareto", id=request.id, warm=warm,
            result={"dataset": session.dataset.name, "frontiers": frontiers},
            cache=session.stats(),
        )

    # -- coalescing --------------------------------------------------------
    def _solve_coalesced(self, requests: list[ServiceRequest]) -> list[Response]:
        """One shared greedy run serving every request in the group.

        All requests share (algorithm, dataset, seed, im_samples,
        workers) by construction; only ``k`` (and the greedy-inert
        ``tau``) differ. The shared greedy run at ``k_max`` yields every
        smaller solve as a step prefix.
        """
        from repro.core.baselines import greedy_utility

        head = requests[0]
        session, reused = self._session_for(head)
        probe = self._WarmProbe(session, reused, session.objective_cache)
        workers = self._workers(head)
        objective = session.objective(
            im_samples=head.im_samples, sample_seed=head.seed,
            workers=workers,
        )
        # Validate each member through BSMProblem: an over-budget member
        # fails alone, exactly as its sequential solve would, without
        # poisoning the shared run.
        rejected: dict[int, Response] = {}
        admitted: list[ServiceRequest] = []
        for request in requests:
            try:
                BSMProblem(objective, k=request.k)
            except ValueError as exc:
                rejected[id(request)] = Response(
                    op="solve", id=request.id, ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                admitted.append(request)
        if not admitted:
            return [rejected[id(request)] for request in requests]
        k_max = max(request.k for request in admitted)
        timer = Timer()
        with timer:
            shared = greedy_utility(objective, k_max)
        responses: list[Response] = []
        for request in requests:
            if id(request) in rejected:
                responses.append(rejected[id(request)])
                continue
            if request.k == k_max:
                result = shared
            else:
                result = self._prefix_result(
                    objective, shared, request.k
                )
            payload = self._result_payload(result)
            payload["runtime"] = timer.elapsed
            payload["extra"]["coalesced"] = True
            payload["extra"]["coalesced_width"] = len(admitted)
            if (
                session.dataset.kind == "influence"
                and request.mc_simulations > 0
            ):
                f_val, g_val = session.evaluate_mc(
                    result.solution,
                    mc_simulations=request.mc_simulations,
                    mc_seed=request.seed,
                    workers=workers,
                )
                payload["mc_utility"] = f_val
                payload["mc_fairness"] = g_val
            responses.append(
                Response(
                    op="solve", id=request.id, warm=probe.warm,
                    result=payload, cache=session.stats(),
                )
            )
        return responses

    def _prefix_result(
        self,
        objective: Any,
        shared: SolverResult,
        k: int,
    ) -> SolverResult:
        """Reconstruct the budget-``k`` solve from the shared run's prefix.

        Replaying the first ``k`` accepted items in selection order
        re-applies the same incremental ``group_values`` additions the
        smaller run would have performed, so the reconstructed state is
        bitwise-identical to it.
        """
        state = objective.state_of(shared.solution[:k])
        return make_result(
            shared.algorithm,
            objective,
            state,
            runtime=shared.runtime,
            oracle_calls=shared.oracle_calls,
            steps=list(shared.steps[:k]),
        )
