"""The three workloads: request schedules, warm-up, and answer checks.

Every schedule is a pure function of the ``--seed`` argument; the
server only ever sees the generated lines. Each workload also knows how
to compute the answers the server must give: the in-process
:class:`~repro.service.engine.ServiceEngine` on the same requests is
the reference, compared after stripping the fields that legitimately
differ (wall-clock ``runtime``, the shared-run ``oracle_calls`` and
``coalesced*`` markers of a coalesced greedy run, and the ``cache``
block).

Why each workload exists, and which layer metrics it is predicted to
move, is recorded in ``perfbench/PREDICTIONS.md``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Iterable

from client import Outcome, Req

#: The CLI's default engine, as ``repro serve`` builds it.
ENGINE_CONFIG = {
    "workers": None, "exec_backend": None, "max_sessions": 8,
    "store": "ram", "memory_budget": None,
}

CLI_DATASETS = (
    "rand-mc-c2", "rand-fl-c2", "rand-im-c2", "rec-latent-c2", "summ-blobs-c2",
)


def envelope(op: str, **args: Any) -> dict[str, Any]:
    return {"schema": 2, "op": op, "args": args}


def normalize(response: dict[str, Any]) -> dict[str, Any]:
    """A response minus the fields two correct answers may differ in."""
    out = {k: v for k, v in response.items() if k not in ("cache", "id")}
    result = dict(out.get("result") or {})
    result.pop("runtime", None)
    result.pop("oracle_calls", None)
    if isinstance(result.get("extra"), dict):
        extra = dict(result["extra"])
        extra.pop("coalesced", None)
        extra.pop("coalesced_width", None)
        result["extra"] = extra
    out["result"] = result
    return out


def reference_engine() -> Any:
    from repro.service.engine import ServiceEngine

    return ServiceEngine(**ENGINE_CONFIG)


def engine_answer(engine: Any, payload: dict[str, Any]) -> dict[str, Any]:
    from repro.service.protocol import request_from_dict, response_to_dict

    return response_to_dict(engine.handle(request_from_dict(payload)))


def answered_ok(outcome: Outcome) -> bool:
    return outcome.response is not None and bool(outcome.response.get("ok"))


@dataclass
class Workload:
    """Common shape: warm-up lines, then a timed schedule."""

    name: str = ""
    shards: int = 1
    #: Tail percentile reported as ``latency_tail_ms``, fixed per
    #: workload so it always has at least ten samples beyond it at the
    #: request counts this workload reaches.
    tail_q: float = 0.99
    open_loop: bool = False
    connections: int = 2

    def setup_requests(self) -> list[dict[str, Any]]:
        raise NotImplementedError

    def scripts(self, seed: int, seconds: float) -> list[list[Req]]:
        """Closed loop: one request list per connection."""
        raise NotImplementedError

    def schedule(self, seed: int, seconds: float) -> list[Req]:
        """Open loop: requests with due times."""
        raise NotImplementedError

    def check(self, outcomes: list[Outcome]) -> list[str]:
        """One message per answered request whose answer is wrong."""
        raise NotImplementedError


class _KeyedReference:
    """Reference answers of stateless requests, one engine call per key."""

    def __init__(self, warmup: Iterable[dict[str, Any]]) -> None:
        self.engine = reference_engine()
        for payload in warmup:
            engine_answer(self.engine, payload)
        self._cache: dict[str, dict[str, Any]] = {}

    def answer(self, payload: dict[str, Any]) -> dict[str, Any]:
        key = json.dumps({k: v for k, v in payload.items() if k != "id"},
                         sort_keys=True)
        if key not in self._cache:
            self._cache[key] = normalize(engine_answer(self.engine, payload))
        return self._cache[key]


def _check_keyed(
    outcomes: list[Outcome], warmup: list[dict[str, Any]]
) -> list[str]:
    reference = _KeyedReference(warmup)
    errors = []
    for outcome in outcomes:
        if not answered_ok(outcome):
            continue
        if normalize(outcome.response) != reference.answer(outcome.req.payload):
            errors.append(f"{outcome.req.rid}: answer differs from reference")
    return errors


# -- warm-mix -------------------------------------------------------------------
#: BSM algorithms run at this balance factor.
TAU = 0.5
#: BSM runs skip rand-mc-c2: one BSM-TSGreedy there costs ~0.35 s, more
#: than the rest of a cycle together, and would turn the mix into one
#: request type.
BSM_DATASETS = ("rand-fl-c2", "rand-im-c2", "rec-latent-c2", "summ-blobs-c2")
ITEM_POOL = 100  # every CLI dataset has at least this many items
#: Repeats per cycle of each cheap request (greedy off rand-mc-c2, and
#: evaluate per dataset). The two clients run in lock step (both
#: requests of a round share one micro-batch), so a request's latency is
#: the window plus both requests' work. With ~84% cheap requests both
#: are cheap in 70% of batches and the median falls inside that group,
#: not in the sparse gap between cheap greedy runs and BSM runs, where it
#: would swing with the seed's pairing.
CHEAP_REPEATS = 4


@dataclass
class WarmMix(Workload):
    """Two closed-loop clients on warm sessions of the five CLI datasets."""

    name: str = "warm-mix"
    # BSM runs are 13% of requests and the slowest, BSM-Saturate on
    # rand-im-c2, an eighth of them: p96 sits inside that group.
    tail_q: float = 0.96

    def _greedy(self) -> list[dict[str, Any]]:
        return [envelope("solve", dataset=dataset, algorithm="greedy", k=k)
                for dataset in CLI_DATASETS for k in (5, 10)]

    def _bsm(self) -> list[dict[str, Any]]:
        return [envelope("solve", dataset=dataset, algorithm=algorithm, k=5,
                         tau=TAU)
                for algorithm in ("bsm-tsgreedy", "bsm-saturate")
                for dataset in BSM_DATASETS]

    def setup_requests(self) -> list[dict[str, Any]]:
        warm = self._greedy() + self._bsm()
        for dataset in CLI_DATASETS:
            warm.append(envelope("evaluate", dataset=dataset, items=[0, 1, 2]))
        return warm

    def scripts(self, seed: int, seconds: float) -> list[list[Req]]:
        rng = random.Random(seed)
        greedy = self._greedy()
        cheap = [t for t in greedy if t["args"]["dataset"] != "rand-mc-c2"]
        fixed = greedy + cheap * (CHEAP_REPEATS - 1) + self._bsm()
        per_client = int(200 * seconds) + 50
        scripts = []
        for client in range(self.connections):
            script: list[Req] = []
            while len(script) < per_client:
                cycle = [dict(t, args=dict(t["args"])) for t in fixed]
                for dataset in CLI_DATASETS:
                    for _ in range(CHEAP_REPEATS):
                        items = sorted(rng.sample(range(ITEM_POOL), 3))
                        cycle.append(envelope("evaluate", dataset=dataset,
                                              items=items))
                rng.shuffle(cycle)
                for payload in cycle:
                    script.append(Req(f"t:{client}:{len(script)}", payload,
                                      conn=client))
            scripts.append(script)
        return scripts

    def check(self, outcomes: list[Outcome]) -> list[str]:
        return _check_keyed(outcomes, self.setup_requests())


# -- influence-churn ------------------------------------------------------------
#: (dataset, store) owned by each tenant.
TENANTS = (("facebook-im-c2", "ram"), ("dblp-im", "mmap"))
CHURN_SAMPLES = 2_000
EDGE_EVENTS_PER_UPDATE = 3
#: Items stay live for this many updates, then are deleted, so the
#: live set (and the per-update cost) does not grow over a run.
LIVE_WINDOW = 16
#: One solve in this many uses a never-reused seed: a new dataset
#: instance and a cold RR sampling pass.
COLD_EVERY = 10
COLD_SEED_BASE = 1_000_000


@dataclass
class InfluenceChurn(Workload):
    """Two tenants, each streaming updates into its own influence session."""

    name: str = "influence-churn"
    # The cold solves (one request in 30; both tenants' share a round
    # and so a batch) form the slowest 3%; p98 sits inside that group.
    tail_q: float = 0.98
    _warmup: list = field(default_factory=list, repr=False)

    def _tenant_args(self, tenant: int) -> dict[str, Any]:
        dataset, store = TENANTS[tenant]
        return {"dataset": dataset, "store": store,
                "im_samples": CHURN_SAMPLES}

    def _cycle(
        self, rng: random.Random, tenant: int, index: int, arcs: list,
        items: list[int], cold_seed: int | None,
    ) -> list[dict[str, Any]]:
        base = self._tenant_args(tenant)
        edge_events = []
        for u, v in rng.sample(arcs, EDGE_EVENTS_PER_UPDATE):
            edge_events.append(["set_probability", u, v,
                                round(rng.uniform(0.01, 0.2), 4)])
        events = [["insert", items[index % len(items)]]]
        if index >= LIVE_WINDOW:
            events.append(["delete", items[(index - LIVE_WINDOW) % len(items)]])
        solve = dict(base)
        if cold_seed is not None:
            solve["seed"] = cold_seed
        return [
            envelope("update", k=5, events=events, edge_events=edge_events,
                     **base),
            envelope("solve", algorithm="greedy", k=5, **solve),
            envelope("evaluate", items=sorted(rng.sample(items, 3)), **base),
        ]

    def _tenant_inputs(self, seed: int, tenant: int) -> tuple[list, list[int]]:
        from repro.datasets.registry import load_dataset

        graph = load_dataset(TENANTS[tenant][0], seed=0).graph
        rng = random.Random(seed * 7919 + tenant)
        arcs = sorted(
            (u, v) for u in range(graph.num_nodes)
            for v in graph.out_neighbors(u)
        )
        items = list(range(graph.num_nodes))
        rng.shuffle(items)
        return arcs, items

    def setup_requests(self) -> list[dict[str, Any]]:
        # The first update of a tenant builds its session and maximizer;
        # it cannot report a repair, so it runs before the window.
        if not self._warmup:
            for tenant in range(len(TENANTS)):
                arcs, items = self._tenant_inputs(0, tenant)
                self._warmup += self._cycle(random.Random(tenant), tenant, 0,
                                            arcs, items, None)
        return self._warmup

    def scripts(self, seed: int, seconds: float) -> list[list[Req]]:
        cycles = int(60 * seconds) + 20
        scripts = []
        for tenant in range(len(TENANTS)):
            arcs, items = self._tenant_inputs(seed, tenant)
            rng = random.Random(seed * 104729 + tenant)
            script: list[Req] = []
            for index in range(cycles):
                cold = None
                if index % COLD_EVERY == COLD_EVERY - 1:
                    cold = COLD_SEED_BASE + 2 * index + tenant
                for payload in self._cycle(rng, tenant, index + 1, arcs,
                                           items, cold):
                    script.append(Req(f"t:{tenant}:{len(script)}", payload,
                                      conn=tenant))
            scripts.append(script)
        return scripts

    def check(self, outcomes: list[Outcome]) -> list[str]:
        """Replay each tenant's answered requests in order, in process."""
        errors = []
        engine = reference_engine()
        warm = self.setup_requests()
        per_tenant = len(warm) // len(TENANTS)
        for tenant in range(len(TENANTS)):
            for payload in warm[tenant * per_tenant:(tenant + 1) * per_tenant]:
                engine_answer(engine, payload)
            for outcome in outcomes:
                if outcome.req.conn != tenant or outcome.response is None:
                    continue
                expected = normalize(engine_answer(engine, outcome.req.payload))
                if normalize(outcome.response) != expected:
                    errors.append(
                        f"{outcome.req.rid}: answer differs from replay"
                    )
                elif (outcome.req.op == "update"
                      and not outcome.response["result"].get("repaired")):
                    errors.append(f"{outcome.req.rid}: update did not repair")
        return errors


# -- fanin-sharded --------------------------------------------------------------
#: Two cheap datasets that crc32 routing puts on different shards of 2.
FANIN_DATASETS = ("rand-fl-c2", "summ-blobs-c2")
#: Arrival events per second; a solve event is two requests. At this
#: rate the next request is due as a 5 ms batch window closes, so the
#: server tree seldom idles: at 120 events/s it spent 15% more CPU time
#: per request, going to sleep and waking up, at the same latency.
FANIN_EVENT_RATE = 200.0
#: Cheap requests are ~83% of all, so the median sits well inside them.
#: With solve pairs at a quarter of the events, solves were 40% of the
#: requests, the median sat on the slow edge of the cheap ones and moved
#: by 20% from run to run.
FANIN_MIX = (("evaluate", 0.80), ("stats", 0.10), ("solve-pair", 0.10))


@dataclass
class FaninSharded(Workload):
    """Open-loop independent users against ``--shards 2``."""

    name: str = "fanin-sharded"
    shards: int = 2
    # The solves, ~17% of the requests, hold p90. Above it the open loop's
    # tail is the host's scheduling stalls: p99 moved by half its value
    # between runs of the same code.
    tail_q: float = 0.90
    open_loop: bool = True

    def setup_requests(self) -> list[dict[str, Any]]:
        warm = []
        for dataset in FANIN_DATASETS:
            for k in (2, 3, 4, 5):
                warm.append(envelope("solve", dataset=dataset,
                                     algorithm="greedy", k=k))
            warm.append(envelope("evaluate", dataset=dataset, items=[0, 1, 2]))
        warm.append(envelope("stats"))
        return warm

    def schedule(self, seed: int, seconds: float) -> list[Req]:
        rng = random.Random(seed)
        ops = [op for op, _ in FANIN_MIX]
        weights = [weight for _, weight in FANIN_MIX]
        schedule: list[Req] = []
        for event in range(int(FANIN_EVENT_RATE * seconds)):
            due = event / FANIN_EVENT_RATE
            op = rng.choices(ops, weights)[0]
            dataset = rng.choice(FANIN_DATASETS)
            if op == "solve-pair":
                # Both connections at once: the pair lands in one
                # micro-batch window and coalesces into one greedy run.
                for conn in range(self.connections):
                    payload = envelope("solve", dataset=dataset,
                                       algorithm="greedy",
                                       k=rng.choice((2, 3, 4, 5)))
                    schedule.append(Req(f"t:{len(schedule)}", payload,
                                        conn=conn, due=due))
                continue
            if op == "stats":
                payload = envelope("stats")
            else:
                payload = envelope("evaluate", dataset=dataset,
                                   items=sorted(rng.sample(range(ITEM_POOL), 3)))
            schedule.append(Req(f"t:{len(schedule)}", payload,
                                conn=event % self.connections, due=due))
        return schedule

    def check(self, outcomes: list[Outcome]) -> list[str]:
        # stats answers change with every request; they are checked for
        # shape only (both shards present), the rest against the engine.
        errors = _check_keyed(
            [o for o in outcomes if o.req.op != "stats"],
            self.setup_requests()[:-1],
        )
        for outcome in outcomes:
            if outcome.req.op == "stats" and answered_ok(outcome):
                result = outcome.response["result"]
                if (result.get("server", {}).get("shards") != self.shards
                        or len(result.get("shards", [])) != self.shards):
                    errors.append(f"{outcome.req.rid}: stats lost a shard")
        return errors


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (WarmMix(), InfluenceChurn(), FaninSharded())
}
