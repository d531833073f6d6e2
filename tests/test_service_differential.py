"""Differential net: the TCP tier answers like one engine replaying the
requests in arrival order.

Hypothesis draws scripts of single and array lines over two
connections: greedy pairs sent back to back (so they coalesce), lone
greedy and ``bsm-tsgreedy`` solves, ``evaluate``, ``update`` with
``edge_events``, one-tau ``sweep`` requests on the influence dataset,
and ``stats``. Every line is sent without waiting for
earlier answers, so batches mix lines of both connections; the next line
goes out once the server has read the previous one, which fixes the
arrival order. Each data answer must equal a fresh in-process
:class:`~repro.service.engine.ServiceEngine`'s answer to the same
request replayed in that order, compared after ``perfbench``'s
``normalize`` strips the runtime fields (and each sweep row its own
``runtime``). ``stats`` answers must be ``ok``
and carry the front-end's counter identity.

An engine batch runs each coalesced group before its other members
(:meth:`~repro.service.engine.ServiceEngine.plan`), so greedy solves
only target datasets that no request in the script mutates; ``update``
goes to the influence dataset, which sees no greedy solve. Every dataset
is warmed first, so that a coalesced pair and its replay agree on
``warm``.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.registry import load_dataset
from repro.service.engine import ServiceEngine
from repro.service.protocol import request_from_dict, response_to_dict
from repro.service.server import TCPServer
from repro.utils.parallel import fork_available

pytestmark = pytest.mark.slow

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_normalize():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module.normalize


normalize = _perfbench_normalize()

GREEDY_DATASETS = ("rand-mc-c2", "rand-fl-c2")  # one on each of 2 shards
IM_DATASET = "rand-im-c2"
IM_ARGS = {"dataset": IM_DATASET, "im_samples": 200}
ITEMS = st.lists(st.integers(0, 19), min_size=1, max_size=3, unique=True)


def _arcs(count=12):
    graph = load_dataset(IM_DATASET, seed=0).graph
    arcs = sorted(
        (u, int(v)) for u in range(graph.num_nodes) for v in graph.out_neighbors(u)
    )
    return arcs[:: max(1, len(arcs) // count)][:count]


ARCS = _arcs()


def _payload(op, **args):
    return {"schema": 2, "op": op, "args": args}


greedy = st.builds(
    lambda dataset, k: _payload("solve", dataset=dataset, algorithm="greedy", k=k),
    st.sampled_from(GREEDY_DATASETS),
    st.integers(2, 5),
)
bsm = st.builds(
    lambda args, k, tau: _payload(
        "solve", algorithm="bsm-tsgreedy", k=k, tau=tau, **args
    ),
    st.sampled_from(
        [{"dataset": dataset} for dataset in GREEDY_DATASETS] + [IM_ARGS]
    ),
    st.integers(2, 4),
    st.sampled_from([0.5, 0.8]),
)
evaluate = st.builds(
    lambda args, items: _payload("evaluate", items=items, **args),
    st.sampled_from(
        [{"dataset": dataset} for dataset in GREEDY_DATASETS] + [IM_ARGS]
    ),
    ITEMS,
)
update = st.builds(
    lambda items, arcs, probability: _payload(
        "update",
        k=3,
        events=[["insert", item] for item in items],
        edge_events=[["set_probability", u, v, probability] for u, v in arcs],
        **IM_ARGS,
    ),
    ITEMS,
    st.lists(st.sampled_from(ARCS), min_size=1, max_size=3, unique=True),
    st.sampled_from([0.02, 0.1, 0.3]),
)
sweep = st.builds(
    lambda k, tau: _payload(
        "sweep",
        k=k,
        values=[tau],
        algorithms=["Greedy", "BSM-TSGreedy"],
        mc_simulations=0,
        **IM_ARGS,
    ),
    st.integers(2, 4),
    st.sampled_from([0.5, 0.8]),
)
stats = st.just(_payload("stats"))
member = st.one_of(greedy, bsm, evaluate, update, sweep, stats)

#: A step is a list of lines, each ``(connection, members, as_array)``.
line = st.tuples(
    st.integers(0, 1), st.lists(member, min_size=1, max_size=3), st.booleans()
).map(lambda t: [(t[0], t[1], t[2] or len(t[1]) > 1)])
pair = st.builds(
    lambda dataset, ks: [
        (conn, [_payload("solve", dataset=dataset, algorithm="greedy", k=k)], False)
        for conn, k in enumerate(ks)
    ],
    st.sampled_from(GREEDY_DATASETS),
    st.lists(st.integers(2, 5), min_size=2, max_size=2),
)
script = st.lists(st.one_of(line, pair), min_size=2, max_size=8).map(
    lambda steps: [entry for step in steps for entry in step]
)

WARM_UP = [
    _payload("solve", dataset=dataset, algorithm="greedy", k=3)
    for dataset in GREEDY_DATASETS
] + [
    _payload("solve", algorithm="bsm-tsgreedy", k=3, tau=0.5, **IM_ARGS),
    _payload("update", k=3, events=[["insert", 0]], **IM_ARGS),
]


def _comparable(response):
    """``normalize``, and each sweep row without its own ``runtime``."""
    out = normalize(response)
    if "rows" in out["result"]:
        out["result"]["rows"] = [
            {key: value for key, value in row.items() if key != "runtime"}
            for row in out["result"]["rows"]
        ]
    return out


async def _serve(shards, warm_up, lines):
    """Answer ``warm_up`` one request at a time, then send ``lines`` in
    order over two connections; return every answer by id, the ids in
    arrival order and the pending count left."""
    server = TCPServer(None, port=0, shards=shards, engine_config={}, batch_window=0.05)
    await server.start()
    try:
        conns = [
            await asyncio.open_connection(server.host, server.port) for _ in range(2)
        ]
        answers = {}
        for payload in warm_up:
            conns[0][1].write((json.dumps(payload) + "\n").encode("utf-8"))
            answers[payload["id"]] = json.loads(await conns[0][0].readline())
        order = [payload["id"] for payload in warm_up]
        sent = [0, 0]
        where = {
            member["id"]: (conn, index, pos)
            for index, (conn, members, _) in enumerate(lines)
            for pos, member in enumerate(members)
        }
        for conn, members, as_array in lines:
            order.extend(member["id"] for member in members)
            body = members if as_array else members[0]
            expected = server.stats.lines_total + 1
            conns[conn][1].write((json.dumps(body) + "\n").encode("utf-8"))
            await conns[conn][1].drain()
            sent[conn] += len(members)
            while server.stats.lines_total < expected:
                await asyncio.sleep(0)
        for conn, ((reader, writer), count) in enumerate(zip(conns, sent)):
            previous = None
            for _ in range(count):
                answer = json.loads(await reader.readline())
                # Each answer comes back on its own connection, and a
                # line's answers come back together, in member order.
                line_conn, line, pos = where[answer["id"]]
                assert line_conn == conn, answer["id"]
                assert pos == 0 or previous == (line, pos - 1), answer["id"]
                previous = (line, pos)
                answers[answer["id"]] = answer
            writer.close()
        return answers, order, server._pending
    finally:
        await server.drain()


@pytest.mark.skipif(not fork_available(), reason="shard children must fork")
@pytest.mark.parametrize("shards", [1, 2])
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(steps=script)
def test_tcp_answers_equal_an_arrival_order_replay(shards, steps):
    warm_up = [dict(payload, id=f"w{index}") for index, payload in enumerate(WARM_UP)]
    lines = [
        (
            conn,
            [dict(payload, id=f"l{i}m{pos}") for pos, payload in enumerate(members)],
            as_array,
        )
        for i, (conn, members, as_array) in enumerate(steps)
    ]
    payloads = {payload["id"]: payload for payload in warm_up}
    payloads.update(
        (payload["id"], payload) for _, members, _ in lines for payload in members
    )

    answers, order, pending = asyncio.run(
        asyncio.wait_for(_serve(shards, warm_up, lines), 120.0)
    )

    assert pending == 0
    assert sorted(answers) == sorted(order)
    replay = ServiceEngine()
    for request_id in order:
        payload = payloads[request_id]
        answer = answers[request_id]
        if payload["op"] == "stats":
            assert answer["ok"], answer
            server = answer["result"]["server"]
            assert server["requests_total"] == (
                server["requests_admitted"]
                + server["requests_rejected"]
                + server["requests_invalid"]
            )
            continue
        expected = response_to_dict(replay.handle(request_from_dict(payload)))
        assert _comparable(answer) == _comparable(expected), request_id
