"""Property-based tests for the service protocol and cache primitives.

Hypothesis drives the JSON round-trip of the request/response schema
(every typed request survives ``decode(encode(.))`` exactly, and a flat
v1 request comes back as its typed lift) and the
byte-budget invariant of :class:`repro.utils.caching.BoundedCache`
under arbitrary operation sequences.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    EDGE_ACTIONS,
    OPS,
    SCHEMA_VERSION,
    TYPED_REQUESTS,
    UPDATE_ACTIONS,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    request_from_dict,
    request_to_dict,
)
from repro.utils.caching import BoundedCache

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
_ids = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\n\r"),
    max_size=12,
)
_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-0123456789", min_size=1, max_size=20
)
_floats = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


def requests() -> st.SearchStrategy[Request]:
    return st.builds(
        Request,
        op=st.sampled_from(OPS),
        id=_ids,
        dataset=_names,
        algorithm=_names,
        k=st.integers(min_value=1, max_value=10_000),
        tau=_floats,
        seed=st.integers(min_value=0, max_value=2**31),
        im_samples=st.integers(min_value=1, max_value=10**6),
        mc_simulations=st.integers(min_value=0, max_value=10**6),
        workers=st.one_of(
            st.none(), st.integers(min_value=-1, max_value=64)
        ),
        items=st.lists(
            st.integers(min_value=0, max_value=10**6), max_size=8
        ).map(tuple),
        events=st.lists(
            st.tuples(
                st.sampled_from(UPDATE_ACTIONS),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=8,
        ).map(tuple),
        edge_events=st.lists(
            st.tuples(
                st.sampled_from(EDGE_ACTIONS),
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=10**6),
                _floats,
            ),
            max_size=8,
        ).map(tuple),
        store=st.sampled_from(("", "ram", "mmap")),
        memory_budget=st.integers(min_value=0, max_value=2**40),
        parameter=st.sampled_from(("tau", "k")),
        values=st.lists(
            st.floats(
                min_value=0.0, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=8,
        ).map(tuple),
        algorithms=st.lists(_names, max_size=4).map(tuple),
    )


def typed_requests():
    """v2 per-op payloads, via the lift (dataset is always non-empty
    here, so every generated payload is decode-valid under v2's
    required-field rule)."""
    return requests().map(lambda request: request.typed())


def responses() -> st.SearchStrategy[Response]:
    scalars = st.one_of(
        st.booleans(),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.floats(allow_nan=False, allow_infinity=False),
        _names,
    )
    payloads = st.dictionaries(_names, scalars, max_size=6)
    return st.builds(
        Response,
        op=st.sampled_from(OPS),
        id=_ids,
        ok=st.booleans(),
        error=_ids,
        warm=st.booleans(),
        result=payloads,
        cache=payloads,
    )


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------
@given(requests())
@settings(max_examples=200)
def test_request_round_trip(request: Request) -> None:
    # The decoder lifts v1 to the per-op payload: a flat request comes
    # back as exactly its lift.
    assert decode_request(encode_request(request)) == request.typed()


@given(requests())
def test_request_encoding_is_single_json_line(request: Request) -> None:
    line = encode_request(request)
    assert "\n" not in line
    json.loads(line)  # valid JSON


@given(responses())
@settings(max_examples=200)
def test_response_round_trip(response: Response) -> None:
    assert decode_response(encode_response(response)) == response


@given(requests())
def test_round_trip_is_idempotent(request: Request) -> None:
    # A v1 line and its v2 re-encode describe the same request: both
    # decode to the same typed payload, and the v2 line is a fixed point.
    decoded = decode_request(encode_request(request))
    v2_line = encode_request(decoded)
    assert decode_request(v2_line) == decoded
    assert encode_request(decode_request(v2_line)) == v2_line


@given(typed_requests())
@settings(max_examples=200)
def test_typed_request_round_trip(request) -> None:
    assert decode_request(encode_request(request)) == request


@given(typed_requests())
def test_typed_requests_encode_as_v2_envelope(request) -> None:
    line = encode_request(request)
    assert "\n" not in line
    payload = json.loads(line)
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["op"] == request.op
    assert set(payload) <= {"schema", "op", "id", "args"}
    assert "id" not in payload["args"]


@given(requests())
def test_lift_commutes_with_the_wire(request: Request) -> None:
    # Lifting then round-tripping equals round-tripping alone, since the
    # decoder lifts: v1 clients and v2 clients describe the same op
    # identically.
    lifted = request.typed()
    assert lifted.op == request.op
    assert decode_request(encode_request(lifted)) == lifted
    assert decode_request(encode_request(request)) == lifted


@given(requests())
def test_schema_1_is_the_flat_request_spelled_out(request: Request) -> None:
    payload = request_to_dict(request)
    assert request_from_dict(payload) == request.typed()
    payload["schema"] = 1
    assert request_from_dict(payload) == request.typed()


# ---------------------------------------------------------------------------
# Validation rejections
# ---------------------------------------------------------------------------
@given(st.text(max_size=30))
def test_garbage_never_crashes_decoder(text: str) -> None:
    try:
        decoded = decode_request(text)
    except ProtocolError:
        return
    assert isinstance(decoded, (Request, *TYPED_REQUESTS))


@pytest.mark.parametrize(
    "payload",
    [
        {"op": "teleport"},
        {"op": "solve", "k": 0},
        {"op": "solve", "tau": 1.5},
        {"op": "solve", "im_samples": 0},
        {"op": "solve", "mc_simulations": -1},
        {"op": "solve", "parameter": "epsilon"},
        {"op": "solve", "bogus_field": 1},
        {"op": "update", "events": [["explode", 3]]},
        {"op": "update", "events": [["insert"]]},
        {"op": "update", "edge_events": [["melt", 0, 1, 0.5]]},
        {"op": "update", "edge_events": [["add_edge", 0, 1]]},
        {"op": "update", "edge_events": [["add_edge", 0, 1, 1.5]]},
        {"op": "update", "edge_events": [["add_edge", 0.5, 1, 0.5]]},
        {"op": "solve", "k": True},
        {"op": "solve", "workers": "many"},
        ["not", "an", "object"],
    ],
)
def test_invalid_payloads_rejected(payload) -> None:
    with pytest.raises(ProtocolError):
        request_from_dict(payload)


@pytest.mark.parametrize(
    "payload",
    [
        # Unsupported / malformed schema markers.
        {"schema": 3, "op": "stats"},
        {"schema": "2", "op": "stats"},
        {"schema": True, "op": "stats"},
        # Envelope shape violations.
        {"schema": 2},
        {"schema": 2, "op": "teleport"},
        {"schema": 2, "op": "stats", "id": 7},
        {"schema": 2, "op": "stats", "args": ["not", "an", "object"]},
        {"schema": 2, "op": "stats", "extra": 1},
        # Per-op unknown args (v1 accepted any field on any op).
        {"schema": 2, "op": "stats", "args": {"dataset": "d"}},
        {"schema": 2, "op": "solve", "args": {"dataset": "d", "events": []}},
        {"schema": 2, "op": "update", "args": {"dataset": "d", "tau": 0.5}},
        # Required fields now fail at decode time.
        {"schema": 2, "op": "solve", "args": {"k": 2}},
        {"schema": 2, "op": "solve", "args": {"dataset": ""}},
        # Field validation still applies inside args.
        {"schema": 2, "op": "solve", "args": {"dataset": "d", "k": 0}},
        {"schema": 2, "op": "solve", "args": {"dataset": "d", "tau": 1.5}},
    ],
)
def test_invalid_v2_payloads_rejected(payload) -> None:
    with pytest.raises(ProtocolError):
        request_from_dict(payload)


def test_v2_rejection_messages_name_the_op() -> None:
    with pytest.raises(ProtocolError, match="unknown stats fields"):
        request_from_dict(
            {"schema": 2, "op": "stats", "args": {"dataset": "d"}}
        )
    with pytest.raises(ProtocolError, match="solve requires a non-empty"):
        request_from_dict({"schema": 2, "op": "solve", "args": {}})


# ---------------------------------------------------------------------------
# BoundedCache invariants
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),  # key
            st.integers(min_value=0, max_value=80),  # value size
            st.booleans(),  # get vs put
        ),
        max_size=60,
    ),
    st.integers(min_value=1, max_value=120),  # budget
)
@settings(max_examples=200)
def test_bounded_cache_never_exceeds_budget(ops, budget) -> None:
    cache = BoundedCache(budget, sizeof=len)
    for key, size, is_get in ops:
        if is_get:
            cache.get(key)
        else:
            cache.put(key, b"x" * size)
        stats = cache.stats
        assert stats.current_bytes <= budget
        assert stats.entries == len(cache)
        # Accounting matches reality exactly.
        assert stats.current_bytes == sum(
            len(cache.peek(k)) for k in cache.keys()
        )
