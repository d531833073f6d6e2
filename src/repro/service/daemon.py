"""The ``repro serve`` loop: JSON-lines over stdin/stdout.

One request per line (a JSON object), or a JSON array per line for a
concurrent batch that the engine may coalesce. Responses are emitted in
request order, one JSON line each, flushed after every input line so a
driving process can pipeline synchronously.

The loop is transport-agnostic (any readable/writable text streams), so
tests drive it with ``io.StringIO`` and the CLI passes the real stdio.
A ``{"op": "shutdown"}`` request is acknowledged and terminates the
loop; EOF terminates it silently. A batch line mixing ``shutdown``
with other ops answers *every* member, in member order, before the
loop exits — clients never lose a response to a shutdown racing their
work (pinned by ``tests/test_server.py``). Malformed lines produce an
``ok: false`` error response and never kill the daemon.

The loop is single-transport; the asyncio TCP front-end
(:mod:`repro.service.server`) speaks the same wire format over many
concurrent connections.
"""

from __future__ import annotations

import json
from typing import IO, Optional

from repro.service.engine import ServiceEngine
from repro.service.protocol import (
    ProtocolError,
    Response,
    ServiceRequest,
    encode_response,
    request_from_dict,
)


def error_response(message: str, member: object = None) -> Response:
    # Surface the member's id when the malformed payload still carries
    # one, so clients can correlate the failure to their request.
    member_id = ""
    if isinstance(member, dict) and isinstance(member.get("id"), str):
        member_id = member["id"]
    return Response(op="error", id=member_id, ok=False, error=message)


def serve_forever(
    input_stream: IO[str],
    output_stream: IO[str],
    *,
    engine: Optional[ServiceEngine] = None,
) -> int:
    """Serve requests until shutdown or EOF; returns the exit status."""
    engine = engine or ServiceEngine()
    for line in input_stream:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            _emit(output_stream, [error_response(f"invalid JSON: {exc}")])
            continue
        batch = payload if isinstance(payload, list) else [payload]
        # One response slot per member, filled in member order: parse
        # failures keep their position (and id, when present) so clients
        # can pair responses positionally or by id.
        slots: list[Optional[Response]] = [None] * len(batch)
        positioned: list[tuple[int, ServiceRequest]] = []
        for pos, member in enumerate(batch):
            try:
                positioned.append((pos, request_from_dict(member)))
            except ProtocolError as exc:
                slots[pos] = error_response(str(exc), member)
        requests = [request for _, request in positioned]
        responses = engine.handle_batch(requests) if requests else []
        for (pos, _), response in zip(positioned, responses):
            slots[pos] = response
        _emit(output_stream, [slot for slot in slots if slot is not None])
        if any(request.op == "shutdown" for request in requests):
            return 0
    return 0


def _emit(output_stream: IO[str], responses: list[Response]) -> None:
    for response in responses:
        output_stream.write(encode_response(response) + "\n")
    output_stream.flush()
