"""Typed request/response schema of the solver service (JSON lines).

One request or response per line. A request is a JSON object; a JSON
*array* of requests is a concurrent batch — the engine may coalesce
compatible ``solve`` members into one shared run (see
:meth:`repro.service.engine.ServiceEngine.handle_batch`).

Two wire versions are spoken side by side:

* **v1 (flat)** — a single object whose fields are drawn from the
  historical flat :class:`Request` dataclass. Any object *without* a
  ``"schema"`` key decodes this way, with semantics (defaults,
  validation, error text) unchanged since PR 5 — existing clients and
  the stdio daemon's byte-for-byte response contract are untouched.
* **v2 (envelope)** — ``{"schema": 2, "op": ..., "id": ..., "args":
  {...}}``. Each op has its own typed payload class carrying only the
  fields that op reads, unknown args are rejected *per op* (v1 accepted
  any field on any op), and required fields (a non-empty ``dataset`` for
  the data ops) are validated at decode time instead of surfacing as an
  engine error.

Whatever the version, :func:`request_from_dict` returns the per-op typed
payload (a :data:`ServiceRequest`), so one request shape exists past the
decoder. A v1 object is validated field by field as v1 always was, then
lifted with :meth:`Request.typed`; fields the op never reads are
dropped in the lift (v1 ignored them too). :class:`Request` itself is
the v1 *builder*: :func:`encode_request` writes it as v1 bytes, and
``decode_request(encode_request(r)) == r.typed()``, while typed payloads
round-trip exactly (property-tested with hypothesis in
``tests/test_properties_service.py``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, ClassVar, Optional, Union

SCHEMA_VERSION = 2

#: Operations the engine understands. ``shutdown`` is handled by the
#: daemon loop (the engine answers it with an ack so one-shot use works).
OPS = (
    "solve",
    "sweep",
    "evaluate",
    "update",
    "pareto",
    "stats",
    "shutdown",
)

#: Event actions accepted by the ``update`` op.
UPDATE_ACTIONS = ("insert", "delete")

#: Graph-mutation actions accepted by the ``update`` op's
#: ``edge_events`` field (influence datasets; warm sessions repair in
#: place instead of resampling).
EDGE_ACTIONS = ("add_edge", "set_probability")


class ProtocolError(ValueError):
    """Malformed or type-invalid request/response payload."""


@dataclass(frozen=True)
class Request:
    """One flat v1 service request: the v1 wire builder.

    Only ``op`` is universally meaningful; the other fields matter per
    op (``solve`` reads ``dataset``/``algorithm``/``k``/``tau``,
    ``evaluate`` reads ``items``, ``update`` reads ``events``, the sweep
    ops read ``parameter``/``values``/``algorithms``). Unused fields
    keep their defaults and are ignored by the engine.
    :func:`encode_request` writes it as a v1 line; the decoder lifts
    what it reads back into the per-op payload with :meth:`typed`.
    """

    op: str
    id: str = ""
    dataset: str = ""
    algorithm: str = "greedy"
    k: int = 5
    tau: float = 0.0
    seed: int = 0
    im_samples: int = 2_000
    mc_simulations: int = 0
    workers: Optional[int] = None
    items: tuple[int, ...] = ()
    events: tuple[tuple[str, int], ...] = ()
    edge_events: tuple[tuple[str, int, int, float], ...] = ()
    parameter: str = "tau"
    values: tuple[float, ...] = ()
    algorithms: tuple[str, ...] = ()
    #: Storage tier of the warm objective: ``""`` defers to the engine
    #: default, ``"ram"`` forces flat in-memory arrays, ``"mmap"`` the
    #: segmented out-of-core store.
    store: str = ""
    #: Resident-byte budget for ``store="mmap"`` (0 = engine default).
    memory_budget: int = 0

    def typed(self) -> "ServiceRequest":
        """Lift this flat request into its per-op typed payload.

        Fields the op never reads are dropped — exactly the fields v1
        silently ignored — so the lift loses no observable behaviour.
        """
        cls = REQUEST_TYPES[self.op]
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})


@dataclass(frozen=True)
class SolveRequest:
    """``solve`` — run one algorithm on one dataset's warm session."""

    op: ClassVar[str] = "solve"
    id: str = ""
    dataset: str = ""
    algorithm: str = "greedy"
    k: int = 5
    tau: float = 0.0
    seed: int = 0
    im_samples: int = 2_000
    mc_simulations: int = 0
    workers: Optional[int] = None
    store: str = ""
    memory_budget: int = 0


@dataclass(frozen=True)
class EvaluateRequest:
    """``evaluate`` — score a fixed item set on the warm objective."""

    op: ClassVar[str] = "evaluate"
    id: str = ""
    dataset: str = ""
    items: tuple[int, ...] = ()
    seed: int = 0
    im_samples: int = 2_000
    mc_simulations: int = 0
    workers: Optional[int] = None
    store: str = ""
    memory_budget: int = 0


@dataclass(frozen=True)
class UpdateRequest:
    """``update`` — stream item/edge events through the live maximizer."""

    op: ClassVar[str] = "update"
    id: str = ""
    dataset: str = ""
    k: int = 5
    events: tuple[tuple[str, int], ...] = ()
    edge_events: tuple[tuple[str, int, int, float], ...] = ()
    seed: int = 0
    im_samples: int = 2_000
    store: str = ""
    memory_budget: int = 0


@dataclass(frozen=True)
class SweepRequest:
    """``sweep`` — a tau or k sweep through the shared harness."""

    op: ClassVar[str] = "sweep"
    id: str = ""
    dataset: str = ""
    parameter: str = "tau"
    values: tuple[float, ...] = ()
    algorithms: tuple[str, ...] = ()
    k: int = 5
    tau: float = 0.0
    seed: int = 0
    im_samples: int = 2_000
    mc_simulations: int = 0
    workers: Optional[int] = None
    store: str = ""
    memory_budget: int = 0


@dataclass(frozen=True)
class ParetoRequest:
    """``pareto`` — utility/fairness frontier of a tau sweep."""

    op: ClassVar[str] = "pareto"
    id: str = ""
    dataset: str = ""
    values: tuple[float, ...] = ()
    algorithms: tuple[str, ...] = ()
    k: int = 5
    seed: int = 0
    im_samples: int = 2_000
    mc_simulations: int = 0
    workers: Optional[int] = None
    store: str = ""
    memory_budget: int = 0


@dataclass(frozen=True)
class StatsRequest:
    """``stats`` — engine/session/pool/server telemetry."""

    op: ClassVar[str] = "stats"
    id: str = ""


@dataclass(frozen=True)
class ShutdownRequest:
    """``shutdown`` — ack then terminate the serving loop."""

    op: ClassVar[str] = "shutdown"
    id: str = ""


TYPED_REQUESTS = (
    SolveRequest,
    EvaluateRequest,
    UpdateRequest,
    SweepRequest,
    ParetoRequest,
    StatsRequest,
    ShutdownRequest,
)

#: op name -> per-op payload class (the v2 decode + lift table).
REQUEST_TYPES: dict[str, type] = {cls.op: cls for cls in TYPED_REQUESTS}

ServiceRequest = Union[
    SolveRequest,
    EvaluateRequest,
    UpdateRequest,
    SweepRequest,
    ParetoRequest,
    StatsRequest,
    ShutdownRequest,
]


@dataclass(frozen=True)
class Response:
    """One service response (paired to the request by ``id``)."""

    op: str
    id: str = ""
    ok: bool = True
    error: str = ""
    warm: bool = False
    result: dict[str, Any] = field(default_factory=dict)
    cache: dict[str, Any] = field(default_factory=dict)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


# -- field validation (shared by both schema versions) ----------------------

_STRING_FIELDS = ("id", "dataset", "algorithm", "parameter", "store")
_INT_FIELDS = ("k", "seed", "im_samples", "mc_simulations", "memory_budget")

#: Validation order. v1 checked fields grouped by type, not payload
#: order; keeping that order keeps error text deterministic (and
#: byte-identical for v1 requests with several invalid fields).
_FIELD_ORDER = (
    *_STRING_FIELDS,
    *_INT_FIELDS,
    "tau",
    "workers",
    "items",
    "events",
    "edge_events",
    "values",
    "algorithms",
)


def _validate_field(name: str, value: Any) -> Any:
    """Type-check and normalise one request field (tuples from lists)."""
    if name in _STRING_FIELDS:
        _require(isinstance(value, str), f"{name} must be a string")
        return value
    if name in _INT_FIELDS:
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            f"{name} must be an integer",
        )
        return value
    if name == "tau":
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            "tau must be a number",
        )
        return float(value)
    if name == "workers":
        _require(
            value is None
            or (isinstance(value, int) and not isinstance(value, bool)),
            "workers must be an integer or null",
        )
        return value
    if name == "items":
        _require(isinstance(value, list), "items must be a list")
        _require(
            all(isinstance(v, int) and not isinstance(v, bool)
                for v in value),
            "items must be integers",
        )
        return tuple(value)
    if name == "events":
        _require(isinstance(value, list), "events must be a list")
        normalised = []
        for event in value:
            _require(
                isinstance(event, (list, tuple)) and len(event) == 2,
                "each event must be an [action, item] pair",
            )
            action, item = event
            _require(
                action in UPDATE_ACTIONS,
                f"event action must be one of {UPDATE_ACTIONS}",
            )
            _require(
                isinstance(item, int) and not isinstance(item, bool),
                "event item must be an integer",
            )
            normalised.append((action, item))
        return tuple(normalised)
    if name == "edge_events":
        _require(isinstance(value, list), "edge_events must be a list")
        edge_normalised = []
        for event in value:
            _require(
                isinstance(event, (list, tuple)) and len(event) == 4,
                "each edge event must be an [action, u, v, probability] "
                "quadruple",
            )
            action, u, v, probability = event
            _require(
                action in EDGE_ACTIONS,
                f"edge event action must be one of {EDGE_ACTIONS}",
            )
            for node in (u, v):
                _require(
                    isinstance(node, int) and not isinstance(node, bool),
                    "edge event endpoints must be integers",
                )
            _require(
                isinstance(probability, (int, float))
                and not isinstance(probability, bool),
                "edge event probability must be a number",
            )
            _require(
                0.0 <= float(probability) <= 1.0,
                "edge event probability must be in [0, 1]",
            )
            edge_normalised.append((action, u, v, float(probability)))
        return tuple(edge_normalised)
    if name == "values":
        _require(isinstance(value, list), "values must be a list")
        _require(
            all(isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in value),
            "values must be numbers",
        )
        return tuple(float(v) for v in value)
    if name == "algorithms":
        _require(isinstance(value, list), "algorithms must be a list")
        _require(
            all(isinstance(a, str) for a in value),
            "algorithms must be strings",
        )
        return tuple(value)
    raise AssertionError(f"unvalidated field {name!r}")


def _check_ranges(request: Union[Request, ServiceRequest]) -> None:
    """Value-range checks; each applies only when the payload has the
    field, so one routine serves the flat request and every typed one."""
    if hasattr(request, "k"):
        _require(request.k > 0, "k must be positive")
    if hasattr(request, "tau"):
        _require(0.0 <= request.tau <= 1.0, "tau must be in [0, 1]")
    if hasattr(request, "im_samples"):
        _require(request.im_samples > 0, "im_samples must be positive")
    if hasattr(request, "mc_simulations"):
        _require(request.mc_simulations >= 0,
                 "mc_simulations must be non-negative")
    if hasattr(request, "parameter"):
        _require(request.parameter in ("tau", "k"),
                 "parameter must be 'tau' or 'k'")
    if hasattr(request, "store"):
        _require(request.store in ("", "ram", "mmap"),
                 "store must be '', 'ram' or 'mmap'")
    if hasattr(request, "memory_budget"):
        _require(request.memory_budget >= 0,
                 "memory_budget must be non-negative")


# -- decoding ---------------------------------------------------------------

_ENVELOPE_KEYS = frozenset(("schema", "op", "id", "args"))


def _parse_op(payload: dict) -> str:
    _require("op" in payload, "request needs an 'op' field")
    op = payload["op"]
    _require(isinstance(op, str) and op in OPS,
             f"op must be one of {OPS}, got {op!r}")
    return op


def _request_from_flat(payload: dict) -> Request:
    """The v1 decoder — semantics frozen since PR 5 (stdio daemon
    responses for v1-format requests must stay byte-identical)."""
    known = {f.name for f in fields(Request)}
    unknown = set(payload) - known
    _require(not unknown, f"unknown request fields: {sorted(unknown)}")
    op = _parse_op(payload)
    out: dict[str, Any] = {"op": op}
    for name in _FIELD_ORDER:
        if name in payload:
            out[name] = _validate_field(name, payload[name])
    request = Request(**out)
    _check_ranges(request)
    return request


def _request_from_envelope(payload: dict) -> "ServiceRequest":
    """The v2 decoder: per-op payloads, per-op unknown-field rejection,
    required fields checked here rather than inside the engine."""
    unknown = set(payload) - _ENVELOPE_KEYS
    _require(not unknown, f"unknown envelope fields: {sorted(unknown)}")
    op = _parse_op(payload)
    request_id = payload.get("id", "")
    _require(isinstance(request_id, str), "id must be a string")
    args = payload.get("args", {})
    _require(isinstance(args, dict), "args must be a JSON object")
    return typed_from_args(op, request_id, args)


def typed_from_args(
    op: str, request_id: str, args: dict[str, Any]
) -> "ServiceRequest":
    """Build the typed payload for ``op`` from a v2 ``args`` object."""
    cls = REQUEST_TYPES[op]
    allowed = {f.name for f in fields(cls)} - {"id"}
    unknown = set(args) - allowed
    _require(not unknown, f"unknown {op} fields: {sorted(unknown)}")
    out: dict[str, Any] = {"id": request_id}
    for name in _FIELD_ORDER:
        if name in args:
            out[name] = _validate_field(name, args[name])
    request = cls(**out)
    _check_ranges(request)
    if hasattr(request, "dataset"):
        _require(request.dataset != "", f"{op} requires a non-empty dataset")
    return request


def request_from_dict(payload: Any) -> ServiceRequest:
    """Validate one request object (either wire version) into its typed
    payload.

    An object without a ``"schema"`` key is a v1 flat request;
    ``"schema": 1`` is the same with the version spelled out. Every
    flat field is validated as v1 always was (so v1 error text is
    unchanged), then lifted to the per-op payload. ``"schema": 2``
    selects the enveloped per-op decode.
    """
    _require(isinstance(payload, dict), "request must be a JSON object")
    if "schema" not in payload:
        return _request_from_flat(payload).typed()
    schema = payload["schema"]
    _require(
        isinstance(schema, int) and not isinstance(schema, bool),
        "schema must be an integer",
    )
    if schema == 1:
        flat = dict(payload)
        del flat["schema"]
        return _request_from_flat(flat).typed()
    _require(
        schema == SCHEMA_VERSION,
        f"unsupported schema {schema}; this service speaks v1 and "
        f"v{SCHEMA_VERSION}",
    )
    return _request_from_envelope(payload)


# -- encoding ---------------------------------------------------------------

def _json_safe(name: str, value: Any) -> Any:
    if name in ("items", "values", "algorithms"):
        return list(value)
    if name == "events":
        return [[action, item] for action, item in value]
    if name == "edge_events":
        return [
            [action, u, v, probability]
            for action, u, v, probability in value
        ]
    return value


def request_to_dict(request: Union[Request, ServiceRequest]) -> dict[str, Any]:
    """JSON-safe dict form: v1 flat for :class:`Request` (bytes
    unchanged from schema 1), v2 envelope for typed payloads."""
    if isinstance(request, Request):
        payload = asdict(request)
        for name in ("items", "events", "edge_events", "values",
                     "algorithms"):
            payload[name] = _json_safe(name, payload[name])
        return payload
    args = {
        f.name: _json_safe(f.name, getattr(request, f.name))
        for f in fields(request)
        if f.name != "id"
    }
    return {
        "schema": SCHEMA_VERSION,
        "op": request.op,
        "id": request.id,
        "args": args,
    }


def response_to_dict(response: Response) -> dict[str, Any]:
    """The response's top-level fields as a dict.

    ``result`` and ``cache`` are shared with ``response``, not copied:
    encoding only reads them, and ``asdict``'s deep copy cost several
    times the JSON encode.
    """
    return {f.name: getattr(response, f.name) for f in fields(Response)}


def response_from_dict(payload: Any) -> Response:
    _require(isinstance(payload, dict), "response must be a JSON object")
    known = {f.name for f in fields(Response)}
    unknown = set(payload) - known
    _require(not unknown, f"unknown response fields: {sorted(unknown)}")
    _require("op" in payload, "response needs an 'op' field")
    kwargs: dict[str, Any] = {}
    for name, kind in (("op", str), ("id", str), ("error", str)):
        if name in payload:
            _require(isinstance(payload[name], kind),
                     f"{name} must be a string")
            kwargs[name] = payload[name]
    for name in ("ok", "warm"):
        if name in payload:
            _require(isinstance(payload[name], bool),
                     f"{name} must be a boolean")
            kwargs[name] = payload[name]
    for name in ("result", "cache"):
        if name in payload:
            _require(isinstance(payload[name], dict),
                     f"{name} must be an object")
            kwargs[name] = payload[name]
    return Response(**kwargs)


def encode_request(request: Union[Request, ServiceRequest]) -> str:
    return json.dumps(request_to_dict(request), separators=(",", ":"))


def decode_request(line: str) -> ServiceRequest:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    return request_from_dict(payload)


def encode_response(response: Response) -> str:
    return json.dumps(response_to_dict(response), separators=(",", ":"))


def decode_response(line: str) -> Response:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    return response_from_dict(payload)
