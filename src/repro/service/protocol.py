"""Wire protocol for the influence service: typed, versioned NDJSON.

One request per line, one response per line, over any byte stream (the
asyncio TCP server, a pipe, a test harness).  Frames are JSON objects;
the typed view of each frame is a dataclass — :class:`Request`,
:class:`OkResponse`, :class:`ErrorResponse` — with ``to_wire`` /
``from_wire`` converters, so transports never build ad-hoc dicts:

.. code-block:: json

    {"id": 7, "op": "maximize", "session": "default", "params": {"k": 10}, "proto": 1}
    {"id": 7, "ok": true, "result": {"algorithm": "D-SSA", "seeds": [3, 1]}, "proto": 1}
    {"id": 8, "ok": false, "error": {"type": "ServiceError", "code": "bad_request",
                                     "message": "..."}, "proto": 1}

**Versioning.**  ``proto`` declares the protocol revision a client
speaks; the current revision is :data:`PROTO_VERSION`, and every
response carries it.  A request may omit ``proto`` (it is then read as
the current revision); a request naming a later revision is rejected.
Clients may open with a ``hello`` frame to learn the server's revision
and op vocabulary before issuing queries.

Requests are independent per connection: the server answers each as it
completes, so responses to pipelined requests may arrive **out of
order** — match on ``id``, not arrival order.

Numbers are plain JSON numbers and seed lists are plain JSON arrays, so
byte-identity of served answers is checkable from any client language.
``IMResult.extras`` (per-iteration traces) stays server-side — it is
diagnostics, unbounded in size, and not part of the answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.result import IMResult
from repro.exceptions import ReproError
from repro.service.errors import error_code, error_details

#: the protocol revision this build speaks; negotiated via ``hello``.
PROTO_VERSION = 1


class ProtocolError(ReproError):
    """Raised on malformed protocol messages (wire code ``bad_request``)."""

    code = "bad_request"


def to_jsonable(value):
    """Recursively coerce numpy scalars/arrays into plain JSON types."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


# ----------------------------------------------------------------------
# Typed frames
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One decoded request frame.

    ``proto`` is the client's declared protocol revision (``None`` when
    the frame names none).
    """

    op: str
    id: object = None
    session: str = "default"
    params: dict = field(default_factory=dict)
    proto: "int | None" = None

    @classmethod
    def from_wire(cls, message: dict) -> "Request":
        """Validate one decoded frame into a typed request."""
        op = message.get("op")
        if not isinstance(op, str):
            raise ProtocolError("request needs a string 'op' field")
        params = message.get("params", {})
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be a JSON object")
        session = message.get("session", "default")
        if not isinstance(session, str):
            raise ProtocolError("'session' must be a string")
        proto = message.get("proto")
        if proto is not None:
            if not isinstance(proto, int) or isinstance(proto, bool):
                raise ProtocolError("'proto' must be an integer protocol revision")
            if proto > PROTO_VERSION:
                raise ProtocolError(
                    f"client speaks protocol revision {proto}, this server "
                    f"speaks up to {PROTO_VERSION}"
                )
        return cls(
            op=op,
            id=message.get("id"),
            session=session,
            params=dict(params),
            proto=proto,
        )

    def to_wire(self) -> dict:
        message = {"id": self.id, "op": self.op, "session": self.session,
                   "params": self.params}
        if self.proto is not None:
            message["proto"] = self.proto
        return message


@dataclass(frozen=True)
class OkResponse:
    """A successful response to one request."""

    id: object
    result: object

    @property
    def ok(self) -> bool:
        return True

    def to_wire(self) -> dict:
        return {"id": self.id, "ok": True, "result": to_jsonable(self.result),
                "proto": PROTO_VERSION}


@dataclass(frozen=True)
class ErrorResponse:
    """A failed response: stable ``code``, exception type, message.

    ``details`` carries optional structured context — for
    ``over_budget`` it is the admission controller's cost estimate.
    """

    id: object
    code: str
    error_type: str
    message: str
    details: "dict | None" = None

    @property
    def ok(self) -> bool:
        return False

    @classmethod
    def from_exception(
        cls, request_id, exc: BaseException, *, code: "str | None" = None,
    ) -> "ErrorResponse":
        return cls(
            id=request_id,
            code=code if code is not None else error_code(exc),
            error_type=type(exc).__name__,
            message=str(exc),
            details=error_details(exc),
        )

    def to_wire(self) -> dict:
        error = {"type": self.error_type, "message": self.message, "code": self.code}
        if self.details is not None:
            error["details"] = to_jsonable(self.details)
        return {"id": self.id, "ok": False, "error": error, "proto": PROTO_VERSION}


def hello_payload(operations=()) -> dict:
    """The server's side of ``hello`` version negotiation."""
    return {
        "proto": PROTO_VERSION,
        "server": "repro-im",
        "ops": list(operations),
    }


# ----------------------------------------------------------------------
# Result flattening / line codec
# ----------------------------------------------------------------------
def result_to_dict(result: IMResult) -> dict:
    """Flatten one :class:`IMResult` for the wire (``extras`` excluded)."""
    return to_jsonable(
        {
            "algorithm": result.algorithm,
            "k": result.k,
            "seeds": list(result.seeds),
            "influence": result.influence,
            "samples": result.samples,
            "optimization_samples": result.optimization_samples,
            "verification_samples": result.verification_samples,
            "iterations": result.iterations,
            "stopped_by": result.stopped_by,
            "elapsed_seconds": result.elapsed_seconds,
            "memory_bytes": result.memory_bytes,
        }
    )


def summarize_result(payload: dict) -> str:
    """One-line summary of a wire result (mirrors ``IMResult.summary``)."""
    return (
        f"{payload['algorithm']}: k={payload['k']} "
        f"influence≈{payload['influence']:.1f} samples={payload['samples']} "
        f"iterations={payload['iterations']} "
        f"time={payload['elapsed_seconds']:.3f}s stop={payload['stopped_by']}"
    )


def encode_line(message) -> bytes:
    """Serialize one protocol frame (typed or dict) to a JSON line."""
    if hasattr(message, "to_wire"):
        message = message.to_wire()
    return (json.dumps(to_jsonable(message), separators=(",", ":")) + "\n").encode()


def decode_line(line: "bytes | str") -> dict:
    """Parse one protocol line; raises :class:`ProtocolError` when malformed."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty protocol line")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"protocol messages are JSON objects, got {type(message).__name__}")
    return message
