"""Wire-level operation envelopes; percent-coding, numbers and payload tags come from ``codec``.

Every message between devices, edge workers and the cloud is one request or
response primitive. Its wire form, made by ``encode`` only when something
reads it, is newline-separated ``key=value`` lines, each key once, in a fixed
order, so equal primitives always encode to equal bytes, and ``len`` of a
primitive is the length of that form. Content is bytes, or a typed body
whose ``to_bytes`` gives exactly the bytes it stands for: a control body
(such as ``slicing.SliceProfile`` or a ``codec.line_body``), a bundle, a
bundle transfer or a notification's body. ``read_body`` reads either form as
the body. ``encode_fieldline``, ``decode_fieldline`` and ``encode_resource``
are imported but not called here: the benchmark's tracer patches them
through this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Protocol

from .codec import (
    decode_b64,
    decode_fieldline,
    decode_labels,
    decode_payload,
    decode_target,
    encode_fieldline,
    encode_payload,
    encode_resource,
    parse_float,
    parse_int,
    quote,
    read_line,
    unquote,
)
from .errors import BadRequestError, ConflictError, EdgeSliceError, NotFoundError
from .resources import ResourceKind


class Operation(IntEnum):
    # data plane
    CREATE = 1
    RETRIEVE = 2
    UPDATE = 3
    DELETE = 4
    NOTIFY = 5
    # slicing control plane
    SERVICE_REQUEST = 10
    SLICE_INSTANTIATE = 11
    SLICE_RECORD = 12
    SLICE_TERMINATE = 13
    # worker admin
    STOP_FUNCTION = 21
    CRASH = 22
    # offload / sync control
    BUNDLE_TRANSFER = 31
    SYNC_FINALIZE = 32


class StatusCode(IntEnum):
    OK = 2000
    CREATED = 2001
    BAD_REQUEST = 4000
    NOT_FOUND = 4004
    FUNCTION_NOT_ENABLED = 4005
    CONFLICT = 4009


# members by number: dict reads, where ``Operation(n)`` is a call into ``enum``
_OPERATIONS = {op.value: op for op in Operation}
_STATUSES = {status.value: status for status in StatusCode}
_KINDS = {kind.value: kind for kind in ResourceKind}


class Body(Protocol):
    """Immutable parsed content that a primitive carries in place of bytes."""

    def to_bytes(self) -> bytes: ...


def read_body(content: "bytes | Body | None", kind: type) -> Body:
    """A message's content as ``kind``, a body class with ``from_bytes``:
    the object a node sent, or else its bytes decoded, whether they arrived
    raw or stand for a body of another class. Decoding raises only
    ``BadRequestError``."""
    if isinstance(content, kind):
        return content
    if content is None:
        content = b""
    elif not isinstance(content, bytes):
        content = content.to_bytes()
    return kind.from_bytes(content)


def _content_bytes(content: "bytes | Body") -> bytes:
    return content if isinstance(content, bytes) else content.to_bytes()


@dataclass(frozen=True)
class RequestPrimitive:
    operation: Operation
    to: str  # serialized ResourcePath or node-level address
    originator: str
    request_id: str
    resource_kind: ResourceKind | None = None
    content: "bytes | Body | None" = None

    def encode(self) -> bytes:
        lines = [
            f"op={int(self.operation)}",
            f"to={quote(self.to, '/-')}",
            f"fr={quote(self.originator)}",
            f"rqi={quote(self.request_id)}",
        ]
        if self.resource_kind is not None:
            lines.append(f"ty={self.resource_kind._value_}")  # ``.value`` is a call into ``enum``
        if self.content is not None:
            lines.append(f"pc={encode_payload(_content_bytes(self.content))}")
        return "\n".join(lines).encode("ascii")

    def __len__(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class ResponsePrimitive:
    request_id: str
    status: StatusCode
    content: "bytes | Body | None" = None

    @property
    def ok(self) -> bool:
        return self.status in (StatusCode.OK, StatusCode.CREATED)

    def encode(self) -> bytes:
        lines = [
            f"rqi={quote(self.request_id)}",
            f"rsc={int(self.status)}",
        ]
        if self.content is not None:
            lines.append(f"pc={encode_payload(_content_bytes(self.content))}")
        return "\n".join(lines).encode("ascii")

    def __len__(self) -> int:
        return len(self.encode())


def error_response(request_id: str, exc: EdgeSliceError) -> ResponsePrimitive:
    """The answer to a request that raised ``exc``, with its message as the
    body: 4004 for a ``NotFoundError``, 4009 for a ``ConflictError`` and 4000
    for any other package error, subclasses included. The one place that
    picks a status for an error."""
    if isinstance(exc, NotFoundError):
        status = StatusCode.NOT_FOUND
    elif isinstance(exc, ConflictError):
        status = StatusCode.CONFLICT
    else:
        status = StatusCode.BAD_REQUEST
    return ResponsePrimitive(request_id, status, str(exc).encode())


def _parse_lines(data: bytes) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise BadRequestError("envelope is not ASCII") from None
    for line in text.split("\n"):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or key in out:
            raise BadRequestError(f"malformed envelope line {line!r}")
        out[key] = value
    return out


def decode_request(data: bytes) -> RequestPrimitive:
    fields = _parse_lines(data)
    try:
        return RequestPrimitive(
            operation=_OPERATIONS[parse_int(fields["op"])],
            to=unquote(fields["to"]),
            originator=unquote(fields["fr"]),
            request_id=unquote(fields["rqi"]),
            resource_kind=_KINDS[parse_int(fields["ty"])] if "ty" in fields else None,
            content=decode_payload(fields["pc"]) if "pc" in fields else None,
        )
    except (KeyError, ValueError) as exc:
        raise BadRequestError(f"malformed request envelope: {exc}") from exc


def decode_response(data: bytes) -> ResponsePrimitive:
    fields = _parse_lines(data)
    try:
        return ResponsePrimitive(
            request_id=unquote(fields["rqi"]),
            status=_STATUSES[parse_int(fields["rsc"])],
            content=decode_payload(fields["pc"]) if "pc" in fields else None,
        )
    except (KeyError, ValueError) as exc:
        raise BadRequestError(f"malformed response envelope: {exc}") from exc


def is_response(data: bytes) -> bool:
    return data.startswith(b"rqi=")


# --- resource representations carried in pc ---

class ResourceView(NamedTuple):
    """Decoded resource representation (wire-side counterpart of Resource)."""

    kind: ResourceKind
    name: str
    creation_time: float
    last_modified_time: float
    path: str | None = None
    content: bytes | None = None
    notification_target: tuple[str, str] | None = None
    labels: tuple[str, ...] = ()


# a resource record's keys in wire order (``codec.encode_record``'s), and those it must give
_RECORD_KEYS = ("pt", "ty", "nm", "ct", "lt", "pc", "nt", "lb")
_RECORD_REQUIRED = ("ty", "nm", "ct", "lt")


def decode_resource(data: bytes) -> ResourceView:
    """The resource view a record holds; raises only ``BadRequestError``."""
    path, ty, name, created, modified, content, target, labels = read_line(data, _RECORD_KEYS,
                                                                           _RECORD_REQUIRED)
    kind = _KINDS.get(parse_int(ty))
    if kind is None:
        raise BadRequestError(f"malformed resource representation: no resource kind {ty}")
    return ResourceView(
        kind,
        name,
        parse_float(created),
        parse_float(modified),
        path,
        None if content is None else decode_b64(content),
        None if target is None else decode_target(target),
        () if labels is None else decode_labels(labels),
    )
