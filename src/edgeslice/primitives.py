"""Wire-level operation envelopes; quoting and payload tags come from ``codec``.

Every message between devices, edge workers and the cloud is one request or
response primitive. Its wire form, made by ``encode`` only when something
reads it, is newline-separated ``key=value`` lines in a fixed field order, so
equal primitives always encode to equal bytes, and ``len`` of a primitive is
the length of that form. Content is bytes, or a parsed body whose
``to_bytes`` gives exactly the bytes it stands for. The codec's field-line
and resource encoders are re-exported here.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Protocol
from urllib.parse import unquote

from .codec import (
    decode_b64,
    decode_fieldline,
    decode_labels,
    decode_payload,
    decode_target,
    encode_fieldline,
    encode_payload,
    encode_resource,
    quote,
)
from .errors import BadRequestError
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
    START_FUNCTION = 20
    STOP_FUNCTION = 21
    CRASH = 22
    # offload / sync control
    OFFLOAD_REQUEST = 30
    BUNDLE_TRANSFER = 31
    SYNC_FINALIZE = 32


class StatusCode(IntEnum):
    OK = 2000
    CREATED = 2001
    BAD_REQUEST = 4000
    NOT_FOUND = 4004
    FUNCTION_NOT_ENABLED = 4005
    CONFLICT = 4009


class Body(Protocol):
    """Immutable parsed content that a primitive carries in place of bytes."""

    def to_bytes(self) -> bytes: ...


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
            lines.append(f"ty={self.resource_kind.value}")
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
        if not sep:
            raise BadRequestError(f"malformed envelope line {line!r}")
        out[key] = value
    return out


def decode_request(data: bytes) -> RequestPrimitive:
    fields = _parse_lines(data)
    try:
        return RequestPrimitive(
            operation=Operation(int(fields["op"])),
            to=unquote(fields["to"]),
            originator=unquote(fields["fr"]),
            request_id=unquote(fields["rqi"]),
            resource_kind=ResourceKind(int(fields["ty"])) if "ty" in fields else None,
            content=decode_payload(fields["pc"]) if "pc" in fields else None,
        )
    except (KeyError, ValueError) as exc:
        raise BadRequestError(f"malformed request envelope: {exc}") from exc


def decode_response(data: bytes) -> ResponsePrimitive:
    fields = _parse_lines(data)
    try:
        return ResponsePrimitive(
            request_id=unquote(fields["rqi"]),
            status=StatusCode(int(fields["rsc"])),
            content=decode_payload(fields["pc"]) if "pc" in fields else None,
        )
    except (KeyError, ValueError) as exc:
        raise BadRequestError(f"malformed response envelope: {exc}") from exc


def is_response(data: bytes) -> bool:
    return data.startswith(b"rqi=")


# --- resource representations carried in pc ---

@dataclass(frozen=True)
class ResourceView:
    """Decoded resource representation (wire-side counterpart of Resource)."""

    kind: ResourceKind
    name: str
    creation_time: float
    last_modified_time: float
    path: str | None = None
    content: bytes | None = None
    notification_target: tuple[str, str] | None = None
    labels: tuple[str, ...] = ()


def decode_resource(data: bytes) -> ResourceView:
    try:
        rec = decode_fieldline(data.decode("ascii"))
        return ResourceView(
            kind=ResourceKind(int(rec["ty"])),
            name=rec["nm"],
            creation_time=float(rec["ct"]),
            last_modified_time=float(rec["lt"]),
            path=rec.get("pt"),
            content=decode_b64(rec["pc"]) if "pc" in rec else None,
            notification_target=decode_target(rec["nt"]) if "nt" in rec else None,
            labels=tuple(decode_labels(rec["lb"])) if "lb" in rec else (),
        )
    except (KeyError, ValueError) as exc:
        raise BadRequestError(f"malformed resource representation: {exc}") from exc
