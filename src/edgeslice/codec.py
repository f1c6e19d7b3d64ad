"""The package's one text codec: percent-quoting, field lines and payloads.

A field line is ``key=value`` pairs joined by ``;`` with every value quoted,
so a value may hold any text; resource records use one field layout on the
wire and in ``ResourceTree.serialize``. Payloads are ``t:`` plus quoted text
when printable ASCII, else ``b:`` plus base64. ``quote`` equals
``urllib.parse.quote``, which loops over bytes in Python once one is unsafe
(as base64's ``=`` padding always is); here one compiled pattern per safe set
substitutes from a 256-entry table. Decoders raise only ``BadRequestError``.
"""
from __future__ import annotations

import base64
import binascii
import re
from urllib.parse import unquote

from .errors import BadRequestError

_ALWAYS_SAFE = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~"
_ESCAPES = [b"%%%02X" % byte for byte in range(256)]
PAYLOAD_SAFE = "/-:,|"


def _escape(match: re.Match[bytes]) -> bytes:
    return _ESCAPES[match[0][0]]


def _unsafe(safe: str) -> re.Pattern[bytes]:
    # non-ASCII safe characters are ignored, as urllib does
    allowed = _ALWAYS_SAFE + safe.encode("ascii", "ignore")
    return re.compile(b"[^" + b"".join(re.escape(bytes([c])) for c in allowed) + b"]")


# the safe sets of field values, request targets and t: payloads
_PATTERNS = {safe: _unsafe(safe) for safe in ("", "/-", PAYLOAD_SAFE)}


def quote(text: str, safe: str = "") -> str:
    """``urllib.parse.quote(text, safe=safe)``, UTF-8 encoding included."""
    pattern = _PATTERNS.get(safe) or _unsafe(safe)
    return pattern.sub(_escape, text.encode("utf-8")).decode("ascii")


# --- field lines ---

def encode_fieldline(pairs: list[tuple[str, str]]) -> str:
    return ";".join(f"{k}={quote(v)}" for k, v in pairs)


def decode_fieldline(line: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in line.split(";"):
        if not part:
            continue
        key, _, value = part.partition("=")
        out[key] = unquote(value)
    return out


def encode_body(pairs: list[tuple[str, str]]) -> bytes:
    """Field line carried as a primitive's content."""
    return encode_fieldline(pairs).encode("ascii")


def decode_body(data: bytes | None) -> dict[str, str]:
    """Field line carried as a primitive's content."""
    return decode_fieldline(decode_ascii(data or b""))


def decode_ascii(data: bytes) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError:
        raise BadRequestError("content is not ASCII") from None


# --- field values ---

def encode_b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def decode_b64(text: str) -> bytes:
    try:
        return base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise BadRequestError(f"malformed base64 content: {exc}") from None


def decode_labels(text: str) -> list[str]:
    return [unquote(label) for label in text.split(",")]


def decode_target(text: str) -> tuple[str, str]:
    node, _, path = text.partition("|")
    return (node, path)


# --- resource records ---

def encode_record(head: list[tuple[str, str]], resource) -> str:
    """Field line of a resource after the caller's leading pairs.

    ``resource`` is any object with the attributes of ``resources.Resource``.
    """
    pairs = head + [
        ("ty", str(resource.kind.value)),
        ("nm", resource.name),
        ("ct", repr(resource.creation_time)),
        ("lt", repr(resource.last_modified_time)),
    ]
    if resource.content is not None:
        pairs.append(("pc", encode_b64(resource.content)))
    if resource.notification_target is not None:
        pairs.append(("nt", "|".join(resource.notification_target)))
    if resource.labels:
        pairs.append(("lb", ",".join(quote(label) for label in resource.labels)))
    return encode_fieldline(pairs)


def encode_resource(resource, path=None) -> bytes:
    """Textual representation of a resource for responses and notifications."""
    head = [] if path is None else [("pt", str(path))]
    return encode_record(head, resource).encode("ascii")


# --- envelope payloads ---

def encode_payload(data: bytes) -> str:
    """Self-describing content encoding: plain text when safe, else base64."""
    if data.isascii():
        text = data.decode("ascii")
        if text.isprintable():  # which also excludes "\n"
            return "t:" + quote(text, PAYLOAD_SAFE)
    return "b:" + encode_b64(data)


def decode_payload(value: str) -> bytes:
    tag, _, body = value.partition(":")
    if tag == "t":
        return unquote(body).encode("utf-8")
    if tag == "b":
        return decode_b64(body)
    raise BadRequestError(f"unknown payload tag {tag!r}")
