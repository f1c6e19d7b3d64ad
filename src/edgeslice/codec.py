"""The package's one text codec: percent-coding, numbers, field lines, payloads.

A field line is ``key=value`` pairs joined by ``;``; resource records use one
field layout on the wire and in ``ResourceTree.serialize``, every one-line
body is read by ``read_line``, and a typed one-line body is a named tuple of
its keys (``line_body``), read as attributes until something reads its
bytes.
Each byte is escaped at most once: a field value escapes ``;``, ``%`` and
bytes outside printable ASCII, so base64 content travels raw; a payload is
``t:`` plus ASCII text escaping ``%`` and bytes outside printable ASCII (a
newline is ``%0A``), else ``b:`` plus base64. ``quote`` and ``unquote`` equal
urllib's, with the per-byte work left to C (``translate`` and ``replace``, or
a compiled split and a table); numbers are read only as the encoders write
them. Decoders raise only ``BadRequestError``.
"""
from __future__ import annotations

import base64
import binascii
import math
import re
from collections import namedtuple
from itertools import takewhile
from typing import Iterable, Sequence

from .errors import BadRequestError

_ALWAYS_SAFE = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~"
_BYTES = [bytes([byte]) for byte in range(256)]
_ESCAPES = [b"%%%02X" % byte for byte in range(256)]
_HEX = "0123456789ABCDEFabcdef"
_UNESCAPES = {f"%{a}{b}".encode(): bytes.fromhex(a + b) for a in _HEX for b in _HEX}
_ESCAPE = re.compile(b"(%[0-9A-Fa-f]{2})")
_INT = re.compile("-?[0-9]+")
_FLOAT = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")
PAYLOAD_SAFE = "".join(map(chr, range(32, 127))).replace("%", "")  # printable ASCII but "%"
FIELD_SAFE = PAYLOAD_SAFE.replace(";", "")
# the bytes kept in ids, request targets, field values and t: payloads
_KEPT = {safe: _ALWAYS_SAFE + safe.encode() for safe in ("", "/-", FIELD_SAFE, PAYLOAD_SAFE)}


def quote(text: str, safe: str = "") -> str:
    """``urllib.parse.quote(text, safe=safe)``, UTF-8 encoding included."""
    data = text.encode("utf-8")
    # non-ASCII safe characters are ignored, as urllib does
    unsafe = data.translate(None, _KEPT.get(safe) or _ALWAYS_SAFE + safe.encode("ascii", "ignore"))
    if not unsafe:
        return text
    if b"%" in unsafe:  # first: every escape made below holds a "%"
        data = data.replace(b"%", b"%25")
    for byte in set(unsafe.replace(b"%", b"")):
        data = data.replace(_BYTES[byte], _ESCAPES[byte])
    return data.decode("ascii")


def unquote(text: str) -> str:
    """``urllib.parse.unquote``, but a lone surrogate beside a ``%`` is refused."""
    if "%" not in text:
        return text
    try:
        parts = _ESCAPE.split(text.encode("utf-8"))
    except UnicodeEncodeError:
        raise BadRequestError("quoted text holds a lone surrogate") from None
    parts[1::2] = map(_UNESCAPES.__getitem__, parts[1::2])
    return b"".join(parts).decode("utf-8", "replace")


# --- numbers ---

def parse_int(text: str) -> int:
    """An integer as ``str(int)`` writes one: ASCII digits after an optional ``-``."""
    if _INT.fullmatch(text):
        return int(text)
    raise BadRequestError(f"malformed integer {text!r}")


def parse_float(text: str) -> float:
    """A finite float in the decimal form ``repr`` writes: no ``nan``, ``inf``, ``_`` or space."""
    if _FLOAT.fullmatch(text) and math.isfinite(value := float(text)):
        return value
    raise BadRequestError(f"malformed number {text!r}")


# --- field lines ---

def encode_fieldline(pairs: Iterable[tuple[str, str]]) -> str:
    return ";".join(f"{k}={quote(v, FIELD_SAFE)}" for k, v in pairs)


def decode_fieldline(line: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in line.split(";"):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or key in out:
            raise BadRequestError(f"malformed field {part!r}")
        out[key] = unquote(value)
    return out


def encode_body(pairs: Iterable[tuple[str, str]]) -> bytes:
    """Field line carried as a primitive's content."""
    return encode_fieldline(pairs).encode("ascii")


def read_line(data: bytes, keys: Sequence[str], required: Iterable[str] = ()) -> list:
    """The values of ``keys`` in the one field line ``data`` holds, None for
    an absent key: the one reader of a one-line body. A key not in ``keys``
    is ignored; a second line, or a key of ``required`` that the line lacks,
    is refused."""
    text = decode_ascii(data)
    if "\n" in text:
        raise BadRequestError("expected one field line")
    fields = decode_fieldline(text)
    values = list(map(fields.get, keys))
    if None in values:
        for key in required:
            if key not in fields:
                raise BadRequestError(f"missing field {key!r}")
    return values


class _LineBody:
    """What ``line_body`` adds to a named tuple."""

    __slots__ = ()

    def to_bytes(self) -> bytes:
        return encode_body([(key, str(value)) for key, value in zip(self._fields, self) if value is not None])

    @classmethod
    def from_bytes(cls, data: bytes):
        values = read_line(data, cls._fields, cls._required)
        return cls._make([value if value is None else parse(value) for parse, value in zip(cls._parsers, values)])


_PARSERS = {"": str, "int": parse_int, "float": parse_float}


def line_body(name: str, fields: str) -> type:
    """A typed one-line body: a named tuple whose field names are the
    body's keys, in wire order. ``fields`` names them, space-separated, each
    as ``key``, ``key:int`` or ``key:float``; a value is written as ``str``
    writes it. A key marked ``key?`` is optional: None is not written, an
    absent key reads as None, and the optional keys at the end default to
    None. ``from_bytes`` reads the line as ``read_line`` does."""
    specs = [spec.partition(":") for spec in fields.split()]
    keys = [key.rstrip("?") for key, _, _ in specs]
    optional = frozenset(key.rstrip("?") for key, _, _ in specs if key.endswith("?"))
    defaults = [None] * len(list(takewhile(optional.__contains__, reversed(keys))))
    return type(name, (namedtuple(name, keys, defaults=defaults), _LineBody),
                {"__slots__": (), "_required": [key for key in keys if key not in optional],
                 "_parsers": [_PARSERS[kind] for _, _, kind in specs]})


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


def decode_labels(text: str) -> tuple[str, ...]:
    return tuple([unquote(label) for label in text.split(",")])


def decode_target(text: str) -> tuple[str, str]:
    node, _, path = text.partition("|")
    return (node, path)


# --- resource records ---

def encode_record(head: list[tuple[str, str]], resource) -> str:
    """Field line of a resource after the caller's leading pairs.

    ``resource`` is any object with the attributes of ``resources.Resource``.
    """
    pairs = head + [
        ("ty", str(resource.kind._value_)),  # ``.value`` is a call into ``enum``
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
    """Self-describing content encoding: quoted text when ASCII, else base64."""
    if data.isascii():
        return "t:" + quote(data.decode("ascii"), PAYLOAD_SAFE)
    return "b:" + encode_b64(data)


def decode_payload(value: str) -> bytes:
    tag, _, body = value.partition(":")
    if tag == "t" and body.isascii():  # quoted text is ASCII; other text may hold a surrogate
        return unquote(body).encode("utf-8")
    if tag == "b":
        return decode_b64(body)
    raise BadRequestError(f"malformed payload {value[:16]!r}")
