"""Set-up for every test.

Hypothesis keeps its files in the repository's own (ignored) .hypothesis/,
not in the working directory, so a run started anywhere writes nothing
there. And the wire check: a message that travels as an object must come
back equal from its own bytes, so the codec stays exercised end to end even
though control messages are never encoded on their way."""
import os
from dataclasses import replace
from pathlib import Path

import pytest

from edgeslice.netsim import Network
from edgeslice.primitives import read_body
from edgeslice.primitives import decode_request, decode_response, is_response

os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", str(Path(__file__).resolve().parent.parent / ".hypothesis")
)


def wire_round_trip(message):
    """``message`` as a receiver of its ``encode()`` reads it; a parsed body
    is decoded with the handlers' raw-bytes helper."""
    data = message.encode()
    decoded = decode_response(data) if is_response(data) else decode_request(data)
    if not isinstance(message.content, (bytes, type(None))):
        decoded = replace(decoded, content=read_body(decoded.content, type(message.content)))
    return decoded


@pytest.fixture(autouse=True)
def wire_check(monkeypatch):
    send = Network.send

    def checked(self, frm, to, payload, size_bytes):
        if not isinstance(payload, bytes):
            assert wire_round_trip(payload) == payload, (
                f"{frm}->{to} {payload.request_id}: the wire form reads back differently"
            )
        return send(self, frm, to, payload, size_bytes)

    monkeypatch.setattr(Network, "send", checked)
