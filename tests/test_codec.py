"""Properties of the text codec and of every decoder built on it.

- ``codec.quote`` equals ``urllib.parse.quote`` for any safe set, and
  ``codec.unquote`` equals ``urllib.parse.unquote`` on text without lone
  surrogates;
- every decoder either decodes its input or raises ``BadRequestError``, for
  arbitrary input, for valid and refused encodings with a few bytes edited,
  and for text holding a lone surrogate; among them every reader built on
  ``read_line``, the worker's create and update bodies read through
  ``EdgeWorker.dispatch`` (a body it answers 4000 counts as refused);
- a one-line body with a second line, or without a key it requires, is
  refused;
- encode -> decode -> encode is the identity on generated valid values, for
  every control body type among them;
- each byte is escaped at most once, and still unambiguously: no safe set
  holds a newline or ``%``, only the ``t:`` payload set holds ``;``, any field
  value comes back from a field line inside a ``t:`` payload, and a bundle's
  lines are what ``encode_fieldline`` writes;
- no module but ``edgeslice.codec`` imports ``urllib``, ``base64`` or
  ``binascii``.

Hypothesis runs derandomized with a bounded example count, so the suite
stays deterministic and fast.
"""
import ast
import base64
import importlib
import pkgutil
from pathlib import Path
from urllib.parse import quote as stdlib_quote
from urllib.parse import unquote as stdlib_unquote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgeslice
from edgeslice.bench import build_system
from edgeslice.codec import (
    FIELD_SAFE,
    PAYLOAD_SAFE,
    decode_b64,
    decode_fieldline,
    decode_labels,
    decode_payload,
    encode_b64,
    encode_fieldline,
    encode_payload,
    encode_resource,
    parse_float,
    parse_int,
    quote,
    read_line,
    unquote,
)
from edgeslice.errors import BadRequestError
from edgeslice.images import FunctionImage, ImageCatalogue, default_catalogue
from edgeslice.netsim import Network
from edgeslice.notify import NotifyBody, NotifyHead, parse_notify
from edgeslice.offload import (
    BundleHead,
    BundleRecord,
    BundleTransfer,
    OffloadBundle,
    import_bundle,
    make_bundle,
    subtrees_converged,
)
from edgeslice.primitives import (
    Operation,
    RequestPrimitive,
    ResourceView,
    ResponsePrimitive,
    StatusCode,
    decode_request,
    decode_resource,
    decode_response,
)
from edgeslice.resources import (
    LATEST_SEGMENT,
    Resource,
    ResourceKind,
    ResourcePath,
    ResourceTree,
)
from edgeslice.scenario import reference_calibrated
from edgeslice.slicing import (
    FunctionKind,
    LatencyClass,
    SliceProfile,
    port_for,
)
from edgeslice.system import (
    CrashBody,
    FunctionBody,
    InstantiateBody,
    ReadyBody,
    RecordBody,
    SliceBody,
    SyncedBody,
    TaskRoot,
    _Meta,
)
from edgeslice.worker import EdgeWorker, FunctionInstance, InstanceState, ResourceQuota
from wire_samples import ODD_LABELS, ODD_NAME, sample_tree, samples

PROPERTY = settings(derandomize=True, max_examples=80, deadline=None, database=None)

# envelope ids, request targets, field values and t: payloads
SAFE_SETS = ["", "/-", FIELD_SAFE, PAYLOAD_SAFE]
SAFE_SET_NAMES = ["ids", "targets", "fields", "payloads"]

# text that is mostly the characters the quoting rules single out
TRICKY = st.text(alphabet=st.sampled_from(list("%;=,|:/-_.~+ \n\x00aZ9üß€😀")))
TEXT = st.one_of(st.text(), TRICKY)
TIMES = st.floats(allow_nan=False, allow_infinity=False)  # the decoders take finite times only
CONTENT = st.one_of(
    st.none(),
    st.binary(max_size=48),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)).map(str.encode),
)


# --- quote ---

@PROPERTY
@given(
    st.one_of(
        TEXT,
        st.binary(min_size=400, max_size=400).map(lambda data: base64.b64encode(data).decode()),
        st.builds(lambda r, path: encode_resource(r, path).decode(), st.deferred(lambda: resources()),
                  st.one_of(st.none(), TEXT)),
    ),
    st.one_of(st.sampled_from(SAFE_SETS), st.text(), TRICKY),
)
def test_quote_equals_urllib(text, safe):
    assert quote(text, safe) == stdlib_quote(text, safe=safe)


@pytest.mark.parametrize("safe", SAFE_SETS, ids=SAFE_SET_NAMES)
def test_quote_equals_urllib_on_each_character(safe):
    for code in list(range(0x800)) + [0xFFFD, 0x10000, 0x10FFFF]:
        char = chr(code)
        assert quote(char, safe) == stdlib_quote(char, safe=safe), hex(code)
    assert quote("", safe) == ""


def test_separators_and_the_escape_stay_outside_the_safe_sets():
    """A newline ends an envelope line and ``%`` starts an escape in every
    quoted text; ``;`` ends a field, so only a t: payload, which is a whole
    envelope value, may keep it."""
    for safe in SAFE_SETS:
        assert "\n" not in safe and "%" not in safe, safe
    for safe in SAFE_SETS[:3]:
        assert ";" not in safe, safe
    assert set(PAYLOAD_SAFE) == {chr(code) for code in range(32, 127)} - {"%"}
    assert set(PAYLOAD_SAFE) - set(FIELD_SAFE) == {";"}


# --- unquote ---

# escapes whole, in either case, truncated or not hex, beside UTF-8 and ASCII
ESCAPED = st.lists(
    st.one_of(
        st.sampled_from(["%", "%4", "%41", "%zz", "%2f", "%2F", "%C3", "%c3%bc", "%BC", "%E2%82",
                         "%F0%9F%98%80", "%ff", "%%", "%25", "a", "0", "F", "ü", "€", "😀", " "]),
        st.text(max_size=3),
    ),
    max_size=12,
).map("".join)


@PROPERTY
@given(st.one_of(ESCAPED, TEXT, st.text().map(quote)))
def test_unquote_equals_urllib(text):
    assert unquote(text) == stdlib_unquote(text)


# --- every decoder raises only BadRequestError ---

# the content of every control message, by type
CONTROL_BODIES = (SliceProfile, InstantiateBody, RecordBody, ReadyBody, BundleTransfer, TaskRoot, FunctionBody,
                  CrashBody, SliceBody, SyncedBody)


def _control_bodies() -> dict[str, list[bytes]]:
    """The bytes of every control body sent, by type, in one edge
    preparation of the calibrated scenario and then a crash and a slice
    termination."""
    system = build_system(reference_calibrated(), "edge", 42)
    bodies = {kind.__name__: [] for kind in CONTROL_BODIES}

    def capture(frm, to, payload, size):
        content = getattr(payload, "content", None)
        if type(content).__name__ in bodies:
            bodies[type(content).__name__].append(content.to_bytes())
        Network.send(system.network, frm, to, payload, size)

    system.network.send = capture
    system.prepare()
    device = system.devices[system.device_id]
    for op, to, body in [
        (Operation.CRASH, "edge0", FunctionBody("NOTIFICATION")),
        (Operation.SLICE_TERMINATE, system.cloud_id, SliceBody("slice-edge0")),
    ]:
        req = RequestPrimitive(op, to, device.node_id, f"{op.name}-1", content=body)
        device.issue(req, to, 0, lambda response: None)
        system.run_until_idle()
    return bodies


def _seeds() -> dict[str, list[bytes]]:
    wire = {name: text.encode("utf-8") for name, text in samples().items()}
    notifies = [wire[name] for name in wire if name.startswith("notify_")]
    notify_bodies = [decode_request(n).content for n in notifies]
    profile = SliceProfile("svc;1", frozenset({FunctionKind.RETRIEVE, FunctionKind.NOTIFICATION}))
    bodies = _control_bodies()
    return {
        "request": [wire["create"], wire["retrieve"], wire["bundle_transfer"], *notifies],
        "response": [wire["response"], wire["response_binary"], wire["response_empty"]],
        "resource": [wire["resource_subscription"], wire["resource_container"],
                     *[body.partition(b"\n")[2] for body in notify_bodies]],
        "notify": notify_bodies,
        "NotifyHead": [body.partition(b"\n")[0] for body in notify_bodies],
        # the lines the two bodies of more than one line are made of
        "BundleHead": [body.partition(b"\n")[0] for body in bodies["BundleTransfer"]],
        "_Meta": [body.partition(b"\n")[0] for body in bodies["InstantiateBody"]],
        "FunctionImage": [line for body in bodies["InstantiateBody"] for line in body.split(b"\n")[1:]],
        "create": [b"nm=m00001;pc=" + encode_b64(b"position-update-001000:xxxx").encode(),
                   b"nm=%C3%BC%3B;pc=" + encode_b64(bytes(range(256))).encode() + b";lb=a,b%252C"],
        "update": [b"", b"nm=renamed%20%3B", b"lb=a,%C3%BC", b"lb=", b"ty=3;nm=x;lb=l"],
        "bundle": [wire["bundle"]],
        "payload": [b"t:nm%3Dx%3Bpc%3DAAAA", b"b:AAECAw=="],
        **bodies,
        "SliceProfile": bodies["SliceProfile"] + [profile.to_bytes()],
    }


SEEDS = _seeds()


def _notify(data: bytes):
    return parse_notify(RequestPrimitive(Operation.NOTIFY, "IN-CSE/a", "edge0", "n1", content=data)).body


def _dispatched(op: Operation):
    """The worker's reader of an ``op`` body: the body dispatched to a worker
    that runs every function, as a content instance created in, or an
    update of, a fresh container. A body answered 4000 raises
    ``BadRequestError``; any other refusal fails the test."""
    kind = ResourceKind.CONTENT_INSTANCE if op is Operation.CREATE else None

    def read(data: bytes) -> None:
        tree = ResourceTree("MN-CSE")
        box = tree.create(ResourcePath("MN-CSE"), ResourceKind.CONTAINER, "box")
        worker = EdgeWorker("edge0", tree, capacity_bytes=1, start_delay_ms=0.0)
        worker.functions = {fn: FunctionInstance(fn, port_for(fn), InstanceState.RUNNING, ResourceQuota(1, 1.0))
                            for fn in FunctionKind}
        response, _, _ = worker.dispatch(RequestPrimitive(op, str(box), "dev0", "r1", kind, data))
        if not response.ok:
            assert response.status is StatusCode.BAD_REQUEST, response
            raise BadRequestError(response.content.decode())

    return read


# the decoders that read text; the others read bytes
TEXT_DECODERS = {
    "bundle": OffloadBundle.decode,
    "payload": decode_payload,
}
DECODERS = {
    **{kind.__name__: kind.from_bytes for kind in CONTROL_BODIES},
    "request": decode_request,
    "response": decode_response,
    "resource": decode_resource,
    "notify": _notify,
    "NotifyHead": NotifyHead.from_bytes,
    "BundleHead": BundleHead.from_bytes,
    "_Meta": _Meta.from_bytes,
    "FunctionImage": FunctionImage.from_bytes,
    "create": _dispatched(Operation.CREATE),
    "update": _dispatched(Operation.UPDATE),
    **{
        name: lambda data, decode=decode: decode(data.decode("latin-1"))
        for name, decode in TEXT_DECODERS.items()
    },
}

# encodings that every decoder refuses: malformed numbers and repeated keys
REFUSED = {
    "request": [
        b"op=1_0\nto=x\nfr=y\nrqi=z",
        b"op=1\nop=2\nto=x\nfr=y\nrqi=z",
        b"op=+2\nto=x\nfr=y\nrqi=z",
        b"op=2\nto=x\nfr=y\nrqi=z\nty= 4",
    ],
    "response": [b"rqi=r\nrsc=2_000", b"rqi=r\nrsc=2000\nrsc=4000", b"rqi=r\nrsc=+2000"],
    "resource": [
        b"ty=4;nm=a;ct=nan;lt=inf",
        b"ty=4;nm=a;ct=1_0;lt=0",
        b"ty=4;nm=a;ct=%201;lt=0",
        b"ty=4;nm=a;ct=1e999;lt=0",
        b"ty=4;nm=a;nm=b;ct=0;lt=0",
        b"ty=4;nm=a;ct=0;lt=0;x",
        b"ty=9;nm=a;ct=0;lt=0",
    ],
    "notify": [
        b"ev=created;pt=IN-CSE/a/x\nty=4;nm=x;ct=nan;lt=0.0",
        b"ev=created;ev=deleted;pt=IN-CSE/a/x\nty=4;nm=x;ct=0.0;lt=0.0",
        b"ev=created;pt=IN-CSE/a/x\nty=4;nm=x;ct=0.0;lt=0.0\nty=4",
    ],
    "NotifyHead": [b"ev=created;ev=deleted;pt=x", b"ev=\xff;pt=x"],
    "create": [b"nm=a;nm=b", b"nm=a;pc=!!!", b"nm=la", b"nt=cloud%7CIN-CSE"],
    "update": [b"ty=4", b"pc=AAAA", b"nm=a;nm=b", b"nt=cloud%7CIN-CSE"],
    "bundle": [
        b"tid=t;at=1;rt=IN-CSE%2Fa;n=1\npi=-1;ty=3;nm=a;ct=nan\n",
        b"tid=t;at=inf;rt=IN-CSE%2Fa;n=1\npi=-1;ty=3;nm=a;ct=0\n",
        b"tid=t;at=1;rt=IN-CSE%2Fa;n=0_1\npi=-1;ty=3;nm=a;ct=0\n",
        b"tid=t;at=1;rt=IN-CSE%2Fa;n=1\npi=-1;ty=3;ty=4;nm=a;ct=0\n",
        b"tid=t;at=1;rt=IN-CSE%2Fa;n=1\npi;pi=-1;ty=3;nm=a;ct=0\n",
        # parent indexes: not an integer, a first record not at -1, -1 after
        # the first, a record's own index and a later record's
        b"tid=t;at=1;rt=IN-CSE%2Fa;n=1\npi=x;ty=3;nm=a;ct=0\n",
        b"tid=t;at=1;rt=IN-CSE%2Fa;n=1\npi=0;ty=3;nm=a;ct=0\n",
        b"tid=t;at=1;rt=IN-CSE%2Fa;n=2\npi=-1;ty=3;nm=a;ct=0\npi=-1;ty=3;nm=b;ct=0\n",
        b"tid=t;at=1;rt=IN-CSE%2Fa;n=2\npi=-1;ty=3;nm=a;ct=0\npi=1;ty=3;nm=b;ct=0\n",
        b"tid=t;at=1;rt=IN-CSE%2Fa;n=3\npi=-1;ty=3;nm=a;ct=0\npi=2;ty=3;nm=b;ct=0\n"
        b"pi=0;ty=3;nm=c;ct=0\n",
        # no task root path
        b"tid=t;at=1;n=1\npi=-1;ty=3;nm=a;ct=0\n",
    ],
    "SliceBody": [b"slc=a;slc=b", b"slc=a\nb", b"slc=\xc3\xbc", b"a=1"],
    "SliceProfile": [b"svc=s;svc=t;fn=retrieve;lc=normal", b"svc=s;fn=retrieve;lc=normal\n"],
    "CrashBody": [b"duration_ms=nan", b"duration_ms=1 "],
    "InstantiateBody": [b"ctx=c;slc=s;mem=1_0;cpu=0.5", b"ctx=c;mem=1;cpu=0.5"],
    "_Meta": [b"ctx=c;slc=s;mem=1;cpu=nan"],
    "BundleHead": [b"ctx=a;ctx=b;mode=eager"],
    "FunctionImage": [b"img=i;fn=RETRIEVE;ver=1;size=-1"],
    "BundleTransfer": [b"ctx=c\ntid=t;at=1;rt=IN-CSE%2Fa;n=1\npi=-1;ty=3;nm=a;ct=0\n"],
}


@st.composite
def edited(draw, seeds: list[bytes]) -> bytes:
    """A valid encoding with up to three spans replaced by arbitrary bytes."""
    data = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 8)))
        data = data[:start] + draw(st.binary(max_size=6)) + data[end:]
    return data


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_valid_seeds_decode(name):
    assert SEEDS[name]
    for seed in SEEDS[name]:
        DECODERS[name](seed)


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_decoders_raise_only_bad_request(name):
    decoder = DECODERS[name]

    @PROPERTY
    @given(st.one_of(
        st.binary(max_size=64), st.text().map(str.encode), edited(SEEDS[name] + REFUSED.get(name, []))
    ))
    def check(data):
        try:
            decoder(data)
        except BadRequestError:
            pass

    check()


@pytest.mark.parametrize(
    "decoder, data",
    [
        (decode_request, b"op=2\nto=IN-CSE/\xc3\xbc\nfr=d\nrqi=r"),
        (decode_response, b"rqi=\xff\nrsc=2000"),
        (decode_resource, b"ty=3;nm=\xe2\x82\xac;ct=0;lt=0"),
        (_notify, b"ev=created;pt=\xff\nty=4"),
        (lambda data: OffloadBundle.decode(data.decode()), b"tid=x;at=1.0"),
        (decode_request, b"op=1\nto=a\nfr=d\nrqi=r\npc=b:!!!"),
        (lambda data: decode_payload(data.decode()), b"b:!!!"),
        (lambda data: decode_payload(data.decode()), b"b:AAE"),
        (lambda data: decode_b64(data.decode()), b"AAAA\n"),
        (lambda data: read_line(data, ("nm",)), b"nm=\xc3\xbc"),
        # a catalogue line's size is an integer as str(int) writes one
        (lambda data: ImageCatalogue.load(data.decode()), b"img,retrieve,1.0,abc"),
        (lambda data: ImageCatalogue.load(data.decode()), b"img,retrieve,1.0, 1_000"),
        (lambda data: ImageCatalogue.load(data.decode()), b"img,retrieve,1.0,+5"),
    ]
    + [(DECODERS[name], data) for name in sorted(REFUSED) for data in REFUSED[name]],
)
def test_malformed_inputs_raise_bad_request(decoder, data):
    with pytest.raises(BadRequestError):
        decoder(data)


# the readers of one line, each built on ``read_line``, and the keys each requires
ONE_LINE_READERS = {
    "NotifyHead": ("ev", "pt"),
    "BundleHead": ("mode",),
    "_Meta": ("ctx", "slc", "mem", "cpu"),
    "FunctionImage": FunctionImage._KEYS,
    "resource": ("ty", "nm", "ct", "lt"),
    "create": (),
    "update": (),
    "SliceProfile": SliceProfile._KEYS,
    **{kind.__name__: tuple(kind._required) for kind in CONTROL_BODIES if hasattr(kind, "_required")},
}


@pytest.mark.parametrize("name", sorted(ONE_LINE_READERS))
def test_a_one_line_body_with_a_second_line_is_refused(name):
    for seed in SEEDS[name]:
        for second in (b"", seed, b"x=1"):
            with pytest.raises(BadRequestError):
                DECODERS[name](seed + b"\n" + second)


@pytest.mark.parametrize("name", sorted(name for name, keys in ONE_LINE_READERS.items() if keys))
def test_a_one_line_body_without_a_key_it_requires_is_refused(name):
    for seed in SEEDS[name]:
        fields = seed.split(b";")
        for key in ONE_LINE_READERS[name]:
            with pytest.raises(BadRequestError):
                DECODERS[name](b";".join(f for f in fields if not f.startswith(key.encode() + b"=")))


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_a_lone_surrogate_raises_only_bad_request(name):
    """Text decoders see the surrogate as text; the others see its bytes."""

    @PROPERTY
    @given(edited(SEEDS[name]), st.integers(0, 64), st.sampled_from(["\ud800", "%\udfff", "%C3\udc80"]))
    def check(seed, at, inserted):
        text = seed.decode("latin-1")
        text = text[:at] + inserted + text[at:]
        try:
            if name in TEXT_DECODERS:
                TEXT_DECODERS[name](text)
            else:
                DECODERS[name](text.encode("utf-8", "surrogatepass"))
        except BadRequestError:
            pass

    check()


@pytest.mark.parametrize("decoder", [unquote, decode_fieldline, decode_labels])
def test_codec_decoders_refuse_a_lone_surrogate_beside_an_escape(decoder):
    with pytest.raises(BadRequestError):
        decoder("nm=a%41\ud800")


@pytest.mark.parametrize("text, value", [("0", 0), ("-12", -12), ("007", 7), ("2000", 2000)])
def test_parse_int_takes_ascii_digits(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("text", ["", "-", "+1", "1_0", " 1", "1 ", "\u0661", "0x1", "--1", "1.0"])
def test_parse_int_refuses_what_str_int_never_writes(text):
    with pytest.raises(BadRequestError):
        parse_int(text)


@pytest.mark.parametrize("value", [0.0, -0.0, 1e-05, 5e-324, 1e22, 21254.8, -3.5])
def test_parse_float_reads_repr(value):
    assert parse_float(repr(value)) == value
    assert repr(parse_float(repr(value))) == repr(value)


@pytest.mark.parametrize(
    "text", ["", "nan", "inf", "-inf", "Infinity", "1e999", "1_0", " 1.0", "1.0\n", "\u0661.5", "x"]
)
def test_parse_float_refuses_non_finite_and_spaced_numbers(text):
    with pytest.raises(BadRequestError):
        parse_float(text)


# --- round trips ---

@PROPERTY
@given(
    st.sampled_from(Operation),
    TEXT,
    TEXT,
    TEXT,
    st.one_of(st.none(), st.sampled_from(ResourceKind)),
    CONTENT,
)
def test_request_round_trip(op, to, originator, rqi, kind, content):
    req = RequestPrimitive(op, to, originator, rqi, kind, content)
    data = req.encode()
    assert decode_request(data) == req
    assert decode_request(data).encode() == data


@PROPERTY
@given(TEXT, st.sampled_from(StatusCode), CONTENT)
def test_response_round_trip(rqi, status, content):
    resp = ResponsePrimitive(rqi, status, content)
    data = resp.encode()
    assert decode_response(data) == resp
    assert decode_response(data).encode() == data


@PROPERTY
@given(CONTENT.filter(lambda c: c is not None))
def test_payload_round_trip(content):
    assert decode_payload(encode_payload(content)) == content
    assert encode_payload(content).startswith("t:" if content.isascii() else "b:")


@PROPERTY
@given(st.text(min_size=1).filter(lambda text: not text.isascii()).map(lambda text: "t:" + text))
def test_a_t_payload_holding_raw_non_ascii_is_refused(value):
    with pytest.raises(BadRequestError):
        decode_payload(value)


@st.composite
def resources(draw) -> Resource:
    kind = draw(st.sampled_from(ResourceKind))
    # a target's node is everything before the first "|", so it holds none
    node = st.text().filter(lambda t: "|" not in t)
    return Resource(
        id="x_0001",
        name=draw(TEXT),
        kind=kind,
        parent_id=None,
        creation_time=draw(TIMES),
        last_modified_time=draw(TIMES),
        content=draw(st.binary(max_size=48)) if kind is ResourceKind.CONTENT_INSTANCE else None,
        notification_target=(
            (draw(node), draw(TEXT)) if kind is ResourceKind.SUBSCRIPTION else None
        ),
        labels=draw(st.lists(TEXT, max_size=3)),
    )


@PROPERTY
@given(resources(), st.one_of(st.none(), TEXT))
def test_resource_round_trip(resource, path):
    data = encode_resource(resource, path)
    view = decode_resource(data)
    assert (view.kind, view.name, view.path) == (resource.kind, resource.name, path)
    assert (view.creation_time, view.last_modified_time) == (
        resource.creation_time,
        resource.last_modified_time,
    )
    assert view.content == resource.content
    assert view.notification_target == resource.notification_target
    assert list(view.labels) == resource.labels
    assert encode_resource(view, view.path) == data


@st.composite
def notify_bodies(draw) -> NotifyBody:
    r = draw(resources())
    view = ResourceView(r.kind, r.name, r.creation_time, r.last_modified_time,
                        draw(st.one_of(st.none(), TEXT)), r.content, r.notification_target,
                        tuple(r.labels))
    return NotifyBody(draw(TEXT), draw(TEXT), view, draw(st.one_of(st.none(), TEXT)))


@PROPERTY
@given(notify_bodies(), st.data())
def test_notify_body_round_trip(body, data):
    encoded = body.to_bytes()
    assert NotifyBody.from_bytes(encoded) == body
    try:
        NotifyBody.from_bytes(data.draw(edited([encoded])))
    except BadRequestError:
        pass


def test_names_and_labels_with_quoting_characters_survive_a_round_trip():
    """Names cross in an offload bundle's text, labels in a resource's
    representation; both keep every quoting character."""
    cloud = sample_tree()
    root = ResourcePath("IN-CSE", ("Pedestrians",))
    text = make_bundle(cloud, root, "t", 1.0).encode()
    edge = ResourceTree("MN-CSE")
    edge_root = import_bundle(edge, OffloadBundle.decode(text))
    assert subtrees_converged(cloud, root, edge, edge_root)
    odd = edge.resolve(ResourcePath("MN-CSE", ("Pedestrians", ODD_NAME)))
    assert odd.name == "a%41b;x=y"
    assert edge.resolve(ResourcePath("MN-CSE", ("Pedestrians", "Zürich straße")))
    source = cloud.resolve(ResourcePath("IN-CSE", ("Pedestrians", ODD_NAME)))
    view = decode_resource(encode_resource(source, "IN-CSE/Pedestrians/" + ODD_NAME))
    assert view.name == ODD_NAME
    assert view.labels == tuple(ODD_LABELS)


# a legal resource name: nonempty, no "/", not the reserved "la"
NAMES = TEXT.filter(lambda text: text and "/" not in text and text != LATEST_SEGMENT)


@st.composite
def index_bundles(draw) -> OffloadBundle:
    """A bundle as ``make_bundle`` makes them: a root path of legal segments,
    the root's record named as its last segment, every other record under an
    earlier one, and no two siblings of one name."""
    root = draw(st.lists(NAMES, min_size=2, max_size=4))
    records = [BundleRecord(-1, draw(st.sampled_from(ResourceKind)), root[-1], draw(TIMES),
                            draw(CONTENT))]
    taken = set()
    for index in range(1, draw(st.integers(1, 6))):
        parent = draw(st.integers(0, index - 1))
        name = draw(NAMES.filter(lambda text: (parent, text) not in taken))
        taken.add((parent, name))
        records.append(BundleRecord(parent, draw(st.sampled_from(ResourceKind)), name, draw(TIMES),
                                    draw(CONTENT)))
    return OffloadBundle(draw(TEXT), draw(TIMES), "/".join(root), tuple(records))


@PROPERTY
@given(index_bundles())
def test_bundle_round_trip(bundle):
    text = bundle.encode()
    assert OffloadBundle.decode(text) == bundle
    assert OffloadBundle.decode(text).encode() == text


@PROPERTY
@given(index_bundles())
def test_bundle_lines_are_written_as_encode_fieldline_writes_them(bundle):
    head, *lines, end = bundle.encode().split("\n")
    assert head == encode_fieldline([("tid", bundle.task_id), ("at", repr(bundle.exported_at)),
                                     ("rt", bundle.root), ("n", str(len(bundle.records)))])
    assert len(lines) == len(bundle.records) and end == ""
    for line, (parent, kind, name, created, content) in zip(lines, bundle.records):
        pairs = [("pi", str(parent)), ("ty", str(kind.value)), ("nm", name), ("ct", repr(created))]
        assert line == encode_fieldline(pairs + ([] if content is None else [("pc", encode_b64(content))]))


MAYBE_TEXT = st.one_of(st.none(), TEXT)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
IMAGES = st.builds(FunctionImage, TEXT, st.sampled_from(FunctionKind), TEXT, st.integers(min_value=0))
QUOTAS = st.builds(ResourceQuota, st.integers(min_value=1), st.floats(0, 1, exclude_min=True))
HEADS = st.builds(BundleHead, MAYBE_TEXT, TEXT)
NOTIFY_HEADS = st.builds(NotifyHead, TEXT, TEXT, MAYBE_TEXT)
# every body type, and every line type a body is made of
BODIES = {
    SliceProfile: st.builds(SliceProfile, TEXT, st.frozensets(st.sampled_from(FunctionKind), min_size=1),
                            st.sampled_from(LatencyClass)),
    InstantiateBody: st.builds(InstantiateBody, TEXT, TEXT, QUOTAS, st.lists(IMAGES, max_size=3).map(tuple)),
    RecordBody: st.builds(RecordBody, TEXT, TEXT, MAYBE_TEXT, MAYBE_TEXT),
    ReadyBody: st.builds(ReadyBody, TEXT, TEXT),
    BundleTransfer: st.builds(BundleTransfer, HEADS, st.deferred(lambda: index_bundles())),
    TaskRoot: st.builds(TaskRoot, TEXT, TEXT),
    FunctionBody: st.builds(FunctionBody, TEXT),
    CrashBody: st.builds(CrashBody, NUMBERS),
    SliceBody: st.builds(SliceBody, TEXT),
    SyncedBody: st.builds(SyncedBody, st.integers()),
    FunctionImage: IMAGES,
    BundleHead: HEADS,
    NotifyHead: NOTIFY_HEADS,
}


def test_every_body_type_is_round_tripped():
    """Each package class that reads itself from bytes is a body type above,
    but for the notification's body, which has its own round trip."""
    readable = set()
    for info in pkgutil.iter_modules(edgeslice.__path__):
        module = importlib.import_module(f"edgeslice.{info.name}")
        readable |= {value for name, value in vars(module).items()
                     if isinstance(value, type) and not issubclass(value, int)  # ``int.from_bytes``
                     and hasattr(value, "from_bytes") and not name.startswith("_")}
    assert readable == set(BODIES) | {OffloadBundle, NotifyBody}
    assert set(CONTROL_BODIES) <= set(BODIES)


def test_an_instantiate_body_is_its_meta_line_then_one_line_per_image():
    """The slice id rides on the meta line; no plan line precedes it."""
    images = tuple(default_catalogue().lookup(fn) for fn in (FunctionKind.RETRIEVE, FunctionKind.NOTIFICATION))
    body = InstantiateBody("ctx-1", "slice-edge0", ResourceQuota(256_000_000, 0.25), images)
    assert body.to_bytes().split(b"\n") == [b"ctx=ctx-1;slc=slice-edge0;mem=256000000;cpu=0.25",
                                            *[image.to_bytes() for image in images]]


@pytest.mark.parametrize("kind", list(BODIES), ids=lambda kind: kind.__name__)
def test_body_round_trip(kind):
    @PROPERTY
    @given(BODIES[kind])
    def check(body):
        data = body.to_bytes()
        assert kind.from_bytes(data) == body
        assert kind.from_bytes(data).to_bytes() == data

    check()


# a key is never quoted, so it is printable ASCII without the separators
FIELD_KEYS = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=";="),
                     min_size=1, max_size=6)


# values made of the separators, the escape, the base64 alphabet's extras and
# every ASCII control character
SEPARATED = st.text(alphabet=st.sampled_from(list("=;%+/\n,:| aZ9ü") + [chr(c) for c in range(32)]
                                              + ["\x7f"]))


@PROPERTY
@given(st.dictionaries(FIELD_KEYS, st.one_of(SEPARATED, TEXT), max_size=5))
def test_field_values_round_trip_through_a_t_payload(fields):
    line = encode_fieldline(list(fields.items()))
    payload = encode_payload(line.encode("ascii"))
    assert payload.startswith("t:")
    assert decode_fieldline(decode_payload(payload).decode("ascii")) == fields


# --- one codec ---

PERCENT_AND_BASE64 = {"urllib", "base64", "binascii"}


def test_only_the_codec_imports_urllib_base64_or_binascii():
    package = Path(__file__).resolve().parent.parent / "src" / "edgeslice"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "codec":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {m}" for m in modules if m.split(".")[0] in PERCENT_AND_BASE64]
    assert offenders == []
