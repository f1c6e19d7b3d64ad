import pytest

from edgeslice import errors
from edgeslice.errors import BadRequestError
from edgeslice.images import FunctionImage
from edgeslice.primitives import (
    Operation,
    RequestPrimitive,
    ResponsePrimitive,
    StatusCode,
    decode_request,
    decode_resource,
    decode_response,
    encode_resource,
    error_response,
    is_response,
)
from edgeslice.resources import Resource, ResourceKind, ResourcePath, ResourceTree
from edgeslice.slicing import FUNCTION_BY_NAME, SliceProfile
from edgeslice.system import SliceBody, SyncedBody


def test_operation_wire_codes():
    assert int(Operation.CREATE) == 1
    assert int(Operation.RETRIEVE) == 2
    assert int(Operation.UPDATE) == 3
    assert int(Operation.DELETE) == 4
    assert int(Operation.NOTIFY) == 5
    assert int(Operation.SERVICE_REQUEST) == 10
    assert int(Operation.SLICE_INSTANTIATE) == 11
    assert int(Operation.SLICE_RECORD) == 12
    assert int(Operation.SLICE_TERMINATE) == 13
    assert int(Operation.STOP_FUNCTION) == 21
    assert int(Operation.CRASH) == 22
    assert int(Operation.BUNDLE_TRANSFER) == 31
    assert int(Operation.SYNC_FINALIZE) == 32


def test_status_wire_codes():
    assert int(StatusCode.OK) == 2000
    assert int(StatusCode.CREATED) == 2001
    assert int(StatusCode.NOT_FOUND) == 4004
    assert int(StatusCode.BAD_REQUEST) == 4000
    assert int(StatusCode.FUNCTION_NOT_ENABLED) == 4005
    assert int(StatusCode.CONFLICT) == 4009


def test_request_round_trip():
    req = RequestPrimitive(
        operation=Operation.CREATE,
        to="MN-CSE/Pedestrians/CitizenB/location",
        originator="dev0",
        request_id="dev0-000001",
        resource_kind=ResourceKind.CONTENT_INSTANCE,
        content=b"nm=ci;pc=AAAA",
    )
    data = req.encode()
    assert decode_request(data) == req


def test_request_encoding_is_byte_stable_and_readable():
    req = RequestPrimitive(Operation.RETRIEVE, "MN-CSE/a/la", "dev0", "r1")
    data = req.encode()
    assert data == req.encode()
    assert data.split(b"\n")[0] == b"op=2"
    assert b"to=MN-CSE/a/la" in data


def test_binary_content_base64():
    req = RequestPrimitive(Operation.CREATE, "T", "d", "r", content=b"\x00\x01\xfe")
    data = req.encode()
    assert b"pc=b:" in data
    assert decode_request(data).content == b"\x00\x01\xfe"


def test_text_content_stays_readable():
    req = RequestPrimitive(Operation.CREATE, "T", "d", "r", content=b"nm=hello")
    assert b"pc=t:" in req.encode()
    assert decode_request(req.encode()).content == b"nm=hello"


def test_response_round_trip():
    resp = ResponsePrimitive("r1", StatusCode.CREATED, b"pt=MN-CSE/a")
    assert decode_response(resp.encode()) == resp
    assert is_response(resp.encode())
    assert not is_response(RequestPrimitive(Operation.NOTIFY, "a", "b", "c").encode())


def test_created_only_for_create_is_callers_contract():
    # the codec carries any combination; semantics are enforced by workers
    resp = ResponsePrimitive("r", StatusCode.OK)
    assert decode_response(resp.encode()).status is StatusCode.OK


def test_malformed_envelope_rejected():
    with pytest.raises(BadRequestError):
        decode_request(b"op=notanumber\nto=x\nfr=y\nrqi=z")
    with pytest.raises(BadRequestError):
        decode_request(b"to=x")
    with pytest.raises(BadRequestError):
        decode_response(b"rqi=x\nrsc=9999")


@pytest.mark.parametrize(
    "decode, data",
    [
        (decode_request, b"op=99\nto=x\nfr=y\nrqi=z"),
        (decode_request, b"op=1\nto=x\nfr=y\nrqi=z\nty=6"),
        (decode_response, b"rqi=x\nrsc=2002"),
        (decode_resource, b"ty=0;nm=a;ct=0.0;lt=0.0"),
    ],
    ids=["operation", "request-kind", "status", "resource-kind"],
)
def test_a_number_that_names_no_member_is_a_bad_request(decode, data):
    with pytest.raises(BadRequestError):
        decode(data)


def test_resource_representation_round_trip():
    tree = ResourceTree("MN-CSE", lambda: 3.5)
    path = tree.create(
        ResourcePath("MN-CSE"),
        ResourceKind.AE,
        "app entity",
        labels=["a,b", "c;d=e"],
    )
    res = tree.resolve(path)
    view = decode_resource(encode_resource(res, path))
    assert view.name == "app entity"
    assert view.kind is ResourceKind.AE
    assert view.path == "MN-CSE/app entity"
    assert view.creation_time == 3.5
    assert list(view.labels) == ["a,b", "c;d=e"]


def test_resource_representation_with_target_and_content():
    sub = Resource(
        id="sub_0001",
        name="sync",
        kind=ResourceKind.SUBSCRIPTION,
        parent_id="cnt_0001",
        creation_time=1.0,
        last_modified_time=2.0,
        notification_target=("cloud", "IN-CSE/Cars/CarA/location"),
    )
    view = decode_resource(encode_resource(sub))
    assert view.notification_target == ("cloud", "IN-CSE/Cars/CarA/location")
    ci = Resource(
        id="ci_0001",
        name="v",
        kind=ResourceKind.CONTENT_INSTANCE,
        parent_id="cnt_0001",
        creation_time=1.0,
        last_modified_time=1.0,
        content=bytes(range(64)),
    )
    assert decode_resource(encode_resource(ci)).content == bytes(range(64))


@pytest.mark.parametrize("error, status", [
    (errors.NotFoundError, StatusCode.NOT_FOUND),
    (errors.UnknownSliceError, StatusCode.NOT_FOUND),
    (errors.UnknownBindingError, StatusCode.NOT_FOUND),
    (errors.ConflictError, StatusCode.CONFLICT),
    (errors.BadRequestError, StatusCode.BAD_REQUEST),
    (errors.NoRouteError, StatusCode.BAD_REQUEST),
    (errors.ImageNotFoundError, StatusCode.BAD_REQUEST),
    (errors.AlreadyBoundError, StatusCode.BAD_REQUEST),
])
def test_a_package_error_is_answered_with_the_status_of_its_class(error, status):
    assert error_response("r-1", error("why")) == ResponsePrimitive("r-1", status, b"why")


@pytest.mark.parametrize("read", [
    lambda: SliceBody.from_bytes(b"a=1"),
    lambda: SliceBody.from_bytes(b"slc=a\nslc=b"),
    lambda: SyncedBody.from_bytes(b"synced=6_2590"),
    lambda: FUNCTION_BY_NAME["NOPE"],
    lambda: FunctionImage.from_bytes(b"img=i;fn=RETRIEVE;ver=1"),
    lambda: SliceProfile.from_bytes(b"svc=s;fn=retrieve"),
    lambda: SliceProfile.from_bytes(b"svc=s;fn=retrieve;lc=sideways"),
], ids=["missing-field", "second-line", "malformed-integer", "unknown-function", "image-without-size",
        "profile-without-class", "unknown-latency-class"])
def test_a_body_read_raises_only_bad_request(read):
    with pytest.raises(BadRequestError):
        read()
