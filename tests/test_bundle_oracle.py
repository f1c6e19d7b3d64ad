"""Differential tests of the offload bundle stages against ``bundle_oracle``.

The current ``make_bundle`` and ``OffloadBundle.encode`` must agree with the
earlier implementations kept in ``bundle_oracle``: the same records once
their source paths are spelled out, and the same text byte for byte.

``OffloadBundle.decode`` followed by ``import_bundle`` must agree with the
oracle's decode and import on any text: the same edge tree, or the same
exception class, and a refused import leaves the edge tree as it was, which
the oracle's did not. ``decode`` finds each record's parent, so it refuses a
record outside the task root, or one whose parent is not earlier in the
bundle, before the import reads the edge tree; for such text the oracle may
refuse with ``ConflictError`` instead, when the task root is on the edge
already. One text the oracle imports is refused: a record after the first
at the task root's own path, which the oracle grafted beside the root,
outside the task. Hypothesis runs derandomized with a bounded example count,
as in ``test_codec``.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundle_oracle as oracle
from edgeslice.bench import build_system
from edgeslice.errors import BadRequestError, ConflictError, EdgeSliceError
from edgeslice.offload import BundleRecord, OffloadBundle, import_bundle, make_bundle
from edgeslice.resources import ManualClock, ResourceKind, ResourcePath, ResourceTree
from util import RandomTreeWorkload, trees_equal
from wire_samples import prepare_200_config, sample_tree

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# segments and names that exercise the quoting rules and the %2F cut
ODD = ["%", ";", "=", "%2F", "%2f", "a%2Fb", "%C3", "%A9", "ü", "😀", "a b", "x=y;z", "la", ""]
SEGMENT = st.one_of(st.sampled_from(ODD), st.text(max_size=4))
PATH = st.lists(SEGMENT, max_size=5).map("/".join)
TIMES = st.one_of(
    st.floats(),
    st.sampled_from([1e-05, -0.0, 0.0, float("inf"), float("-inf"), 1e16, 1e22, 5e-324]),
)
CONTENT = st.one_of(st.none(), st.binary(max_size=24))
KINDS = st.sampled_from(ResourceKind)


@st.composite
def bundles(draw) -> OffloadBundle:
    """A bundle of any root, names, kinds and times, each record under an
    earlier one."""
    records = tuple(
        BundleRecord(draw(st.integers(0, index - 1)) if index else -1, draw(KINDS), draw(SEGMENT),
                     draw(TIMES), draw(CONTENT))
        for index in range(draw(st.integers(0, 6)))
    )
    return OffloadBundle(draw(st.one_of(st.text(max_size=6), st.sampled_from(ODD))), draw(TIMES),
                         draw(PATH), records)


@st.composite
def path_bundles(draw) -> oracle.PathBundle:
    """A bundle in the oracle's form, with any path on any record."""
    records = []
    for _ in range(draw(st.integers(0, 6))):
        path = draw(PATH)
        name = path.rpartition("/")[2] if draw(st.booleans()) else draw(SEGMENT)
        records.append(oracle.PathRecord(path, draw(KINDS), name, draw(TIMES), draw(CONTENT)))
    return oracle.PathBundle(draw(st.one_of(st.text(max_size=6), st.sampled_from(ODD))),
                             draw(TIMES), tuple(records))


def benchmark_tree() -> tuple[ResourceTree, ResourcePath]:
    """The calibrated scenario's cloud tree with 200 content instances in its task."""
    config = prepare_200_config()
    system = build_system(config, "edge", 42)
    return system.cloud.tree, ResourcePath.parse(config.tasks[0].root)


# --- export and encode ---

def test_benchmark_bundle_matches_oracle():
    tree, root = benchmark_tree()
    bundle = make_bundle(tree, root, "task-citizenB", 21254.8)
    assert len(bundle.records) == 202
    spelled = oracle.as_paths(bundle)
    assert spelled == oracle.make_bundle(tree, root, "task-citizenB", 21254.8)
    text = bundle.encode()
    assert text == oracle.encode(spelled)
    assert OffloadBundle.decode(text) == bundle
    assert oracle.decode(text) == spelled
    old, new = ResourceTree("MN-CSE", ManualClock(3.0)), ResourceTree("MN-CSE", ManualClock(3.0))
    assert import_bundle(new, bundle) == oracle.import_bundle(old, spelled)
    assert trees_equal(old, new)
    assert old.serialize() == new.serialize()


@pytest.mark.parametrize("seed", range(4))
def test_make_bundle_matches_oracle_on_random_trees(seed):
    clock = ManualClock()
    tree = sample_tree() if seed == 0 else ResourceTree("IN-CSE", clock)
    RandomTreeWorkload(tree, clock, random.Random(seed)).run(300)
    for node in tree.walk():
        if node.kind in (ResourceKind.AE, ResourceKind.CONTAINER):
            path = tree.path_of(node)
            bundle = make_bundle(tree, path, "t", 1.5)
            assert oracle.as_paths(bundle) == oracle.make_bundle(tree, path, "t", 1.5)
            assert bundle.encode() == oracle.encode(oracle.as_paths(bundle))
            assert OffloadBundle.decode(bundle.encode()) == bundle


def test_make_bundle_leaves_what_is_below_a_subscription_at_home():
    tree = ResourceTree("IN-CSE")
    root = tree.create(ResourcePath("IN-CSE"), ResourceKind.CONTAINER, "A")
    tree.create(root, ResourceKind.SUBSCRIPTION, "s", notification_target=("app", "APP/x"))
    tree.create(root, ResourceKind.CONTENT_INSTANCE, "after", content=b"v")
    # the cnt and ci counters raised to 2, so that the tree could have minted both added ids
    header = "cnt%3A1%2Cci%3A1"
    assert header in tree.serialize()
    dump = tree.serialize().replace(header, "cnt%3A2%2Cci%3A2") + (
        "id=ci_0002;pid=sub_0001;ty=4;nm=odd;ct=0.0;lt=0.0;pc=AA==\n"
        "id=cnt_0002;pid=ci_0002;ty=3;nm=deep;ct=0.0;lt=0.0\n"
    )
    # create() never nests under a subscription, and a tree dump may not either
    with pytest.raises(BadRequestError):
        ResourceTree.deserialize(dump)
    bundle = make_bundle(tree, root, "t", 0.0)
    assert bundle.records == (
        BundleRecord(-1, ResourceKind.CONTAINER, "A", 0.0),
        BundleRecord(0, ResourceKind.CONTENT_INSTANCE, "after", 0.0, b"v"),
    )
    exported = oracle.make_bundle(tree, root, "t", 0.0)
    assert [r.source_path for r in exported.records] == ["IN-CSE/A", "IN-CSE/A/after"]
    edge = ResourceTree("MN-CSE")
    assert str(import_bundle(edge, bundle)) == "MN-CSE/A"
    assert [n.name for n in edge.walk()] == ["MN-CSE", "A", "after"]


@PROPERTY
@given(bundles())
def test_encode_matches_oracle(bundle):
    assert bundle.encode() == oracle.encode(oracle.as_paths(bundle))


# --- decode and import ---

SMALL = ["A", "B", "c", "x", "y"]
NAME = st.one_of(st.sampled_from(SMALL), st.sampled_from(["la", "", "a/b", "%2F"]))


def variant(path: str):
    """``path`` or one of the spellings ``ResourcePath.parse`` reads as it."""
    return st.sampled_from([path, path, path, "/" + path, path + "/", path.replace("/", "//"), path + "/la"])


EDGE_SETUPS = {
    "empty": [],
    "group exists": [("", ResourceKind.CONTAINER, "A")],
    "group is an Ae": [("", ResourceKind.AE, "A")],
    "root exists": [("", ResourceKind.CONTAINER, "A"), ("A", ResourceKind.CONTAINER, "B")],
    "sibling exists": [("", ResourceKind.CONTAINER, "A"), ("A", ResourceKind.CONTAINER, "y")],
    "group under an instance": [
        ("", ResourceKind.CONTAINER, "A"),
        ("A", ResourceKind.CONTENT_INSTANCE, "B"),
    ],
}


def edge_tree(setup: str) -> ResourceTree:
    tree = ResourceTree("MN-CSE", ManualClock(5.0))
    for parent, kind, name in EDGE_SETUPS[setup]:
        content = b"v" if kind is ResourceKind.CONTENT_INSTANCE else None
        tree.create(ResourcePath("MN-CSE", tuple(filter(None, parent.split("/")))), kind, name,
                    content=content)
    tree.drain_events()
    return tree


@st.composite
def import_cases(draw) -> tuple[str, str]:
    """An edge set-up and the text of a bundle; about half the bundles keep
    to legal choices, the others mix in faults and odd spellings."""
    noisy = draw(st.booleans())
    root = draw(st.sampled_from(["IN-CSE/A/B", "IN-CSE/c/A/B"]
                                + (["IN-CSE/A", "IN-CSE", "X-CSE/A/B", "IN-CSE/la/B"] if noisy else [])))
    group, _, last = root.rpartition("/")
    kinds = st.sampled_from(
        list(ResourceKind) if noisy else [ResourceKind.CONTAINER, ResourceKind.CONTENT_INSTANCE]
    )
    first_name = draw(NAME) if noisy and draw(st.integers(0, 4)) == 0 else last
    first_kind = draw(kinds) if noisy else ResourceKind.CONTAINER
    recs = [(draw(variant(root)) if noisy else root, first_kind, first_name)]
    containers = [group + "/" + first_name]
    for index in range(draw(st.integers(0, 6))):
        parents = containers + (["IN-CSE/B", group] if noisy else [])
        parent = draw(st.sampled_from(parents))
        name = draw(NAME) if noisy else f"{draw(st.sampled_from(SMALL))}{index}"
        segment = draw(st.sampled_from(SMALL)) if noisy and draw(st.integers(0, 4)) == 0 else name
        kind = draw(kinds)
        path = parent + "/" + segment
        recs.append((draw(variant(path)) if noisy else path, kind, name))
        if noisy or kind is ResourceKind.CONTAINER:
            containers.append(parent + "/" + name)
    records = tuple(
        oracle.PathRecord(path, kind, name, draw(st.sampled_from([0.0, 2.5])),
                          b"c" if kind is ResourceKind.CONTENT_INSTANCE else None)
        for path, kind, name in recs
    )
    setups = sorted(EDGE_SETUPS) if noisy else ["empty", "group exists", "sibling exists"]
    return draw(st.sampled_from(setups)), oracle.encode(oracle.PathBundle("t", 1.0, records))


def _import(decode, function, tree: ResourceTree, text: str):
    """The imported root, or the class of the exception that refused the text."""
    try:
        return function(tree, decode(text))
    except EdgeSliceError as exc:
        return type(exc)


def _names_the_root_again(text: str) -> bool:
    """Whether a record after the first of the oracle's bundle is at the
    task root's own path."""
    records = oracle.decode(text).records
    root = ResourcePath.parse(records[0].source_path)
    return any(
        (path.cse_label, path.segments) == (root.cse_label, root.segments)
        for path in (ResourcePath.parse(r.source_path) for r in records[1:])
    )


def check_against_oracle(setup: str, text: str) -> None:
    old, new = edge_tree(setup), edge_tree(setup)
    before = new.serialize()
    expected = _import(oracle.decode, oracle.import_bundle, old, text)
    try:
        OffloadBundle.decode(text)
    except BadRequestError:
        if isinstance(expected, ResourcePath):
            assert _names_the_root_again(text)
        else:
            assert expected in (BadRequestError, ConflictError)
        return
    assert _import(OffloadBundle.decode, import_bundle, new, text) == expected
    if isinstance(expected, ResourcePath):
        assert trees_equal(old, new)
    else:
        assert new.serialize() == before


@settings(PROPERTY, max_examples=300)
@given(import_cases())
def test_decode_and_import_match_oracle(case):
    check_against_oracle(*case)


# characters that matter to the decoder, including halves of escapes
EDIT = st.lists(
    st.sampled_from(list("%;=\n/2FfC3A9ü0.ex+-") + ["%2F", "%C3", "pt=", "ty=", "pc=", ";ct="]),
    max_size=3,
).map("".join)


@st.composite
def edited(draw, texts) -> str:
    """A text drawn from ``texts`` with up to three spans replaced."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(EDIT) + text[end:]
    return text


@PROPERTY
@given(
    st.sampled_from(sorted(EDGE_SETUPS)),
    st.one_of(
        st.text(max_size=64),
        edited(path_bundles().map(oracle.encode)),
        edited(import_cases().map(lambda case: case[1])),
        path_bundles().map(oracle.encode),
    ),
)
def test_decode_and_import_match_oracle_on_any_text(setup, text):
    check_against_oracle(setup, text)


@pytest.mark.parametrize(
    "text",
    [
        "tid=t;at=1;n=1\npt=IN-CSE%2Fa%C3%2F%A9b;ty=3;nm=x;ct=0\n",  # split UTF-8 around /
        "tid=t;at=1;n=1\npt=a%2fb%2Fc;ty=3;nm=c;ct=0\n",  # lowercase escape
        "tid=t;at=1;n=2\npt=IN-CSE%2Fa;ty=3;nm=a;ct=0\npt=IN-CSE%2fa%2Fc;ty=3;nm=c;ct=0\n",
        "tid=t;at=1;n=1\npt=IN-CSE%2Fa;ty=3;ty=4;nm=a;zz=1;ct=1e-05;;\n",  # repeats, extras
        "tid=t;at=1;n=1\npt;pt=IN-CSE%2Fx;ty=03;nm=x;ct=-0.0\n",
        "tid=t;at=1;n=1\npt=IN-CSE%2Fx;ty=3;nm=x;ct=1;pc=QQ%3D%3D\n",  # quoted base64
        "tid=t;at=1;n=1\npt=x;ty=9;nm=x;ct=1\n",
        "tid=t;at=1;n=1\npt=x;ty=3;nm=x\n",
        "tid=t;at=1;n=2\npt=x;ty=3;nm=x;ct=1\n",
        "tid=t;at=1;n=0\n",
        "tid=t;at=1;n=2\npt=IN-CSE%2Fa;ty=3;nm=a;ct=0\npt=IN-CSE%2Fa;ty=3;nm=b;ct=0\n",  # root again
        "tid=t;at=1;n=2\npt=IN-CSE%2Fa;ty=3;nm=a;ct=0\npt=%2FIN-CSE%2Fa%2Fb%2Fla;ty=3;nm=b;ct=0\n",
    ],
)
@pytest.mark.parametrize("setup", ["empty", "root exists"])
def test_decode_and_import_match_oracle_on_edge_cases(text, setup):
    check_against_oracle(setup, text)
