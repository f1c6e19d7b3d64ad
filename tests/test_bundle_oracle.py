"""Differential tests of the offload bundle stages against ``bundle_oracle``.

The current ``make_bundle`` must agree with the earlier implementation kept
in ``bundle_oracle``: the same records once their source paths are spelled
out. A bundle crosses the wire unchanged: ``OffloadBundle.decode`` of its
``encode`` is the bundle.

``import_bundle`` must agree with the oracle's import on any bundle that
decodes: the same edge tree, or the same exception class, and a refused
import leaves the edge tree as it was, which the oracle's did not. The oracle
finds each record's parent by its path, spelled from the task root's path as
``import_bundle`` reads it (``ResourcePath.parse``); ``import_bundle`` reads
the parent index, which ``decode`` has checked names an earlier record. Both
refuse a task root that ends in ``/la``: it names a latest instance, not a
resource. One bundle the oracle imports is refused: a lone record
named apart from the end of the task root's path, which the oracle grafted
under a name other than the path it returned. Hypothesis runs derandomized
with a bounded example count, as in ``test_codec``.
"""
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundle_oracle as oracle
from edgeslice.bench import build_system
from edgeslice.errors import BadRequestError, EdgeSliceError
from edgeslice.offload import BundleRecord, OffloadBundle, import_bundle, make_bundle
from edgeslice.resources import ManualClock, ResourceKind, ResourcePath, ResourceTree
from util import RandomTreeWorkload, trees_equal
from wire_samples import prepare_200_config, sample_tree

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# segments and names that exercise the quoting rules
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


def benchmark_tree() -> tuple[ResourceTree, ResourcePath]:
    """The calibrated scenario's cloud tree with 200 content instances in its task."""
    config = prepare_200_config()
    system = build_system(config, "edge", 42)
    return system.cloud.tree, ResourcePath.parse(config.tasks[0].root)


# --- export and the wire ---

def test_benchmark_bundle_matches_oracle():
    tree, root = benchmark_tree()
    bundle = make_bundle(tree, root, "task-citizenB", 21254.8)
    assert len(bundle.records) == 202
    spelled = oracle.as_paths(bundle)
    assert spelled == oracle.make_bundle(tree, root, "task-citizenB", 21254.8)
    assert OffloadBundle.decode(bundle.encode()) == bundle
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
def test_decode_inverts_encode(bundle):
    """Any root, name and content crosses the wire; a bundle with no records
    or a time that is not finite is refused."""
    text = bundle.encode()
    times = [bundle.exported_at] + [r.creation_time for r in bundle.records]
    if bundle.records and all(abs(time) < float("inf") for time in times):
        assert OffloadBundle.decode(text) == bundle
    else:
        with pytest.raises(BadRequestError):
            OffloadBundle.decode(text)


# --- import ---

SMALL = ["A", "B", "c", "x", "y"]
NAME = st.one_of(st.sampled_from(SMALL), st.sampled_from(["la", "", "a/b", "%2F"]))
ROOTS = ["IN-CSE/A/B", "IN-CSE/c/A/B"]
NOISY_ROOTS = ["IN-CSE/A", "IN-CSE", "X-CSE/A/B", "IN-CSE/la/B", "/IN-CSE//A/B/", "IN-CSE/A/B/la"]

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
def import_cases(draw) -> tuple[str, OffloadBundle]:
    """An edge set-up and a bundle; about half the bundles keep to legal
    choices, the others mix faults into about one choice in five: odd roots,
    names, kinds and contents, and records under any earlier record."""
    noisy = draw(st.booleans())

    def fault() -> bool:
        return noisy and draw(st.integers(0, 4)) == 0

    root = draw(st.sampled_from(NOISY_ROOTS if fault() else ROOTS))
    records = [(-1, draw(KINDS) if fault() else ResourceKind.CONTAINER,
                draw(NAME) if fault() else root.rpartition("/")[2])]
    containers = [0]
    for index in range(1, draw(st.integers(1, 7))):
        parent = draw(st.sampled_from(range(index) if fault() else containers))
        kind = draw(KINDS if fault() else st.sampled_from(
            [ResourceKind.CONTAINER, ResourceKind.CONTENT_INSTANCE]))
        records.append((parent, kind, draw(NAME) if fault() else f"{draw(st.sampled_from(SMALL))}{index}"))
        if kind is ResourceKind.CONTAINER:
            containers.append(index)
    bundle = OffloadBundle("t", 1.0, root, tuple(
        BundleRecord(parent, kind, name, draw(st.sampled_from([0.0, 2.5])),
                     # content on an instance only, unless a fault flips it
                     b"c" if (kind is ResourceKind.CONTENT_INSTANCE) is not fault() else None)
        for parent, kind, name in records
    ))
    setups = sorted(EDGE_SETUPS) if noisy else ["empty", "group exists", "sibling exists"]
    return draw(st.sampled_from(setups)), bundle


def _import(function, tree: ResourceTree, bundle: OffloadBundle):
    """The imported root, or the class of the exception that refused the bundle."""
    try:
        return function(tree, bundle)
    except EdgeSliceError as exc:
        return type(exc)


def _oracle_import(tree: ResourceTree, bundle: OffloadBundle) -> ResourcePath:
    """The oracle's import of ``bundle``, its paths spelled from the task
    root's path as ``import_bundle`` reads it."""
    spelled = replace(bundle, root=str(ResourcePath.parse(bundle.root)))
    return oracle.import_bundle(tree, oracle.as_paths(spelled))


def check_against_oracle(setup: str, bundle: OffloadBundle) -> None:
    old, new = edge_tree(setup), edge_tree(setup)
    before = new.serialize()
    expected = _import(_oracle_import, old, bundle)
    got = _import(import_bundle, new, bundle)
    if got != expected:  # a lone record named apart from the end of its path
        assert got is BadRequestError and len(bundle.records) == 1
        assert bundle.records[0].name != ResourcePath.parse(bundle.root).segments[-1]
    if isinstance(got, ResourcePath):
        assert trees_equal(old, new)
    else:
        assert new.serialize() == before


@settings(PROPERTY, max_examples=300)
@given(import_cases())
def test_import_matches_oracle(case):
    setup, bundle = case
    decoded = OffloadBundle.decode(bundle.encode())
    assert decoded == bundle
    check_against_oracle(setup, decoded)


def check_text(setup: str, text: str) -> None:
    """``decode`` refuses ``text`` with ``BadRequestError``, or the import of
    what it reads agrees with the oracle's."""
    try:
        bundle = OffloadBundle.decode(text)
    except BadRequestError:
        return
    check_against_oracle(setup, bundle)


# characters that matter to the decoder, including halves of escapes
EDIT = st.lists(
    st.sampled_from(list("%;=\n/2FfC3A9ü0.ex+-") + ["%2F", "%C3", "pi=", "-1", "ty=", "pc=", ";ct="]),
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
        edited(bundles().map(OffloadBundle.encode)),
        edited(import_cases().map(lambda case: case[1].encode())),
    ),
)
def test_import_matches_oracle_on_any_text(setup, text):
    check_text(setup, text)


@pytest.mark.parametrize(
    "text",
    [
        "tid=t;at=1;rt=IN-CSE%2Fa%C3%2F%A9b;n=1\npi=-1;ty=3;nm=%A9b;ct=0\n",  # split UTF-8 around /
        "tid=t;at=1;rt=a%2fb%2Fc;n=1\npi=-1;ty=3;nm=c;ct=0\n",  # lowercase escape
        "tid=t;at=1;rt=%2FIN-CSE%2F%2FA%2FB%2F;n=2\npi=-1;ty=3;nm=B;ct=0\npi=0;ty=3;nm=c;ct=0\n",
        "tid=t;at=1;rt=IN-CSE%2FA%2FB%2Fla;n=2\npi=-1;ty=3;nm=B;ct=0\npi=0;ty=3;nm=c;ct=0\n",
        "tid=t;at=1;rt=IN-CSE%2FA%2FB;n=1\npi=-1;ty=3;nm=B;zz=1;ct=1e-05;;\n",  # extras, empties
        "tid=t;at=1;rt=IN-CSE%2FA%2FB;n=1\npi=-1;ty=03;nm=B;ct=-0.0\n",
        "tid=t;at=1;rt=IN-CSE%2FA;n=1\npi=-1;ty=4;nm=A;ct=1;pc=QQ%3D%3D\n",  # quoted base64
        "tid=t;at=1;rt=IN-CSE%2FA%2FB;n=2\npi=-1;ty=3;nm=B;ct=0\npi=0;ty=5;nm=s;ct=0\n",
        "tid=t;at=1;rt=IN-CSE%2FA%2FB;n=2\npi=-1;ty=3;nm=B;ct=0\npi=0;ty=3;nm=c;ct=0;pc=AA==\n",
        "tid=t;at=1;rt=IN-CSE%2FA%2FB;n=2\npi=-1;ty=3;nm=B;ct=0\npi=0;ty=4;nm=c;ct=0\n",
        "tid=t;at=1;rt=IN-CSE%2FA%2FB;n=1\npi=-1;ty=3;nm=A;ct=0\n",  # named apart from its path
        "tid=t;at=1;rt=IN-CSE%2FA%2FB;n=2\npi=-1;ty=3;nm=B;ct=0\npi=-01;ty=3;nm=c;ct=0\n",
    ],
)
@pytest.mark.parametrize("setup", ["empty", "group exists", "root exists"])
def test_import_matches_oracle_on_edge_cases(text, setup):
    check_text(setup, text)
