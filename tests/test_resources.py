import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeslice.errors import BadRequestError, ConflictError, NotFoundError
from edgeslice.netsim import Simulator
from edgeslice.notify import match_subscriptions
from edgeslice.offload import apply_snapshot, make_bundle
from edgeslice.resources import (
    LEGAL_CHILDREN,
    ChangeEvent,
    ResourceKind,
    ResourcePath,
    ResourceTree,
)

from util import (
    RandomTreeWorkload,
    brute_force_latest,
    build_demo_tree,
    check_tree_invariants,
    legal_child_oracle,
    serialized_but_seq,
    trees_equal,
)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def tree(sim):
    return ResourceTree("MN-CSE", sim.time)


def location_path():
    return ResourcePath.parse("MN-CSE/Pedestrians/CitizenB/location")


def make_location_tree(sim):
    return build_demo_tree("MN-CSE", sim)


class TestPaths:
    def test_parse_round_trip(self):
        p = ResourcePath.parse("MN-CSE/Pedestrians/CitizenB/location")
        assert p.cse_label == "MN-CSE"
        assert p.segments == ("Pedestrians", "CitizenB", "location")
        assert str(p) == "MN-CSE/Pedestrians/CitizenB/location"

    def test_latest_suffix(self):
        p = ResourcePath.parse("MN-CSE/a/b/la")
        assert p.latest and p.segments == ("a", "b")
        assert str(p) == "MN-CSE/a/b/la"

    def test_bare_label_is_root(self):
        p = ResourcePath.parse("IN-CSE")
        assert p.segments == () and not p.latest

    def test_rebase_swaps_label_and_root(self):
        src = ResourcePath.parse("IN-CSE/Cars/CarA/location")
        old_root = ResourcePath.parse("IN-CSE/Cars/CarA")
        new_root = ResourcePath.parse("MN-CSE/Cars/CarA")
        assert str(src.rebase(old_root, new_root)) == "MN-CSE/Cars/CarA/location"

    def test_a_path_is_immutable_and_hashes_by_value(self):
        path = ResourcePath("MN-CSE", ("a", "b"))
        with pytest.raises(AttributeError):
            path.latest = True
        with pytest.raises(AttributeError):
            path.extra = 1
        twin = ResourcePath.parse("MN-CSE/a/b")
        assert path == twin and hash(path) == hash(twin) and len({path, twin}) == 1
        assert path != twin._replace(latest=True)

    def test_parse_returns_the_identical_path_for_an_equal_string(self):
        text = "MN-CSE/parse/memo"
        first = ResourcePath.parse(text)
        assert ResourcePath.parse("".join(text)) is first  # an equal, distinct string
        assert ResourcePath.parse("MN-CSE//parse/memo/") == first

    def test_parse_refuses_a_bad_string_on_every_call(self):
        before = ResourcePath.parse.cache_info().currsize
        for text in ("", "/", "//", "", "/"):
            with pytest.raises(BadRequestError):
                ResourcePath.parse(text)
        assert ResourcePath.parse.cache_info().currsize == before

    def test_parse_keeps_a_bounded_cache(self):
        maxsize = ResourcePath.parse.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
        for n in range(maxsize + 10):
            ResourcePath.parse(f"MN-CSE/bounded/{n}")
        assert ResourcePath.parse.cache_info().currsize == maxsize


class TestCreate:
    def test_create_content_instance_under_location(self, sim):
        tree = make_location_tree(sim)
        payload = bytes(400)
        path = tree.create(
            location_path(), ResourceKind.CONTENT_INSTANCE, "ci_a", content=payload
        )
        assert str(path) == "MN-CSE/Pedestrians/CitizenB/location/ci_a"
        assert tree.resolve(path).content == payload

    def test_minted_ids_are_sequential_per_kind(self, sim):
        tree = make_location_tree(sim)
        p1 = tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "x", content=b"1")
        p2 = tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "y", content=b"2")
        assert tree.resolve(p1).id == "ci_0001"
        assert tree.resolve(p2).id == "ci_0002"

    def test_unnamed_create_takes_its_minted_id_as_name(self, sim):
        tree = make_location_tree(sim)
        path = tree.create(
            location_path(), ResourceKind.CONTENT_INSTANCE, content=bytes(400)
        )
        assert str(path) == "MN-CSE/Pedestrians/CitizenB/location/ci_0001"
        assert tree.resolve(path).id == "ci_0001"

    def test_create_cse_base_anywhere_is_rejected(self, tree):
        with pytest.raises(BadRequestError):
            tree.create(ResourcePath("MN-CSE"), ResourceKind.CSE_BASE, "root2")

    def test_kind_nesting_full_enumeration(self):
        """All 25 (parent, child) pairs against the legality table oracle."""
        for parent_kind in ResourceKind:
            for child_kind in ResourceKind:
                sim = Simulator()
                tree = ResourceTree("T", sim.time)
                root = ResourcePath("T")
                if parent_kind is ResourceKind.CSE_BASE:
                    parent_path = root
                elif parent_kind is ResourceKind.AE:
                    parent_path = tree.create(root, ResourceKind.AE, "p")
                elif parent_kind is ResourceKind.CONTAINER:
                    parent_path = tree.create(root, ResourceKind.CONTAINER, "p")
                elif parent_kind is ResourceKind.CONTENT_INSTANCE:
                    c = tree.create(root, ResourceKind.CONTAINER, "c")
                    parent_path = tree.create(
                        c, ResourceKind.CONTENT_INSTANCE, "p", content=b"v"
                    )
                else:
                    parent_path = tree.create(
                        root,
                        ResourceKind.SUBSCRIPTION,
                        "p",
                        notification_target=("n", "T/x"),
                    )
                kwargs = {}
                if child_kind is ResourceKind.CONTENT_INSTANCE:
                    kwargs["content"] = b"v"
                if child_kind is ResourceKind.SUBSCRIPTION:
                    kwargs["notification_target"] = ("n", "T/x")
                legal = legal_child_oracle(parent_kind, child_kind)
                if legal:
                    tree.create(parent_path, child_kind, "kid", **kwargs)
                else:
                    with pytest.raises(BadRequestError):
                        tree.create(parent_path, child_kind, "kid", **kwargs)

    def test_duplicate_sibling_name_rejected(self, sim):
        tree = make_location_tree(sim)
        tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"1")
        with pytest.raises(BadRequestError):
            tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"2")

    def test_slash_and_reserved_names_rejected(self, tree):
        with pytest.raises(BadRequestError):
            tree.create(ResourcePath("MN-CSE"), ResourceKind.CONTAINER, "a/b")
        with pytest.raises(BadRequestError):
            tree.create(ResourcePath("MN-CSE"), ResourceKind.CONTAINER, "la")

    def test_missing_parent_is_not_found(self, tree):
        with pytest.raises(NotFoundError):
            tree.create(
                ResourcePath.parse("MN-CSE/nowhere"), ResourceKind.CONTAINER, "x"
            )

    def test_parent_last_modified_advances(self, sim):
        tree = make_location_tree(sim)
        parent = tree.resolve(location_path())
        sim.now += 5.0
        tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"1")
        assert parent.last_modified_time == sim.now


class TestRetrieve:
    def test_root_by_label(self, tree):
        assert tree.resolve(ResourcePath.parse("MN-CSE")).kind is ResourceKind.CSE_BASE

    def test_latest_returns_most_recent(self, sim):
        tree = make_location_tree(sim)
        tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci_1", content=b"1")
        sim.now += 3.0
        tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci_2", content=b"2")
        got = tree.resolve(ResourcePath.parse("MN-CSE/Pedestrians/CitizenB/location/la"))
        assert got.name == "ci_2"

    def test_latest_tie_breaks_to_later_insertion(self, sim):
        tree = make_location_tree(sim)
        tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "first", content=b"1")
        tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "second", content=b"2")
        got = tree.resolve(ResourcePath.parse("MN-CSE/Pedestrians/CitizenB/location/la"))
        assert got.name == "second"

    def test_latest_on_empty_container_not_found(self, sim):
        tree = make_location_tree(sim)
        with pytest.raises(NotFoundError):
            tree.resolve(ResourcePath.parse("MN-CSE/Pedestrians/CitizenB/location/la"))

    def test_latest_matches_brute_force_on_random_trees(self):
        for k in range(1, 11):
            rng = random.Random(1000 + k)
            sim = Simulator()
            tree = make_location_tree(sim)
            for i in range(k):
                sim.now += rng.choice([0.0, 1.0, 2.5])
                tree.create(
                    location_path(),
                    ResourceKind.CONTENT_INSTANCE,
                    f"ci{i}",
                    content=bytes([i]),
                )
            container = tree.resolve(location_path())
            oracle = brute_force_latest(tree, container)
            assert tree.latest_instance(container).id == oracle.id


    def test_deleting_latest_falls_back_to_previous(self, sim):
        tree = make_location_tree(sim)
        la = ResourcePath.parse("MN-CSE/Pedestrians/CitizenB/location/la")
        for name in ["old", "tied", "mid", "new"]:
            if name != "tied":
                sim.now += 1.0
            tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, name, content=b"v")
        tree.delete(location_path().child("mid"))  # not the latest: pointer stays
        assert tree.resolve(la).name == "new"
        tree.delete(location_path().child("new"))
        assert tree.resolve(la).name == "tied"  # ties with "old"; the later insertion wins
        tree.delete(location_path().child("tied"))
        assert tree.resolve(la).name == "old"
        tree.delete(location_path().child("old"))
        with pytest.raises(NotFoundError):
            tree.resolve(la)

    def test_older_graft_does_not_replace_latest(self, sim):
        tree = make_location_tree(sim)
        la = ResourcePath.parse("MN-CSE/Pedestrians/CitizenB/location/la")
        sim.now += 5.0
        live = tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "live", content=b"v")
        assert tree.resolve(live).creation_time == 7.0
        sim.now += 1.0
        tree.graft(tree.resolve(location_path()), ResourceKind.CONTENT_INSTANCE, "replayed",
                   creation_time=1.0, content=b"r")
        assert tree.resolve(la).name == "live"
        # an equal creation time is a tie, which the later insertion wins
        tree.graft(tree.resolve(location_path()), ResourceKind.CONTENT_INSTANCE, "tied",
                   creation_time=7.0, content=b"t")
        assert tree.resolve(la).name == "tied"
        container = tree.resolve(location_path())
        assert tree.latest_instance(container).id == brute_force_latest(tree, container).id


class TestUpdate:
    def test_update_labels(self, sim):
        tree = ResourceTree("MN-CSE", sim.time)
        path = tree.create(ResourcePath("MN-CSE"), ResourceKind.AE, "app")
        sim.now += 2.0
        updated = tree.update(path, labels=["v2"])
        assert updated.labels == ("v2",)
        assert updated.last_modified_time == 2.0 > updated.creation_time

    def test_update_content_instance_rejected(self, sim):
        tree = make_location_tree(sim)
        path = tree.create(
            location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"v"
        )
        with pytest.raises(BadRequestError):
            tree.update(path, labels=["x"])

    def test_empty_patch_only_advances_last_modified(self, sim):
        tree = ResourceTree("MN-CSE", sim.time)
        path = tree.create(ResourcePath("MN-CSE"), ResourceKind.AE, "app", labels=["a"])
        before = tree.resolve(path).snapshot()
        sim.now += 1.0
        after = tree.update(path)
        assert after.name == before.name
        assert after.labels == before.labels
        assert after.last_modified_time > before.last_modified_time

    def test_rename_checks_collisions(self, sim):
        tree = ResourceTree("MN-CSE", sim.time)
        tree.create(ResourcePath("MN-CSE"), ResourceKind.AE, "a")
        path_b = tree.create(ResourcePath("MN-CSE"), ResourceKind.AE, "b")
        with pytest.raises(BadRequestError):
            tree.update(path_b, name="a")
        renamed = tree.update(path_b, name="c")
        assert renamed.name == "c"
        assert tree.resolve(ResourcePath.parse("MN-CSE/c")).id == renamed.id

    def test_rename_keeps_position_in_walk_and_serialize(self, sim):
        tree = ResourceTree("MN-CSE", sim.time)
        root = ResourcePath("MN-CSE")
        for name in ["a", "b", "c"]:
            tree.create(root, ResourceKind.AE, name)
        ids_before = [n.id for n in tree.walk()]
        tree.update(root.child("b"), name="z")
        assert [n.id for n in tree.walk()] == ids_before
        assert [n.name for n in tree.walk()] == ["MN-CSE", "a", "z", "c"]
        records = tree.serialize().splitlines()[1:]
        assert [r.split(";")[0] for r in records] == [f"id={i}" for i in ids_before]
        assert ";nm=z;" in records[2]
        with pytest.raises(NotFoundError):
            tree.resolve(root.child("b"))
        assert tree.resolve(root.child("z")).id == ids_before[2]


class TestDelete:
    def test_subtree_count(self, sim):
        tree = make_location_tree(sim)
        loc = location_path()
        for i in range(3):
            tree.create(loc, ResourceKind.CONTENT_INSTANCE, f"ci{i}", content=b"v")
        tree.create(
            loc, ResourceKind.SUBSCRIPTION, "watch", notification_target=("n", "X/y")
        )
        # independent count: size of the subtree before deletion
        expected = sum(1 for _ in tree.walk(tree.resolve(loc).id))
        assert expected == 5
        assert tree.delete(loc) == 5
        with pytest.raises(NotFoundError):
            tree.resolve(loc)

    def test_delete_root_rejected(self, tree):
        with pytest.raises(BadRequestError):
            tree.delete(ResourcePath("MN-CSE"))

    def test_delete_leaf(self, sim):
        tree = make_location_tree(sim)
        path = tree.create(
            location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"v"
        )
        assert tree.delete(path) == 1


class TestChangeEvents:
    def test_an_event_is_immutable_and_equal_by_value(self, sim):
        tree = make_location_tree(sim)
        tree.create(location_path(), ResourceKind.CONTAINER, "box")
        (event,) = tree.drain_events()
        with pytest.raises(AttributeError):
            event.change = "deleted"
        with pytest.raises(AttributeError):
            event.extra = 1
        assert event == ChangeEvent(*event) and event is not ChangeEvent(*event)
        with pytest.raises(TypeError):  # it holds a ``Resource``, a mutable node with no hash
            hash(event)

    def test_an_event_shares_a_content_instance_and_snapshots_any_other_node(self, sim):
        tree = make_location_tree(sim)
        box = tree.create(location_path(), ResourceKind.CONTAINER, "box")
        ci = tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"v")
        box_event, ci_event = tree.drain_events()
        assert ci_event.resource is tree.resolve(ci)  # write-once, so never edited under the event
        assert box_event.resource is not tree.resolve(box)
        tree.update(box, labels=["later"])
        assert box_event.resource.labels == ()


class TestSubscriptionMatching:
    def test_single_subscription_fires_on_create(self, sim):
        tree = make_location_tree(sim)
        tree.create(
            location_path(),
            ResourceKind.SUBSCRIPTION,
            "watch",
            notification_target=("cloud", "IN-CSE/mirror/location"),
        )
        tree.drain_events()
        tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"v")
        (event,) = tree.drain_events()
        notifies = match_subscriptions(tree, event)
        assert len(notifies) == 1
        n = notifies[0]
        assert n.target_node == "cloud"
        assert n.target_path == "IN-CSE/mirror/location"
        assert n.body.change == "created"
        assert n.body.resource.content == b"v"

    def test_no_subscription_no_notify(self, sim):
        tree = make_location_tree(sim)
        tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"v")
        (event,) = tree.drain_events()
        assert match_subscriptions(tree, event) == []

    def test_two_subscriptions_fire_in_creation_order(self, sim):
        tree = make_location_tree(sim)
        tree.create(
            location_path(),
            ResourceKind.SUBSCRIPTION,
            "w1",
            notification_target=("n1", "A/p"),
        )
        tree.create(
            location_path(),
            ResourceKind.SUBSCRIPTION,
            "w2",
            notification_target=("n2", "B/q"),
        )
        tree.drain_events()
        ci = tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"v")
        tree.update(ci.parent(), labels=["seen"])  # container update fires its parent's subs, not these
        events = tree.drain_events()
        create_event = events[0]
        notifies = match_subscriptions(tree, create_event)
        # oracle: walk every subscription in the tree, apply the matching rule
        expected = []
        for node in tree.walk():
            if node.kind is ResourceKind.SUBSCRIPTION:
                parent = tree.get(node.parent_id)
                if tree.path_of(parent) == create_event.path.parent():
                    expected.append(node.notification_target[0])
        assert [n.target_node for n in notifies] == expected == ["n1", "n2"]

    def test_subscription_does_not_observe_itself(self, sim):
        tree = make_location_tree(sim)
        tree.create(
            location_path(),
            ResourceKind.SUBSCRIPTION,
            "w1",
            notification_target=("n1", "A/p"),
        )
        (event,) = tree.drain_events()
        assert match_subscriptions(tree, event) == []

    def test_deletion_notifies_with_snapshot(self, sim):
        tree = make_location_tree(sim)
        tree.create(
            location_path(),
            ResourceKind.SUBSCRIPTION,
            "w",
            notification_target=("n", "A/p"),
        )
        ci = tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"v")
        tree.drain_events()
        tree.delete(ci)
        (event,) = tree.drain_events()
        (notify,) = match_subscriptions(tree, event)
        assert notify.body.change == "deleted"
        assert notify.body.resource.name == "ci"


class TestSerialization:
    def test_serialize_is_byte_stable(self, sim):
        tree = make_location_tree(sim)
        assert tree.serialize() == tree.serialize()

    @pytest.mark.parametrize("method", ["create", "graft", "graft_many"])
    def test_ids_cross_four_digits_as_the_format_spec_does(self, method):
        tree = ResourceTree("MN-CSE")
        container, instance = ResourceKind.CONTAINER, ResourceKind.CONTENT_INSTANCE
        tree._counters[container] = tree._counters[instance] = 9998
        if method == "create":
            root = ResourcePath("MN-CSE")
            paths = [tree.create(root, container), tree.create(root, container)]
            paths += [tree.create(paths[0], instance, content=b"v") for _ in range(2)]
            made = [tree.resolve(p) for p in paths]
            assert [n.name for n in made] == [n.id for n in made]  # the peeked id is the name
        elif method == "graft":
            made = [tree.graft(tree.root, container, name, creation_time=0.0) for name in "ab"]
            made += [tree.graft(made[0], instance, name, creation_time=0.0, content=b"v")
                     for name in "xy"]
        else:
            made = tree.graft_many(tree.root, [
                (-1, container, "a", 0.0, None),
                (-1, container, "b", 0.0, None),
                (0, instance, "x", 0.0, b"v"),
                (0, instance, "y", 0.0, b"v"),
            ])
        assert [n.id for n in made] == [
            f"{prefix}_{n:04d}" for prefix in ("cnt", "ci") for n in (9999, 10000)
        ] == ["cnt_9999", "cnt_10000", "ci_9999", "ci_10000"]


class TestGuard:
    def test_the_guard_is_asked_with_the_written_path_and_lifted_by_unsetting_it(self, sim):
        tree = make_location_tree(sim)
        asked = []

        def deny(path):
            asked.append(str(path))
            raise ConflictError("frozen")

        tree.guard = deny
        writes = [
            lambda: tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"v"),
            lambda: tree.update(location_path(), labels=["x"]),
            lambda: tree.delete(location_path()),
        ]
        before = tree.serialize()
        for write in writes:
            with pytest.raises(ConflictError):
                write()
        assert tree.serialize() == before
        location = str(location_path())
        assert asked == [location + "/ci", location, location]
        tree.guard = None
        for write in writes:
            write()
        assert len(asked) == 3

    def test_a_graft_does_not_ask_the_guard(self, sim):
        tree = make_location_tree(sim)
        tree.guard = lambda path: pytest.fail(f"the guard was asked for {path}")
        tree.graft(tree.resolve(location_path()), ResourceKind.CONTENT_INSTANCE, "ci",
                   creation_time=0.0, content=b"v")


def two_containers() -> ResourceTree:
    """Containers ``A`` and ``B`` under the cse base."""
    tree = ResourceTree("MN-CSE")
    for name in "AB":
        tree.create(ResourcePath("MN-CSE"), ResourceKind.CONTAINER, name)
    tree.drain_events()
    return tree


# each route that adds a child or renames one, adding or renaming one to ``A``
TAKEN_NAME_ROUTES = {
    "create": lambda tree: tree.create(ResourcePath("MN-CSE"), ResourceKind.CONTAINER, "A"),
    "graft": lambda tree: tree.graft(tree.root, ResourceKind.CONTAINER, "A", creation_time=0.0),
    "graft_many": lambda tree: tree.graft_many(tree.root, [(-1, ResourceKind.CONTAINER, "A", 0.0, None)]),
    "update": lambda tree: tree.update(ResourcePath.parse("MN-CSE/B"), name="A"),
}


class TestTakenNames:
    @pytest.mark.parametrize("route", sorted(TAKEN_NAME_ROUTES))
    def test_every_route_refuses_a_taken_name_with_one_message(self, route):
        tree = two_containers()
        before = tree.serialize()
        with pytest.raises(BadRequestError) as refused:
            TAKEN_NAME_ROUTES[route](tree)
        assert str(refused.value) == "sibling name 'A' is already taken"
        assert tree.serialize() == before
        assert tree.drain_events() == []

    def test_a_taken_name_is_refused_before_the_guard_is_asked(self):
        tree = two_containers()

        def deny(path):
            raise ConflictError("frozen")

        tree.guard = deny
        with pytest.raises(BadRequestError, match="already taken"):
            TAKEN_NAME_ROUTES["create"](tree)


class TestRandomWorkload:
    def test_invariants_hold_under_random_ops(self):
        rng = random.Random(7)
        sim = Simulator()
        tree = ResourceTree("MN-CSE", sim.time)
        workload = RandomTreeWorkload(tree, sim, rng)
        for _ in range(40):
            workload.run(25)
            check_tree_invariants(tree)
        assert workload.attempted == 1000

def grown_tree(seed: int) -> tuple[ResourceTree, Simulator]:
    """A tree after random creates, renames and deletes, then the demo
    location container with a subscription, a grafted instance and labels;
    its events are drained."""
    sim = Simulator()
    tree = ResourceTree("MN-CSE", sim.time)
    RandomTreeWorkload(tree, sim, random.Random(seed)).run(200)
    root = ResourcePath("MN-CSE")
    tree.create(root, ResourceKind.CONTAINER, "Pedestrians")
    tree.create(root.child("Pedestrians"), ResourceKind.CONTAINER, "CitizenB")
    tree.create(root.child("Pedestrians").child("CitizenB"), ResourceKind.CONTAINER,
                "location", labels=["sync"])
    tree.create(location_path(), ResourceKind.SUBSCRIPTION, "w",
                notification_target=("app", "APP/inbox"))
    sim.now += 2.0
    tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "late", content=b"2")
    tree.graft(tree.resolve(location_path()), ResourceKind.CONTENT_INSTANCE, "early",
               creation_time=sim.now - 1.0, content=b"1")
    tree.drain_events()
    return tree, sim


def rebind_labels(tree: ResourceTree) -> None:
    """Labels are a tuple, so an in-place edit raises; rebinding them edits
    only the node of the tree given."""
    node = tree.resolve(location_path())
    with pytest.raises(AttributeError):
        node.labels.append("appended")  # type: ignore[attr-defined]
    node.labels += ("appended",)


def finalize_with_late_changed(tree: ResourceTree) -> None:
    """A lazy finalize whose snapshot of CitizenB has a changed "late"
    instance, which the merge replaces."""
    root = location_path().parent()
    bundle = make_bundle(tree, root, "t", 0.0)
    records = tuple(
        rec._replace(content=b"changed") if rec.name == "late" else rec for rec in bundle.records
    )
    assert apply_snapshot(tree, root, replace(bundle, records=records)) == 2


# one write of each kind, applied to the tree given
COPY_WRITES = {
    "create": lambda t: t.create(location_path(), ResourceKind.CONTENT_INSTANCE, "new",
                                 content=b"n"),
    "rename": lambda t: t.update(ResourcePath.parse("MN-CSE/Pedestrians"), name="Walkers"),
    "delete": lambda t: t.delete(location_path()),  # the container of two instances
    "delete-instance": lambda t: t.delete(location_path().child("late")),
    "finalize-replaces-instance": finalize_with_late_changed,
    "labels": lambda t: t.update(location_path(), labels=["changed"]),
    "labels-in-place": rebind_labels,
}


class TestCopy:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_copy_serializes_and_compares_like_its_source(self, seed):
        tree, sim = grown_tree(seed)
        copy = tree.copy(sim.time)
        assert copy.serialize() == tree.serialize()
        assert trees_equal(copy, tree)
        check_tree_invariants(copy)
        for node in tree.walk():
            assert [s.id for s in copy.subscriptions(node.id)] == [
                s.id for s in tree.subscriptions(node.id)
            ]
            if node.kind is ResourceKind.CONTAINER and brute_force_latest(tree, node):
                assert copy.latest_instance(copy.get(node.id)).id == (
                    tree.latest_instance(node).id
                )

    def test_copy_has_no_pending_events_and_no_guard(self, sim):
        tree = make_location_tree(sim)
        tree.guard = lambda path: None
        tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"v")
        copy = tree.copy(sim.time)
        assert copy.drain_events() == [] and copy.guard is None
        assert len(tree.drain_events()) == 1

    def test_copy_runs_on_its_own_clock(self, sim):
        tree = make_location_tree(sim)
        later = Simulator()
        later.now += 50.0
        copy = tree.copy(later.time)
        copy.create(location_path(), ResourceKind.CONTENT_INSTANCE, "ci", content=b"v")
        assert copy.resolve(location_path().child("ci")).creation_time == 50.0

    @pytest.mark.parametrize("write", sorted(COPY_WRITES))
    @pytest.mark.parametrize("written", ["source", "copy"])
    def test_copy_and_source_are_isolated(self, write, written):
        tree, sim = grown_tree(4)
        copy = tree.copy(sim.time)
        before = tree.serialize()
        target, other = (tree, copy) if written == "source" else (copy, tree)
        COPY_WRITES[write](target)
        assert other.serialize() == before
        assert target.serialize() != before
        check_tree_invariants(other)

    def test_instances_are_shared_and_stay_write_once(self):
        tree, sim = grown_tree(4)
        copy = tree.copy(sim.time)
        before = tree.serialize()
        for node in tree.walk():
            shared = copy.get(node.id) is node
            assert shared == (node.kind is ResourceKind.CONTENT_INSTANCE)
        late = location_path().child("late")
        for target in (tree, copy):
            with pytest.raises(BadRequestError, match="write-once"):
                target.update(late, labels=["changed"])
            with pytest.raises(BadRequestError, match="write-once"):
                target.update(late, name="renamed")
        assert tree.serialize() == copy.serialize() == before

    def test_next_event_and_ids_on_a_copy_match_a_tree_built_the_same_way(self):
        def build() -> tuple[ResourceTree, Simulator]:
            return grown_tree(5)

        source, sim = build()
        copy, fresh = source.copy(sim.time), build()[0]
        for tree in (copy, fresh):
            tree.create(location_path(), ResourceKind.CONTENT_INSTANCE, None, content=b"x")
            tree.create(location_path(), ResourceKind.SUBSCRIPTION, None,
                        notification_target=("app", "APP/x"))
        copy_events, fresh_events = copy.drain_events(), fresh.drain_events()
        assert [e.event_id for e in copy_events] == [e.event_id for e in fresh_events]
        assert [e.resource.id for e in copy_events] == [e.resource.id for e in fresh_events]
        assert copy.serialize() == fresh.serialize()


# --- batch graft ---

# the live parents a batch may go under, with their kinds
GRAFT_PARENTS = {
    "MN-CSE": ResourceKind.CSE_BASE,
    "MN-CSE/A": ResourceKind.CONTAINER,
    "MN-CSE/A/B": ResourceKind.CONTAINER,
    "MN-CSE/app": ResourceKind.AE,
    "MN-CSE/A/x": ResourceKind.CONTENT_INSTANCE,
}
GRAFT_NAMES = ["n", "m", "A", "B", "x"]  # A, B and x are taken on the tree
ILLEGAL_NAMES = ["la", "", "a/b"]


def graft_base() -> ResourceTree:
    """A container holding a container and an instance, and an Ae, made at
    1.0; the clock then stops at 3.0 and the events are drained."""
    sim = Simulator()
    sim.now += 1.0
    tree = ResourceTree("MN-CSE", sim.time)
    root = ResourcePath("MN-CSE")
    tree.create(root, ResourceKind.CONTAINER, "A")
    tree.create(root.child("A"), ResourceKind.CONTAINER, "B")
    tree.create(root.child("A"), ResourceKind.CONTENT_INSTANCE, "x", content=b"x")
    tree.create(root, ResourceKind.AE, "app")
    sim.now += 2.0
    tree.drain_events()
    return tree


@st.composite
def graft_batches(draw) -> tuple[str, list[str], list[tuple]]:
    """A live parent, up to two grouping names and a batch of up to six
    nodes, each under the batch's parent (the last grouping container, if
    any) or an earlier node. About half the cases keep to legal names and
    kinds, so that they fail only on a taken name; the others mix in illegal
    names and kinds, and parent indexes that name no earlier node."""
    noisy = draw(st.booleans())
    names = GRAFT_NAMES + ILLEGAL_NAMES if noisy else GRAFT_NAMES
    parent = draw(st.sampled_from(
        [p for p, kind in GRAFT_PARENTS.items() if noisy or LEGAL_CHILDREN[kind]]
    ))
    grouping = []
    if noisy or ResourceKind.CONTAINER in LEGAL_CHILDREN[GRAFT_PARENTS[parent]]:
        grouping = draw(st.lists(st.sampled_from(names + ["g0", "g1"]), max_size=2))
    kinds = [ResourceKind.CONTAINER if grouping else GRAFT_PARENTS[parent]]  # -1 first
    batch = []
    for index in range(draw(st.integers(0, 6))):
        under = draw(st.sampled_from(
            [i for i in range(-1, index) if noisy or LEGAL_CHILDREN[kinds[i + 1]]]
        ))
        # a graft carries no notification target, so a subscription is refused
        legal = sorted(LEGAL_CHILDREN[kinds[under + 1]] - {ResourceKind.SUBSCRIPTION},
                       key=lambda k: k.value)
        kind = draw(st.sampled_from(list(ResourceKind) if noisy else legal))
        kinds.append(kind)
        if noisy and draw(st.integers(0, 9)) == 0:
            under = draw(st.sampled_from([-2, index, index + 1]))  # no earlier node
        batch.append((
            under,
            kind,
            draw(st.sampled_from(names + [f"u{index}"] * 4)),  # often a fresh name
            # instances have no children, so no child predates its parent
            draw(st.sampled_from([1.0, 2.0, 3.0]))
            if kind is ResourceKind.CONTENT_INSTANCE else 1.0,
            b"c" if kind is ResourceKind.CONTENT_INSTANCE else None,
        ))
    return parent, grouping, batch


def graft_one_by_one(tree: ResourceTree, parent, grouping, batch) -> list:
    for name in grouping:
        parent = tree.graft(parent, ResourceKind.CONTAINER, name, creation_time=1.0)
    made = []
    for index, kind, name, created, content in batch:
        if not -1 <= index < len(made):
            raise BadRequestError(f"parent index {index}")
        made.append(tree.graft(parent if index < 0 else made[index], kind, name,
                               creation_time=created, content=content))
    return made


def next_id(tree: ResourceTree) -> str:
    """The id the tree mints next for a container."""
    return tree.graft(tree.root, ResourceKind.CONTAINER, "probe", creation_time=0.0).id


@st.composite
def graft_runs(draw) -> list[tuple]:
    """A batch for the container ``MN-CSE/A`` in runs: up to four runs of
    up to eight nodes, each node of a run under one parent index and of one
    kind, often instances with tied creation times, NaN among them at
    times. About one node in ten carries one fault: a taken, repeated or
    illegal name, another kind, content where its kind has none, or none
    where it needs some."""
    instance, container = ResourceKind.CONTENT_INSTANCE, ResourceKind.CONTAINER
    containers, batch = [-1], []
    for _ in range(draw(st.integers(1, 4))):
        under, kind = draw(st.sampled_from(containers)), draw(st.sampled_from([instance, container]))
        for _ in range(draw(st.integers(1, 8))):
            index = len(batch)
            fault = draw(st.sampled_from(["name", "kind", "content"] + [None] * 27))
            node_kind = draw(st.sampled_from(ResourceKind)) if fault == "kind" else kind
            name = f"r{index}"
            if fault == "name":
                name = draw(st.sampled_from(["B", "x", f"r{index - 1}", "n"] + ILLEGAL_NAMES))
            has_content = (node_kind is instance) is not (fault == "content")
            # no earlier than A and the containers, which are made at 1.0
            created = 1.0
            if node_kind is instance:
                created = draw(st.sampled_from([1.0, 2.0, 2.0, 3.0, float("nan")]))
            batch.append((under, node_kind, name, created, b"c" if has_content else None))
            if node_kind is container:
                containers.append(index)
    return batch


def latest_ids(tree: ResourceTree) -> dict[str, str]:
    """Each container's ``/la`` id, by the container's id."""
    found = {}
    for node in tree.walk():
        if node.kind is ResourceKind.CONTAINER:
            try:
                found[node.id] = tree.latest_instance(node).id
            except NotFoundError:
                pass
    return found


def check_like_one_by_one(batch: list[tuple]) -> None:
    """``graft_many`` of ``batch`` under ``MN-CSE/A`` gives the ids, child
    order and ``/la`` pointers (ties and NaN included) that grafting the
    nodes one by one gives, or refuses it with the same message and leaves
    the tree as it was. ``graft`` queues an event per node, so the trees
    are compared but for their event sequence."""
    one, many = graft_base(), graft_base()
    before, latest_before = many.serialize(), latest_ids(many)
    parent = ResourcePath.parse("MN-CSE/A")
    try:
        expected = [n.id for n in graft_one_by_one(one, one.resolve(parent), [], batch)]
    except BadRequestError as exc:
        expected = str(exc)
    try:
        got = [n.id for n in many.graft_many(many.resolve(parent), batch)]
    except BadRequestError as exc:
        got = str(exc)
    assert got == expected
    if all(created >= 1.0 for _, _, _, created, _ in batch):  # no older than A, and no NaN
        check_tree_invariants(many)
    if isinstance(expected, list):
        assert serialized_but_seq(many) == serialized_but_seq(one)
        assert latest_ids(many) == latest_ids(one)
    else:
        assert many.serialize() == before
        assert latest_ids(many) == latest_before
        assert next_id(many) == next_id(graft_base())


RUN = [(-1, ResourceKind.CONTENT_INSTANCE, f"r{i}", 2.0, b"c") for i in range(4)]


class TestGraftMany:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(graft_runs())
    def test_a_run_goes_in_as_one_node_at_a_time_would(self, batch):
        check_like_one_by_one(batch)

    @pytest.mark.parametrize("name, content, reason", [
        ("r0", b"c", "already taken"),  # repeated in the run
        ("x", b"c", "already taken"),  # a child of A already
        ("a/b", b"c", "may not contain"),
        ("la", b"c", "reserved"),
        ("", b"c", "nonempty"),
        ("r2", None, "requires content"),
    ])
    def test_a_run_is_refused_at_its_first_bad_node(self, name, content, reason):
        batch = RUN[:2] + [(-1, ResourceKind.CONTENT_INSTANCE, name, 2.0, content)] + RUN[3:]
        with pytest.raises(BadRequestError, match=reason):
            graft_base().graft_many(graft_base().resolve(ResourcePath.parse("MN-CSE/A")), batch)
        check_like_one_by_one(batch)

    @pytest.mark.parametrize("times", [
        (float("nan"), 2.0, 0.5, 2.0),  # a NaN first: only 2.0 passes A's instance at 1.0
        (2.0, float("nan"), 3.0, 3.0),
        (0.5, 0.5, 0.5, 0.5),  # all older than A's instance
        (3.0, 2.0, 3.0, 1.0),  # the last of the newest
    ])
    def test_a_run_points_la_where_one_at_a_time_would(self, times):
        check_like_one_by_one([node[:3] + (time, b"c") for node, time in zip(RUN, times)])

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(graft_batches())
    def test_matches_repeated_graft_or_leaves_the_tree_as_it_was(self, case):
        parent_path, grouping, batch = case
        parent_path = ResourcePath.parse(parent_path)
        one, many = graft_base(), graft_base()
        before = many.serialize()
        try:
            expected = [n.id for n in graft_one_by_one(one, one.resolve(parent_path), grouping, batch)]
        except BadRequestError as exc:
            expected = type(exc)
        try:
            got = [n.id for n in many.graft_many(many.resolve(parent_path), batch, grouping, 1.0)]
        except BadRequestError as exc:
            got = type(exc)
        assert got == expected
        assert many.drain_events() == []
        check_tree_invariants(many)  # child indexes, subscription lists and /la pointers
        if isinstance(expected, list):
            assert serialized_but_seq(many) == serialized_but_seq(one)
        else:
            assert len(many) == len(graft_base())
            assert many.serialize() == before
            assert next_id(many) == next_id(graft_base())

    def test_a_name_repeated_inside_the_batch_is_refused(self, tree):
        before = tree.serialize()
        node = (-1, ResourceKind.CONTAINER, "n", 0.0, None)
        with pytest.raises(BadRequestError, match="already taken"):
            tree.graft_many(tree.root, [node, node])
        assert tree.serialize() == before
        assert next_id(tree) == "cnt_0001"

    def test_a_name_may_repeat_under_different_parents(self, tree):
        made = tree.graft_many(tree.root, [
            (-1, ResourceKind.CONTAINER, "n", 0.0, None),
            (0, ResourceKind.CONTAINER, "n", 0.0, None),
        ])
        assert [n.id for n in made] == ["cnt_0001", "cnt_0002"]
        assert str(tree.path_of(made[1])) == "MN-CSE/n/n"

    @pytest.mark.parametrize("staged, kind", [
        (ResourceKind.CONTENT_INSTANCE, ResourceKind.CONTAINER),
        (ResourceKind.CONTAINER, ResourceKind.AE),
    ])
    def test_an_illegal_kind_under_a_staged_parent_is_refused(self, tree, staged, kind):
        before = tree.serialize()
        batch = [
            (-1, ResourceKind.CONTAINER, "c", 0.0, None),
            (0, staged, "s", 0.0, b"v" if staged is ResourceKind.CONTENT_INSTANCE else None),
            (1, kind, "k", 0.0, None),
        ]
        with pytest.raises(BadRequestError, match="may not be created under"):
            tree.graft_many(tree.root, batch)
        assert len(tree) == 1
        assert tree.serialize() == before
        assert next_id(tree) == "cnt_0001"

    def test_a_subscription_is_refused(self, tree):
        """A graft carries no notification target, and a subscription without
        one would fail the first notification matched to it."""
        before = tree.serialize()
        batch = [
            (-1, ResourceKind.CONTAINER, "c", 0.0, None),
            (0, ResourceKind.SUBSCRIPTION, "s", 0.0, None),
        ]
        with pytest.raises(BadRequestError, match="requires a notification target"):
            tree.graft_many(tree.root, batch)
        assert tree.serialize() == before
        assert next_id(tree) == "cnt_0001"

    @pytest.mark.parametrize("kind, content, reason", [
        (ResourceKind.CONTAINER, b"v", "only content instances carry content"),
        (ResourceKind.CONTENT_INSTANCE, None, "content instance requires content"),
    ])
    def test_content_is_refused_where_create_refuses_it(self, tree, kind, content, reason):
        before = tree.serialize()
        batch = [(-1, ResourceKind.CONTAINER, "c", 0.0, None), (0, kind, "k", 0.0, content)]
        with pytest.raises(BadRequestError, match=reason):
            tree.graft_many(tree.root, batch)
        assert tree.serialize() == before

    def test_a_refused_batch_gives_back_the_latest_instance_it_took(self, tree):
        parent = tree.create(ResourcePath("MN-CSE"), ResourceKind.CONTAINER, "c")
        tree.create(parent, ResourceKind.CONTENT_INSTANCE, "x", content=b"x")
        before = tree.serialize()
        container = tree.resolve(parent)
        instance = ResourceKind.CONTENT_INSTANCE
        with pytest.raises(BadRequestError, match="already taken"):
            tree.graft_many(container, [
                (-1, instance, "newer", 9.0, b"n"),  # becomes the container's latest
                (-1, instance, "x", 9.5, b"x"),
            ])
        assert tree.resolve(ResourcePath.parse("MN-CSE/c/la")).name == "x"
        assert tree.serialize() == before
        check_tree_invariants(tree)

    @pytest.mark.parametrize("index", [-2, 1, 2])
    def test_a_parent_index_that_names_no_earlier_node_is_refused(self, tree, index):
        before = tree.serialize()
        with pytest.raises(BadRequestError):
            tree.graft_many(tree.root, [
                (-1, ResourceKind.CONTAINER, "c", 0.0, None),
                (index, ResourceKind.CONTAINER, "d", 0.0, None),
            ])
        assert tree.serialize() == before
        assert next_id(tree) == "cnt_0001"

    def test_reads_the_clock_once(self):
        reads = []

        def clock() -> float:
            reads.append(None)
            return float(len(reads))

        tree = ResourceTree("MN-CSE", clock)
        made = tree.graft_many(tree.root, [
            (-1, ResourceKind.CONTAINER, "c", 0.5, None),
            (0, ResourceKind.CONTENT_INSTANCE, "i", 0.25, b"v"),
        ])
        assert len(reads) == 2  # the root's creation, then the batch
        assert [n.last_modified_time for n in made] == [2.0, 2.0]
        assert [n.creation_time for n in made] == [0.5, 0.25]
        assert tree.root.last_modified_time == 2.0
        assert tree.latest_instance(made[0]) is made[1]

    def test_an_empty_batch_changes_nothing(self, tree):
        before = tree.serialize()
        assert tree.graft_many(tree.root, []) == []
        assert tree.serialize() == before
