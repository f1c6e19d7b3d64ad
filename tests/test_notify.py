import pytest

from edgeslice.netsim import Simulator
from edgeslice.notify import (
    NotificationChannel,
    NotifyBody,
    NotifyPrimitive,
    match_subscriptions,
    parse_notify,
)
from edgeslice.primitives import ResourceView, decode_request
from edgeslice.resources import ResourceKind, ResourcePath, ResourceTree


def make_notify(i=0):
    return NotifyPrimitive(
        request_id=f"ntf-{i}",
        target_node="cloud",
        target_path="IN-CSE/Cars/CarA/location",
        body=NotifyBody(
            change="created",
            changed_path="MN-CSE/Cars/CarA/location/ci_0001",
            resource=ResourceView(ResourceKind.CONTENT_INSTANCE, "ci_0001", 1.0, 1.0, content=b"v"),
        ),
    )


def test_notify_envelope_round_trip():
    notify = make_notify()
    req = notify.to_request("edge0")
    assert req.content is notify.body
    assert req.content.to_bytes() == (b"ev=created;pt=MN-CSE/Cars/CarA/location/ci_0001\n"
                                      b"ty=4;nm=ci_0001;ct=1.0;lt=1.0;pc=dg==")
    parsed = parse_notify(req)
    assert parsed.body.change == "created"
    assert parsed.body.changed_path == "MN-CSE/Cars/CarA/location/ci_0001"
    assert parsed.target_path == notify.target_path
    assert parsed.body.resource.name == "ci_0001"
    assert parsed.body.resource.content == b"v"


def test_a_notify_reads_the_same_sent_as_an_object_or_arrived_as_bytes():
    req = make_notify().to_request("edge0")
    # the receiver knows the sender, not the node it was addressed as
    expected = make_notify()._replace(target_node="edge0")
    assert parse_notify(decode_request(req.encode())) == parse_notify(req) == expected


@pytest.mark.parametrize("make", [
    lambda: make_notify().body.resource,
    make_notify,
    lambda: make_notify().to_request("edge0").content,
], ids=["ResourceView", "NotifyPrimitive", "NotifyBody"])
def test_a_notification_value_is_immutable_and_hashes_by_value(make):
    value, twin = make(), make()
    with pytest.raises(AttributeError):
        value.name = "changed"
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], "changed")
    assert value == twin and value is not twin
    assert hash(value) == hash(twin) and len({value, twin}) == 1


def watched_tree() -> tuple[ResourceTree, ResourcePath]:
    """A tree with a container ``box`` that the subscription ``watch`` watches,
    its events drained."""
    tree = ResourceTree("MN-CSE")
    box = tree.create(ResourcePath("MN-CSE"), ResourceKind.CONTAINER, "box")
    tree.create(box, ResourceKind.SUBSCRIPTION, "watch", notification_target=("cloud", "IN-CSE/box"))
    tree.drain_events()
    return tree, box


def fired(tree: ResourceTree) -> list[tuple]:
    """What the queued events notify: change, changed path, old name and target."""
    return [(n.body.change, n.body.changed_path, n.body.old_name, n.target_node)
            for event in tree.drain_events() for n in match_subscriptions(tree, event)]


def test_a_subscription_fires_for_a_childs_create_rename_and_delete():
    tree, box = watched_tree()
    tree.create(box, ResourceKind.CONTAINER, "a")
    assert fired(tree) == [("created", "MN-CSE/box/a", None, "cloud")]
    tree.update(box.child("a"), name="b")
    assert fired(tree) == [("updated", "MN-CSE/box/b", "a", "cloud")]
    tree.delete(box.child("b"))
    assert fired(tree) == [("deleted", "MN-CSE/box/b", None, "cloud")]


def test_a_subscription_never_observes_its_own_events():
    tree, box = watched_tree()
    tree.create(box, ResourceKind.SUBSCRIPTION, "other", notification_target=("edge", "MN-CSE/x"))
    assert fired(tree) == [("created", "MN-CSE/box/other", None, "cloud")]
    tree.update(box.child("watch"), labels=["seen"])
    assert fired(tree) == [("updated", "MN-CSE/box/watch", None, "edge")]
    tree.delete(box.child("watch"))
    assert fired(tree) == [("deleted", "MN-CSE/box/watch", None, "edge")]
    tree.delete(box.child("other"))  # the last subscription's own deletion
    assert fired(tree) == []


def test_a_root_event_notifies_no_one():
    tree = ResourceTree("MN-CSE")
    root = ResourcePath("MN-CSE")
    tree.create(root, ResourceKind.SUBSCRIPTION, "watch", notification_target=("cloud", "IN-CSE"))
    tree.drain_events()
    tree.update(root, labels=["seen"])
    (event,) = tree.drain_events()
    assert event.path == root and match_subscriptions(tree, event) == []


def test_an_event_matches_the_parent_it_was_made_under():
    tree, box = watched_tree()
    tree.create(box, ResourceKind.CONTAINER, "a")
    tree.update(box, name="crate")  # renamed before the drain: still the same parent
    assert fired(tree) == [("created", "MN-CSE/box/a", None, "cloud")]
    tree.create(ResourcePath("MN-CSE", ("crate",)), ResourceKind.CONTAINER, "b")
    tree.delete(ResourcePath("MN-CSE", ("crate",)))  # deleted before the drain: no parent left
    assert fired(tree) == []


def test_channel_delivers_in_order():
    delivered = []

    def transport(notify, done):
        delivered.append(notify.request_id)
        done(True)

    sim = Simulator()
    channel = NotificationChannel(transport, sim.process)
    for i in range(5):
        channel.enqueue(make_notify(i))
    sim.run_until_idle()
    assert delivered == [f"ntf-{i}" for i in range(5)]
    assert channel.sent == 5 and channel.idle


def test_a_refused_notification_is_dropped_after_one_attempt():
    """Each notification gets one attempt: a refused one is dropped, and the
    next goes out at the same virtual time."""
    attempts = []

    def transport(notify, done):
        attempts.append((notify.request_id, sim.now))
        done(notify.request_id != "ntf-0")  # refuse the first, accept the second

    sim = Simulator()
    channel = NotificationChannel(transport, sim.process)
    sim.now = 5.0
    channel.enqueue(make_notify(0))
    channel.enqueue(make_notify(1))
    sim.run_until_idle()
    assert attempts == [("ntf-0", 5.0), ("ntf-1", 5.0)] and sim.now == 5.0
    assert (channel.sent, channel.dropped, channel.retries) == (1, 1, 0)
    assert channel.idle


def test_pause_holds_queue_until_resume():
    delivered = []

    def transport(notify, done):
        delivered.append(notify.request_id)
        done(True)

    sim = Simulator()
    channel = NotificationChannel(transport, sim.process)
    channel.pause()
    channel.enqueue(make_notify(0))
    sim.run_until_idle()
    assert delivered == []
    channel.resume()
    sim.run_until_idle()
    assert delivered == ["ntf-0"]


def test_a_pause_in_flight_holds_the_rest_once_that_notification_is_answered():
    answers = []

    def transport(notify, done):
        answers.append((notify.request_id, done))

    sim = Simulator()
    channel = NotificationChannel(transport, sim.process)
    channel.enqueue(make_notify(0))
    channel.enqueue(make_notify(1))
    channel.pause()
    idle = []
    channel.when_idle(lambda: idle.append(sim.now))
    assert idle == [] and [rqi for rqi, _ in answers] == ["ntf-0"]
    answers.pop()[1](True)
    assert idle == [0.0] and answers == [] and channel.sent == 1
    channel.resume()
    assert [rqi for rqi, _ in answers] == ["ntf-1"]
    answers.pop()[1](True)
    assert channel.sent == 2 and channel.idle
