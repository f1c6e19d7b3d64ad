from dataclasses import replace

from edgeslice.netsim import Simulator
from edgeslice.notify import NotificationChannel, NotifyBody, NotifyPrimitive, parse_notify
from edgeslice.primitives import ResourceView, decode_request
from edgeslice.resources import ResourceKind


def make_notify(i=0):
    return NotifyPrimitive(
        request_id=f"ntf-{i}",
        target_node="cloud",
        target_path="IN-CSE/Cars/CarA/location",
        change="created",
        changed_path="MN-CSE/Cars/CarA/location/ci_0001",
        resource=ResourceView(ResourceKind.CONTENT_INSTANCE, "ci_0001", 1.0, 1.0, content=b"v"),
    )


def test_notify_envelope_round_trip():
    notify = make_notify()
    req = notify.to_request("edge0")
    assert isinstance(req.content, NotifyBody)
    assert req.content.to_bytes() == (b"ev=created;pt=MN-CSE/Cars/CarA/location/ci_0001\n"
                                      b"ty=4;nm=ci_0001;ct=1.0;lt=1.0;pc=dg==")
    parsed = parse_notify(req)
    assert parsed.change == "created"
    assert parsed.changed_path == "MN-CSE/Cars/CarA/location/ci_0001"
    assert parsed.target_path == notify.target_path
    assert parsed.resource.name == "ci_0001"
    assert parsed.resource.content == b"v"


def test_a_notify_reads_the_same_sent_as_an_object_or_arrived_as_bytes():
    req = make_notify().to_request("edge0")
    # the receiver knows the sender, not the node it was addressed as
    expected = replace(make_notify(), target_node="edge0")
    assert parse_notify(decode_request(req.encode())) == parse_notify(req) == expected


def test_channel_delivers_in_order():
    delivered = []

    def transport(notify, done):
        delivered.append(notify.request_id)
        done(True)

    sim = Simulator()
    channel = NotificationChannel(transport, sim.schedule)
    for i in range(5):
        channel.enqueue(make_notify(i))
    sim.run_until_idle()
    assert delivered == [f"ntf-{i}" for i in range(5)]
    assert channel.sent == 5 and channel.idle


def test_channel_retries_with_doubling_backoff_then_succeeds():
    attempts = []

    def transport(notify, done):
        attempts.append(sim.now)
        done(len(attempts) > 2)  # fail twice, then deliver

    sim = Simulator()
    channel = NotificationChannel(transport, sim.schedule)
    channel.enqueue(make_notify())
    sim.run_until_idle()
    assert attempts == [0.0, 100.0, 300.0]  # backoff 100 then 200
    assert channel.sent == 1 and channel.retries == 2 and channel.dropped == 0


def test_channel_drops_after_retry_budget():
    attempts = []

    def transport(notify, done):
        attempts.append(sim.now)
        done(False)

    sim = Simulator()
    channel = NotificationChannel(transport, sim.schedule)
    channel.enqueue(make_notify(0))
    channel.enqueue(make_notify(1))
    sim.run_until_idle()
    # 1 try + 3 retries per notification, backoffs 100/200/400
    assert attempts[:4] == [0.0, 100.0, 300.0, 700.0]
    assert channel.dropped == 2 and channel.sent == 0
    assert channel.idle


def test_pause_holds_queue_until_resume():
    delivered = []

    def transport(notify, done):
        delivered.append(notify.request_id)
        done(True)

    sim = Simulator()
    channel = NotificationChannel(transport, sim.schedule)
    channel.pause()
    channel.enqueue(make_notify(0))
    sim.run_until_idle()
    assert delivered == []
    channel.resume()
    sim.run_until_idle()
    assert delivered == ["ntf-0"]
