"""Subscription matching and notification delivery.

A mutation on a tree fires one notification per subscription sitting next to
the changed resource (direct-children scope: a subscription under a container
observes creations, updates and deletions of that container's children).
A notification carries a snapshot of the changed resource (``ResourceView``,
like the notification and its body an immutable named tuple) and travels as
a request whose content is a ``NotifyBody``; it is encoded only if something
reads its bytes.
"""
from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Generator, NamedTuple

from .codec import decode_body, encode_fieldline, encode_resource
from .errors import BadRequestError
from .primitives import Operation, RequestPrimitive, ResourceView, decode_resource, read_body
from .resources import ChangeEvent, ResourceTree


class NotifyBody(NamedTuple):
    """A notification's content: the change, the changed resource's path,
    its snapshot and, for a rename, its old name. On the wire, a field line
    ``ev;pt[;on]``, a newline and the resource's record."""

    change: str
    changed_path: str
    resource: ResourceView
    old_name: str | None = None

    def to_bytes(self) -> bytes:
        meta = [("ev", self.change), ("pt", self.changed_path)]
        if self.old_name is not None:
            meta.append(("on", self.old_name))
        record = encode_resource(self.resource, self.resource.path)
        return (encode_fieldline(meta) + "\n").encode("ascii") + record

    @classmethod
    def from_bytes(cls, data: bytes) -> "NotifyBody":
        """Inverse of ``to_bytes``; raises only ``BadRequestError``."""
        head, _, record = data.partition(b"\n")
        meta = decode_body(head)
        if "ev" not in meta or "pt" not in meta:
            raise BadRequestError("notification lacks its change or path")
        return cls(meta["ev"], meta["pt"], decode_resource(record), meta.get("on"))


class NotifyPrimitive(NamedTuple):
    """One change notification addressed to a subscription's target."""

    request_id: str
    target_node: str
    target_path: str
    change: str
    changed_path: str
    resource: ResourceView  # the changed resource as it was at the change
    old_name: str | None = None

    def to_request(self, sender: str) -> RequestPrimitive:
        body = NotifyBody(self.change, self.changed_path, self.resource, self.old_name)
        return RequestPrimitive(Operation.NOTIFY, self.target_path, sender, self.request_id,
                                content=body)


def parse_notify(req: RequestPrimitive) -> NotifyPrimitive:
    """The notification a NOTIFY request carries, sent as an object or
    arrived as bytes; raises only ``BadRequestError``."""
    body = read_body(req.content, NotifyBody)
    # the target node is informational only on the receive side
    return NotifyPrimitive(req.request_id, req.originator, req.to, body.change, body.changed_path,
                           body.resource, body.old_name)


def match_subscriptions(tree: ResourceTree, event: ChangeEvent) -> list[NotifyPrimitive]:
    """Notifications for one committed change, in subscription-creation order.

    The subscriptions matched are those of the parent the resource was
    changed under, read by its id: the root has none, nor has a parent
    deleted before the event is drained. A subscription never observes its
    own creation, update or deletion.
    """
    r = event.resource
    subs = [s for s in tree.subscriptions(r.parent_id) if s.id != r.id]
    if not subs:
        return []
    view = ResourceView(r.kind, r.name, r.creation_time, r.last_modified_time, None,
                        r.content, r.notification_target, r.labels)  # shared by every notify
    changed_path = str(event.path)
    return [NotifyPrimitive(f"ntf-{event.event_id}-{sub.id}", *sub.notification_target,
                            event.change, changed_path, view, event.old_name) for sub in subs]


class NotificationChannel:
    """Ordered at-least-once delivery of notifications to one peer.

    Notifications go out one at a time (order preserved end to end); a failed
    attempt is retried with doubling backoff, then dropped and counted once
    the retry budget is exhausted. A paused channel sends nothing new, and
    its queue waits for ``resume``.
    """

    def __init__(
        self,
        transport: Callable[[NotifyPrimitive, Callable[[bool], None]], None],
        process: Callable[[Generator], None],
        *,
        max_retries: int = 3,
        initial_backoff_ms: float = 100.0,
    ):
        self._transport = transport
        self._process = process
        self._max_retries = max_retries
        self._initial_backoff_ms = initial_backoff_ms
        self._queue: deque[NotifyPrimitive] = deque()
        self._in_flight = False
        self._paused = False
        self._idle_callbacks: list[Callable[[], None]] = []
        self.sent = 0
        self.dropped = 0
        self.retries = 0

    @property
    def idle(self) -> bool:
        """Nothing in flight, and nothing queued that may go out: on a
        paused channel, only the notification in flight is waited for."""
        return not self._in_flight and (self._paused or not self._queue)

    def when_idle(self, callback: Callable[[], None]) -> None:
        """Run once the channel is idle."""
        if self.idle:
            callback()
        else:
            self._idle_callbacks.append(callback)

    def pause(self) -> None:
        """Hold deliveries (notification function down)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._pump()

    def discard(self, superseded: Callable[[NotifyPrimitive], bool]) -> None:
        """Take the queued notifications ``superseded`` picks out of an idle
        channel's queue, which holds any only while paused."""
        self._queue = deque(n for n in self._queue if not superseded(n))

    def enqueue(self, notify: NotifyPrimitive) -> None:
        self._queue.append(notify)
        self._pump()

    def _pump(self) -> None:
        if self._in_flight or self._paused or not self._queue:
            return
        self._in_flight = True
        self._process(self._deliver())

    def _deliver(self) -> Generator:
        """Send the queued notifications in order until the queue is empty or
        the channel paused: hand each to the transport, and after each failed
        attempt wait a doubling backoff and try again, up to the retry budget."""
        while self._queue and not self._paused:
            notify = self._queue[0]
            attempt = 0
            while not (yield partial(self._transport, notify)):
                if attempt == self._max_retries:
                    self.dropped += 1
                    break
                self.retries += 1
                yield self._initial_backoff_ms * (2 ** attempt)
                attempt += 1
            else:
                self.sent += 1
            self._queue.popleft()
        self._in_flight = False
        callbacks, self._idle_callbacks = self._idle_callbacks, []
        for callback in callbacks:
            callback()
