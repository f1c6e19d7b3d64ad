"""Subscription matching and notification delivery.

A mutation on a tree fires one notification per subscription sitting next to
the changed resource (direct-children scope: a subscription under a container
observes creations, updates and deletions of that container's children).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .codec import decode_body, encode_fieldline, encode_resource
from .errors import BadRequestError, NotFoundError
from .primitives import Operation, RequestPrimitive, ResourceView, decode_resource
from .resources import ChangeEvent, ResourceTree


@dataclass(frozen=True)
class NotifyPrimitive:
    """One change notification addressed to a subscription's target."""

    request_id: str
    target_node: str
    target_path: str
    change: str
    changed_path: str
    resource: bytes  # encoded resource representation
    old_name: str | None = None

    def payload(self) -> bytes:
        meta = [("ev", self.change), ("pt", self.changed_path)]
        if self.old_name is not None:
            meta.append(("on", self.old_name))
        return (encode_fieldline(meta) + "\n").encode("ascii") + self.resource

    def to_request(self, sender: str) -> RequestPrimitive:
        return RequestPrimitive(
            operation=Operation.NOTIFY,
            to=self.target_path,
            originator=sender,
            request_id=self.request_id,
            content=self.payload(),
        )

    def view(self) -> ResourceView:
        return decode_resource(self.resource)


def parse_notify(req: RequestPrimitive) -> NotifyPrimitive:
    head, _, record = (req.content or b"").partition(b"\n")
    meta = decode_body(head)
    if "ev" not in meta or "pt" not in meta:
        raise BadRequestError("notification lacks its change or path")
    return NotifyPrimitive(
        request_id=req.request_id,
        target_node=req.originator,  # informational only on the receive side
        target_path=req.to,
        change=meta["ev"],
        changed_path=meta["pt"],
        resource=record,
        old_name=meta.get("on"),
    )


def match_subscriptions(tree: ResourceTree, event: ChangeEvent) -> list[NotifyPrimitive]:
    """Notifications for one committed change, in subscription-creation order.

    A subscription never observes its own creation, update or deletion.
    """
    if not event.path.segments:
        return []  # the root has no enclosing scope
    try:
        parent = tree.resolve(event.path.parent())
    except NotFoundError:
        return []
    subs = [s for s in tree.subscriptions(parent.id) if s.id != event.resource.id]
    if not subs:
        return []
    record = encode_resource(event.resource)  # one encoding shared by every notify
    changed_path = str(event.path)
    notifies = []
    for sub in subs:
        node, path = sub.notification_target  # type: ignore[misc]
        notifies.append(
            NotifyPrimitive(
                request_id=f"ntf-{event.event_id}-{sub.id}",
                target_node=node,
                target_path=path,
                change=event.change,
                changed_path=changed_path,
                resource=record,
                old_name=event.old_name,
            )
        )
    return notifies


class NotificationChannel:
    """Ordered at-least-once delivery of notifications to one peer.

    Notifications go out one at a time (order preserved end to end); a failed
    attempt is retried with doubling backoff, then dropped and counted once
    the retry budget is exhausted.
    """

    def __init__(
        self,
        transport: Callable[[NotifyPrimitive, Callable[[bool], None]], None],
        schedule: Callable[[float, Callable[[], None]], object],
        *,
        max_retries: int = 3,
        initial_backoff_ms: float = 100.0,
    ):
        self._transport = transport
        self._schedule = schedule
        self._max_retries = max_retries
        self._initial_backoff_ms = initial_backoff_ms
        self._queue: list[NotifyPrimitive] = []
        self._in_flight = False
        self._paused = False
        self._idle_callbacks: list[Callable[[], None]] = []
        self.sent = 0
        self.dropped = 0
        self.retries = 0

    @property
    def idle(self) -> bool:
        return not self._queue and not self._in_flight

    def when_idle(self, callback: Callable[[], None]) -> None:
        """Run once every queued notification has been resolved."""
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

    def enqueue(self, notify: NotifyPrimitive) -> None:
        self._queue.append(notify)
        self._pump()

    def _pump(self) -> None:
        if self._in_flight or self._paused or not self._queue:
            return
        self._in_flight = True
        self._attempt(self._queue[0], attempt=0)

    def _attempt(self, notify: NotifyPrimitive, attempt: int) -> None:
        def done(delivered: bool) -> None:
            if delivered:
                self.sent += 1
                self._finish()
            elif attempt < self._max_retries:
                self.retries += 1
                backoff = self._initial_backoff_ms * (2 ** attempt)
                self._schedule(backoff, lambda: self._attempt(notify, attempt + 1))
            else:
                self.dropped += 1
                self._finish()

        self._transport(notify, done)

    def _finish(self) -> None:
        self._queue.pop(0)
        self._in_flight = False
        self._pump()
        if self.idle:
            callbacks, self._idle_callbacks = self._idle_callbacks, []
            for callback in callbacks:
                callback()
