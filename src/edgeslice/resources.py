"""Hierarchical service-layer resource tree.

One tree per service-layer node (cloud or edge gateway). The tree supports
five resource kinds, CRUD with strict kind-nesting rules, a virtual
"latest instance" child on containers, and subscription matching that turns
mutations into notification primitives.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import groupby, repeat
from operator import itemgetter
from typing import Callable, Container, Iterator, NamedTuple, Sequence, TypeVar

from .codec import (
    decode_b64,
    decode_fieldline,
    decode_labels,
    decode_target,
    encode_fieldline,
    encode_record,
    parse_float,
    parse_int,
)
from .errors import BadRequestError, NotFoundError

LATEST_SEGMENT = "la"

_T = TypeVar("_T")

_PARENT_INDEX = itemgetter(0)  # of a ``graft_many`` node


class ResourceKind(Enum):
    CSE_BASE = 1
    AE = 2
    CONTAINER = 3
    CONTENT_INSTANCE = 4
    SUBSCRIPTION = 5

    # Enum hashes a member by its name in Python; members compare by
    # identity, so the identity hash is consistent and runs in C
    __hash__ = object.__hash__


# id prefix per kind; ids look like "ci_0001"
ID_PREFIX = {
    ResourceKind.CSE_BASE: "cb",
    ResourceKind.AE: "ae",
    ResourceKind.CONTAINER: "cnt",
    ResourceKind.CONTENT_INSTANCE: "ci",
    ResourceKind.SUBSCRIPTION: "sub",
}
_ID_HEAD = {kind: prefix + "_" for kind, prefix in ID_PREFIX.items()}

# the members, in declaration order, as module globals: reading one through
# the class costs over ten times as much, and every create reads several
_CSE_BASE, _AE, _CONTAINER, _INSTANCE, _SUBSCRIPTION = ResourceKind


_NO_IDS = dict.fromkeys(ResourceKind, 0)  # id counters of a tree with no resources

# per kind, the ids formatted so far in this process: ``_IDS[kind][n]`` is the
# ``n``-th (0 is unused). Trees mint ids in order, so a list grows by one id
# at a time, only to the largest id minted.
_IDS = {kind: [""] for kind in ResourceKind}


def _format_id(kind: ResourceKind, n: int) -> str:
    """The ``n``-th id of ``kind`` (``n >= 1``): ``f"{ID_PREFIX[kind]}_{n:04d}"``."""
    try:
        return _IDS[kind][n]
    except IndexError:
        ids = _IDS[kind]
        text = _ID_HEAD[kind] + str(n).zfill(4)
        if n == len(ids):  # only the next one: a dump may set a counter far ahead
            ids.append(text)
        return text


# Which child kinds may live under which parent kind. This table is the
# single source of truth for nesting legality.
LEGAL_CHILDREN = {
    ResourceKind.CSE_BASE: frozenset(
        {ResourceKind.AE, ResourceKind.CONTAINER, ResourceKind.SUBSCRIPTION}
    ),
    ResourceKind.AE: frozenset({ResourceKind.CONTAINER, ResourceKind.SUBSCRIPTION}),
    ResourceKind.CONTAINER: frozenset(
        {
            ResourceKind.CONTAINER,
            ResourceKind.CONTENT_INSTANCE,
            ResourceKind.SUBSCRIPTION,
        }
    ),
    ResourceKind.CONTENT_INSTANCE: frozenset(),
    ResourceKind.SUBSCRIPTION: frozenset(),
}


@dataclass(slots=True)
class Resource:
    """One node of the tree.

    ``content`` is only present on content instances; ``notification_target``
    (destination node id, destination resource path) only on subscriptions.
    """

    id: str
    name: str
    kind: ResourceKind
    parent_id: str | None
    creation_time: float
    last_modified_time: float
    content: bytes | None = None
    notification_target: tuple[str, str] | None = None
    labels: tuple[str, ...] = ()

    def snapshot(self) -> "Resource":
        # positional: keywords cost about twice as much per build
        return Resource(
            self.id, self.name, self.kind, self.parent_id, self.creation_time,
            self.last_modified_time, self.content, self.notification_target, self.labels,
        )


class ResourcePath(NamedTuple):
    """Structured address of a resource: cse label + name segments.

    ``latest=True`` denotes the virtual ``/la`` suffix resolving to the most
    recent content instance of a container. ``parse`` keeps the path of
    each of the most recent distinct strings it read, so an address read
    again is one cache hit; a string it refuses is refused every time.
    """

    cse_label: str
    segments: tuple[str, ...] = ()
    latest: bool = False

    @classmethod
    @lru_cache(maxsize=1024)
    def parse(cls, text: str) -> "ResourcePath":
        parts = [p for p in text.split("/") if p != ""]
        if not parts:
            raise BadRequestError("empty resource path")
        latest = False
        if len(parts) > 1 and parts[-1] == LATEST_SEGMENT:
            latest = True
            parts = parts[:-1]
        return cls(cse_label=parts[0], segments=tuple(parts[1:]), latest=latest)

    def __str__(self) -> str:
        parts = [self.cse_label, *self.segments]
        if self.latest:
            parts.append(LATEST_SEGMENT)
        return "/".join(parts)

    def child(self, name: str) -> "ResourcePath":
        return ResourcePath(self.cse_label, self.segments + (name,))

    def parent(self) -> "ResourcePath":
        if not self.segments:
            raise BadRequestError("root path has no parent")
        return ResourcePath(self.cse_label, self.segments[:-1])

    def is_prefix_of(self, other: "ResourcePath") -> bool:
        return (
            self.cse_label == other.cse_label
            and other.segments[: len(self.segments)] == self.segments
        )

    def relative_segments(self, ancestor: "ResourcePath") -> tuple[str, ...]:
        if not ancestor.is_prefix_of(self):
            raise BadRequestError(f"{ancestor} is not an ancestor of {self}")
        return self.segments[len(ancestor.segments):]

    def rebase(self, old_root: "ResourcePath", new_root: "ResourcePath") -> "ResourcePath":
        rel = self.relative_segments(old_root)
        return ResourcePath(new_root.cse_label, new_root.segments + rel, self.latest)


class ChangeEvent(NamedTuple):
    """A committed mutation, consumed by subscription matching and sync.
    ``resource`` is a snapshot of the changed node, or the node itself when
    it is a content instance, which is never edited in place."""

    event_id: str
    change: str  # "created" | "updated" | "deleted"
    path: ResourcePath
    resource: Resource
    old_name: str | None = None


class ManualClock:
    """Directly advanced virtual clock, for tests and the walkthrough demos."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, delta_ms: float) -> float:
        if delta_ms < 0:
            raise ValueError("clock cannot go backwards")
        self.now += delta_ms
        return self.now


def _check_child(parent_kind: ResourceKind, kind: ResourceKind, name: str, taken: Container[str],
                 content: bytes | None = None, target: tuple[str, str] | None = None) -> None:
    """Refuse a child that ``create`` may not make: an illegal name or
    nesting, content on anything but a content instance, or a notification
    target on anything but a subscription, and an instance or subscription
    without one; and a name among ``taken``, the names of its siblings.
    Every route that adds a child or renames one checks it here."""
    if not name:
        raise BadRequestError("resource name must be nonempty")
    if "/" in name:
        raise BadRequestError(f"resource name may not contain '/': {name!r}")
    if name == LATEST_SEGMENT:
        raise BadRequestError(f"{LATEST_SEGMENT!r} is reserved for latest-instance addressing")
    if kind not in LEGAL_CHILDREN[parent_kind]:
        raise BadRequestError(f"{kind.name} may not be created under {parent_kind.name}")
    if (content is None) is (kind is _INSTANCE):
        raise BadRequestError("content instance requires content" if content is None
                              else "only content instances carry content")
    if (target is None) is (kind is _SUBSCRIPTION):
        raise BadRequestError("subscription requires a notification target" if target is None
                              else "only subscriptions carry a notification target")
    if name in taken:
        raise BadRequestError(f"sibling name {name!r} is already taken")


class _GuardBypass:
    """Context manager suspending one tree's write guard while it is open."""

    __slots__ = ("_tree",)

    def __init__(self, tree: "ResourceTree"):
        self._tree = tree

    def __enter__(self) -> None:
        self._tree._guard_bypass += 1

    def __exit__(self, *exc) -> bool:
        self._tree._guard_bypass -= 1
        return False


class ResourceTree:
    """Single-writer resource tree rooted at one CseBase.

    Mutations emit ChangeEvents into an internal queue the owner drains; an
    optional ``guard`` callback can veto writes (used to enforce edge
    authority over offloaded mirrors).

    Sibling lookups are indexed: each node with children keeps an insertion-
    ordered ``{name: id}`` dict of them, made with the first, each parent the
    ids of its subscriptions, and each container a pointer to its latest
    content instance. Name resolution, ``/la`` and subscription matching
    therefore cost the same however many siblings a container holds.

    A structure version counts the changes to the child index: every attach,
    detach, grafted batch and rename raises it, inline. A copy starts at its
    source's version and remembers its source, so ``derived`` can tell that
    neither has changed since and hand out what the source derived.
    """

    def __init__(self, cse_label: str, clock: Callable[[], float] | None = None):
        self._reset(cse_label, clock)
        root_id = self._mint_id(_CSE_BASE)
        now = self._clock()
        self._attach(Resource(root_id, cse_label, _CSE_BASE, None, now, now))

    def _reset(self, cse_label: str, clock: Callable[[], float] | None) -> None:
        """No resources yet; id counters and the event sequence at zero."""
        self.cse_label = cse_label
        self._clock = clock or (lambda: 0.0)
        self._root_id: str = None  # type: ignore[assignment]  # set by the root's _attach
        self._nodes: dict[str, Resource] = {}
        self._children: dict[str, dict[str, str]] = {}
        self._subscriptions: dict[str, list[str]] = {}
        self._latest: dict[str, str] = {}
        self._counters: dict[ResourceKind, int] = dict(_NO_IDS)
        self._event_seq = 0
        self._events: list[ChangeEvent] = []
        self.guard: Callable[[ResourcePath, str], None] | None = None
        self._guard_bypass = 0
        self._version = 0  # raised by every change to the child index
        self._source: ResourceTree | None = None  # the tree this one is a copy of
        self._source_version = 0  # this tree's and its source's version at the copy
        self._derived: dict[object, tuple[int, object]] = {}  # key: (version, value)

    # --- identity and lookup ---

    def _mint_id(self, kind: ResourceKind) -> str:
        self._counters[kind] += 1
        return _format_id(kind, self._counters[kind])

    def _peek_id(self, kind: ResourceKind) -> str:
        return _format_id(kind, self._counters[kind] + 1)

    @property
    def root(self) -> Resource:
        return self._nodes[self._root_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def get(self, resource_id: str) -> Resource:
        try:
            return self._nodes[resource_id]
        except KeyError:
            raise NotFoundError(f"no resource with id {resource_id!r}") from None

    def children(self, resource_id: str) -> list[Resource]:
        return [self._nodes[c] for c in self._children.get(resource_id, {}).values()]

    def subscriptions(self, resource_id: str) -> list[Resource]:
        """Subscription children of a resource, in creation order."""
        return [self._nodes[s] for s in self._subscriptions.get(resource_id, ())]

    def resolve(self, path: ResourcePath) -> Resource:
        """Resolve a path to its resource, honouring the virtual /la suffix."""
        if path.cse_label != self.cse_label:
            raise NotFoundError(f"unknown cse label {path.cse_label!r} (tree is {self.cse_label!r})")
        node_id = self._root_id
        children = self._children
        try:
            for seg in path.segments:
                node_id = children[node_id][seg]
        except KeyError:
            raise NotFoundError(f"no resource at {path}") from None
        node = self._nodes[node_id]
        if path.latest:
            node = self.latest_instance(node)
        return node

    def latest_instance(self, container: Resource) -> Resource:
        """Content-instance child with the greatest creation time.

        Ties are broken by insertion order: the later-created sibling wins.
        """
        if container.kind is not _CONTAINER:
            raise BadRequestError("latest-instance lookup requires a container")
        latest_id = self._latest.get(container.id)
        if latest_id is None:
            raise NotFoundError(f"container {container.name!r} has no content instances")
        return self._nodes[latest_id]

    def path_of(self, resource: Resource | str) -> ResourcePath:
        node = self.get(resource) if isinstance(resource, str) else resource
        segments: list[str] = []
        while node.parent_id is not None:
            segments.append(node.name)
            node = self._nodes[node.parent_id]
        return ResourcePath(self.cse_label, tuple(reversed(segments)))

    def derived(self, key: object, build: Callable[["ResourceTree"], _T]) -> _T:
        """``build(self)``, kept under ``key``. While neither this copy nor
        its source has changed structure since the copy, the value comes
        from the source, which builds it once (or takes it from its own
        source) and keeps it until its own structure changes. So ``build``
        may read only what nothing but a structure change alters: ids,
        names, kinds, creation times, content and child order."""
        source = self._source
        if source is None or not self._version == self._source_version == source._version:
            return build(self)
        kept = source._derived.get(key)
        if kept is None or kept[0] != source._version:
            kept = source._derived[key] = (source._version, source.derived(key, build))
        return kept[1]  # type: ignore[return-value]

    def walk(self, start_id: str | None = None) -> Iterator[Resource]:
        """Preorder traversal in insertion order."""
        stack = [start_id or self._root_id]
        while stack:
            node_id = stack.pop()
            yield self._nodes[node_id]
            kids = self._children.get(node_id)
            if kids:
                stack.extend(reversed(kids.values()))

    # --- mutation ---

    def _check_guard(self, path: ResourcePath, op: str) -> None:
        if self.guard is not None and self._guard_bypass == 0:
            self.guard(path, op)

    def unguarded(self) -> _GuardBypass:
        """Context manager suspending the write guard (sync-engine writes)."""
        return _GuardBypass(self)

    def _emit(self, change: str, path: ResourcePath, resource: Resource,
              old_name: str | None = None) -> ChangeEvent:
        self._event_seq += 1
        if resource.kind is not _INSTANCE:
            resource = resource.snapshot()
        event = ChangeEvent(f"{self.cse_label}:{self._event_seq}", change, path, resource, old_name)
        self._events.append(event)
        return event

    @property
    def last_event(self) -> ChangeEvent:
        """The latest change event not yet drained."""
        return self._events[-1]

    def drain_events(self) -> list[ChangeEvent]:
        events, self._events = self._events, []
        return events

    def _attach(self, node: Resource) -> None:
        """Insert a node as the root or as the last child of its parent,
        updating the parent's subscription list and latest-instance pointer."""
        self._version += 1
        self._nodes[node.id] = node
        parent_id = node.parent_id
        if parent_id is None:
            self._root_id = node.id
            return
        self._children.setdefault(parent_id, {})[node.name] = node.id
        kind = node.kind
        if kind is _SUBSCRIPTION:
            self._subscriptions.setdefault(parent_id, []).append(node.id)
        elif kind is _INSTANCE:
            latest_id = self._latest.get(parent_id)
            if latest_id is None or node.creation_time >= self._nodes[latest_id].creation_time:
                self._latest[parent_id] = node.id

    def _detach(self, node: Resource) -> None:
        """Remove a non-root node from its parent's indexes. The latest-
        instance pointer is rescanned only when it pointed at this node."""
        self._version += 1
        parent_id: str = node.parent_id  # type: ignore[assignment]
        siblings = self._children[parent_id]
        del siblings[node.name]
        if node.kind is _SUBSCRIPTION:
            self._subscriptions[parent_id].remove(node.id)
        elif self._latest.get(parent_id) == node.id:
            best: Resource | None = None
            for child_id in siblings.values():
                child = self._nodes[child_id]
                if child.kind is _INSTANCE and (
                    best is None or child.creation_time >= best.creation_time
                ):
                    best = child
            if best is None:
                del self._latest[parent_id]
            else:
                self._latest[parent_id] = best.id

    def create(
        self,
        parent_path: ResourcePath,
        kind: ResourceKind,
        name: str | None = None,
        *,
        content: bytes | None = None,
        notification_target: tuple[str, str] | None = None,
        labels: Sequence[str] | None = None,
    ) -> ResourcePath:
        """Insert a resource; returns its full path and queues a ChangeEvent.

        An omitted name defaults to the id the tree mints (e.g. "ci_0001").
        """
        parent = self.resolve(parent_path)
        if name is None:
            name = self._peek_id(kind)
        _check_child(parent.kind, kind, name, self._children.get(parent.id, ()), content,
                     notification_target)
        new_path = parent_path.child(name)  # parent_path resolved, so it is canonical
        self._check_guard(new_path, "create")
        now = self._clock()
        node = Resource(
            self._mint_id(kind), name, kind, parent.id, now, now,
            content, notification_target, tuple(labels or ()),
        )
        self._attach(node)
        parent.last_modified_time = now
        self._emit("created", new_path, node)
        return new_path

    def graft(
        self,
        parent: Resource,
        kind: ResourceKind,
        name: str,
        *,
        creation_time: float,
        content: bytes | None = None,
        labels: Sequence[str] | None = None,
    ) -> Resource:
        """Insert one replicated resource under a live node of this tree,
        keeping its source creation time; returns the new resource and
        queues a ChangeEvent, so that applications watching a mirror observe
        synchronized data. It is checked as ``create`` checks a child; a
        subscription is refused, since a graft carries no notification
        target.

        Used by mirror replay and snapshot merges, which resolve the parent
        themselves.
        """
        _check_child(parent.kind, kind, name, self._children.get(parent.id, ()), content)
        now = self._clock()
        node = Resource(self._mint_id(kind), name, kind, parent.id, creation_time, now, content,
                        None, tuple(labels or ()))
        self._attach(node)
        parent.last_modified_time = now
        self._emit("created", self.path_of(node), node)
        return node

    def graft_many(self, parent: Resource, nodes: Sequence[tuple], grouping: Sequence[str] = (),
                   grouped_at: float = 0.0) -> list[Resource]:
        """Insert a batch of replicated resources under a live node of this
        tree, keeping their source creation times; returns them in batch
        order. Emits no events and reads the clock once. A node is shaped as
        an offload ``BundleRecord``, ``(parent, kind, name, creation_time,
        content)``, ``parent`` being -1 for the batch's parent or an earlier
        node's index. The containers named in ``grouping``, created at
        ``grouped_at``, each under the one before, go in first; the last is
        the batch's parent. Each node's parent index is checked as it goes
        in, and the node itself as ``graft`` checks it. A refused batch is
        taken out again: the tree is as it was, id counters and ``/la``
        pointers included.

        Each run of more than one consecutive node with one parent index
        goes in at once (``_graft_run``) when all of it passes the checks;
        otherwise its nodes go in one at a time, so a refusal names the
        first bad node.
        """
        now = self._clock()
        self._version += 1
        saved = dict(self._counters)
        chain = [(i - 1, _CONTAINER, name, grouped_at, None) for i, name in enumerate(grouping)]
        made: list[Resource] = []
        top = parent
        try:
            for batch in (chain, nodes):
                offset = len(made)  # a batch's index i names made[offset + i]
                for index, run in groupby(batch, _PARENT_INDEX):
                    if index < 0:
                        if index != -1:
                            raise BadRequestError(f"batch parent index {index} is below -1")
                        up = top
                    else:
                        up = made[offset + index]  # an IndexError if not an earlier node
                    run = list(run)
                    if len(run) > 1:
                        grafted = self._graft_run(up, run, now)
                        if grafted is not None:
                            made.extend(grafted)
                            continue
                    for _, kind, name, created, content in run:
                        _check_child(up.kind, kind, name, self._children.get(up.id, ()), content)
                        node = Resource(self._mint_id(kind), name, kind, up.id, created, now, content)
                        self._attach(node)
                        made.append(node)
                if made:
                    top = made[-1]  # the last grouping container
        except Exception as exc:
            for node in reversed(made):  # take the batch out again
                if node.parent_id == parent.id:
                    self._detach(node)  # rescans parent's /la if the node took it
                for table in (self._nodes, self._children, self._latest):
                    table.pop(node.id, None)
            self._counters = saved
            if isinstance(exc, IndexError):
                raise BadRequestError("a batch node's parent index names no earlier node") from None
            raise
        if made:
            parent.last_modified_time = now
        return made[len(chain):] if chain else made

    def _graft_run(self, up: Resource, run: list[tuple], now: float) -> list[Resource] | None:
        """Attach a run of ``graft_many`` nodes under ``up`` in one step and
        return them, if every node passes the checks one at a time would
        make: one kind, legal under ``up`` and not a subscription, content
        as that kind needs it, names that are legal, distinct and free among
        ``up``'s children, and, for instances, creation times with no NaN,
        so that the newest is the one a node-by-node insert would point
        ``/la`` at. Otherwise change nothing and return None."""
        _, kinds, names, times, contents = zip(*run)
        kind, n, parent_id = kinds[0], len(run), up.id
        siblings = self._children.get(parent_id)
        distinct = set(names)
        if (kinds.count(kind) != n or kind not in LEGAL_CHILDREN[up.kind] or kind is _SUBSCRIPTION
                or (None in contents if kind is _INSTANCE else contents.count(None) != n)
                or len(distinct) != n or "" in distinct or LATEST_SEGMENT in distinct
                or "/" in "".join(names)
                or (siblings is not None and not siblings.keys().isdisjoint(distinct))
                or (kind is _INSTANCE and (total := sum(times)) != total)):
            return None
        counters = self._counters
        first = counters[kind] + 1
        counters[kind] += n
        node_ids = _IDS[kind][first:first + n]
        if len(node_ids) < n:  # ids this process has not formatted yet
            node_ids += [_format_id(kind, count) for count in range(first + len(node_ids), first + n)]
        made = list(map(Resource, node_ids, names, kinds, repeat(parent_id, n), times, repeat(now, n),
                        contents))
        self._nodes.update(zip(node_ids, made))
        if siblings is None:
            siblings = self._children[parent_id] = {}
        siblings.update(zip(names, node_ids))
        if kind is _INSTANCE:
            newest = max(times)
            latest_id = self._latest.get(parent_id)
            if latest_id is None or newest >= self._nodes[latest_id].creation_time:
                # the last of the newest, as a node-by-node insert leaves it
                self._latest[parent_id] = node_ids[n - 1 - times[::-1].index(newest)]
        return made

    def update(
        self,
        path: ResourcePath,
        *,
        name: str | None = None,
        labels: Sequence[str] | None = None,
        notification_target: tuple[str, str] | None = None,
    ) -> Resource:
        """Replace named fields; content instances are immutable records."""
        node = self.resolve(path)
        if node.kind is _INSTANCE:
            raise BadRequestError("content instances are write-once")
        if notification_target is not None and node.kind is not _SUBSCRIPTION:
            raise BadRequestError("only subscriptions carry a notification target")
        self._check_guard(self.path_of(node), "update")
        old_name = None
        if name is not None and name != node.name:
            if node.parent_id is None:
                raise BadRequestError("the root cannot be renamed")
            siblings = self._children[node.parent_id]
            _check_child(self._nodes[node.parent_id].kind, node.kind, name, siblings, node.content,
                         node.notification_target)
            # rebuilt rather than popped and re-added, so the child keeps its place
            self._children[node.parent_id] = {
                (name if child_id == node.id else child_name): child_id
                for child_name, child_id in siblings.items()
            }
            old_name = node.name
            node.name = name
            self._version += 1
        if labels is not None:
            node.labels = tuple(labels)
        if notification_target is not None:
            node.notification_target = notification_target
        node.last_modified_time = self._clock()
        self._emit("updated", self.path_of(node), node, old_name=old_name)
        return node

    def delete(self, path: ResourcePath) -> int:
        """Remove a subtree atomically; returns the number of removed nodes."""
        node = self.resolve(path)
        if node.id == self._root_id:
            raise BadRequestError("the root CseBase cannot be deleted")
        full_path = self.path_of(node)
        self._check_guard(full_path, "delete")
        doomed = [r.id for r in self.walk(node.id)]
        parent = self._nodes[node.parent_id]  # type: ignore[index]
        self._detach(node)
        for rid in doomed:
            del self._nodes[rid]
            self._children.pop(rid, None)
            self._subscriptions.pop(rid, None)
            self._latest.pop(rid, None)
        parent.last_modified_time = self._clock()
        self._emit("deleted", full_path, node)
        return len(doomed)

    def retarget_subscription(self, subscription_id: str, target: tuple[str, str]) -> None:
        """Silent bookkeeping update of a sync subscription's target.

        Does not emit an event; used when a rename shifts mirror paths.
        """
        node = self.get(subscription_id)
        if node.kind is not _SUBSCRIPTION:
            raise BadRequestError("retarget requires a subscription")
        node.notification_target = target

    def copy(self, clock: Callable[[], float] | None = None) -> "ResourceTree":
        """Copy on ``clock`` with the same ids, child order, indexes, id
        counters, event sequence and structure version, and no pending
        events or guard. Every node but a content instance is a fresh
        resource sharing the source's label tuple and content bytes;
        instances are shared with the source, since a content instance is
        never edited in place. The copy remembers its source for
        ``derived``."""
        instance = _INSTANCE
        tree = ResourceTree.__new__(ResourceTree)
        tree._reset(self.cse_label, clock)
        tree._root_id = self._root_id
        tree._nodes = {
            rid: node if node.kind is instance else node.snapshot()
            for rid, node in self._nodes.items()
        }
        tree._children = {rid: dict(kids) for rid, kids in self._children.items()}
        tree._subscriptions = {rid: list(subs) for rid, subs in self._subscriptions.items()}
        tree._latest = dict(self._latest)
        tree._counters = dict(self._counters)
        tree._event_seq = self._event_seq
        tree._version = tree._source_version = self._version
        tree._source = self
        return tree

    # --- serialization ---

    def serialize(self) -> str:
        """Byte-stable textual dump: header line then preorder records."""
        counters = ",".join(
            f"{ID_PREFIX[k]}:{self._counters[k]}" for k in ResourceKind
        )
        lines = [
            encode_fieldline(
                [("lbl", self.cse_label), ("ctr", counters), ("seq", str(self._event_seq))]
            )
        ]
        for node in self.walk():
            lines.append(encode_record([("id", node.id), ("pid", node.parent_id or "-")], node))
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str, clock: Callable[[], float] | None = None) -> "ResourceTree":
        """Inverse of ``serialize``; malformed text raises BadRequestError."""
        tree = cls.__new__(cls)
        lines = [ln for ln in text.split("\n") if ln]
        try:
            header = decode_fieldline(lines[0])
            tree._reset(header["lbl"], clock)
            kinds = {prefix: kind for kind, prefix in ID_PREFIX.items()}
            for part in header["ctr"].split(","):
                prefix, _, value = part.partition(":")
                tree._counters[kinds[prefix]] = parse_int(value)
            tree._event_seq = parse_int(header["seq"])
            for line in lines[1:]:
                rec = decode_fieldline(line)
                node = Resource(
                    id=rec["id"],
                    name=rec["nm"],
                    kind=ResourceKind(parse_int(rec["ty"])),
                    parent_id=rec["pid"] if rec["pid"] != "-" else None,
                    creation_time=parse_float(rec["ct"]),
                    last_modified_time=parse_float(rec["lt"]),
                    content=decode_b64(rec["pc"]) if "pc" in rec else None,
                    notification_target=decode_target(rec["nt"]) if "nt" in rec else None,
                    labels=decode_labels(rec["lb"]) if "lb" in rec else (),
                )
                head, pid = _ID_HEAD[node.kind], node.parent_id
                n = parse_int(node.id[len(head):]) if node.id.startswith(head) else 0
                if not 1 <= n <= tree._counters[node.kind] or _format_id(node.kind, n) != node.id:
                    # past its kind's counter, an id would be minted again
                    raise BadRequestError(f"resource id {node.id!r} is not one the tree minted")
                if node.id in tree._nodes or (
                    pid not in tree._nodes if pid is not None else tree._root_id is not None
                ):
                    raise BadRequestError(f"resource {node.id!r} clashes or precedes its parent")
                if pid is None:
                    if node.kind is not _CSE_BASE or node.name != tree.cse_label:
                        # what ``ResourceTree()`` makes: a CseBase named after the label
                        raise BadRequestError(f"root {node.id!r} is not a CseBase named "
                                              f"{tree.cse_label!r}")
                else:  # what ``create`` could have made
                    _check_child(tree._nodes[pid].kind, node.kind, node.name,
                                 tree._children.get(pid, ()), node.content, node.notification_target)
                tree._attach(node)  # preorder: every parent precedes its children
        except (IndexError, KeyError, ValueError) as exc:
            raise BadRequestError(f"malformed tree dump: {exc!r}") from None
        if tree._root_id is None:
            raise BadRequestError("tree dump has no root")
        return tree
