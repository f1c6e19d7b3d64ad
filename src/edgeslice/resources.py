"""Hierarchical service-layer resource tree.

One tree per service-layer node (cloud or edge gateway). The tree supports
five resource kinds, CRUD with strict kind-nesting rules, a virtual
"latest instance" child on containers, and subscription matching that turns
mutations into notification primitives.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Sequence

from .codec import (
    decode_b64,
    decode_fieldline,
    decode_labels,
    decode_target,
    encode_fieldline,
    encode_record,
)
from .errors import BadRequestError, NotFoundError

LATEST_SEGMENT = "la"

_UNSET = object()


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
    labels: list[str] = field(default_factory=list)

    def snapshot(self) -> "Resource":
        # positional: keywords cost about twice as much per build
        return Resource(
            self.id, self.name, self.kind, self.parent_id, self.creation_time,
            self.last_modified_time, self.content, self.notification_target, self.labels[:],
        )


@dataclass(frozen=True)
class ResourcePath:
    """Structured address of a resource: cse label + name segments.

    ``latest=True`` denotes the virtual ``/la`` suffix resolving to the most
    recent content instance of a container.
    """

    cse_label: str
    segments: tuple[str, ...] = ()
    latest: bool = False

    @classmethod
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


@dataclass(frozen=True)
class ChangeEvent:
    """A committed mutation, consumed by subscription matching and sync."""

    event_id: str
    change: str  # "created" | "updated" | "deleted"
    path: ResourcePath
    resource: Resource
    old_name: str | None = None


class ManualClock:
    """Directly advanced virtual clock for tests and direct-mode use."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, delta_ms: float) -> float:
        if delta_ms < 0:
            raise ValueError("clock cannot go backwards")
        self.now += delta_ms
        return self.now


def check_name(name: str) -> None:
    if not name:
        raise BadRequestError("resource name must be nonempty")
    if "/" in name:
        raise BadRequestError(f"resource name may not contain '/': {name!r}")
    if name == LATEST_SEGMENT:
        raise BadRequestError(f"{LATEST_SEGMENT!r} is reserved for latest-instance addressing")


def _check_child(parent_kind: ResourceKind, kind: ResourceKind, name: str) -> None:
    check_name(name)
    if kind not in LEGAL_CHILDREN[parent_kind]:
        raise BadRequestError(f"{kind.name} may not be created under {parent_kind.name}")


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

    Sibling lookups are indexed: each node keeps an insertion-ordered
    ``{name: id}`` dict of its children, each parent the ids of its
    subscriptions, and each container a pointer to its latest content
    instance. Name resolution, ``/la`` and subscription matching therefore
    cost the same however many siblings a container holds.
    """

    def __init__(self, cse_label: str, clock: Callable[[], float] | None = None):
        self._reset(cse_label, clock)
        root_id = self._mint_id(ResourceKind.CSE_BASE)
        now = self._clock()
        self._attach(Resource(root_id, cse_label, ResourceKind.CSE_BASE, None, now, now))

    def _reset(self, cse_label: str, clock: Callable[[], float] | None) -> None:
        """No resources yet; id counters and the event sequence at zero."""
        self.cse_label = cse_label
        self._clock = clock or (lambda: 0.0)
        self._root_id: str = None  # type: ignore[assignment]  # set by the root's _attach
        self._nodes: dict[str, Resource] = {}
        self._children: dict[str, dict[str, str]] = {}
        self._subscriptions: dict[str, list[str]] = {}
        self._latest: dict[str, str] = {}
        self._counters: dict[ResourceKind, int] = {k: 0 for k in ResourceKind}
        self._event_seq = 0
        self._events: list[ChangeEvent] = []
        self.guard: Callable[[ResourcePath, str], None] | None = None
        self._guard_bypass = 0

    # --- identity and lookup ---

    def _mint_id(self, kind: ResourceKind) -> str:
        self._counters[kind] += 1
        return f"{ID_PREFIX[kind]}_{self._counters[kind]:04d}"

    def _peek_id(self, kind: ResourceKind) -> str:
        return f"{ID_PREFIX[kind]}_{self._counters[kind] + 1:04d}"

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

    def resource_ids(self) -> list[str]:
        return list(self._nodes)

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
        for seg in path.segments:
            node_id = children[node_id].get(seg)
            if node_id is None:
                raise NotFoundError(f"no resource at {path}")
        node = self._nodes[node_id]
        if path.latest:
            node = self.latest_instance(node)
        return node

    def latest_instance(self, container: Resource) -> Resource:
        """Content-instance child with the greatest creation time.

        Ties are broken by insertion order: the later-created sibling wins.
        """
        if container.kind != ResourceKind.CONTAINER:
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

    def walk(self, start_id: str | None = None) -> Iterator[Resource]:
        """Preorder traversal in insertion order."""
        stack = [start_id or self._root_id]
        while stack:
            node_id = stack.pop()
            yield self._nodes[node_id]
            stack.extend(reversed(self._children[node_id].values()))

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
        event = ChangeEvent(
            event_id=f"{self.cse_label}:{self._event_seq}",
            change=change,
            path=path,
            resource=resource.snapshot(),
            old_name=old_name,
        )
        self._events.append(event)
        return event

    def drain_events(self) -> list[ChangeEvent]:
        events, self._events = self._events, []
        return events

    def _attach(self, node: Resource) -> None:
        """Insert a node as the root or as the last child of its parent,
        updating the parent's subscription list and latest-instance pointer."""
        self._nodes[node.id] = node
        self._children[node.id] = {}
        parent_id = node.parent_id
        if parent_id is None:
            self._root_id = node.id
            return
        self._children[parent_id][node.name] = node.id
        if node.kind is ResourceKind.SUBSCRIPTION:
            self._subscriptions.setdefault(parent_id, []).append(node.id)
        elif node.kind is ResourceKind.CONTENT_INSTANCE:
            latest_id = self._latest.get(parent_id)
            if latest_id is None or node.creation_time >= self._nodes[latest_id].creation_time:
                self._latest[parent_id] = node.id

    def _detach(self, node: Resource) -> None:
        """Remove a non-root node from its parent's indexes. The latest-
        instance pointer is rescanned only when it pointed at this node."""
        parent_id: str = node.parent_id  # type: ignore[assignment]
        siblings = self._children[parent_id]
        del siblings[node.name]
        if node.kind is ResourceKind.SUBSCRIPTION:
            self._subscriptions[parent_id].remove(node.id)
        elif self._latest.get(parent_id) == node.id:
            best: Resource | None = None
            for child_id in siblings.values():
                child = self._nodes[child_id]
                if child.kind is ResourceKind.CONTENT_INSTANCE and (
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
        labels: list[str] | None = None,
    ) -> ResourcePath:
        """Insert a resource; returns its full path and queues a ChangeEvent.

        An omitted name defaults to the id the tree mints (e.g. "ci_0001").
        """
        parent = self.resolve(parent_path)
        if name is None:
            name = self._peek_id(kind)
        _check_child(parent.kind, kind, name)
        if name in self._children[parent.id]:
            raise BadRequestError(f"sibling name {name!r} already exists under {parent.name!r}")
        if content is not None and kind != ResourceKind.CONTENT_INSTANCE:
            raise BadRequestError("only content instances carry content")
        if kind == ResourceKind.CONTENT_INSTANCE and content is None:
            raise BadRequestError("content instance requires content")
        if notification_target is not None and kind != ResourceKind.SUBSCRIPTION:
            raise BadRequestError("only subscriptions carry a notification target")
        if kind == ResourceKind.SUBSCRIPTION and notification_target is None:
            raise BadRequestError("subscription requires a notification target")
        new_path = parent_path.child(name)  # parent_path resolved, so it is canonical
        self._check_guard(new_path, "create")
        now = self._clock()
        node = Resource(
            self._mint_id(kind), name, kind, parent.id, now, now,
            content, notification_target, list(labels or []),
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
        notification_target: tuple[str, str] | None = None,
        labels: list[str] | None = None,
        emit_event: bool = False,
    ) -> Resource:
        """Insert one replicated resource under a live node of this tree,
        preserving its source creation time; returns the new resource. This
        is ``graft_many`` with a batch of one.

        Used by mirror replay and snapshot merges, which resolve the parent
        themselves. Mirror replay grafts emit events so applications
        watching the mirror observe synchronized data.
        """
        (node,) = self.graft_many(
            parent, [(-1, kind, name, creation_time, content, notification_target, labels)]
        )
        if emit_event:
            self._emit("created", self.path_of(node), node)
        return node

    def graft_many(self, parent: Resource, nodes: Sequence[tuple]) -> list[Resource]:
        """Insert a batch of replicated resources under a live node of this
        tree, preserving their source creation times; returns the new
        resources in batch order. Emits no events.

        Each node is ``(parent, kind, name, creation_time, content,
        notification_target, labels)``, where ``parent`` is -1 for the
        batch's ``parent`` or the index of an earlier node of the batch.
        Every node is checked before the first id is minted: a legal name, a
        kind allowed under its parent's kind, and a name that no sibling on
        the tree or earlier in the batch has. A refused batch leaves the tree
        as it was, id counters included. The clock is read once.
        """
        kinds: list[ResourceKind] = []
        taken: set[tuple[int, str]] = set()
        live = self._children[parent.id]
        for index, kind, name, _, _, _, _ in nodes:
            _check_child(parent.kind if index < 0 else kinds[index], kind, name)
            key = (index, name)
            if key in taken or (index < 0 and name in live):
                raise BadRequestError(f"sibling name {name!r} is already taken")
            taken.add(key)
            kinds.append(kind)
        now = self._clock()
        made: list[Resource] = []
        for index, kind, name, created, content, target, labels in nodes:
            node = Resource(
                self._mint_id(kind), name, kind, parent.id if index < 0 else made[index].id,
                created, now, content, target, list(labels or []),
            )
            self._attach(node)
            made.append(node)
        if made:
            parent.last_modified_time = now
        return made

    def update(
        self,
        path: ResourcePath,
        *,
        name: str | None = None,
        labels: list[str] | None = None,
        notification_target: tuple[str, str] | None = None,
        content: object = _UNSET,
        kind: object = _UNSET,
    ) -> Resource:
        """Replace named fields; content instances are immutable records."""
        node = self.resolve(path)
        if node.kind == ResourceKind.CONTENT_INSTANCE:
            raise BadRequestError("content instances are write-once")
        if kind is not _UNSET:
            raise BadRequestError("resource kind cannot be changed")
        if content is not _UNSET:
            raise BadRequestError("content cannot be updated")
        if notification_target is not None and node.kind != ResourceKind.SUBSCRIPTION:
            raise BadRequestError("only subscriptions carry a notification target")
        self._check_guard(self.path_of(node), "update")
        old_name = None
        if name is not None and name != node.name:
            check_name(name)
            parent = self._nodes[node.parent_id] if node.parent_id else None
            if parent is None:
                raise BadRequestError("the root cannot be renamed")
            siblings = self._children[parent.id]
            if name in siblings:
                raise BadRequestError(f"sibling name {name!r} already exists")
            # rebuilt rather than popped and re-added, so the child keeps its place
            self._children[parent.id] = {
                (name if child_id == node.id else child_name): child_id
                for child_name, child_id in siblings.items()
            }
            old_name = node.name
            node.name = name
        if labels is not None:
            node.labels = list(labels)
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
        snapshot = node.snapshot()
        parent = self._nodes[node.parent_id]  # type: ignore[index]
        self._detach(node)
        for rid in doomed:
            del self._nodes[rid]
            del self._children[rid]
            self._subscriptions.pop(rid, None)
            self._latest.pop(rid, None)
        parent.last_modified_time = self._clock()
        self._emit("deleted", full_path, snapshot)
        return len(doomed)

    def retarget_subscription(self, subscription_id: str, target: tuple[str, str]) -> None:
        """Silent bookkeeping update of a sync subscription's target.

        Does not emit an event; used when a rename shifts mirror paths.
        """
        node = self.get(subscription_id)
        if node.kind != ResourceKind.SUBSCRIPTION:
            raise BadRequestError("retarget requires a subscription")
        node.notification_target = target

    def copy(self, clock: Callable[[], float] | None = None) -> "ResourceTree":
        """Deep copy on ``clock``: fresh resources (labels copied, content
        bytes shared) under the same ids, in the same child order, with the
        same indexes, id counters and event sequence. The copy has no pending
        events and no guard."""
        tree = ResourceTree.__new__(ResourceTree)
        tree._reset(self.cse_label, clock)
        tree._root_id = self._root_id
        tree._nodes = {rid: node.snapshot() for rid, node in self._nodes.items()}
        tree._children = {rid: dict(kids) for rid, kids in self._children.items()}
        tree._subscriptions = {rid: list(subs) for rid, subs in self._subscriptions.items()}
        tree._latest = dict(self._latest)
        tree._counters = dict(self._counters)
        tree._event_seq = self._event_seq
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
                tree._counters[kinds[prefix]] = int(value)
            tree._event_seq = int(header["seq"])
            for line in lines[1:]:
                rec = decode_fieldline(line)
                node = Resource(
                    id=rec["id"],
                    name=rec["nm"],
                    kind=ResourceKind(int(rec["ty"])),
                    parent_id=rec["pid"] if rec["pid"] != "-" else None,
                    creation_time=float(rec["ct"]),
                    last_modified_time=float(rec["lt"]),
                    content=decode_b64(rec["pc"]) if "pc" in rec else None,
                    notification_target=decode_target(rec["nt"]) if "nt" in rec else None,
                    labels=decode_labels(rec["lb"]) if "lb" in rec else [],
                )
                if node.id in tree._nodes or (
                    node.name in tree._children[node.parent_id]
                    if node.parent_id is not None
                    else tree._root_id is not None
                ):
                    raise BadRequestError(f"resource {node.id!r} clashes with an earlier one")
                tree._attach(node)  # preorder: every parent precedes its children
        except (IndexError, KeyError, ValueError) as exc:
            raise BadRequestError(f"malformed tree dump: {exc!r}") from None
        if tree._root_id is None:
            raise BadRequestError("tree dump has no root")
        return tree


def trees_equal(a: ResourceTree, b: ResourceTree) -> bool:
    """Deep equality including ids, names, timestamps and contents."""
    if a.cse_label != b.cse_label or len(a) != len(b):
        return False
    for na, nb in zip(a.walk(), b.walk()):
        if (
            na.id != nb.id
            or na.name != nb.name
            or na.kind != nb.kind
            or na.parent_id != nb.parent_id
            or na.creation_time != nb.creation_time
            or na.last_modified_time != nb.last_modified_time
            or na.content != nb.content
            or na.notification_target != nb.notification_target
            or na.labels != nb.labels
        ):
            return False
    return True
