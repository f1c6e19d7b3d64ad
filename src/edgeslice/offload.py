"""Task offloading and cloud/edge synchronization.

A task is a resource subtree owned by one service. Offloading exports it
from the cloud tree as an ordered bundle, grafts it onto an edge tree under
the same grouping segments, and keeps the retained cloud copy (the mirror)
consistent: eagerly via per-container subscriptions that replay every edge
change onto the mirror, or lazily by redirecting cloud reads to the edge and
reconciling the mirror when the slice terminates. The edge is authoritative
for an offloaded subtree for the binding's whole lifetime.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import countOf, itemgetter
from typing import Callable, NamedTuple, Sequence

from .codec import (FIELD_SAFE, decode_ascii, decode_b64, decode_fieldline, encode_b64,
                    encode_fieldline, line_body, parse_float, parse_int, quote)
from .errors import (
    AlreadyBoundError,
    BadRequestError,
    ConflictError,
    NotFoundError,
    UnknownBindingError,
)
from .notify import NotifyPrimitive, match_subscriptions
from .resources import (
    LEGAL_CHILDREN,
    ChangeEvent,
    Resource,
    ResourceKind,
    ResourcePath,
    ResourceTree,
    _check_child,
)

SYNC_SUB_NAME = "sync"


class SyncMode(Enum):
    EAGER = "eager"
    LAZY = "lazy"

    __hash__ = object.__hash__


MODE_VALUES = {m: m.value for m in SyncMode}  # a dict read is cheaper than ``.value``


@dataclass(frozen=True)
class Task:
    """A task as the scenario names it: its id, its root's cloud path
    (e.g. ``IN-CSE/Pedestrians/CitizenB``) and the service it belongs to."""

    task_id: str
    root: str
    service: str


class BundleRecord(NamedTuple):
    """One exported node: ``parent`` is the index of its parent's record in
    the bundle, or -1 for the task root. A tuple, so that a bundle of
    hundreds of records builds at tuple speed."""

    parent: int
    kind: ResourceKind
    name: str
    creation_time: float
    content: bytes | None = None


@dataclass(frozen=True)
class OffloadBundle:
    """Preorder subtree export: the task root's source path, then its
    records, the root's first and every parent before its children."""

    task_id: str
    exported_at: float
    root: str
    records: tuple[BundleRecord, ...]

    def encode(self) -> str:
        """A header line ``tid;at;rt;n``, ``rt`` being the task root's source
        path, then one field line ``pi;ty;nm;ct[;pc]`` per record, ``pi``
        being its parent's record index, each as ``encode_fieldline`` writes
        it: numbers and base64 content need no quoting there.
        """
        out = [encode_fieldline([("tid", self.task_id), ("at", repr(self.exported_at)),
                                 ("rt", self.root), ("n", str(len(self.records)))])]
        for parent, kind, name, created, content in self.records:
            out.append(f"pi={parent};ty={kind.value};nm={quote(name, FIELD_SAFE)};ct={created!r}"
                       + ("" if content is None else ";pc=" + encode_b64(content)))
        return "\n".join(out) + "\n"

    @classmethod
    def decode(cls, text: str) -> "OffloadBundle":
        """Inverse of ``encode``; raises only ``BadRequestError``. Each line
        is read as ``decode_fieldline`` reads it: empty fields are skipped, a
        repeated key or a field without ``=`` is refused and unknown keys are
        ignored. The first record's parent index is -1, and every later
        record's names an earlier record.
        """
        lines = [ln for ln in text.split("\n") if ln]
        if not lines:
            raise BadRequestError("empty bundle")
        try:
            header = decode_fieldline(lines[0])
            records: list[BundleRecord] = []
            for line in lines[1:]:
                fields = decode_fieldline(line)
                parent = parse_int(fields["pi"])
                if not (0 <= parent < len(records) if records else parent == -1):
                    raise BadRequestError(f"bundle record {len(records)} has parent index {parent}")
                content = decode_b64(fields["pc"]) if "pc" in fields else None
                records.append(BundleRecord(parent, ResourceKind(parse_int(fields["ty"])),
                                            fields["nm"], parse_float(fields["ct"]), content))
            bundle = cls(header["tid"], parse_float(header["at"]), header["rt"], tuple(records))
            count = parse_int(header["n"])
        except (KeyError, ValueError) as exc:
            raise BadRequestError(f"malformed bundle: {exc!r}") from None
        if len(records) != count:
            raise BadRequestError("bundle record count mismatch")
        if not records:
            raise BadRequestError("bundle has no records")
        return bundle

    def to_bytes(self) -> bytes:
        """The bundle as the content of a SYNC_FINALIZE reply."""
        return self.encode().encode("ascii")

    @classmethod
    def from_bytes(cls, data: bytes) -> "OffloadBundle":
        return cls.decode(decode_ascii(data))


# a bundle transfer's head: the preparation it serves, the task, its sync mode
# and, for an eager binding, the mirror's root and the cloud
BundleHead = line_body("BundleHead", "ctx? task mode mirror? cloud?")


@dataclass(frozen=True)
class BundleTransfer:
    """The body of a BUNDLE_TRANSFER: its head's line, then the bundle."""

    head: BundleHead
    bundle: OffloadBundle

    def to_bytes(self) -> bytes:
        return self.head.to_bytes() + b"\n" + self.bundle.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BundleTransfer":
        head, _, text = data.partition(b"\n")
        return cls(BundleHead.from_bytes(head), OffloadBundle.from_bytes(text))


@dataclass
class SyncStats:
    notifications_applied: int = 0
    duplicates: int = 0
    stale_dropped: int = 0
    skipped_subscriptions: int = 0
    redirects_served: int = 0


@dataclass
class SyncBinding:
    task_id: str
    mode: SyncMode
    edge: str
    cloud_mirror_root: ResourcePath
    edge_root: ResourcePath
    stats: SyncStats = field(default_factory=SyncStats)
    last_request_id: str | None = None  # of the last notify taken: the same notify again is a duplicate


@dataclass(frozen=True)
class EdgeSyncInfo:
    """What the edge side needs to keep an eager binding healthy."""

    task_id: str
    edge_root: ResourcePath
    mirror_root: ResourcePath
    cloud_node: str

    def covers(self, notify: NotifyPrimitive) -> bool:
        """Whether ``notify`` replays a change onto this binding's mirror."""
        return (notify.target_node == self.cloud_node
                and self.mirror_root.is_prefix_of(ResourcePath.parse(notify.target_path)))

    def sync_target(self, container_path: ResourcePath) -> tuple[str, str]:
        """The notification target of the sync subscription of the edge
        container at ``container_path``: its mirror on the cloud."""
        return self.cloud_node, str(container_path.rebase(self.edge_root, self.mirror_root))


def _covering(bindings: dict[str, SyncBinding], path: ResourcePath) -> SyncBinding | None:
    """The open binding whose mirror root is a prefix of ``path``, if any."""
    for binding in bindings.values():
        if binding.cloud_mirror_root.is_prefix_of(path):
            return binding
    return None


# the kinds a task may be rooted at, on export and on import
_TASK_ROOT_KINDS = (ResourceKind.AE, ResourceKind.CONTAINER)


def resolve_task_root(tree: ResourceTree, root_path: ResourcePath) -> Resource:
    """The node a task is rooted at, which must be an Ae or a Container."""
    root = tree.resolve(root_path)
    if root.kind not in _TASK_ROOT_KINDS:
        raise BadRequestError("a task root must be an Ae or a Container")
    return root


def make_bundle(
    tree: ResourceTree, root_path: ResourcePath, task_id: str, exported_at: float
) -> OffloadBundle:
    """Preorder snapshot of a subtree. A subscription stays home.

    The records are derived from the tree's structure alone, so a copy
    that neither it nor its source has changed since gets the record tuple
    its source built for the same root (``ResourceTree.derived``).
    """
    root = resolve_task_root(tree, root_path)
    records = tree.derived(("bundle", root.id), lambda source: _export_records(source, root.id))
    return OffloadBundle(task_id, exported_at, str(tree.path_of(root)), records)


def _export_records(tree: ResourceTree, root_id: str) -> tuple[BundleRecord, ...]:
    """The records of the subtree at ``root_id``, in preorder.

    The walk reads the tree's child index directly, with a stack of
    ``(iterator over a node's child ids, the node's record index)``
    entries: a leaf's record is made where its id is read, and no path is
    built.
    """
    nodes, children = tree._nodes, tree._children
    root = nodes[root_id]
    subscription = ResourceKind.SUBSCRIPTION  # a local: reading an enum member is slow
    new = tuple.__new__  # the NamedTuple's generated __new__ is a Python function, twice as slow
    records = [new(BundleRecord, (-1, root.kind, root.name, root.creation_time, root.content))]
    append = records.append
    stack = [(iter(children.get(root.id, {}).values()), 0)]
    while stack:
        kids, parent = stack[-1]
        for node_id in kids:
            node = nodes[node_id]
            if node.kind is subscription:
                continue
            append(new(BundleRecord, (parent, node.kind, node.name, node.creation_time, node.content)))
            below = children.get(node_id)
            if below:  # its subtree comes next; this node's siblings after it
                stack.append((iter(below.values()), len(records) - 1))
                break
        else:
            stack.pop()
    return tuple(records)


def import_bundle(edge_tree: ResourceTree, bundle: OffloadBundle) -> ResourcePath:
    """Graft a bundle onto the edge tree, or refuse it and leave the tree as
    it was.

    The task root keeps its grouping segments with the cse label rewritten
    to the edge tree's label; missing grouping containers are created on the
    fly, at the bundle's export time. Source creation times are preserved;
    ids are minted by the edge tree. The records go to one ``graft_many``
    call as they are, behind the grouping containers: it checks every
    parent index, name, kind and sibling as it goes and takes a refused
    batch out again. The import itself checks only that the root is the one
    record at -1, is an Ae or a Container, as on export, and is named as the
    task root's path ends, a path below the cse base that names a resource,
    not a latest instance (``/la``).
    """
    records = bundle.records
    if not records:
        raise BadRequestError("bundle has no records")
    if records[0].parent != -1 or countOf(map(itemgetter(0), records), -1) != 1:
        raise BadRequestError("a bundle's first record, and only it, is the task root at -1")
    source = ResourcePath.parse(bundle.root)
    if source.latest:
        raise BadRequestError(f"the task root {bundle.root} names a latest instance")
    if not source.segments:
        raise BadRequestError(f"the task root {bundle.root} names a cse base")
    if records[0].kind not in _TASK_ROOT_KINDS:
        raise BadRequestError("a task root must be an Ae or a Container")
    root_target = ResourcePath(edge_tree.cse_label, source.segments)
    parent, missing = _grouping_parent(edge_tree, root_target)
    if records[0].name != root_target.segments[-1]:
        raise BadRequestError(f"the task root record {records[0].name!r} is not named as {bundle.root}")
    edge_tree.graft_many(parent, records, missing, bundle.exported_at)
    return root_target


def _grouping_parent(
    edge_tree: ResourceTree, root_target: ResourcePath
) -> tuple[Resource, tuple[str, ...]]:
    """The deepest existing node above the task root and the grouping
    segments still to create under it, found on the tree's child index; a
    task root that is on the edge tree already is refused."""
    segments, children = root_target.segments, edge_tree._children
    parent = edge_tree.root
    for depth, segment in enumerate(segments):
        child_id = children.get(parent.id, {}).get(segment)
        if child_id is None:
            return parent, segments[depth:-1]
        parent = edge_tree.get(child_id)
    raise ConflictError(f"{root_target} already exists on the edge tree")


# kinds that may hold a container: the sync-subscription walk descends only
# into these, so it never walks through a container's content instances
_HOLDS_CONTAINERS = frozenset(
    kind for kind, legal in LEGAL_CHILDREN.items() if ResourceKind.CONTAINER in legal
)


def refuse_taken_sync_names(bundle: OffloadBundle) -> None:
    """Refuse a bundle for an eager binding in which a container already has
    a child named ``SYNC_SUB_NAME``, where its sync subscription would go;
    checked before the import, so that a refusal leaves the edge tree as
    it was."""
    records = bundle.records
    for rec in records[1:]:
        if rec.name == SYNC_SUB_NAME and records[rec.parent].kind is ResourceKind.CONTAINER:
            raise BadRequestError(f"a container of task {bundle.task_id!r} has a child named "
                                  f"{SYNC_SUB_NAME!r}, its sync subscription's name")


def _subscribe(edge_tree: ResourceTree, info: EdgeSyncInfo, container_path: ResourcePath) -> None:
    """Give the container at ``container_path`` its sync subscription."""
    edge_tree.create(container_path, ResourceKind.SUBSCRIPTION, SYNC_SUB_NAME,
                     notification_target=info.sync_target(container_path))


def create_sync_subscriptions(edge_tree: ResourceTree, info: EdgeSyncInfo) -> int:
    """One subscription per container in the offloaded subtree, targeting the
    container's mirror path on the cloud, created in preorder.

    Subscriptions observe a container's children, so an Ae-rooted task with
    no containers yields zero subscriptions; direct children added under
    such a root reach the mirror at finalize time, not eagerly. The walk
    reads the child index and stacks only children that can hold a container.
    """
    nodes, children = edge_tree._nodes, edge_tree._children
    containers = []
    stack = [edge_tree.resolve(info.edge_root)]
    while stack:
        node = stack.pop()
        if node.kind is ResourceKind.CONTAINER:
            containers.append(node)
        kids = children.get(node.id)
        if kids:
            stack.extend(reversed([kid for kid in map(nodes.__getitem__, kids.values())
                                   if kid.kind in _HOLDS_CONTAINERS]))
    for node in containers:
        _subscribe(edge_tree, info, edge_tree.path_of(node))
    return len(containers)


def maintain_sync_subscriptions(
    edge_tree: ResourceTree, info: EdgeSyncInfo, event: ChangeEvent
) -> None:
    """Keep the one-subscription-per-container invariant across edge changes.

    New containers inside the bound subtree get their own sync subscription;
    renaming a container re-targets every sync subscription underneath it.
    """
    if event.resource.kind is not ResourceKind.CONTAINER or not info.edge_root.is_prefix_of(event.path):
        return
    if event.change == "created":
        _subscribe(edge_tree, info, event.path)
    elif event.change == "updated" and event.old_name is not None:
        renamed = edge_tree.resolve(event.path)
        for node in edge_tree.walk(renamed.id):
            if node.kind is ResourceKind.SUBSCRIPTION and node.name == SYNC_SUB_NAME:
                target = info.sync_target(edge_tree.path_of(node).parent())
                edge_tree.retarget_subscription(node.id, target)


def process_edge_events(edge_tree: ResourceTree, events: list[ChangeEvent],
                        infos: Sequence[EdgeSyncInfo] = ()) -> list[NotifyPrimitive]:
    """Synchronous edge-side handling of committed changes.

    Matching and sync-subscription maintenance must run at mutation time
    (they read current tree state); only the returned notifications may be
    delivered later. Maintenance only creates sync subscriptions, each on a
    container just created, and a subscription never observes its own
    creation, so the events it makes match nothing and are drained unread.
    """
    notifies: list[NotifyPrimitive] = []
    for event in events:
        notifies.extend(match_subscriptions(edge_tree, event))
        for info in infos:
            maintain_sync_subscriptions(edge_tree, info, event)
    if infos:
        edge_tree.drain_events()
    return notifies


class OffloadCoordinator:
    """Cloud-side bookkeeping: exports, bindings, redirects, reconciliation.

    Installs a write guard on the cloud tree so nothing but the sync engine
    touches a mirrored subtree while its binding is open; the engine lifts
    it for its own writes, the replay of a change and the finalize merge.
    """

    def __init__(self, cloud_tree: ResourceTree, clock: Callable[[], float] | None = None):
        self.cloud_tree = cloud_tree
        self._clock = clock or (lambda: 0.0)
        self.bindings: dict[str, SyncBinding] = {}
        bindings = self.bindings

        def guard(path: ResourcePath) -> None:
            binding = _covering(bindings, path)
            if binding is not None:
                raise ConflictError(
                    f"{binding.task_id!r} is offloaded; the edge is authoritative for {path}"
                )

        # the guard reads the bindings, not the coordinator, which owns the tree
        self._guard = cloud_tree.guard = guard

    # --- export / import ---

    def export_task(self, task: Task) -> OffloadBundle:
        return make_bundle(self.cloud_tree, ResourcePath.parse(task.root), task.task_id, self._clock())

    # --- bindings ---

    def register_binding(
        self, task: Task, mode: SyncMode, edge: str, edge_root: ResourcePath
    ) -> SyncBinding:
        if task.task_id in self.bindings:
            raise AlreadyBoundError(f"task {task.task_id!r} already has a sync binding")
        binding = SyncBinding(task.task_id, mode, edge, ResourcePath.parse(task.root), edge_root)
        self.bindings[task.task_id] = binding
        return binding

    def bindings_on_edge(self, edge: str) -> list[SyncBinding]:
        return [b for b in self.bindings.values() if b.edge == edge]

    # --- lazy redirects ---

    def redirect_for(self, path: ResourcePath) -> "tuple[SyncBinding, ResourcePath] | None":
        binding = _covering(self.bindings, path)
        if binding is None or binding.mode is not SyncMode.LAZY:
            return None
        return binding, path.rebase(binding.cloud_mirror_root, binding.edge_root)

    # --- eager replay ---

    def apply_notification(self, notify: NotifyPrimitive) -> str:
        """Replay one edge change onto the mirror.

        Returns "applied", "duplicate", "stale" or "skipped"; a notification
        that arrives again straight after itself is a duplicate, and
        notifications about subscriptions are never replicated.
        """
        target = ResourcePath.parse(notify.target_path)
        binding = _covering(self.bindings, target)
        if binding is None:
            raise UnknownBindingError(f"no binding covers {notify.target_path}")
        if notify.request_id == binding.last_request_id:
            binding.stats.duplicates += 1
            return "duplicate"
        change, _, view, old_name = notify.body
        if change not in ("created", "updated", "deleted"):  # refused before its id is taken
            raise BadRequestError(f"unknown change kind {change!r}")
        binding.last_request_id = notify.request_id
        if view.kind is ResourceKind.SUBSCRIPTION:
            binding.stats.skipped_subscriptions += 1
            return "skipped"
        tree = self.cloud_tree
        tree.guard = None  # the sync engine's own writes
        try:
            if change == "created":
                tree.graft(tree.resolve(target), view.kind, view.name, creation_time=view.creation_time,
                           content=view.content, labels=view.labels)
            elif change == "updated":
                previous = old_name or view.name
                tree.update(target.child(previous), name=view.name if view.name != previous else None,
                            labels=view.labels)
            else:
                tree.delete(target.child(view.name))
        except (NotFoundError, BadRequestError):
            binding.stats.stale_dropped += 1
            return "stale"
        finally:
            tree.guard = self._guard
        binding.stats.notifications_applied += 1
        return "applied"

    # --- reconciliation ---

    def finalize(self, task_id: str, edge_snapshot: OffloadBundle) -> int:
        """Settle a binding against a snapshot of the edge subtree and return
        the number of mirror nodes changed.

        Lazy bindings receive the full diff; eager bindings are verified (and
        repaired, which is a no-op at quiescence). The binding closes; a
        snapshot the mirror refuses leaves it open.
        """
        binding = self.bindings.get(task_id)
        if binding is None:
            raise UnknownBindingError(f"no open binding for task {task_id!r}")
        self.cloud_tree.guard = None  # the merge writes under the mirror
        try:
            changed = apply_snapshot(self.cloud_tree, binding.cloud_mirror_root, edge_snapshot)
        finally:
            self.cloud_tree.guard = self._guard
        del self.bindings[task_id]
        return changed


# --- snapshot diff (keyed-by-name recursive merge) ---


class _SnapshotNode:
    __slots__ = ("record", "children")

    def __init__(self, record: BundleRecord):
        self.record = record
        self.children: dict[str, _SnapshotNode] = {}


def _snapshot_index(bundle: OffloadBundle) -> _SnapshotNode:
    """The snapshot's records linked by parent index, each checked as a child
    of its parent, so that a snapshot the mirror would refuse is refused
    before the merge touches the mirror."""
    nodes = [_SnapshotNode(rec) for rec in bundle.records]
    for index, node in enumerate(nodes[1:], 1):
        rec = node.record
        if not 0 <= rec.parent < index:
            raise BadRequestError(f"malformed bundle ordering at record {index}")
        parent = nodes[rec.parent]
        _check_child(parent.record.kind, rec.kind, rec.name, parent.children, rec.content)
        parent.children[rec.name] = node
    return nodes[0]


def apply_snapshot(
    cloud_tree: ResourceTree, mirror_root: ResourcePath, snapshot: OffloadBundle
) -> int:
    """Make the mirror subtree match the snapshot; returns changed-node count.

    Subscriptions on the mirror (cloud applications keep observing it) are
    left alone; content instances are matched by name and replaced when
    content or creation time disagree. A write guard on the tree is asked
    as for any other write, so ``finalize`` lifts it first.
    """
    return _merge_children(cloud_tree, mirror_root, _snapshot_index(snapshot))


def _merge_children(
    tree: ResourceTree, mirror_path: ResourcePath, snap: _SnapshotNode
) -> int:
    changed = 0
    mirror = tree.resolve(mirror_path)
    mirror_children = {
        child.name: child
        for child in tree.children(mirror.id)
        if child.kind is not ResourceKind.SUBSCRIPTION
    }
    for name, snap_child in snap.children.items():
        mirror_child = mirror_children.pop(name, None)
        child_path = mirror_path.child(name)
        if mirror_child is not None:
            rec = snap_child.record
            same_kind = mirror_child.kind is rec.kind
            same_payload = (
                mirror_child.kind is not ResourceKind.CONTENT_INSTANCE
                or (
                    mirror_child.content == rec.content
                    and mirror_child.creation_time == rec.creation_time
                )
            )
            if same_kind and same_payload:
                changed += _merge_children(tree, child_path, snap_child)
                continue
            changed += tree.delete(child_path)
            mirror_child = None
        changed += _graft_snapshot(tree, mirror, snap_child)
    for name, orphan in mirror_children.items():
        changed += tree.delete(mirror_path.child(name))
    return changed


def _graft_snapshot(tree: ResourceTree, parent: Resource, snap: _SnapshotNode) -> int:
    rec = snap.record
    node = tree.graft(
        parent,
        rec.kind,
        rec.name,
        creation_time=rec.creation_time,
        content=rec.content,
    )
    count = 1
    for child in snap.children.values():
        count += _graft_snapshot(tree, node, child)
    return count


def subtrees_converged(
    cloud_tree: ResourceTree,
    mirror_root: ResourcePath,
    edge_tree: ResourceTree,
    edge_root: ResourcePath,
) -> bool:
    """Whether the mirror and the edge subtree export the same records: the
    same kinds, names, creation times and contents, with the same parents
    and in the same sibling order. Subscriptions stay on one side by design
    and are left out of an export, and labels are not exported. A root that
    does not resolve on its tree converges with nothing."""
    try:
        mirror, edge = cloud_tree.resolve(mirror_root), edge_tree.resolve(edge_root)
    except NotFoundError:
        return False
    return _export_records(cloud_tree, mirror.id) == _export_records(edge_tree, edge.id)
