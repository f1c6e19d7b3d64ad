"""The offload bundle stages as they were before each became a single pass.

``make_bundle`` and ``import_bundle`` below are the earlier implementations,
kept as the oracle of ``test_bundle_oracle``. They work on the bundle as it
then was: each record carried its full source path, and an import found a
record's parent by that path. ``PathRecord`` and ``PathBundle`` restate that
form, and ``as_paths`` turns a bundle of parent indexes into it. The text
codec of that form is gone with it, since the wire now carries the parent
indexes. ``ResourceTree.graft`` now takes its parent as a resolved
``Resource``, so the oracle resolves the parent path first; ``graft`` used
to do exactly that, and a missing parent still surfaces as
``NotFoundError``. ``graft`` also queues a created event per node, which
the one ``graft_many`` of an import does not, so the oracle's tree differs
from the import's in its event sequence alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from edgeslice.errors import BadRequestError, ConflictError, NotFoundError
from edgeslice.offload import OffloadBundle
from edgeslice.resources import ResourceKind, ResourcePath, ResourceTree


class PathRecord(NamedTuple):
    source_path: str
    kind: ResourceKind
    name: str
    creation_time: float
    content: bytes | None = None


@dataclass(frozen=True)
class PathBundle:
    task_id: str
    exported_at: float
    records: tuple[PathRecord, ...]


def as_paths(bundle: OffloadBundle) -> PathBundle:
    """``bundle`` with each record's source path spelled out: the root's, or
    its parent's, ``/`` and its own name."""
    paths: list[str] = []
    records = []
    for rec in bundle.records:
        paths.append(bundle.root if rec.parent < 0 else paths[rec.parent] + "/" + rec.name)
        records.append(PathRecord(paths[-1], rec.kind, rec.name, rec.creation_time, rec.content))
    return PathBundle(bundle.task_id, bundle.exported_at, tuple(records))


def make_bundle(
    tree: ResourceTree, root_path: ResourcePath, task_id: str, exported_at: float
) -> PathBundle:
    root = tree.resolve(root_path)
    if root.kind not in (ResourceKind.AE, ResourceKind.CONTAINER):
        raise BadRequestError("a task root must be an Ae or a Container")
    records = []
    for node in tree.walk(root.id):
        if node.kind is ResourceKind.SUBSCRIPTION:
            continue
        records.append(
            PathRecord(
                source_path=str(tree.path_of(node)),
                kind=node.kind,
                name=node.name,
                creation_time=node.creation_time,
                content=node.content,
            )
        )
    return PathBundle(task_id=task_id, exported_at=exported_at, records=tuple(records))


def _graft(tree: ResourceTree, parent_path: ResourcePath, kind, name, **fields):
    tree.graft(tree.resolve(parent_path), kind, name, **fields)


def import_bundle(edge_tree: ResourceTree, bundle: PathBundle) -> ResourcePath:
    if not bundle.records:
        raise BadRequestError("bundle has no records")
    now_root_src = ResourcePath.parse(bundle.records[0].source_path)
    if now_root_src.latest:
        raise BadRequestError("a task root names a resource, not a latest instance")
    if not now_root_src.segments or bundle.records[0].kind not in (ResourceKind.AE, ResourceKind.CONTAINER):
        raise BadRequestError("a task root must be an Ae or a Container below the cse base")
    root_target = ResourcePath(edge_tree.cse_label, now_root_src.segments)
    parent = ResourcePath(edge_tree.cse_label)
    for segment in root_target.segments[:-1]:
        candidate = parent.child(segment)
        try:
            edge_tree.resolve(candidate)
        except NotFoundError:
            _graft(
                edge_tree,
                parent,
                ResourceKind.CONTAINER,
                segment,
                creation_time=bundle.exported_at,
            )
        parent = candidate
    try:
        edge_tree.resolve(root_target)
    except NotFoundError:
        pass
    else:
        raise ConflictError(f"{root_target} already exists on the edge tree")
    for rec in bundle.records:
        src = ResourcePath.parse(rec.source_path)
        if not now_root_src.is_prefix_of(src):
            raise BadRequestError("bundle record outside the task root")
        dst = ResourcePath(edge_tree.cse_label, src.segments)
        try:
            _graft(
                edge_tree,
                dst.parent(),
                rec.kind,
                rec.name,
                creation_time=rec.creation_time,
                content=rec.content,
            )
        except NotFoundError:
            raise BadRequestError(
                f"malformed bundle ordering: parent of {rec.source_path} missing"
            ) from None
    return root_target
