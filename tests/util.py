"""Shared helpers: random tree workloads and independent oracles.

Oracles here are deliberately dumb (brute-force scans, full enumerations)
and never reuse the code paths they check.
"""
from __future__ import annotations

import random
from importlib import resources

from edgeslice.errors import BadRequestError, NotFoundError
from edgeslice.netsim import Simulator
from edgeslice.offload import (
    EdgeSyncInfo,
    OffloadCoordinator,
    SyncMode,
    Task,
    create_sync_subscriptions,
    import_bundle,
    process_edge_events,
)
from edgeslice.resources import Resource, ResourceKind, ResourcePath, ResourceTree
from edgeslice.system import payload_for

# the one calibrated scenario file: the copy packaged with edgeslice
CALIBRATED_YAML = str(resources.files("edgeslice.data").joinpath("reference_calibrated.yaml"))

NAME_POOL = [f"n{i}" for i in range(40)] + ["alpha", "beta", "gamma"]


def tap(owner, method: str, entry) -> list:
    """Wrap ``owner``'s ``method`` (such as a system's ``network.send`` or a
    worker's ``dispatch``) on that object alone, so that each call also
    appends ``entry(args, result)`` to the list returned, in call order.
    ``args`` are the call's positional arguments; the call is unchanged."""
    taken = []
    call = getattr(owner, method)

    def tapped(*args):
        result = call(*args)
        taken.append(entry(args, result))
        return result

    setattr(owner, method, tapped)
    return taken


def serialized_but_seq(tree: ResourceTree) -> str:
    """``tree.serialize()`` without the event sequence in its header: what
    the tree holds, whichever route put it there, since ``graft`` queues an
    event per node and ``graft_many`` none."""
    header, _, records = tree.serialize().partition("\n")
    return header.rpartition(";seq=")[0] + "\n" + records


def resource_ids(tree: ResourceTree) -> list[str]:
    """Every id on the tree, in the order the nodes were attached."""
    return list(tree._nodes)


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


def brute_force_latest(tree: ResourceTree, container: Resource) -> Resource | None:
    """Independent latest-instance oracle: linear scan, max by creation time,
    later sibling wins ties."""
    best = None
    for child in tree.children(container.id):
        if child.kind is not ResourceKind.CONTENT_INSTANCE:
            continue
        if best is None or child.creation_time >= best.creation_time:
            best = child
    return best


def legal_child_oracle(parent: ResourceKind, child: ResourceKind) -> bool:
    """The nesting table itself, restated."""
    table = {
        ResourceKind.CSE_BASE: {
            ResourceKind.AE,
            ResourceKind.CONTAINER,
            ResourceKind.SUBSCRIPTION,
        },
        ResourceKind.AE: {ResourceKind.CONTAINER, ResourceKind.SUBSCRIPTION},
        ResourceKind.CONTAINER: {
            ResourceKind.CONTAINER,
            ResourceKind.CONTENT_INSTANCE,
            ResourceKind.SUBSCRIPTION,
        },
        ResourceKind.CONTENT_INSTANCE: set(),
        ResourceKind.SUBSCRIPTION: set(),
    }
    return child in table[parent]


class RandomTreeWorkload:
    """Drives random (not always legal) primitive operations on one tree,
    whose clock is ``sim.time``."""

    def __init__(self, tree: ResourceTree, sim: Simulator, rng: random.Random):
        self.tree = tree
        self.sim = sim
        self.rng = rng
        self.attempted = 0
        self.rejected = 0

    def _random_node(self) -> Resource:
        return self.tree.get(self.rng.choice(resource_ids(self.tree)))

    def step(self) -> None:
        self.attempted += 1
        if self.rng.random() < 0.4:
            self.sim.now += self.rng.choice([0.0, 0.5, 1.0, 2.0])
        op = self.rng.random()
        try:
            if op < 0.72:
                self._create()
            elif op < 0.92:
                self._update()
            else:
                self._delete()
        except (BadRequestError, NotFoundError):
            self.rejected += 1

    def _create(self) -> None:
        parent = self._random_node()
        kind = self.rng.choice(list(ResourceKind))
        name = self.rng.choice(NAME_POOL)
        target = ("some-node", "SOME-CSE/x") if kind is ResourceKind.SUBSCRIPTION else None
        content = (
            bytes([self.rng.randrange(256) for _ in range(8)])
            if kind is ResourceKind.CONTENT_INSTANCE
            else None
        )
        self.tree.create(
            self.tree.path_of(parent),
            kind,
            name,
            content=content,
            notification_target=target,
            labels=[self.rng.choice(["hot", "cold"])] if self.rng.random() < 0.3 else None,
        )

    def _update(self) -> None:
        node = self._random_node()
        if self.rng.random() < 0.3:
            self.tree.update(self.tree.path_of(node), name=self.rng.choice(NAME_POOL))
            return
        self.tree.update(
            self.tree.path_of(node),
            labels=[self.rng.choice(["x", "y", "z"])],
        )

    def _delete(self) -> None:
        # spare the shallow structure so trees keep growing across the run
        node = self._random_node()
        path = self.tree.path_of(node)
        if len(path.segments) < 2:
            raise BadRequestError("workload keeps top-level structure")
        self.tree.delete(path)

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()


def check_tree_invariants(tree: ResourceTree) -> None:
    """Assert structural invariants by direct inspection.

    Name lookup and subscription lists are checked against a scan of
    ``walk()`` by ``parent_id``; latest-instance pointers against
    ``brute_force_latest``.
    """
    nodes = list(tree.walk())
    assert len(nodes) == len(tree), "walk() must reach every resource"
    roots = [n for n in nodes if n.parent_id is None]
    assert len(roots) == 1 and roots[0].kind is ResourceKind.CSE_BASE
    scanned: dict[str, list[Resource]] = {}
    for node in nodes:
        if node.parent_id is not None:
            scanned.setdefault(node.parent_id, []).append(node)
    for node in nodes:
        children = tree.children(node.id)
        by_scan = scanned.get(node.id, [])
        assert [c.id for c in children] == [c.id for c in by_scan]
        assert [s.id for s in tree.subscriptions(node.id)] == [
            c.id for c in children if c.kind is ResourceKind.SUBSCRIPTION
        ]
        names = [c.name for c in children]
        assert len(names) == len(set(names)), f"duplicate sibling names under {node.name}"
        if node.kind in (ResourceKind.CSE_BASE, ResourceKind.AE, ResourceKind.CONTAINER):
            path = tree.path_of(node)
            for child in by_scan:
                assert tree.resolve(path.child(child.name)).id == child.id
            for name in set(NAME_POOL) - set(names):
                try:
                    tree.resolve(path.child(name))
                except NotFoundError:
                    pass
                else:
                    raise AssertionError(f"{name!r} resolves under {path} but is no child")
        for child in children:
            assert legal_child_oracle(node.kind, child.kind), (
                f"illegal edge {node.kind} -> {child.kind}"
            )
            assert child.creation_time >= node.creation_time
        assert node.last_modified_time >= node.creation_time
        # path determinism
        assert tree.resolve(tree.path_of(node)).id == node.id
        if node.kind is ResourceKind.CONTAINER:
            oracle = brute_force_latest(tree, node)
            if oracle is None:
                try:
                    tree.latest_instance(node)
                except NotFoundError:
                    pass
                else:
                    raise AssertionError("latest on empty container must fail")
            else:
                assert tree.latest_instance(node).id == oracle.id


def build_demo_tree(label: str = "IN-CSE", sim: Simulator | None = None) -> ResourceTree:
    """Small fixed tree: pedestrians/citizens with location containers, on
    ``sim``'s clock."""
    sim = sim or Simulator()
    tree = ResourceTree(label, sim.time)
    root = ResourcePath(label)
    tree.create(root, ResourceKind.CONTAINER, "Pedestrians")
    sim.now += 1.0
    tree.create(root.child("Pedestrians"), ResourceKind.CONTAINER, "CitizenB")
    sim.now += 1.0
    tree.create(
        root.child("Pedestrians").child("CitizenB"), ResourceKind.CONTAINER, "location"
    )
    tree.drain_events()
    return tree


def populate_cloud_tree(tree: ResourceTree, config) -> None:
    """Initial-cloud-tree oracle: the populate each deployment once ran on its
    own cloud tree, one ``create`` at a time. Containers on every task root,
    then on every populate path (the workload target with ``prepopulate``
    when ``populate`` is unset), then ``p0``, ``p1``, ... instances in each
    populate container; events are discarded."""
    populate = config.populate or [(config.workload_target, config.prepopulate)]
    for path_str in [spec.root for spec in config.tasks] + [p for p, _ in populate]:
        path = ResourcePath.parse(path_str)
        current = ResourcePath(path.cse_label)
        for segment in path.segments:
            nxt = current.child(segment)
            try:
                tree.resolve(nxt)
            except NotFoundError:
                tree.create(current, ResourceKind.CONTAINER, segment)
            current = nxt
    for path_str, count in populate:
        for i in range(count):
            tree.create(
                ResourcePath.parse(path_str),
                ResourceKind.CONTENT_INSTANCE,
                f"p{i}",
                content=payload_for(config.payload_bytes, i),
            )
    tree.drain_events()


# --- offload fixtures shared by the unit and acceptance suites ---


def build_cloud_tree(sim: Simulator) -> ResourceTree:
    """IN-CSE/Cars/CarA with a location container and two instances, on
    ``sim``'s clock."""
    tree = ResourceTree("IN-CSE", sim.time)
    p = ResourcePath.parse
    tree.create(p("IN-CSE"), ResourceKind.CONTAINER, "Cars")
    tree.create(p("IN-CSE/Cars"), ResourceKind.CONTAINER, "CarA")
    sim.now += 1.0
    tree.create(p("IN-CSE/Cars/CarA"), ResourceKind.CONTAINER, "location")
    sim.now += 1.0
    tree.create(
        p("IN-CSE/Cars/CarA/location"),
        ResourceKind.CONTENT_INSTANCE,
        "p1",
        content=b"37.541,126.986",
    )
    sim.now += 1.0
    tree.create(
        p("IN-CSE/Cars/CarA/location"),
        ResourceKind.CONTENT_INSTANCE,
        "p2",
        content=b"37.542,126.987",
    )
    tree.drain_events()
    return tree


def structural_shape(tree: ResourceTree, path: ResourcePath):
    """Independent structural-equality oracle: (kind, name, content, children
    sorted by name), ignoring ids, timestamps and subscriptions."""
    node = tree.resolve(path)
    children = [
        structural_shape(tree, path.child(c.name))
        for c in sorted(tree.children(node.id), key=lambda c: c.name)
        if c.kind is not ResourceKind.SUBSCRIPTION
    ]
    return (node.kind, node.name, node.content, tuple(children))


def replicated_state(tree: ResourceTree, path: ResourcePath):
    """Independent deep-equality oracle over replicated state: names, kinds,
    contents, and content-instance order by creation time (insertion breaks
    ties). Subscriptions are one-sided by design and ignored."""
    node = tree.resolve(path)
    children = [
        c for c in tree.children(node.id) if c.kind is not ResourceKind.SUBSCRIPTION
    ]
    instance_order = tuple(
        (c.name, c.content, c.creation_time)
        for c in sorted(
            (c for c in children if c.kind is ResourceKind.CONTENT_INSTANCE),
            key=lambda c: c.creation_time,
        )
    )
    named = tuple(
        sorted(
            (c.name, replicated_state(tree, path.child(c.name))) for c in children
        )
    )
    return (node.kind, node.name, node.content, instance_order, named)


def car_task() -> Task:
    return Task("taskA", "IN-CSE/Cars/CarA", "road-warning")


class OffloadHarness:
    """A cloud tree and an edge tree sharing one virtual clock, bound by the
    calls the edge and cloud nodes make, without the network between them."""

    def __init__(self, seed: int = 0):
        self.sim = Simulator()
        self.cloud_tree = build_cloud_tree(self.sim)
        self.edge_tree = ResourceTree("MN-CSE", self.sim.time)
        self.coordinator = OffloadCoordinator(self.cloud_tree, self.sim.time)
        self.task = car_task()
        self.mirror_root = ResourcePath.parse(self.task.root)
        self.infos = []
        self.pending = []
        self.rng = random.Random(seed)

    def offload(self, mode: SyncMode = SyncMode.EAGER) -> ResourcePath:
        bundle = self.coordinator.export_task(self.task)
        self.edge_root = import_bundle(self.edge_tree, bundle)
        if mode is SyncMode.EAGER:
            info = EdgeSyncInfo(self.task.task_id, self.edge_root, self.mirror_root, "cloud")
            create_sync_subscriptions(self.edge_tree, info)
            self.edge_tree.drain_events()
            self.infos.append(info)
        self.binding = self.coordinator.register_binding(self.task, mode, "edge0", self.edge_root)
        return self.edge_root

    def after_op(self) -> None:
        """Mirror of the edge node's synchronous post-mutation work."""
        events = self.edge_tree.drain_events()
        self.pending.extend(process_edge_events(self.edge_tree, events, self.infos))

    def deliver_all(self, duplicate_rate: float = 0.0) -> None:
        while self.pending:
            notify = self.pending.pop(0)
            if notify.target_node != "cloud":
                continue
            self.coordinator.apply_notification(notify)
            self.cloud_tree.drain_events()
            if duplicate_rate and self.rng.random() < duplicate_rate:
                assert self.coordinator.apply_notification(notify) == "duplicate"

    def edge_create(self, parent: str, kind: ResourceKind, name: str, **kwargs) -> ResourcePath:
        path = self.edge_tree.create(ResourcePath.parse(parent), kind, name, **kwargs)
        self.after_op()
        return path

    def random_bound_subtree_ops(self, rng: random.Random, count: int) -> int:
        """Random creates/updates/renames/deletes on strict descendants of the
        offloaded root, with interleaved (sometimes duplicated) delivery."""
        performed = 0
        kinds = ["create_ci", "create_cnt", "update", "delete", "create_sub"]
        tree = self.edge_tree
        for _ in range(count):
            self.sim.now += rng.choice([0.0, 0.5, 1.0])
            root = tree.resolve(self.edge_root)
            descendants = [
                n for n in tree.walk(root.id) if n.id != root.id and n.name != "sync"
            ]
            containers = [
                n for n in tree.walk(root.id) if n.kind is ResourceKind.CONTAINER
            ]
            op = rng.choices(kinds, weights=[5, 2, 2, 1, 1])[0]
            try:
                if op == "create_ci":
                    parent = rng.choice(containers)
                    tree.create(
                        tree.path_of(parent),
                        ResourceKind.CONTENT_INSTANCE,
                        f"ci{rng.randrange(1000)}",
                        content=bytes([rng.randrange(256) for _ in range(6)]),
                    )
                elif op == "create_cnt":
                    parent = rng.choice(containers)
                    tree.create(
                        tree.path_of(parent),
                        ResourceKind.CONTAINER,
                        f"c{rng.randrange(1000)}",
                    )
                elif op == "create_sub":
                    parent = rng.choice(containers)
                    tree.create(
                        tree.path_of(parent),
                        ResourceKind.SUBSCRIPTION,
                        f"w{rng.randrange(1000)}",
                        notification_target=("app", "APP/inbox"),
                    )
                elif op == "update" and descendants:
                    node = rng.choice(descendants)
                    if node.kind is ResourceKind.CONTAINER and rng.random() < 0.4:
                        tree.update(tree.path_of(node), name=f"r{rng.randrange(1000)}")
                    elif node.kind is not ResourceKind.CONTENT_INSTANCE:
                        tree.update(tree.path_of(node), labels=[rng.choice("abc")])
                elif op == "delete" and descendants:
                    tree.delete(tree.path_of(rng.choice(descendants)))
            except BadRequestError:
                pass
            else:
                performed += 1
            self.after_op()
            if rng.random() < 0.3:
                self.deliver_all(duplicate_rate=0.2)
        self.deliver_all(duplicate_rate=0.2)
        return performed
