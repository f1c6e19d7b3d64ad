import random
from collections import deque
from dataclasses import replace

import pytest

from edgeslice.errors import (
    AlreadyBoundError,
    BadRequestError,
    ConflictError,
    NotFoundError,
    UnknownBindingError,
)
from edgeslice.offload import (
    BundleHead,
    BundleTransfer,
    EdgeSyncInfo,
    OffloadBundle,
    OffloadCoordinator,
    SyncMode,
    Task,
    create_sync_subscriptions,
    import_bundle,
    maintain_sync_subscriptions,
    make_bundle,
    process_edge_events,
    subtrees_converged,
)
from edgeslice.netsim import Simulator
from edgeslice.notify import match_subscriptions
from edgeslice.primitives import read_body
from edgeslice.resources import ResourceKind, ResourcePath, ResourceTree

from util import OffloadHarness as Harness
from util import build_cloud_tree, car_task, structural_shape

P = ResourcePath.parse


class TestExport:
    def test_bundle_counts_subtree_nodes(self):
        sim = Simulator()
        tree = build_cloud_tree(sim)
        coordinator = OffloadCoordinator(tree, sim.time)
        bundle = coordinator.export_task(car_task())
        # oracle: count the subtree before export
        expected = sum(1 for _ in tree.walk(tree.resolve(P("IN-CSE/Cars/CarA")).id))
        assert len(bundle.records) == expected == 4

    def test_leaf_container_exports_single_record(self):
        sim = Simulator()
        tree = ResourceTree("IN-CSE", sim.time)
        tree.create(P("IN-CSE"), ResourceKind.CONTAINER, "solo")
        coordinator = OffloadCoordinator(tree, sim.time)
        bundle = coordinator.export_task(Task("t", "IN-CSE/solo", "svc"))
        assert len(bundle.records) == 1

    def test_a_second_export_carries_the_state_at_its_own_time(self):
        sim = Simulator()
        tree = build_cloud_tree(sim)
        coordinator = OffloadCoordinator(tree, sim.time)
        first = coordinator.export_task(car_task())
        sim.now += 5.0
        tree.create(P("IN-CSE/Cars/CarA/location"), ResourceKind.CONTENT_INSTANCE, "p3", content=b"x")
        again = coordinator.export_task(car_task())
        assert again.exported_at == first.exported_at + 5.0 == sim.now
        assert again.records == first.records + (again.records[-1],)
        assert again.records[-1][1:] == (ResourceKind.CONTENT_INSTANCE, "p3", sim.now, b"x")

    def test_missing_root_not_found(self):
        sim = Simulator()
        coordinator = OffloadCoordinator(build_cloud_tree(sim), sim.time)
        with pytest.raises(NotFoundError):
            coordinator.export_task(Task("t", "IN-CSE/ghost", "svc"))

    def test_subscriptions_stay_home(self):
        sim = Simulator()
        tree = build_cloud_tree(sim)
        tree.create(
            P("IN-CSE/Cars/CarA/location"),
            ResourceKind.SUBSCRIPTION,
            "appwatch",
            notification_target=("app1", "APP/inbox"),
        )
        coordinator = OffloadCoordinator(tree, sim.time)
        bundle = coordinator.export_task(car_task())
        assert len(bundle.records) == 4
        assert all(r.kind is not ResourceKind.SUBSCRIPTION for r in bundle.records)
        # the cloud copy keeps the application subscription
        assert tree.resolve(P("IN-CSE/Cars/CarA/location/appwatch"))

    def test_bundle_text_round_trip_and_stability(self):
        sim = Simulator()
        coordinator = OffloadCoordinator(build_cloud_tree(sim), sim.time)
        bundle = coordinator.export_task(car_task())
        text = bundle.encode()
        assert text == OffloadBundle.decode(text).encode()
        header = text.splitlines()[0]
        assert "tid=taskA" in header and "n=4" in header

    def test_bundle_bodies_read_back_from_their_bytes(self):
        sim = Simulator()
        coordinator = OffloadCoordinator(build_cloud_tree(sim), sim.time)
        bundle = coordinator.export_task(car_task())
        transfer = BundleTransfer(BundleHead("ctx;x=%", "lazy"), bundle)
        assert read_body(transfer, BundleTransfer) is transfer
        assert read_body(transfer.to_bytes(), BundleTransfer) == transfer
        assert transfer.to_bytes().endswith(b"\n" + bundle.to_bytes())
        assert read_body(bundle.to_bytes(), OffloadBundle) == bundle
        assert bundle.to_bytes() == bundle.encode().encode("ascii")

    @pytest.mark.parametrize("kind", [BundleTransfer, OffloadBundle])
    @pytest.mark.parametrize("content", [None, b"", b"task=t", b"tid=t;at=0;n=1\n\xff"])
    def test_unreadable_bundle_body_is_a_bad_request(self, kind, content):
        with pytest.raises(BadRequestError):
            read_body(content, kind)

    def test_remap_totality_bundle_side(self):
        sim = Simulator()
        coordinator = OffloadCoordinator(build_cloud_tree(sim), sim.time)
        bundle = coordinator.export_task(car_task())
        assert bundle.root == "IN-CSE/Cars/CarA"
        assert [r.parent for r in bundle.records] == [-1, 0, 1, 1]


class TestImport:
    def test_paths_remap_to_edge_label(self):
        h = Harness()
        root = h.offload()
        assert str(root) == "MN-CSE/Cars/CarA"
        loc = h.edge_tree.resolve(P("MN-CSE/Cars/CarA/location"))
        assert loc.kind is ResourceKind.CONTAINER
        # remap totality: no imported path carries the source label
        for node in h.edge_tree.walk():
            assert h.edge_tree.path_of(node).cse_label == "MN-CSE"

    def test_ids_reminted_times_preserved(self):
        h = Harness()
        # skew the edge tree's instance counter so minted ids are observable
        spare = h.edge_tree.create(P("MN-CSE"), ResourceKind.CONTAINER, "warmup")
        h.edge_tree.create(spare, ResourceKind.CONTENT_INSTANCE, "w", content=b"x")
        h.edge_tree.drain_events()
        h.offload()
        src = h.cloud_tree.resolve(P("IN-CSE/Cars/CarA/location/p1"))
        dst = h.edge_tree.resolve(P("MN-CSE/Cars/CarA/location/p1"))
        assert dst.creation_time == src.creation_time
        assert src.id == "ci_0001"
        assert dst.id == "ci_0002"  # edge counter, not the source id
        assert dst.last_modified_time == h.sim.now

    def test_import_is_isomorphic(self):
        h = Harness()
        h.offload()
        # export from the edge and compare shapes, ignoring ids
        again = make_bundle(h.edge_tree, P("MN-CSE/Cars/CarA"), "t2", h.sim.now)
        assert len(again.records) == 4
        assert structural_shape(h.cloud_tree, P("IN-CSE/Cars/CarA")) == structural_shape(
            h.edge_tree, P("MN-CSE/Cars/CarA")
        )

    def test_single_node_bundle(self):
        sim = Simulator()
        tree = ResourceTree("IN-CSE", sim.time)
        tree.create(P("IN-CSE"), ResourceKind.CONTAINER, "solo")
        bundle = make_bundle(tree, P("IN-CSE/solo"), "t", 0.0)
        edge = ResourceTree("MN-CSE", sim.time)
        root = import_bundle(edge, bundle)
        assert str(root) == "MN-CSE/solo"

    def test_name_collision_conflicts(self):
        h = Harness()
        h.edge_tree.create(P("MN-CSE"), ResourceKind.CONTAINER, "Cars")
        h.edge_tree.create(P("MN-CSE/Cars"), ResourceKind.CONTAINER, "CarA")
        bundle = h.coordinator.export_task(h.task)
        with pytest.raises(ConflictError):
            import_bundle(h.edge_tree, bundle)

    def test_existing_grouping_container_is_reused(self):
        h = Harness()
        h.edge_tree.create(P("MN-CSE"), ResourceKind.CONTAINER, "Cars")
        h.offload()
        cars = h.edge_tree.resolve(P("MN-CSE/Cars"))
        assert [c.name for c in h.edge_tree.children(cars.id)] == ["CarA"]

    @pytest.mark.parametrize("root", ["IN-CSE/Cars/CarA/la", "IN-CSE/la"])
    def test_a_task_root_naming_a_latest_instance_is_refused(self, root):
        """``ResourcePath.parse`` reads ``/la`` as a flag, not a segment; the
        import must not drop it and graft the task under the path before it."""
        h = Harness()
        bundle = replace(h.coordinator.export_task(h.task), root=root)
        before = h.edge_tree.serialize()
        with pytest.raises(BadRequestError, match="latest instance"):
            import_bundle(h.edge_tree, bundle)
        assert h.edge_tree.serialize() == before

    def test_malformed_ordering_rejected(self):
        h = Harness()
        bundle = h.coordinator.export_task(h.task)
        shuffled = replace(bundle, records=tuple(reversed(bundle.records)))
        with pytest.raises(BadRequestError):
            import_bundle(h.edge_tree, shuffled)

    @pytest.mark.parametrize(
        "fault",
        [
            "outside the root",
            "parent missing",
            "parent below -1",
            "illegal name",
            "name holding a slash",
            "empty name",
            "illegal kind",
            "repeated sibling",
            "root named apart from its path",
            "illegal grouping name",
            "grouping under an instance",
            "root names the cse base",
            "root is an instance",
        ],
    )
    def test_refused_bundle_leaves_the_edge_tree_unchanged(self, fault):
        h = Harness()
        good = h.coordinator.export_task(h.task)
        records = list(good.records)  # CarA, location, p1, p2
        root = good.root
        cars = P("MN-CSE/Cars")
        if fault == "outside the root":
            # a second record at -1 would land beside the task root
            records.append(records[1]._replace(parent=-1, name="x"))
        elif fault == "parent missing":
            # its parent index is its own
            records.append(records[1]._replace(parent=len(records), name="x"))
        elif fault == "parent below -1":
            records.append(records[1]._replace(parent=-2, name="x"))
        elif fault == "illegal name":
            records.append(records[1]._replace(parent=0, name="la"))
        elif fault == "name holding a slash":
            records.append(records[1]._replace(parent=0, name="a/b"))
        elif fault == "empty name":
            records.append(records[1]._replace(parent=0, name=""))
        elif fault == "illegal kind":
            records.append(records[1]._replace(parent=0, kind=ResourceKind.AE, name="ae"))
        elif fault == "repeated sibling":
            records.append(records[-1])
        elif fault == "root named apart from its path":
            records[0] = records[0]._replace(name="CarB")
        elif fault == "root names the cse base":
            root = "IN-CSE"
        elif fault == "root is an instance":
            # alone, so that nothing else in the bundle is refused
            records = [records[0]._replace(kind=ResourceKind.CONTENT_INSTANCE, content=b"x")]
        else:
            # move the task under grouping segments that cannot all be created
            h.edge_tree.create(P("MN-CSE"), ResourceKind.CONTAINER, "Cars")
            h.edge_tree.create(cars, ResourceKind.CONTENT_INSTANCE, "old", content=b"x")
            prefix = "IN-CSE/Cars/new/la/" if fault == "illegal grouping name" else "IN-CSE/Cars/old/new/"
            root = root.replace("IN-CSE/Cars/", prefix)
        h.edge_tree.drain_events()
        size, dump = len(h.edge_tree), h.edge_tree.serialize()
        bad = replace(good, root=root, records=tuple(records))
        with pytest.raises(BadRequestError):
            import_bundle(h.edge_tree, bad)
        assert len(h.edge_tree) == size
        assert h.edge_tree.serialize() == dump
        assert str(import_bundle(h.edge_tree, good)) == "MN-CSE/Cars/CarA"
        assert len(h.edge_tree) == size + 4 + (0 if size > 1 else 1)

    def test_refused_at_its_last_record_after_grouping_containers(self):
        # two grouping containers, under a live container whose /la the
        # batch does not touch, then a record refused at the very end
        h = Harness()
        h.edge_tree.create(P("MN-CSE"), ResourceKind.CONTAINER, "Fleet")
        h.edge_tree.create(P("MN-CSE/Fleet"), ResourceKind.CONTENT_INSTANCE, "old", content=b"x")
        h.edge_tree.drain_events()
        good = h.coordinator.export_task(h.task)
        records = good.records + (good.records[-1],)  # a repeated sibling, last
        bad = replace(good, root="IN-CSE/Fleet/Cars/Depot/CarA", records=records)
        untouched = h.edge_tree.copy()
        size, dump = len(h.edge_tree), h.edge_tree.serialize()
        with pytest.raises(BadRequestError, match="already taken"):
            import_bundle(h.edge_tree, bad)
        assert len(h.edge_tree) == size
        assert h.edge_tree.serialize() == dump
        assert h.edge_tree.resolve(P("MN-CSE/Fleet/la")).name == "old"
        for tree in (h.edge_tree, untouched):
            tree.drain_events()
        for kind, content in ((ResourceKind.CONTAINER, None), (ResourceKind.CONTENT_INSTANCE, b"v")):
            # an omitted name is the id the tree mints next
            made = [str(t.create(P("MN-CSE/Fleet"), kind, content=content))
                    for t in (h.edge_tree, untouched)]
            assert made[0] == made[1]
        assert str(import_bundle(h.edge_tree, replace(good, root=bad.root))) == "MN-CSE/Fleet/Cars/Depot/CarA"


class TestEagerSetup:
    def test_one_subscription_per_container(self):
        h = Harness()
        h.offload()
        subs = [
            n
            for n in h.edge_tree.walk()
            if n.kind is ResourceKind.SUBSCRIPTION and n.name == "sync"
        ]
        containers = [
            n
            for n in h.edge_tree.walk(h.edge_tree.resolve(h.edge_root).id)
            if n.kind is ResourceKind.CONTAINER
        ]
        assert len(subs) == len(containers) == 2  # CarA and location

    def test_subscriptions_follow_the_preorder_of_the_containers(self):
        # an Ae-rooted task, containers nested three deep among instances
        # and a subscription
        tree = ResourceTree("MN-CSE")
        app, a = P("MN-CSE/app"), P("MN-CSE/app/a")
        tree.create(P("MN-CSE"), ResourceKind.AE, "app")
        tree.create(app, ResourceKind.CONTAINER, "a")
        tree.create(a, ResourceKind.CONTENT_INSTANCE, "i0", content=b"0")
        tree.create(a, ResourceKind.CONTAINER, "a1")
        tree.create(a.child("a1"), ResourceKind.CONTAINER, "deep")
        tree.create(a, ResourceKind.CONTENT_INSTANCE, "i1", content=b"1")
        tree.create(a, ResourceKind.CONTAINER, "a2")
        tree.create(app, ResourceKind.SUBSCRIPTION, "w", notification_target=("x", "X/y"))
        tree.create(app, ResourceKind.CONTAINER, "b")
        tree.create(app.child("b"), ResourceKind.CONTENT_INSTANCE, "i2", content=b"2")
        tree.drain_events()
        # oracle: the full preorder walk the containers used to be found by
        expected = [n for n in tree.walk(tree.resolve(app).id) if n.kind is ResourceKind.CONTAINER]
        assert create_sync_subscriptions(tree, EdgeSyncInfo("t", app, P("IN-CSE/Apps/app"), "cloud")) == 5
        subs = [e.resource for e in tree.drain_events()]
        assert [s.parent_id for s in subs] == [c.id for c in expected]
        assert [s.id for s in subs] == [f"sub_{i:04d}" for i in range(2, 7)]
        assert [s.notification_target[1] for s in subs] == [
            "IN-CSE/Apps/app/a", "IN-CSE/Apps/app/a/a1", "IN-CSE/Apps/app/a/a1/deep",
            "IN-CSE/Apps/app/a/a2", "IN-CSE/Apps/app/b",
        ]

    def test_three_containers_get_three_subscriptions(self):
        sim = Simulator()
        tree = ResourceTree("IN-CSE", sim.time)
        tree.create(P("IN-CSE"), ResourceKind.CONTAINER, "Box")
        tree.create(P("IN-CSE/Box"), ResourceKind.CONTAINER, "values")
        tree.create(P("IN-CSE/Box"), ResourceKind.CONTAINER, "meta")
        coordinator = OffloadCoordinator(tree, sim.time)
        task = Task("t", "IN-CSE/Box", "svc")
        bundle = coordinator.export_task(task)
        edge = ResourceTree("MN-CSE", sim.time)
        edge_root = import_bundle(edge, bundle)
        count = create_sync_subscriptions(edge, EdgeSyncInfo("t", edge_root, P(task.root), "cloud"))
        # oracle: count the containers in the offloaded subtree
        containers = sum(
            1
            for n in edge.walk(edge.resolve(edge_root).id)
            if n.kind is ResourceKind.CONTAINER
        )
        assert count == containers == 3

    def test_ae_only_task_needs_no_subscriptions(self):
        sim = Simulator()
        tree = ResourceTree("IN-CSE", sim.time)
        tree.create(P("IN-CSE"), ResourceKind.AE, "app")
        coordinator = OffloadCoordinator(tree, sim.time)
        task = Task("t", "IN-CSE/app", "svc")
        bundle = coordinator.export_task(task)
        edge = ResourceTree("MN-CSE", sim.time)
        edge_root = import_bundle(edge, bundle)
        assert create_sync_subscriptions(edge, EdgeSyncInfo("t", edge_root, P(task.root), "cloud")) == 0

    def test_edge_create_produces_exactly_one_cloud_notify(self):
        h = Harness()
        h.offload()
        h.edge_create(
            "MN-CSE/Cars/CarA/location",
            ResourceKind.CONTENT_INSTANCE,
            "p3",
            content=b"37.543,126.988",
        )
        cloud_notifies = [n for n in h.pending if n.target_node == "cloud"]
        assert len(cloud_notifies) == 1
        assert cloud_notifies[0].target_path == "IN-CSE/Cars/CarA/location"


class TestApplyNotification:
    def test_created_instance_appears_on_mirror(self):
        h = Harness()
        h.offload()
        h.edge_create(
            "MN-CSE/Cars/CarA/location",
            ResourceKind.CONTENT_INSTANCE,
            "p3",
            content=b"37.543,126.988",
        )
        h.deliver_all()
        mirrored = h.cloud_tree.resolve(P("IN-CSE/Cars/CarA/location/p3"))
        assert mirrored.content == b"37.543,126.988"
        assert h.binding.stats.notifications_applied == 1

    def test_duplicate_is_noop(self):
        h = Harness()
        h.offload()
        h.edge_create(
            "MN-CSE/Cars/CarA/location",
            ResourceKind.CONTENT_INSTANCE,
            "p3",
            content=b"x",
        )
        (notify,) = [n for n in h.pending if n.target_node == "cloud"]
        assert h.coordinator.apply_notification(notify) == "applied"
        assert h.coordinator.apply_notification(notify) == "duplicate"
        assert h.binding.stats.duplicates == 1
        location = h.cloud_tree.resolve(P("IN-CSE/Cars/CarA/location"))
        names = [c.name for c in h.cloud_tree.children(location.id)]
        assert names.count("p3") == 1

    def test_a_binding_remembers_only_the_last_notification(self):
        """Over a stop-and-wait channel only the notification just taken can
        arrive again, so that is the one id a binding keeps: an older one
        replayed later is not a duplicate, and its create, already on the
        mirror, is stale."""
        h = Harness()
        h.offload()
        for name in ("p3", "p4"):
            h.edge_create("MN-CSE/Cars/CarA/location", ResourceKind.CONTENT_INSTANCE, name, content=b"x")
        first, second = [n for n in h.pending if n.target_node == "cloud"]
        outcomes = [h.coordinator.apply_notification(n) for n in (first, second, second, first)]
        assert outcomes == ["applied", "applied", "duplicate", "stale"]
        assert h.binding.last_request_id == first.request_id

    def test_unbound_task_raises(self):
        h = Harness()
        h.offload()
        (stray,) = [
            n
            for n in (
                h.edge_create(
                    "MN-CSE/Cars/CarA/location",
                    ResourceKind.CONTENT_INSTANCE,
                    "p3",
                    content=b"x",
                ),
                h.pending,
            )[1]
            if n.target_node == "cloud"
        ]
        other = OffloadCoordinator(ResourceTree("IN-CSE", h.sim.time), h.sim.time)
        with pytest.raises(UnknownBindingError):
            other.apply_notification(stray)

    def test_stale_after_mirror_subtree_deleted(self):
        h = Harness()
        h.offload()
        # edge deletes the location container, then a late create under it
        h.edge_tree.delete(P("MN-CSE/Cars/CarA/location"))
        h.after_op()
        delete_notify = next(n for n in h.pending if n.body.change == "deleted")
        h.pending.remove(delete_notify)
        h.edge_create("MN-CSE/Cars/CarA", ResourceKind.CONTAINER, "location")
        h.edge_create(
            "MN-CSE/Cars/CarA/location", ResourceKind.CONTENT_INSTANCE, "p9", content=b"x"
        )
        late = [n for n in h.pending if n.target_node == "cloud"]
        # deliver the delete first, then replay the late create of p9 against
        # a target container whose mirror is gone
        h.coordinator.apply_notification(delete_notify)
        stale = [n for n in late if n.body.changed_path.endswith("p9")]
        assert stale
        assert h.coordinator.apply_notification(stale[0]) == "stale"
        assert h.binding.stats.stale_dropped == 1


class TestEdgeAuthority:
    def test_cloud_writes_to_mirror_conflict(self):
        h = Harness()
        h.offload()
        with pytest.raises(ConflictError):
            h.cloud_tree.create(
                P("IN-CSE/Cars/CarA/location"),
                ResourceKind.CONTENT_INSTANCE,
                "intruder",
                content=b"x",
            )
        with pytest.raises(ConflictError):
            h.cloud_tree.delete(P("IN-CSE/Cars/CarA/location"))
        # outside the mirror the cloud tree stays writable
        h.cloud_tree.create(P("IN-CSE"), ResourceKind.CONTAINER, "Unrelated")

    def test_cloud_writable_again_after_finalize(self):
        h = Harness()
        h.offload()
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.sim.now)
        h.coordinator.finalize(h.task.task_id, snapshot)
        h.cloud_tree.create(
            P("IN-CSE/Cars/CarA/location"),
            ResourceKind.CONTENT_INSTANCE,
            "after",
            content=b"x",
        )


class TestRedirect:
    def test_redirected_read_equals_direct_edge_read(self):
        h = Harness()
        h.offload(mode=SyncMode.LAZY)
        for i in range(2):
            h.edge_tree.create(
                P("MN-CSE/Cars/CarA/location"),
                ResourceKind.CONTENT_INSTANCE,
                f"new{i}",
                content=f"pos{i}".encode(),
            )
        hit = h.coordinator.redirect_for(P("IN-CSE/Cars/CarA/location/la"))
        assert hit is not None
        binding, remapped = hit
        assert str(remapped) == "MN-CSE/Cars/CarA/location/la"
        edge_result = h.edge_tree.resolve(remapped)
        assert edge_result.name == "new1"
        # the stale mirror still holds only the pre-offload instances
        mirror_latest = h.cloud_tree.latest_instance(
            h.cloud_tree.resolve(P("IN-CSE/Cars/CarA/location"))
        )
        assert mirror_latest.name == "p2"

    def test_paths_outside_task_are_not_redirected(self):
        h = Harness()
        h.offload(mode=SyncMode.LAZY)
        assert h.coordinator.redirect_for(P("IN-CSE/Cars")) is None
        assert h.coordinator.redirect_for(P("IN-CSE/Other/x")) is None

    def test_double_register_rejected(self):
        h = Harness()
        h.offload(mode=SyncMode.LAZY)
        with pytest.raises(AlreadyBoundError):
            h.coordinator.register_binding(h.task, SyncMode.LAZY, "edge0", h.edge_root)

    def test_eager_binding_blocks_redirect_registration(self):
        h = Harness()
        h.offload(mode=SyncMode.EAGER)
        with pytest.raises(AlreadyBoundError):
            h.coordinator.register_binding(h.task, SyncMode.LAZY, "edge0", h.edge_root)


class TestFinalize:
    def test_lazy_finalize_syncs_new_instances(self):
        h = Harness()
        h.offload(mode=SyncMode.LAZY)
        for i in range(5):
            h.sim.now += 1.0
            h.edge_tree.create(
                P("MN-CSE/Cars/CarA/location"),
                ResourceKind.CONTENT_INSTANCE,
                f"new{i}",
                content=f"pos{i}".encode(),
            )
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.sim.now)
        assert h.coordinator.finalize(h.task.task_id, snapshot) == 5
        assert subtrees_converged(
            h.cloud_tree, h.mirror_root, h.edge_tree, h.edge_root
        )

    def test_lazy_finalize_grafts_a_new_container_with_its_instance(self):
        h = Harness()
        h.offload(mode=SyncMode.LAZY)
        h.sim.now += 1.0
        h.edge_tree.create(P("MN-CSE/Cars/CarA"), ResourceKind.CONTAINER, "speed")
        h.edge_tree.create(P("MN-CSE/Cars/CarA/speed"), ResourceKind.CONTENT_INSTANCE, "s0", content=b"42")
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.sim.now)
        assert h.coordinator.finalize(h.task.task_id, snapshot) == 2  # the container, then its child
        assert h.cloud_tree.resolve(P("IN-CSE/Cars/CarA/speed/s0")).content == b"42"
        assert subtrees_converged(h.cloud_tree, h.mirror_root, h.edge_tree, h.edge_root)

    def test_eager_finalize_at_quiescence_is_empty(self):
        h = Harness()
        h.offload()
        h.edge_create(
            "MN-CSE/Cars/CarA/location",
            ResourceKind.CONTENT_INSTANCE,
            "p3",
            content=b"x",
        )
        h.deliver_all()
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.sim.now)
        assert h.coordinator.finalize(h.task.task_id, snapshot) == 0

    def test_finalize_twice_is_unknown(self):
        h = Harness()
        h.offload(mode=SyncMode.LAZY)
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.sim.now)
        h.coordinator.finalize(h.task.task_id, snapshot)
        with pytest.raises(UnknownBindingError):
            h.coordinator.finalize(h.task.task_id, snapshot)

    def test_finalize_propagates_deletions_and_replacements(self):
        h = Harness()
        h.offload(mode=SyncMode.LAZY)
        h.edge_tree.delete(P("MN-CSE/Cars/CarA/location/p1"))
        h.sim.now += 1.0
        h.edge_tree.create(
            P("MN-CSE/Cars/CarA/location"),
            ResourceKind.CONTENT_INSTANCE,
            "p9",
            content=b"fresh",
        )
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.sim.now)
        assert h.coordinator.finalize(h.task.task_id, snapshot) == 2  # one delete, one create
        assert subtrees_converged(
            h.cloud_tree, h.mirror_root, h.edge_tree, h.edge_root
        )


class TestMaintenance:
    def test_new_container_gets_sync_subscription(self):
        h = Harness()
        h.offload()
        h.edge_create("MN-CSE/Cars/CarA", ResourceKind.CONTAINER, "speed")
        sub = h.edge_tree.resolve(P("MN-CSE/Cars/CarA/speed/sync"))
        assert sub.notification_target == ("cloud", "IN-CSE/Cars/CarA/speed")
        h.deliver_all()
        # instances created under the new container keep syncing
        h.edge_create(
            "MN-CSE/Cars/CarA/speed", ResourceKind.CONTENT_INSTANCE, "s1", content=b"88"
        )
        h.deliver_all()
        assert h.cloud_tree.resolve(P("IN-CSE/Cars/CarA/speed/s1")).content == b"88"

    def test_a_labelled_create_reaches_the_mirror_with_its_labels(self):
        h = Harness()
        h.offload()
        h.edge_create("MN-CSE/Cars/CarA/location", ResourceKind.CONTENT_INSTANCE, "tagged",
                      content=b"t", labels=["a", "b c"])
        h.deliver_all()
        assert h.cloud_tree.resolve(P("IN-CSE/Cars/CarA/location/tagged")).labels == ("a", "b c")

    def test_rename_retargets_descendant_subscriptions(self):
        h = Harness()
        h.offload()
        h.edge_tree.update(P("MN-CSE/Cars/CarA/location"), name="position")
        h.after_op()
        h.deliver_all()
        assert h.cloud_tree.resolve(P("IN-CSE/Cars/CarA/position"))
        sub = h.edge_tree.resolve(P("MN-CSE/Cars/CarA/position/sync"))
        assert sub.notification_target == ("cloud", "IN-CSE/Cars/CarA/position")
        h.edge_create(
            "MN-CSE/Cars/CarA/position",
            ResourceKind.CONTENT_INSTANCE,
            "p3",
            content=b"x",
        )
        h.deliver_all()
        assert h.cloud_tree.resolve(P("IN-CSE/Cars/CarA/position/p3"))
        assert subtrees_converged(
            h.cloud_tree, h.mirror_root, h.edge_tree, h.edge_root
        )


class TestEagerConvergenceProperty:
    def test_mirror_converges_under_random_edge_activity(self):
        for seed in range(12):
            h = Harness(seed=seed)
            h.offload()
            h.random_bound_subtree_ops(random.Random(seed), 60)
            assert subtrees_converged(
                h.cloud_tree, h.mirror_root, h.edge_tree, h.edge_root
            ), f"diverged for seed {seed}"


def cascading_process_edge_events(edge_tree, events, infos, fed_back):
    """``process_edge_events`` as it was, with a queue: every event that
    maintenance made was fed through matching and maintenance again. Each
    one fed back is appended to ``fed_back``."""
    notifies = []
    queue = deque(events)
    while queue:
        event = queue.popleft()
        notifies.extend(match_subscriptions(edge_tree, event))
        if infos:
            for info in infos:
                maintain_sync_subscriptions(edge_tree, info, event)
            made = edge_tree.drain_events()
            fed_back.extend(made)
            queue.extend(made)
    return notifies


class TestNoMaintenanceCascade:
    @pytest.mark.parametrize("seed", range(8))
    def test_one_pass_notifies_as_the_cascade_did(self, seed):
        """Random edge activity in a bound subtree, container creates and
        renames, user subscriptions and deletes among it: after each
        operation, the cascading loop runs on a copy of the edge tree and
        ``process_edge_events`` on the tree itself. They return the same
        notifications and leave the same tree, and what the cascade fed
        back was sync subscriptions' creations alone."""
        h = Harness(seed)
        h.offload()
        fed_back = []

        def after_op():
            twin = h.edge_tree.copy(h.sim.time)
            events = h.edge_tree.drain_events()
            expected = cascading_process_edge_events(twin, events, h.infos, fed_back)
            notifies = process_edge_events(h.edge_tree, events, h.infos)
            assert notifies == expected
            assert h.edge_tree.serialize() == twin.serialize()
            h.pending.extend(notifies)

        h.after_op = after_op
        h.random_bound_subtree_ops(random.Random(seed), 120)
        assert fed_back, "no container was created in the bound subtree"
        assert {(e.change, e.resource.kind, e.resource.name) for e in fed_back} == {
            ("created", ResourceKind.SUBSCRIPTION, "sync")}
        assert subtrees_converged(h.cloud_tree, h.mirror_root, h.edge_tree, h.edge_root)


class TestConvergenceCheck:
    """``subtrees_converged`` on a fresh lazy offload, edited on one side or
    on both; a lazy binding sends no notifications, so nothing heals the
    mirror in between. The cloud side is edited past the write guard."""

    @staticmethod
    def offloaded() -> Harness:
        h = Harness()
        h.offload(mode=SyncMode.LAZY)
        return h

    @staticmethod
    def converged(h: Harness) -> bool:
        return subtrees_converged(h.cloud_tree, h.mirror_root, h.edge_tree, h.edge_root)

    @staticmethod
    def create(tree: ResourceTree, path: str, kind: ResourceKind, name: str, **fields) -> None:
        """A create on either tree: ``path`` is below the task root, without
        the cse label. The cloud tree's guard is lifted for it, as its owner
        lifts it."""
        guard, tree.guard = tree.guard, None
        try:
            tree.create(P(f"{tree.cse_label}/Cars/CarA{path}"), kind, name, **fields)
        finally:
            tree.guard = guard

    def instance(self, tree: ResourceTree, name: str, content: bytes = b"x") -> None:
        self.create(tree, "/location", ResourceKind.CONTENT_INSTANCE, name, content=content)

    def test_a_fresh_offload_and_the_same_edits_on_both_sides_converge(self):
        h = self.offloaded()
        assert self.converged(h)
        for tree in (h.cloud_tree, h.edge_tree):
            self.instance(tree, "p3")
            self.create(tree, "", ResourceKind.CONTAINER, "speed")
        assert self.converged(h)

    def test_a_different_kind(self):
        h = self.offloaded()
        self.create(h.cloud_tree, "/location", ResourceKind.CONTAINER, "x")
        self.instance(h.edge_tree, "x")
        assert not self.converged(h)

    def test_a_different_name(self):
        h = self.offloaded()
        h.edge_tree.update(P("MN-CSE/Cars/CarA/location"), name="position")
        assert not self.converged(h)

    def test_a_different_root_name(self):
        h = self.offloaded()
        h.edge_tree.update(h.edge_root, name="CarB")
        renamed = P("MN-CSE/Cars/CarB")
        assert not subtrees_converged(h.cloud_tree, h.mirror_root, h.edge_tree, renamed)

    def test_a_different_instance_content(self):
        h = self.offloaded()
        self.instance(h.cloud_tree, "p3", b"mirror")
        self.instance(h.edge_tree, "p3", b"edge")
        assert not self.converged(h)

    def test_a_different_instance_creation_time(self):
        h = self.offloaded()
        self.instance(h.cloud_tree, "p3")
        h.sim.now += 1.0
        self.instance(h.edge_tree, "p3")
        assert not self.converged(h)

    def test_a_different_container_creation_time(self):
        h = self.offloaded()
        self.create(h.cloud_tree, "", ResourceKind.CONTAINER, "speed")
        h.sim.now += 1.0
        self.create(h.edge_tree, "", ResourceKind.CONTAINER, "speed")
        assert not self.converged(h)

    def test_a_different_sibling_order(self):
        h = self.offloaded()
        for tree, names in ((h.cloud_tree, ("a", "b")), (h.edge_tree, ("b", "a"))):
            for name in names:
                self.instance(tree, name)
        assert not self.converged(h)

    def test_a_child_missing_on_the_mirror(self):
        h = self.offloaded()
        self.instance(h.edge_tree, "p3")
        assert not self.converged(h)

    def test_an_extra_child_on_the_mirror(self):
        h = self.offloaded()
        self.instance(h.cloud_tree, "p3")
        assert not self.converged(h)

    def test_a_deleted_subtree(self):
        h = self.offloaded()
        h.edge_tree.delete(P("MN-CSE/Cars/CarA/location"))
        assert not self.converged(h)

    @pytest.mark.parametrize("side", ["mirror", "edge"])
    def test_a_missing_root(self, side):
        h = self.offloaded()
        ghost = P("IN-CSE/Cars/Ghost") if side == "mirror" else P("MN-CSE/Cars/Ghost")
        mirror_root = ghost if side == "mirror" else h.mirror_root
        edge_root = ghost if side == "edge" else h.edge_root
        assert not subtrees_converged(h.cloud_tree, mirror_root, h.edge_tree, edge_root)

    def test_subscriptions_and_labels_are_ignored(self):
        h = self.offloaded()
        self.create(h.cloud_tree, "/location", ResourceKind.SUBSCRIPTION, "app",
                    notification_target=("app1", "APP/inbox"))
        self.create(h.edge_tree, "", ResourceKind.SUBSCRIPTION, "watch",
                    notification_target=("app2", "APP/inbox"))
        h.edge_tree.update(P("MN-CSE/Cars/CarA/location"), labels=["hot"])
        self.create(h.cloud_tree, "/location", ResourceKind.CONTENT_INSTANCE, "p3",
                    content=b"x", labels=["cold"])
        self.create(h.edge_tree, "/location", ResourceKind.CONTENT_INSTANCE, "p3", content=b"x")
        assert self.converged(h)
