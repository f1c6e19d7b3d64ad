import random
from dataclasses import replace

import pytest

from edgeslice.errors import (
    AlreadyBoundError,
    AlreadyOffloadedError,
    BadRequestError,
    ConflictError,
    NotFoundError,
    UnknownBindingError,
)
from edgeslice.offload import (
    BundleTransfer,
    OffloadBundle,
    OffloadCoordinator,
    SyncMode,
    Task,
    create_sync_subscriptions,
    import_bundle,
    make_bundle,
    subtrees_converged,
)
from edgeslice.primitives import read_body
from edgeslice.resources import (
    ManualClock,
    ResourceKind,
    ResourcePath,
    ResourceTree,
)

from util import OffloadHarness as Harness
from util import build_cloud_tree, car_task, structural_shape

P = ResourcePath.parse


class TestExport:
    def test_bundle_counts_subtree_nodes(self):
        clock = ManualClock()
        tree = build_cloud_tree(clock)
        coordinator = OffloadCoordinator(tree, clock)
        bundle = coordinator.export_task(car_task())
        # oracle: count the subtree before export
        expected = sum(1 for _ in tree.walk(tree.resolve(P("IN-CSE/Cars/CarA")).id))
        assert len(bundle.records) == expected == 4

    def test_leaf_container_exports_single_record(self):
        clock = ManualClock()
        tree = ResourceTree("IN-CSE", clock)
        tree.create(P("IN-CSE"), ResourceKind.CONTAINER, "solo")
        coordinator = OffloadCoordinator(tree, clock)
        bundle = coordinator.export_task(Task("t", P("IN-CSE/solo"), "svc"))
        assert len(bundle.records) == 1

    def test_double_export_rejected(self):
        clock = ManualClock()
        coordinator = OffloadCoordinator(build_cloud_tree(clock), clock)
        coordinator.export_task(car_task())
        with pytest.raises(AlreadyOffloadedError):
            coordinator.export_task(car_task())

    def test_missing_root_not_found(self):
        clock = ManualClock()
        coordinator = OffloadCoordinator(build_cloud_tree(clock), clock)
        with pytest.raises(NotFoundError):
            coordinator.export_task(Task("t", P("IN-CSE/ghost"), "svc"))

    def test_subscriptions_stay_home(self):
        clock = ManualClock()
        tree = build_cloud_tree(clock)
        tree.create(
            P("IN-CSE/Cars/CarA/location"),
            ResourceKind.SUBSCRIPTION,
            "appwatch",
            notification_target=("app1", "APP/inbox"),
        )
        coordinator = OffloadCoordinator(tree, clock)
        bundle = coordinator.export_task(car_task())
        assert len(bundle.records) == 4
        assert all(r.kind is not ResourceKind.SUBSCRIPTION for r in bundle.records)
        # the cloud copy keeps the application subscription
        assert tree.resolve(P("IN-CSE/Cars/CarA/location/appwatch"))

    def test_bundle_text_round_trip_and_stability(self):
        clock = ManualClock()
        coordinator = OffloadCoordinator(build_cloud_tree(clock), clock)
        bundle = coordinator.export_task(car_task())
        text = bundle.encode()
        assert text == OffloadBundle.decode(text).encode()
        header = text.splitlines()[0]
        assert "tid=taskA" in header and "n=4" in header

    def test_bundle_bodies_read_back_from_their_bytes(self):
        clock = ManualClock()
        coordinator = OffloadCoordinator(build_cloud_tree(clock), clock)
        bundle = coordinator.export_task(car_task())
        transfer = BundleTransfer((("task", "taskA"), ("mirror", "IN-CSE/Cars;x=%")), bundle)
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
        clock = ManualClock()
        coordinator = OffloadCoordinator(build_cloud_tree(clock), clock)
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
        assert dst.last_modified_time == h.clock()

    def test_import_is_isomorphic(self):
        h = Harness()
        h.offload()
        # export from the edge and compare shapes, ignoring ids
        again = make_bundle(h.edge_tree, P("MN-CSE/Cars/CarA"), "t2", h.clock())
        assert len(again.records) == 4
        assert structural_shape(h.cloud_tree, P("IN-CSE/Cars/CarA")) == structural_shape(
            h.edge_tree, P("MN-CSE/Cars/CarA")
        )

    def test_single_node_bundle(self):
        clock = ManualClock()
        tree = ResourceTree("IN-CSE", clock)
        tree.create(P("IN-CSE"), ResourceKind.CONTAINER, "solo")
        bundle = make_bundle(tree, P("IN-CSE/solo"), "t", 0.0)
        edge = ResourceTree("MN-CSE", clock)
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
            "illegal kind",
            "repeated sibling",
            "root named apart from its path",
            "illegal grouping name",
            "grouping under an instance",
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
        elif fault == "illegal kind":
            records.append(records[1]._replace(parent=0, kind=ResourceKind.AE, name="ae"))
        elif fault == "repeated sibling":
            records.append(records[-1])
        elif fault == "root named apart from its path":
            records[0] = records[0]._replace(name="CarB")
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
        assert create_sync_subscriptions(tree, app, P("IN-CSE/Apps/app"), "cloud") == 5
        subs = [e.resource for e in tree.drain_events()]
        assert [s.parent_id for s in subs] == [c.id for c in expected]
        assert [s.id for s in subs] == [f"sub_{i:04d}" for i in range(2, 7)]
        assert [s.notification_target[1] for s in subs] == [
            "IN-CSE/Apps/app/a", "IN-CSE/Apps/app/a/a1", "IN-CSE/Apps/app/a/a1/deep",
            "IN-CSE/Apps/app/a/a2", "IN-CSE/Apps/app/b",
        ]

    def test_three_containers_get_three_subscriptions(self):
        clock = ManualClock()
        tree = ResourceTree("IN-CSE", clock)
        tree.create(P("IN-CSE"), ResourceKind.CONTAINER, "Box")
        tree.create(P("IN-CSE/Box"), ResourceKind.CONTAINER, "values")
        tree.create(P("IN-CSE/Box"), ResourceKind.CONTAINER, "meta")
        coordinator = OffloadCoordinator(tree, clock)
        task = Task("t", P("IN-CSE/Box"), "svc")
        bundle = coordinator.export_task(task)
        edge = ResourceTree("MN-CSE", clock)
        edge_root = import_bundle(edge, bundle)
        count = create_sync_subscriptions(edge, edge_root, task.root_path, "cloud")
        # oracle: count the containers in the offloaded subtree
        containers = sum(
            1
            for n in edge.walk(edge.resolve(edge_root).id)
            if n.kind is ResourceKind.CONTAINER
        )
        assert count == containers == 3

    def test_ae_only_task_needs_no_subscriptions(self):
        clock = ManualClock()
        tree = ResourceTree("IN-CSE", clock)
        tree.create(P("IN-CSE"), ResourceKind.AE, "app")
        coordinator = OffloadCoordinator(tree, clock)
        task = Task("t", P("IN-CSE/app"), "svc")
        bundle = coordinator.export_task(task)
        edge = ResourceTree("MN-CSE", clock)
        edge_root = import_bundle(edge, bundle)
        assert create_sync_subscriptions(edge, edge_root, task.root_path, "cloud") == 0

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
        other = OffloadCoordinator(ResourceTree("IN-CSE", h.clock), h.clock)
        with pytest.raises(UnknownBindingError):
            other.apply_notification(stray)

    def test_stale_after_mirror_subtree_deleted(self):
        h = Harness()
        h.offload()
        # edge deletes the location container, then a late create under it
        h.edge_tree.delete(P("MN-CSE/Cars/CarA/location"))
        h.after_op()
        delete_notify = next(n for n in h.pending if n.change == "deleted")
        h.pending.remove(delete_notify)
        h.edge_create("MN-CSE/Cars/CarA", ResourceKind.CONTAINER, "location")
        h.edge_create(
            "MN-CSE/Cars/CarA/location", ResourceKind.CONTENT_INSTANCE, "p9", content=b"x"
        )
        late = [n for n in h.pending if n.target_node == "cloud"]
        # deliver the delete first, then replay the late create of p9 against
        # a target container whose mirror is gone
        h.coordinator.apply_notification(delete_notify)
        stale = [n for n in late if n.changed_path.endswith("p9")]
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
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.clock())
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
            h.clock.advance(1.0)
            h.edge_tree.create(
                P("MN-CSE/Cars/CarA/location"),
                ResourceKind.CONTENT_INSTANCE,
                f"new{i}",
                content=f"pos{i}".encode(),
            )
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.clock())
        report = h.coordinator.finalize(h.task.task_id, snapshot)
        assert report.synced_resources == 5
        assert report.mode is SyncMode.LAZY
        assert subtrees_converged(
            h.cloud_tree, h.task.root_path, h.edge_tree, h.edge_root
        )

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
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.clock())
        report = h.coordinator.finalize(h.task.task_id, snapshot)
        assert report.synced_resources == 0

    def test_finalize_twice_is_unknown(self):
        h = Harness()
        h.offload(mode=SyncMode.LAZY)
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.clock())
        h.coordinator.finalize(h.task.task_id, snapshot)
        with pytest.raises(UnknownBindingError):
            h.coordinator.finalize(h.task.task_id, snapshot)

    def test_finalize_propagates_deletions_and_replacements(self):
        h = Harness()
        h.offload(mode=SyncMode.LAZY)
        h.edge_tree.delete(P("MN-CSE/Cars/CarA/location/p1"))
        h.clock.advance(1.0)
        h.edge_tree.create(
            P("MN-CSE/Cars/CarA/location"),
            ResourceKind.CONTENT_INSTANCE,
            "p9",
            content=b"fresh",
        )
        snapshot = make_bundle(h.edge_tree, h.edge_root, h.task.task_id, h.clock())
        report = h.coordinator.finalize(h.task.task_id, snapshot)
        assert report.synced_resources == 2  # one delete, one create
        assert subtrees_converged(
            h.cloud_tree, h.task.root_path, h.edge_tree, h.edge_root
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
            h.cloud_tree, h.task.root_path, h.edge_tree, h.edge_root
        )


class TestEagerConvergenceProperty:
    def test_mirror_converges_under_random_edge_activity(self):
        for seed in range(12):
            h = Harness(seed=seed)
            h.offload()
            h.random_bound_subtree_ops(random.Random(seed), 60)
            assert subtrees_converged(
                h.cloud_tree, h.task.root_path, h.edge_tree, h.edge_root
            ), f"diverged for seed {seed}"
