"""Simulated deployment: device, edge and cloud nodes wired over the network.

Every interaction is a request or response primitive routed by the
simulator; nodes never share state. A control message travels as the
primitive object itself, its bundle as records, and a data-plane message as
its wire encoding. Either way the message's bytes are its ``encode()``,
made only when something reads them, and a node decodes a payload that
arrives as bytes. The cloud hosts the full service layer, the orchestrator
and the offload coordinator; edge nodes host gated workers; devices issue
requests and record round-trip times.

Control-plane message sequence for one service request (steps as logged):

    device --10--> edge (handler, arrival logged)
    edge   --10--> cloud (orchestrator decides)
    cloud  --11--> edge (pull + start each missing function, sequential)
    edge   --12--> cloud (newly started functions; recorded for fast path)
    cloud  --31--> edge (one bundle per task; edge imports, binds sync)
    cloud  --> device (ready)

Control messages travel with size 0 (their transfer time is not modeled);
data-plane messages carry the configured payload size.
"""
from __future__ import annotations

from dataclasses import replace

from .codec import decode_body, decode_fieldline, encode_b64, encode_body, encode_fieldline
from .errors import (
    AlreadyOffloadedError,
    BadRequestError,
    ConfigInvalidError,
    EdgeSliceError,
    NotFoundError,
    UnknownBindingError,
)
from .images import FunctionImage, pull_image
from .netsim import LatencySample, Network, NodeRole, Simulator
from .notify import NotificationChannel, match_subscriptions, parse_notify
from .offload import (
    BundleTransfer,
    EdgeSyncInfo,
    OffloadBundle,
    OffloadCoordinator,
    SyncMode,
    Task,
    create_sync_subscriptions,
    import_bundle,
    make_bundle,
    process_edge_events,
    read_body,
    resolve_task_root,
)
from .orchestrator import ServiceRequest, SliceOrchestrator
from .primitives import (
    Body,
    Operation,
    RequestPrimitive,
    ResponsePrimitive,
    StatusCode,
    decode_request,
    decode_response,
    is_response,
)
from .resources import ResourceKind, ResourcePath, ResourceTree
from .scenario import ScenarioConfig
from .slicing import FunctionKind, PlanDecision, SliceProfile, SlicingPlan, ordered
from .worker import EdgeWorker, ResourceQuota

DATA_OPS = (
    Operation.CREATE,
    Operation.RETRIEVE,
    Operation.UPDATE,
    Operation.DELETE,
    Operation.NOTIFY,
)

CONTROL_SIZE = 0

# what a control handler raises on a body it cannot read: missing fields,
# unknown names and numbers that do not parse
MALFORMED_CONTROL = (BadRequestError, KeyError, ValueError)


def payload_for(config: ScenarioConfig, index: int) -> bytes:
    body = f"position-update-{index:06d}:".encode("ascii")
    if len(body) >= config.payload_bytes:
        return body[: config.payload_bytes]
    return body + b"x" * (config.payload_bytes - len(body))


class _Node:
    def __init__(self, system: "System", node_id: str):
        self.system = system
        self.node_id = node_id
        self.sim = system.sim
        self.network = system.network
        self.pending: dict[str, object] = {}
        self.malformed_dropped = 0
        system.network.attach(node_id, self.receive)

    def send(self, to: str, message: "RequestPrimitive | ResponsePrimitive", size: int) -> None:
        # Data-plane messages are still encoded here, until the benchmark's
        # peak-RSS reading stops growing with its round count: as objects,
        # they would make data-plane runs fast enough to raise that reading.
        payload = message if size == CONTROL_SIZE else message.encode()
        self.network.send(self.node_id, to, payload, size)

    def reply(self, to: str, response: ResponsePrimitive, size: int = CONTROL_SIZE) -> None:
        self.send(to, response, size)

    def send_control(self, to: str, op: Operation, body: "bytes | Body", rqi: str = "") -> None:
        """Send a control request to a peer node; mints the request id if none is given."""
        rqi = rqi or self.system.next_control_rqi()
        self.send(to, RequestPrimitive(op, to, self.node_id, rqi, content=body), CONTROL_SIZE)

    def receive(self, message: "RequestPrimitive | ResponsePrimitive | bytes", sender: str) -> None:
        """Deliver one message. One that arrives as bytes is decoded first;
        bytes that do not decode have no request id to answer, so they are
        dropped and counted in ``malformed_dropped``."""
        if isinstance(message, bytes):
            try:
                message = decode_response(message) if is_response(message) else decode_request(message)
            except BadRequestError:
                self.malformed_dropped += 1
                return
        if isinstance(message, ResponsePrimitive):
            callback = self.pending.pop(message.request_id, None)
            if callback is not None:
                callback(message)
            return
        self.handle_request(message, sender)

    def refuse(self, req: RequestPrimitive, sender: str, exc: Exception) -> None:
        """Answer a request whose body could not be read with 4000."""
        detail = f"malformed {req.operation.name}: {exc!r}".encode()
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.BAD_REQUEST, detail))

    def handle_request(self, req: RequestPrimitive, sender: str) -> None:
        raise NotImplementedError


class DeviceNode(_Node):
    def __init__(self, system: "System", node_id: str):
        super().__init__(system, node_id)
        self._counter = 0
        self.notifications_received = 0

    def next_rqi(self, tag: str) -> str:
        self._counter += 1
        return f"{self.node_id}-{tag}{self._counter:06d}"

    def issue(self, req: RequestPrimitive, server: str, size: int, on_response) -> None:
        self.pending[req.request_id] = on_response
        self.send(server, req, size)

    def handle_request(self, req: RequestPrimitive, sender: str) -> None:
        # devices only ever receive notifications from subscriptions they own
        if req.operation is Operation.NOTIFY:
            self.notifications_received += 1
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK))
        else:
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.BAD_REQUEST))


class EdgeNode(_Node):
    def __init__(self, system: "System", node_id: str):
        super().__init__(system, node_id)
        config = system.config
        self.worker = EdgeWorker(
            node_id,
            ResourceTree("MN-CSE", system.sim.time),
            capacity_bytes=config.capacity_bytes,
            start_delay_ms=config.start_delay_ms,
            clock=system.sim.time,
            processing_ms=config.processing_for(node_id),
        )
        if config.pre_seeded_cache:
            self.worker.cache.seed(config.catalogue)
        self.sync_infos: list[EdgeSyncInfo] = []
        self.channel = NotificationChannel(self._notify_transport, self.sim.schedule)
        self.channel.pause()  # resumes once the notification function runs

    # --- notification plumbing ---

    def _notify_transport(self, notify, done) -> None:
        req = notify.to_request(self.node_id)
        self.pending[notify.request_id] = lambda resp: done(resp.ok)
        self.send(notify.target_node, req, self.system.config.payload_bytes)

    def _sync_channel_state(self) -> None:
        if self.worker.enabled(FunctionKind.NOTIFICATION):
            self.channel.resume()
        else:
            self.channel.pause()

    def _publish_events(self, events) -> None:
        if not events:
            return
        for notify in process_edge_events(self.worker.tree, events, self.sync_infos):
            self.channel.enqueue(notify)

    # --- request handling ---

    def handle_request(self, req: RequestPrimitive, sender: str) -> None:
        op = req.operation
        if op in DATA_OPS:
            self._handle_data(req, sender)
            return
        try:
            if op is Operation.SERVICE_REQUEST:
                self.sim.log("service_request_arrival", rqi=req.request_id, device=req.originator)
                self.send(self.system.cloud_id, req, CONTROL_SIZE)
            elif op is Operation.SLICE_INSTANTIATE:
                self._handle_instantiate(req)
            elif op is Operation.BUNDLE_TRANSFER:
                self._handle_bundle(req, sender)
            elif op is Operation.SYNC_FINALIZE:
                self._handle_finalize(req, sender)
            elif op is Operation.START_FUNCTION:
                self._handle_start(req, sender)
            elif op is Operation.STOP_FUNCTION:
                self._handle_stop(req, sender)
            elif op is Operation.CRASH:
                self._handle_crash(req, sender)
            else:
                self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.BAD_REQUEST))
        except MALFORMED_CONTROL as exc:
            self.refuse(req, sender, exc)

    def _handle_data(self, req: RequestPrimitive, sender: str) -> None:
        response, events, processing = self.worker.dispatch(req)
        self._publish_events(events)
        self.sim.schedule(
            processing,
            lambda: self.reply(sender, response, self.system.config.payload_bytes),
            label=f"respond {req.request_id}",
        )

    def _handle_instantiate(self, req: RequestPrimitive) -> None:
        plan_line, meta_line, *image_lines = (req.content or b"").decode("ascii").split("\n")
        plan = SlicingPlan.from_text(plan_line)
        meta = decode_fieldline(meta_line)
        ctx, svc = meta["ctx"], meta["svc"]  # read now: the steps below run later
        images = []
        for line in image_lines:
            rec = decode_fieldline(line)
            images.append(
                FunctionImage(
                    image_id=rec["img"],
                    function=FunctionKind[rec["fn"]],
                    version=rec["ver"],
                    size_bytes=int(rec["size"]),
                )
            )
        quota = ResourceQuota(int(meta["mem"]), float(meta["cpu"]))
        bandwidth = self.network.bottleneck_bandwidth(self.node_id, self.system.cloud_id)
        extra = (
            self.network.topology.path_delay_ms(self.node_id, self.system.cloud_id)
            if self.system.config.link_accurate_pulls
            else 0.0
        )
        started: dict[FunctionKind, int] = {}
        fresh_starts: list[FunctionKind] = []

        def fail(message: str) -> None:
            for fn in fresh_starts:
                self.worker.stop_function(fn)
            self._sync_channel_state()
            body = encode_body([("ctx", ctx), ("slc", plan.target_slice), ("err", message)])
            self.send_control(self.system.cloud_id, Operation.SLICE_RECORD, body)

        def step(index: int) -> None:
            if index == len(images):
                pairs = [
                    ("ctx", ctx),
                    ("slc", plan.target_slice),
                    ("svc", svc),
                    ("fn", ",".join(f"{fn.name}:{port}" for fn, port in sorted(started.items(), key=lambda kv: kv[0].value))),
                ]
                self.send_control(self.system.cloud_id, Operation.SLICE_RECORD, encode_body(pairs))
                return
            image = images[index]
            if image.function in self.worker.functions:
                # already hosted (stale handler view); never start twice
                started[image.function] = self.worker.functions[image.function].port
                step(index + 1)
                return
            pull_ms = pull_image(self.worker.cache, image, bandwidth, extra_delay_ms=extra)

            def begin() -> None:
                try:
                    instance = self.worker.begin_start(image, quota)
                except EdgeSliceError as exc:
                    fail(str(exc))
                    return

                def complete() -> None:
                    self.worker.complete_start(image.function)
                    self._sync_channel_state()
                    started[image.function] = instance.port
                    fresh_starts.append(image.function)
                    step(index + 1)

                self.sim.schedule(self.worker.start_delay_ms, complete, label="start_complete")

            self.sim.schedule(pull_ms, begin, label=f"pull {image.image_id}")

        step(0)

    def _handle_bundle(self, req: RequestPrimitive, sender: str) -> None:
        # the whole body is read before the import, so a refusal changes nothing
        transfer = read_body(req.content, BundleTransfer)
        meta = dict(transfer.head)
        task_id = meta["task"]
        eager = meta["mode"] == SyncMode.EAGER.value
        if eager:
            mirror_root, cloud = ResourcePath.parse(meta["mirror"]), meta["cloud"]
        try:
            root = import_bundle(self.worker.tree, transfer.bundle)
        except EdgeSliceError as exc:
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.CONFLICT, str(exc).encode()))
            return
        if eager:
            create_sync_subscriptions(self.worker.tree, root, mirror_root, cloud)
            self.worker.tree.drain_events()
            self.sync_infos.append(EdgeSyncInfo(task_id, root, mirror_root, cloud))
        self.sim.log(
            "offload_import_complete",
            ctx=meta.get("ctx", ""),
            task=task_id,
            root=str(root),
        )
        body = encode_body([("task", task_id), ("root", str(root))])
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK, body))

    def _handle_finalize(self, req: RequestPrimitive, sender: str) -> None:
        meta = decode_body(req.content)
        task_id = meta["task"]
        root = ResourcePath.parse(meta["root"])
        try:
            # on arrival: the snapshot is made later, outside the handler's guard
            resolve_task_root(self.worker.tree, root)
        except NotFoundError as exc:
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.NOT_FOUND, str(exc).encode()))
            return

        def respond() -> None:
            bundle = make_bundle(self.worker.tree, root, task_id, self.sim.now)
            self.sync_infos = [i for i in self.sync_infos if i.task_id != task_id]
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK, bundle))

        self.channel.when_idle(respond)  # drain in-flight notifications first

    def _handle_start(self, req: RequestPrimitive, sender: str) -> None:
        meta = decode_body(req.content)
        quota = ResourceQuota(int(meta["mem"]), float(meta["cpu"]))
        try:
            image = self.system.config.catalogue.by_id(meta["img"])
            instance = self.worker.begin_start(image, quota)
        except EdgeSliceError as exc:
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.BAD_REQUEST, str(exc).encode()))
            return

        def complete() -> None:
            self.worker.complete_start(image.function)
            self._sync_channel_state()
            body = encode_body([("port", str(instance.port))])
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK, body))

        self.sim.schedule(self.worker.start_delay_ms, complete, label="admin start")

    def _handle_stop(self, req: RequestPrimitive, sender: str) -> None:
        meta = decode_body(req.content)
        try:
            self.worker.stop_function(FunctionKind[meta["fn"]])
        except EdgeSliceError as exc:
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.BAD_REQUEST, str(exc).encode()))
            return
        self._sync_channel_state()
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK))

    def _handle_crash(self, req: RequestPrimitive, sender: str) -> None:
        meta = decode_body(req.content)
        function = FunctionKind[meta["fn"]]
        try:
            duration = self.worker.begin_crash(function)
        except EdgeSliceError as exc:
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.BAD_REQUEST, str(exc).encode()))
            return
        self._sync_channel_state()

        def respawned() -> None:
            self.worker.complete_start(function)
            self._sync_channel_state()

        self.sim.schedule(duration, respawned, label="respawn")
        body = encode_body([("duration_ms", repr(duration))])
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK, body))


class CloudNode(_Node):
    def __init__(self, system: "System", node_id: str):
        super().__init__(system, node_id)
        config = system.config
        self.tree = ResourceTree("IN-CSE", system.sim.time)
        self.service = EdgeWorker(
            node_id,
            self.tree,
            capacity_bytes=10**15,
            start_delay_ms=0.0,
            clock=system.sim.time,
            processing_ms=config.processing_for(node_id),
        )
        # the central service hosts every function regardless of the
        # catalogue the edges pull from
        for fn in FunctionKind:
            builtin = FunctionImage(f"cloud-{fn.name.lower()}", fn, "builtin", 0)
            self.service.cache.seed([builtin])
            self.service.start_now(builtin, ResourceQuota(1, 1.0))
        self.service.log.clear()
        self.orchestrator = SliceOrchestrator(
            config.topology, config.catalogue, clock=system.sim.time, default_quota=config.quota
        )
        self.coordinator = OffloadCoordinator(self.tree, system.sim.time)
        self.channel = NotificationChannel(self._notify_transport, self.sim.schedule)
        self.service_ctx: dict[str, dict] = {}

    def _notify_transport(self, notify, done) -> None:
        req = notify.to_request(self.node_id)
        self.pending[notify.request_id] = lambda resp: done(resp.ok)
        self.send(notify.target_node, req, self.system.config.payload_bytes)

    def _publish_events(self, events) -> None:
        for event in events:
            for notify in match_subscriptions(self.tree, event):
                self.channel.enqueue(notify)

    def _after_mutation(self) -> None:
        self._publish_events(self.tree.drain_events())

    # --- request handling ---

    def handle_request(self, req: RequestPrimitive, sender: str) -> None:
        op = req.operation
        if op is Operation.NOTIFY:
            self._handle_notify(req, sender)
            return
        if op in DATA_OPS:
            self._handle_data(req, sender)
            return
        try:
            if op is Operation.SERVICE_REQUEST:
                self._handle_service_request(req)
            elif op is Operation.SLICE_RECORD:
                self._handle_record(req, sender)
            elif op is Operation.OFFLOAD_REQUEST:
                self._handle_offload_request(req, sender)
            elif op is Operation.SLICE_TERMINATE:
                self._handle_terminate(req, sender)
            else:
                self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.BAD_REQUEST))
        except MALFORMED_CONTROL as exc:
            self.refuse(req, sender, exc)

    def _handle_notify(self, req: RequestPrimitive, sender: str) -> None:
        try:
            self.coordinator.apply_notification(parse_notify(req))
        except UnknownBindingError as exc:
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.NOT_FOUND, str(exc).encode()))
            return
        except BadRequestError as exc:
            self.refuse(req, sender, exc)
            return
        self._after_mutation()
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK))

    def _handle_data(self, req: RequestPrimitive, sender: str) -> None:
        if req.operation is Operation.RETRIEVE:
            hit = self.coordinator.redirect_for(ResourcePath.parse(req.to))
            if hit is not None:
                binding, remapped = hit
                binding.stats.redirects_served += 1
                forwarded = replace(req, to=str(remapped))
                self.pending[req.request_id] = lambda resp: self.reply(
                    sender, resp, self.system.config.payload_bytes
                )
                self.send(binding.edge, forwarded, self.system.config.payload_bytes)
                return
        response, events, processing = self.service.dispatch(req)
        self._publish_events(events)
        self.sim.schedule(
            processing,
            lambda: self.reply(sender, response, self.system.config.payload_bytes),
            label=f"respond {req.request_id}",
        )

    # --- slicing control plane ---

    def _handle_service_request(self, req: RequestPrimitive) -> None:
        profile = SliceProfile.from_text((req.content or b"").decode("ascii"))
        device = req.originator
        plan = self.orchestrator.handle_service_request(
            ServiceRequest(device, profile.service_id, profile)
        )
        edge = self.orchestrator.edge_of(plan.target_slice)
        ctx = req.request_id
        self.service_ctx[ctx] = {
            "device": device,
            "service": profile.service_id,
            "edge": edge,
            "slice": plan.target_slice,
            "roots": [],
            "pending_tasks": set(),
        }
        if plan.decision is PlanDecision.INSTANTIATE_THEN_OFFLOAD:
            self.orchestrator.ensure_instance(plan.target_slice, edge)
            config = self.system.config
            lines = [plan.to_text()]
            lines.append(
                encode_fieldline(
                    [
                        ("ctx", ctx),
                        ("svc", profile.service_id),
                        ("mem", str(config.quota.max_memory_bytes)),
                        ("cpu", repr(config.quota.max_cpu_share)),
                    ]
                )
            )
            for fn in ordered(plan.missing_functions):
                image = config.catalogue.lookup(fn)
                lines.append(
                    encode_fieldline(
                        [
                            ("img", image.image_id),
                            ("fn", fn.name),
                            ("ver", image.version),
                            ("size", str(image.size_bytes)),
                        ]
                    )
                )
            body = "\n".join(lines).encode("ascii")
            self.send_control(edge, Operation.SLICE_INSTANTIATE, body)
        else:
            self._offload_phase(ctx)

    def _handle_record(self, req: RequestPrimitive, sender: str) -> None:
        meta = decode_body(req.content)
        ctx = meta["ctx"]
        context = self.service_ctx.get(ctx)
        if context is None:
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.NOT_FOUND))
            return
        if "err" in meta:
            self._finish_service(ctx, StatusCode.BAD_REQUEST, meta["err"])
            return
        started = {}
        if meta.get("fn"):
            for pair in meta["fn"].split(","):
                name, _, port = pair.partition(":")
                started[FunctionKind[name]] = int(port)
        self.orchestrator.mark_active(meta["slc"], started)
        self.orchestrator.record_slice_functions(meta["slc"], set(started))
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK))
        self._offload_phase(ctx)

    def _offload_phase(self, ctx: str) -> None:
        context = self.service_ctx[ctx]
        tasks = [
            Task(t.task_id, ResourcePath.parse(t.root), t.service)
            for t in self.system.config.tasks
            if t.service == context["service"]
        ]
        remaining = [t for t in tasks if t.task_id not in self.coordinator.bindings]
        if not remaining:
            self._finish_service(ctx, StatusCode.OK)
            return
        for task in remaining:
            context["pending_tasks"].add(task.task_id)
        for task in remaining:
            self._send_bundle(ctx, task, context["edge"])

    def _send_bundle(self, ctx: str, task: Task, edge: str) -> None:
        try:
            bundle = self.coordinator.export_task(task)
        except AlreadyOffloadedError:
            # exported earlier but the edge never confirmed; resend the state
            bundle = make_bundle(self.tree, task.root_path, task.task_id, self.sim.now)
        mode = self.system.config.sync_mode
        head = (
            ("ctx", ctx),
            ("task", task.task_id),
            ("mode", mode.value),
            ("mirror", str(task.root_path)),
            ("cloud", self.node_id),
        )
        rqi = self.system.next_control_rqi()

        def on_ack(response: ResponsePrimitive) -> None:
            context = self.service_ctx[ctx]
            if response.ok:
                meta = decode_body(response.content)
                edge_root = ResourcePath.parse(meta["root"])
                self.coordinator.register_binding(task, mode, edge, edge_root)
                context["roots"].append(meta["root"])
            else:
                context["failed"] = (
                    f"offload of {task.task_id!r} failed with {int(response.status)}"
                )
            context["pending_tasks"].discard(task.task_id)
            if not context["pending_tasks"]:
                if "failed" in context:
                    self._finish_service(ctx, StatusCode.CONFLICT, context["failed"])
                else:
                    self._finish_service(ctx, StatusCode.OK)

        self.pending[rqi] = on_ack
        self.send_control(edge, Operation.BUNDLE_TRANSFER, BundleTransfer(head, bundle), rqi)

    def _finish_service(self, ctx: str, status: StatusCode, detail: str = "") -> None:
        context = self.service_ctx.pop(ctx)
        self.sim.log("service_ready", ctx=ctx, edge=context["edge"], status=int(status))
        pairs = [("edge", context["edge"]), ("roots", ",".join(context["roots"]))]
        if detail:
            pairs.append(("err", detail))
        body = encode_body(pairs)
        rqi = context.get("reply_rqi", ctx)
        to = context.get("reply_to", context["device"])
        self.send(to, ResponsePrimitive(rqi, status, body), CONTROL_SIZE)

    # --- offload / terminate control plane ---

    def _handle_offload_request(self, req: RequestPrimitive, sender: str) -> None:
        meta = decode_body(req.content)
        spec = next(
            (t for t in self.system.config.tasks if t.task_id == meta["task"]), None
        )
        if spec is None:
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.NOT_FOUND))
            return
        ctx = f"offload-{req.request_id}"
        self.service_ctx[ctx] = {
            "device": sender,
            "service": spec.service,
            "edge": meta["edge"],
            "slice": self.orchestrator.slice_id_for(meta["edge"]),
            "roots": [],
            "pending_tasks": {spec.task_id},
            "reply_rqi": req.request_id,
            "reply_to": sender,
        }
        task = Task(spec.task_id, ResourcePath.parse(spec.root), spec.service)
        self._send_bundle(ctx, task, meta["edge"])

    def _handle_terminate(self, req: RequestPrimitive, sender: str) -> None:
        meta = decode_body(req.content)
        slice_id = meta["slc"]
        instance = self.orchestrator.registry.get(slice_id)
        if instance is None:
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.NOT_FOUND))
            return
        edge = instance.edge_node
        bindings = list(self.coordinator.bindings_on_edge(edge))
        synced_total = 0

        def finalize_next(index: int) -> None:
            nonlocal synced_total
            if index == len(bindings):
                stop_functions()
                return
            binding = bindings[index]
            rqi = self.system.next_control_rqi()

            def on_snapshot(response: ResponsePrimitive) -> None:
                nonlocal synced_total
                if response.ok:
                    bundle = read_body(response.content, OffloadBundle)
                    report = self.coordinator.finalize(binding.task_id, bundle)
                    self._after_mutation()
                    synced_total += report.synced_resources
                finalize_next(index + 1)

            self.pending[rqi] = on_snapshot
            body = encode_body([("task", binding.task_id), ("root", str(binding.edge_root))])
            self.send_control(edge, Operation.SYNC_FINALIZE, body, rqi)

        def stop_functions() -> None:
            functions = list(instance.running_functions)

            def stop_next(index: int) -> None:
                if index == len(functions):
                    self.orchestrator.forget_slice(slice_id)
                    body = encode_body([("synced", str(synced_total))])
                    self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK, body))
                    return
                rqi = self.system.next_control_rqi()
                self.pending[rqi] = lambda resp: stop_next(index + 1)
                body = encode_body([("fn", functions[index].name)])
                self.send_control(edge, Operation.STOP_FUNCTION, body, rqi)

            stop_next(0)

        finalize_next(0)


class System:
    """One simulated deployment in one mode ("cloud" or "edge")."""

    def __init__(self, config: ScenarioConfig, mode: str, seed: int):
        if mode not in ("cloud", "edge"):
            raise ConfigInvalidError(f"unknown mode {mode!r}")
        self.config = config
        self.mode = mode
        self.sim = Simulator(seed)
        self.network = Network(self.sim, config.topology)
        clouds = config.topology.by_role(NodeRole.CLOUD)
        if len(clouds) != 1:
            raise ConfigInvalidError("scenarios require exactly one cloud node")
        self.cloud_id = clouds[0]
        self._control_counter = 0
        self.cloud = CloudNode(self, self.cloud_id)
        self.edges = {
            node_id: EdgeNode(self, node_id)
            for node_id in config.topology.by_role(NodeRole.EDGE_WORKER)
        }
        self.devices = {
            node_id: DeviceNode(self, node_id)
            for node_id in config.topology.by_role(NodeRole.DEVICE)
        }
        self.samples: list[LatencySample] = []
        self._populate_cloud_tree()

    def next_control_rqi(self) -> str:
        self._control_counter += 1
        return f"ctl-{self._control_counter:06d}"

    def _populate_cloud_tree(self) -> None:
        tree = self.cloud.tree
        paths = [spec.root for spec in self.config.tasks]
        populate = self.config_populate()
        paths.extend(path for path, _ in populate)
        for path_str in paths:
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
            container = ResourcePath.parse(path_str)
            for i in range(count):
                tree.create(
                    container,
                    ResourceKind.CONTENT_INSTANCE,
                    f"p{i}",
                    content=payload_for(self.config, i),
                )
        tree.drain_events()

    def config_populate(self) -> list[tuple[str, int]]:
        if self.config.populate:
            return list(self.config.populate)
        return [(self.config.workload_target, self.config.prepopulate)]

    # --- conveniences for benchmarks and tests ---

    @property
    def device_id(self) -> str:
        return sorted(self.devices)[0]

    def edge_for(self, device: str) -> str:
        candidates = [
            (self.config.topology.path_delay_ms(device, e), e) for e in self.edges
        ]
        return min(candidates)[1]

    def data_target(self) -> str:
        path = ResourcePath.parse(self.config.workload_target)
        if self.mode == "edge":
            return str(ResourcePath("MN-CSE", path.segments))
        return str(path)

    def data_server(self, device: str) -> str:
        return self.edge_for(device) if self.mode == "edge" else self.cloud_id

    def run_until_idle(self) -> None:
        self.sim.run_until_idle()

    def send_service_request(self, device_id: str | None = None, on_ready=None) -> str:
        device = self.devices[device_id or self.device_id]
        rqi = device.next_rqi("sr")
        req = RequestPrimitive(
            operation=Operation.SERVICE_REQUEST,
            to=self.cloud_id,
            originator=device.node_id,
            request_id=rqi,
            content=self.config.profile().to_text().encode("ascii"),
        )
        device.issue(req, self.edge_for(device.node_id), CONTROL_SIZE, on_ready or (lambda resp: None))
        return rqi

    def prepare(self, device_id: str | None = None) -> "ResponsePrimitive | None":
        """Edge mode: run the slicing/offload pipeline to completion."""
        if self.mode != "edge":
            return None
        holder: list[ResponsePrimitive] = []
        self.send_service_request(device_id, on_ready=holder.append)
        self.run_until_idle()
        if not holder or not holder[0].ok:
            raise ConfigInvalidError("service preparation failed")
        return holder[0]

    def run_workload(
        self,
        operation: str,
        requests: int,
        device_id: str | None = None,
        record_as: str | None = None,
        target: str | None = None,
        server: str | None = None,
    ) -> list[LatencySample]:
        device = self.devices[device_id or self.device_id]
        server = server or self.data_server(device.node_id)
        target = target or self.data_target()
        collected: list[LatencySample] = []
        mode_label = record_as or self.mode

        def issue(index: int) -> None:
            if index == requests:
                return
            rqi = device.next_rqi("rq")
            if operation == "create":
                content = payload_for(self.config, 1000 + index)
                body = encode_body([("nm", f"m{mode_label}{index:05d}"), ("pc", encode_b64(content))])
                req = RequestPrimitive(
                    Operation.CREATE,
                    target,
                    device.node_id,
                    rqi,
                    resource_kind=ResourceKind.CONTENT_INSTANCE,
                    content=body,
                )
            elif operation == "retrieve":
                req = RequestPrimitive(Operation.RETRIEVE, target + "/la", device.node_id, rqi)
            else:
                raise ConfigInvalidError(f"unsupported workload operation {operation!r}")
            sent_at = self.sim.now

            def on_response(response: ResponsePrimitive) -> None:
                collected.append(
                    LatencySample(
                        scenario=self.config.name,
                        mode=mode_label,
                        operation=operation,
                        request_index=index,
                        rtt_ms=self.sim.now - sent_at,
                    )
                )
                issue(index + 1)

            device.issue(req, server, self.config.payload_bytes, on_response)

        issue(0)
        self.run_until_idle()
        self.samples.extend(collected)
        return collected
