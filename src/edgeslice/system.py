"""Simulated deployment: device, edge and cloud nodes wired over the network.

Every interaction is a request or response primitive routed by the
simulator; nodes never share state. Between the edge and the cloud a message
travels as the primitive object itself: a control body as its typed object
(a ``SliceProfile``, or a body declared here beside the handlers that send
and read it), a bundle as records, a notification as its resource snapshot
(``NotifyBody``); only a data-plane message on a device's access link travels
as its wire encoding. A message's bytes are its ``encode()``, made only when
something reads them, and a node decodes a payload that arrives as bytes.

The edge and the cloud are one kind of service node: each serves data through
its gated worker and publishes its tree's changes through one notification
channel. The cloud, whose worker runs every function from time 0, also hosts
the orchestrator and the offload coordinator; an edge starts only the
functions a preparation instantiates and hosts only the tasks it offloads.
Devices issue requests and record round trips.

Control-plane message sequence for one service request (steps as logged),
which on the cloud is one process, ``CloudNode._prepare``:

    device --10--> edge (handler, arrival logged)
    edge   --10--> cloud (orchestrator decides)
    cloud  --11--> edge (pull + start each missing function, sequential)
    edge   --12--> cloud (newly started functions; recorded for fast path)
    cloud  --31--> edge (one bundle per task; edge imports, binds sync)
    cloud  --> device (ready)

A slice ends in ``CloudNode._handle_terminate`` (13): one sync finalize (32)
per binding, then one function stop (21) per running function. A crash (22),
the one function fault, respawns a function the edge already runs. No other
request starts a function or offloads a task. A control body carries only
what its receiver lacks: an instantiation names its slice, not the plan, and
a bundle transfer's head names its preparation and sync mode, since the task
and the mirror's root are the bundle's and the cloud is the edge's own.

Control messages travel with size 0 (their transfer time is not modeled);
data-plane messages carry the configured payload size, whatever their form.
"""
from __future__ import annotations

import weakref
from functools import lru_cache, partial
from itertools import count
from typing import Callable, Generator, NamedTuple

from .codec import encode_b64, encode_body, line_body, parse_int
from .errors import (
    BadRequestError,
    ConfigInvalidError,
    ConflictError,
    EdgeSliceError,
    NotFoundError,
    SimulationLimitError,
    UnknownSliceError,
)
from .images import FunctionImage, pull_image
from . import netsim
from .netsim import LatencySample, Network, NodeRole, Simulator
# ``match_subscriptions`` is not called here, but the benchmark's tracer test reads it
from .notify import NotificationChannel, match_subscriptions, parse_notify  # noqa: F401
from .offload import (
    MODE_VALUES,
    BundleHead,
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
    refuse_taken_sync_names,
    resolve_task_root,
)
from .orchestrator import SliceOrchestrator
from .primitives import (
    Body,
    Operation,
    RequestPrimitive,
    ResponsePrimitive,
    StatusCode,
    decode_request,
    decode_response,
    error_response,
    is_response,
    read_body,
)
from .resources import ResourceKind, ResourcePath, ResourceTree
from .scenario import ScenarioConfig
from .slicing import (FUNCTION_BY_NAME, FUNCTION_NAMES, FunctionKind, PlanDecision, SliceProfile,
                      SliceState, ordered, port_for)
from .worker import EdgeWorker, FunctionInstance, InstanceState, ResourceQuota

DATA_OPS = (
    Operation.CREATE,
    Operation.RETRIEVE,
    Operation.UPDATE,
    Operation.DELETE,
    Operation.NOTIFY,
)

CONTROL_SIZE = 0

# the cloud's builtins run at this quota, on a worker no quota fills
_CLOUD_QUOTA = ResourceQuota(1, 1.0)
_CLOUD_CAPACITY = 10**15


# simulator events ``run_workload`` allows per request on top of the default
# cap: an edge create takes 5 (request, processing, reply and the eager-sync
# notify and its reply), a cloud create or retrieve 3
EVENTS_PER_REQUEST = 10


def payload_for(size: int, index: int) -> bytes:
    """The ``index``-th generated content, ``size`` bytes long."""
    body = f"position-update-{index:06d}:".encode("ascii")
    if len(body) >= size:
        return body[:size]
    return body + b"x" * (size - len(body))


def initial_cloud_tree(config: ScenarioConfig, clock: Callable[[], float]) -> ResourceTree:
    """A fresh copy of the cloud tree every deployment of ``config`` starts
    from: the containers on each task root and populate path, and the
    populated content instances, named ``p0``, ``p1``, ..."""
    populate = config.populate or [(config.workload_target, config.prepopulate)]
    return _cloud_template(
        tuple(task.root for task in config.tasks),
        tuple((path, count) for path, count in populate),
        config.payload_bytes,
    ).copy(clock)


@lru_cache(maxsize=8)
def _cloud_template(
    roots: tuple[str, ...], populate: tuple[tuple[str, int], ...], payload_bytes: int
) -> ResourceTree:
    """Built once per distinct key and only ever copied, never handed out."""
    tree = ResourceTree("IN-CSE")
    for path_str in roots + tuple(path for path, _ in populate):
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
                content=payload_for(payload_bytes, i),
            )
    tree.drain_events()
    return tree


class _Node:
    """One node of a deployment. It holds what it needs of the deployment but
    not the ``System``, and the network and its notification channel reach it
    through a weak reference: a dropped deployment is freed by reference count."""

    def __init__(self, system: "System", node_id: str):
        self.node_id = node_id
        self.config = system.config
        self.cloud_id = system.cloud_id
        self.sim = system.sim
        self.network = system.network
        self._control_ids = system._control_ids  # one sequence per deployment
        self._devices = system._device_ids
        self.pending: dict[str | tuple[str, str], Callable] = {}
        self.malformed_dropped = 0
        me = weakref.ref(self)
        system.network.attach(node_id, lambda message, sender: me().receive(message, sender))

    def next_control_rqi(self) -> str:
        return f"ctl-{next(self._control_ids):06d}"

    def _start(self, step: Generator, req: RequestPrimitive, to: str) -> None:
        """Run a protocol step that serves ``req`` as a simulator process
        whose mailbox is ``pending``: it waits there for a reply under its
        request id, or for a tuple such as ``("record", ctx)``. A package
        error the step raises ends it, answered at ``to``."""
        self.sim.process(step, partial(self._refuse, to, req.request_id), self.pending)

    def _refuse(self, to: str, rqi: str, exc: EdgeSliceError) -> None:
        self.reply(to, error_response(rqi, exc))

    def send(self, to: str, message: "RequestPrimitive | ResponsePrimitive", size: int) -> None:
        # A data-plane message on a device's access link is encoded here: as
        # objects, those would make data-plane runs fast enough to raise the
        # benchmark's peak-RSS reading, which grows with its round count.
        if size != CONTROL_SIZE and (to in self._devices or self.node_id in self._devices):
            message = message.encode()
        self.network.send(self.node_id, to, message, size)

    def reply(self, to: str, response: ResponsePrimitive, size: int = CONTROL_SIZE) -> None:
        self.send(to, response, size)

    def send_control(self, to: str, op: Operation, body: "bytes | Body", rqi: str = "") -> None:
        """Send a control request to a peer node; mints the request id if none is given."""
        rqi = rqi or self.next_control_rqi()
        self.send(to, RequestPrimitive(op, to, self.node_id, rqi, content=body), CONTROL_SIZE)

    def receive(self, message: "RequestPrimitive | ResponsePrimitive | bytes", sender: str) -> None:
        """Deliver one message. One that arrives as bytes is decoded first;
        bytes that do not decode have no request id to answer, so they are
        dropped and counted in ``malformed_dropped``. A package error that a
        request raises is answered at its sender."""
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
        try:
            self.handle_request(message, sender)
        except EdgeSliceError as exc:
            self._refuse(sender, message.request_id, exc)

    def handle_request(self, req: RequestPrimitive, sender: str) -> None:
        """Serve one request; a handler that cannot raises a package error."""
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
        if req.operation is not Operation.NOTIFY:
            raise BadRequestError(f"a device serves no {req.operation.name}")
        self.notifications_received += 1
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK))


class _ServiceNode(_Node):
    """A node of the service layer, the edge or the cloud: it serves data
    through its worker, which gates each request by the function that
    serves it, and publishes its tree's changes through one notification
    channel."""

    def __init__(self, system: "System", node_id: str, tree: ResourceTree, capacity_bytes: int):
        super().__init__(system, node_id)
        self.worker = EdgeWorker(
            node_id,
            tree,
            clock=system.sim.time,
            processing_ms=system.config.processing_for(node_id),
            capacity_bytes=capacity_bytes,
            start_delay_ms=system.config.start_delay_ms,
        )
        self.sync_infos: list[EdgeSyncInfo] = []  # the eager bindings this node is the edge of
        me = weakref.ref(self)
        self.channel = NotificationChannel(lambda notify, done: me()._notify_transport(notify, done),
                                           self.sim.process)

    def _notify_transport(self, notify, done) -> None:
        """Send one notification as a request; ``done`` gets whether it was accepted."""
        req = notify.to_request(self.node_id)
        self.pending[notify.request_id] = lambda resp: done(resp.ok)
        self.send(notify.target_node, req, self.config.payload_bytes)

    def _publish_events(self, events) -> None:
        if not events:
            return
        for notify in process_edge_events(self.worker.tree, events, self.sync_infos):
            self.channel.enqueue(notify)

    def _handle_data(self, req: RequestPrimitive, sender: str) -> None:
        response, events, processing = self.worker.dispatch(req)
        self._publish_events(events)
        self.sim.schedule(processing, partial(self.reply, sender, response, self.config.payload_bytes))


# --- the bodies of the requests an edge serves, and of its answers ---

class InstantiateBody(NamedTuple):
    """SLICE_INSTANTIATE: the preparation it serves, the slice to start the
    functions in, the quota to start them at and the image of each. On the
    wire, a line of ``_Meta`` and one line per image."""

    ctx: str
    slice_id: str
    quota: ResourceQuota
    images: tuple[FunctionImage, ...]

    def to_bytes(self) -> bytes:
        meta = _Meta(self.ctx, self.slice_id, self.quota.max_memory_bytes, self.quota.max_cpu_share)
        return b"\n".join([meta.to_bytes(), *[image.to_bytes() for image in self.images]])

    @classmethod
    def from_bytes(cls, data: bytes) -> "InstantiateBody":
        head, *images = data.split(b"\n")
        meta = _Meta.from_bytes(head)
        return cls(meta.ctx, meta.slc, ResourceQuota(meta.mem, meta.cpu), tuple(map(FunctionImage.from_bytes, images)))


_Meta = line_body("_Meta", "ctx slc mem:int cpu:float")  # an InstantiateBody's first line
TaskRoot = line_body("TaskRoot", "task root")  # SYNC_FINALIZE's, and the answer to a BUNDLE_TRANSFER
FunctionBody = line_body("FunctionBody", "fn")  # STOP_FUNCTION's and CRASH's, by ``FUNCTION_NAMES`` name
CrashBody = line_body("CrashBody", "duration_ms:float")  # the answer to a CRASH: the respawn's duration


class EdgeNode(_ServiceNode):
    def __init__(self, system: "System", node_id: str):
        config = system.config
        super().__init__(system, node_id, ResourceTree("MN-CSE", system.sim.time),
                         capacity_bytes=config.capacity_bytes)
        if config.pre_seeded_cache:
            self.worker.cache.seed(config.catalogue)
        self.channel.pause()  # resumes once the notification function runs

    # --- function lifecycle ---

    def _complete_start(self, function: FunctionKind) -> None:
        """Mark a started or respawned function running; the channel runs
        while the notification function does."""
        self.worker.complete_start(function)
        self._sync_channel_state()

    def _sync_channel_state(self) -> None:
        if self.worker.enabled(FunctionKind.NOTIFICATION):
            self.channel.resume()
        else:
            self.channel.pause()

    # --- request handling ---

    def handle_request(self, req: RequestPrimitive, sender: str) -> None:
        op = req.operation
        if op in DATA_OPS:
            self._handle_data(req, sender)
        elif op is Operation.SERVICE_REQUEST:
            self.sim.log("service_request_arrival", rqi=req.request_id, device=req.originator)
            self.send(self.cloud_id, req, CONTROL_SIZE)
        elif op is Operation.SLICE_INSTANTIATE:
            self._start(self._handle_instantiate(req), req, sender)
        elif op is Operation.BUNDLE_TRANSFER:
            self._handle_bundle(req, sender)
        elif op is Operation.SYNC_FINALIZE:
            self._start(self._handle_finalize(req, sender), req, sender)
        elif op is Operation.STOP_FUNCTION:
            self._handle_stop(req, sender)
        elif op is Operation.CRASH:
            self._handle_crash(req, sender)
        else:
            raise BadRequestError(f"an edge serves no {op.name}")

    def _handle_instantiate(self, req: RequestPrimitive) -> Generator:
        """Pull and start each missing function in turn, each running one
        start delay after its start began, then record the outcome at the
        cloud; a process."""
        ctx, slice_id, quota, images = read_body(req.content, InstantiateBody)
        bandwidth = self.network.bottleneck_bandwidth(self.node_id, self.cloud_id)
        started: dict[FunctionKind, int] = {}
        fresh_starts: list[FunctionKind] = []
        for image in images:
            function = image.function
            if function in self.worker.functions:
                # already hosted, which only a refused SLICE_RECORD leaves
                # the registry without; never start twice
                started[function] = self.worker.functions[function].port
                continue
            yield pull_image(self.worker.cache, image, bandwidth)
            try:
                instance = self.worker.begin_start(image, quota)
            except EdgeSliceError as exc:  # refused before any wait
                for fn in fresh_starts:
                    self.worker.stop_function(fn)
                self._sync_channel_state()
                self.send_control(self.cloud_id, Operation.SLICE_RECORD, RecordBody(ctx, slice_id, err=str(exc)))
                return
            yield self.worker.start_delay_ms
            self._complete_start(function)
            started[function] = instance.port
            fresh_starts.append(function)
        ports = ",".join(f"{FUNCTION_NAMES[fn]}:{started[fn]}" for fn in ordered(started))
        self.send_control(self.cloud_id, Operation.SLICE_RECORD, RecordBody(ctx, slice_id, ports))

    def _handle_bundle(self, req: RequestPrimitive, sender: str) -> None:
        # the whole body is read before the import, so a refusal changes nothing
        transfer = read_body(req.content, BundleTransfer)
        (ctx, mode), bundle = transfer.head, transfer.bundle
        eager = mode == MODE_VALUES[SyncMode.EAGER]
        if eager:
            mirror_root = ResourcePath.parse(bundle.root)
            refuse_taken_sync_names(bundle)
        root = import_bundle(self.worker.tree, bundle)
        if eager:
            info = EdgeSyncInfo(bundle.task_id, root, mirror_root, self.cloud_id)
            create_sync_subscriptions(self.worker.tree, info)
            self.worker.tree.drain_events()
            self.sync_infos.append(info)
        self.sim.log("offload_import_complete", ctx=ctx or "", task=bundle.task_id, root=str(root))
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK, TaskRoot(bundle.task_id, str(root))))

    def _handle_finalize(self, req: RequestPrimitive, sender: str) -> Generator:
        """Answer with a snapshot of the task's subtree once the notification
        channel is idle, then remove the subtree; a process. The snapshot
        supersedes what a paused channel still holds for the task. The root is
        checked on arrival and again by the snapshot, since an earlier
        finalize may have removed it meanwhile."""
        task_id, root = read_body(req.content, TaskRoot)
        root = ResourcePath.parse(root)
        resolve_task_root(self.worker.tree, root)
        yield self.channel.when_idle
        bundle = make_bundle(self.worker.tree, root, task_id, self.sim.now)
        ended = [i for i in self.sync_infos if i.task_id == task_id]
        self.sync_infos = [i for i in self.sync_infos if i.task_id != task_id]
        self.channel.discard(lambda notify: any(info.covers(notify) for info in ended))
        # the snapshot settles the mirror, which owns the task again
        self.worker.tree.delete(root)
        self._publish_events(self.worker.tree.drain_events())
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK, bundle))

    def _handle_stop(self, req: RequestPrimitive, sender: str) -> None:
        self.worker.stop_function(FUNCTION_BY_NAME[read_body(req.content, FunctionBody).fn])
        self._sync_channel_state()
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK))

    def _handle_crash(self, req: RequestPrimitive, sender: str) -> None:
        function = FUNCTION_BY_NAME[read_body(req.content, FunctionBody).fn]
        duration = self.worker.begin_crash(function)
        self._sync_channel_state()
        self.sim.schedule(duration, partial(self._complete_start, function))
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK, CrashBody(duration)))


# --- the bodies of the requests the cloud serves, and of its answers ---

# SLICE_RECORD's: the functions an instantiation started, as ``NAME:port`` pairs, or why it failed
RecordBody = line_body("RecordBody", "ctx slc fn? err?")
# the answer to a preparation: the edge and the task roots bound on it, comma-joined
ReadyBody = line_body("ReadyBody", "edge roots")
SliceBody = line_body("SliceBody", "slc")  # SLICE_TERMINATE's
SyncedBody = line_body("SyncedBody", "synced:int")  # the answer to a SLICE_TERMINATE: the records synced


class CloudNode(_ServiceNode):
    def __init__(self, system: "System", node_id: str):
        config = system.config
        super().__init__(system, node_id, initial_cloud_tree(config, system.sim.time),
                         capacity_bytes=_CLOUD_CAPACITY)
        self.tree, self.service = self.worker.tree, self.worker  # the cloud's names for them
        # the central service runs every function from time 0; their start is not logged
        builtin = partial(FunctionInstance, state=InstanceState.RUNNING, quota=_CLOUD_QUOTA, started_at=0.0)
        self.worker.functions = {fn: builtin(fn, port_for(fn)) for fn in FUNCTION_NAMES}
        self.orchestrator = SliceOrchestrator(config.topology, clock=system.sim.time)
        self.coordinator = OffloadCoordinator(self.tree, system.sim.time)

    # --- request handling ---

    def handle_request(self, req: RequestPrimitive, sender: str) -> None:
        op = req.operation
        if op is Operation.NOTIFY:
            self._handle_notify(req, sender)
        elif op in DATA_OPS:
            self._handle_data(req, sender)
        elif op is Operation.SERVICE_REQUEST:
            # answered at the device: an edge relays the request but not its answer
            self._start(self._prepare(req), req, req.originator)
        elif op is Operation.SLICE_RECORD:
            self._handle_record(req, sender)
        elif op is Operation.SLICE_TERMINATE:
            self._start(self._handle_terminate(req, sender), req, sender)
        else:
            raise BadRequestError(f"the cloud serves no {op.name}")

    def _handle_notify(self, req: RequestPrimitive, sender: str) -> None:
        self.coordinator.apply_notification(parse_notify(req))
        self._publish_events(self.tree.drain_events())
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK))

    def _handle_data(self, req: RequestPrimitive, sender: str) -> None:
        if req.operation is Operation.RETRIEVE:
            hit = self.coordinator.redirect_for(ResourcePath.parse(req.to))
            if hit is not None:
                binding, remapped = hit
                binding.stats.redirects_served += 1
                forwarded = RequestPrimitive(req.operation, str(remapped), req.originator, req.request_id,
                                             req.resource_kind, req.content)
                self.pending[req.request_id] = partial(self.reply, sender, size=self.config.payload_bytes)
                self.send(binding.edge, forwarded, self.config.payload_bytes)
                return
        super()._handle_data(req, sender)

    # --- slicing control plane ---

    def _prepare(self, req: RequestPrimitive) -> Generator:
        """Plan the service; if the edge lacks functions, instantiate them
        and wait for the edge's record; then offload the service's unbound
        tasks and answer the device with the roots bound. A process."""
        profile = read_body(req.content, SliceProfile)
        device, ctx = req.originator, req.request_id
        plan = self.orchestrator.handle_service_request(device, profile)
        edge = self.orchestrator.edge_of(plan.target_slice)
        if plan.decision is PlanDecision.INSTANTIATE_THEN_OFFLOAD:
            self.orchestrator.ensure_instance(plan.target_slice, edge)
            images = tuple([self.config.catalogue.lookup(fn) for fn in ordered(plan.missing_functions)])
            body = InstantiateBody(ctx, plan.target_slice, self.config.quota, images)
            self.send_control(edge, Operation.SLICE_INSTANTIATE, body)
            err = yield ("record", ctx)  # resumed by ``_handle_record``
            if err is not None:
                raise BadRequestError(err)
        tasks = [task for task in self.config.tasks
                 if task.service == profile.service_id and task.task_id not in self.coordinator.bindings]
        roots = yield from self._offload(ctx, edge, tasks)
        self.sim.log("service_ready", ctx=ctx, edge=edge, status=int(StatusCode.OK))
        self.send(device, ResponsePrimitive(ctx, StatusCode.OK, ReadyBody(edge, ",".join(roots))), CONTROL_SIZE)

    def _handle_record(self, req: RequestPrimitive, sender: str) -> None:
        """Apply an edge's record of an instantiation, then resume the
        preparation that waits for it with the record's error, if any. The
        whole record is read and applied first: one that cannot be read, or
        names a slice the registry lacks, is refused and the preparation
        waits on. One that no preparation waits for is refused as not found."""
        record = read_body(req.content, RecordBody)
        key = ("record", record.ctx)
        if key not in self.pending:
            raise NotFoundError(f"no preparation waits for a record of {record.ctx!r}")
        pairs = [pair.partition(":") for pair in record.fn.split(",")] if record.fn else []
        started = {FUNCTION_BY_NAME[name]: parse_int(port) for name, _, port in pairs}
        if record.err is None:
            self.orchestrator.mark_active(record.slc, started)
            self.orchestrator.record_slice_functions(record.slc, set(started))
            self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK))
        else:
            instance = self.orchestrator.registry.get(record.slc)
            if instance is not None and instance.state is not SliceState.ACTIVE:
                # the failed instantiation created the slice; none of it runs
                self.orchestrator.forget_slice(record.slc)
        self.pending.pop(key)(record.err)

    def _offload(self, ctx: str, edge: str, tasks: list[Task]) -> Generator:
        """Export every task, then send each bundle to ``edge`` and bind each
        task as its reply arrives; return the bound roots in arrival order.
        An export that fails raises before the first bundle is sent; a
        refused bundle raises once every reply is in."""
        mode = self.config.sync_mode
        instance = self.orchestrator.registry.get(self.orchestrator.slice_id_for(edge))
        # an edge whose slice, as the registry shows it, runs no notification function sends no change
        if mode is SyncMode.EAGER and (instance is None
                                       or FunctionKind.NOTIFICATION not in instance.running_functions):
            mode = SyncMode.LAZY
            self.sim.log("sync_downgraded", ctx=ctx, edge=edge)
        bundles = [self.coordinator.export_task(task) for task in tasks]
        head = BundleHead(ctx, MODE_VALUES[mode])
        sent: dict[str, Task] = {}
        for task, bundle in zip(tasks, bundles):
            bundle_rqi = self.next_control_rqi()
            sent[bundle_rqi] = task
            self.send_control(edge, Operation.BUNDLE_TRANSFER, BundleTransfer(head, bundle), bundle_rqi)
        roots: list[str] = []
        refused = ""
        while sent:
            response = yield list(sent)
            task = sent.pop(response.request_id)
            if response.ok:
                root = read_body(response.content, TaskRoot).root
                self.coordinator.register_binding(task, mode, edge, ResourcePath.parse(root))
                roots.append(root)
            else:
                refused = f"offload of {task.task_id!r} failed with {int(response.status)}"
        if refused:
            raise ConflictError(refused)
        return roots

    # --- terminate control plane ---

    def _handle_terminate(self, req: RequestPrimitive, sender: str) -> Generator:
        """Finalize each binding on the slice's edge, then stop each of its
        functions, one request at a time; a process. A snapshot the mirror
        refuses raises, which ends it with one 4000 reply, its binding still
        open and the slice's functions still running."""
        slice_id = read_body(req.content, SliceBody).slc
        instance = self.orchestrator.registry.get(slice_id)
        if instance is None:
            raise UnknownSliceError(f"no slice {slice_id!r}")
        edge = instance.edge_node
        synced_total = 0
        for binding in list(self.coordinator.bindings_on_edge(edge)):
            rqi = self.next_control_rqi()
            self.send_control(edge, Operation.SYNC_FINALIZE, TaskRoot(binding.task_id, str(binding.edge_root)), rqi)
            response = yield rqi
            if response.ok:
                bundle = read_body(response.content, OffloadBundle)
                synced_total += self.coordinator.finalize(binding.task_id, bundle)
                self._publish_events(self.tree.drain_events())
        for function in list(instance.running_functions):
            rqi = self.next_control_rqi()
            self.send_control(edge, Operation.STOP_FUNCTION, FunctionBody(FUNCTION_NAMES[function]), rqi)
            yield rqi
        self.orchestrator.forget_slice(slice_id)
        self.reply(sender, ResponsePrimitive(req.request_id, StatusCode.OK, SyncedBody(synced_total)))


class System:
    """One simulated deployment in one mode ("cloud" or "edge").

    What depends only on the scenario is shared by every deployment built
    from it: the cloud starts from a copy of an initial tree built once per
    task roots, populate list and payload size (``initial_cloud_tree``), and
    routes are computed once per topology (``Topology.route``).

    The System owns the simulator, the network and the nodes, and nothing
    points back up to it: a dropped deployment is freed at once.
    """

    def __init__(self, config: ScenarioConfig, mode: str, seed: int):
        if mode not in ("cloud", "edge"):
            raise ConfigInvalidError(f"unknown mode {mode!r}")
        self.config = config
        self.mode = mode
        self.sim = Simulator(seed)
        self.network = Network(self.sim, config.topology)
        self.cloud_id = config.topology.by_role(NodeRole.CLOUD)[0]  # the one cloud validate allows
        self._control_ids = count(1)
        devices = config.topology.by_role(NodeRole.DEVICE)
        self._device_ids = frozenset(devices)
        self.cloud = CloudNode(self, self.cloud_id)
        edges = config.topology.by_role(NodeRole.EDGE_WORKER)
        self.edges = {node_id: EdgeNode(self, node_id) for node_id in edges}
        self.devices = {node_id: DeviceNode(self, node_id) for node_id in devices}
        self._create_numbers = count()  # names each create ``run_workload`` issues anew

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

    def send_service_request(self, on_ready=None) -> str:
        device = self.devices[self.device_id]
        rqi = device.next_rqi("sr")
        req = RequestPrimitive(Operation.SERVICE_REQUEST, self.cloud_id, device.node_id, rqi,
                               content=self.config.profile())
        device.issue(req, self.edge_for(device.node_id), CONTROL_SIZE, on_ready or (lambda resp: None))
        return rqi

    def prepare(self) -> "ResponsePrimitive | None":
        """Edge mode: run the slicing/offload pipeline to completion, or raise
        naming the refusal's status and cause."""
        if self.mode != "edge":
            return None
        holder: list[ResponsePrimitive] = []
        self.send_service_request(on_ready=holder.append)
        self.run_until_idle()
        if not holder:
            raise ConfigInvalidError("service preparation failed: no reply")
        reply = holder[0]
        if not reply.ok:  # refused by ``_refuse``, with the error's text
            raise ConfigInvalidError(f"service preparation failed: {int(reply.status)} {reply.content.decode()}")
        return reply

    def run_workload(
        self,
        operation: str,
        requests: int,
        record_as: str | None = None,
        target: str | None = None,
        server: str | None = None,
    ) -> list[LatencySample]:
        device = self.devices[self.device_id]
        server = server or self.data_server(device.node_id)
        target = target or self.data_target()
        collected: list[LatencySample] = []
        mode_label = record_as or self.mode
        rqi = ""  # the request in flight, named if its reply never comes

        def stream() -> Generator:
            nonlocal rqi
            # one request at a time: each is issued once the previous is answered
            for index in range(requests):
                rqi = device.next_rqi("rq")
                if operation == "create":
                    content = payload_for(self.config.payload_bytes, 1000 + index)
                    name = f"m{mode_label}{next(self._create_numbers):05d}"
                    body = encode_body([("nm", name), ("pc", encode_b64(content))])
                    req = RequestPrimitive(Operation.CREATE, target, device.node_id, rqi,
                                           resource_kind=ResourceKind.CONTENT_INSTANCE, content=body)
                elif operation == "retrieve":
                    req = RequestPrimitive(Operation.RETRIEVE, target + "/la", device.node_id, rqi)
                else:
                    raise ConfigInvalidError(f"unsupported workload operation {operation!r}")
                sent_at = self.sim.now
                yield partial(device.issue, req, server, self.config.payload_bytes)
                rtt_ms = self.sim.now - sent_at
                collected.append(LatencySample(self.config.name, mode_label, operation, index, rtt_ms))

        self.sim.process(stream())
        self.sim.run_until_idle(netsim.DEFAULT_MAX_EVENTS + EVENTS_PER_REQUEST * requests)
        if len(collected) < requests:
            raise SimulationLimitError(f"request {rqi} was never answered")
        return collected
