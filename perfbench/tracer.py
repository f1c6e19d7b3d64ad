"""Span tracing of the edgeslice package from outside.

``Tracer.install()`` replaces the public functions and methods listed in
``INSTRUMENTED`` with wrappers that record one span per call: a name, start
and end (``perf_counter_ns``), the enclosing span and, when the call carries a
primitive, its request id. Module-level functions are replaced in every
edgeslice module that imported them by name, because that is where their
callers look them up. Spans are recorded only inside a root span that the
harness opens around a set-up or measured phase, so checks made between
phases are not traced.

Spans stay in memory; ``fold()`` turns the spans of one round into per-name
totals (calls, self time, duration, an optional summed value) and keeps the
raw spans of the first round it sees for ``write_spans``. Self time is a
span's duration minus the part covered by its child spans; nested calls on
one thread never overlap, so that is the children's summed duration.
"""
from __future__ import annotations

import csv
import importlib
import pkgutil
from time import perf_counter_ns

import edgeslice
from edgeslice import (
    images,
    netsim,
    notify,
    offload,
    orchestrator,
    primitives,
    report,
    resources,
    scenario,
    system,
    worker,
)

ROOT_SETUP = "root.setup"
ROOT_MEASURED = "root.measured"


def _payload_bytes(args, result):
    return len(args[3])  # Network.send(self, frm, to, payload, size_bytes)


def _cache_hit(args, result):
    return 1 if result == 0.0 else 0  # a pull that costs nothing was a hit


# (owner, attribute, span name, value extractor). The first dotted component
# of a span name is its layer. Only calls that do real work are listed, so
# the per-span cost stays small against the work it measures.
INSTRUMENTED = [
    (resources.ResourceTree, "create", "resources.create", None),
    (resources.ResourceTree, "graft", "resources.graft", None),
    (resources.ResourceTree, "update", "resources.update", None),
    (resources.ResourceTree, "delete", "resources.delete", None),
    (resources.ResourceTree, "resolve", "resources.resolve", None),
    (resources.ResourceTree, "children", "resources.children", None),
    (resources.ResourceTree, "latest_instance", "resources.latest_instance", None),
    (resources.ResourceTree, "path_of", "resources.path_of", None),
    (resources.ResourcePath, "parse", "resources.parse", None),
    (primitives.RequestPrimitive, "encode", "primitives.encode", None),
    (primitives.ResponsePrimitive, "encode", "primitives.encode", None),
    (primitives, "decode_request", "primitives.decode", None),
    (primitives, "decode_response", "primitives.decode", None),
    (primitives, "encode_resource", "primitives.resource", None),
    (primitives, "decode_resource", "primitives.resource", None),
    (primitives, "encode_fieldline", "primitives.fieldline", None),
    (primitives, "decode_fieldline", "primitives.fieldline", None),
    (notify, "match_subscriptions", "notify.match", None),
    (notify, "parse_notify", "notify.parse", None),
    (notify.NotifyPrimitive, "to_request", "notify.to_request", None),
    (notify.NotificationChannel, "enqueue", "notify.enqueue", None),
    (offload, "process_edge_events", "offload.process_edge_events", None),
    (offload, "maintain_sync_subscriptions", "offload.maintain_sync", None),
    (offload, "create_sync_subscriptions", "offload.create_sync_subscriptions", None),
    (offload, "make_bundle", "offload.make_bundle", None),
    (offload, "import_bundle", "offload.import_bundle", None),
    (offload.OffloadBundle, "encode", "offload.bundle_encode", None),
    (offload.OffloadBundle, "decode", "offload.bundle_decode", None),
    (offload.OffloadCoordinator, "export_task", "offload.export_task", None),
    (offload.OffloadCoordinator, "register_binding", "offload.register_binding", None),
    (offload.OffloadCoordinator, "redirect_for", "offload.redirect_for", None),
    (offload.OffloadCoordinator, "apply_notification", "offload.apply_notification", None),
    (worker.EdgeWorker, "dispatch", "worker.dispatch", None),
    (worker.EdgeWorker, "begin_start", "worker.begin_start", None),
    (worker.EdgeWorker, "complete_start", "worker.complete_start", None),
    (orchestrator.SliceOrchestrator, "handle_service_request",
     "orchestrator.handle_service_request", None),
    (orchestrator.SliceOrchestrator, "ensure_instance", "orchestrator.ensure_instance", None),
    (orchestrator.SliceOrchestrator, "mark_active", "orchestrator.mark_active", None),
    (orchestrator.SliceOrchestrator, "record_slice_functions",
     "orchestrator.record_slice_functions", None),
    (images, "pull_image", "images.pull", _cache_hit),
    (images.ImageCatalogue, "lookup", "images.lookup", None),
    (images.WorkerCache, "seed", "images.seed", None),
    (netsim.Simulator, "run_until_idle", "netsim.loop", None),
    (netsim.Simulator, "schedule_at", "netsim.schedule", None),
    (netsim.Network, "send", "netsim.send", _payload_bytes),
    (system._Node, "receive", "system.receive", None),
    (system._Node, "send", "system.send", None),
    (system.DeviceNode, "handle_request", "system.handle", None),
    (system.EdgeNode, "handle_request", "system.handle", None),
    (system.CloudNode, "handle_request", "system.handle", None),
    (system.System, "__init__", "system.build", None),
    (system.System, "prepare", "system.prepare", None),
    (system.System, "run_workload", "system.run_workload", None),
    (report, "emit_results", "report.emit", None),
    (scenario, "load_scenario", "scenario.load", None),
    (scenario, "reference_calibrated", "scenario.load", None),
]

_PRIMITIVES = (primitives.RequestPrimitive, primitives.ResponsePrimitive, notify.NotifyPrimitive)


def _request_id(args, result) -> str:
    for value in args[:2]:
        if isinstance(value, _PRIMITIVES):
            return value.request_id
    if isinstance(result, _PRIMITIVES):
        return result.request_id
    return ""


def _package_modules() -> list:
    return [
        importlib.import_module(f"edgeslice.{info.name}")
        for info in pkgutil.iter_modules(edgeslice.__path__)
    ]


class NameTotals:
    """Per-name totals of one phase."""

    __slots__ = ("calls", "self_ns", "duration_ns", "value")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.duration_ns = 0
        self.value = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.child_ns: list[int] = []
        self.value: list[int] = []
        self.rqi: list[str] = []
        self.stack: list[int] = []
        self.kept: "tuple | None" = None  # raw spans of the first round
        self.totals: dict[str, dict[str, NameTotals]] = {
            ROOT_SETUP: {},
            ROOT_MEASURED: {},
        }
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.child_ns.append(0)
        self.value.append(0)
        self.rqi.append("")
        self.end.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        end = perf_counter_ns()
        self.end[index] = end
        self.stack.pop()
        parent = self.parent[index]
        if parent >= 0:
            self.child_ns[parent] += end - self.start[index]

    def root(self, kind: str) -> "_Root":
        return _Root(self, self._name_id(kind))

    def _wrap(self, fn, name: str, value_of):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.rqi[index] = _request_id(args, result)
            if value_of is not None:
                tracer.value[index] = value_of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installation ---

    def install(self) -> None:
        modules = _package_modules()
        for owner, attribute, name, value_of in INSTRUMENTED:
            if isinstance(owner, type):
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, value_of))
                else:
                    wrapped = self._wrap(raw, name, value_of)
                self._patches.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
                continue
            original = getattr(owner, attribute)
            wrapped = self._wrap(original, name, value_of)
            for module in modules:
                if module.__dict__.get(attribute) is original:
                    self._patches.append((module, attribute, original))
                    setattr(module, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # --- aggregation ---

    def fold(self) -> None:
        """Add the finished spans to the per-phase totals and drop them."""
        if self.stack:
            raise RuntimeError("cannot fold while a span is open")
        count = len(self.start)
        phase = [0] * count
        for i in range(count):
            parent = self.parent[i]
            phase[i] = self.name_of[i] if parent < 0 else phase[parent]
        setup_id = self._name_ids.get(ROOT_SETUP)
        for i in range(count):
            kind = ROOT_SETUP if phase[i] == setup_id else ROOT_MEASURED
            name = self.names[self.name_of[i]]
            totals = self.totals[kind].setdefault(name, NameTotals())
            duration = self.end[i] - self.start[i]
            totals.calls += 1
            totals.duration_ns += duration
            totals.self_ns += duration - self.child_ns[i]
            totals.value += self.value[i]
        if self.kept is None:
            self.kept = (
                list(self.names), self.name_of, self.start, self.end,
                self.parent, self.child_ns, self.rqi,
            )
        self.name_of, self.start, self.end = [], [], []
        self.parent, self.child_ns, self.value, self.rqi = [], [], [], []

    def write_spans(self, path: str) -> int:
        """Write the kept round's spans as CSV; returns the span count."""
        if self.kept is None:
            return 0
        names, name_of, start, end, parent, child_ns, rqi = self.kept
        origin = start[0] if start else 0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["span", "parent", "name", "start_ns", "end_ns", "self_ns", "rqi"])
            for i in range(len(start)):
                out.writerow([
                    i, parent[i], names[name_of[i]], start[i] - origin, end[i] - origin,
                    end[i] - start[i] - child_ns[i], rqi[i],
                ])
        return len(start)


class _Root:
    """Context manager for one root span; records only at the top level."""

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        if self.tracer.stack:
            raise RuntimeError("root spans cannot nest")
        self.index = self.tracer._open(self.name_id)

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


#: Accounting self-check: the layers' self times plus the unattributed
#: remainder must sum to the measured root spans within this share of them.
ACCOUNTING_TOLERANCE = 0.001


class LayerReport:
    """Per-layer metrics of the traced rounds' measured phase.

    Counts are per op. ``self_us`` is the mean self time per call, and a
    layer's ``self_share`` is its self time over the traced wall time of the
    measured phase (``base_ns``).
    """

    def __init__(self, tracer: Tracer, ops: int, counters: dict):
        self.measured = tracer.totals[ROOT_MEASURED]
        self.setup = tracer.totals[ROOT_SETUP]
        self.ops = ops
        self.counters = counters
        root = self.measured.get(ROOT_MEASURED, NameTotals())
        self.base_ns = root.duration_ns
        self.unattributed_ns = root.self_ns
        self.attributed_ns = sum(
            t.self_ns for name, t in self.measured.items() if name != ROOT_MEASURED
        )

    def layer_self_ns(self) -> dict[str, int]:
        layers: dict[str, int] = {}
        for name, totals in self.measured.items():
            if name != ROOT_MEASURED:
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0) + totals.self_ns
        return layers

    def accounting_residual_ns(self) -> int:
        return self.attributed_ns + self.unattributed_ns - self.base_ns

    def accounting_ok(self) -> bool:
        return abs(self.accounting_residual_ns()) <= ACCOUNTING_TOLERANCE * self.base_ns

    def _get(self, name: str) -> NameTotals:
        return self.measured.get(name, NameTotals())

    def calls(self, name: str) -> float:
        return self._get(name).calls / self.ops

    def self_us(self, *names: str) -> float:
        calls = sum(self._get(n).calls for n in names)
        own = sum(self._get(n).self_ns for n in names)
        return own / calls / 1000 if calls else 0.0

    def share(self, layer: str) -> float:
        return self.layer_self_ns().get(layer, 0) / self.base_ns if self.base_ns else 0.0

    def per_op(self, counter: str) -> float:
        return self.counters.get(counter, 0) / self.ops

    def metrics(self, ops_per_s_ratio: float) -> dict[str, tuple[float, str]]:
        pull = self._get("images.pull")
        loop = self._get("netsim.loop")
        events = self.counters.get("netsim.events", 0)
        receives = self._get("system.receive").calls
        handle_ns = self._get("system.receive").self_ns + self._get("system.handle").self_ns
        emit = self._get("report.emit")
        load = self.setup.get("scenario.load", NameTotals())
        return {
            "resources.create.calls": (self.calls("resources.create"), "calls/op"),
            "resources.create.self_us": (self.self_us("resources.create"), "us"),
            "resources.resolve.calls": (self.calls("resources.resolve"), "calls/op"),
            "resources.resolve.self_us": (self.self_us("resources.resolve"), "us"),
            "resources.children.self_us": (self.self_us("resources.children"), "us"),
            "resources.latest_instance.self_us": (
                self.self_us("resources.latest_instance"), "us"),
            "resources.self_share": (self.share("resources"), "ratio"),
            "primitives.encode.calls": (self.calls("primitives.encode"), "calls/op"),
            "primitives.encode.self_us": (self.self_us("primitives.encode"), "us"),
            "primitives.decode.calls": (self.calls("primitives.decode"), "calls/op"),
            "primitives.decode.self_us": (self.self_us("primitives.decode"), "us"),
            "primitives.wire_bytes_per_op": (
                self._get("netsim.send").value / self.ops, "bytes/op"),
            "primitives.self_share": (self.share("primitives"), "ratio"),
            "notify.match.calls": (self.calls("notify.match"), "calls/op"),
            "notify.match.self_us": (self.self_us("notify.match"), "us"),
            "notify.sent": (self.per_op("notify.sent"), "count/op"),
            "notify.retries": (self.per_op("notify.retries"), "count/op"),
            "notify.dropped": (self.per_op("notify.dropped"), "count/op"),
            "notify.self_share": (self.share("notify"), "ratio"),
            "offload.process_edge_events.self_us": (
                self.self_us("offload.process_edge_events"), "us"),
            "offload.apply_notification.calls": (
                self.calls("offload.apply_notification"), "calls/op"),
            "offload.apply_notification.self_us": (
                self.self_us("offload.apply_notification"), "us"),
            "offload.redirect_for.self_us": (self.self_us("offload.redirect_for"), "us"),
            "offload.sync.applied": (self.per_op("offload.sync.applied"), "count/op"),
            "offload.sync.duplicates": (self.per_op("offload.sync.duplicates"), "count/op"),
            "offload.sync.stale_dropped": (
                self.per_op("offload.sync.stale_dropped"), "count/op"),
            "offload.sync.redirects_served": (
                self.per_op("offload.sync.redirects_served"), "count/op"),
            "offload.export_task.self_us": (self.self_us("offload.export_task"), "us"),
            "offload.import_bundle.self_us": (self.self_us("offload.import_bundle"), "us"),
            "offload.self_share": (self.share("offload"), "ratio"),
            "worker.dispatch.calls": (self.calls("worker.dispatch"), "calls/op"),
            "worker.dispatch.self_us": (self.self_us("worker.dispatch"), "us"),
            "worker.dispatch.gated": (self.per_op("worker.dispatch.gated"), "count/op"),
            "worker.log_entries_per_op": (self.per_op("worker.log_entries"), "entries/op"),
            "worker.self_share": (self.share("worker"), "ratio"),
            "orchestrator.handle_service_request.calls": (
                self.calls("orchestrator.handle_service_request"), "calls/op"),
            "orchestrator.handle_service_request.self_us": (
                self.self_us("orchestrator.handle_service_request"), "us"),
            "orchestrator.self_share": (self.share("orchestrator"), "ratio"),
            "images.pull.calls": (self.calls("images.pull"), "calls/op"),
            "images.pull.self_us": (self.self_us("images.pull"), "us"),
            "images.pull.cache_hit_share": (
                pull.value / pull.calls if pull.calls else 0.0, "ratio"),
            "netsim.events_per_op": (events / self.ops, "events/op"),
            "netsim.loop.self_us_per_event": (
                loop.self_ns / events / 1000 if events else 0.0, "us"),
            "netsim.send.calls": (self.calls("netsim.send"), "calls/op"),
            "netsim.send.self_us": (self.self_us("netsim.send"), "us"),
            "netsim.trace_entries_per_op": (self.per_op("netsim.trace_entries"), "entries/op"),
            "netsim.self_share": (self.share("netsim"), "ratio"),
            "system.handle.self_us": (
                handle_ns / receives / 1000 if receives else 0.0, "us"),
            "system.self_share": (self.share("system"), "ratio"),
            "report.emit_ms": (emit.duration_ns / emit.calls / 1e6 if emit.calls else 0.0, "ms"),
            "scenario.load_ms": (load.duration_ns / load.calls / 1e6 if load.calls else 0.0, "ms"),
            "trace.wall_s": (self.base_ns / 1e9, "s"),
            "trace.unattributed_share": (
                self.unattributed_ns / self.base_ns if self.base_ns else 0.0, "ratio"),
            "trace.ops_per_s_ratio": (ops_per_s_ratio, "ratio"),
        }
