"""edgeslice: IoT service slicing and task offloading on a desk-scale,
deterministic network simulator.

The package models a resource-oriented IoT service layer (hierarchical
resource trees with create/retrieve/update/delete/notify primitives), slices
its common service functions into per-function microservice units on
simulated edge workers, offloads cloud-resident resource subtrees onto edge
trees, keeps cloud mirrors synchronized eagerly (subscription/notification)
or lazily (read redirects plus reconciliation at termination), and
reproduces the reference cloud-vs-edge latency comparison under a calibrated
scenario.
"""

from .bench import (
    RoadReport,
    run_benchmark,
    run_preparation_timing,
    run_road_scenario,
)
from .images import (
    FunctionImage,
    ImageCatalogue,
    WorkerCache,
    default_catalogue,
    pull_image,
)
from .netsim import (
    LatencySample,
    Link,
    Network,
    Node,
    NodeRole,
    Simulator,
    Topology,
)
from .notify import NotificationChannel, NotifyPrimitive, match_subscriptions
from .offload import (
    OffloadBundle,
    OffloadCoordinator,
    SyncBinding,
    SyncMode,
    Task,
    import_bundle,
    make_bundle,
    subtrees_converged,
)
from .orchestrator import SliceOrchestrator
from .primitives import (
    Operation,
    RequestPrimitive,
    ResponsePrimitive,
    StatusCode,
    decode_request,
    decode_response,
)
from .report import emit_results, summarize
from .resources import (
    ChangeEvent,
    Resource,
    ResourceKind,
    ResourcePath,
    ResourceTree,
)
from .scenario import ScenarioConfig, load_scenario, parse_scenario, reference_calibrated
from .slicing import (
    FunctionKind,
    LatencyClass,
    PlanDecision,
    SliceInstance,
    SliceProfile,
    SlicingPlan,
    port_for,
)
from .system import System
from .worker import EdgeWorker, FunctionInstance, InstanceState, ResourceQuota

__version__ = "0.1.0"

__all__ = [
    "ChangeEvent",
    "EdgeWorker",
    "FunctionImage",
    "FunctionInstance",
    "FunctionKind",
    "ImageCatalogue",
    "InstanceState",
    "LatencyClass",
    "LatencySample",
    "Link",
    "Network",
    "Node",
    "NodeRole",
    "NotificationChannel",
    "NotifyPrimitive",
    "OffloadBundle",
    "OffloadCoordinator",
    "Operation",
    "PlanDecision",
    "RequestPrimitive",
    "Resource",
    "ResourceKind",
    "ResourcePath",
    "ResourceQuota",
    "ResourceTree",
    "ResponsePrimitive",
    "RoadReport",
    "ScenarioConfig",
    "Simulator",
    "SliceInstance",
    "SliceOrchestrator",
    "SliceProfile",
    "SlicingPlan",
    "StatusCode",
    "SyncBinding",
    "SyncMode",
    "System",
    "Task",
    "Topology",
    "WorkerCache",
    "decode_request",
    "decode_response",
    "default_catalogue",
    "emit_results",
    "import_bundle",
    "load_scenario",
    "make_bundle",
    "match_subscriptions",
    "reference_calibrated",
    "parse_scenario",
    "port_for",
    "pull_image",
    "run_benchmark",
    "run_preparation_timing",
    "run_road_scenario",
    "subtrees_converged",
    "summarize",
]
