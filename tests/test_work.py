"""Work counter: Python-level calls into edgeslice code per cold preparation and per create.

Host time on a shared machine moves by tens of percent between runs; a count
of calls does not move at all. ``calls`` counts, with ``sys.setprofile``, the
calls of Python functions whose code is in a file of the ``edgeslice``
package during one ``build_system`` + ``prepare()`` with a cold image cache.
Comprehension and generator-expression frames are not counted, since one
Python version runs a comprehension as a call of its own and another inlines
it (PEP 709), and neither is code generated outside the package's files,
such as a dataclass's ``__init__`` or a named tuple's ``__new__``; so the
counts do not depend on the interpreter's call accounting. The difference
between ``prepopulate`` 200 and 0 is the work of the 200 extra content
instances that the preparation exports, ships and imports, and it is pinned
per instance: a helper called once per record shows up as a failing count.
A deployment's cloud tree is an unchanged copy of a template, whose export
the template keeps, so a second count is taken of a preparation whose cloud
tree gained a container outside the task before it: that one exports
afresh, and a helper in the export's walk shows up there. The same runs
count the calls into the standard ``enum`` module, which must be none: an
enum member's ``.name`` or ``.value`` is a Python-level call, where a table
keyed by member is a dict read.

The same is counted per eager edge create: ``run_workload("create", n)`` on a
prepared deployment at two values of ``n``, after one stream that fills the
per-process caches, the difference pinned per create. A create's mirror
replay is one ``graft`` on the cloud tree, so a replay that goes through
``graft_many``'s batch machinery again shows as a changed count. The
resource codec is counted on its own: the notification and its replay
travel between the edge and the cloud as objects, so the one
``encode_resource`` call of a create is the device's reply, and no
``decode_resource`` call is made. So are the package's value objects a
create builds, by type, counted by their generated constructors: a path
resolved or parsed again, or a record rebuilt, shows as a changed count, and
no frozen dataclass is built but the two primitives and the sample.

The same is counted per lazy ``/la`` retrieve addressed to the cloud on the
campus scenario, whose binding the cloud redirects to the edge: at two
values of ``n``, ten times apart, the difference pinned per retrieve. So is
each ``/la`` retrieve addressed to the edge of the calibrated scenario, the
request the headline cloud-vs-edge comparison times.

The counts are taken in fresh processes, since the test suite's wire check
adds an encode and a decode to every message. Run as a script, this prints
them as JSON, or with the argument ``creates`` the counts of creates, with
``retrieves`` those of lazy retrieves, or with ``edge-retrieves`` those of
edge retrieves.

The bytes at the wire tap are counted too: the length of each message of two
edge creates and two ``/la`` retrieves of the calibrated scenario, so that
content escaped twice, or travelling as base64 of its own text, shows as a
failing size.
"""
import dataclasses
import enum
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import Callable

import yaml

import edgeslice
from edgeslice.bench import build_system
from edgeslice.netsim import Topology
from edgeslice.primitives import decode_request, decode_response, is_response
from edgeslice.resources import ResourceKind, ResourcePath
from edgeslice.scenario import reference_calibrated
from edgeslice.scenario import load_scenario
from wire_samples import CAMPUS, traffic

REPO = Path(__file__).resolve().parent.parent
RECORDS = 200

#: calls per extra content instance: none, since ``graft_many`` builds each
#: record's ``Resource`` with its generated ``__init__``, in a run by ``map``
CALLS_PER_RECORD = 0

#: calls per eager edge create, from the device's request to the reply to
#: the edge's notify, and calls into ``enum`` besides, which tables of
#: members by number and of names by member keep at none. A create's four
#: messages and its dispatch make no ``Simulator.log`` or ``EdgeWorker._log``
#: call. The event heap holds
#: ``(fire_at, seq, action)`` tuples, with no event object to build. The
#: request stream is one simulator process, and so is each run of queued
#: notifies, with no closure made per request or per notify; a generator's
#: resume counts as a call under ``sys.setprofile``. A path read again is a
#: hit of ``ResourcePath.parse``'s cache, with no call. The mirror's
#: replay lifts the cloud tree's guard by unsetting it, with no context
#: manager to build, enter and leave, and a write asks a set guard inline,
#: with no call when none is set
CALLS_PER_CREATE = 149
ENUM_CALLS_PER_CREATE = 0
CREATES = (5, 10)

#: calls per lazy ``/la`` retrieve addressed to the cloud on the campus
#: scenario's edge deployment: the cloud finds the binding that covers the
#: path (``redirect_for``, one scan of the open bindings), forwards the
#: request to the edge and relays its answer to the device. The scan is a
#: call of ``_covering``, the one rule the write guard and the mirror's
#: replay share, which made it 96 where an inline scan made 95
CALLS_PER_LAZY_RETRIEVE = 96
RETRIEVES = (3, 30)

#: calls per ``/la`` retrieve addressed to the edge on the calibrated
#: scenario's edge deployment, from the device's request to the edge's
#: reply: the request and its reply are each encoded and decoded on the
#: device's access link, and the edge's worker gates and serves it
CALLS_PER_EDGE_RETRIEVE = 68

#: value objects built per eager edge create, by type. On the edge and on
#: the mirror one ``Resource``, one ``ResourcePath`` (the created node's
#: path, a child of the cached parent path; the grafted node's) and one
#: ``ChangeEvent``, which shares the content instance; one ``ResourceView``,
#: shared by the notification the edge sends and the one the cloud reads.
#: The device's request and the edge's reply are built by their sender and
#: again by the decode on the device's access link; the notify and its
#: answer, which travel as objects, once each.
VALUES_PER_CREATE = {
    "Resource": 2, "ResourcePath": 2, "ChangeEvent": 2, "ResourceView": 1, "NotifyPrimitive": 2,
    "NotifyBody": 1, "RequestPrimitive": 3, "ResponsePrimitive": 3, "LatencySample": 1,
}

#: the frozen dataclasses a create may build: a primitive's ``len`` is its
#: wire length, which a named tuple cannot give, and the benchmark varies a
#: ``LatencySample`` with ``dataclasses.replace``
FROZEN_DATACLASSES = {"RequestPrimitive", "ResponsePrimitive", "LatencySample"}

#: frames not counted: comprehensions, which Python 3.12 inlines (PEP 709)
#: where 3.11 runs each as a call of its own, and generator expressions
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})

MODULES = [importlib.import_module(f"edgeslice.{info.name}")
           for info in pkgutil.iter_modules(edgeslice.__path__)]
PACKAGE_FILES = frozenset(module.__file__ for module in [edgeslice, *MODULES])


def _value_types() -> dict[int, type]:
    """The package's dataclasses and named tuples, by the id of the
    generated code that builds one: a dataclass's ``__init__``, a named
    tuple's ``__new__``."""
    types = {}
    for module in MODULES:
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if dataclasses.is_dataclass(cls) and "__init__" in vars(cls):
                types[id(cls.__init__.__code__)] = cls
            elif issubclass(cls, tuple) and "__new__" in vars(cls):
                types[id(cls.__new__.__code__)] = cls
    return types


VALUE_TYPES = _value_types()

#: the resource codec's functions, by module, whose calls are counted apart
RESOURCE_CODEC = (("edgeslice.codec", "encode_resource"), ("edgeslice.primitives", "decode_resource"))


def counted(run: Callable[[], object]) -> tuple[object, dict]:
    """``run()``, and what it did: the calls it made into edgeslice code and
    into ``enum``, among the first those of each ``RESOURCE_CODEC``
    function, and the package's value objects it built, by type."""
    count = enum_calls = 0
    codec_calls = dict.fromkeys(RESOURCE_CODEC, 0)
    built: Counter = Counter()

    def profile(frame, event, arg) -> None:
        nonlocal count, enum_calls
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename in PACKAGE_FILES:
            if code.co_name not in INLINED:
                count += 1
                key = (frame.f_globals["__name__"], code.co_name)
                if key in codec_calls:
                    codec_calls[key] += 1
        elif code.co_filename == enum.__file__:
            enum_calls += 1
        elif id(code) in VALUE_TYPES:
            built[VALUE_TYPES[id(code)].__name__] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    encodes, decodes = codec_calls.values()
    return result, {"calls": count, "enum": enum_calls, "encode_resource": encodes,
                    "decode_resource": decodes, "built": dict(built)}


def calls(prepopulate: int, fresh: bool = False) -> tuple[int, int]:
    """Calls into edgeslice code, and into ``enum``, during one cold
    preparation; with ``fresh``, one whose cloud tree has changed since it
    was copied, so that its export is built afresh."""
    config = replace(reference_calibrated(), pre_seeded_cache=False, prepopulate=prepopulate)
    build_system(config, "edge", config.seed, repetition=1).prepare()  # fills per-process caches
    system, built = counted(lambda: build_system(config, "edge", config.seed))
    if fresh:  # the change is not counted
        system.cloud.tree.create(ResourcePath("IN-CSE"), ResourceKind.CONTAINER, "elsewhere")
    _, prepared = counted(system.prepare)
    return built["calls"] + prepared["calls"], built["enum"] + prepared["enum"]


def create_counts(creates: int) -> dict:
    """What ``counted`` counts during ``creates`` edge creates on a prepared
    deployment with eager sync."""
    config = reference_calibrated()
    system = build_system(config, "edge", config.seed)
    system.prepare()
    return counted(lambda: system.run_workload("create", creates))[1]


def lazy_retrieve_counts(retrieves: int) -> dict:
    """What ``counted`` counts during ``retrieves`` lazy ``/la`` retrieves
    addressed to the cloud on a prepared campus deployment, and how many of
    them the cloud redirected to the edge."""
    config = load_scenario(CAMPUS)
    system = build_system(config, "edge", config.seed)
    system.prepare()
    counts = counted(lambda: system.run_workload("retrieve", retrieves, target=config.workload_target,
                                                 server=system.cloud_id))[1]
    counts["redirects"] = sum(b.stats.redirects_served for b in system.cloud.coordinator.bindings.values())
    return counts


def edge_retrieve_counts(retrieves: int) -> dict:
    """What ``counted`` counts during ``retrieves`` ``/la`` retrieves
    addressed to the edge of a prepared calibrated deployment."""
    config = reference_calibrated()
    system = build_system(config, "edge", config.seed)
    system.prepare()
    return counted(lambda: system.run_workload("retrieve", retrieves))[1]


@lru_cache(maxsize=None)
def counts_in_fresh_processes(*args: str) -> list:
    """What this file prints when run as a script with ``args``: counted in
    fresh processes, away from the test suite's wire check, under two string
    hash seeds at once, which must agree."""
    path = [str(REPO / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    runs = [
        subprocess.Popen(
            [sys.executable, __file__, *args],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join(path)),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in (0, 1)
    ]
    outputs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0] == outputs[1]
    return json.loads(outputs[0])


def test_a_cold_preparation_makes_a_fixed_number_of_calls_per_record():
    (base, base_enum), (full, full_enum), (fresh_base, fresh_enum), (fresh_full, fresh_full_enum) = (
        counts_in_fresh_processes())
    # plus one: ``graft_many`` attaches a run of more than one record by
    # ``_graft_run``
    assert full - base == CALLS_PER_RECORD * RECORDS + 1, (base, full)
    assert fresh_full - fresh_base == CALLS_PER_RECORD * RECORDS + 1, (fresh_base, fresh_full)
    # the fresh export's walk, and the lambda that calls it
    assert fresh_base - base == 2, (base, fresh_base)
    assert (base_enum, full_enum, fresh_enum, fresh_full_enum) == (0, 0, 0, 0)


def test_an_eager_edge_create_makes_a_fixed_number_of_calls():
    few, more = counts_in_fresh_processes("creates")
    extra = CREATES[1] - CREATES[0]
    assert more["calls"] - few["calls"] == CALLS_PER_CREATE * extra, (few["calls"], more["calls"])
    assert more["enum"] - few["enum"] == ENUM_CALLS_PER_CREATE * extra, (few["enum"], more["enum"])


def test_a_lazy_cloud_addressed_retrieve_makes_a_fixed_number_of_calls():
    few, more = counts_in_fresh_processes("retrieves")
    assert (few["redirects"], more["redirects"]) == RETRIEVES  # each went to the edge
    extra = RETRIEVES[1] - RETRIEVES[0]
    assert more["calls"] - few["calls"] == CALLS_PER_LAZY_RETRIEVE * extra, (few["calls"], more["calls"])
    assert (few["enum"], more["enum"]) == (0, 0)


def test_an_edge_retrieve_makes_a_fixed_number_of_calls():
    few, more = counts_in_fresh_processes("edge-retrieves")
    extra = RETRIEVES[1] - RETRIEVES[0]
    assert more["calls"] - few["calls"] == CALLS_PER_EDGE_RETRIEVE * extra, (few["calls"], more["calls"])
    assert (few["enum"], more["enum"]) == (0, 0)


def test_an_eager_edge_create_encodes_its_resource_once_and_decodes_none():
    few, more = counts_in_fresh_processes("creates")
    # one encode per create, for the device's reply
    assert (few["encode_resource"], more["encode_resource"]) == CREATES
    assert (few["decode_resource"], more["decode_resource"]) == (0, 0)


def test_an_eager_edge_create_builds_a_fixed_set_of_values():
    few, more = counts_in_fresh_processes("creates")
    extra = CREATES[1] - CREATES[0]
    per_create = {name: (more["built"].get(name, 0) - few["built"].get(name, 0)) / extra
                  for name in {*few["built"], *more["built"]}}
    assert per_create == VALUES_PER_CREATE
    frozen = {cls.__name__ for cls in VALUE_TYPES.values()
              if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen}
    assert frozen & more["built"].keys() <= FROZEN_DATACLASSES


def test_a_second_campus_set_up_parses_and_routes_nothing(monkeypatch):
    """A scenario text is parsed once per process, and the routes of its
    topology, which every config from it shares, are computed once."""
    config = load_scenario(CAMPUS)
    build_system(config, "edge", config.seed).prepare()
    parsed, routed = [], []
    load, dijkstra = yaml.load, Topology._dijkstra
    monkeypatch.setattr(yaml, "load", lambda text, Loader: parsed.append(text) or load(text, Loader))
    monkeypatch.setattr(Topology, "_dijkstra",
                        lambda self, src, dst: routed.append(src) or dijkstra(self, src, dst))
    config = load_scenario(CAMPUS)
    build_system(config, "edge", config.seed).prepare()
    assert (len(parsed), len(routed)) == (0, 0)


def test_calibrated_data_messages_have_a_fixed_size_at_the_wire_tap():
    system = build_system(reference_calibrated(), "edge", 42)
    system.prepare()
    operations, sizes = {}, {}

    def run():
        system.run_workload("create", 2)
        system.run_workload("retrieve", 2)

    for data in traffic(run):
        if is_response(data):
            kind = operations[decode_response(data).request_id] + " response"
        else:
            request = decode_request(data)
            kind = operations[request.request_id] = request.operation.name
        sizes.setdefault(kind, []).append(len(data))
    # the first create's times have longer reprs (1260.2040000000002 against
    # 1266.304), so its notify and its record are 20 bytes longer
    assert sizes == {
        "CREATE": [634, 634],
        "CREATE response": [685, 665],
        "NOTIFY": [753, 733],
        "NOTIFY response": [36, 36],
        "RETRIEVE": [73, 73],
        "RETRIEVE response": [665, 665],
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["creates"]:
        create_counts(CREATES[0])  # fills per-process caches, such as the path cache
        print(json.dumps([create_counts(CREATES[0]), create_counts(CREATES[1])], sort_keys=True))
    elif sys.argv[1:] == ["retrieves"]:
        lazy_retrieve_counts(RETRIEVES[0])  # fills per-process caches
        print(json.dumps([lazy_retrieve_counts(n) for n in RETRIEVES], sort_keys=True))
    elif sys.argv[1:] == ["edge-retrieves"]:
        edge_retrieve_counts(RETRIEVES[0])  # fills per-process caches
        print(json.dumps([edge_retrieve_counts(n) for n in RETRIEVES], sort_keys=True))
    else:
        print(json.dumps([calls(0), calls(RECORDS), calls(0, fresh=True), calls(RECORDS, fresh=True)]))
