"""Work counter: Python-level calls into edgeslice code per cold preparation and per create.

Host time on a shared machine moves by tens of percent between runs; a count
of calls does not move at all. ``calls`` counts, with ``sys.setprofile``, the
calls of Python functions whose module is in the ``edgeslice`` package
(generated dataclass methods included) during one ``build_system`` +
``prepare()`` with a cold image cache. The difference between ``prepopulate``
200 and 0 is the work of the 200 extra content instances that the
preparation exports, ships and imports, and it is pinned per instance: a
helper called once per record shows up as a failing count. A deployment's
cloud tree is an unchanged copy of a template, whose export the template
keeps, so a second count is taken of a preparation whose cloud tree gained
a container outside the task before it: that one exports afresh, and a
helper in the export's walk shows up there. The same runs count the calls
into the standard ``enum`` module, which must be none: an enum member's
``.name`` or ``.value`` is a Python-level call, where a table keyed by
member is a dict read.

The same is counted per eager edge create: ``run_workload("create", n)`` on a
prepared deployment at two values of ``n``, the difference pinned per
create. A create's mirror replay is one ``graft`` on the cloud tree, so a
replay that goes through ``graft_many``'s batch machinery again shows as a
changed count. The resource codec is counted on its own: the notification
and its replay travel between the edge and the cloud as objects, so the one
``encode_resource`` call of a create is the device's reply, and no
``decode_resource`` call is made.

The counts are taken in fresh processes, since the test suite's wire check
adds an encode and a decode to every message. Run as a script, this prints
them, or with the argument ``creates`` the counts of creates.

The bytes at the wire tap are counted too: the length of each message of two
edge creates and two ``/la`` retrieves of the calibrated scenario, so that
content escaped twice, or travelling as base64 of its own text, shows as a
failing size.
"""
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from edgeslice.bench import build_system
from edgeslice.primitives import decode_request, decode_response, is_response
from edgeslice.resources import ResourceKind, ResourcePath
from edgeslice.scenario import reference_calibrated
from wire_samples import traffic

REPO = Path(__file__).resolve().parent.parent
RECORDS = 200

#: calls per extra content instance: graft_many builds its ``Resource``
CALLS_PER_RECORD = 1

#: calls per eager edge create, from the device's request to the reply to
#: the edge's notify, and calls into ``enum`` besides, which tables of
#: members by number and of names by member keep at none. At the default
#: trace level a create's four messages and its dispatch make no
#: ``Simulator.log`` or ``EdgeWorker._log`` call. The event heap holds
#: ``(fire_at, seq, action)`` tuples, with no event object to build. The
#: request stream is one simulator process, and so is each run of queued
#: notifies, with no closure made per request or per notify; a generator's
#: resume counts as a call under ``sys.setprofile`` (208 with closures and
#: event objects)
CALLS_PER_CREATE = 201
ENUM_CALLS_PER_CREATE = 0
CREATES = (5, 10)


#: the resource codec's functions, by module, whose calls are counted apart
RESOURCE_CODEC = (("edgeslice.codec", "encode_resource"), ("edgeslice.primitives", "decode_resource"))


def counted(run: Callable[[], object]) -> tuple[object, int, int, int, int]:
    """``run()``, the calls it made into edgeslice code and into ``enum``,
    and among the first, those of each ``RESOURCE_CODEC`` function."""
    count = enum_calls = 0
    codec_calls = dict.fromkeys(RESOURCE_CODEC, 0)

    def profile(frame, event, arg) -> None:
        nonlocal count, enum_calls
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("edgeslice."):
                count += 1
                key = (module, frame.f_code.co_name)
                if key in codec_calls:
                    codec_calls[key] += 1
            elif module == "enum":
                enum_calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, count, enum_calls, *codec_calls.values()


def calls(prepopulate: int, fresh: bool = False) -> tuple[int, int]:
    """Calls into edgeslice code, and into ``enum``, during one cold
    preparation; with ``fresh``, one whose cloud tree has changed since it
    was copied, so that its export is built afresh."""
    config = replace(reference_calibrated(), pre_seeded_cache=False, prepopulate=prepopulate)
    build_system(config, "edge", config.seed, repetition=1).prepare()  # fills per-process caches
    system, built, built_enum, *_ = counted(lambda: build_system(config, "edge", config.seed))
    if fresh:  # the change is not counted
        system.cloud.tree.create(ResourcePath("IN-CSE"), ResourceKind.CONTAINER, "elsewhere")
    _, prepared, prepared_enum, *_ = counted(system.prepare)
    return built + prepared, built_enum + prepared_enum


def create_calls(creates: int) -> tuple[int, int, int, int]:
    """Calls into edgeslice code, into ``enum``, and of ``encode_resource``
    and ``decode_resource``, during ``creates`` edge creates on a prepared
    deployment with eager sync."""
    config = reference_calibrated()
    system = build_system(config, "edge", config.seed)
    system.prepare()
    return counted(lambda: system.run_workload("create", creates))[1:]


def counts_in_fresh_processes(*args: str) -> list[int]:
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
    return list(map(int, outputs[0].split()))


def test_a_cold_preparation_makes_a_fixed_number_of_calls_per_record():
    base, base_enum, full, full_enum, fresh_base, fresh_enum, fresh_full, fresh_full_enum = (
        counts_in_fresh_processes())
    # plus two: ``create_sync_subscriptions`` filters a container's children
    # only once it has some, and ``graft_many`` attaches a run of more than
    # one record by ``_graft_run``
    assert full - base == CALLS_PER_RECORD * RECORDS + 2, (base, full)
    assert fresh_full - fresh_base == CALLS_PER_RECORD * RECORDS + 2, (fresh_base, fresh_full)
    # the fresh export's walk, and the lambda that calls it
    assert fresh_base - base == 2, (base, fresh_base)
    assert (base_enum, full_enum, fresh_enum, fresh_full_enum) == (0, 0, 0, 0)


def test_an_eager_edge_create_makes_a_fixed_number_of_calls():
    few, few_enum, _, _, more, more_enum, _, _ = counts_in_fresh_processes("creates")
    extra = CREATES[1] - CREATES[0]
    assert more - few == CALLS_PER_CREATE * extra, (few, more)
    assert more_enum - few_enum == ENUM_CALLS_PER_CREATE * extra, (few_enum, more_enum)


def test_an_eager_edge_create_encodes_its_resource_once_and_decodes_none():
    _, _, few_encode, few_decode, _, _, more_encode, more_decode = counts_in_fresh_processes("creates")
    # one encode per create, for the device's reply
    assert (few_encode, more_encode) == CREATES
    assert (few_decode, more_decode) == (0, 0)


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
        print(*create_calls(CREATES[0]), *create_calls(CREATES[1]))
    else:
        print(*calls(0), *calls(RECORDS), *calls(0, fresh=True), *calls(RECORDS, fresh=True))
