"""Work counter: Python-level calls into edgeslice code per cold preparation.

Host time on a shared machine moves by tens of percent between runs; a count
of calls does not move at all. ``calls`` counts, with ``sys.setprofile``, the
calls of Python functions whose module is in the ``edgeslice`` package
(generated dataclass methods included) during one ``build_system`` +
``prepare()`` with a cold image cache. The difference between ``prepopulate``
200 and 0 is the work of the 200 extra content instances that the
preparation exports, ships and imports, and it is pinned per instance: a
helper called once per record shows up as a failing count. The same run
counts the calls into the standard ``enum`` module, which must be none: an
enum member's ``.name`` or ``.value`` is a Python-level call, where a table
keyed by member is a dict read.

The counts are taken in fresh processes, since the test suite's wire check
adds an encode and a decode to every message. Run as a script, this prints
them.
"""
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from edgeslice.bench import build_system
from edgeslice.scenario import reference_calibrated

REPO = Path(__file__).resolve().parent.parent
RECORDS = 200

#: calls per extra content instance: graft_many builds its ``Resource``
CALLS_PER_RECORD = 1


def calls(prepopulate: int) -> tuple[int, int]:
    """Calls into edgeslice code, and into ``enum``, during one cold preparation."""
    config = replace(reference_calibrated(), pre_seeded_cache=False, prepopulate=prepopulate)
    build_system(config, "edge", config.seed, repetition=1).prepare()  # fills per-process caches
    count = enum_calls = 0

    def profile(frame, event, arg) -> None:
        nonlocal count, enum_calls
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("edgeslice."):
                count += 1
            elif module == "enum":
                enum_calls += 1

    sys.setprofile(profile)
    try:
        build_system(config, "edge", config.seed).prepare()
    finally:
        sys.setprofile(None)
    return count, enum_calls


def test_a_cold_preparation_makes_a_fixed_number_of_calls_per_record():
    # counted in fresh processes, away from the test suite's wire check, under
    # two string hash seeds at once
    path = [str(REPO / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    runs = [
        subprocess.Popen(
            [sys.executable, __file__],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join(path)),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in (0, 1)
    ]
    outputs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0] == outputs[1]
    base, base_enum, full, full_enum = map(int, outputs[0].split())
    # plus one: ``create_sync_subscriptions`` filters a container's children
    # only once it has some
    assert full - base == CALLS_PER_RECORD * RECORDS + 1, (base, full)
    assert (base_enum, full_enum) == (0, 0)


if __name__ == "__main__":
    print(*calls(0), *calls(RECORDS))
