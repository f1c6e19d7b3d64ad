"""What perfbench copies from the package by hand still matches it. Every
name ``perfbench/tracer.py`` patches is where ``Tracer.install`` looks it up:
a method in its class's own ``__dict__``, a function in a package module
under its own name. ``perfbench/workloads.py:EVENT_CAP`` is the simulator's
default event cap. A rename or a changed constant in the package then fails
here, not only in a benchmark run. The perfbench files are only read."""
import importlib.util
import sys
from pathlib import Path

import pytest

from edgeslice import netsim

REPO = Path(__file__).resolve().parent.parent


def _load_perfbench(name: str):
    path = REPO / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


TRACER = _load_perfbench("tracer")


@pytest.mark.parametrize(
    "owner, attribute",
    [(owner, attribute) for owner, attribute, _, _ in TRACER.INSTRUMENTED],
    ids=[f"{owner.__name__}.{attribute}" for owner, attribute, _, _ in TRACER.INSTRUMENTED],
)
def test_instrumented_name_resolves_as_install_looks_it_up(owner, attribute):
    if isinstance(owner, type):
        assert attribute in owner.__dict__, f"{owner.__name__} does not define {attribute!r} itself"
        raw = owner.__dict__[attribute]
        assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)
        return
    original = getattr(owner, attribute)
    assert callable(original)
    assert any(
        module.__dict__.get(attribute) is original for module in TRACER._package_modules()
    ), f"no edgeslice module holds {owner.__name__}.{attribute} under that name"


def test_the_benchmark_event_cap_is_the_simulator_default():
    # the benchmark refuses a workload whose rounds would come near this cap
    assert _load_perfbench("workloads").EVENT_CAP == netsim.DEFAULT_MAX_EVENTS
