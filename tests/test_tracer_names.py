"""Every name ``perfbench/tracer.py`` patches is where ``Tracer.install``
looks it up: a method in its class's own ``__dict__``, a function in a
package module under its own name. A rename in the package then fails here,
not only in a traced benchmark run. The tracer's list is only read."""
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_tracer():
    path = REPO / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


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
