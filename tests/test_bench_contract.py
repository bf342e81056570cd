"""The benchmark's tracer must find every function it wraps.

`bench/tracing.py` looks each (module, name) of its TARGETS up with getattr
at install time, so a rename or deletion in the package would only surface
when `bench/run.py --trace 1` runs.  This loads the tracer by path, without
importing the rest of the benchmark, and checks every target here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(mod, name) for mod, name, _hook in _load_tracing().TARGETS]


@pytest.mark.parametrize("mod, name", _targets())
def test_trace_target_resolves(mod, name):
    module = importlib.import_module(f"spindiscord.{mod}")
    assert callable(getattr(module, name, None)), f"spindiscord.{mod}.{name}"


def test_traced_modules_import():
    for mod in _load_tracing().MODULES:
        importlib.import_module(f"spindiscord.{mod}")
