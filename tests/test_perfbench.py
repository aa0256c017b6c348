"""The benchmark tracer still names functions that exist in volint.

``perfbench/trace.py`` wraps volint functions by module and name; a
refactor that renames or moves one would make a traced run fail or
misattribute its time. The tracer is loaded by file path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_layers_resolve_to_callables():
    trace = _load_trace()
    for module, names in trace.LAYERS.items():
        namespace = importlib.import_module(module)
        for name in names:
            assert callable(getattr(namespace, name, None)), f"{module}.{name}"


def test_trace_counts_are_layered():
    trace = _load_trace()
    layered = {name for names in trace.LAYERS.values() for name in names}
    assert set(trace.COUNTS) <= layered
