"""The benchmark still names functions and config keys that exist in volint.

``perfbench/trace.py`` wraps volint functions by module and name; a
refactor that renames or moves one would make a traced run fail or
misattribute its time. ``perfbench/workloads.json`` holds the workload
configs; a refactor that removes or renames a key they set would make
every benchmark run exit 2. Both files are only read.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from volint import ConfigError, validate_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACE = PERFBENCH / "trace.py"


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


def test_workload_configs_are_valid():
    workloads = json.loads((PERFBENCH / "workloads.json").read_text())
    assert workloads
    for name, spec in workloads.items():
        try:
            validate_config(dict(spec["config"], input="ticks.csv", out_dir="out"))
        except ConfigError as e:
            pytest.fail(f"{name}: {e}")
