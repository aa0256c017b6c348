"""Traced in-process `volint analyze`, timed from outside the program.

Usage (from the directory holding the config, with volint importable):

    python trace.py CONFIG.json SPANS.json

Wraps volint's public functions under the names their callers look them up
by, runs `volint.cli.main(["analyze", "--config", CONFIG.json])`, and writes
every span plus the per-layer metrics to SPANS.json. A span's self time is
its duration minus the time its traced children cover; each layer metric
sums the self time of the functions mapped to it, so the layer times add up
to the traced `run_analyze` wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np
import volint.cli

# module whose namespace the caller reads -> {function name: layer metric}
LAYERS = {
    "volint.cli": {"run_analyze": "pipeline.write_s"},
    "volint.pipeline": {
        "load_minutes": "pipeline.write_s",
        "build_volatility": "pipeline.write_s",
        "fit_threshold": "pipeline.write_s",
        "parse_ticks": "ingest.parse_s",
        "tick_days": "ingest.align_s",
        "sample_minutely": "ingest.align_s",
        "write_minute_csv": "ingest.write_s",
        "compute_volatility": "volatility.s",
        "intraday_pattern": "volatility.s",
        "deseasonalize": "volatility.s",
        "normalize": "volatility.s",
        "extract_intervals": "intervals.extract_s",
        "scaled_pdf": "intervals.tables_s",
        "empirical_cdf": "intervals.tables_s",
        "ks_matrix": "kstest.matrix_s",
        "bootstrap_pvalue": "kstest.bootstrap_self_s",
        "fit_mle": "semodel.fit_s",
        "fit_lsq": "semodel.fit_s",
        "moment_curve": "moments.sweep_s",
        "ess_xi": "moments.sweep_s",
        "fit_alpha": "moments.sweep_s",
        "moment_vs_order": "moments.order_s",
    },
    "volint.kstest": {
        "se_cdf": "semodel.cdf_s",
        "se_sample": "semodel.sample_s",
        "fit_mle": "semodel.fit_s",
    },
    "volint.moments": {
        "extract_intervals": "intervals.extract_s",
        "threshold_for_mean": "moments.order_s",
        "fit_mle": "semodel.fit_s",
    },
    "volint.intervals": {"extract_intervals": "intervals.extract_s"},
}

TIME_METRICS = sorted({m for names in LAYERS.values() for m in names.values()})


# function name -> (count metric, work of one call from its bound arguments
# and result; None counts calls)
COUNTS = {
    "parse_ticks": ("ingest.rows", lambda call, result: len(result.records)),
    "extract_intervals": ("intervals.extract_calls", None),
    "bootstrap_pvalue": ("kstest.replicates", lambda call, result: call.arguments["n_boot"]),
    "se_cdf": ("kstest.cdf_points", lambda call, result: int(np.size(call.arguments["x"]))),
    "fit_mle": ("semodel.fit_calls", None),
    "fit_lsq": ("semodel.fit_calls", None),
}


class Tracer:
    """Records nested spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, module: str, name: str, fn):
        spans, stack = self.spans, self._stack
        size = COUNTS.get(name, (None, None))[1]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": f"{module}.{name}", "parent": stack[-1] if stack else None, "size": 1}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if size is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                span["size"] = size(call, result)
            return result

        return traced

    def install(self) -> None:
        for module, names in LAYERS.items():
            mod = importlib.import_module(module)
            for name in names:
                original = getattr(mod, name)
                self._saved.append((mod, name, original))
                setattr(mod, name, self._wrap(module, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Sum self times into layer metrics and count the calls and sizes."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        out.update((metric, 0) for metric, _ in COUNTS.values())
        for s, below in zip(self.spans, child_time):
            module, _, name = s["name"].rpartition(".")
            out[LAYERS[module][name]] += s["end"] - s["start"] - below
            if name in COUNTS:
                out[COUNTS[name][0]] += s["size"]
        parse_s = out["ingest.parse_s"]
        out["ingest.rows_per_s"] = out["ingest.rows"] / parse_s if parse_s else 0.0
        roots = [s for s in self.spans if s["parent"] is None]
        out["trace.run_analyze_s"] = sum(s["end"] - s["start"] for s in roots)
        return out


def main(argv: list[str]) -> int:
    config, spans_path = argv
    tracer = Tracer()
    tracer.install()
    try:
        code = volint.cli.main(["analyze", "--config", config])
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"exit_code": code, "metrics": tracer.layer_metrics(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
