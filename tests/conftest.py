"""Shared fixtures for the volint test suite."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from volint import SynthSpec, gen_iid_volatility, generate_minute_csv


@pytest.fixture(scope="session")
def iid_series():
    """A medium-sized normalized volatility series, reused across modules."""
    return gen_iid_volatility(60_000, seed=11)


@pytest.fixture(scope="session")
def corpus_csv(tmp_path_factory):
    """A synthetic minute-price CSV shared by the pipeline and CLI tests."""
    path = tmp_path_factory.mktemp("corpus") / "ticks.csv"
    generate_minute_csv(SynthSpec(kind="iid_gaussian_abs", n=20_000, seed=3), path)
    return path


@pytest.fixture(scope="session")
def corpus_cfg(corpus_csv):
    """Config-dict builder tuned so every stage succeeds on the small corpus."""

    def make(out_dir, **overrides):
        cfg = {
            "input": str(corpus_csv),
            "out_dir": str(out_dir),
            "thresholds": [1.5, 2.0],
            "q_min": 1.0,
            "q_max": 3.0,
            "q_step": 0.1,
            "region": [3.0, 30.0],
            "moment_orders": [0.5, 2.0],
            "mean_targets": [5.0, 10.0],
            "order_grid": [0.5, 1.0, 2.0],
            "n_boot": 100,
            "seed": 7,
        }
        cfg.update(overrides)
        return cfg

    return make


@pytest.fixture(scope="session")
def blas_envs():
    """Child-process environments with one BLAS thread, then BLAS's default count.

    Both import this checkout's ``src``.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    default = {k: v for k, v in os.environ.items() if k not in names}
    default["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    return [{**default, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, default]


@pytest.fixture(scope="session")
def peak_mib():
    """``peak_mib(fn, *args, **kwargs)``: the tracemalloc peak of one call, in MiB."""

    def peak(fn, *args, **kwargs) -> float:
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def tick_csv(tmp_path):
    """Factory writing a tick CSV and returning its path."""

    def make(rows, name="ticks.csv", header="timestamp,price"):
        path = tmp_path / name
        body = "\n".join(rows)
        path.write_text(header + "\n" + body + ("\n" if body else ""))
        return path

    return make
