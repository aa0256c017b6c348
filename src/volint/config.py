"""Run configuration: defaults, validation, and sub-seed derivation."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

import numpy as np

from .errors import ConfigError

# CPython's own SHA-256, as random.py takes its sha512: hashlib would map
# OpenSSL's libcrypto, 3.6 MB resident, for one digest per fit
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

FIT_MODES = ("mle", "lsq")


@dataclass(frozen=True)
class RunConfig:
    """Everything a full analysis run needs.

    ``thresholds`` drive interval extraction, the KS matrix, and the fits;
    ``q_min``/``q_max``/``q_step`` define the sweep grid for the moment
    diagnostics; ``region`` is the <tau> window used for slope fits. Seeds
    for stochastic stages are derived from ``seed`` with ``derive_seed``.
    ``lattice`` makes the KS matrix and the MLE fits treat intervals as
    whole minutes (dequantised KS, interval-censored likelihood); false
    gives the paper's plain continuous statistics.
    """

    input: str | None = None
    calendar: str | None = None
    out_dir: str = "out"
    thresholds: tuple[float, ...] = (2.0, 3.0, 4.0, 5.0)
    q_min: float = 1.0
    q_max: float = 5.0
    q_step: float = 0.1
    bins_per_decade: int = 20
    region: tuple[float, float] = (10.0, 100.0)
    moment_orders: tuple[float, ...] = (0.25, 0.5, 1.5, 2.0)
    mean_targets: tuple[float, ...] = (10.0, 30.0, 100.0)
    order_grid: tuple[float, ...] = tuple(np.arange(0.25, 3.0 + 1e-9, 0.25).tolist())
    n_boot: int = 1000
    seed: int = 0
    fit_mode: str = "mle"
    refit: bool = False
    lattice: bool = True

    @property
    def q_grid(self) -> np.ndarray:
        return np.arange(self.q_min, self.q_max + self.q_step / 2, self.q_step)


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_number_tuple(name: str, value: Any, problems: list[str], minimum: float) -> tuple:
    if not isinstance(value, (list, tuple)) or not value or not all(_is_number(v) for v in value):
        problems.append(f"{name} must be a non-empty list of numbers")
        return ()
    out = tuple(float(v) for v in value)
    if any(v < minimum for v in out):
        problems.append(f"{name} entries must be >= {minimum:g}")
    return out


def validate_config(raw: Mapping[str, Any] | None) -> RunConfig:
    """Fill defaults and validate; raises ``ConfigError`` listing every problem."""
    raw = dict(raw or {})
    problems: list[str] = []
    known = {f.name for f in fields(RunConfig)}
    for key in sorted(set(raw) - known):
        problems.append(f"unknown key: {key}")
    values: dict[str, Any] = {k: v for k, v in raw.items() if k in known}

    for key in ("input", "calendar"):
        if key in values and values[key] is not None and not isinstance(values[key], str):
            problems.append(f"{key} must be a string path")
            values.pop(key)
    if "out_dir" in values and not isinstance(values["out_dir"], str):
        problems.append("out_dir must be a string path")
        values.pop("out_dir")

    if "thresholds" in values:
        t = _check_number_tuple("thresholds", values["thresholds"], problems, minimum=0.0)
        if t:
            if any(v <= 0 for v in t):
                problems.append("thresholds must be positive")
            if len(set(t)) != len(t):
                problems.append("thresholds must be distinct")
            values["thresholds"] = tuple(sorted(t))

    for key, low in (("q_min", 0.0), ("q_step", 0.0)):
        if key in values:
            if not _is_number(values[key]) or values[key] <= low:
                problems.append(f"{key} must be a number > {low:g}")
                values.pop(key)
            else:
                values[key] = float(values[key])
    if "q_max" in values:
        if not _is_number(values["q_max"]):
            problems.append("q_max must be a number")
            values.pop("q_max")
        else:
            values["q_max"] = float(values["q_max"])
    q_min = values.get("q_min", RunConfig.q_min)
    q_max = values.get("q_max", RunConfig.q_max)
    if q_max < q_min:
        problems.append("q_max must be >= q_min")

    for key, minimum in (("bins_per_decade", 1), ("n_boot", 100), ("seed", 0)):
        if key in values:
            v = values[key]
            if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
                problems.append(f"{key} must be an integer >= {minimum}")
                values.pop(key)

    if "region" in values:
        r = _check_number_tuple("region", values["region"], problems, minimum=0.0)
        if len(r) == 2:
            if not 0 < r[0] < r[1]:
                problems.append("region must satisfy 0 < low < high")
            values["region"] = r
        elif r:
            problems.append("region must have exactly two entries")
            values.pop("region")

    if "moment_orders" in values:
        values["moment_orders"] = _check_number_tuple(
            "moment_orders", values["moment_orders"], problems, minimum=1e-12
        )
    if "order_grid" in values:
        values["order_grid"] = _check_number_tuple(
            "order_grid", values["order_grid"], problems, minimum=1e-12
        )
    if "mean_targets" in values:
        values["mean_targets"] = _check_number_tuple(
            "mean_targets", values["mean_targets"], problems, minimum=1.0
        )

    if "fit_mode" in values and values["fit_mode"] not in FIT_MODES:
        problems.append(f"fit_mode must be one of {FIT_MODES}")
        values.pop("fit_mode")
    for key in ("refit", "lattice"):
        if key in values and not isinstance(values[key], bool):
            problems.append(f"{key} must be true or false")
            values.pop(key)
    # the refit bootstrap draws interval counts and refits each by the
    # censored MLE, so its p is calibrated only for that fit of that data
    if values.get("refit"):
        if not values.get("lattice", RunConfig.lattice):
            problems.append("refit: true needs lattice: true; the refit bootstrap draws interval counts")
        if values.get("fit_mode") == "lsq":
            problems.append(
                'refit: true needs fit_mode: "mle"; every replicate is refitted by the censored MLE, '
                "so an lsq fit's p is not calibrated (ROADMAP item 3 would lift this)"
            )

    if problems:
        raise ConfigError(problems)
    return RunConfig(**values)


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for a labeled stochastic stage.

    Hash-based (SHA-256 of ``"seed:label"``), so it does not depend on
    platform, process, or evaluation order.
    """
    digest = sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
