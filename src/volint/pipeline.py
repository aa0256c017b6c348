"""End-to-end analysis pipeline as one table of stage functions.

``STAGES`` lists the stages in run order: ingest -> volatility ->
intervals -> ks -> fit -> moments (moment curves, then order curves). A
stage reads what earlier stages left in a shared context dict, adds its
own results and its ``summary.json`` section, and returns its artifacts,
unwritten, as ``{file name: (header, rows)}`` or, for files that are not a
plain table, ``{file name: writer(path)}``.

``run_analyze`` runs every stage and writes every artifact; a stage
failure writes a summary naming the failed stage (partial artifacts stay
on disk, flagged) and re-raises. The two tables with one row per minute,
``minutes.csv`` and ``volatility.csv``, are written by forked writer
processes while the later stages run (in-process where ``os.fork`` is
missing); ``summary.json`` is written last, after every writer has
finished, and a failed writer fails the run under its stage's label.

The CLI subcommands run the stages they need with ``run_stages`` and
write the last stage's artifacts in-process, so each artifact is produced
by one piece of code. Reports contain no timestamps, so a rerun with the
same config and seed is byte-identical.
"""

from __future__ import annotations

import json
import os
import warnings
from bisect import insort
from dataclasses import asdict
from functools import partial
from operator import add
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO, Union

import numpy as np

from .config import RunConfig, derive_seed
from .errors import ConfigError, EmptySeriesError, StageError, VolintError
from .ingest import (
    MinuteSeries,
    TradingCalendar,
    parse_ticks,
    sample_minutely,
    tick_days,
    write_minute_csv,
)
from .intervals import IntervalSample, empirical_cdf, extract_intervals, scaled_pdf
from .kstest import bootstrap_pvalue, ks_matrix
from .moments import ess_xi, fit_alpha, moment_curve, moment_vs_order, sweep_intervals
from .semodel import FitReport, fit_lsq, fit_mle
from .volatility import (
    IntradayPattern,
    NormVolSeries,
    compute_volatility,
    deseasonalize,
    intraday_pattern,
    normalize,
)

# a CSV table (header, rows) or a writer taking the file path
Artifact = Union[tuple[Sequence[str], Iterable], Callable[[Path], None]]
Stage = Callable[[RunConfig, dict], dict[str, Artifact]]


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_rows(fh: TextIO, header: Sequence[str], rows) -> None:
    """Write a CSV table: floats as ``repr``, everything else as ``str``."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        write_rows(fh, header, rows)


def _write_volatility_csv(days: Sequence[str], v: NormVolSeries, path: Path) -> None:
    """Write a volatility series as ``day,slot,v`` rows, ``days[i]`` naming day i.

    Each row is a ``day,slot,`` head joined to ``repr(v)``, the bytes
    ``write_rows`` would write. The series is written a run of equal day
    labels at a time, each run as one string.
    """
    bounds = np.flatnonzero(np.diff(v.day)) + 1
    slot = [f",{s}," for s in range(int(v.slot.max()) + 1)]
    with open(path, "w", newline="") as fh:
        fh.write("day,slot,v\n")
        for a, b in zip([0, *bounds.tolist()], [*bounds.tolist(), len(v.day)]):
            d = days[v.day[a]]
            heads = [d + slot[s] for s in v.slot[a:b].tolist()]
            fh.write("\n".join(map(add, heads, map(repr, v.values[a:b].tolist()))) + "\n")


def _write_intervals_csv(samples: Sequence[IntervalSample], path: Path) -> None:
    """Write ``q,tau`` rows, the bytes ``write_rows`` would write, one string per threshold."""
    with open(path, "w", newline="") as fh:
        fh.write("q,tau\n")
        for s in samples:
            fh.write("\n".join(map((repr(float(s.q)) + ",").__add__, map(str, s.tau.tolist()))) + "\n")


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_artifact(path: Path, artifact: Artifact) -> None:
    """Write one stage artifact to ``path``."""
    if callable(artifact):
        artifact(path)
    else:
        _write_csv(path, *artifact)


# The two tables with one row per minute. Writing them is almost all
# repr(float), 45-50% of in-process run_analyze on a 140k-minute corpus and
# 20-31% on 35k- and 70k-minute ones (2 cores), so each is written by a forked
# child while the later stages run. Any other artifact costs more to fork
# than to write.
FORKED_ARTIFACTS = frozenset({"minutes.csv", "volatility.csv"})


class _Writer(NamedTuple):
    label: str  # stage that made the artifact
    pid: int
    fd: int  # read end of the pipe that carries the child's error text


def _start_writer(label: str, path: Path, artifact: Artifact) -> _Writer | None:
    """Write ``artifact`` to ``path`` from a forked child process.

    The child sends a failure's text back through a pipe and leaves by
    ``os._exit``: it never returns into the caller, runs no atexit hook and
    flushes none of the stdio buffers it inherited. Where ``os.fork`` is
    missing the artifact is written in-process and None is returned.
    """
    if not hasattr(os, "fork"):
        write_artifact(path, artifact)
        return None
    r, w = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns when forking beside live threads (numpy's BLAS
        # pool); the child calls no BLAS and only writes one file.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            write_artifact(path, artifact)
            code = 0
        except Exception as e:
            os.write(w, str(e).encode(errors="replace"))
        finally:
            os._exit(code)
    os.close(w)
    return _Writer(label, pid, r)


def _reap(writers: list[_Writer]) -> tuple[str, OSError] | None:
    """Wait for every writer; return the first failed one's stage and error."""
    failure = None
    for label, pid, fd in writers:
        with open(fd, "rb") as pipe:
            message = pipe.read().decode(errors="replace")
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if failure is None and (status or message):
            failure = label, OSError(message or f"writer process exited with code {status}")
    return failure


def _table(header: Sequence[str], records: list[dict]) -> tuple[Sequence[str], Iterable]:
    """A table whose columns are the ``header`` keys of summary records."""
    return header, ([r[k] for k in header] for r in records)


def load_minutes(cfg: RunConfig) -> tuple[MinuteSeries, dict]:
    """Parse the input ticks and align them to the calendar's minute marks."""
    if not cfg.input:
        raise ConfigError("input is required for analysis")
    ticks, skipped = parse_ticks(cfg.input)
    if cfg.calendar:
        cal = TradingCalendar.from_json(cfg.calendar)
    else:
        if not ticks:
            raise EmptySeriesError("no tick records in input")
        cal = TradingCalendar.for_days(tick_days(ticks))
    ms = sample_minutely(ticks, cal)
    meta = {
        "n_ticks": len(ticks),
        "n_skipped_lines": skipped,
        "n_days": len(ms.days),
        "n_present_minutes": ms.n_present,
    }
    return ms, meta


def build_volatility(ms: MinuteSeries) -> tuple[NormVolSeries, IntradayPattern, float]:
    """Raw volatility -> intraday pattern -> deseasonalize -> normalize."""
    raw = compute_volatility(ms)
    pattern = intraday_pattern(raw)
    flat = deseasonalize(raw, pattern)
    del raw
    sd = float(np.std(flat.values))
    return normalize(flat), pattern, sd


def load_normalized(cfg: RunConfig) -> tuple[NormVolSeries, IntradayPattern, float, MinuteSeries, dict]:
    """Convenience composition of ``load_minutes`` and ``build_volatility``."""
    ms, meta = load_minutes(cfg)
    v, pattern, sd = build_volatility(ms)
    return v, pattern, sd, ms, meta


def fit_threshold(cfg: RunConfig, sample: IntervalSample) -> FitReport:
    """Fit one threshold's scaled intervals and take its KS p-value.

    ``bootstrap_pvalue`` gets the lattice view ``sample.scaled()`` and gives
    p from the exact Kolmogorov law, or, when ``cfg.refit`` is set, from a
    bootstrap of ``cfg.n_boot`` interval-count replicates, each refitted by
    the censored likelihood; the replicates' seed is derived from the run
    seed and q. ``validate_config`` admits ``refit`` only with ``lattice``
    and the ``mle`` fit mode, the fit the replicates get.
    """
    scaled = sample.scaled()
    if cfg.fit_mode == "lsq":
        model = fit_lsq(scaled_pdf(sample, cfg.bins_per_decade))
    else:
        model = fit_mle(scaled if cfg.lattice else np.asarray(scaled))
    seed = derive_seed(cfg.seed, f"fit:q={sample.q:g}")
    return bootstrap_pvalue(scaled, model, n_boot=cfg.n_boot, seed=seed, refit=cfg.refit, mode=cfg.fit_mode)


def stage_ingest(cfg: RunConfig, ctx: dict) -> dict[str, Artifact]:
    ms, meta = load_minutes(cfg)
    ctx["minutes"] = ms
    ctx["summary"]["ingest"] = meta
    return {"minutes.csv": partial(write_minute_csv, ms)}


def stage_volatility(cfg: RunConfig, ctx: dict) -> dict[str, Artifact]:
    ms = ctx["minutes"]
    v, pattern, sd = build_volatility(ms)
    ctx["series"] = v
    ctx["summary"]["volatility"] = {"n_points": len(v), "sd_deseasonalized": sd}
    return {
        "volatility.csv": partial(_write_volatility_csv, [d.isoformat() for d in ms.days], v),
        "pattern.csv": (
            ["slot", "value", "count"],
            zip(pattern.slots.tolist(), pattern.values.tolist(), pattern.counts.tolist()),
        ),
    }


def stage_intervals(cfg: RunConfig, ctx: dict) -> dict[str, Artifact]:
    samples = [extract_intervals(ctx["series"], q) for q in cfg.thresholds]
    ctx["samples"] = samples
    ctx["summary"]["thresholds"] = [
        {"q": s.q, "n_intervals": len(s), "mean_interval": s.mean_interval} for s in samples
    ]
    return {
        "intervals.csv": partial(_write_intervals_csv, samples),
        "pdf.csv": (
            ["q", "x", "density", "count"],
            (
                (s.q, float(x), float(d), int(c))
                for s in samples
                for x, d, c in zip(*_pdf_cols(s, cfg.bins_per_decade))
            ),
        ),
        "cdf.csv": (
            ["q", "x", "F"],
            ((s.q, float(x), float(f)) for s in samples for x, f in zip(*_cdf_cols(s))),
        ),
    }


def stage_ks(cfg: RunConfig, ctx: dict) -> dict[str, Artifact]:
    matrix = ks_matrix(ctx["samples"], lattice=cfg.lattice)
    pairs = matrix.to_rows()
    ctx["summary"]["ks"] = {"verdict": matrix.verdict, "pairs": pairs}
    return {"ks_matrix.csv": _table(["q_i", "q_j", "ks", "cv", "m", "n", "decision"], pairs)}


def stage_fit(cfg: RunConfig, ctx: dict) -> dict[str, Artifact]:
    fits = ctx["summary"]["fits"] = [fit_threshold(cfg, s).to_dict() for s in ctx["samples"]]
    return {
        "fits.csv": _table(["q", "mode", "c", "a", "gamma", "n", "ks", "p", "n_boot", "seed"], fits),
        "fits.json": partial(_write_json, fits),
    }


def stage_moments(cfg: RunConfig, ctx: dict) -> dict[str, Artifact]:
    sweep = sweep_intervals(ctx["series"], cfg.q_grid)
    curves = [moment_curve(sweep, m) for m in cfg.moment_orders]
    alphas = [fit_alpha(c, region=cfg.region) for c in curves]
    esses = [ess_xi(sweep, m, 1.0, region=cfg.region) for m in cfg.moment_orders]
    summary = ctx["summary"]
    summary["alpha"] = [
        {"m": c.m, "alpha": a.alpha, "stderr": a.stderr, "n_points": a.n_points}
        for c, a in zip(curves, alphas)
    ]
    ess_columns = ["m", "n", "xi", "stderr", "alpha", "identity_gap", "n_points"]
    summary["ess"] = [{k: getattr(e, k) for k in ess_columns} for e in esses]
    return {
        "moments.csv": (
            ["m", "q", "mean_tau", "mu", "n_intervals"],
            (
                (c.m, float(q), float(mt), float(mu), int(k))
                for c in curves
                for q, mt, mu, k in zip(c.q, c.mean_tau, c.mu, c.n_intervals)
            ),
        ),
        "alpha.csv": _table(["m", "alpha", "stderr", "n_points"], summary["alpha"]),
        "ess.csv": _table(ess_columns, summary["ess"]),
    }


def stage_order_curves(cfg: RunConfig, ctx: dict) -> dict[str, Artifact]:
    order_curves = moment_vs_order(
        ctx["series"],
        cfg.mean_targets,
        cfg.order_grid,
        lattice=cfg.lattice,
    )
    ctx["summary"]["order_curves"] = [
        {"target_mean": oc.target_mean, "q": oc.q, "achieved_mean": oc.achieved_mean}
        for oc in order_curves
    ]
    return {
        "order_curves.csv": (
            ["target_mean", "q", "achieved_mean", "m", "mu", "mu_model"],
            (
                (oc.target_mean, oc.q, oc.achieved_mean, float(m), float(mu), float(mm))
                for oc in order_curves
                for m, mu, mm in zip(oc.m, oc.mu, oc.mu_model)
            ),
        ),
    }


# (label recorded as ``failed_stage``, stage function), in run order
STAGES: tuple[tuple[str, Stage], ...] = (
    ("ingest", stage_ingest),
    ("volatility", stage_volatility),
    ("intervals", stage_intervals),
    ("ks", stage_ks),
    ("fit", stage_fit),
    ("moments", stage_moments),
    ("moments", stage_order_curves),
)


def _check_config(cfg: RunConfig, stages: Sequence[Stage]) -> None:
    """Reject a config the stages cannot run on, before any input is read or output made."""
    if stage_ingest in stages and not cfg.input:
        raise ConfigError("input is required for analysis")
    if stage_ks in stages and len(cfg.thresholds) < 2:
        raise ConfigError("thresholds must hold at least two values for the KS matrix")


def run_stages(cfg: RunConfig, stages: Sequence[Stage]) -> tuple[dict, dict[str, Artifact]]:
    """Run ``stages`` in order on one context; errors propagate unwrapped.

    Returns the summary sections the stages built and the last stage's
    artifacts, unwritten.
    """
    _check_config(cfg, stages)
    ctx: dict = {"summary": {}}
    for stage in stages:
        artifacts = stage(cfg, ctx)
    return ctx["summary"], artifacts


def run_analyze(cfg: RunConfig) -> dict:
    """Run every stage and write all artifacts plus ``summary.json``.

    Returns the summary dict. On a stage failure the summary names the
    failed stage and the partial artifact list before the error propagates
    as ``StageError``. The ``FORKED_ARTIFACTS`` writers are reaped before
    ``summary.json`` is written, on success and on failure alike; one that
    failed is reported as its stage's failure, with an ``OSError`` carrying
    the child's message.
    """
    _check_config(cfg, [stage for _, stage in STAGES])
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {
        "schema_version": 1,
        "config": asdict(cfg),
        "failed_stage": None,
        "artifacts": [],
    }
    ctx = {"summary": summary}
    writers: list[_Writer] = []
    failure = None
    try:
        for label, stage in STAGES:
            try:
                for name, artifact in stage(cfg, ctx).items():
                    insort(summary["artifacts"], name)
                    if name not in FORKED_ARTIFACTS:
                        write_artifact(out / name, artifact)
                    elif writer := _start_writer(label, out / name, artifact):
                        writers.append(writer)
            except ConfigError:
                raise
            except (VolintError, ValueError, OSError) as e:
                failure = label, e
                break
    finally:
        # a failed writer's stage ran before any stage that failed since
        failure = _reap(writers) or failure
    if failure:
        label, e = failure
        summary["failed_stage"] = label
        summary["error"] = str(e)
        _write_json(summary, out / "summary.json")
        raise StageError(label, e) from e
    _write_json(summary, out / "summary.json")
    return summary


def _pdf_cols(sample: IntervalSample, bins_per_decade: int):
    table = scaled_pdf(sample, bins_per_decade)
    return table.center, table.density, table.count


def _cdf_cols(sample: IntervalSample):
    table = empirical_cdf(sample)
    return table.x, table.F
