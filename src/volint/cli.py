"""Command-line interface.

Exit codes: 0 success, 2 configuration or usage error, 3 data error,
4 statistical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .config import RunConfig, validate_config
from .errors import ConfigError, DataError, StageError, VolintError
from .pipeline import (
    run_analyze,
    run_stages,
    stage_fit,
    stage_ingest,
    stage_intervals,
    stage_ks,
    stage_moments,
    stage_volatility,
    write_artifact,
    write_rows,
)
from .synth import SynthSpec, generate_minute_csv

_SERIES = (stage_ingest, stage_volatility)
_INTERVALS = (*_SERIES, stage_intervals)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _config(args, raw: dict | None = None) -> RunConfig:
    """Validate ``raw`` with every given flag overriding it.

    Flags store under their config key (``dest``), and an absent flag is
    None, so only the flags given on the command line take part.
    """
    raw = dict(raw or {})
    keys = {f.name for f in fields(RunConfig)}
    raw.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    return validate_config(raw)


def _run_series(args, stages) -> dict:
    """Run ``stages`` and write the last one's artifacts to ``--out-dir``."""
    cfg = _config(args)
    summary, artifacts = run_stages(cfg, stages)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, artifact in artifacts.items():
        write_artifact(out / name, artifact)
    return summary


def cmd_synth(args) -> int:
    params = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"bad --param {item!r}; expected key=value")
        params[key] = value  # the generator converts numbers, so a file named "1" stays a path
    try:
        spec = SynthSpec(kind=args.kind, n=args.n, seed=args.seed, params=params)
        ms = generate_minute_csv(spec, args.out)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    print(f"wrote {args.out} ({len(ms.days)} days, {ms.n_present} minute prices)")
    return 0


def cmd_volatility(args) -> int:
    summary = _run_series(args, _SERIES)
    vol = summary["volatility"]
    print(
        f"{vol['n_points']} volatility points over {summary['ingest']['n_days']} days; "
        f"deseasonalized sd {vol['sd_deseasonalized']:.6g}"
    )
    return 0


def cmd_intervals(args) -> int:
    for t in _run_series(args, _INTERVALS)["thresholds"]:
        print(f"q={t['q']:g}: {t['n_intervals']} intervals, mean {t['mean_interval']:.3f}")
    return 0


def cmd_ks_matrix(args) -> int:
    summary, artifacts = run_stages(_config(args), (*_INTERVALS, stage_ks))
    if args.out:
        write_artifact(Path(args.out), artifacts["ks_matrix.csv"])
    else:
        write_rows(sys.stdout, *artifacts["ks_matrix.csv"])
    print(f"verdict: {summary['ks']['verdict']}", file=sys.stderr if not args.out else sys.stdout)
    return 0


def cmd_fit(args) -> int:
    for f in _run_series(args, (*_INTERVALS, stage_fit))["fits"]:
        print(f"q={f['q']:g}: c={f['c']:.3f} a={f['a']:.3f} gamma={f['gamma']:.3f} p={f['p']:.3f}")
    return 0


def cmd_moments(args) -> int:
    summary = _run_series(args, (*_SERIES, stage_moments))
    for a, e in zip(summary["alpha"], summary["ess"]):
        print(f"m={a['m']:g}: alpha={a['alpha']:+.4f} (se {a['stderr']:.4f}), xi(m,1)={e['xi']:.4f}")
    return 0


def cmd_analyze(args) -> int:
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    cfg = _config(args, raw)
    summary = run_analyze(cfg)
    print(f"verdict: {summary['ks']['verdict']}; artifacts in {cfg.out_dir}")
    return 0


def _add_series_args(p: argparse.ArgumentParser, thresholds: bool = True) -> None:
    p.add_argument("--input", required=True, help="tick or minute CSV (timestamp,price)")
    p.add_argument("--calendar", help="calendar JSON (defaults to two standard sessions)")
    _switch(p, "--keep-overnight", "drop_overnight", "keep returns spanning session breaks")
    if thresholds:
        p.add_argument("--thresholds", type=_floats, help="comma-separated thresholds (default 2,3,4,5)")


def _switch(p: argparse.ArgumentParser, flag: str, key: str, help: str) -> None:
    """A flag that sets the boolean config ``key`` to the opposite of its default."""
    p.add_argument(flag, action="store_const", const=not getattr(RunConfig, key), dest=key, help=help)


def _add_lattice_arg(p: argparse.ArgumentParser) -> None:
    _switch(
        p, "--no-lattice", "lattice", "treat intervals as continuous values (the paper's plain KS and MLE)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volint",
        description="Return-interval analysis of threshold exceedances in volatility series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic minute CSV")
    p.add_argument("--kind", choices=("iid_gaussian_abs", "shuffled_from_file", "se_intervals"), default="iid_gaussian_abs")
    p.add_argument("--n", type=int, default=140000, help="minimum volatility points after the pipeline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--param", action="append", help="kind-specific key=value (repeatable)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("volatility", help="normalized deseasonalized volatility")
    _add_series_args(p, thresholds=False)
    p.add_argument("--out-dir", "-o", default="out")
    p.set_defaults(func=cmd_volatility)

    p = sub.add_parser("intervals", help="exceedance intervals, PDF and CDF tables")
    _add_series_args(p)
    p.add_argument("--bins-per-decade", type=int)
    p.add_argument("--out-dir", "-o", default="out")
    p.set_defaults(func=cmd_intervals)

    p = sub.add_parser("ks-matrix", help="pairwise scaling tests across thresholds")
    _add_series_args(p)
    _switch(p, "--whole-sample-cv", "overlap_counts", "use whole-sample sizes in the critical value")
    _add_lattice_arg(p)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_ks_matrix)

    p = sub.add_parser("fit", help="stretched-exponential fits with KS p-values")
    _add_series_args(p)
    p.add_argument("--mode", choices=("mle", "lsq"), dest="fit_mode")
    p.add_argument("--n-boot", type=int, help="bootstrap replicates, drawn only with --refit")
    p.add_argument("--seed", type=int)
    refit = "bootstrap p with each replicate refitted: interval counts scored at the knots"
    _switch(p, "--refit", "refit", refit + " (mle fit only; not with --no-lattice)")
    _add_lattice_arg(p)
    p.add_argument("--bins-per-decade", type=int)
    p.add_argument("--out-dir", "-o", default="out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("moments", help="moment scaling diagnostics")
    _add_series_args(p, thresholds=False)
    p.add_argument(
        "--orders", type=_floats, dest="moment_orders", metavar="ORDERS", help="comma-separated moment orders"
    )
    p.add_argument("--q-min", type=float)
    p.add_argument("--q-max", type=float)
    p.add_argument("--q-step", type=float)
    p.add_argument("--region", type=_floats, help="mean-interval fit window, e.g. 10,100")
    p.add_argument("--out-dir", "-o", default="out")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("analyze", help="full pipeline from a config file")
    p.add_argument("--config", help="JSON config; flags below override it")
    p.add_argument("--input")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--seed", type=int)
    _add_lattice_arg(p)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e.cause, ConfigError):
            return 2
        if isinstance(e.cause, (DataError, OSError)):
            return 3
        return 4
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (VolintError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
