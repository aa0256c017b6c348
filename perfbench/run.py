"""volint benchmark: `volint analyze` end to end, plus a traced run per layer.

    python3 perfbench/run.py --seed 1
        runs every workload untraced and traced and prints all metrics
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        runs one workload; the last line of stdout is the JSON result

Corpora come from `volint synth` seeded by --seed; the program is run from
the checkout's own `src/`. Untraced runs time whole `analyze` child
processes for about --seconds and report end-to-end metrics. Traced runs
(--trace 1) run two untraced children (one BLAS thread, then BLAS's default
thread count) and one child under perfbench/trace.py, check that all three
write the same bytes, and report per-layer metrics.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_LIMIT_S = 120.0  # a child still running after this long is killed and counts as failed
# Timed children use one BLAS thread. With BLAS's default thread count on 2
# cores, OpenBLAS's idle thread spins on the second core: a 70k-minute refit
# run then took 6.0 to 9.7 s (CPU time 1.75 times wall time) against 5.1 to
# 6.0 s pinned, too noisy to gate. Traced runs time one child with the default
# thread count too (`blas.*`), so that cost stays measured.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class Child(NamedTuple):
    wall: float  # seconds
    cpu: float  # user + system seconds
    rss_mb: float  # peak resident set, MiB
    code: int


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Runner:
    """Runs volint child processes from the checkout's `src/`."""

    def __init__(self):
        self.default_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        self.default_env["PYTHONPATH"] = str(SRC)
        self.env = dict(self.default_env, **PINNED)

    def run(self, argv: list[str], cwd: Path, log: Path, env: dict | None = None) -> Child:
        """Run a child to its end, with one BLAS thread unless `env` says otherwise."""
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env or self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)

    def volint(self, args: list[str], cwd: Path, log: str, env: dict | None = None) -> Child:
        return self.run([sys.executable, "-m", "volint.cli", *args], cwd, cwd / log, env)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_output(out: Path, code: int, config: dict) -> tuple[list[str], dict, dict]:
    """Sanity-check one analyze run; return problems, summary and artifact digests."""
    if code != 0:
        return [f"exit code {code}"], {}, {}
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as e:
        return [f"summary.json unreadable: {e}"], {}, {}
    problems = []
    if summary.get("failed_stage") is not None:
        problems.append(f"failed_stage {summary['failed_stage']!r}")
    artifacts = summary.get("artifacts") or []
    missing = [a for a in artifacts if not (out / a).is_file()]
    if not artifacts or missing:
        problems.append(f"artifacts missing: {missing or 'none listed'}")
    verdict = (summary.get("ks") or {}).get("verdict")
    if verdict not in ("scaling", "multiscaling"):
        problems.append(f"verdict {verdict!r}")
    fits = summary.get("fits") or []
    if len(fits) != len(config["thresholds"]):
        problems.append(f"{len(fits)} fits for {len(config['thresholds'])} thresholds")
    for fit in fits:
        gamma, p = fit.get("gamma"), fit.get("p")
        if not (isinstance(gamma, (int, float)) and math.isfinite(gamma) and 0 < gamma <= 2):
            problems.append(f"q={fit.get('q')}: gamma {gamma!r} outside (0, 2]")
        if not (isinstance(p, (int, float)) and 0 <= p <= 1):
            problems.append(f"q={fit.get('q')}: p {p!r} outside [0, 1]")
    n_points = (summary.get("volatility") or {}).get("n_points")
    if not (isinstance(n_points, int) and n_points > 0):
        problems.append(f"volatility.n_points {n_points!r}")
    digests = {a: sha256(out / a) for a in artifacts if a not in missing}
    digests["summary.json"] = sha256(out / "summary.json")
    return problems, summary, digests


class Workload:
    """One workload's corpus, config and reference digests under .bench_work/NAME."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.name, self.seed, self.runner = name, seed, runner
        self.spec = WORKLOADS[name]
        self.dir = WORK / name
        self.out = self.dir / "out"
        self.config = dict(self.spec["config"], input="ticks.csv", out_dir="out")
        self.reference: dict | None = None  # digests of the first run that passed its checks
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def setup(self, repeats: int) -> list[float]:
        """Write the corpus `repeats` times; return the synth wall times."""
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "config.json").write_text(json.dumps(self.config, indent=2) + "\n")
        times, digest = [], None
        for _ in range(repeats):
            args = ["synth", *self.spec["synth"], "--seed", str(self.seed), "--out", "ticks.csv"]
            synth = self.runner.volint(args, self.dir, "synth.log")
            if synth.code != 0:
                raise BenchError(f"{self.name}: synth exited {synth.code}; see {self.dir / 'synth.log'}")
            written = sha256(self.dir / "ticks.csv")
            if digest not in (None, written):
                raise BenchError(f"{self.name}: synth wrote different corpora for seed {self.seed}")
            digest = written
            times.append(synth.wall)
        shutil.rmtree(self.out, ignore_errors=True)
        return times

    def record(self, code: int) -> dict:
        """Check the run just made; count it; return its summary (empty if unusable)."""
        self.attempted += 1
        problems, summary, digests = check_output(self.out, code, self.config)
        if not problems and self.reference is None:
            self.reference = digests
        elif not problems and digests != self.reference:
            changed = sorted(k for k in set(digests) | set(self.reference)
                             if digests.get(k) != self.reference.get(k))
            problems.append(f"artifacts differ from the first run: {changed}")
        if problems:
            self.failed += 1
            self.problems.append(f"run {self.attempted}: " + "; ".join(problems))
            return {}
        return summary

    def analyze(self, env: dict | None = None) -> tuple[Child, dict]:
        child = self.runner.volint(["analyze", "--config", "config.json"], self.dir, "analyze.log", env)
        return child, self.record(child.code)


def untraced(wl: Workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: analyze children, one after another, for about `seconds`."""
    setup = wl.setup(SETUP_REPEATS)
    deadline = time.perf_counter() + seconds
    walls, rss, points = [], [], []
    while not walls or time.perf_counter() < deadline:
        child, summary = wl.analyze()
        walls.append(child.wall)
        rss.append(child.rss_mb)
        if summary:
            points.append(summary["volatility"]["n_points"])
    if not points:
        raise BenchError(f"{wl.name}: no analyze run passed its checks: {wl.problems}")
    analyze_s = statistics.median(walls)
    return {
        "analyze_s": analyze_s,
        "points_per_s": statistics.median(points) / analyze_s,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }, {"analyze_s": walls, "peak_rss_mb": rss, "setup_s": setup}


def traced(wl: Workload) -> tuple[dict, dict]:
    """Per-layer metrics from one run under perfbench/trace.py, next to an untraced one.

    The traced run's artifacts, summary.json included, must match the
    untraced run's byte for byte; `Workload.record` checks that. One more
    untraced child runs with BLAS's default thread count.
    """
    wl.setup(1)
    plain, plain_summary = wl.analyze()
    default, default_summary = wl.analyze(wl.runner.default_env)
    imports = [
        wl.runner.run([sys.executable, "-c", "import volint.cli"], wl.dir, wl.dir / "import.log").wall
        for _ in range(IMPORT_REPEATS)
    ]
    spans = wl.dir / "spans.json"
    spans.unlink(missing_ok=True)
    traced_child = wl.runner.run(
        [sys.executable, str(HERE / "trace.py"), "config.json", spans.name], wl.dir, wl.dir / "trace.log"
    )
    summary = wl.record(traced_child.code)
    if not (plain_summary and default_summary and summary):
        raise BenchError(f"{wl.name}: traced comparison impossible: {wl.problems}")
    metrics = json.loads(spans.read_text())["metrics"]
    artifacts = summary["artifacts"] + ["summary.json"]
    metrics["pipeline.artifact_mb"] = sum((wl.out / a).stat().st_size for a in artifacts) / 2**20
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = traced_child.wall - plain.wall
    metrics["blas.pinned_analyze_s"] = plain.wall
    metrics["blas.default_analyze_s"] = default.wall
    metrics["blas.default_cpu_s"] = default.cpu
    metrics["src.lines"] = src_lines()
    return metrics, {"cli.import_s": imports, "traced_s": [traced_child.wall]}


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_lines": src_lines(),
    }


def shares(name: str, m: dict) -> str:
    total = m["trace.run_analyze_s"]
    fit_side = sum(m[k] for k in ("kstest.matrix_s", "kstest.bootstrap_self_s", "semodel.cdf_s",
                                  "semodel.sample_s", "semodel.fit_s"))
    io_side = sum(m[k] for k in ("ingest.parse_s", "ingest.align_s", "ingest.write_s", "pipeline.write_s"))
    boot = len(WORKLOADS[name]["config"]["thresholds"]) * WORKLOADS[name]["config"]["n_boot"]
    return (f"share of run_analyze: kstest+semodel {fit_side / total:.1%}, "
            f"ingest+pipeline.write {io_side / total:.1%}; "
            f"semodel.fit_calls {m['semodel.fit_calls']} vs sum of n_boot {boot}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner()
    wl = Workload(name, seed, runner)
    metrics, samples = traced(wl) if trace else untraced(wl, seconds)
    units = LAYER_UNITS if trace else E2E_UNITS
    info = machine()
    print(f"# workload {name} seed {seed} trace {int(trace)}; " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for key in units:
        print(f"{key:26s} {metrics[key]:.6g} {units[key]}")
    print(f"{'error_rate':26s} {wl.failed / wl.attempted:.6g} fraction ({wl.failed} failed of {wl.attempted})")
    if trace:
        print("# " + shares(name, metrics))
    for problem in wl.problems:
        print(f"# FAILED {problem}")
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(result, workload=name, seed=seed, trace=trace, machine=info, samples=samples)
    (wl.dir / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so `Runner.run` kills its child first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "volint" / "cli.py").is_file():
        print(f"error: no volint sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
            return 0
        for name in WORKLOADS:
            for trace in (False, True):
                print(json.dumps(run_one(name, args.seed, args.seconds, trace)))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
