"""Full analysis pipeline: artifacts, summary, determinism, failure paths."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from volint import (
    ConfigError,
    NormVolSeries,
    StageError,
    derive_seed,
    extract_intervals,
    gen_iid_volatility,
    run_analyze,
    validate_config,
)
from volint.cli import main
from volint.ingest import write_minute_csv
from volint.intervals import IntervalSample
from volint.pipeline import (
    _write_intervals_csv,
    _write_volatility_csv,
    build_volatility,
    load_minutes,
    write_rows,
)

ARTIFACTS = [
    "alpha.csv",
    "cdf.csv",
    "ess.csv",
    "fits.csv",
    "fits.json",
    "intervals.csv",
    "ks_matrix.csv",
    "minutes.csv",
    "moments.csv",
    "order_curves.csv",
    "pattern.csv",
    "pdf.csv",
    "volatility.csv",
]


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory, corpus_cfg):
    out = tmp_path_factory.mktemp("analyzed")
    summary = run_analyze(validate_config(corpus_cfg(out)))
    return summary, Path(out)


def test_all_artifacts_written(analyzed):
    summary, out = analyzed
    assert summary["artifacts"] == ARTIFACTS
    for name in ARTIFACTS + ["summary.json"]:
        assert (out / name).is_file(), name


def test_summary_sections(analyzed):
    summary, out = analyzed
    assert summary["schema_version"] == 1
    assert summary["failed_stage"] is None
    for key in ("ingest", "volatility", "thresholds", "ks", "fits", "alpha", "ess", "order_curves"):
        assert key in summary, key
    assert summary["ingest"]["n_skipped_lines"] == 0
    assert summary["volatility"]["n_points"] >= 20_000
    # in-memory summary matches the file on disk
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk["ks"] == summary["ks"]
    assert on_disk["fits"] == summary["fits"]


def test_threshold_section_values(analyzed):
    summary, _ = analyzed
    rows = summary["thresholds"]
    assert [r["q"] for r in rows] == [1.5, 2.0]
    assert all(r["n_intervals"] > 100 for r in rows)
    # iid half-normal volatility: mean interval near 1/p(q)
    assert 2.0 < rows[0]["mean_interval"] < 4.0
    assert 3.5 < rows[1]["mean_interval"] < 6.0


def test_ks_section(analyzed):
    summary, _ = analyzed
    ks = summary["ks"]
    assert ks["verdict"] in ("scaling", "multiscaling")
    assert len(ks["pairs"]) == 1
    pair = ks["pairs"][0]
    assert (pair["q_i"], pair["q_j"]) == (1.5, 2.0)
    assert pair["decision"] in ("accept", "reject")


def test_fit_reports_carry_derived_seeds(analyzed):
    summary, _ = analyzed
    fits = summary["fits"]
    assert len(fits) == 2
    for fit in fits:
        assert 0.0 <= fit["p"] <= 1.0
        assert 0.05 < fit["gamma"] <= 2.0
        assert fit["seed"] == derive_seed(7, f"fit:q={fit['q']:g}")
        assert fit["mode"] == "mle"
        assert fit["n_failed_refits"] == 0


def test_moment_sections(analyzed):
    summary, _ = analyzed
    assert [row["m"] for row in summary["alpha"]] == [0.5, 2.0]
    alpha = {row["m"]: row for row in summary["alpha"]}
    for row in summary["ess"]:
        assert row["identity_gap"] == 0.0  # n = 1 regressions
        assert row["n_points"] >= 3
        # ESS with n = 1 restates alpha on the same points
        a = alpha[row["m"]]
        assert abs(row["xi"] - row["m"] * (1.0 + a["alpha"])) <= 1e-12
        assert abs(row["stderr"] - row["m"] * a["stderr"]) <= 1e-12
        assert row["n_points"] == a["n_points"]
    for row in summary["order_curves"]:
        assert abs(row["achieved_mean"] - row["target_mean"]) <= 0.5


def test_rerun_is_byte_identical(analyzed, corpus_cfg):
    _, out = analyzed
    before = {name: (out / name).read_bytes() for name in ARTIFACTS + ["summary.json"]}
    run_analyze(validate_config(corpus_cfg(out)))
    after = {name: (out / name).read_bytes() for name in ARTIFACTS + ["summary.json"]}
    assert before == after


def test_plain_statistics_rerun_is_byte_identical(tmp_path, corpus_cfg):
    cfg = validate_config(corpus_cfg(tmp_path / "plain", lattice=False))
    runs = []
    for _ in range(2):
        summary = run_analyze(cfg)
        runs.append({name: (tmp_path / "plain" / name).read_bytes() for name in ARTIFACTS + ["summary.json"]})
    assert runs[0] == runs[1]
    assert summary["config"]["lattice"] is False


def test_failed_stage_is_recorded(tmp_path, corpus_cfg):
    out = tmp_path / "broken"
    cfg = validate_config(corpus_cfg(out, thresholds=[40.0, 50.0]))
    with pytest.raises(StageError) as err:
        run_analyze(cfg)
    assert err.value.stage == "intervals"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_stage"] == "intervals"
    assert "error" in summary
    # the stages before the failure still wrote their artifacts
    for name in ("minutes.csv", "volatility.csv", "pattern.csv"):
        assert (out / name).is_file()
    assert not (out / "fits.csv").exists()


def test_failed_moments_stage_is_recorded(tmp_path, corpus_cfg):
    out = tmp_path / "broken"
    cfg = validate_config(corpus_cfg(out, mean_targets=[1e9]))
    with pytest.raises(StageError) as err:
        run_analyze(cfg)
    assert err.value.stage == "moments"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_stage"] == "moments"
    assert (out / "fits.csv").is_file()
    assert "order_curves.csv" not in summary["artifacts"]
    assert not (out / "order_curves.csv").exists()


def test_missing_input_is_config_error():
    with pytest.raises(ConfigError):
        run_analyze(validate_config({}))


def test_volatility_csv_bytes_match_write_rows(tmp_path):
    # floats whose repr takes an exponent, all 17 digits or a trailing .0
    values = np.array([0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 1e16, 123456789.0, 1.7976931348623157e308])
    v = SimpleNamespace(
        values=values,
        day=np.array([0, 0, 0, 1, 1, 2, 2, 2]),
        slot=np.array([570, 571, 779, 570, 900, 570, 899, 900], dtype=np.int16),
    )
    days = ["2004-01-05", "2004-01-06", "2004-01-07"]
    _write_volatility_csv(days, v, tmp_path / "volatility.csv")
    rows = ((days[d], int(s), float(x)) for d, s, x in zip(v.day, v.slot, v.values))
    expected = io.StringIO()
    write_rows(expected, ["day", "slot", "v"], rows)
    assert (tmp_path / "volatility.csv").read_bytes() == expected.getvalue().encode()


def test_int32_labels_give_the_same_intervals_and_csv(tmp_path):
    # compute_volatility stores day and slot as int32; int64 labels must read the same
    wide = gen_iid_volatility(5000, seed=4)
    assert wide.day.dtype == wide.slot.dtype == np.int64
    narrow = NormVolSeries(values=wide.values, day=wide.day.astype(np.int32), slot=wide.slot.astype(np.int32))
    for q in (1.5, 3.0):
        a, b = (extract_intervals(v, q) for v in (wide, narrow))
        assert a.tau.dtype == b.tau.dtype and np.array_equal(a.tau, b.tau)
        assert a.source_length == b.source_length
    days = [f"day{d}" for d in range(int(wide.day[-1]) + 1)]
    _write_volatility_csv(days, wide, tmp_path / "wide.csv")
    _write_volatility_csv(days, narrow, tmp_path / "narrow.csv")
    assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "narrow.csv").read_bytes()


def test_intervals_csv_bytes_match_write_rows(tmp_path):
    # thresholds whose repr takes an exponent, all 17 digits or a trailing .0
    taus = ([1, 12, 3], [7], [123456789, 1, 1])
    samples = [
        IntervalSample(q=q, tau=np.array(t, dtype=np.int64), source_length=10)
        for q, t in zip((1e-300, 1.0 / 3.0, 2.0), taus)
    ]
    _write_intervals_csv(samples, tmp_path / "intervals.csv")
    expected = io.StringIO()
    write_rows(expected, ["q", "tau"], ((s.q, int(t)) for s in samples for t in s.tau))
    assert (tmp_path / "intervals.csv").read_bytes() == expected.getvalue().encode()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_writer_child_is_recorded(tmp_path, corpus_cfg, capsys, monkeypatch):
    # a directory in the way makes the forked minutes.csv writer fail
    out = tmp_path / "out"
    (out / "minutes.csv").mkdir(parents=True)
    cfg = corpus_cfg(out)
    with pytest.raises(StageError) as err:
        run_analyze(validate_config(cfg))
    _assert_no_child_left()
    assert err.value.stage == "ingest"
    assert isinstance(err.value.cause, OSError)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_stage"] == "ingest"
    assert summary["error"] == str(err.value.cause)
    assert "minutes.csv" in summary["error"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(cfg_path)]) == 3
    _assert_no_child_left()
    # the child's message is the one the same write raises in-process
    monkeypatch.delattr(os, "fork")
    with pytest.raises(StageError):
        run_analyze(validate_config(cfg))
    inline = json.loads((out / "summary.json").read_text())
    assert (inline["failed_stage"], inline["error"]) == ("ingest", summary["error"])


def test_writers_finish_before_a_later_stage_failure(tmp_path, corpus_cfg):
    out = tmp_path / "broken"
    cfg = validate_config(corpus_cfg(out, thresholds=[40.0, 50.0]))
    with pytest.raises(StageError) as err:
        run_analyze(cfg)
    _assert_no_child_left()
    assert err.value.stage == "intervals"
    ms, _ = load_minutes(cfg)
    v, _, _ = build_volatility(ms, cfg)
    write_minute_csv(ms, tmp_path / "minutes.csv")
    _write_volatility_csv([d.isoformat() for d in ms.days], v, tmp_path / "volatility.csv")
    for name in ("minutes.csv", "volatility.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_in_process_writers_match_forked(analyzed, corpus_cfg, monkeypatch):
    _, out = analyzed
    forked = {name: (out / name).read_bytes() for name in ARTIFACTS + ["summary.json"]}
    monkeypatch.delattr(os, "fork")
    run_analyze(validate_config(corpus_cfg(out)))
    assert {name: (out / name).read_bytes() for name in ARTIFACTS + ["summary.json"]} == forked


def test_run_raises_no_warning(tmp_path, corpus_cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_analyze(validate_config(corpus_cfg(tmp_path / "out")))
    assert summary["failed_stage"] is None
    _assert_no_child_left()


def test_same_bytes_at_any_blas_thread_count(corpus_cfg, tmp_path, blas_envs):
    # one BLAS thread, then BLAS's own default: a threaded matrix product can
    # give other bits at another thread count, and no artifact may show it
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(corpus_cfg(tmp_path / "out")))
    argv = [sys.executable, "-m", "volint.cli", "analyze", "--config", str(cfg_path)]
    runs = []
    for env in blas_envs:
        subprocess.run(argv, env=env, capture_output=True, check=True)
        runs.append({name: (tmp_path / "out" / name).read_bytes() for name in ARTIFACTS + ["summary.json"]})
    assert runs[0] == runs[1]
