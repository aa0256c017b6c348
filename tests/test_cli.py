"""Command-line flows and exit codes, exercised in process."""

import io
import json

import numpy as np
import pytest

from volint import validate_config
from volint.cli import main
from volint.pipeline import build_volatility, load_minutes, write_rows


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ticks.csv"
    code = main(
        ["synth", "--kind", "iid_gaussian_abs", "--n", "15000", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    return path


def _series_args(synth_csv):
    return ["--input", str(synth_csv), "--thresholds", "1.5,2"]


def test_synth_reports_and_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["synth", "--n", "2000", "--seed", "5", "--out", str(a)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert main(["synth", "--n", "2000", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_rejects_tiny_n(tmp_path, capsys):
    code = main(["synth", "--n", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_synth_rejects_malformed_param(tmp_path, capsys):
    code = main(
        ["synth", "--n", "2000", "--param", "gamma", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "kind, param",
    [
        ("iid_gaussian_abs", "bogus=3"),
        ("iid_gaussian_abs", "gamma=1"),
        ("se_intervals", "input=x.csv"),
        ("shuffled_from_file", "q=3"),
    ],
)
def test_synth_rejects_unknown_param(tmp_path, capsys, kind, param):
    out = tmp_path / "x.csv"
    args = ["synth", "--kind", kind, "--n", "2000", "--param", param, "--out", str(out)]
    if kind == "shuffled_from_file":
        args += ["--param", "input=x.csv"]
    assert main(args) == 2
    assert f"takes no params ['{param.partition('=')[0]}']" in capsys.readouterr().err
    assert not out.exists()


def test_synth_shuffles_a_file_with_a_numeric_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--n", "2000", "--out", "1"]) == 0
    assert main(["synth", "--kind", "shuffled_from_file", "--param", "input=1", "--out", "s.csv"]) == 0
    assert (tmp_path / "s.csv").stat().st_size > 0


@pytest.mark.parametrize("q", ["0", "-1", "40", "inf"])
def test_synth_rejects_planted_threshold_out_of_range(tmp_path, capsys, q):
    out = tmp_path / "x.csv"
    assert main(["synth", "--kind", "se_intervals", "--n", "2000", "--param", f"q={q}", "--out", str(out)]) == 2
    assert "se_intervals q must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_volatility_command(synth_csv, tmp_path, capsys):
    code = main(["volatility", "--input", str(synth_csv), "-o", str(tmp_path)])
    assert code == 0
    assert "volatility points" in capsys.readouterr().out
    assert (tmp_path / "volatility.csv").is_file()
    assert (tmp_path / "pattern.csv").is_file()


def test_intervals_command(synth_csv, tmp_path, capsys):
    code = main(["intervals", *_series_args(synth_csv), "-o", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "q=1.5" in out and "q=2" in out
    for name in ("intervals.csv", "pdf.csv", "cdf.csv"):
        assert (tmp_path / name).is_file()
    header = (tmp_path / "pdf.csv").read_text().splitlines()[0]
    assert header == "q,x,density,count"


def test_ks_matrix_to_stdout(synth_csv, capsys):
    code = main(["ks-matrix", *_series_args(synth_csv)])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "q_i,q_j,ks,cv,m,n,decision"
    assert len(lines) == 2  # one pair for two thresholds
    assert "verdict:" in captured.err


def test_ks_matrix_to_file(synth_csv, tmp_path, capsys):
    out = tmp_path / "ks.csv"
    code = main(["ks-matrix", *_series_args(synth_csv), "--out", str(out)])
    assert code == 0
    assert out.is_file()
    assert "verdict:" in capsys.readouterr().out


def test_fit_command(synth_csv, tmp_path, capsys):
    code = main(
        ["fit", *_series_args(synth_csv), "--n-boot", "100", "--seed", "7", "-o", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "gamma=" in out and "p=" in out
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert [f["q"] for f in fits] == [1.5, 2.0]
    assert all(f["mode"] == "mle" for f in fits)
    header = (tmp_path / "fits.csv").read_text().splitlines()[0]
    assert header == "q,mode,c,a,gamma,n,ks,p,n_boot,seed"


def test_fit_command_lsq_mode(synth_csv, tmp_path):
    code = main(
        [
            "fit",
            "--input",
            str(synth_csv),
            "--thresholds",
            "2",
            "--mode",
            "lsq",
            "--n-boot",
            "100",
            "-o",
            str(tmp_path),
        ]
    )
    assert code == 0
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert fits[0]["mode"] == "lsq"
    assert not fits[0]["constrained"]


def test_moments_command(synth_csv, tmp_path, capsys):
    code = main(
        [
            "moments",
            "--input",
            str(synth_csv),
            "--orders",
            "0.5,2",
            "--q-min",
            "1",
            "--q-max",
            "3",
            "--region",
            "3,30",
            "-o",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert "alpha=" in capsys.readouterr().out
    for name in ("moments.csv", "alpha.csv", "ess.csv"):
        assert (tmp_path / name).is_file()


def test_analyze_command(tmp_path, corpus_cfg, capsys):
    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(corpus_cfg(out_dir)))
    code = main(["analyze", "--config", str(cfg_path)])
    assert code == 0
    assert "verdict:" in capsys.readouterr().out
    assert (out_dir / "summary.json").is_file()


def test_analyze_flag_overrides(tmp_path, corpus_cfg, capsys):
    base = tmp_path / "base"
    override = tmp_path / "override"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(corpus_cfg(base)))
    code = main(["analyze", "--config", str(cfg_path), "--out-dir", str(override)])
    assert code == 0
    capsys.readouterr()
    assert (override / "summary.json").is_file()
    assert not base.exists()


def test_analyze_bad_config_exits_2(tmp_path, corpus_cfg, capsys):
    # a config error exits 2 before the input is read
    for bad, problem in (({"n_boot": 5}, "n_boot"), ({"cross_day": False}, "unknown key: cross_day")):
        cfg = corpus_cfg(tmp_path / "o", **bad)
        cfg["input"] = str(tmp_path / "never-read.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["analyze", "--config", str(cfg_path)]) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_analyze_non_boolean_lattice_exits_2(tmp_path, corpus_cfg, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(corpus_cfg(tmp_path / "o", lattice=1)))
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    assert "lattice" in capsys.readouterr().err


def test_no_lattice_switch(synth_csv, tmp_path, corpus_cfg, capsys):
    outputs = {}
    for flags in ([], ["--no-lattice"]):
        path = tmp_path / f"ks{len(flags)}.csv"
        assert main(["ks-matrix", *_series_args(synth_csv), *flags, "--out", str(path)]) == 0
        outputs[len(flags)] = path.read_text()
    assert outputs[0] != outputs[1]

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(corpus_cfg(tmp_path / "plain")))
    assert main(["analyze", "--config", str(cfg_path), "--no-lattice"]) == 0
    summary = json.loads((tmp_path / "plain" / "summary.json").read_text())
    assert summary["config"]["lattice"] is False
    capsys.readouterr()


def test_analyze_no_lattice_refit_exits_2_without_summary(tmp_path, corpus_cfg, capsys):
    cfg = corpus_cfg(tmp_path / "o", refit=True)
    cfg["input"] = str(tmp_path / "never-read.csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(cfg_path), "--no-lattice"]) == 2
    err = capsys.readouterr().err
    assert "refit" in err and "lattice" in err
    assert not (tmp_path / "o" / "summary.json").exists()


def test_fit_lsq_refit_exits_2(tmp_path, capsys):
    args = ["fit", "--input", str(tmp_path / "never-read.csv"), "--mode", "lsq", "--refit", "-o", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "refit" in err and "fit_mode" in err
    assert not (tmp_path / "o").exists()


def test_analyze_unparseable_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{nope")
    assert main(["analyze", "--config", str(cfg_path)]) == 2


def test_analyze_without_input_exits_2_and_makes_no_out_dir(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["analyze", "--out-dir", str(out)]) == 2
    assert "input" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_missing_input_exits_3(tmp_path, corpus_cfg, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = corpus_cfg(tmp_path / "o")
    cfg["input"] = str(tmp_path / "does-not-exist.csv")
    cfg_path.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(cfg_path)]) == 3


def test_analyze_garbage_input_exits_3(tmp_path, corpus_cfg, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is\nnot,valid\n")
    cfg_path = tmp_path / "cfg.json"
    cfg = corpus_cfg(tmp_path / "o")
    cfg["input"] = str(bad)
    cfg_path.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(cfg_path)]) == 3


def test_analyze_impossible_threshold_exits_4(tmp_path, corpus_cfg, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(corpus_cfg(tmp_path / "o", thresholds=[40.0, 50.0])))
    assert main(["analyze", "--config", str(cfg_path)]) == 4


def test_analyze_moments_failure_exits_4(tmp_path, corpus_cfg, capsys):
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(corpus_cfg(out, mean_targets=[1e9])))
    assert main(["analyze", "--config", str(cfg_path)]) == 4
    assert "stage 'moments' failed" in capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["failed_stage"] == "moments"
    assert (out / "fits.csv").is_file()


def test_analyze_order_curve_target_above_top_value_mean(tmp_path, corpus_csv, corpus_cfg):
    # one minute's price is raised 50%, so the returns into and out of it are
    # the two largest values, one position apart. The highest candidate keeps
    # only them, and its mean interval of 1 is below the target 100; a lower
    # candidate reaches it
    lines = corpus_csv.read_text().splitlines()
    stamp, price = lines[10_001].split(",")
    lines[10_001] = f"{stamp},{1.5 * float(price)!r}"
    ticks, out = tmp_path / "ticks.csv", tmp_path / "o"
    ticks.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(corpus_cfg(out, input=str(ticks), mean_targets=[5.0, 100.0])))
    assert main(["analyze", "--config", str(cfg_path)]) == 0
    v = np.loadtxt(out / "volatility.csv", delimiter=",", skiprows=1, usecols=2)
    first, second = np.argsort(v)[::-1][:2]
    assert abs(int(first) - int(second)) == 1
    curve = json.loads((out / "summary.json").read_text())["order_curves"][1]
    assert curve["target_mean"] == 100.0
    assert abs(curve["achieved_mean"] - 100.0) < 1.0
    kept = np.flatnonzero(v > curve["q"])
    assert np.mean(np.diff(kept)) == curve["achieved_mean"]


def test_analyze_failed_lsq_fit_exits_4_without_fits(tmp_path, corpus_cfg, capsys):
    # q = 5.25 keeps 37 intervals, whose log-binned density drives the
    # least-squares gamma to its lower bound; one failed threshold ends the run
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(corpus_cfg(out, thresholds=[2.0, 5.25], fit_mode="lsq")))
    assert main(["analyze", "--config", str(cfg_path)]) == 4
    assert "gamma stuck at the lower bound" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_stage"] == "fit"
    assert not (out / "fits.csv").exists()
    assert not (out / "fits.json").exists()


def test_analyze_single_threshold_is_config_error(tmp_path, corpus_cfg, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(corpus_cfg(tmp_path / "o", thresholds=[3.0])))
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    assert "thresholds" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before the input is read


def test_ks_matrix_single_threshold_is_config_error(synth_csv, capsys):
    assert main(["ks-matrix", "--input", str(synth_csv), "--thresholds", "3"]) == 2
    captured = capsys.readouterr()
    assert "thresholds" in captured.err
    assert captured.out == ""


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory, corpus_cfg):
    """Artifacts of ``analyze`` on the shared corpus, for the subcommands to match."""
    root = tmp_path_factory.mktemp("parity")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(corpus_cfg(root / "run")))
    assert main(["analyze", "--config", str(cfg_path)]) == 0
    return root / "run"


def _parity_flags(command, cfg):
    """Subcommand flags giving the same input and settings as ``cfg``."""

    def joined(values):
        return ",".join(str(v) for v in values)

    flags = ["--input", cfg["input"]]
    if command in ("intervals", "ks-matrix", "fit"):
        flags += ["--thresholds", joined(cfg["thresholds"])]
    if command == "fit":
        flags += ["--n-boot", str(cfg["n_boot"]), "--seed", str(cfg["seed"])]
    if command == "moments":
        flags += ["--orders", joined(cfg["moment_orders"]), "--region", joined(cfg["region"])]
        flags += ["--q-min", str(cfg["q_min"]), "--q-max", str(cfg["q_max"]), "--q-step", str(cfg["q_step"])]
    return flags


@pytest.mark.parametrize(
    "command, files",
    [
        ("volatility", ["pattern.csv", "volatility.csv"]),
        ("intervals", ["cdf.csv", "intervals.csv", "pdf.csv"]),
        ("fit", ["fits.csv", "fits.json"]),
        ("moments", ["alpha.csv", "ess.csv", "moments.csv"]),
    ],
)
def test_subcommand_files_match_analyze(command, files, analyzed, corpus_cfg, tmp_path, capsys):
    out = tmp_path / "o"
    assert main([command, *_parity_flags(command, corpus_cfg(out)), "-o", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == files
    for name in files:
        assert (out / name).read_bytes() == (analyzed / name).read_bytes(), name


def test_volatility_csv_matches_per_row_formatting(corpus_cfg, tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    assert main(["synth", "--n", "5000", "--seed", "9", "--out", str(ticks)]) == 0
    cfg = corpus_cfg(tmp_path / "run", input=str(ticks))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(cfg_path)]) == 0
    assert main(["volatility", "--input", str(ticks), "-o", str(tmp_path / "vol")]) == 0
    capsys.readouterr()
    analyzed = (tmp_path / "run" / "volatility.csv").read_bytes()
    assert analyzed == (tmp_path / "vol" / "volatility.csv").read_bytes()

    # the reference formats each row on its own: one isoformat and one float() per row
    run_cfg = validate_config(cfg)
    ms, _ = load_minutes(run_cfg)
    v, _, _ = build_volatility(ms, run_cfg)
    rows = ((ms.days[d].isoformat(), int(s), float(x)) for d, s, x in zip(v.day, v.slot, v.values))
    expected = io.StringIO()
    write_rows(expected, ["day", "slot", "v"], rows)
    assert analyzed == expected.getvalue().encode()


def test_ks_matrix_output_matches_analyze(analyzed, corpus_cfg, tmp_path, capsys):
    expected = (analyzed / "ks_matrix.csv").read_bytes()
    flags = _parity_flags("ks-matrix", corpus_cfg(tmp_path))
    assert main(["ks-matrix", *flags]) == 0
    assert capsys.readouterr().out.encode() == expected
    out = tmp_path / "o"
    out.mkdir()
    assert main(["ks-matrix", *flags, "--out", str(out / "ks_matrix.csv")]) == 0
    capsys.readouterr()
    assert [p.name for p in out.iterdir()] == ["ks_matrix.csv"]
    assert (out / "ks_matrix.csv").read_bytes() == expected


def test_usage_error_exits_2(tmp_path):
    for args in (["not-a-command"], ["intervals", "--input", str(tmp_path / "never-read.csv"), "--same-day-only"]):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["intervals"])  # --input is required
    assert err.value.code == 2
