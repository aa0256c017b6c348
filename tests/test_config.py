"""Configuration validation and seed derivation."""

import ast
import hashlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from volint import ConfigError, RunConfig, derive_seed, validate_config

SRC = Path(__file__).resolve().parents[1] / "src" / "volint"


def test_empty_config_gives_defaults():
    cfg = validate_config({})
    assert cfg == RunConfig()
    assert cfg.thresholds == (2.0, 3.0, 4.0, 5.0)
    assert cfg.n_boot == 1000
    assert cfg.fit_mode == "mle"
    assert cfg.drop_overnight and cfg.overlap_counts
    assert not cfg.refit


def test_none_is_empty():
    assert validate_config(None) == RunConfig()


def test_q_grid_points():
    cfg = validate_config({"q_min": 1.0, "q_max": 5.0, "q_step": 0.1})
    grid = cfg.q_grid
    assert len(grid) == 41
    np.testing.assert_allclose(grid[0], 1.0)
    np.testing.assert_allclose(grid[-1], 5.0)


def test_all_problems_reported_at_once():
    bad = {
        "n_boot": 5,
        "thresholds": [2.0, 2.0],
        "q_step": -1,
        "fit_mode": "banana",
        "mystery": 1,
        "tol_mean": 0.5,
        "cross_day": False,
    }
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    text = str(err.value)
    assert "n_boot" in text
    assert "distinct" in text
    assert "q_step" in text
    assert "fit_mode" in text
    assert "unknown key: mystery" in text
    assert "unknown key: tol_mean" in text
    assert "unknown key: cross_day" in text
    assert len(err.value.problems) == 7


def test_n_boot_floor():
    with pytest.raises(ConfigError):
        validate_config({"n_boot": 99})
    assert validate_config({"n_boot": 100}).n_boot == 100


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError):
        validate_config({"seed": True})


def test_thresholds_sorted():
    cfg = validate_config({"thresholds": [5.0, 2.0, 3.0]})
    assert cfg.thresholds == (2.0, 3.0, 5.0)


def test_region_shape():
    with pytest.raises(ConfigError):
        validate_config({"region": [10.0]})
    with pytest.raises(ConfigError):
        validate_config({"region": [100.0, 10.0]})
    assert validate_config({"region": [5, 50]}).region == (5.0, 50.0)


def test_q_range_ordering():
    with pytest.raises(ConfigError):
        validate_config({"q_min": 3.0, "q_max": 2.0})


def test_flags_must_be_boolean():
    with pytest.raises(ConfigError):
        validate_config({"refit": 1})


def test_lattice_flag():
    assert RunConfig().lattice
    assert validate_config({"lattice": False}).lattice is False
    with pytest.raises(ConfigError) as err:
        validate_config({"lattice": "no"})
    assert "lattice" in str(err.value)


def test_refit_needs_lattice():
    with pytest.raises(ConfigError) as err:
        validate_config({"refit": True, "lattice": False})
    assert len(err.value.problems) == 1
    assert "refit" in str(err.value) and "lattice" in str(err.value)
    assert validate_config({"refit": True}).refit
    assert validate_config({"refit": False, "lattice": False}).lattice is False


def test_refit_needs_the_mle_fit():
    with pytest.raises(ConfigError) as err:
        validate_config({"refit": True, "fit_mode": "lsq"})
    assert len(err.value.problems) == 1
    text = str(err.value)
    assert "refit" in text and "fit_mode" in text and "ROADMAP item 3" in text
    assert validate_config({"refit": False, "fit_mode": "lsq"}).fit_mode == "lsq"
    assert validate_config({"refit": True, "fit_mode": "mle"}).refit


def test_derive_seed_is_frozen():
    # pinned: the derivation must never drift across platforms or releases
    assert derive_seed(0, "fit:q=2") == 1298622785933169840
    assert derive_seed(7, "fit:q=2") == 1756789143346525074
    assert derive_seed(0, "fit:q=3") == 3285696807774659543


def test_derive_seed_matches_hashlib():
    labels = [f"fit:q={q / 10:g}" for q in range(100)] + [f"boot:{i}:\u00e9" for i in range(100)]
    for i, label in enumerate(labels):
        digest = hashlib.sha256(f"{i}:{label}".encode("utf-8")).digest()
        assert derive_seed(i, label) == int.from_bytes(digest[:8], "little")


def test_derive_seed_separates_labels():
    seeds = {derive_seed(0, f"fit:q={q}") for q in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**64 for s in seeds)


def _attributes_read(tree: ast.Module) -> set[str]:
    """Attribute names loaded anywhere in the module except inside ``validate_config``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "validate_config":
            skip |= {id(n) for n in ast.walk(node)}
    return {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in skip
    }


def test_every_config_field_is_read():
    # a knob whose reader was deleted should go with it, not linger as a no-op key
    read = set()
    for path in sorted(SRC.glob("*.py")):
        read |= _attributes_read(ast.parse(path.read_text(), filename=str(path)))
    dead = [f.name for f in fields(RunConfig) if f.name not in read]
    assert not dead, f"RunConfig fields no code reads: {dead}"


def test_attributes_read_skips_validate_config():
    tree = ast.parse("def validate_config(raw):\n    return raw.a\n\ndef f(cfg):\n    return cfg.b\n")
    assert _attributes_read(tree) == {"b"}
