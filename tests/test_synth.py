"""Synthetic corpora: iid volatility, tick-file generation, shuffles."""

import numpy as np
import pytest

from volint import (
    SEModel,
    SynthSpec,
    extract_intervals,
    gen_iid_volatility,
    generate_minute_csv,
    load_normalized,
    one_sample_ks,
    parse_ticks,
    shuffle_series,
)
from volint import synth
from volint.config import RunConfig


def test_gen_iid_is_normalized():
    v = gen_iid_volatility(5_000, seed=0)
    assert len(v.values) == 5_000
    assert abs(np.std(v.values) - 1.0) < 1e-12
    assert np.all(v.values >= 0)
    # day labels advance every 240 slots
    assert v.day[0] == 0
    assert v.day[239] == 0
    assert v.day[240] == 1


def test_gen_iid_deterministic():
    a = gen_iid_volatility(1_000, seed=4)
    b = gen_iid_volatility(1_000, seed=4)
    np.testing.assert_array_equal(a.values, b.values)
    c = gen_iid_volatility(1_000, seed=5)
    assert not np.array_equal(a.values, c.values)


def test_gen_iid_minimum_size():
    with pytest.raises(ValueError):
        gen_iid_volatility(50, seed=0)


def test_gen_iid_mean_interval_matches_half_normal_tail():
    # P(v > q) for normalized |N(0,1)| is 2 * (1 - Phi(q * sqrt(1 - 2/pi)))
    from scipy.stats import norm

    v = gen_iid_volatility(200_000, seed=1)
    q = 2.0
    p = 2.0 * (1.0 - norm.cdf(q * np.sqrt(1.0 - 2.0 / np.pi)))
    sample = extract_intervals(v, q)
    assert abs(sample.mean_interval - 1.0 / p) / (1.0 / p) < 0.05


def test_shuffle_preserves_values():
    v = gen_iid_volatility(2_000, seed=2)
    s = shuffle_series(v, seed=3)
    np.testing.assert_array_equal(np.sort(s.values), np.sort(v.values))
    assert not np.array_equal(s.values, v.values)
    np.testing.assert_array_equal(s.day, v.day)
    np.testing.assert_array_equal(s.slot, v.slot)
    again = shuffle_series(v, seed=3)
    np.testing.assert_array_equal(s.values, again.values)


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(kind="nope", n=1_000)
    with pytest.raises(ValueError):
        SynthSpec(kind="iid_gaussian_abs", n=10)
    with pytest.raises(ValueError):
        SynthSpec(kind="iid_gaussian_abs", n=1_000, seed=-1)
    with pytest.raises(ValueError):
        SynthSpec(kind="shuffled_from_file", n=1_000)  # needs params["input"]


def test_generate_iid_csv_round_trip(tmp_path):
    spec = SynthSpec(kind="iid_gaussian_abs", n=3_000, seed=6)
    path = tmp_path / "ticks.csv"
    series = generate_minute_csv(spec, path)
    assert path.exists()
    assert series.n_present >= 3_000

    cfg = RunConfig(input=str(path))
    v, pattern, sd, ms, meta = load_normalized(cfg)
    assert abs(np.std(v.values) - 1.0) < 1e-12
    assert meta["n_skipped_lines"] == 0
    # minute grid fully populated by construction
    assert meta["n_present_minutes"] == series.n_present


def test_generate_iid_csv_deterministic(tmp_path):
    spec = SynthSpec(kind="iid_gaussian_abs", n=2_000, seed=9)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    generate_minute_csv(spec, p1)
    generate_minute_csv(spec, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_shuffled_preserves_return_multiset(tmp_path):
    base = SynthSpec(kind="iid_gaussian_abs", n=2_000, seed=10)
    src = tmp_path / "src.csv"
    generate_minute_csv(base, src)
    spec = SynthSpec(
        kind="shuffled_from_file", n=0, seed=11, params={"input": str(src)}
    )
    out = tmp_path / "shuffled.csv"
    generate_minute_csv(spec, out)

    def abs_returns(path):
        recs = parse_ticks(path).records
        prices = np.array([r.price for r in recs])
        return np.sort(np.abs(np.diff(np.log(prices))))

    np.testing.assert_allclose(abs_returns(out), abs_returns(src), rtol=1e-9)


def _expected_mean_interval(q):
    from scipy.stats import norm

    return 1.0 / (2.0 * (1.0 - norm.cdf(q * np.sqrt(1.0 - 2.0 / np.pi))))


def _planted_intervals(tmp_path, q, a, gamma):
    spec = SynthSpec(
        kind="se_intervals",
        n=120_000,
        seed=12,
        params={"q": q, "a": a, "gamma": gamma},
    )
    path = tmp_path / "se.csv"
    generate_minute_csv(spec, path)
    v, _, _, _, _ = load_normalized(RunConfig(input=str(path)))
    return extract_intervals(v, q)


def test_generate_se_intervals_stretched_plant(tmp_path):
    # small gamma piles mass onto tau = 1 and fattens the tail; minute
    # rounding makes the interval law lattice-valued, so the checks are
    # qualitative: rate, clustering, and tail weight
    q = 2.5
    sample = _planted_intervals(tmp_path, q, 5.79, 0.43)
    expected = _expected_mean_interval(q)
    assert abs(sample.mean_interval - expected) / expected < 0.35
    p = 1.0 / expected
    assert np.mean(sample.tau == 1) > 2.0 * p
    assert np.mean(sample.scaled() > 4.0) > 1.5 * np.exp(-4.0)


def test_generate_se_intervals_exponential_plant(tmp_path):
    # a unit-mean exponential plant keeps the integer lattice fine relative
    # to the distribution, so the full shape survives the round trip
    q = 3.0
    model = SEModel.normalized(1.0, 1.0)
    sample = _planted_intervals(tmp_path, q, 1.0, 1.0)
    expected = _expected_mean_interval(q)
    assert abs(sample.mean_interval - expected) / expected < 0.15
    assert one_sample_ks(sample, model) < 0.15


class _CountingRng:
    """A numpy Generator that counts the random values it hands out."""

    def __init__(self, seed):
        self.rng, self.drawn = np.random.default_rng(seed), 0

    def __getattr__(self, name):
        def counted(*args, **kwargs):
            out = getattr(self.rng, name)(*args, **kwargs)
            self.drawn += np.size(out)
            return out

        return counted


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("cut", [0.05, 1.0, 1.808, 3.6])  # 1.0: a uniform body that is not flat
def test_abs_normal_between_draws_the_truncated_half_normal(cut, side):
    from scipy import stats

    lo, hi = (0.0, cut) if side == "below" else (cut, np.inf)
    n = 50_000
    rng = _CountingRng(23)
    x = synth._abs_normal_between(lo, hi, n, rng)
    assert len(x) == n
    assert np.all((lo <= x) & (x < hi))
    # |Z| given lo <= |Z| < hi is Z given lo <= Z < hi, for lo >= 0
    assert stats.kstest(x, stats.truncnorm(lo, hi).cdf).pvalue > 1e-3
    assert rng.drawn <= 4 * n


def test_se_intervals_bytes_depend_only_on_seed(tmp_path):
    from volint.cli import main

    def corpus(seed, name):
        path = tmp_path / name
        assert main(["synth", "--kind", "se_intervals", "--n", "5000", "--seed", str(seed), "--out", str(path)]) == 0
        return path.read_bytes()

    first = corpus(4, "a.csv")
    assert corpus(4, "b.csv") == first
    assert corpus(5, "c.csv") != first
