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
from volint.synth import ndtr, ndtri


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


_HALF_NORMAL_STD = np.sqrt(1.0 - 2.0 / np.pi)


def test_ndtri_matches_scipy_bit_for_bit():
    from scipy import special

    rng = np.random.default_rng(20)
    f_cut = 2.0 * special.ndtr(3.0 * _HALF_NORMAL_STD) - 1.0
    inputs = {
        "uniform": rng.uniform(0.0, 1.0, 1_000_000),
        # the two ranges _gen_se_prices feeds it: |z| below and above the cut
        "below cut": (rng.uniform(0.0, f_cut, 200_000) + 1.0) / 2.0,
        "above cut": (rng.uniform(f_cut, 1.0, 200_000) + 1.0) / 2.0,
        "far tail": 10.0 ** rng.uniform(-300.0, -1.0, 200_000),
        "edges": np.array([0.0, 1.0, -1e-300, -0.5, 1.0 + 1e-15, 2.0, -np.inf, np.inf, np.nan, 5e-324]),
        # either side of the exp(-2) and exp(-32) switches
        "switches": np.concatenate(
            [c + np.arange(-50, 51) * np.spacing(c) for c in (np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0))]
        ),
    }
    for name, y in inputs.items():
        assert np.array_equal(ndtri(y), special.ndtri(y), equal_nan=True), name


def test_ndtr_matches_scipy_bit_for_bit():
    from scipy import special

    rng = np.random.default_rng(21)
    # the switches: |x| = sqrt(1/2) (a = 1), erfc's x = 1 and x = 8, and exp underflow at x^2 = log(DBL_MAX)
    switches = [1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * 7.09782712893383996843e2)]
    a = np.concatenate(
        [
            rng.uniform(-40.0, 40.0, 200_000),
            *(s * c + np.arange(-50, 51) * np.spacing(c) for c in switches for s in (-1.0, 1.0)),
            np.arange(500, 6001) / 1000.0 * _HALF_NORMAL_STD,  # the cut of every q = 0.5, 0.501, ..., 6
            [0.0, -np.inf, np.inf, np.nan],
        ]
    )
    ours = np.array([ndtr(x) for x in a.tolist()])
    assert np.array_equal(ours, special.ndtr(a), equal_nan=True)


@pytest.mark.parametrize(
    "params, seed",
    [({}, 0), ({"q": 2.5, "a": 5.79, "gamma": 0.43}, 12), ({"q": 4.0, "a": 1.0, "gamma": 1.0}, 3)],
)
def test_se_corpus_bytes_match_scipy_normal(tmp_path, monkeypatch, params, seed):
    from scipy import special

    spec = SynthSpec(kind="se_intervals", n=20_000, seed=seed, params=params)
    generate_minute_csv(spec, tmp_path / "ours.csv")
    monkeypatch.setattr(synth, "ndtr", special.ndtr)
    monkeypatch.setattr(synth, "ndtri", special.ndtri)
    generate_minute_csv(spec, tmp_path / "scipy.csv")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "scipy.csv").read_bytes()
