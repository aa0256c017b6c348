"""Absolute log returns, intraday pattern, deseasonalization, normalization."""

from datetime import date

import numpy as np
import pytest

from volint import (
    DegeneratePatternError,
    EmptySeriesError,
    MinuteSeries,
    NormVolSeries,
    TradingCalendar,
    VolSeries,
    ZeroVarianceError,
    compute_volatility,
    deseasonalize,
    intraday_pattern,
    normalize,
)

DAYS = (date(2004, 1, 5), date(2004, 1, 6))


def _series(prices, slots=None, session_id=None, days=None):
    prices = np.asarray(prices, dtype=float)
    n = prices.shape[1]
    if slots is None:
        slots = np.arange(571, 571 + n)
    if session_id is None:
        session_id = np.zeros(n, dtype=np.int64)
    if days is None:
        days = DAYS[: prices.shape[0]]
    return MinuteSeries(
        days=tuple(days),
        slots=np.asarray(slots, dtype=np.int64),
        session_id=np.asarray(session_id, dtype=np.int64),
        prices=prices,
    )


def test_hand_log_returns():
    series = _series([[100.0, 101.0, 100.5]])
    vol = compute_volatility(series)
    expected = [abs(np.log(101.0 / 100.0)), abs(np.log(100.5 / 101.0))]
    np.testing.assert_allclose(vol.values, expected, rtol=1e-12)
    assert list(vol.slot) == [572, 573]
    assert list(vol.day) == [0, 0]
    assert vol.stage == "raw"


def test_labels_are_int32():
    vol = compute_volatility(_series([[100.0, 101.0, 100.5], [100.2, np.nan, 100.4]]))
    assert vol.day.dtype == vol.slot.dtype == np.int32
    assert list(vol.day) == [0, 0, 1]
    assert list(vol.slot) == [572, 573, 573]


def test_gap_bridges_to_next_present_minute():
    series = _series([[100.0, np.nan, 102.0]])
    vol = compute_volatility(series)
    assert len(vol.values) == 1
    np.testing.assert_allclose(vol.values[0], abs(np.log(102.0 / 100.0)), rtol=1e-12)
    assert vol.slot[0] == 573


def test_session_and_overnight_boundaries():
    prices = np.array(
        [
            [100.0, 100.2, 100.1, 100.3],
            [100.5, 100.4, 100.6, 100.8],
        ]
    )
    series = _series(
        prices,
        slots=[571, 572, 781, 782],
        session_id=[0, 0, 1, 1],
    )
    kept = compute_volatility(series)
    # within-session pairs only: 2 per day
    assert len(kept.values) == 4
    assert list(kept.slot) == [572, 782, 572, 782]


def test_too_few_present_minutes():
    series = _series([[100.0, np.nan, np.nan]])
    with pytest.raises(EmptySeriesError):
        compute_volatility(series)


def test_pattern_means_and_counts():
    vol = VolSeries(
        values=np.array([1.0, 3.0, 2.0, 5.0]),
        day=np.array([0, 0, 1, 1]),
        slot=np.array([572, 573, 572, 573]),
        stage="raw",
    )
    pattern = intraday_pattern(vol)
    assert list(pattern.slots) == [572, 573]
    np.testing.assert_allclose(pattern.values, [1.5, 4.0])
    assert list(pattern.counts) == [2, 2]
    assert pattern.value_at(572) == 1.5
    assert np.isnan(pattern.value_at(999))
    got = pattern.value_at(np.array([[573, 570], [572, 574]]))
    np.testing.assert_array_equal(got, [[4.0, np.nan], [1.5, np.nan]])


def test_pattern_requires_raw_stage():
    vol = VolSeries(
        values=np.array([1.0, 2.0]),
        day=np.array([0, 0]),
        slot=np.array([572, 573]),
        stage="deseasonalized",
    )
    with pytest.raises(ValueError):
        intraday_pattern(vol)


def test_exact_daily_repetition_deseasonalizes_to_ones():
    per_slot = np.array([0.002, 0.005, 0.001, 0.004])
    vol = VolSeries(
        values=np.tile(per_slot, 3),
        day=np.repeat(np.arange(3), 4),
        slot=np.tile(np.arange(572, 576), 3),
        stage="raw",
    )
    pattern = intraday_pattern(vol)
    flat = deseasonalize(vol, pattern)
    np.testing.assert_allclose(flat.values, 1.0, rtol=1e-14)
    assert flat.stage == "deseasonalized"


def test_zero_pattern_with_zero_values_maps_to_zero():
    vol = VolSeries(
        values=np.array([0.0, 1.0, 0.0, 2.0]),
        day=np.array([0, 0, 1, 1]),
        slot=np.array([572, 573, 572, 573]),
        stage="raw",
    )
    pattern = intraday_pattern(vol)
    flat = deseasonalize(vol, pattern)
    assert flat.values[0] == 0.0
    assert flat.values[2] == 0.0


def test_zero_pattern_with_positive_value_fails():
    vol = VolSeries(
        values=np.array([0.0, 1.0]),
        day=np.array([0, 1]),
        slot=np.array([572, 572]),
        stage="raw",
    )
    pattern = intraday_pattern(vol)
    pattern.values[0] = 0.0
    with pytest.raises(DegeneratePatternError):
        deseasonalize(vol, pattern)


def _flat(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return VolSeries(
        values=values,
        day=np.zeros(n, dtype=np.int64),
        slot=np.arange(572, 572 + n),
        stage="deseasonalized",
    )


def test_normalize_uses_population_std_without_centering():
    norm = normalize(_flat([1.0, 2.0, 3.0, 4.0]))
    sd = np.sqrt(1.25)  # population variance of 1..4
    np.testing.assert_allclose(norm.values, np.array([1, 2, 3, 4]) / sd, rtol=1e-15)
    assert abs(np.std(norm.values) - 1.0) < 1e-12
    # no mean-centering: everything stays positive
    assert norm.values.min() > 0


def test_normalize_constant_series_fails():
    with pytest.raises(ZeroVarianceError):
        normalize(_flat([2.0, 2.0, 2.0]))


def test_normalized_series_rejects_decreasing_day():
    raw = np.array([1.0, 2.0, 3.0, 4.0])
    values, slot = raw / np.std(raw), np.arange(571, 575)
    assert len(NormVolSeries(values=values, day=np.array([0, 0, 1, 1]), slot=slot)) == 4
    with pytest.raises(ValueError, match="day labels must not decrease"):
        NormVolSeries(values=values, day=np.array([0, 1, 1, 0]), slot=slot)


def test_normalize_requires_deseasonalized_stage():
    vol = VolSeries(
        values=np.array([1.0, 2.0]),
        day=np.array([0, 0]),
        slot=np.array([572, 573]),
        stage="raw",
    )
    with pytest.raises(ValueError):
        normalize(vol)


def test_normalize_scale_invariant(rng):
    values = rng.lognormal(0.0, 1.0, 500)
    a = normalize(_flat(values))
    b = normalize(_flat(values * 7.25))
    np.testing.assert_allclose(a.values, b.values, rtol=1e-12)


def test_full_stack_on_minute_prices(rng):
    cal = TradingCalendar.for_days(DAYS)
    prices = np.exp(np.cumsum(rng.normal(0, 5e-4, (2, 240)), axis=1) + np.log(100))
    series = MinuteSeries(
        days=cal.days, slots=cal.slots, session_id=cal.session_id, prices=prices
    )
    raw = compute_volatility(series)
    # 239 returns per day, minus the lunch-spanning one
    assert len(raw.values) == 2 * 238
    pattern = intraday_pattern(raw)
    norm = normalize(deseasonalize(raw, pattern))
    assert abs(np.std(norm.values) - 1.0) < 1e-12
