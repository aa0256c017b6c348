"""Tick parsing, calendars, and minute resampling."""

from datetime import date

import numpy as np
import pytest

from volint import (
    EmptySeriesError,
    FormatError,
    MinuteSeries,
    TickRecord,
    TradingCalendar,
    parse_ticks,
    sample_minutely,
    tick_days,
    write_minute_csv,
)

DAY = date(2004, 1, 5)


def test_parse_iso_and_epoch(tick_csv):
    path = tick_csv(
        [
            "2004-01-05T09:30:01,100.5",
            "1073295002.5,100.75",  # 2004-01-05 09:30:02.5 UTC
            "2004-01-05T09:30:04,101.0",
        ]
    )
    parsed = parse_ticks(path)
    assert parsed.skipped == 0
    assert len(parsed.records) == 3
    assert [r.price for r in parsed.records] == [100.5, 100.75, 101.0]
    ts = [r.timestamp for r in parsed.records]
    assert ts == sorted(ts)
    assert ts[1] - ts[0] == 1.5


def test_parse_requires_header(tick_csv):
    path = tick_csv(["2004-01-05T09:30:01,100.5"], header="time,px")
    with pytest.raises(FormatError):
        parse_ticks(path)


def test_parse_skips_bad_rows(tick_csv):
    path = tick_csv(
        [
            "2004-01-05T09:30:01,100.5",
            "not-a-time,100.6",
            "2004-01-05T09:30:03,-4.0",
            "2004-01-05T09:30:04,nan",
            "2004-01-05T09:30:05,100.9",
            "2004-01-05T09:30:02,101.0",  # goes backwards
            "2004-01-05T09:30:06,101.1",
            "2004-01-05T09:30:07,101.2",
        ]
    )
    parsed = parse_ticks(path)
    assert parsed.skipped == 4
    assert [r.price for r in parsed.records] == [100.5, 100.9, 101.1, 101.2]


def test_parse_majority_garbage_rejected(tick_csv):
    good = ["2004-01-05T09:30:01,100.5", "2004-01-05T09:30:02,100.6"]
    # exactly half bad is tolerated, strictly more is not
    path = tick_csv(good + ["x,1", "y,2"])
    assert parse_ticks(path).skipped == 2
    path = tick_csv(good + ["x,1", "y,2", "z,3"])
    with pytest.raises(FormatError):
        parse_ticks(path)


def test_parse_missing_file(tmp_path):
    with pytest.raises(OSError):
        parse_ticks(tmp_path / "nope.csv")


def test_default_calendar_slots():
    cal = TradingCalendar.for_days([DAY])
    slots = cal.slots
    assert len(slots) == 240
    assert slots[0] == 9 * 60 + 31
    assert slots[119] == 11 * 60 + 30
    assert slots[120] == 13 * 60 + 1
    assert slots[-1] == 15 * 60
    assert np.all(np.diff(slots) > 0)
    assert np.sum(cal.session_id == 0) == 120
    assert np.sum(cal.session_id == 1) == 120


def test_calendar_from_json_day_list(tmp_path):
    path = tmp_path / "cal.json"
    path.write_text(
        '{"days": ["2004-01-05", "2004-01-06"],'
        ' "sessions": [["10:00", "10:05"]]}'
    )
    cal = TradingCalendar.from_json(path)
    assert cal.days == (date(2004, 1, 5), date(2004, 1, 6))
    assert list(cal.slots) == [601, 602, 603, 604, 605]


def test_calendar_from_json_range(tmp_path):
    path = tmp_path / "cal.json"
    path.write_text('{"start": "2004-01-05", "end": "2004-01-12"}')
    cal = TradingCalendar.from_json(path)
    # Jan 5-9 and Jan 12 are weekdays
    assert len(cal.days) == 6
    assert cal.days[-1] == date(2004, 1, 12)
    assert len(cal.slots) == 240


def test_calendar_bad_json(tmp_path):
    path = tmp_path / "cal.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        TradingCalendar.from_json(path)


def test_calendar_rejects_overlapping_sessions():
    with pytest.raises(ValueError):
        TradingCalendar(
            days=(DAY,),
            sessions=((570, 700), (690, 900)),
        )


def _ticks_at(times_prices):
    path_rows = [f"2004-01-05T{t},{p}" for t, p in times_prices]
    return path_rows


def test_sample_nearest_within_window(tick_csv):
    cal = TradingCalendar.for_days([DAY])
    path = tick_csv(
        _ticks_at(
            [
                ("09:31:10", "100.0"),  # 10 s past the 09:31 mark
                ("09:33:00", "101.0"),  # exact
                ("09:35:29", "102.0"),  # 29 s past 09:35
            ]
        )
    )
    series = sample_minutely(parse_ticks(path).records, cal)
    row = series.prices[0]
    assert row[0] == 100.0  # 09:31
    assert np.isnan(row[1])  # 09:32 has nothing within 30 s
    assert row[2] == 101.0  # 09:33
    assert row[4] == 102.0  # 09:35
    assert series.n_present == 3


def test_sample_tie_prefers_earlier(tick_csv):
    cal = TradingCalendar.for_days([DAY])
    path = tick_csv(
        _ticks_at([("09:30:50", "99.0"), ("09:31:10", "100.0")])
    )
    series = sample_minutely(parse_ticks(path).records, cal)
    assert series.prices[0, 0] == 99.0


def test_sample_window_inclusive_at_30s(tick_csv):
    cal = TradingCalendar.for_days([DAY])
    path = tick_csv(_ticks_at([("09:31:30", "100.0")]))
    series = sample_minutely(parse_ticks(path).records, cal)
    assert series.prices[0, 0] == 100.0


def test_sample_no_usable_ticks(tick_csv):
    cal = TradingCalendar.for_days([DAY])
    path = tick_csv(_ticks_at([("03:00:00", "100.0")]))
    with pytest.raises(EmptySeriesError):
        sample_minutely(parse_ticks(path).records, cal)
    with pytest.raises(EmptySeriesError):
        sample_minutely([], cal)


def test_sample_rejects_unsorted():
    from volint.ingest import TickRecord

    cal = TradingCalendar.for_days([DAY])
    recs = [TickRecord(2000.0, 1.0), TickRecord(1000.0, 1.0)]
    with pytest.raises(ValueError):
        sample_minutely(recs, cal)


def test_tick_days(tick_csv):
    path = tick_csv(
        [
            "2004-01-05T09:31:00,100.0",
            "2004-01-05T10:00:00,100.5",
            "2004-01-07T09:31:00,101.0",
        ]
    )
    days = tick_days(parse_ticks(path).records)
    assert tuple(days) == (date(2004, 1, 5), date(2004, 1, 7))


@pytest.mark.parametrize(
    "offset, expected",
    [
        (0, (date(2004, 1, 5), date(2004, 1, 6))),
        (480, (date(2004, 1, 6),)),
    ],
)
def test_tick_days_at_midnight(offset, expected):
    midnight = 1073347200.0  # 2004-01-06 00:00:00 UTC
    ticks = [TickRecord(midnight - 0.5, 1.0), TickRecord(midnight, 1.0)]
    assert tick_days(ticks, utc_offset_minutes=offset) == expected


def test_minute_csv_round_trip(tmp_path, rng):
    cal = TradingCalendar.for_days([date(2004, 1, 5), date(2004, 1, 6)])
    prices = np.exp(rng.normal(np.log(100.0), 0.01, size=(2, 240)))
    prices[0, 7] = np.nan
    prices[1, 100] = np.nan
    original = MinuteSeries(
        days=cal.days, slots=cal.slots, session_id=cal.session_id, prices=prices
    )
    path = tmp_path / "minutes.csv"
    write_minute_csv(original, path)

    parsed = parse_ticks(path)
    assert parsed.skipped == 0
    rebuilt = sample_minutely(parsed.records, cal)
    np.testing.assert_array_equal(rebuilt.prices, original.prices)
