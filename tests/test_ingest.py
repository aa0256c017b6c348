"""Tick parsing, calendars, and minute resampling."""

import csv
import io
import math
from calendar import timegm
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volint import (
    EmptySeriesError,
    FormatError,
    MinuteSeries,
    ParsedTicks,
    SynthSpec,
    TickRecord,
    Ticks,
    TradingCalendar,
    compute_volatility,
    deseasonalize,
    generate_minute_csv,
    intraday_pattern,
    normalize,
    parse_ticks,
    sample_minutely,
    tick_days,
    write_minute_csv,
)
from volint.ingest import _CHUNK_CHARS
from volint.pipeline import _write_volatility_csv, build_volatility

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
        sample_minutely(Ticks(np.array([]), np.array([])), cal)


def test_sample_rejects_unsorted():
    cal = TradingCalendar.for_days([DAY])
    ticks = Ticks(np.array([2000.0, 1000.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        sample_minutely(ticks, cal)


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
    ticks = Ticks(np.array([midnight - 0.5, midnight]), np.array([1.0, 1.0]))
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


def test_minute_csv_round_trip_through_midnight_close(tmp_path):
    # the mark of a session closing at 24:00 is written as the next day's 00:00
    cal = TradingCalendar(days=(date(2024, 1, 2), date(2024, 1, 3)), sessions=((1430, 1440),))
    start = timegm((2024, 1, 2, 23, 50, 0))
    minutes = 60.0 * np.arange(11)
    ticks = Ticks(
        np.concatenate((start + minutes, start + 86_400.0 + minutes)),
        np.concatenate((100.0 + np.arange(11), 200.0 + np.arange(11))),
    )
    original = sample_minutely(ticks, cal)
    assert np.isfinite(original.prices).all()
    path = tmp_path / "minutes.csv"
    write_minute_csv(original, path)

    lines = path.read_text().splitlines()
    assert lines[10] == "2024-01-03T00:00:00,110.0"
    assert lines[-1] == "2024-01-04T00:00:00,210.0"
    rebuilt = sample_minutely(parse_ticks(path).records, cal)
    np.testing.assert_array_equal(rebuilt.prices, original.prices)


# A per-row reference parser: ``parse_ticks`` must match it bit for bit,
# or raise the same exception type.
def _ref_parse_timestamp(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        pass
    iso = text.strip()
    if iso.endswith(("Z", "z")):
        iso = iso[:-1] + "+00:00"
    dt = datetime.fromisoformat(iso)
    if dt.tzinfo is None:
        return timegm(dt.timetuple()) + dt.microsecond * 1e-6
    return dt.timestamp()


def _ref_parse_tick_lines(fh) -> ParsedTicks:
    reader = csv.reader(fh)
    header = None
    for row in reader:
        if row and any(cell.strip() for cell in row):
            header = [cell.strip().lower() for cell in row]
            break
    if header is None or header[:2] != ["timestamp", "price"]:
        raise FormatError("tick CSV must start with a 'timestamp,price' header")

    records: list[TickRecord] = []
    skipped = 0
    n_data = 0
    last_ts = -math.inf
    for row in reader:
        if not row or not any(cell.strip() for cell in row):
            continue
        n_data += 1
        if len(row) < 2:
            skipped += 1
            continue
        try:
            ts = _ref_parse_timestamp(row[0].strip())
            price = float(row[1])
        except (ValueError, OverflowError):
            skipped += 1
            continue
        if not (math.isfinite(ts) and math.isfinite(price)) or price <= 0 or ts < last_ts:
            skipped += 1
            continue
        last_ts = ts
        records.append(TickRecord(ts, price))
    if n_data and skipped * 2 > n_data:
        raise FormatError(f"{skipped} of {n_data} tick lines malformed")
    return ParsedTicks(records, skipped)


_GARBAGE = st.text(alphabet="0123456789:-+.eETZz _nainf x", max_size=12)
_NAIVE = st.builds(
    datetime.isoformat,
    st.datetimes(min_value=datetime(2004, 1, 5, 9), max_value=datetime(2004, 1, 5, 9, 0, 3)),
    st.sampled_from(["T", " "]),
    st.sampled_from(["seconds", "milliseconds", "microseconds"]),
)
_STAMPS = st.one_of(
    st.sampled_from(["1e10", "nan", "inf", "-0.0", "1073295002.5", "1073295002"]),
    st.floats(min_value=1.0732e9, max_value=1.0733e9).map(repr),
    _NAIVE,
    st.dates(min_value=date(2004, 1, 4), max_value=date(2004, 1, 6)).map(date.isoformat),
    st.tuples(_NAIVE, st.sampled_from(["Z", "z", "+08:00", "-05:30", "+00:00"])).map("".join),
    _GARBAGE,
)
_PRICES = st.one_of(
    st.sampled_from(["0", "-1.5", "nan", "inf", "1e400", "1_000", "100.5", " 7 ", ""]),
    st.floats(min_value=-10.0, max_value=1e6).map(repr),
    _GARBAGE,
)
_GOOD = st.tuples(
    st.one_of(_NAIVE, st.floats(min_value=1.0732e9, max_value=1.0733e9).map(repr)),
    st.floats(min_value=0.01, max_value=1e6).map(repr),
).map(",".join)
_ODD = st.one_of(
    st.tuples(_STAMPS, _PRICES).map(",".join),
    st.tuples(_STAMPS, _PRICES, _GARBAGE).map(",".join),
    _STAMPS,  # a one-field row
    st.sampled_from(["", ",,", "   ", " , ", ","]),
)


@st.composite
def _bodies(draw):
    lines = draw(st.lists(_GOOD, max_size=10)) + draw(st.lists(_ODD, max_size=8))
    return "timestamp,price\n" + "\n".join(draw(st.permutations(lines))) + "\n"


# Bodies of several parse chunks. Every good line has the same length, so
# where a chunk ends does not depend on what the line says.
def _long_lines(n=6000):
    stamps = (datetime.fromtimestamp(1073295000 + i, timezone.utc) for i in range(n))
    return [f"{t:%Y-%m-%dT%H:%M:%S},{100 + i % 997 / 1000:.3f}" for i, t in enumerate(stamps)]


def _long_body(lines, eol="\n"):
    return "timestamp,price" + eol + eol.join(lines) + eol


def _with_lines_at(at, odd, eol="\n"):
    lines = _long_lines()
    lines[at:at] = odd
    return _long_body(lines, eol)


def _mixed_endings():
    lines = _long_lines()
    lines[2500:2500] = ["x,1", "2004-02-30T09:30:00,1.5", ",,"]
    eols = ("\n", "\r\n", "\r\n")
    return "timestamp,price\r\n" + "".join(line + eols[i % 3] for i, line in enumerate(lines))


def _quote_across_chunks(eol="\n"):
    """A body whose first quote opens a stamp field that runs into the third chunk."""
    lines = _long_lines()
    fh = io.StringIO(_long_body(lines, eol))
    fh.readline()
    last = len(fh.readlines(_CHUNK_CHARS)) + len(fh.readlines(_CHUNK_CHARS)) - 1
    stamp, price = lines[last].split(",")
    # the opening line keeps the length of the line it replaces, so the chunk still ends there
    lines[last] = f'"{stamp}{" " * len(price)}{eol}",{price}'
    return _long_body(lines, eol)


_ODD_LINES = ["x,1", " , ", "", "2004-02-30T09:30:00,1.5", "a,b,c", "2004-01-05T09:30:00,-1"]
_LONG_BODIES = [
    _with_lines_at(2500, _ODD_LINES),
    _with_lines_at(2500, _ODD_LINES, eol="\r\n"),
    _with_lines_at(5000, ["2004-01-05T10:00:00,nan", "y"], eol="\r\n"),
    _mixed_endings(),
    _with_lines_at(2500, ["2004-01-05T10:00:00,1.5\r2004-01-05T10:00:01,1.5"]),  # a lone CR
    _with_lines_at(2500, ['"2004-01-05T10:00:00\n",1.5', '2004-01-05T10:00:01,"1.\n5"']),
    _quote_across_chunks(),
    _quote_across_chunks("\r\n"),
]

# stamps around the plain YYYY-MM-DDTHH:MM:SS form, each between good lines
_EDGE_STAMPS = [
    "2004-02-30T10:00:00",
    "2000-02-29T10:00:00",
    "1900-02-29T10:00:00",
    "2004-02-29 10:00:00",
    "2004-13-01T10:00:00",
    "2004-00-01T10:00:00",
    "2004-01-00T10:00:00",
    "2004-04-31T10:00:00",
    "2004-01-05T24:00:00",
    "2004-01-05T10:60:00",
    "2004-01-05T10:00:60",
    "0000-01-01T00:00:00",
    "0001-01-01T00:00:00",
    "9999-12-31T23:59:59",
    "2004-01-05 10:00:00",
    "2004-01-05T10:00:00 ",
    "2004-01-05t10:00:00",
    "2004/01/05T10:00:00",
    "\uff12\uff10\uff10\uff14-01-05T10:00:00",
    "2004-01-05T1\u0660:00:00",
]


def _edge_body(stamp):
    return f"timestamp,price\n2004-01-05T09:30:00,1.0\n{stamp},2.0\n2004-01-05T09:30:01,3.0\n"


def _examples(bodies):
    def add(test):
        for body in reversed(bodies):
            test = example(body)(test)
        return test

    return add


@_examples(_LONG_BODIES + [_edge_body(s) for s in _EDGE_STAMPS])
@settings(max_examples=300, derandomize=True, deadline=None)
@given(_bodies())
def test_parse_matches_per_row_reference(text):
    try:
        expected = _ref_parse_tick_lines(io.StringIO(text))
    except Exception as e:  # the column parser must raise the same type
        with pytest.raises(type(e)):
            parse_ticks(io.StringIO(text))
        return
    got = parse_ticks(io.StringIO(text))
    assert got.skipped == expected.skipped
    want = np.array([(r.timestamp, r.price) for r in expected.records], dtype=np.float64).reshape(-1, 2)
    assert got.records.timestamps.tobytes() == want[:, 0].tobytes()
    assert got.records.prices.tobytes() == want[:, 1].tobytes()
    assert list(got.records) == expected.records


def test_backward_check_ignores_invalid_rows(tick_csv):
    # the negative-price row's later stamp must not make 09:30:05 "backward"
    path = tick_csv(
        [
            "2004-01-05T09:30:01,100.0",
            "2004-01-05T09:30:09,-1.0",
            "2004-01-05T09:30:05,101.0",
        ]
    )
    parsed = parse_ticks(path)
    assert parsed.skipped == 1
    assert [r.price for r in parsed.records] == [100.0, 101.0]


def test_equal_timestamps_are_both_kept(tick_csv):
    path = tick_csv(["2004-01-05T09:30:01,100.0", "2004-01-05T09:30:01,100.5"])
    parsed = parse_ticks(path)
    assert parsed.skipped == 0
    assert [r.price for r in parsed.records] == [100.0, 100.5]


def test_aware_stamps_shift_to_utc(tick_csv):
    path = tick_csv(
        [
            "2004-01-05T09:30:00,1.0",
            "2004-01-05T17:30:00+08:00,2.0",
            "2004-01-05T09:30:00Z,3.0",
        ]
    )
    parsed = parse_ticks(path)
    assert parsed.skipped == 0
    assert parsed.records.timestamps.tolist() == [1073295000.0] * 3


def test_date_only_stamp_is_midnight(tick_csv):
    ticks, skipped = parse_ticks(tick_csv(["2004-01-05,1.0"]))
    assert skipped == 0
    assert isinstance(ticks, Ticks) and len(ticks) == 1
    assert list(ticks) == [TickRecord(1073260800.0, 1.0)]


def test_blank_field_lines_are_not_counted(tick_csv):
    good = ["2004-01-05T09:30:01,100.5", "2004-01-05T09:30:02,100.6"]
    blank = [",,", "   ", " , ", ""]
    path = tick_csv(blank + good + blank + ["x,1", "y,2"] + blank)
    assert parse_ticks(path).skipped == 2
    path = tick_csv(good + blank + ["x,1", "y,2", "z,3"])
    with pytest.raises(FormatError, match="3 of 5"):
        parse_ticks(path)


def test_minute_csv_pinned_bytes(tmp_path):
    # 09:32 of the first day and the whole afternoon of the second are missing
    cal = TradingCalendar(days=(DAY, date(2004, 1, 6)), sessions=((570, 573), (780, 783)))
    nan = np.nan
    prices = np.array(
        [
            [1.0000000000000002, nan, 0.1 + 0.2, 12345678901234567.0, 100.0, 2.5e-7],
            [3.0, 1e22, 99.99, nan, nan, nan],
        ]
    )
    ms = MinuteSeries(days=cal.days, slots=cal.slots, session_id=cal.session_id, prices=prices)
    path = tmp_path / "minutes.csv"
    write_minute_csv(ms, path)
    assert path.read_bytes() == (
        b"timestamp,price\r\n"
        b"2004-01-05T09:31:00,1.0000000000000002\r\n"
        b"2004-01-05T09:33:00,0.30000000000000004\r\n"
        b"2004-01-05T13:01:00,1.2345678901234568e+16\r\n"
        b"2004-01-05T13:02:00,100.0\r\n"
        b"2004-01-05T13:03:00,2.5e-07\r\n"
        b"2004-01-06T09:31:00,3.0\r\n"
        b"2004-01-06T09:32:00,1e+22\r\n"
        b"2004-01-06T09:33:00,99.99\r\n"
    )


def test_minute_csv_skips_a_day_without_prices(tmp_path):
    cal = TradingCalendar(days=(DAY, date(2004, 1, 6), date(2004, 1, 7)), sessions=((570, 572),))
    nan = np.nan
    prices = np.array([[1.5, nan], [nan, nan], [nan, 2.5]])
    ms = MinuteSeries(days=cal.days, slots=cal.slots, session_id=cal.session_id, prices=prices)
    path = tmp_path / "minutes.csv"
    write_minute_csv(ms, path)
    assert path.read_bytes() == (
        b"timestamp,price\r\n" b"2004-01-05T09:31:00,1.5\r\n" b"2004-01-07T09:32:00,2.5\r\n"
    )


@pytest.fixture(scope="module")
def corpus_140k(tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "ticks.csv"
    ms = generate_minute_csv(SynthSpec(kind="iid_gaussian_abs", n=140_000, seed=1), path)
    return path, ms


def test_parse_memory_is_column_sized(corpus_140k, peak_mib):
    # two float64 columns of 141k rows take 2.2 MiB; a TickRecord per row took 19 MiB
    path, _ = corpus_140k
    assert peak_mib(parse_ticks, path) < 8


def test_minute_writer_streams_by_day(corpus_140k, tmp_path, peak_mib):
    _, ms = corpus_140k
    assert peak_mib(write_minute_csv, ms, tmp_path / "minutes.csv") < 4


@pytest.mark.parametrize("text", _LONG_BODIES[:6], ids=["lf", "crlf", "late", "mixed", "lone-cr", "quoted"])
def test_parse_file_matches_reference(tmp_path, text):
    # a file is read with newline="", so a lone CR ends a line there
    path = tmp_path / "ticks.csv"
    path.write_bytes(text.encode())
    with open(path, newline="") as fh:
        expected = _ref_parse_tick_lines(fh)
    got = parse_ticks(path)
    assert got.skipped == expected.skipped
    assert list(got.records) == expected.records


def test_alignment_memory_is_block_sized(corpus_140k, peak_mib):
    # aligning all 140k marks at once held ten full-length temporaries, 12 MiB
    path, _ = corpus_140k
    ticks = parse_ticks(path).records
    assert peak_mib(sample_minutely, ticks, TradingCalendar.for_days(tick_days(ticks))) < 6


def test_volatility_memory_is_series_sized(corpus_140k, peak_mib):
    # the series (float64 values, int32 labels) takes 2.1 MiB; int64 labels,
    # full-length temporaries and np.unique's inverse took the peak to 10.9 MiB
    _, ms = corpus_140k
    assert peak_mib(build_volatility, ms) < 6


def test_volatility_writer_streams_by_day(corpus_140k, tmp_path, peak_mib):
    _, ms = corpus_140k
    raw = compute_volatility(ms)
    v = normalize(deseasonalize(raw, intraday_pattern(raw)))
    days = [d.isoformat() for d in ms.days]
    assert peak_mib(_write_volatility_csv, days, v, tmp_path / "volatility.csv") < 4
