"""Tick ingestion and minute resampling.

Input is a tick CSV with a required ``timestamp,price`` header. Timestamps
are ISO-8601 or epoch seconds. Naive timestamps are taken as exchange
wall-clock time; aware ones are converted to UTC and shifted into wall-clock
by the calendar's ``utc_offset_minutes`` (leave it 0 when the feed already
carries wall-clock stamps).

Prices are aligned to minute-end marks inside trading sessions: each mark
takes the nearest tick within 30 seconds, ties going to the earlier tick.
A minute with no tick in that window stays missing.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from functools import cached_property
from itertools import chain
from operator import add
from pathlib import Path
from typing import IO, Iterable, NamedTuple

import numpy as np

from .errors import EmptySeriesError, FormatError

DEFAULT_SESSIONS = (("09:30", "11:30"), ("13:00", "15:00"))
ALIGN_WINDOW_SECONDS = 30.0
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_CHUNK_CHARS = 1 << 16  # the parser reads whole lines about this many characters at a time
_ALIGN_DAYS = 32  # minute marks are aligned this many days at a time
# a plain stamp is YYYY-MM-DDTHH:MM:SS, or the same with a space for the T
_PLAIN_STAMP_LEN = 19
_STAMP_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])
_DAYS_BEFORE_MONTH = np.concatenate(([0], np.cumsum(_DAYS_IN_MONTH[:-1])))


@dataclass(frozen=True)
class TickRecord:
    """One trade: seconds since the Unix epoch and a positive price."""

    timestamp: float
    price: float


def _minute_of_day(hhmm: str) -> int:
    h, m = hhmm.split(":")
    return int(h) * 60 + int(m)


@dataclass(frozen=True)
class TradingCalendar:
    """Trading days plus intraday sessions, as minutes since midnight.

    Minute marks are the minute *ends* of each session: a 09:30 to 11:30
    session yields marks 09:31 through 11:30.
    """

    days: tuple[date, ...]
    sessions: tuple[tuple[int, int], ...] = tuple(
        (_minute_of_day(o), _minute_of_day(c)) for o, c in DEFAULT_SESSIONS
    )
    utc_offset_minutes: int = 0

    def __post_init__(self):
        if not self.days:
            raise ValueError("calendar needs at least one day")
        if list(self.days) != sorted(set(self.days)):
            raise ValueError("calendar days must be sorted and unique")
        if not self.sessions:
            raise ValueError("calendar needs at least one session")
        prev_close = -1
        for o, c in self.sessions:
            if not (0 <= o < c <= 24 * 60):
                raise ValueError(f"bad session ({o}, {c}): need 0 <= open < close <= 1440")
            if o < prev_close:
                raise ValueError("sessions must be ordered and non-overlapping")
            prev_close = c

    @classmethod
    def for_days(cls, days: Iterable[date]) -> "TradingCalendar":
        return cls(days=tuple(sorted(set(days))))

    @classmethod
    def from_json(cls, path: str | Path) -> "TradingCalendar":
        """Load a calendar file.

        Accepts either an explicit ``"days"`` list of ISO dates or a
        ``"start"``/``"end"`` range with optional ``"weekdays"`` (0=Monday,
        default Monday to Friday). ``"sessions"`` is a list of
        ``["HH:MM", "HH:MM"]`` pairs and defaults to two sessions,
        09:30-11:30 and 13:00-15:00.
        """
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as e:
            raise FormatError(f"calendar file {path}: invalid JSON ({e})") from e
        try:
            if "days" in raw:
                days = tuple(date.fromisoformat(d) for d in raw["days"])
            else:
                start = date.fromisoformat(raw["start"])
                end = date.fromisoformat(raw["end"])
                weekdays = set(raw.get("weekdays", [0, 1, 2, 3, 4]))
                days = []
                d = start
                while d <= end:
                    if d.weekday() in weekdays:
                        days.append(d)
                    d += timedelta(days=1)
                days = tuple(days)
            sessions = tuple(
                (_minute_of_day(o), _minute_of_day(c))
                for o, c in raw.get("sessions", DEFAULT_SESSIONS)
            )
            offset = int(raw.get("utc_offset_minutes", 0))
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"calendar file {path}: {e}") from e
        try:
            return cls(days=days, sessions=sessions, utc_offset_minutes=offset)
        except ValueError as e:
            raise FormatError(f"calendar file {path}: {e}") from e

    @cached_property
    def slots(self) -> np.ndarray:
        """Minute-of-day values of all marks in one day, session order."""
        return np.concatenate(
            [np.arange(o + 1, c + 1, dtype=np.int64) for o, c in self.sessions]
        )

    @cached_property
    def session_id(self) -> np.ndarray:
        """Session index of each slot in ``slots``."""
        return np.concatenate(
            [np.full(c - o, k, dtype=np.int64) for k, (o, c) in enumerate(self.sessions)]
        )

    @property
    def minutes_per_day(self) -> int:
        return len(self.slots)

    def day_epochs(self) -> np.ndarray:
        """Wall-clock midnight of each day, as epoch-like seconds."""
        return (np.array([d.toordinal() for d in self.days], dtype=np.float64) - _EPOCH_ORDINAL) * 86_400


@dataclass(frozen=True, eq=False)
class MinuteSeries:
    """Minute-mark prices, one row per day, NaN where the minute is missing."""

    days: tuple[date, ...]
    slots: np.ndarray
    session_id: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        if self.prices.shape != (len(self.days), len(self.slots)):
            raise ValueError("prices must have shape (n_days, n_slots)")
        if len(self.session_id) != len(self.slots):
            raise ValueError("session_id must align with slots")
        present = self.prices[np.isfinite(self.prices)]
        if present.size and np.any(present <= 0):
            raise ValueError("prices must be positive")

    @property
    def n_present(self) -> int:
        return int(np.isfinite(self.prices).sum())


@dataclass(frozen=True, eq=False)
class Ticks:
    """Epoch seconds and prices as two columns, in input order; iterates as ``TickRecord``s."""

    timestamps: np.ndarray
    prices: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self):
        return map(TickRecord, self.timestamps.tolist(), self.prices.tolist())


class ParsedTicks(NamedTuple):
    records: Ticks
    skipped: int


def _parse_timestamp(text: str) -> float:
    if ":" not in text:  # float() never accepts a ':'
        try:
            return float(text)
        except ValueError:
            pass
    iso = text.strip()
    if iso.endswith(("Z", "z")):
        iso = iso[:-1] + "+00:00"
    dt = datetime.fromisoformat(iso)
    if dt.tzinfo is None:
        days = dt.toordinal() - _EPOCH_ORDINAL
        return days * 86_400 + dt.hour * 3600 + dt.minute * 60 + dt.second + dt.microsecond * 1e-6
    return dt.timestamp()


def parse_ticks(source: str | Path | IO[str]) -> ParsedTicks:
    """Read tick records from a CSV stream or path.

    Returns the valid records in input order, as the two columns of a
    ``Ticks``, plus the count of skipped malformed lines. Lines with
    unparseable fields, non-positive or non-finite prices, or timestamps
    that go backwards are skipped. If more than half of the data lines are
    malformed the whole file is rejected with ``FormatError``. A missing
    ``timestamp,price`` header is also a ``FormatError``. Blank lines, and
    lines whose fields are all blank, are ignored.
    """
    if hasattr(source, "read"):
        return _parse_tick_lines(source)
    with open(source, "r", newline="") as fh:
        return _parse_tick_lines(fh)


def _plain_stamps(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of naive plain stamps, one per row of the byte matrix ``raw``.

    Also returns which rows are plain stamps that name a real date and time;
    for those the seconds equal ``_parse_timestamp``'s, since both sum whole
    seconds from ``date.toordinal``'s day count. Other rows get meaningless seconds.
    """
    d = raw[:, _STAMP_DIGITS] - np.uint8(ord("0"))  # a byte below '0' wraps above 9
    year = d[:, :4].astype(np.int64) @ [1000, 100, 10, 1]
    month, day, hour, minute, second = (d[:, 4:].reshape(-1, 5, 2).astype(np.int64) @ [10, 1]).T
    month = np.minimum(month, 13)  # months 0 and 13 have no days, so no day fits them
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    ok = (
        (d <= 9).all(axis=1)
        & (raw[:, [4, 7, 13, 16]] == np.frombuffer(b"--::", np.uint8)).all(axis=1)
        & ((raw[:, 10] == ord("T")) | (raw[:, 10] == ord(" ")))
        & (year >= 1)
        & (day >= 1)
        & (day <= _DAYS_IN_MONTH[month] + ((month == 2) & leap))
        & (hour <= 23)
        & (minute <= 59)
        & (second <= 59)
    )
    y = year - 1
    ordinal = (
        y * 365 + y // 4 - y // 100 + y // 400
        + _DAYS_BEFORE_MONTH[month] + ((month > 2) & leap) + day
    )
    seconds = (ordinal - _EPOCH_ORDINAL) * 86_400 + hour * 3600 + minute * 60 + second
    return seconds.astype(np.float64), ok


def _chunk_columns(text: str, width: int) -> tuple[np.ndarray, array] | None:
    """Timestamp and price columns of a chunk of whole lines that holds no quote.

    Returns None, leaving the chunk to ``csv.reader``, unless every line
    splits into the header's ``width`` fields exactly as ``csv.reader``
    splits it (no NUL, no lone CR, no field near the reader's size limit)
    and every price parses. Such a chunk has no blank line, so every line
    lands in the columns, with a NaN stamp where the stamp does not parse.
    """
    if "\0" in text or len(text) >= csv.field_size_limit():
        return None
    if not text.endswith("\n"):
        text += "\n"
    # ',', CR and LF never occur inside a multi-byte UTF-8 sequence
    b = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    if (b[np.flatnonzero(b == ord("\r")) + 1] != ord("\n")).any():
        return None
    seps = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    # each line's separators are width - 1 commas and then its newline
    newline = b[seps] == ord("\n")
    line_pattern = np.arange(width) == width - 1
    if len(seps) % width or not (newline.reshape(-1, width) == line_pattern).all():
        return None
    n = len(seps) // width
    # a CRLF leaves its CR on the last field, which is never the stamp; float() strips it
    fields = text[:-1].replace("\n", ",").split(",")
    try:
        prices = array("d", map(float, fields[1::width]))
    except ValueError:
        return None

    starts = np.concatenate(([0], seps[width - 1 :: width][:-1] + 1))
    plain = np.flatnonzero(seps[::width] - starts == _PLAIN_STAMP_LEN)
    seconds, ok = _plain_stamps(b[starts[plain, None] + np.arange(_PLAIN_STAMP_LEN)])
    ts = np.full(n, np.nan)
    ts[plain[ok]] = seconds[ok]
    stamps = fields[::width]
    for i in np.flatnonzero(np.isnan(ts)).tolist():  # every other stamp
        try:
            ts[i] = _parse_timestamp(stamps[i].strip())
        except (ValueError, OverflowError):
            pass  # stays NaN
    return ts, prices


def _append_rows(rows: Iterable[list[str]], ts_col: array, px_col: array) -> None:
    # every non-blank line lands in the columns; one that fails to parse is NaN
    for row in rows:
        try:
            ts, price = _parse_timestamp(row[0].strip()), float(row[1])
        except (IndexError, ValueError, OverflowError):
            if not any(cell.strip() for cell in row):
                continue
            ts = price = math.nan
        ts_col.append(ts)
        px_col.append(price)


def _parse_tick_lines(fh: IO[str]) -> ParsedTicks:
    reader = csv.reader(fh)
    header = None
    for row in reader:
        if row and any(cell.strip() for cell in row):
            header = [cell.strip().lower() for cell in row]
            break
    if header is None or header[:2] != ["timestamp", "price"]:
        raise FormatError("tick CSV must start with a 'timestamp,price' header")

    ts_col, px_col = array("d"), array("d")
    while lines := fh.readlines(_CHUNK_CHARS):
        text = "".join(lines)
        if '"' in text:
            # a quoted field may run into later chunks, so one reader takes the rest
            _append_rows(csv.reader(chain(lines, fh)), ts_col, px_col)
            break
        columns = _chunk_columns(text, len(header))
        if columns is None:
            _append_rows(csv.reader(lines), ts_col, px_col)
        else:
            ts_col.frombytes(columns[0].tobytes())
            px_col.extend(columns[1])

    ts, px = np.frombuffer(ts_col), np.frombuffer(px_col)
    valid = np.isfinite(ts) & np.isfinite(px) & (px > 0)
    # accepted stamps never decrease: the last one is the running maximum of earlier valid rows
    latest = np.maximum.accumulate(np.where(valid, ts, -np.inf))
    keep = valid & (ts >= np.concatenate(([-np.inf], latest[:-1])))
    skipped = len(ts) - int(keep.sum())
    if skipped * 2 > len(ts):
        raise FormatError(f"{skipped} of {len(ts)} tick lines malformed")
    return ParsedTicks(Ticks(ts[keep], px[keep]), skipped)


def _columns(ticks: Ticks | Iterable[TickRecord]) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(ticks, Ticks):
        return ticks.timestamps, ticks.prices
    pairs = np.array([(t.timestamp, t.price) for t in ticks], dtype=np.float64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def tick_days(ticks: Ticks | Iterable[TickRecord], utc_offset_minutes: int = 0) -> tuple[date, ...]:
    """Distinct wall-clock dates covered by ``Ticks`` or ``TickRecord``s, sorted."""
    day_numbers = sorted_unique((_columns(ticks)[0] + utc_offset_minutes * 60) // 86_400).tolist()
    return tuple(date(1970, 1, 1) + timedelta(days=int(d)) for d in day_numbers)


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """Distinct values of ``a``, sorted: ``np.unique(a)`` without the ``numpy.ma`` import it makes."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _nearest_prices(wall: np.ndarray, px: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Price of the nearest tick within the window of each mark, the earlier on a tie; else NaN."""
    j = np.searchsorted(wall, marks)
    left = j - 1
    right = np.minimum(j, len(wall) - 1)
    d_left = np.where(left >= 0, marks - wall[np.maximum(left, 0)], np.inf)
    d_right = np.where(j < len(wall), wall[right] - marks, np.inf)

    use_left = d_left <= d_right
    dist = np.where(use_left, d_left, d_right)
    idx = np.where(use_left, np.maximum(left, 0), right)
    return np.where(dist <= ALIGN_WINDOW_SECONDS, px[idx], np.nan)


def sample_minutely(ticks: Ticks | Iterable[TickRecord], cal: TradingCalendar) -> MinuteSeries:
    """Align ``Ticks`` or ``TickRecord``s to the calendar's minute marks.

    Each mark takes the nearest tick within 30 seconds; an exact tie between
    two ticks goes to the earlier one. Marks with no tick in the window are
    NaN. Raises ``EmptySeriesError`` when nothing lands in any session.
    """
    ts, px = _columns(ticks)
    if not len(ts):
        raise EmptySeriesError("no tick records")
    wall = ts + cal.utc_offset_minutes * 60.0
    if np.any(np.diff(wall) < 0):
        raise ValueError("ticks must be sorted by timestamp")

    slots = cal.slots
    offsets = slots * 60.0
    day_epochs = cal.day_epochs()
    prices = np.empty((len(day_epochs), len(slots)))
    for a in range(0, len(day_epochs), _ALIGN_DAYS):
        marks = day_epochs[a : a + _ALIGN_DAYS, None] + offsets
        prices[a : a + _ALIGN_DAYS] = _nearest_prices(wall, px, marks)
    if not np.isfinite(prices).any():
        raise EmptySeriesError("no ticks within the alignment window of any minute mark")
    return MinuteSeries(
        days=cal.days, slots=slots.copy(), session_id=cal.session_id.copy(), prices=prices
    )


def write_minute_csv(ms: MinuteSeries, path: str | Path) -> None:
    """Write a minute series back out in tick-CSV form (one row per present mark).

    Rows end in CRLF and prices are ``repr`` floats; the file is written a day
    at a time, each day as one string of ``timestamp,`` heads joined to prices.
    """
    slots = ms.slots.astype(np.int64, copy=False).tolist()
    # minute 1440, the close of a session ending at 24:00, is the next day's 00:00
    clock = [f"T{time(s // 60 % 24, s % 60).isoformat()}," for s in slots]
    next_day = [s // 1440 for s in slots]
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,price\r\n")
        for d, row in zip(ms.days, ms.prices):
            k = np.flatnonzero(np.isfinite(row)).tolist()
            if not k:
                continue
            day = (d.isoformat(), (d + timedelta(days=1)).isoformat())
            heads = [day[next_day[j]] + clock[j] for j in k]
            fh.write("\r\n".join(map(add, heads, map(repr, row[k].tolist()))) + "\r\n")
