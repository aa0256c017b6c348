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
from calendar import timegm
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, NamedTuple

import numpy as np

from .errors import EmptySeriesError, FormatError

DEFAULT_SESSIONS = (("09:30", "11:30"), ("13:00", "15:00"))
ALIGN_WINDOW_SECONDS = 30.0


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
    def for_days(cls, days: Iterable[date], **kwargs) -> "TradingCalendar":
        return cls(days=tuple(sorted(set(days))), **kwargs)

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
        return np.array([timegm(d.timetuple()) for d in self.days], dtype=np.float64)


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


class ParsedTicks(NamedTuple):
    records: list[TickRecord]
    skipped: int


def _parse_timestamp(text: str) -> float:
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


def parse_ticks(source: str | Path | IO[str], fmt: str = "csv") -> ParsedTicks:
    """Read tick records from a CSV stream or path.

    Returns the valid records in input order plus the count of skipped
    malformed lines. Lines with unparseable fields, non-positive or
    non-finite prices, or timestamps that go backwards are skipped. If more
    than half of the data lines are malformed the whole file is rejected
    with ``FormatError``. A missing ``timestamp,price`` header is also a
    ``FormatError``.
    """
    if fmt != "csv":
        raise FormatError(f"unsupported tick format: {fmt!r}")
    if hasattr(source, "read"):
        return _parse_tick_lines(source)
    with open(source, "r", newline="") as fh:
        return _parse_tick_lines(fh)


def _parse_tick_lines(fh: IO[str]) -> ParsedTicks:
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
            ts = _parse_timestamp(row[0].strip())
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


def tick_days(ticks: Iterable[TickRecord], utc_offset_minutes: int = 0) -> tuple[date, ...]:
    """Distinct wall-clock dates covered by the ticks, sorted."""
    offset = utc_offset_minutes * 60
    day_numbers = {int((t.timestamp + offset) // 86_400) for t in ticks}
    return tuple(date(1970, 1, 1) + timedelta(days=d) for d in sorted(day_numbers))


def sample_minutely(ticks: list[TickRecord], cal: TradingCalendar) -> MinuteSeries:
    """Align ticks to the calendar's minute marks.

    Each mark takes the nearest tick within 30 seconds; an exact tie between
    two ticks goes to the earlier one. Marks with no tick in the window are
    NaN. Raises ``EmptySeriesError`` when nothing lands in any session.
    """
    if not ticks:
        raise EmptySeriesError("no tick records")
    wall = np.array([t.timestamp for t in ticks], dtype=np.float64)
    wall += cal.utc_offset_minutes * 60.0
    if np.any(np.diff(wall) < 0):
        raise ValueError("ticks must be sorted by timestamp")
    px = np.array([t.price for t in ticks], dtype=np.float64)

    slots = cal.slots
    marks = (cal.day_epochs()[:, None] + slots[None, :] * 60.0).ravel()
    j = np.searchsorted(wall, marks)
    left = j - 1
    right = np.minimum(j, len(wall) - 1)
    d_left = np.where(left >= 0, marks - wall[np.maximum(left, 0)], np.inf)
    d_right = np.where(j < len(wall), wall[right] - marks, np.inf)

    use_left = d_left <= d_right
    dist = np.where(use_left, d_left, d_right)
    idx = np.where(use_left, np.maximum(left, 0), right)
    prices = np.where(dist <= ALIGN_WINDOW_SECONDS, px[idx], np.nan)
    prices = prices.reshape(len(cal.days), len(slots))
    if not np.isfinite(prices).any():
        raise EmptySeriesError("no ticks within the alignment window of any minute mark")
    return MinuteSeries(
        days=cal.days, slots=slots.copy(), session_id=cal.session_id.copy(), prices=prices
    )


def write_minute_csv(ms: MinuteSeries, path: str | Path) -> None:
    """Write a minute series back out in tick-CSV form (one row per present mark)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "price"])
        for i, d in enumerate(ms.days):
            for k, slot in enumerate(ms.slots):
                p = ms.prices[i, k]
                if not np.isfinite(p):
                    continue
                stamp = datetime.combine(d, time(int(slot) // 60, int(slot) % 60))
                w.writerow([stamp.isoformat(), repr(float(p))])
