"""Volatility construction: absolute log returns, intraday pattern removal,
and unit-variance normalization.

Volatility is R(t) = |ln Y(t) - ln Y(t-1)| between consecutive present
minute prices, labeled by the later minute. The intraday pattern A(s) is the
across-day mean of R at each minute-of-day slot; dividing by it removes the
daily U shape. Normalization divides by the population standard deviation
(divisor n, no mean removal), so thresholds q are in units of that scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePatternError, EmptySeriesError, ZeroVarianceError
from .ingest import MinuteSeries

_STAGES = ("raw", "deseasonalized")


@dataclass(frozen=True, eq=False)
class VolSeries:
    """Volatility values with day index and minute-of-day slot labels.

    ``compute_volatility`` stores ``day`` and ``slot`` as int32; any integer
    labels are accepted.
    """

    values: np.ndarray
    day: np.ndarray
    slot: np.ndarray
    stage: str

    def __post_init__(self):
        if not (len(self.values) == len(self.day) == len(self.slot)):
            raise ValueError("values, day, and slot must have equal length")
        if self.stage not in _STAGES:
            raise ValueError(f"stage must be one of {_STAGES}")
        if len(self.values) and (not np.all(np.isfinite(self.values)) or np.any(self.values < 0)):
            raise ValueError("volatility values must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class IntradayPattern:
    """Per-slot mean volatility A(s) with the effective day count per slot."""

    slots: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    def value_at(self, slot: np.ndarray) -> np.ndarray:
        """A(s) for each requested slot; NaN where the slot is unknown.

        The result is a new array, which the caller may overwrite.
        """
        slot = np.asarray(slot)
        pos = np.searchsorted(self.slots, slot.ravel())
        np.minimum(pos, len(self.slots) - 1, out=pos)
        out = self.values[pos]
        out[self.slots[pos] != slot.ravel()] = np.nan
        return out.reshape(slot.shape)


@dataclass(frozen=True, eq=False)
class NormVolSeries:
    """Normalized volatility v with population standard deviation 1, labeled as ``VolSeries``."""

    values: np.ndarray
    day: np.ndarray
    slot: np.ndarray

    def __post_init__(self):
        if not (len(self.values) == len(self.day) == len(self.slot)):
            raise ValueError("values, day, and slot must have equal length")
        if len(self.values) < 2:
            raise ValueError("normalized series needs at least two points")
        if not np.all(self.day[1:] >= self.day[:-1]):
            raise ValueError("day labels must not decrease")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("normalized volatility must be finite and non-negative")
        if abs(float(np.std(self.values)) - 1.0) > 1e-9:
            raise ValueError("normalized volatility must have population std 1")

    def __len__(self) -> int:
        return len(self.values)


def compute_volatility(ms: MinuteSeries) -> VolSeries:
    """Absolute log returns between consecutive present minute prices.

    Missing minutes are skipped, so a return can span a gap inside a
    session. Any return whose endpoints lie in different (day, session)
    blocks is dropped, which removes overnight and lunch-break returns.

    Each full-length temporary is released once used: the log and the abs
    are taken in place, and day and slot position come as int32 from one
    ``divmod``.
    """
    n_slots = ms.prices.shape[1]
    flat = ms.prices.ravel()
    idx = np.flatnonzero(np.isfinite(flat))
    if len(idx) < 2:
        raise EmptySeriesError("need at least two present prices to form a return")
    logp = flat[idx]
    np.log(logp, out=logp)
    day = np.empty(len(idx), dtype=np.int32)
    pos = np.empty(len(idx), dtype=np.int32)
    np.divmod(idx, n_slots, out=(day, pos), casting="same_kind")
    del idx
    r = np.diff(logp)
    del logp
    np.abs(r, out=r)

    # same (day, session) block
    session = ms.session_id[pos]
    keep = day[1:] == day[:-1]
    keep &= session[1:] == session[:-1]
    del session
    if not keep.any():
        raise EmptySeriesError("no within-session returns remain")
    values = r[keep]
    del r
    day = day[1:][keep]
    slot = ms.slots.astype(np.int32)[pos[1:][keep]]
    return VolSeries(values=values, day=day, slot=slot, stage="raw")


def intraday_pattern(vs: VolSeries) -> IntradayPattern:
    """Across-day mean volatility per minute-of-day slot."""
    if vs.stage != "raw":
        raise ValueError("intraday pattern is computed from raw volatility")
    # searchsorted positions hold 8 bytes a point, return_inverse about 30;
    # a bare np.unique would import numpy.ma
    slots, counts = np.unique(vs.slot, return_counts=True)
    sums = np.bincount(np.searchsorted(slots, vs.slot), weights=vs.values, minlength=len(slots))
    return IntradayPattern(slots=slots, values=sums / counts, counts=counts)


def deseasonalize(vs: VolSeries, pattern: IntradayPattern) -> VolSeries:
    """Divide volatility by the intraday pattern, slot by slot.

    A slot where the pattern is zero (or unknown) is only acceptable when
    the volatility there is zero too; the ratio is then taken as 0. The
    looked-up A(s) array becomes the output: A is set to inf where it is
    bad, and R / inf is 0.
    """
    if vs.stage != "raw":
        raise ValueError("deseasonalize expects raw volatility")
    a = pattern.value_at(vs.slot)
    bad = ~np.isfinite(a) | (a == 0)
    if np.any(bad & (vs.values > 0)):
        culprits = np.unique(vs.slot[bad & (vs.values > 0)])[:5]
        raise DegeneratePatternError(
            f"pattern is zero or unknown at slots {culprits.tolist()} with nonzero volatility"
        )
    a[bad] = np.inf
    return VolSeries(values=np.divide(vs.values, a, out=a), day=vs.day, slot=vs.slot, stage="deseasonalized")


def normalize(vs: VolSeries) -> NormVolSeries:
    """Scale deseasonalized volatility to population standard deviation 1.

    The divisor is sd = (<x^2> - <x>^2)^(1/2) with the n divisor; values are
    divided by sd but not mean-centered, so v stays non-negative.
    """
    if vs.stage != "deseasonalized":
        raise ValueError("normalize expects deseasonalized volatility")
    if len(vs.values) < 2:
        raise ZeroVarianceError("need at least two points to normalize")
    sd = float(np.std(vs.values))
    if sd == 0.0:
        raise ZeroVarianceError("volatility series is constant")
    return NormVolSeries(values=vs.values / sd, day=vs.day, slot=vs.slot)
