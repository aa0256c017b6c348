"""Synthetic volatility corpora.

``gen_iid_volatility`` builds the memoryless null directly: normalized
absolute Gaussian values with the standard day/slot labels. Under it,
exceedances of q are independent with probability
p = 2 * (1 - Phi(q * sqrt(1 - 2/pi))), so intervals are geometric with mean
1/p. ``shuffle_series`` destroys temporal order while keeping the marginal.

``generate_minute_csv`` writes synthetic *prices* in the standard tick-CSV
form so synthetic data can flow through the identical ingestion pipeline as
real data: an iid Gaussian return corpus, a return-shuffled surrogate of an
existing file, or a corpus with planted stretched-exponential exceedance
gaps at one threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .ingest import MinuteSeries, TradingCalendar, parse_ticks, sample_minutely, tick_days, write_minute_csv
from .semodel import SEModel, analytic_moment, se_sample
from .volatility import NormVolSeries

KINDS = ("iid_gaussian_abs", "shuffled_from_file", "se_intervals")
_HALF_NORMAL_STD = math.sqrt(1.0 - 2.0 / math.pi)
_BASE_RETURN_SCALE = 5e-4
_START_DAY = date(2004, 1, 5)


def gen_iid_volatility(n: int, seed=None) -> NormVolSeries:
    """Memoryless normalized |Gaussian| volatility with standard labels.

    Labels follow the default two-session day: 240 slots per day, days
    numbered from 0. Requires n >= 100 so the normalization is meaningful.
    """
    if n < 100:
        raise ValueError("need n >= 100")
    rng = np.random.default_rng(seed)
    z = np.abs(rng.standard_normal(n))
    cal_slots = TradingCalendar(days=(_START_DAY,)).slots
    reps = -(-n // len(cal_slots))
    return NormVolSeries(
        values=z / np.std(z),
        day=np.arange(n) // len(cal_slots),
        slot=np.tile(cal_slots, reps)[:n],
    )


def shuffle_series(v: NormVolSeries, seed=None) -> NormVolSeries:
    """Random permutation of the values; labels stay in place."""
    rng = np.random.default_rng(seed)
    return NormVolSeries(values=rng.permutation(v.values), day=v.day.copy(), slot=v.slot.copy())


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic corpus.

    ``kind`` is one of ``iid_gaussian_abs``, ``shuffled_from_file``, or
    ``se_intervals``. ``n`` is the minimum number of volatility points the
    corpus yields after the standard pipeline (rounded up to whole days);
    the shuffled kind takes its length from the input file instead.
    Kind-specific ``params``: ``input`` (shuffled_from_file); ``a``,
    ``gamma``, and threshold ``q`` (se_intervals, defaults 14.2, 0.38, 3.0).
    """

    kind: str
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.kind != "shuffled_from_file" and self.n < 100:
            raise ValueError("need n >= 100")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.kind == "shuffled_from_file" and "input" not in self.params:
            raise ValueError("shuffled_from_file needs params['input']")


def _weekdays(count: int) -> tuple[date, ...]:
    days = []
    d = _START_DAY
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return tuple(days)


def _prices_from_returns(returns: np.ndarray, cal: TradingCalendar) -> MinuteSeries:
    logp = np.concatenate([[math.log(100.0)], np.cumsum(returns)])
    logp[1:] += logp[0]
    prices = np.exp(logp).reshape(len(cal.days), cal.minutes_per_day)
    return MinuteSeries(
        days=cal.days, slots=cal.slots.copy(), session_id=cal.session_id.copy(), prices=prices
    )


def _kept_return_mask(n_days: int, slots_per_day: int) -> np.ndarray:
    """Which of the flat mark-to-mark returns survive the overnight/lunch drop."""
    label = np.arange(1, n_days * slots_per_day)
    return (label % slots_per_day != 0) & (label % slots_per_day != slots_per_day // 2)


def generate_minute_csv(spec: SynthSpec, out_path: str | Path) -> MinuteSeries:
    """Write the synthetic corpus as a minute-mark tick CSV; returns the series."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "iid_gaussian_abs":
        ms = _gen_iid_prices(spec.n, rng)
    elif spec.kind == "se_intervals":
        ms = _gen_se_prices(spec, rng)
    else:
        ms = _gen_shuffled_prices(spec.params["input"], rng)
    write_minute_csv(ms, out_path)
    return ms


def _gen_iid_prices(n: int, rng: np.random.Generator) -> MinuteSeries:
    cal_one = TradingCalendar(days=(_START_DAY,))
    per_day = cal_one.minutes_per_day - len(cal_one.sessions)
    n_days = -(-n // per_day)
    cal = TradingCalendar(days=_weekdays(n_days))
    returns = _BASE_RETURN_SCALE * rng.standard_normal(n_days * cal.minutes_per_day - 1)
    return _prices_from_returns(returns, cal)


def _gen_shuffled_prices(input_path: str, rng: np.random.Generator) -> MinuteSeries:
    ticks, _ = parse_ticks(input_path)
    cal = TradingCalendar.for_days(tick_days(ticks))
    ms = sample_minutely(ticks, cal)
    flat = ms.prices.ravel()
    idx = np.flatnonzero(np.isfinite(flat))
    if len(idx) < 3:
        raise ValueError("input series too short to shuffle")
    logp = np.log(flat[idx])
    shuffled = rng.permutation(np.diff(logp))
    out = np.full_like(flat, np.nan)
    out[idx] = np.exp(np.concatenate([[logp[0]], logp[0] + np.cumsum(shuffled)]))
    return MinuteSeries(
        days=ms.days,
        slots=ms.slots.copy(),
        session_id=ms.session_id.copy(),
        prices=out.reshape(ms.prices.shape),
    )


def _gen_se_prices(spec: SynthSpec, rng: np.random.Generator) -> MinuteSeries:
    from scipy.special import ndtr, ndtri  # only this kind needs the normal quantile

    a = float(spec.params.get("a", 14.2))
    gamma = float(spec.params.get("gamma", 0.38))
    q = float(spec.params.get("q", 3.0))
    model = SEModel.normalized(a, gamma)

    cal_one = TradingCalendar(days=(_START_DAY,))
    per_day = cal_one.minutes_per_day - len(cal_one.sessions)
    n_days = -(-spec.n // per_day)
    n_kept = n_days * per_day

    cut = q * _HALF_NORMAL_STD
    p_exceed = 2.0 * (1.0 - ndtr(cut))
    mean_gap = 1.0 / p_exceed
    draws = se_sample(model, max(16, int(2.5 * n_kept * p_exceed)), rng)
    gaps = np.maximum(1, np.rint(draws / analytic_moment(model, 1.0) * mean_gap).astype(np.int64))
    pos = np.cumsum(gaps)
    pos = pos[pos < n_kept]

    # |z| below the cut, then above it at the planted exceedances, by the inverse CDF
    f_cut = 2.0 * ndtr(cut) - 1.0
    mags = ndtri((rng.uniform(0.0, f_cut, size=n_kept) + 1.0) / 2.0)
    mags[pos] = ndtri((rng.uniform(f_cut, 1.0, size=len(pos)) + 1.0) / 2.0)

    cal = TradingCalendar(days=_weekdays(n_days))
    kept = _kept_return_mask(n_days, cal.minutes_per_day)
    all_mags = np.empty(len(kept))
    all_mags[kept] = mags
    all_mags[~kept] = np.abs(rng.standard_normal(int((~kept).sum())))
    signs = rng.integers(0, 2, size=len(kept)) * 2 - 1
    return _prices_from_returns(_BASE_RETURN_SCALE * signs * all_mags, cal)
