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
gaps at one threshold, whose |z| lie above that threshold's cut at the
planted exceedances and below it elsewhere, drawn by exact rejection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .ingest import MinuteSeries, TradingCalendar, parse_ticks, sample_minutely, tick_days, write_minute_csv
from .semodel import SEModel, analytic_moment, se_sample
from .volatility import NormVolSeries

KINDS = ("iid_gaussian_abs", "shuffled_from_file", "se_intervals")
_HALF_NORMAL_STD = math.sqrt(1.0 - 2.0 / math.pi)
_BASE_RETURN_SCALE = 5e-4
_START_DAY = date(2004, 1, 5)
_SE_DEFAULTS = {"a": 14.2, "gamma": 0.38, "q": 3.0}
_PARAMS = {"iid_gaussian_abs": (), "shuffled_from_file": ("input",), "se_intervals": tuple(_SE_DEFAULTS)}


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
    Kind-specific ``params``, and no others: ``input`` (shuffled_from_file,
    required); ``a``, ``gamma``, and threshold ``q`` (se_intervals, defaults
    14.2, 0.38, 3.0). When the corpus is drawn, ``q`` must be finite, > 0
    and low enough that at least two exceedances are expected, ``a`` > 0
    and 0 < ``gamma`` <= 2, or ``generate_minute_csv`` raises ValueError.
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
        unknown = sorted(set(self.params) - set(_PARAMS[self.kind]))
        if unknown:
            raise ValueError(f"{self.kind} takes no params {unknown}; allowed: {list(_PARAMS[self.kind])}")
        if self.kind == "shuffled_from_file" and "input" not in self.params:
            raise ValueError("shuffled_from_file needs params['input']")


def _weekdays(count: int) -> tuple[date, ...]:
    return tuple(np.busday_offset(_START_DAY, np.arange(count)).tolist())


def _prices_from_returns(returns: np.ndarray, cal: TradingCalendar) -> MinuteSeries:
    logp = np.concatenate([[math.log(100.0)], np.cumsum(returns)])
    logp[1:] += logp[0]
    prices = np.exp(logp).reshape(len(cal.days), cal.minutes_per_day)
    return MinuteSeries(
        days=cal.days, slots=cal.slots.copy(), session_id=cal.session_id.copy(), prices=prices
    )


def _abs_normal_between(lo: float, hi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n exact draws of |Z|, Z standard normal, conditioned on lo <= |Z| < hi, by rejection.

    With p = P(lo <= |Z| < hi) and c = p exp(lo^2 / 2) sqrt(pi / 2), the proposal is whichever
    accepts most: |Z| (p); x uniform on [lo, hi), kept with probability exp((lo^2 - x^2) / 2)
    (c / (hi - lo)); or Marsaglia's (1964) tail draw x = sqrt(lo^2 - 2 log U), kept with
    probability lo / x (c lo). On [0, cut) and [cut, inf) the best accepts more than half.
    """
    p = math.erfc(lo / math.sqrt(2.0)) - math.erfc(hi / math.sqrt(2.0))
    c = p * math.exp(lo * lo / 2.0) * math.sqrt(math.pi / 2.0)
    accept, proposal = max((p, "abs"), (c / (hi - lo), "uniform"), (c * lo, "tail"))
    kept, have = [np.empty(0)], 0
    while have < n:
        m = int((n - have) / accept * 1.1) + 16
        if proposal == "uniform":
            x = rng.uniform(lo, hi, m)
            keep = rng.random(m) < np.exp((lo * lo - x * x) / 2.0)
        elif proposal == "tail":
            x = np.sqrt(lo * lo - 2.0 * np.log1p(-rng.random(m)))
            keep = rng.random(m) * x < lo
        else:
            x, keep = np.abs(rng.standard_normal(m)), True
        kept.append(x[keep & (lo <= x) & (x < hi)])
        have += len(kept[-1])
    return np.concatenate(kept)[:n]


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
    a, gamma, q = (float(spec.params.get(key, default)) for key, default in _SE_DEFAULTS.items())
    model = SEModel.normalized(a, gamma)

    cal_one = TradingCalendar(days=(_START_DAY,))
    per_day = cal_one.minutes_per_day - len(cal_one.sessions)
    n_days = -(-spec.n // per_day)
    n_kept = n_days * per_day

    cut = q * _HALF_NORMAL_STD
    p_exceed = math.erfc(cut / math.sqrt(2.0))  # 2 (1 - Phi(cut))
    if not (0.0 < q < math.inf and n_kept * p_exceed >= 2.0):
        raise ValueError(f"se_intervals q must be finite, > 0 and expect 2 of {n_kept} minutes above it; got {q}")
    draws = se_sample(model, max(16, int(2.5 * n_kept * p_exceed)), rng)
    gaps = np.maximum(1, np.rint(draws / analytic_moment(model, 1.0) / p_exceed).astype(np.int64))
    pos = np.cumsum(gaps)
    pos = pos[pos < n_kept]

    # |z| below the cut, then above it at the planted exceedances
    mags = _abs_normal_between(0.0, cut, n_kept, rng)
    mags[pos] = _abs_normal_between(cut, math.inf, len(pos), rng)

    cal = TradingCalendar(days=_weekdays(n_days))
    kept = _kept_return_mask(n_days, cal.minutes_per_day)
    all_mags = np.empty(len(kept))
    all_mags[kept] = mags
    all_mags[~kept] = np.abs(rng.standard_normal(int((~kept).sum())))
    signs = rng.integers(0, 2, size=len(kept)) * 2 - 1
    return _prices_from_returns(_BASE_RETURN_SCALE * signs * all_mags, cal)
