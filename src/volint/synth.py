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

The planted corpus needs the standard normal CDF and quantile. ``ndtr`` and
``ndtri`` are the Cephes forms (Moshier 1989, *Methods and Programs for
Mathematical Functions*): the same coefficient tables, Horner order and
branch cut-offs as ``scipy.special.ndtr`` and ``ndtri``, so they return the
same bits and the corpora do not depend on scipy.
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

# Cephes ndtri.c: the central rational approximation, then two tail ones in z = 1/sqrt(-2 log y)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# Cephes ndtr.c: erfc for 1 <= x < 8 (P/Q) and x >= 8 (R/S), erf for |x| <= 1 (T/U)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N], by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: a leading 1 that the table leaves out (1.0 * x is exact)."""
    return _polevl(x, (1.0, *coef))


def _libm_log(a: np.ndarray) -> np.ndarray:
    # np.log has its own SIMD kernels, which differ from the C library's log in the last bit
    return np.array([math.log(v) for v in a.tolist()], dtype=np.float64)


def ndtri(y0) -> np.ndarray:
    """Standard normal quantile of each element, bit-identical to ``scipy.special.ndtri``.

    ndtri(0) = -inf, ndtri(1) = +inf, and NaN outside [0, 1].
    """
    y0 = np.asarray(y0, dtype=np.float64)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)  # the smaller tail probability
    out = np.where(y0 == 0.0, -np.inf, np.where(y0 == 1.0, np.inf, np.nan))
    mid = y > _EXP_M2
    t = y[mid] - 0.5
    t2 = t * t
    out[mid] = (t + t * (t2 * _polevl(t2, _NDTRI_P0) / _p1evl(t2, _NDTRI_Q0))) * _S2PI
    tail = (y > 0.0) & ~mid  # NaN and y < 0 fall in neither branch
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    # x < 8 means y > exp(-32)
    x1 = np.where(
        x < 8.0, z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1), z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    )
    d = x0 - x1
    out[tail] = np.where(upper[tail], d, -d)
    return out


def _erf(x: float) -> float:
    """Cephes erf for |x| <= 1, the only range ``ndtr`` passes it."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(x: float) -> float:
    """Cephes erfc for x >= sqrt(1/2), the only range ``ndtr`` passes it."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _p1evl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _p1evl(x, _ERFC_S)
    return (z * p) / q


def ndtr(a: float) -> float:
    """Standard normal CDF at a float, bit-identical to ``scipy.special.ndtr``."""
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


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
