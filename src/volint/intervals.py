"""Return intervals between threshold exceedances and their scaled
distributions.

An exceedance is a point with v > q (strictly). Intervals tau are the
position differences between successive exceedances, measured in sample
positions of the volatility series (missing minutes have already been
collapsed upstream, so a position step is one observed minute). Scaled
intervals x = tau / <tau> are binned logarithmically for the PDF and
accumulated exactly for the empirical CDF.

Because tau is a whole number of minutes, x lies on the lattice k / <tau>,
whose step differs from threshold to threshold. ``IntervalSample.counts``
holds a sample in that lattice form, the distinct k and how often each
occurs, and every table and statistic of a sample reads it. ``IntervalSample.scaled``
returns the values as a view tagged with their sample, which ``fit_mle``
fits as lattice data, and ``DequantizedCdf`` gives the continuous CDF of the
dequantised intervals tau - U, U ~ Uniform(0, 1), for comparisons across
thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InsufficientEventsError, UnreachableTargetError
from .ingest import sorted_unique
from .volatility import NormVolSeries


class ScaledIntervals(np.ndarray):
    """Float64 view of tau / <tau> that carries its ``IntervalSample`` and lattice step 1 / <tau>.

    Only ``IntervalSample.scaled`` builds one. Arithmetic gives plain arrays
    and scalars, and slices and sorted copies have ``sample = step = None``,
    so a transformed copy is never mistaken for lattice data.
    """

    sample: "IntervalSample | None"
    step: float | None

    def __array_finalize__(self, obj) -> None:
        self.sample = self.step = None

    def __array_wrap__(self, obj, context=None, return_scalar=False):
        out = np.asarray(obj)
        return out[()] if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class IntervalSample:
    """Integer intervals between successive exceedances of one threshold."""

    q: float
    tau: np.ndarray
    source_length: int

    def __post_init__(self):
        if len(self.tau) < 1:
            raise ValueError("an interval sample needs at least one interval")
        if self.tau.dtype.kind not in "iu" or np.any(self.tau < 1):
            raise ValueError("intervals must be integers >= 1")

    def __len__(self) -> int:
        return len(self.tau)

    @property
    def mean_interval(self) -> float:
        return float(self.tau.mean())

    @cached_property
    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct intervals k, ascending, as float64, and how often each occurs, c_k."""
        count = np.bincount(self.tau)
        k = np.flatnonzero(count)
        return k.astype(np.float64), count[k]

    def scaled(self) -> ScaledIntervals:
        """Intervals divided by their mean, exactly tau / <tau>, as a view tagged with this sample.

        ``fit_mle`` fits the view by the interval-censored likelihood of
        ``counts``; ``np.asarray(sample.scaled())`` is fitted as continuous data.
        """
        mean = self.mean_interval
        x = (self.tau / mean).view(ScaledIntervals)
        x.sample, x.step = self, 1.0 / mean
        return x


def _series_values(v) -> np.ndarray:
    if isinstance(v, NormVolSeries):
        return v.values
    return np.asarray(v, dtype=np.float64)


def extract_intervals(v, q: float) -> IntervalSample:
    """Intervals between successive exceedances v > q.

    ``v`` is a ``NormVolSeries`` or a plain array. A series holds the
    in-session minutes with its days joined end to end, so an interval may
    run across a lunch or overnight break.
    """
    values = _series_values(v)
    pos = np.flatnonzero(values > q)
    if len(pos) < 2:
        raise InsufficientEventsError(len(pos), q)
    return IntervalSample(q=float(q), tau=np.diff(pos), source_length=len(values))


@dataclass(frozen=True, eq=False)
class PdfTable:
    """Log-binned density of scaled intervals; empty bins are omitted.

    ``lo``/``hi`` are the kept bin edges, ``center`` the geometric bin
    centers. For tables built from data, sum(density * (hi - lo)) is 1 up to
    rounding.
    """

    lo: np.ndarray
    hi: np.ndarray
    center: np.ndarray
    density: np.ndarray
    count: np.ndarray
    n_total: int
    degenerate: bool = False

    def __post_init__(self):
        k = len(self.density)
        if not (len(self.lo) == len(self.hi) == len(self.center) == len(self.count) == k):
            raise ValueError("pdf table columns must have equal length")
        if k == 0:
            raise ValueError("pdf table must have at least one bin")
        if np.any(self.hi <= self.lo) or np.any(self.density < 0):
            raise ValueError("pdf table needs hi > lo and non-negative density")

    @property
    def n_bins(self) -> int:
        return len(self.density)


def scaled_pdf(sample: IntervalSample, bins_per_decade: int = 20) -> PdfTable:
    """Histogram of x = tau / <tau> on logarithmically spaced bins.

    Bin edges run from min(x) to max(x) with ``bins_per_decade`` bins per
    decade (the count is rounded up, so edges land exactly on the extremes).
    Empty bins are dropped. A sample with a single distinct value gets one
    synthetic bin spanning 1/bins_per_decade of a decade, flagged degenerate.
    """
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be >= 1")
    k, c = sample.counts
    x = k / sample.mean_interval
    n = len(sample)
    xmin, xmax = float(x[0]), float(x[-1])
    if xmin == xmax:
        half = 10.0 ** (0.5 / bins_per_decade)
        lo, hi = xmin / half, xmax * half
        return PdfTable(
            lo=np.array([lo]),
            hi=np.array([hi]),
            center=np.array([xmin]),
            density=np.array([1.0 / (hi - lo)]),
            count=np.array([n]),
            n_total=n,
            degenerate=True,
        )
    decades = math.log10(xmax / xmin)
    n_bins = max(1, math.ceil(decades * bins_per_decade))
    edges = 10.0 ** np.linspace(math.log10(xmin), math.log10(xmax), n_bins + 1)
    edges[0] = xmin
    edges[-1] = xmax
    count = np.histogram(x, bins=edges, weights=c)[0].astype(np.int64)
    keep = count > 0
    lo = edges[:-1][keep]
    hi = edges[1:][keep]
    density = count[keep] / (n * (hi - lo))
    return PdfTable(
        lo=lo,
        hi=hi,
        center=np.sqrt(lo * hi),
        density=density,
        count=count[keep],
        n_total=n,
    )


@dataclass(frozen=True, eq=False)
class CdfTable:
    """Right-continuous empirical CDF on the unique sorted sample points."""

    x: np.ndarray
    F: np.ndarray
    count: np.ndarray
    n: int

    @classmethod
    def from_counts(cls, x: np.ndarray, count: np.ndarray) -> "CdfTable":
        """The table of the ascending distinct values x, each occurring ``count`` times."""
        n = int(count.sum())
        return cls(x=x, F=np.cumsum(count) / n, count=count, n=n)

    def eval(self, t) -> np.ndarray:
        """F(t) with right-continuous steps: points at t are included."""
        idx = np.searchsorted(self.x, t, side="right")
        return np.where(idx > 0, self.F[np.maximum(idx - 1, 0)], 0.0)

    def count_in(self, lo: float, hi: float) -> int:
        """Number of sample points in [lo, hi]."""
        return int(self.count[(self.x >= lo) & (self.x <= hi)].sum())


@dataclass(frozen=True, eq=False)
class DequantizedCdf:
    """CDF of the dequantised scaled intervals (tau - U) / (<tau> - 1/2).

    With U ~ Uniform(0, 1) independent of tau, this CDF is the step CDF of
    tau joined linearly between integer knots and rescaled by its own mean
    <tau> - 1/2. ``x`` holds the scaled knots (k - 1 and k for every observed
    tau = k) and ``F`` the exact CDF there; the CDF is linear in between.
    ``upper``/``count`` are the distinct taus' cell upper ends k / (<tau> - 1/2)
    and their counts; the cell of tau = k is (upper - step, upper].
    """

    x: np.ndarray
    F: np.ndarray
    upper: np.ndarray
    count: np.ndarray
    step: float
    n: int

    @classmethod
    def from_sample(cls, sample: IntervalSample) -> "DequantizedCdf":
        steps = CdfTable.from_counts(*sample.counts)
        knots = sorted_unique(np.concatenate((steps.x - 1.0, steps.x)))
        step = 1.0 / (sample.mean_interval - 0.5)
        return cls(
            x=knots * step,
            F=steps.eval(knots),
            upper=steps.x * step,
            count=steps.count,
            step=step,
            n=steps.n,
        )

    def eval(self, t) -> np.ndarray:
        """F(t), linear between knots, 0 below the first and 1 above the last."""
        return np.interp(t, self.x, self.F)

    def count_in(self, lo: float, hi: float) -> int:
        """Number of intervals whose cell meets the open interval (lo, hi)."""
        return int(self.count[(self.upper > lo) & (self.upper - self.step < hi)].sum())


def empirical_cdf(sample) -> CdfTable:
    """Empirical CDF of the scaled intervals, or of a plain value array."""
    if isinstance(sample, IntervalSample):
        k, count = sample.counts
        return CdfTable.from_counts(k / sample.mean_interval, count)
    values = np.asarray(sample, dtype=np.float64)
    if len(values) == 0:
        raise ValueError("empty sample")
    return CdfTable.from_counts(*np.unique(values, return_counts=True))


class ThresholdResult(NamedTuple):
    q: float
    mean_interval: float


def threshold_for_mean(v, targets: Sequence[float]) -> list[ThresholdResult]:
    """Per target, the threshold whose mean interval is nearest it, and that mean.

    The candidates are the distinct values and one value below the minimum
    that leave an interval. Candidate q keeps the points v > q, a prefix of
    the descending sort, and its intervals sum to the span of the kept
    positions, so one sort gives every candidate's exact mean. Returns the
    nearest candidate, the lower q on a tie. Raises
    ``UnreachableTargetError`` if every mean is below target - 1/2.
    """
    if any(t < 1.0 for t in targets):
        raise ValueError("target mean interval must be >= 1")
    values = _series_values(v)
    n = len(values)
    pos = np.argsort(values)[::-1]
    ranked = values[pos]
    last = ranked != np.append(ranked[1:], np.nan)  # a candidate's prefix ends a run of equal values
    del ranked
    span = np.maximum.accumulate(pos).astype(np.float64)
    span -= np.minimum.accumulate(pos)
    count = np.arange(n)
    with np.errstate(invalid="ignore"):
        mean = np.divide(span, count, out=span)  # nan where no interval is left
    mean[~last] = np.nan
    del count, last
    top = np.fmax.reduce(mean, initial=-np.inf)
    if top == -np.inf:
        raise UnreachableTargetError("no threshold yields two exceedances")
    out, gap = [], np.empty_like(mean)
    for target in targets:
        if top < target - 0.5:
            raise UnreachableTargetError(f"largest reachable mean interval is {top:.3g}, below target {target:g}")
        np.abs(np.subtract(mean, target, out=gap), out=gap)
        i = np.flatnonzero(gap == np.fmin.reduce(gap))[-1]
        q = values[pos[i + 1]] if i + 1 < n else np.nextafter(values[pos[i]], -np.inf)
        out.append(ThresholdResult(float(q), float(mean[i])))
    return out

