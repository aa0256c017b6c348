"""Kolmogorov-Smirnov machinery: the two-sample scaling test across
thresholds, the one-sample distance to a fitted model, and a parametric
bootstrap p-value.

The two-sample statistic is the sup of |F_i - F_j| over the overlap of the
two supports. Acceptance at the 95% level uses
CV = 1.36 / sqrt(m * n / (m + n)); by default m and n count the points
inside the overlap.

Interval samples are whole minutes, so their scaled values sit on a
lattice k / <tau> whose step differs per threshold. ``ks_matrix`` therefore
compares, by default (``lattice=True``), the CDFs of the dequantised
intervals tau - U, U ~ Uniform(0, 1), each scaled by its own mean
<tau> - 1/2 (``DequantizedCdf``). Those CDFs are piecewise linear, so the
sup over the pooled knots is exact and no random numbers are drawn. With
``lattice=False``, and for ``CdfTable``s of plain values, the CDFs are the
full right-continuous step functions of the values, compared at the
pooled sample points, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitFailureError, NoOverlapError
from .intervals import CdfTable, DequantizedCdf, IntervalSample, empirical_cdf
from .semodel import FitReport, SEModel, fit_mle, se_cdf, se_sample

def critical_value(m: int, n: int) -> float:
    """95% two-sample KS critical value, 1.36 / sqrt(m * n / (m + n))."""
    if m < 1 or n < 1:
        raise ValueError("both sample counts must be >= 1")
    return float(1.36 / np.sqrt(m * n / (m + n)))


@dataclass(frozen=True)
class KsResult:
    """Two-sample KS outcome over the support overlap."""

    statistic: float
    critical: float
    m: int
    n: int
    overlap: tuple[float, float]

    @property
    def accept(self) -> bool:
        return self.statistic < self.critical

    @property
    def decision(self) -> str:
        return "accept" if self.accept else "reject"


def two_sample_ks(
    fi: CdfTable | DequantizedCdf, fj: CdfTable | DequantizedCdf, overlap_counts: bool = True
) -> KsResult:
    """KS distance between two CDF tables of one kind on their support overlap.

    The sup runs over the pooled table points inside
    [max(min_i, min_j), min(max_i, max_j)]. For ``CdfTable``s these are the
    sample points and the CDFs are the full-sample right-continuous step
    functions, so the statistic depends on ranks only. For
    ``DequantizedCdf``s they are the knots, between which both CDFs are
    linear. Either way the sup over the overlap is attained at a pooled
    point, so the statistic is exact and symmetric in the two samples. With
    ``overlap_counts`` (default) the effective sizes m, n for the critical
    value count only the points inside the overlap (``count_in``);
    otherwise the whole-sample sizes are used.

    Raises
    ------
    NoOverlapError
        The supports are disjoint, or (with ``overlap_counts``) one sample
        has no points inside the overlap.
    """
    lo = max(float(fi.x[0]), float(fj.x[0]))
    hi = min(float(fi.x[-1]), float(fj.x[-1]))
    if lo > hi:
        raise NoOverlapError(f"supports [{fi.x[0]:g}, {fi.x[-1]:g}] and [{fj.x[0]:g}, {fj.x[-1]:g}] do not overlap")
    pooled = np.union1d(fi.x, fj.x)
    pooled = pooled[(pooled >= lo) & (pooled <= hi)]
    stat = float(np.max(np.abs(fi.eval(pooled) - fj.eval(pooled))))
    if overlap_counts:
        m, n = fi.count_in(lo, hi), fj.count_in(lo, hi)
        if m < 1 or n < 1:
            raise NoOverlapError(f"support overlap [{lo:g}, {hi:g}] contains no points of one sample")
    else:
        m, n = fi.n, fj.n
    return KsResult(statistic=stat, critical=critical_value(m, n), m=m, n=n, overlap=(lo, hi))


@dataclass(frozen=True)
class KsPair:
    q_i: float
    q_j: float
    result: KsResult


@dataclass(frozen=True)
class KsMatrix:
    """All threshold pairs, ordered by (q_i, q_j) with q_i < q_j."""

    pairs: tuple[KsPair, ...]

    @property
    def verdict(self) -> str:
        """"scaling" when every pair accepts, else "multiscaling"."""
        return "scaling" if all(p.result.accept for p in self.pairs) else "multiscaling"

    def to_rows(self) -> list[dict]:
        return [
            {
                "q_i": p.q_i,
                "q_j": p.q_j,
                "ks": p.result.statistic,
                "cv": p.result.critical,
                "m": p.result.m,
                "n": p.result.n,
                "decision": p.result.decision,
            }
            for p in self.pairs
        ]


def ks_matrix(
    samples: Sequence[IntervalSample], overlap_counts: bool = True, lattice: bool = True
) -> KsMatrix:
    """Pairwise scaled-interval KS tests across thresholds.

    With ``lattice`` (default) ``two_sample_ks`` compares the
    ``DequantizedCdf``s of each pair, which is calibrated for whole-minute
    intervals. With ``lattice=False`` it compares the step CDFs of
    tau / <tau> (``empirical_cdf``), the paper's plain statistic.
    """
    if len(samples) < 2:
        raise ValueError("need interval samples for at least two thresholds")
    ordered = sorted(samples, key=lambda s: s.q)
    qs = [s.q for s in ordered]
    if len(set(qs)) != len(qs):
        raise ValueError("thresholds must be distinct")
    table = DequantizedCdf.from_sample if lattice else empirical_cdf
    tables = [table(s) for s in ordered]
    pairs = []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            try:
                res = two_sample_ks(tables[i], tables[j], overlap_counts=overlap_counts)
            except NoOverlapError as e:
                raise NoOverlapError(f"pair (q={qs[i]:g}, q={qs[j]:g}): {e}") from e
            pairs.append(KsPair(q_i=qs[i], q_j=qs[j], result=res))
    return KsMatrix(pairs=tuple(pairs))


def _scaled(sample) -> np.ndarray:
    if isinstance(sample, IntervalSample):
        return sample.scaled()
    return np.asarray(sample, dtype=np.float64)


def _sorted_cdf_ks(f: np.ndarray) -> float:
    """sup |F_n - F| from the model CDF values f at the sorted sample points.

    Checked at both sides of each step of the empirical CDF, where the sup
    of a continuous F against a step function is attained.
    """
    n = len(f)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(i / n - f), np.abs((i - 1) / n - f))))


def one_sample_ks(sample, model: SEModel) -> float:
    """sup_x |F_n(x) - F(x)| against the model CDF, checked at both step sides.

    The statistic depends on the sample only through the sorted CDF values
    F(x_(i)). For a sample drawn from the same continuous model these are
    uniform order statistics (probability integral transform), so
    ``bootstrap_pvalue`` scores its fixed-model replicates as sorted
    uniforms through the same kernel, which is exact in law.
    """
    x = np.sort(_scaled(sample))
    if len(x) == 0:
        raise ValueError("empty sample")
    return _sorted_cdf_ks(se_cdf(model, x))


def bootstrap_pvalue(
    sample,
    model: SEModel,
    n_boot: int = 1000,
    seed=None,
    refit: bool = False,
    mode: str = "mle",
) -> FitReport:
    """Parametric-bootstrap goodness of fit.

    Simulates ``n_boot`` samples of the observed size from the model,
    computes each replicate's one-sample KS distance, and reports
    p = #(KS_sim > KS_obs) / #completed.

    With ``refit=False`` (default) each replicate is scored against the
    model that drew it. The model is continuous, so by the probability
    integral transform F(X) ~ Uniform(0, 1) and the sorted F(X_(i)) are
    uniform order statistics, whatever (a, gamma) is. A replicate is
    therefore n sorted uniforms fed straight to the KS kernel: its statistic
    has exactly the law of a drawn-and-scored replicate, with no model
    sample or CDF evaluated. With ``refit=True`` every replicate is drawn
    from the model, refitted and compared against its own fit, and
    replicates whose refit fails are dropped and counted.

    Replicate RNGs are spawned from ``numpy.random.SeedSequence(seed)``, so
    a fixed seed reproduces the p-value and replicates are independent of
    evaluation order. Replicates are drawn, fitted and scored one at a time,
    so only one replicate is held in memory at once.
    """
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    x = _scaled(sample)
    n = len(x)
    ks_obs = one_sample_ks(x, model)

    n_failed = n_exceed = 0
    for child in np.random.SeedSequence(seed).spawn(n_boot):
        rng = np.random.default_rng(child)
        if not refit:
            n_exceed += _sorted_cdf_ks(np.sort(rng.random(n))) > ks_obs
            continue
        draw = se_sample(model, n, rng)
        try:
            fitted = fit_mle(draw)
        except (FitFailureError, ValueError):
            n_failed += 1
            continue
        n_exceed += one_sample_ks(draw, fitted) > ks_obs

    completed = n_boot - n_failed
    if completed == 0:
        raise FitFailureError("every bootstrap replicate failed to refit")
    return FitReport(
        model=model,
        mode=mode,
        n=n,
        ks=ks_obs,
        p=n_exceed / completed,
        n_boot=n_boot,
        seed=seed if isinstance(seed, int) else None,
        q=sample.q if isinstance(sample, IntervalSample) else None,
        n_failed_refits=n_failed,
    )
