"""Moment diagnostics for interval scaling.

The root-moment of a scaled interval sample is

    mu_m = (<(tau / <tau>)**m>)**(1/m),

so mu_1 is 1 by construction. Under pure scaling mu_m is flat in <tau>; the
exponent alpha(m) is the log-log slope of mu_m against <tau> across a
threshold sweep, fitted inside a medium region of <tau> (default 10 to 100)
where neither discreteness nor tail noise dominates.

The extended self-similarity (ESS) variant regresses log<tau**m> on
log<tau**n>. It reads the moment curves of one sweep, since
log<tau**m> = m log(mu_m <tau>), so it regresses over the same thresholds
as alpha and is linked to it by (alpha + 1) / n = xi(m, n) / m. With n = 1,
which is what ``analyze`` writes, xi(m, 1) = m (1 + alpha) on the same
points, so ``ess.csv`` restates ``alpha.csv``.

Intervals are whole minutes, so a sample is held as its counts: the
distinct lengths k and how often each occurs, c_k. Every power mean is
sum_k c_k (k / <tau>)**m / n over those few values, rescaled by the largest
one when the direct sum over- or underflows. ``sweep_intervals`` extracts
the intervals once per grid threshold and keeps only these counts, and
``moment_curve`` and ``ess_xi`` read every order from one such sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientEventsError, InsufficientPointsError
from .intervals import IntervalSample, extract_intervals, threshold_for_mean
from .semodel import SEModel, analytic_moment, fit_mle


def _counts(sample) -> tuple[np.ndarray, np.ndarray]:
    """(distinct intervals as floats, how often each occurs) of an ``IntervalSample`` or a raw array."""
    if isinstance(sample, IntervalSample):
        return sample.counts
    tau = np.asarray(sample, dtype=np.float64)
    if len(tau) == 0:
        raise ValueError("empty interval sample")
    if not np.all(np.isfinite(tau)) or np.any(tau <= 0):
        raise ValueError("intervals must be finite and positive")
    return np.unique(tau, return_counts=True)


def _root_mean_pow(x: np.ndarray, m: float, count=None, starts=(0,)) -> np.ndarray:
    """<x**m>**(1/m) over each run of x that begins at an index in ``starts``, x_i counted ``count[i]`` times.

    One run by default, each value counted once when ``count`` is None. A
    run whose direct mean over- or underflows is rescaled by its largest
    value: the rescaled mean lies in [1/n, 1] and the root never exceeds
    that value, so every result is finite.
    """
    count = np.ones(len(x)) if count is None else count
    n = np.add.reduceat(count, starts)
    with np.errstate(over="ignore"):
        mean = np.add.reduceat(count * x**m, starts) / n
    out = mean ** (1.0 / m)
    ends = [*starts[1:], len(x)]
    for i in np.flatnonzero(~(np.isfinite(mean) & (mean > 0.0))):
        run = slice(starts[i], ends[i])
        top = float(x[run].max())
        out[i] = top * (float(count[run] @ (x[run] / top) ** m) / n[i]) ** (1.0 / m)
    return out


def empirical_moment(sample, m: float) -> float:
    """Root-moment mu_m of the scaled intervals.

    ``sample`` is an ``IntervalSample`` or a raw array of intervals; values
    are scaled by their own mean either way, so mu_1 is 1.
    """
    if m <= 0:
        raise ValueError("moment order must be positive")
    k, count = _counts(sample)
    return float(_root_mean_pow(k / (float(count @ k) / count.sum()), m, count)[0])


def ess_mu(sample, m: float, n: float) -> float:
    """Moment ratio mu_(m,n) = <tau**m>**(1/m) / <tau**n>**(1/n) on raw intervals.

    For n = 1 this equals ``empirical_moment(sample, m)`` up to rounding.
    """
    if m <= 0 or n <= 0:
        raise ValueError("moment orders must be positive")
    k, count = _counts(sample)
    return float(_root_mean_pow(k, m, count)[0] / _root_mean_pow(k, n, count)[0])


def _ols_slope(lx: np.ndarray, ly: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ly on lx with its standard error."""
    dx = lx - lx.mean()
    dy = ly - ly.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise InsufficientPointsError("regression abscissa is constant")
    slope = float(np.dot(dx, dy)) / sxx
    dof = len(lx) - 2
    if dof > 0:
        resid = dy - slope * dx
        stderr = float(np.sqrt(np.dot(resid, resid) / dof / sxx))
    else:
        stderr = float("nan")
    return slope, stderr


@dataclass(frozen=True, eq=False)
class MomentCurve:
    """mu_m against <tau> along a threshold sweep, <tau> strictly increasing."""

    m: float
    q: np.ndarray
    mean_tau: np.ndarray
    mu: np.ndarray
    n_intervals: np.ndarray
    dropped: tuple[tuple[float, str], ...]

    @property
    def n_points(self) -> int:
        return len(self.q)


@dataclass(frozen=True, eq=False)
class IntervalSweep:
    """The intervals at the kept thresholds of a grid, as counts.

    ``q``, ``mean_tau`` and ``n_intervals`` describe the kept thresholds,
    <tau> strictly increasing. ``x`` and ``count`` hold, one threshold's run
    after another, the distinct scaled intervals k / <tau> and how often
    each occurs, and ``starts`` indexes where each run begins.
    """

    q: np.ndarray
    mean_tau: np.ndarray
    n_intervals: np.ndarray
    x: np.ndarray
    count: np.ndarray
    starts: np.ndarray
    dropped: tuple[tuple[float, str], ...]

    def mu(self, m: float) -> np.ndarray:
        """Root-moment mu_m at each kept threshold."""
        return _root_mean_pow(self.x, m, self.count, self.starts)


def sweep_intervals(v, q_grid: Sequence[float]) -> IntervalSweep:
    """Extract the intervals once per grid threshold and keep them as counts.

    Grid points with fewer than two exceedances are dropped and noted in
    ``dropped``, as are points whose <tau> does not strictly exceed the
    previous kept one (ties happen when neighboring thresholds select
    identical exceedance sets). Raises ``InsufficientPointsError`` if
    nothing survives.
    """
    kept, dropped = [], []
    for q in sorted(float(q) for q in q_grid):
        try:
            s = extract_intervals(v, q)
        except InsufficientEventsError as e:
            dropped.append((q, str(e)))
            continue
        if kept and s.mean_interval <= kept[-1][1]:
            dropped.append((q, "mean interval did not increase"))
            continue
        kept.append((q, s.mean_interval, len(s), s.counts[0] / s.mean_interval, s.counts[1]))
    if not kept:
        raise InsufficientPointsError("no grid threshold produced two exceedances")
    q, mean, size, x, count = zip(*kept)
    starts = np.cumsum([0, *map(len, x[:-1])])
    table = (*map(np.array, (q, mean, size)), np.concatenate(x), np.concatenate(count), starts)
    return IntervalSweep(*table, tuple(dropped))


def moment_curve(v, m: float, q_grid: Sequence[float] | None = None) -> MomentCurve:
    """(q, <tau>, mu_m) along the thresholds of ``sweep_intervals(v, q_grid)``.

    ``v`` may also be an ``IntervalSweep`` already made, which fixes the grid.
    """
    if m <= 0:
        raise ValueError("moment orders must be positive")
    sweep = v if isinstance(v, IntervalSweep) else sweep_intervals(v, q_grid)
    return MomentCurve(m, sweep.q, sweep.mean_tau, sweep.mu(m), sweep.n_intervals, sweep.dropped)


def _region_mask(mean_tau: np.ndarray, region: tuple[float, float]) -> np.ndarray:
    """Points with region[0] < <tau> < region[1]; fewer than three raises."""
    lo, hi = region
    mask = (mean_tau > lo) & (mean_tau < hi)
    if int(mask.sum()) < 3:
        raise InsufficientPointsError(
            f"{int(mask.sum())} curve points inside ({lo:g}, {hi:g}); need at least 3"
        )
    return mask


@dataclass(frozen=True)
class AlphaFit:
    """Log-log slope of mu_m against <tau> inside the fit region."""

    alpha: float
    stderr: float
    n_points: int
    region: tuple[float, float]


def fit_alpha(curve: MomentCurve, region: tuple[float, float] = (10.0, 100.0)) -> AlphaFit:
    """Fit alpha(m) as the slope of log mu_m versus log <tau> in the region.

    Only points with region[0] < <tau> < region[1] enter; fewer than three
    such points raises ``InsufficientPointsError``.
    """
    mask = _region_mask(curve.mean_tau, region)
    slope, stderr = _ols_slope(np.log(curve.mean_tau[mask]), np.log(curve.mu[mask]))
    return AlphaFit(alpha=slope, stderr=stderr, n_points=int(mask.sum()), region=tuple(region))


@dataclass(frozen=True)
class EssReport:
    """ESS regression xi(m, n) with the alpha implied through n = 1."""

    m: float
    n: float
    xi: float
    stderr: float
    alpha: float
    identity_gap: float
    n_points: int
    region: tuple[float, float]


def ess_xi(
    v,
    m: float,
    n: float,
    q_grid: Sequence[float] | None = None,
    region: tuple[float, float] = (10.0, 100.0),
) -> EssReport:
    """Regress log<tau**m> on log<tau**n> across the swept thresholds in the region.

    ``v`` is a series or an ``IntervalSweep``, as for ``moment_curve``, and
    the points are those ``fit_alpha`` takes from ``moment_curve`` on the
    same sweep. Also reports alpha = xi(m, 1) / m - 1 and the identity check
    (alpha + 1) / n - xi(m, n) / m, which is 0 by construction when n = 1.
    """
    if m <= 0 or n <= 0:
        raise ValueError("moment orders must be positive")
    sweep = v if isinstance(v, IntervalSweep) else sweep_intervals(v, q_grid)
    mask = _region_mask(sweep.mean_tau, region)
    # the last order is 1, so the n = 1 regression doubles as the alpha one
    orders = (m, n) if n == 1.0 else (m, n, 1.0)
    logs = [o * np.log(sweep.mu(o)[mask] * sweep.mean_tau[mask]) for o in orders]
    xi, stderr = _ols_slope(logs[1], logs[0])
    alpha = _ols_slope(logs[-1], logs[0])[0] / m - 1.0
    return EssReport(
        m=m,
        n=n,
        xi=xi,
        stderr=stderr,
        alpha=alpha,
        identity_gap=(alpha + 1.0) / n - xi / m,
        n_points=int(mask.sum()),
        region=tuple(region),
    )


@dataclass(frozen=True, eq=False)
class OrderCurve:
    """mu_m against order m at one target mean interval, with model values."""

    target_mean: float
    q: float
    achieved_mean: float
    m: np.ndarray
    mu: np.ndarray
    mu_model: np.ndarray
    model: SEModel


def moment_vs_order(
    v,
    mean_targets: Sequence[float] = (10.0, 30.0, 100.0),
    m_grid: Sequence[float] | None = None,
    lattice: bool = True,
) -> list[OrderCurve]:
    """Empirical and fitted-model root-moments across orders m.

    One ``threshold_for_mean`` call gives the threshold whose mean interval
    is nearest each target <tau>. For each, extracts intervals, evaluates
    mu_m over ``m_grid`` (default 0.25 to 3 in steps of 0.25), and fits the
    model by maximum likelihood for the analytic curve: the interval-censored
    likelihood with ``lattice`` (default), the continuous one on the plain
    scaled values otherwise. Every empirical ``mu`` passes through (1, 1) up
    to rounding. The lattice fit's ``mu_model`` does not: at m = 1 it is the
    mean of the latent continuous intervals, about 1 - 1/(2<tau>).
    ``UnreachableTargetError`` propagates from the threshold search,
    ``ValueError`` from a fit on fewer than 50 intervals.
    """
    grid = np.arange(0.25, 3.0 + 1e-9, 0.25) if m_grid is None else np.asarray(m_grid, float)
    if np.any(grid <= 0):
        raise ValueError("moment orders must be positive")
    out = []
    for target, (q, achieved) in zip(mean_targets, threshold_for_mean(v, mean_targets)):
        s = extract_intervals(v, q)
        model = fit_mle(s.scaled() if lattice else np.asarray(s.scaled()))
        mu = np.array([empirical_moment(s, mm) for mm in grid])
        mu_model = np.array([analytic_moment(model, mm) for mm in grid])
        out.append(
            OrderCurve(
                target_mean=float(target),
                q=q,
                achieved_mean=achieved,
                m=grid.copy(),
                mu=mu,
                mu_model=mu_model,
                model=model,
            )
        )
    return out
