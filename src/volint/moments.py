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

Power means are evaluated directly, and rescaled by the largest interval
when the direct sum over- or underflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientEventsError, InsufficientPointsError
from .intervals import IntervalSample, extract_intervals, threshold_for_mean
from .semodel import SEModel, analytic_moment, fit_mle


def _tau_values(sample) -> np.ndarray:
    if isinstance(sample, IntervalSample):
        return sample.tau.astype(np.float64)
    tau = np.asarray(sample, dtype=np.float64)
    if len(tau) == 0:
        raise ValueError("empty interval sample")
    if not np.all(np.isfinite(tau)) or np.any(tau <= 0):
        raise ValueError("intervals must be finite and positive")
    return tau


def _root_mean_pow(tau: np.ndarray, m: float) -> float:
    """<tau**m>**(1/m), rescaled by max(tau) when the direct mean over- or underflows.

    The rescaled mean lies in [1/len(tau), 1] and the root never exceeds
    max(tau), so the result is always finite.
    """
    with np.errstate(over="ignore"):
        s = float(np.mean(tau**m))
    if np.isfinite(s) and s > 0.0:
        return float(s ** (1.0 / m))
    top = float(tau.max())
    return top * float(np.mean((tau / top) ** m)) ** (1.0 / m)


def empirical_moment(sample, m: float) -> float:
    """Root-moment mu_m of the scaled intervals.

    ``sample`` is an ``IntervalSample`` or a raw array of intervals; values
    are scaled by their own mean either way, so mu_1 is 1.
    """
    if m <= 0:
        raise ValueError("moment order must be positive")
    tau = _tau_values(sample)
    return _root_mean_pow(tau / tau.mean(), m)


def ess_mu(sample, m: float, n: float) -> float:
    """Moment ratio mu_(m,n) = <tau**m>**(1/m) / <tau**n>**(1/n) on raw intervals.

    For n = 1 this equals ``empirical_moment(sample, m)`` up to rounding.
    """
    if m <= 0 or n <= 0:
        raise ValueError("moment orders must be positive")
    tau = _tau_values(sample)
    return _root_mean_pow(tau, m) / _root_mean_pow(tau, n)


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


def _sweep(v, orders: Sequence[float], q_grid: Sequence[float], cross_day: bool) -> list[MomentCurve]:
    """``moment_curve`` for each of ``orders``, from one extraction per grid point."""
    if any(m <= 0 for m in orders):
        raise ValueError("moment orders must be positive")
    qs, means, counts = [], [], []
    mus: list[list[float]] = [[] for _ in orders]
    dropped: list[tuple[float, str]] = []
    for q in sorted(float(q) for q in q_grid):
        try:
            s = extract_intervals(v, q, cross_day=cross_day)
        except InsufficientEventsError as e:
            dropped.append((q, str(e)))
            continue
        mean = s.mean_interval
        if means and mean <= means[-1]:
            dropped.append((q, "mean interval did not increase"))
            continue
        qs.append(q)
        means.append(mean)
        counts.append(len(s))
        for mu, m in zip(mus, orders):
            mu.append(empirical_moment(s, m))
    if not qs:
        raise InsufficientPointsError("no grid threshold produced two exceedances")
    q_arr, mean_arr, count_arr = np.array(qs), np.array(means), np.array(counts)
    return [
        MomentCurve(
            m=m, q=q_arr, mean_tau=mean_arr, mu=np.array(mu), n_intervals=count_arr, dropped=tuple(dropped)
        )
        for m, mu in zip(orders, mus)
    ]


def moment_curve(v, m: float, q_grid: Sequence[float], cross_day: bool = True) -> MomentCurve:
    """Sweep thresholds and record (q, <tau>, mu_m).

    Grid points with fewer than two exceedances are dropped and noted, as
    are points whose <tau> does not strictly exceed the previous kept one
    (ties happen when neighboring thresholds select identical exceedance
    sets). Raises ``InsufficientPointsError`` if nothing survives.
    """
    return _sweep(v, (m,), q_grid, cross_day)[0]


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
    q_grid: Sequence[float],
    region: tuple[float, float] = (10.0, 100.0),
    cross_day: bool = True,
) -> EssReport:
    """Regress log<tau**m> on log<tau**n> across the swept thresholds in the region.

    The points are those ``fit_alpha`` takes from ``moment_curve`` on the
    same grid. Also reports alpha = xi(m, 1) / m - 1 and the identity check
    (alpha + 1) / n - xi(m, n) / m, which is 0 by construction when n = 1.
    """
    # the last order is 1, so the n = 1 regression doubles as the alpha one
    orders = (m, n) if n == 1.0 else (m, n, 1.0)
    curves = _sweep(v, orders, q_grid, cross_day)
    mask = _region_mask(curves[0].mean_tau, region)
    logs = [c.m * np.log(c.mu[mask] * c.mean_tau[mask]) for c in curves]
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
    cross_day: bool = True,
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
    for target, (q, achieved) in zip(mean_targets, threshold_for_mean(v, mean_targets, cross_day=cross_day)):
        s = extract_intervals(v, q, cross_day=cross_day)
        x = s.scaled()
        model = fit_mle(x if lattice else np.asarray(x))
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
