"""Stretched-exponential model for scaled return intervals.

The density is

    f(x) = c * exp(-a * x**gamma),  x >= 0,

and f integrates to 1 exactly when c = gamma * a**(1/gamma) / Gamma(1/gamma).
With the substitution u = a * x**gamma the CDF is the regularized lower
incomplete gamma function P(1/gamma, a * x**gamma), draws are obtained from
gamma variates as X = (G / a)**(1/gamma) with G ~ Gamma(1/gamma, 1), and the
root-moments

    mu_m = a**(-1/gamma) * (Gamma((m+1)/gamma) / Gamma(1/gamma))**(1/m)

follow from the same substitution. gamma = 1 recovers the pure exponential.

Scaled return intervals are whole minutes divided by <tau>, so they sit on
a lattice with step h = 1 / <tau>. For such data ``fit_mle`` maximizes the
interval-censored likelihood, in which tau = k means the continuous
interval fell in ((k - 1) h, k h] (the discretised-Weibull idea of Nakagawa
& Osaki 1975).

For continuous data the likelihood has a closed-form maximum in a at fixed
gamma, a(gamma) = n / (gamma * sum(x**gamma)), so ``fit_mle`` maximizes the
profile likelihood over gamma alone with one bounded scalar search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import optimize
from scipy.special import gammainc, gammaincc, gammaln
from scipy.special import gamma as gamma_function

from .errors import FitFailureError
from .intervals import PdfTable

GAMMA_BOUNDS = (0.05, 2.0)
_MLE_STARTS = (0.3, 0.6, 1.0)


def normalization_c(a: float, gamma: float) -> float:
    """Normalizing constant c = gamma * a**(1/gamma) / Gamma(1/gamma).

    Parameters
    ----------
    a, gamma : float
        Scale and stretching exponent, a > 0 and 0 < gamma <= 2.

    Returns
    -------
    float
        The c making f(x) = c * exp(-a * x**gamma) integrate to 1 on
        [0, inf).
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if not 0 < gamma <= GAMMA_BOUNDS[1]:
        raise ValueError(f"gamma must be in (0, {GAMMA_BOUNDS[1]}]")
    return float(gamma * a ** (1.0 / gamma) / gamma_function(1.0 / gamma))


@dataclass(frozen=True)
class SEModel:
    """Stretched-exponential parameter set (c, a, gamma).

    ``constrained=True`` means c equals the normalizing constant, so the
    model is a probability density. Least-squares fits leave c free and are
    marked ``constrained=False``; their CDF, sampler, and moments still use
    only (a, gamma), i.e. the normalized member of the family.
    """

    c: float
    a: float
    gamma: float
    constrained: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.c) and np.isfinite(self.a) and np.isfinite(self.gamma)):
            raise ValueError("model parameters must be finite")
        if self.c <= 0 or self.a <= 0:
            raise ValueError("c and a must be positive")
        if not 0 < self.gamma <= GAMMA_BOUNDS[1]:
            raise ValueError(f"gamma must be in (0, {GAMMA_BOUNDS[1]}]")
        if self.constrained:
            c0 = normalization_c(self.a, self.gamma)
            if abs(self.c - c0) > 1e-9 * c0:
                raise ValueError("constrained model has c != normalization_c(a, gamma)")

    @classmethod
    def normalized(cls, a: float, gamma: float) -> "SEModel":
        """The unit-mass member of the family with the given (a, gamma)."""
        return cls(c=normalization_c(a, gamma), a=a, gamma=gamma, constrained=True)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.c * np.exp(-self.a * x**self.gamma)

    def cdf(self, x) -> np.ndarray:
        return se_cdf(self, x)

    def sample(self, n: int, seed=None) -> np.ndarray:
        return se_sample(self, n, seed)

    def moment(self, m: float) -> float:
        return analytic_moment(self, m)


def se_cdf(model: SEModel, x) -> np.ndarray:
    """CDF of the normalized family member, P(1/gamma, a * x**gamma).

    Only (a, gamma) enter; a free c is ignored. Negative x maps to 0.
    """
    x = np.maximum(np.asarray(x, dtype=np.float64), 0.0)
    return gammainc(1.0 / model.gamma, model.a * x**model.gamma)


def se_sample(model: SEModel, n: int, seed=None) -> np.ndarray:
    """Draw n values exactly, via X = (G / a)**(1/gamma), G ~ Gamma(1/gamma, 1).

    ``seed`` is an int, a ``numpy.random.Generator``, or anything
    ``numpy.random.default_rng`` accepts; a given seed reproduces the draw.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.gamma(1.0 / model.gamma, 1.0, size=n)
    return (g / model.a) ** (1.0 / model.gamma)


def analytic_moment(model: SEModel, m: float) -> float:
    """Root-moment mu_m = a**(-1/gamma) * (Gamma((m+1)/gamma)/Gamma(1/gamma))**(1/m).

    Parameters
    ----------
    model : SEModel
    m : float
        Moment order, m > 0.

    Returns
    -------
    float
        (E[X**m])**(1/m) of the normalized family member.
    """
    if m <= 0:
        raise ValueError("moment order must be positive")
    g = model.gamma
    log_ratio = gammaln((m + 1.0) / g) - gammaln(1.0 / g)
    return model.a ** (-1.0 / g) * float(np.exp(log_ratio / m))


def _profile_a(g: float, x_pow_g: np.ndarray) -> float:
    """a(gamma) = n / (gamma * sum(x**gamma)), the continuous MLE of a at fixed gamma.

    ``x_pow_g`` holds the n terms x**gamma.
    """
    return len(x_pow_g) / (g * float(np.sum(x_pow_g)))


def _profile_log_a(g: float, shifted_log_x: np.ndarray, top: float) -> float:
    """log a(gamma) for the values x = exp(shifted_log_x + top), max(shifted_log_x) = 0.

    Each term exp(gamma * shifted_log_x) lies in [0, 1] and their sum in
    [1, n], a logsumexp that cannot overflow; dividing x by exp(top)
    multiplies a(gamma) by exp(gamma * top).
    """
    return float(np.log(_profile_a(g, np.exp(g * shifted_log_x)))) - g * top


def _profile_nll(g: float, shifted_log_x: np.ndarray, top: float) -> float:
    """Continuous negative log-likelihood at (a(gamma), gamma).

    There a * sum(x**gamma) = n / gamma, so the likelihood needs only log a.
    """
    log_a = _profile_log_a(g, shifted_log_x, top)
    return -len(shifted_log_x) * (np.log(g) + (log_a - 1.0) / g - gammaln(1.0 / g))


def _log_sf(s: float, u: np.ndarray) -> np.ndarray:
    """log Q(s, u) of the upper regularized incomplete gamma function.

    Where Q underflows (u beyond about 700) the leading terms of its
    large-u expansion, u**(s-1) e**-u (1 + (s-1)/u) / Gamma(s), take over.
    """
    q = gammaincc(s, u)
    with np.errstate(divide="ignore"):
        out = np.log(q)
    tail = q < np.finfo(float).tiny
    if np.any(tail):
        ut = u[tail]
        out[tail] = (s - 1.0) * np.log(ut) - ut - gammaln(s) + np.log1p((s - 1.0) / ut)
    return out


def _censored_nll(params: np.ndarray, k: np.ndarray, count: np.ndarray, h: float) -> float:
    """Negative log-likelihood of lattice counts: tau = k lies in ((k-1) h, k h]."""
    a, g = params
    if a <= 0 or g <= 0:
        return np.inf
    log_lower = _log_sf(1.0 / g, a * ((k - 1.0) * h) ** g)
    log_upper = _log_sf(1.0 / g, a * (k * h) ** g)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = log_lower + np.log(-np.expm1(log_upper - log_lower))
    flat = ~np.isfinite(log_p)
    if np.any(flat):
        # the two survival values agree to rounding: density at the cell middle times h
        mid = (k[flat] - 0.5) * h
        log_c = np.log(g) + np.log(a) / g - gammaln(1.0 / g)
        log_p[flat] = log_c - a * mid**g + np.log(h)
    return -float(np.dot(count, log_p))


def fit_mle(sample: np.ndarray) -> SEModel:
    """Maximum-likelihood fit of (a, gamma) with c constrained.

    For a plain array, maximizes the continuous likelihood
    sum(log(c * exp(-a * x**gamma))) through its profile in gamma: at fixed
    gamma the best a is a(gamma) = n / (gamma * sum(x**gamma)), so one
    bounded scalar search over gamma in [0.05, 2] (bounds included) finds
    the optimum. For lattice input, an array that carries a ``step`` h such
    as ``IntervalSample.scaled()`` returns, each value x = k h counts as a
    continuous value censored to ((k-1) h, k h] and the likelihood is
    sum_k c_k log(S((k-1) h) - S(k h)), with c_k the number of values equal
    to k h and S the model's survival function. That optimization is
    bounded (gamma in [0.05, 2], a > 0) and multi-started from gamma in
    {0.3, 0.6, 1.0} with a(gamma) at each start.

    Parameters
    ----------
    sample : array_like
        Scaled intervals; at least 50 strictly positive values. An
        optional ``step`` attribute marks them as multiples of that step.

    Returns
    -------
    SEModel
        Constrained model at the best optimum found.

    Raises
    ------
    ValueError
        Fewer than 50 values, any value <= 0, or values that are not
        multiples of their ``step``.
    FitFailureError
        The optimum is not finite (continuous), or no start converged
        (lattice); carries the best iterate in ``best``.
    """
    step = getattr(sample, "step", None)
    x = np.asarray(sample, dtype=np.float64)
    if len(x) < 50:
        raise ValueError("MLE fit needs at least 50 values")
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("MLE fit needs strictly positive finite values")
    if step is None:
        return _fit_profile(x)

    ratio = x / step
    k = np.rint(ratio)
    if np.any(np.abs(ratio - k) > 1e-6) or np.any(k < 1):
        raise ValueError("lattice values must be positive multiples of their step")
    k, count = np.unique(k, return_counts=True)

    best: optimize.OptimizeResult | None = None
    for g0 in _MLE_STARTS:
        res = optimize.minimize(
            _censored_nll,
            x0=np.array([_profile_a(g0, x**g0), g0]),
            args=(k, count, float(step)),
            method="L-BFGS-B",
            bounds=[(1e-10, None), GAMMA_BOUNDS],
        )
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not np.isfinite(best.fun):
        raise FitFailureError(
            "likelihood optimization failed from every start",
            best=None if best is None else tuple(best.x),
        )
    a, g = float(best.x[0]), float(best.x[1])
    return SEModel.normalized(a=a, gamma=g)


def _fit_profile(x: np.ndarray) -> SEModel:
    """Continuous MLE: minimize the profile likelihood over gamma in GAMMA_BOUNDS."""
    log_x = np.log(x)
    top = float(np.max(log_x))
    args = (log_x - top, top)
    # an xatol far below the default 1e-5 leaves only the search's relative
    # floor, a few 1e-8 * gamma, between the result and the optimum
    res = optimize.minimize_scalar(
        _profile_nll, bounds=GAMMA_BOUNDS, args=args, method="bounded", options={"xatol": 1e-10}
    )
    # the bounded search only approaches the bounds, so try them as well
    g, nll = min(
        [(float(res.x), float(res.fun))] + [(b, _profile_nll(b, *args)) for b in GAMMA_BOUNDS],
        key=lambda t: t[1],
    )
    with np.errstate(over="ignore"):
        a = float(np.exp(_profile_log_a(g, *args)))
    if not (np.isfinite(nll) and 0.0 < a < np.inf):
        raise FitFailureError("profile likelihood has no finite optimum", best=(a, g))
    return SEModel.normalized(a=a, gamma=g)


def fit_lsq(pdf: PdfTable) -> SEModel:
    """Least-squares fit of (c, a, gamma) to a log-binned density.

    Minimizes sum over non-empty bins of
    (log(density) - (log(c) - a * center**gamma))**2 with c free, so the
    result is marked ``constrained=False``. The start point comes from a
    gamma grid scan, where the model is linear in (log c, a).

    Raises
    ------
    ValueError
        Fewer than 5 non-empty bins.
    FitFailureError
        Flat density (a -> 0) or gamma stuck at the lower bound.
    """
    if pdf.n_bins < 5:
        raise ValueError("least-squares fit needs at least 5 non-empty bins")
    xc = pdf.center
    y = np.log(pdf.density)

    def residuals(p: np.ndarray) -> np.ndarray:
        log_c, a, g = p
        return y - (log_c - a * xc**g)

    best0: tuple[float, np.ndarray] | None = None
    ones = np.ones_like(xc)
    for g in np.linspace(GAMMA_BOUNDS[0], GAMMA_BOUNDS[1], 40):
        design = np.column_stack([ones, -(xc**g)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        if coef[1] < 0:
            continue
        sse = float(np.sum((y - design @ coef) ** 2))
        if best0 is None or sse < best0[0]:
            best0 = (sse, np.array([coef[0], coef[1], g]))
    if best0 is None:
        raise FitFailureError("no decaying start point found; density may be increasing")

    res = optimize.least_squares(
        residuals,
        x0=best0[1],
        bounds=([-np.inf, 0.0, GAMMA_BOUNDS[0]], [np.inf, np.inf, GAMMA_BOUNDS[1]]),
    )
    log_c, a, g = res.x
    decay = a * (float(xc[-1]) ** g - float(xc[0]) ** g)
    if a <= 1e-12 or decay <= 1e-6:
        raise FitFailureError("flat density: a collapsed to 0", best=tuple(res.x))
    if g <= GAMMA_BOUNDS[0] + 1e-9:
        raise FitFailureError("gamma stuck at the lower bound", best=tuple(res.x))
    return SEModel(c=float(np.exp(log_c)), a=float(a), gamma=float(g), constrained=False)


@dataclass(frozen=True)
class FitReport:
    """Fit summary: parameters plus goodness of fit.

    ``p`` is the bootstrap p-value (None when no bootstrap was run),
    ``ks`` the one-sample KS distance of the data to the model, and
    ``n_failed_refits`` counts bootstrap replicates dropped because their
    refit failed (only possible with refit=True).
    """

    model: SEModel
    mode: str
    n: int
    ks: float
    p: float | None = None
    n_boot: int = 0
    seed: int | None = None
    q: float | None = None
    n_failed_refits: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "q": self.q,
            "mode": self.mode,
            "c": self.model.c,
            "a": self.model.a,
            "gamma": self.model.gamma,
            "constrained": self.model.constrained,
            "n": self.n,
            "ks": self.ks,
            "p": self.p,
            "n_boot": self.n_boot,
            "seed": self.seed,
            "n_failed_refits": self.n_failed_refits,
        }
