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
P is evaluated here, on numpy arrays: below u = s + 1 by its power series,
above by Legendre's continued fraction for Q = 1 - P (the split of
Numerical Recipes' ``gammp``), each to the depth its hardest argument needs.

Scaled return intervals are whole minutes divided by <tau>, so they sit on
a lattice with step h = 1 / <tau>. For such data ``fit_mle`` maximizes the
interval-censored likelihood, in which tau = k means the continuous
interval fell in ((k - 1) h, k h] (the discretised-Weibull idea of Nakagawa
& Osaki 1975). A cell's mass is P(1/gamma, a h**gamma) for the first cell and
12-point Gauss-Legendre quadrature of the density for the others, which
avoids the cancellation in a difference of two nearly equal survival values;
a cell too wide in u for the rule takes that difference, which then cannot
cancel.

For continuous data the likelihood has a closed-form maximum in a at fixed
gamma, a(gamma) = n / (gamma * sum(x**gamma)), so ``fit_mle`` maximizes the
profile likelihood over gamma alone: its score in gamma is a closed form in
the x**gamma-weighted moments of log x and in digamma and trigamma at
1/gamma, and a safeguarded Newton search finds its root. The censored
likelihood and the least-squares fit are profiled over gamma too, with the
inner maximum found by Newton's method and by linear least squares, and
both searches run one bounded minimiser, Brent's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import FitFailureError
from .intervals import PdfTable

GAMMA_BOUNDS = (0.05, 2.0)
_EPS = float(np.finfo(np.float64).eps)
# 12-point Gauss-Legendre rule on [-1, 1] for the lattice cell masses
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
# a cell wider than this in u = a x**gamma is beyond the rule's accuracy
_WIDE_CELL = 8.0


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
    try:
        gamma_s = math.gamma(1.0 / gamma)
    except OverflowError:  # 1/gamma beyond 171.6: c underflows to 0 and no model is valid
        gamma_s = math.inf
    return float(gamma * a ** (1.0 / gamma) / gamma_s)


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
    return _gammainc(1.0 / model.gamma, model.a * x**model.gamma)


def _log_series(s: float, u):
    """log P(s, u) for u < s + 1, a float or an array, by the power series

        P = u**s e**-u / Gamma(s + 1) * sum_n u**n / ((s + 1) ... (s + n)),

    summed by Horner's rule with as many terms as the largest u needs.
    """
    u_max, n, term = float(np.max(u)), 0, 1.0
    while term > _EPS:
        n += 1
        term *= u_max / (s + n)
    total = 1.0
    for j in range(n, 0, -1):
        total *= u
        total /= s + j
        total += 1.0
    with np.errstate(divide="ignore"):
        return s * np.log(u) - u - math.lgamma(s + 1.0) + np.log(total)


def _log_fraction(s: float, u):
    """log Q(s, u) = log(1 - P(s, u)) for finite u >= s + 1, a float or an array.

    Legendre's continued fraction

        Q = u**s e**-u / Gamma(s) / (u + 1 - s + 1 (s - 1) / (u + 3 - s + 2 (s - 2) / ...))

    is evaluated bottom up, as deep as the modified Lentz recurrence needs
    to converge at the smallest u, where it converges slowest.
    """
    b = float(np.min(u)) + 1.0 - s
    c, d = math.inf, 1.0 / b
    for depth in range(1, 1000):
        b += 2.0
        d = 1.0 / (depth * (s - depth) * d + b)
        c = b + depth * (s - depth) / c
        if abs(c * d - 1.0) <= _EPS:
            break
    f = u + (2 * depth + 1 - s)
    for j in range(depth, 0, -1):
        f **= -1
        f *= j * (s - j)
        f += u
        f += 2 * j - 1 - s
    return s * np.log(u) - u - math.lgamma(s) - np.log(f)


def _gammainc_logs(s: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(low, v) for an array u >= 0: v = log P(s, u) where ``low`` (u < s + 1), else log Q(s, u).

    Both are taken in log space, so neither underflows; log Q is -inf at
    u = inf, and NaN stays NaN.
    """
    u = np.asarray(u, dtype=np.float64)
    low = u < s + 1.0
    v = np.where(np.isnan(u), np.nan, -np.inf)
    if np.any(low):
        v[low] = _log_series(s, u[low])
    mid = ~low & (u < np.inf)
    if np.any(mid):
        v[mid] = _log_fraction(s, u[mid])
    return low, v


def _gammainc(s: float, u) -> np.ndarray:
    """Regularized lower incomplete gamma function P(s, u) for u >= 0."""
    low, v = _gammainc_logs(s, u)
    return np.where(low, np.exp(v), -np.expm1(v))[()]


def digamma(x: float) -> float:
    """psi(x) = d log Gamma(x) / dx for x > 0.

    The recurrence psi(x) = psi(x + 1) - 1/x lifts x to 10 or more, where
    the asymptotic series through x**-12 is accurate to about 1e-15.
    """
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    t = 1.0 / (x * x)
    series = t * (1 / 12 - t * (1 / 120 - t * (1 / 252 - t * (1 / 240 - t * (1 / 132 - t * 691 / 32760)))))
    return math.log(x) - 0.5 / x - series - shift


def trigamma(x: float) -> float:
    """psi'(x) for x > 0: psi'(x) = psi'(x + 1) + 1/x**2 up to x >= 10, then the series through x**-15."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / (x * x)
        x += 1.0
    t = 1.0 / (x * x)
    series = t * (1 / 6 - t * (1 / 30 - t * (1 / 42 - t * (1 / 30 - t * (5 / 66 - t * (691 / 2730 - t * 7 / 6))))))
    return 1.0 / x + 0.5 * t + series / x + shift


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
    log_ratio = math.lgamma((m + 1.0) / g) - math.lgamma(1.0 / g)
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
    return -len(shifted_log_x) * (np.log(g) + (log_a - 1.0) / g - math.lgamma(1.0 / g))


def _minimize_bounded(func, bounds, args, xatol):
    """Minimize func(x, *args) over [lo, hi] by Brent's bounded search.

    A port of scipy 1.17's ``optimize.minimize_scalar(method="bounded")``
    (Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 5),
    with the same golden-section and parabolic steps, tolerances and
    comparisons, numpy scalar types and limit of 500 evaluations, so it
    evaluates ``func`` at the same points. The bounds themselves are never
    evaluated.

    Returns
    -------
    tuple
        (x, func(x), number of evaluations) at the best point found.
    """
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = bounds
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf, *args)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if np.abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x, *args)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx, num


def _bounded_min(func, bounds, args=()) -> tuple[float, float]:
    """(x, func(x)) at the lowest of Brent's optimum on [lo, hi] and the two bounds.

    An xatol of 1e-10, far below scipy's default 1e-5, leaves only the
    search's relative floor, a few 1e-8 * x, between the result and the
    optimum; the search only approaches the bounds, so they are tried as
    well.
    """
    x, fx, _ = _minimize_bounded(func, bounds, args, xatol=1e-10)
    return min([(float(x), float(fx))] + [(b, func(b, *args)) for b in bounds], key=lambda t: t[1])


def _cell_log_p(a: float, g: float, k: np.ndarray, h: float):
    """log of the model's mass in each cell ((k-1) h, k h], and the edges u = a x**gamma.

    The first cell holds P(1/gamma, a h**gamma). Any other cell holds c
    times the integral of exp(-a x**gamma) over it, by Gauss-Legendre
    quadrature, with each row's smallest u factored out so nothing
    underflows. A cell wider than ``_WIDE_CELL`` in u takes the difference
    of log Q at its edges instead: that difference cannot cancel, and the
    quadrature would lose accuracy.

    Returns (log p, u at (k-1) h, u at k h).
    """
    s = 1.0 / g
    u_lo = a * ((k - 1.0) * h) ** g
    u_hi = a * (k * h) ** g
    u = a * (((k - 0.5) * h)[:, None] + (0.5 * h) * _GL_NODES) ** g
    u_min = u[:, 0]
    log_ch = math.log(g) + math.log(a) / g - math.lgamma(s) + math.log(0.5 * h)
    log_p = np.log(np.exp(u_min[:, None] - u) @ _GL_WEIGHTS) + log_ch - u_min
    first = k == 1
    for i in np.flatnonzero(first):  # k holds distinct cells, so at most one
        u1 = float(u_hi[i])
        log_p[i] = _log_series(s, u1) if u1 < s + 1.0 else math.log(-math.expm1(_log_fraction(s, u1)))
    wide = (u_hi - u_lo > _WIDE_CELL) & ~first
    if np.any(wide):
        low, v = _gammainc_logs(s, np.concatenate([u_lo[wide], u_hi[wide]]))
        log_lower, log_upper = np.split(np.where(low, np.log1p(-np.exp(v)), v), 2)
        log_p[wide] = log_lower + np.log(-np.expm1(log_upper - log_lower))
    return log_p, u_lo, u_hi


def _censored_nll(params: np.ndarray, k: np.ndarray, count: np.ndarray, h: float) -> float:
    """Negative log-likelihood of lattice counts: tau = k lies in ((k-1) h, k h]."""
    a, g = params
    if a <= 0 or g <= 0:
        return np.inf
    return -float(np.dot(count, _cell_log_p(a, g, k, h)[0]))


def _censored_profile(g: float, k: np.ndarray, count: np.ndarray, h: float, t: float):
    """Maximize the censored likelihood over t = log a at fixed gamma, by Newton from t.

    With s = 1/gamma, u = a x**gamma and psi(u) = u**s e**-u / Gamma(s), a
    cell's mass moves as dp/dt = psi(u_hi) - psi(u_lo), and dpsi/dt =
    psi (s - u), so both derivatives of the log-likelihood are closed forms
    in the ratios psi/p, taken in log space. The log-likelihood is concave
    in t (log u of a Gamma variate has a log-concave density), but far from
    the optimum a Newton step can be huge or, where rounding leaves the
    curvature non-negative, point downhill; each step is therefore capped
    at 1 in t and made uphill.

    Returns
    -------
    tuple
        (negative log-likelihood, t) at the last iterate, the value equal
        to ``_censored_nll`` at (exp(t), gamma).
    """
    s = 1.0 / g
    log_gamma_s = math.lgamma(s)
    for _ in range(100):
        log_p, u_lo, u_hi = _cell_log_p(np.exp(t), g, k, h)
        with np.errstate(divide="ignore"):
            r_lo = np.exp(s * np.log(u_lo) - u_lo - log_gamma_s - log_p)
            r_hi = np.exp(s * np.log(u_hi) - u_hi - log_gamma_s - log_p)
        dp = r_hi - r_lo
        d1 = float(np.dot(count, dp))
        d2 = float(np.dot(count, r_hi * (s - u_hi) - r_lo * (s - u_lo) - dp * dp))
        step = min(max(-d1 / d2 if d2 < 0 else float(np.sign(d1)), -1.0), 1.0)
        if not abs(step) > 1e-10:  # converged, or the derivatives are NaN
            break
        t += step
    return -float(np.dot(count, log_p)), t


def _fit_censored(x: np.ndarray, k: np.ndarray, count: np.ndarray, h: float) -> SEModel:
    """Censored MLE: Brent over gamma in GAMMA_BOUNDS, Newton in log a at each gamma.

    The first Newton run starts from the continuous a(gamma) of the values
    x, each later one from the previous optimum.
    """
    t_at: dict[float, float] = {}
    t_warm = None

    def nll(g: float) -> float:
        nonlocal t_warm
        start = float(np.log(_profile_a(g, x**g))) if t_warm is None else t_warm
        value, t = _censored_profile(g, k, count, h, start)
        if not np.isfinite(value):
            return np.inf
        t_at[g] = t_warm = t
        return value

    g, value = _bounded_min(nll, GAMMA_BOUNDS)
    with np.errstate(over="ignore"):
        a = float(np.exp(t_at[g])) if g in t_at else np.nan
    if not (np.isfinite(value) and 0.0 < a < np.inf):
        raise FitFailureError("censored likelihood has no finite optimum", best=(a, g))
    return SEModel.normalized(a=a, gamma=g)


def fit_mle(sample: np.ndarray) -> SEModel:
    """Maximum-likelihood fit of (a, gamma) with c constrained.

    For a plain array, maximizes the continuous likelihood
    sum(log(c * exp(-a * x**gamma))) through its profile in gamma: at fixed
    gamma the best a is a(gamma) = n / (gamma * sum(x**gamma)), so the
    optimum over gamma in [0.05, 2] is a root of the profile score, found
    by safeguarded Newton, or a bound where the likelihood is higher. For
    lattice input, an array that carries a ``step`` h such as
    ``IntervalSample.scaled()`` returns, each value x = k h counts as a
    continuous value censored to ((k-1) h, k h] and the likelihood is
    sum_k c_k log(S((k-1) h) - S(k h)), with c_k the number of values equal
    to k h and S the model's survival function. It is profiled in gamma
    too, by a bounded Brent search over gamma in [0.05, 2] (bounds
    included), with the best log a at each gamma found by Newton's method
    on the distinct cells (k, c_k), from closed-form derivatives.

    Parameters
    ----------
    sample : array_like
        Scaled intervals; at least 50 strictly positive values. An
        optional ``step`` attribute marks them as multiples of that step.

    Returns
    -------
    SEModel
        Constrained model at the optimum found.

    Raises
    ------
    ValueError
        Fewer than 50 values, any value <= 0, or values that are not
        multiples of their ``step``.
    FitFailureError
        The optimum is not finite, or lattice values all fall in one cell;
        carries the best iterate in ``best`` when there is one.
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
    if len(k) < 2:
        raise FitFailureError("all values in one lattice cell: the likelihood has no interior maximum")
    return _fit_censored(x, k, count, float(step))


def _profile_score_root(shifted_log_x: np.ndarray) -> float:
    """Root in GAMMA_BOUNDS of the continuous profile score, by safeguarded Newton.

    Per value, the profile log-likelihood is l = log gamma + (log a(gamma) -
    1) / gamma - lgamma(1/gamma). With s = 1/gamma, M1 and V the
    x**gamma-weighted mean and variance of log x, and r = psi(s) - log
    a(gamma), its derivatives are

        l'  = (1 - M1) s + r s**2,
        l'' = -V s - (1 - 2 M1) s**2 + (1 - 2 r) s**3 - psi'(s) s**4.

    Rescaling x moves M1 and log a(gamma) so that l' does not change, so
    the shifted values serve, and one pass of exp(gamma * shifted_log_x)
    gives every sum. The search starts where the log-moment identity
    Var(log x) = psi'(s) s**2 holds (x**gamma is a Gamma(s) variate),
    inverted through the asymptotic form s + 1/2 + 1/(6 s) of its right
    side, or at the upper bound where that form has no root. A Newton step
    is taken when l'' < 0 and it lands inside the bracket of gammas where
    l' changed sign, which starts as GAMMA_BOUNDS; otherwise the bracket is
    bisected. The search stops at a step below 1e-10 gamma, from which
    Newton's quadratic convergence leaves only rounding.
    """
    n = len(shifted_log_x)
    sq = shifted_log_x * shifted_log_x
    lo, hi = GAMMA_BOUNDS
    b = float(np.var(shifted_log_x)) - 0.5
    disc = b * b - 2.0 / 3.0
    g = min(max(2.0 / (b + math.sqrt(disc)), lo), hi) if disc > 0 else hi
    for _ in range(100):
        w = np.exp(g * shifted_log_x)
        total = float(np.sum(w))
        m1 = float(w @ shifted_log_x) / total
        var = float(w @ sq) / total - m1 * m1
        s = 1.0 / g
        r = digamma(s) - math.log(n / (g * total))
        d1 = (1.0 - m1) * s + r * s * s
        d2 = -var * s - (1.0 - 2.0 * m1) * s * s + (1.0 - 2.0 * r) * s**3 - trigamma(s) * s**4
        if d1 > 0:
            lo = g
        else:
            hi = g
        new = g - d1 / d2 if d2 < 0 else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - g) <= 1e-10 * g:
            return new
        g = new
    return g


def _fit_profile(x: np.ndarray) -> SEModel:
    """Continuous MLE: the profile score root, or a bound of GAMMA_BOUNDS where the likelihood is higher."""
    log_x = np.log(x)
    top = float(np.max(log_x))
    args = (log_x - top, top)
    root = _profile_score_root(args[0])
    g, nll = min(((gi, _profile_nll(gi, *args)) for gi in (root, *GAMMA_BOUNDS)), key=lambda t: t[1])
    with np.errstate(over="ignore"):
        a = float(np.exp(_profile_log_a(g, *args)))
    if not (np.isfinite(nll) and 0.0 < a < np.inf):
        raise FitFailureError("profile likelihood has no finite optimum", best=(a, g))
    return SEModel.normalized(a=a, gamma=g)


def _lsq_fit(g: float, xc: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """(sum of squares, (log c, a)) of the best line y ~ log c - a * xc**g with a >= 0.

    At fixed gamma the model is linear in (log c, a). Where the free
    solution has a < 0, the constrained one has a = 0 and log c = mean(y).
    """
    design = np.column_stack([np.ones_like(xc), -(xc**g)])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    if coef[1] < 0:
        coef = np.array([np.mean(y), 0.0])
    return float(np.sum((y - design @ coef) ** 2)), coef


def fit_lsq(pdf: PdfTable) -> SEModel:
    """Least-squares fit of (c, a, gamma) to a log-binned density.

    Minimizes sum over non-empty bins of
    (log(density) - (log(c) - a * center**gamma))**2 with c free, so the
    result is marked ``constrained=False``. At fixed gamma the model is
    linear in (log c, a), so the sum of squares is profiled over gamma
    (variable projection): a 40-point gamma grid finds the best decaying
    grid point, and a bounded search between its two neighbours refines it.

    Raises
    ------
    ValueError
        Fewer than 5 non-empty bins.
    FitFailureError
        No decaying grid point, flat density (a -> 0), or gamma stuck at
        the lower bound. The fit stage does not catch it, so under
        ``analyze`` one failed threshold ends the run with exit 4 and no
        ``fits.csv``.
    """
    if pdf.n_bins < 5:
        raise ValueError("least-squares fit needs at least 5 non-empty bins")
    xc = pdf.center
    y = np.log(pdf.density)

    def sse(g: float) -> float:
        return _lsq_fit(g, xc, y)[0]

    grid = np.linspace(GAMMA_BOUNDS[0], GAMMA_BOUNDS[1], 40)
    scan = [_lsq_fit(g, xc, y) for g in grid]
    decaying = [i for i, (_, coef) in enumerate(scan) if coef[1] > 0]
    if not decaying:
        raise FitFailureError("no decaying start point found; density may be increasing")
    i = min(decaying, key=lambda j: scan[j][0])
    g, _ = _bounded_min(sse, (float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])))
    log_c, a = map(float, _lsq_fit(g, xc, y)[1])
    decay = a * (float(xc[-1]) ** g - float(xc[0]) ** g)
    if a <= 1e-12 or decay <= 1e-6:
        raise FitFailureError("flat density: a collapsed to 0", best=(log_c, a, g))
    if g <= GAMMA_BOUNDS[0] + 1e-9:
        raise FitFailureError("gamma stuck at the lower bound", best=(log_c, a, g))
    return SEModel(c=float(np.exp(log_c)), a=a, gamma=g, constrained=False)


@dataclass(frozen=True)
class FitReport:
    """Fit summary: parameters plus goodness of fit.

    ``p`` is the p-value of ``ks`` (None when none was computed), ``ks``
    the one-sample KS distance of the data to the model, ``n_boot`` the
    configured replicate count, which only a refit bootstrap draws, and
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
