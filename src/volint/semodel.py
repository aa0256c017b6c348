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
likelihood has no closed-form a(gamma), so safeguarded Newton runs in
(log a, gamma) jointly, with the gradient and Hessian in closed form at the
same quadrature nodes. The least-squares fit is profiled over gamma, with
(log c, a) a linear fit at each gamma, by golden-section search.
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
# 12-point Gauss-Legendre rule on [-1, 1] for the lattice cell masses: the
# values of numpy.polynomial.legendre.leggauss(12), whose import costs ~2 MiB
_GL_NODES = np.array([-0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
                      -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
                      0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192])  # fmt: skip
_GL_WEIGHTS = np.array([0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
                        0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
                        0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141])  # fmt: skip
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


def _profile_a(g: float, x_pow_g: np.ndarray, n: int | None = None) -> float:
    """a(gamma) = n / (gamma * sum(x**gamma)), the continuous MLE of a at fixed gamma.

    ``x_pow_g`` holds the terms x**gamma: of the n values, or of the distinct
    values times how often each occurs when ``n`` is given.
    """
    return (len(x_pow_g) if n is None else n) / (g * float(np.sum(x_pow_g)))


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


def _edge_log_p(s: float, u_lo: np.ndarray, u_hi: np.ndarray) -> np.ndarray:
    """log(Q(s, u_lo) - Q(s, u_hi)), from log P(s, u_hi) for the first cell (u_lo = 0) and log P or Q otherwise."""
    log_p = np.empty(len(u_hi))
    first = u_lo == 0.0
    for i in np.flatnonzero(first):  # the cells are distinct, so at most one
        u1 = float(u_hi[i])
        log_p[i] = _log_series(s, u1) if u1 < s + 1.0 else math.log(-math.expm1(_log_fraction(s, u1)))
    if not np.all(first):
        low, v = _gammainc_logs(s, np.concatenate([u_lo[~first], u_hi[~first]]))
        log_lower, log_upper = np.split(np.where(low, np.log1p(-np.exp(v)), v), 2)
        log_p[~first] = log_lower + np.log(-np.expm1(log_upper - log_lower))
    return log_p


def _cell_terms(a: float, g: float, k: np.ndarray, h: float):
    """log of the model's mass in each cell ((k-1) h, k h], with the terms its derivatives need.

    A cell holds c times the integral of exp(-a x**gamma) over it, by
    Gauss-Legendre quadrature, with each row's smallest u = a x**gamma
    factored out so nothing underflows. The first cell and any cell wider
    than ``_WIDE_CELL`` in u take ``_edge_log_p``: there the difference
    cannot cancel, and the quadrature would lose accuracy. Returns (log p,
    u at (k-1) h, u at k h, u at the nodes, each node's share of its cell's
    mass, mask of the ``_edge_log_p`` cells).
    """
    u_lo = a * ((k - 1.0) * h) ** g
    u_hi = a * (k * h) ** g
    u = a * (((k - 0.5) * h)[:, None] + (0.5 * h) * _GL_NODES) ** g
    mass = np.exp(u[:, :1] - u) * _GL_WEIGHTS
    total = np.sum(mass, axis=1)
    log_ch = math.log(g) + math.log(a) / g - math.lgamma(1.0 / g) + math.log(0.5 * h)
    log_p = np.log(total) + log_ch - u[:, 0]
    edge = (k == 1) | (u_hi - u_lo > _WIDE_CELL)
    if np.any(edge):
        log_p[edge] = _edge_log_p(1.0 / g, u_lo[edge], u_hi[edge])
    return log_p, u_lo, u_hi, u, mass / total[:, None], edge


def _cell_log_p(a: float, g: float, k: np.ndarray, h: float):
    """(log p, u at (k-1) h, u at k h) of ``_cell_terms``."""
    return _cell_terms(a, g, k, h)[:3]


def _censored_nll(params: np.ndarray, k: np.ndarray, count: np.ndarray, h: float) -> float:
    """Negative log-likelihood of lattice counts: tau = k lies in ((k-1) h, k h]."""
    a, g = params
    if a <= 0 or g <= 0:
        return np.inf
    return -float(np.dot(count, _cell_log_p(a, g, k, h)[0]))


def _t_derivs(s: float, u_lo: np.ndarray, u_hi: np.ndarray, log_p: np.ndarray):
    """First and second derivatives of each cell's log p in t = log a, from its edges.

    With psi(u) = u**s e**-u / Gamma(s), dp/dt = psi(u_hi) - psi(u_lo) and
    dpsi/dt = psi (s - u): closed forms in the ratios psi/p, in log space.
    """
    with np.errstate(divide="ignore"):
        r_lo = np.exp(s * np.log(u_lo) - u_lo - math.lgamma(s) - log_p)
        r_hi = np.exp(s * np.log(u_hi) - u_hi - math.lgamma(s) - log_p)
    d_t = r_hi - r_lo
    return d_t, r_hi * (s - u_hi) - r_lo * (s - u_lo) - d_t * d_t


def _censored_derivs(t: float, g: float, free: bool, k: np.ndarray, count: np.ndarray, h: float, log_x: np.ndarray):
    """Censored log-likelihood at (t = log a, gamma), with its gradient and Hessian.

    Per quadrature node, log f = log gamma + s t - lgamma(s) - u, with
    s = 1/gamma, u = e**t x**gamma and L = log x (``log_x``), so

        d/dt log f = s - u,                 d2/dt2 = -u,
        d/dgamma log f = s - (t - psi(s)) s**2 - u L,
        d2/dt dgamma = -s**2 - u L,
        d2/dgamma2 = -s**2 + 2 (t - psi(s)) s**3 - psi'(s) s**4 - u L**2.

    A cell's log p, the log of a weighted sum of f, has as gradient the
    node-share mean of the first derivatives and as Hessian the mean of the
    second plus the share covariance of the first. ``_edge_log_p`` cells
    take their t derivatives from ``_t_derivs`` and their gamma derivatives
    by central differences. Returns (log-likelihood, (d/dt, d/dgamma),
    (d2/dt2, d2/dt dgamma, d2/dgamma2)); unless gamma is ``free`` the gamma
    parts are 0, with a gamma curvature of -1, so that only t moves.
    """
    s, a = 1.0 / g, math.exp(t)
    log_p, u_lo, u_hi, u, w, edge = _cell_terms(a, g, k, h)
    m_u = np.sum(w * u, axis=1)
    du = u - m_u[:, None]
    d_t, d_tt = s - m_u, np.sum(w * du * du, axis=1) - m_u
    if np.any(edge):
        d_t[edge], d_tt[edge] = _t_derivs(s, u_lo[edge], u_hi[edge], log_p[edge])
    ll = float(count @ log_p)
    if not free:
        return ll, (float(count @ d_t), 0.0), (float(count @ d_tt), 0.0, -1.0)
    ul = u * log_x
    m_ul = np.sum(w * ul, axis=1)
    dul = ul - m_ul[:, None]
    r = (t - digamma(s)) * s * s
    d_g = s - r - m_ul
    d_tg = np.sum(w * du * dul, axis=1) - m_ul - s * s
    d_gg = np.sum(w * (dul * dul - ul * log_x), axis=1) - s * s + 2.0 * r * s - trigamma(s) * s**4
    if np.any(edge):
        x_lo, x_hi, step = (k[edge] - 1.0) * h, k[edge] * h, 1e-5 * g
        sides = []
        for gi in (g - step, g + step):
            side_lo, side_hi = a * x_lo**gi, a * x_hi**gi
            side_p = _edge_log_p(1.0 / gi, side_lo, side_hi)
            sides.append((side_p, _t_derivs(1.0 / gi, side_lo, side_hi, side_p)[0]))
        (p_minus, t_minus), (p_plus, t_plus) = sides
        d_g[edge] = (p_plus - p_minus) / (2.0 * step)
        d_gg[edge] = (p_plus - 2.0 * log_p[edge] + p_minus) / step**2
        d_tg[edge] = (t_plus - t_minus) / (2.0 * step)
    return ll, (float(count @ d_t), float(count @ d_g)), tuple(float(count @ d) for d in (d_tt, d_tg, d_gg))


def _censored_newton(t: float, g: float, free: bool, args: tuple) -> tuple[float, float, float]:
    """Maximize the censored likelihood from (t = log a, gamma) by safeguarded Newton.

    A step solves the 2x2 Newton system where the Hessian is negative
    definite and follows the gradient elsewhere. It moves t alone where
    gamma is not ``free``, or sits on a bound of GAMMA_BOUNDS that the step
    would leave (the likelihood is concave in t). Each step is capped at 1
    in t and 1/4 in gamma, and halved until the likelihood does not fall by
    more than rounding. A step below 1e-8 in t and 1e-8 gamma in gamma is
    the last, taken without a new pass: Newton's quadratic convergence
    leaves only rounding after it. ``args`` is (k, count, h, log x at the
    quadrature nodes). Returns the log-likelihood at the last iterate
    evaluated, and (t, gamma) after the last step.
    """
    lo, hi = GAMMA_BOUNDS
    ll, (g_t, g_g), (h_tt, h_tg, h_gg) = _censored_derivs(t, g, free, *args)
    for _ in range(100):
        det = h_tt * h_gg - h_tg * h_tg
        dt, dg = ((h_tg * g_g - h_gg * g_t) / det, (h_tg * g_t - h_tt * g_g) / det) if h_tt < 0 < det else (g_t, g_g)
        if (g <= lo and dg < 0) or (g >= hi and dg > 0):
            dt, dg = -g_t / h_tt if h_tt < 0 else g_t, 0.0
        scale = 1.0 / max(1.0, abs(dt), 4.0 * abs(dg))
        dt, dg = dt * scale, dg * scale
        while abs(dt) > 1e-8 or abs(dg) > 1e-8 * g:
            trial = _censored_derivs(t + dt, min(max(g + dg, lo), hi), free, *args)
            if trial[0] >= ll - 1e-13 * abs(ll):
                break
            dt, dg = 0.5 * dt, 0.5 * dg
        else:  # converged: the step left is below rounding in the likelihood; or NaN derivatives
            return (ll, t + dt, min(max(g + dg, lo), hi)) if math.isfinite(dt + dg) else (ll, t, g)
        t, g = t + dt, min(max(g + dg, lo), hi)
        ll, (g_t, g_g), (h_tt, h_tg, h_gg) = trial
    return ll, t, g


def fit_mle(sample: np.ndarray) -> SEModel:
    """Maximum-likelihood fit of (a, gamma) with c constrained.

    For a plain array, maximizes the continuous likelihood
    sum(log(c * exp(-a * x**gamma))) through its profile in gamma: at fixed
    gamma the best a is a(gamma) = n / (gamma * sum(x**gamma)), so the
    optimum over gamma in [0.05, 2] is a root of the profile score, found
    by safeguarded Newton, or a bound where the likelihood is higher. The
    view ``IntervalSample.scaled()`` returns is lattice input: the
    interval-censored likelihood of its sample's ``counts`` (k, c_k) at the
    step h = 1 / <tau> is maximized by ``_fit_lattice``.

    Parameters
    ----------
    sample : array_like
        Scaled intervals, at least 50 strictly positive values, or the view above.

    Returns
    -------
    SEModel
        Constrained model at the optimum found.

    Raises
    ------
    ValueError
        Fewer than 50 values, or any value <= 0 or not finite.
    FitFailureError
        The optimum is not finite, or lattice values all fall in one cell;
        carries the best iterate in ``best`` when there is one.
    """
    x = np.asarray(sample, dtype=np.float64)
    if len(x) < 50:
        raise ValueError("MLE fit needs at least 50 values")
    if getattr(sample, "sample", None) is not None:
        return _fit_lattice(*sample.sample.counts, sample.step)
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("MLE fit needs strictly positive finite values")
    return _fit_profile(x)


def _fit_lattice(k: np.ndarray, count: np.ndarray, h: float) -> SEModel:
    """Censored MLE of the lattice values k h, each occurring ``count`` times.

    A value k h is censored to ((k-1) h, k h], so the likelihood is
    sum_k c_k log(S((k-1) h) - S(k h)), S the model's survival function.
    Safeguarded Newton maximizes it over (log a, gamma) from the continuous
    profile root in gamma, and over log a alone at either bound of
    [0.05, 2]; the most likely run wins. Each run starts at the continuous
    a(gamma) = n / (gamma * sum_k c_k (k h)**gamma) of its gamma.
    """
    if len(k) < 2:
        raise FitFailureError("all values in one lattice cell: the likelihood has no interior maximum")
    n = int(count.sum())
    log_k = np.log(k)
    root = _profile_score_root(log_k - float(log_k[-1]), count)
    args = (k, count, h, np.log(((k - 0.5) * h)[:, None] + (0.5 * h) * _GL_NODES))
    lo, hi = GAMMA_BOUNDS
    runs = [
        _censored_newton(float(np.log(_profile_a(g, count * (k * h) ** g, n))), g, free, args)
        for g, free in ((root, True), (lo, False), (hi, False))
    ]
    ll, t, g = max(runs, key=lambda run: run[0] if np.isfinite(run[0]) else -np.inf)
    with np.errstate(over="ignore"):
        a = float(np.exp(t))
    if not (np.isfinite(ll) and 0.0 < a < np.inf):
        raise FitFailureError("censored likelihood has no finite optimum", best=(a, g))
    return SEModel.normalized(a=a, gamma=g)


def _profile_score_root(shifted_log_x: np.ndarray, count: np.ndarray | None = None) -> float:
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
    Newton's quadratic convergence leaves only rounding. ``count``, when
    given, is how often each value occurs.
    """
    n = len(shifted_log_x) if count is None else int(np.sum(count))
    sq = shifted_log_x * shifted_log_x
    lo, hi = GAMMA_BOUNDS
    b = float(np.var(shifted_log_x) if count is None else np.cov(shifted_log_x, fweights=count, bias=True)) - 0.5
    disc = b * b - 2.0 / 3.0
    g = min(max(2.0 / (b + math.sqrt(disc)), lo), hi) if disc > 0 else hi
    for _ in range(100):
        w = np.exp(g * shifted_log_x) if count is None else count * np.exp(g * shifted_log_x)
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


def _golden_min(func, lo: float, hi: float) -> float:
    """Minimizer of func on [lo, hi] by golden-section search to a bracket 1e-10 wide, or an end if lower."""
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    while b - a > 1e-10:
        c, d = b - r * (b - a), a + r * (b - a)
        if func(c) <= func(d):
            b = d
        else:
            a = c
    return min((0.5 * (a + b), lo, hi), key=func)


def fit_lsq(pdf: PdfTable) -> SEModel:
    """Least-squares fit of (c, a, gamma) to a log-binned density.

    Minimizes sum over non-empty bins of
    (log(density) - (log(c) - a * center**gamma))**2 with c free, so the
    result is marked ``constrained=False``. At fixed gamma the model is
    linear in (log c, a), so the sum of squares is profiled over gamma
    (variable projection): a 40-point gamma grid finds the best decaying
    grid point, and a golden-section search between its two neighbours
    refines it.

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
    g = _golden_min(sse, float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)]))
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
