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
interval-censored likelihood of ``volint.lattice`` instead.

For continuous data the likelihood has a closed-form maximum in a at fixed
gamma, a(gamma) = n / (gamma * sum(x**gamma)), so ``fit_mle`` maximizes the
profile likelihood over gamma alone: its score in gamma is a closed form in
the x**gamma-weighted moments of log x and in digamma and trigamma at
1/gamma, and a safeguarded Newton search finds its root. The least-squares
fit is profiled over gamma, with (log c, a) a linear fit at each gamma, by
golden-section search.
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
# series sums of at most this many elements with their own s run element by element
_FEW = 16


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


def _cdf_rows(a: np.ndarray, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """CDF of the normalized members (a_i, gamma_i) at the points x >= 0, one row per member."""
    u = x ** g[:, None]
    u *= a[:, None]
    return _gammainc((1.0 / g)[:, None], u)


def _lgamma(x):
    """log Gamma(x) of a float, or of each element of an array."""
    if np.ndim(x) == 0:
        return math.lgamma(x)
    return np.array([math.lgamma(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _log_series(s, u, lgamma_s1):
    """log P(s, u) for u < s + 1 by the power series

        P = u**s e**-u / Gamma(s + 1) * sum_n u**n / ((s + 1) ... (s + n)),

    summed by Horner's rule with as many terms as the slowest element
    needs: for a float s the largest u, for an array s (like u) the largest
    term at each depth. u is a float or an array; ``lgamma_s1`` is
    lgamma(s + 1), a float or an array like s. A few elements with their own
    s are summed one at a time, in floats, which is quicker.
    """
    if np.ndim(s) and np.size(u) <= _FEW:
        each = zip(s.tolist(), np.ravel(u).tolist(), lgamma_s1.tolist())
        return np.array([_log_series(*z) if z[1] > 0.0 else -np.inf for z in each])
    if np.ndim(s):
        n, term = 0, np.ones(np.shape(u))
        while term.max() > _EPS:
            n += 1
            term *= u / (s + n)
    else:
        u_max, n, term = float(np.max(u)) if np.ndim(u) else u, 0, 1.0
        while term > _EPS:
            n += 1
            term *= u_max / (s + n)
    total = 1.0
    for j in range(n, 0, -1):
        total *= u
        total /= s + j
        total += 1.0
    with np.errstate(divide="ignore"):
        return s * np.log(u) - u - lgamma_s1 + np.log(total)


def _lentz_depth(s, u) -> int:
    """Depth at which the modified Lentz recurrence for Q(s, u) has converged at every pair (s, u)."""
    b = u + 1.0 - s
    c, d = math.inf, 1.0 / b
    converged = False
    for depth in range(1, 1000):
        b = b + 2.0
        a = depth * (s - depth)
        d = 1.0 / (a * d + b)
        c = b + a / c
        converged = converged | (np.abs(c * d - 1.0) <= _EPS)
        if np.all(converged):
            break
    return depth


def _log_fraction(s, u, lgamma_s, depth: int):
    """log Q(s, u) = log(1 - P(s, u)) for finite u >= s + 1, a float or an array.

    Legendre's continued fraction

        Q = u**s e**-u / Gamma(s) / (u + 1 - s + 1 (s - 1) / (u + 3 - s + 2 (s - 2) / ...))

    is evaluated bottom up, ``depth`` deep. s and ``lgamma_s`` = lgamma(s)
    are floats or arrays like u.
    """
    f = u + (2 * depth + 1 - s)
    for j in range(depth, 0, -1):
        f **= -1
        f *= j * (s - j)
        f += u
        f += 2 * j - 1 - s
    log_q = np.log(u)  # s log u - u - lgamma(s) - log f, without whole-size temporaries
    log_q *= s
    log_q -= u
    log_q -= lgamma_s
    log_q -= np.log(f)
    return log_q


def _gammainc_logs(s, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(low, v) for an array u >= 0: v = log P(s, u) where ``low`` (u < s + 1), else log Q(s, u).

    s is a float, an array like u, or one per row of u (shape (..., 1)).
    Both are taken in log space, so neither underflows; log Q is -inf at
    u = inf, and NaN stays NaN. The continued fraction for Q is taken as
    deep as the Lentz recurrence needs to converge where it converges
    slowest for each s, at its smallest u: over u for a float s, along each
    row for one s per row, and at every pair for an array like u.
    """
    u = np.asarray(u, dtype=np.float64)
    low = u < s + 1.0
    mid = ~low & (u < np.inf)
    v = np.where(np.isnan(u), np.nan, -np.inf)

    def pick(z, mask):  # z, a float or one per row of u or like u, at the elements of mask
        return np.broadcast_to(z, u.shape)[mask] if np.ndim(z) else z

    if np.any(low):
        v[low] = _log_series(pick(s, low), u[low], pick(_lgamma(s + 1.0), low))
    if np.any(mid):
        if np.ndim(s) == 0:
            depth = _lentz_depth(s, float(np.min(u[mid])))
        else:
            probe = np.where(mid, u, np.inf)
            if np.shape(s)[-1] == 1:
                probe = probe.min(axis=-1, keepdims=True)
            shown = np.isfinite(probe)
            depth = _lentz_depth(np.broadcast_to(s, probe.shape)[shown], probe[shown])
        v[mid] = _log_fraction(pick(s, mid), u[mid], pick(_lgamma(s), mid), depth)
    return low, v


def _gammainc(s: float, u) -> np.ndarray:
    """Regularized lower incomplete gamma function P(s, u) for u >= 0."""
    low, v = _gammainc_logs(s, u)
    p = np.negative(np.expm1(v), out=np.empty_like(v))
    p[low] = np.exp(v[low])
    return p[()]


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


def fit_mle(sample: np.ndarray) -> SEModel:
    """Maximum-likelihood fit of (a, gamma) with c constrained.

    For a plain array, maximizes the continuous likelihood
    sum(log(c * exp(-a * x**gamma))) through its profile in gamma: at fixed
    gamma the best a is a(gamma) = n / (gamma * sum(x**gamma)), so the
    optimum over gamma in [0.05, 2] is a root of the profile score, found
    by safeguarded Newton, or a bound where the likelihood is higher. The
    view ``IntervalSample.scaled()`` returns is lattice input: the
    interval-censored likelihood of its sample's ``counts`` (k, c_k) at the
    step h = 1 / <tau> is maximized by ``lattice.fit_lattice``.

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
        from .lattice import fit_lattice  # the lattice module builds on this one

        return fit_lattice(*sample.sample.counts, sample.step)
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("MLE fit needs strictly positive finite values")
    return _fit_profile(x)


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

    ``p`` is the p-value of ``ks`` (None when none was computed). ``ks`` is
    the one-sample KS distance of the data to the model, or, from the refit
    bootstrap of lattice input, the discrete KS distance at the knots
    max_k |C_k / n - F(k / <tau>)|. ``n_boot`` is the configured replicate
    count, which only a refit bootstrap draws, and ``n_failed_refits``
    counts bootstrap replicates dropped because their refit failed (only
    possible with refit=True).
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
