"""Kolmogorov-Smirnov machinery: the two-sample scaling test across
thresholds, the one-sample distance to a fitted model, and its p-value,
from the exact Kolmogorov law or, on interval data, a parametric refit
bootstrap. That bootstrap takes each replicate's refit to first order
from the fitted censored model's cell masses and scores
(``lattice._cell_terms``), and scores data and replicates alike by the
discrete KS distance at the knots.

The two-sample statistic is the sup of |F_i - F_j| over the overlap of the
two supports. Acceptance at the 95% level uses
CV = 1.36 / sqrt(m * n / (m + n)), where m and n count the points inside
the overlap.

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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitFailureError, NoOverlapError
from .ingest import sorted_unique
from .intervals import CdfTable, DequantizedCdf, IntervalSample, empirical_cdf
from .lattice import _cell_terms
from .semodel import GAMMA_BOUNDS, FitReport, SEModel, _cdf_rows, se_cdf
from .splitmix import standard_normals

_PI2 = math.pi**2
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# rows of a Durbin matrix square computed per np.vecdot call
_ROWS_PER_BLOCK = 16


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


def two_sample_ks(fi: CdfTable | DequantizedCdf, fj: CdfTable | DequantizedCdf) -> KsResult:
    """KS distance between two CDF tables of one kind on their support overlap.

    The sup runs over the pooled table points inside
    [max(min_i, min_j), min(max_i, max_j)]. For ``CdfTable``s these are the
    sample points and the CDFs are the full-sample right-continuous step
    functions, so the statistic depends on ranks only. For
    ``DequantizedCdf``s they are the knots, between which both CDFs are
    linear. Either way the sup over the overlap is attained at a pooled
    point, so the statistic is exact and symmetric in the two samples. The
    effective sizes m, n for the critical value count only the points
    inside the overlap (``count_in``).

    Raises
    ------
    NoOverlapError
        The supports are disjoint, or one sample has no points inside the
        overlap.
    """
    lo = max(float(fi.x[0]), float(fj.x[0]))
    hi = min(float(fi.x[-1]), float(fj.x[-1]))
    if lo > hi:
        raise NoOverlapError(f"supports [{fi.x[0]:g}, {fi.x[-1]:g}] and [{fj.x[0]:g}, {fj.x[-1]:g}] do not overlap")
    pooled = sorted_unique(np.concatenate((fi.x, fj.x)))
    pooled = pooled[(pooled >= lo) & (pooled <= hi)]
    stat = float(np.max(np.abs(fi.eval(pooled) - fj.eval(pooled))))
    m, n = fi.count_in(lo, hi), fj.count_in(lo, hi)
    if m < 1 or n < 1:
        raise NoOverlapError(f"support overlap [{lo:g}, {hi:g}] contains no points of one sample")
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


def ks_matrix(samples: Sequence[IntervalSample], lattice: bool = True) -> KsMatrix:
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
                res = two_sample_ks(tables[i], tables[j])
            except NoOverlapError as e:
                raise NoOverlapError(f"pair (q={qs[i]:g}, q={qs[j]:g}): {e}") from e
            pairs.append(KsPair(q_i=qs[i], q_j=qs[j], result=res))
    return KsMatrix(pairs=tuple(pairs))


def _ks_steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The empirical CDF of n sorted points at and just below each point: i/n and (i-1)/n."""
    i = np.arange(1, n + 1)
    return i / n, (i - 1) / n


def _sorted_cdf_ks(f: np.ndarray, steps: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """sup |F_n - F| from the model CDF values f at the sorted sample points.

    Checked at both sides of each step of the empirical CDF, where the sup
    of a continuous F against a step function is attained. As i/n - f >=
    (i-1)/n - f, the larger of the two gaps' absolute values is the larger of
    i/n - f and f - (i-1)/n. ``steps`` holds F_n at and just below each
    point, ``_ks_steps(len(f))`` unless given.
    """
    upper, lower = steps or _ks_steps(len(f))
    return float(np.maximum((upper - f).max(), (f - lower).max()))


def one_sample_ks(sample, model: SEModel) -> float:
    """sup_x |F_n(x) - F(x)| against the model CDF, checked at both step sides.

    The statistic depends on the sample only through the sorted CDF values
    F(x_(i)). For a sample drawn from the same continuous model these are
    uniform order statistics (probability integral transform), so the
    statistic has the Kolmogorov law of ``kolmogorov_sf`` whatever the
    model is. An ``IntervalSample`` is scored from its ``counts``: at each
    distinct k / <tau>, F_n is C_k / n and just below it C_(k-1) / n, C_k
    being the cumulative count, so F is taken at K points instead of n.
    """
    if isinstance(sample, IntervalSample):
        k, count = sample.counts
        cum = np.cumsum(count)
        steps = (cum / len(sample), (cum - count) / len(sample))
        return _sorted_cdf_ks(se_cdf(model, k / sample.mean_interval), steps)
    x = np.sort(np.asarray(sample, dtype=np.float64))
    if len(x) == 0:
        raise ValueError("empty sample")
    return _sorted_cdf_ks(se_cdf(model, x))


def _log_nfact_over_npow(n: int) -> float:
    """log(n! / n**n)."""
    return math.lgamma(n + 1.0) - n * math.log(n)


def _smirnov_sf(d: float, n: int) -> float:
    """P(D_n+ >= d), the one-sided tail, by the Birnbaum-Tingey sum.

    d * sum_j C(n, j) (1 - p_j)**(n - j) p_j**(j - 1), p_j = d + j/n, over
    the j >= 0 with p_j < 1 (the term with p_j = 1 is zero), summed in log
    space; log C(n, j) is the running sum of log((n - i + 1) / i).
    """
    last = math.floor(n * (1.0 - d))
    if d + last / n >= 1.0:
        last -= 1
    j = np.arange(last + 1.0)
    p = d + j / n
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n + 1.0 - j[1:]) / j[1:]))))
    log_terms = log_binom + (n - j) * np.log(1.0 - p) + (j - 1.0) * np.log(p)
    top = float(log_terms.max())
    return d * math.exp(top) * float(np.exp(log_terms - top).sum())


def _normalized(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a = b * 2**e with max(b) in [0.5, 1); a is nonnegative and not all zero."""
    e = math.frexp(float(a.max()))[1]
    return np.ldexp(a, -e), e


def _square_flipped(s: np.ndarray) -> np.ndarray:
    """s J s for a symmetric s, J the order reversal, from one triangle.

    Entry (i, j) is the dot product of row i with row j reversed, and the
    result is symmetric, so only j >= i is computed, a block of rows at a
    time. Every entry is one ``np.vecdot`` dot product: a BLAS matrix
    product splits its work across threads, and its bits then depend on the
    thread count, while a dot product this short is never split.
    """
    m = len(s)
    flipped = np.ascontiguousarray(s[:, ::-1])
    upper = np.zeros_like(s)
    for lo in range(0, m, _ROWS_PER_BLOCK):
        hi = min(lo + _ROWS_PER_BLOCK, m)
        upper[lo:hi, lo:] = np.vecdot(s[lo:hi, None, :], flipped[None, lo:, :])
    below = np.arange(m)[:, None] > np.arange(m)
    return np.where(below, upper.T, upper)


def _durbin_cdf(d: float, n: int) -> float:
    """P(D_n < d) by the Durbin matrix of Marsaglia, Tsang & Wang (2003).

    With n d = k - h, k a whole number and 0 <= h < 1, the probability is
    n! / n**n times the middle entry of H**n, H being 2k - 1 wide. H is
    persymmetric (J H J is its transpose), so each power P of it is carried
    as the symmetric S = P J, whose square is S J S = P**2 J. The power is
    taken by squaring, applied to the middle row only (u P = (u S) J), with
    each factor rescaled by a power of two so that nothing overflows.
    """
    t = n * d
    k = math.ceil(t)
    h = k - t
    m = 2 * k - 1
    inv_fact = np.concatenate(([1.0], np.cumprod(1.0 / np.arange(1, m + 1))))
    i = np.arange(m)
    lag = i[:, None] - i[None, :] + 1
    durbin = np.where(lag >= 0, inv_fact[np.clip(lag, 0, m)], 0.0)
    edge = (1.0 - h ** (i + 1.0)) * inv_fact[1:]
    edge[-1] = (1.0 - 2.0 * h**m + max(0.0, 2.0 * h - 1.0) ** m) * inv_fact[m]
    durbin[:, 0] = edge
    durbin[-1, :] = edge[::-1]
    sym, e_sym = durbin[:, ::-1], 0
    row, e_row = np.eye(m)[k - 1], 0
    left = n
    while True:
        if left & 1:
            row, e = _normalized(np.vecdot(sym, row)[::-1])
            e_row += e_sym + e
        left >>= 1
        if not left:
            break
        sym, e = _normalized(_square_flipped(sym))
        e_sym = 2 * e_sym + e
    return math.exp(math.log(row[k - 1]) + e_row * math.log(2.0) + _log_nfact_over_npow(n))


def _pelz_good_cdf(d: float, n: int) -> float:
    """P(D_n <= d) by the Pelz & Good (1976) series in 1/sqrt(n), to 1/n**1.5.

    With z = d sqrt(n), the terms sum over the odd m = 2k - 1, weighted by
    exp(-pi**2 m**2 / (8 z**2)), and over every k, weighted by
    exp(-pi**2 k**2 / (2 z**2)), for k up to 16 z / pi.
    """
    z = math.sqrt(n) * d
    z2, z4, z6 = z**2, z**4, z**6
    k = np.arange(1.0, math.ceil(16.0 * z / math.pi) + 1.0)
    a = _PI2 * (2.0 * k - 1.0) ** 2 / 4.0
    odd = np.exp(-a / (2.0 * z2))
    b = _PI2 * k**2
    every = b * np.exp(-b / (2.0 * z2))
    k0 = odd.sum() / z
    k1 = ((a - z2) * odd).sum() / (6.0 * z4)
    c2 = 6.0 * z6 + 2.0 * z4 + (2.0 * z4 - 5.0 * z2) * a + (1.0 - 2.0 * z2) * a**2
    k2 = (c2 * odd).sum() / (72.0 * z**7) - every.sum() / (36.0 * z**3)
    c3 = -30.0 * z6 - 90.0 * z**8 + (135.0 * z4 - 96.0 * z6) * a
    c3 += (212.0 * z4 - 60.0 * z2) * a**2 + (5.0 - 30.0 * z2) * a**3
    k3 = (c3 * odd).sum() / (6480.0 * z**10) + ((3.0 * z2 - b) * every).sum() / (216.0 * z6)
    return _SQRT_2PI * float(k0 + k1 / math.sqrt(n) + k2 / n + k3 / n**1.5)


def kolmogorov_sf(d: float, n: int) -> float:
    """P(D_n > d) for the two-sided one-sample KS statistic D_n of n points.

    The method follows the split of Simard & L'Ecuyer (2011, J. Stat.
    Softw. 39(11)), as ``scipy.stats.kstwo`` does:

    - closed forms at the ends: the Ruben-Gambino product for n d <= 1,
      2 (1 - d)**n for n d >= n - 1, and twice the exact one-sided tail for
      d >= 0.5;
    - twice the one-sided tail (``_smirnov_sf``) for n d**2 >= 2.2, or above
      4 when n <= 140, and 0 for n > 140 and n d**2 >= 370;
    - the Durbin matrix (``_durbin_cdf``) for n <= 140, and for
      n <= 100,000 with n d**1.5 <= 1.4, which keeps it at most 117 wide;
    - the Pelz-Good series elsewhere.

    It agrees with ``scipy.stats.kstwo.sf`` to 1e-6 absolute, and to 1e-5
    relative wherever that is at least 1e-12.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        return -math.expm1(_log_nfact_over_npow(n) + n * math.log(2.0 * t - 1.0))
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    nd2 = t * d
    if d < 0.5 and n > 140 and nd2 >= 370.0:
        return 0.0
    tail = nd2 > 4.0 if n <= 140 else nd2 >= 2.2
    if d >= 0.5 or tail:
        p = 2.0 * _smirnov_sf(d, n)
    elif n <= 140 or (n <= 100_000 and n * d**1.5 <= 1.4):
        p = 1.0 - _durbin_cdf(d, n)
    else:
        p = 1.0 - _pelz_good_cdf(d, n)
    return min(max(p, 0.0), 1.0)


def _knot_grid(sample: IntervalSample) -> tuple[np.ndarray, np.ndarray]:
    """The knots k / <tau>, k = 1 ... K, K the largest interval, and the sample's F_n = C_k / n at each.

    C_k counts the intervals of at most k minutes. F_n steps only at the
    knots, so the lattice distance is taken there alone, as in the discrete
    KS of Conover (1972).
    """
    k, count = sample.counts
    per_cell = np.zeros(int(k[-1]))
    per_cell[k.astype(np.intp) - 1] = count
    return np.arange(1.0, len(per_cell) + 1.0) / sample.mean_interval, np.cumsum(per_cell) / len(sample)


# replicates drawn and scored together in one block of the lattice bootstrap
_BOOT_ROWS = 100


def _lattice_replicates(sample: IntervalSample, model: SEModel, n_boot: int, seed: int) -> tuple[float, int]:
    """(knot distance, replicates beyond it) of the linearised lattice bootstrap; see ``bootstrap_pvalue``."""
    x, f_n = _knot_grid(sample)
    ks = float(np.abs(_cdf_rows(np.array([model.a]), np.array([model.gamma]), x)[0] - f_n).max(initial=0.0))
    n, k, m = len(sample), len(x), len(x) + 1
    terms = _cell_terms(model.a, model.gamma, np.arange(1.0, m + 1.0), 1.0 / sample.mean_interval, m)[0]
    p, score = np.exp(terms[0]), terms[1:]
    i_tt, i_tg, i_gg = (np.vecdot(p * score[i], score[j]) for i, j in ((0, 0), (0, 1), (1, 1)))  # I / n
    det = i_tt * i_gg - i_tg * i_tg
    if not (np.isfinite(det) and det > 1e-10 * i_tt * i_gg):
        raise FitFailureError("the model's Fisher information on the lattice cells is singular")
    cdf, grad = np.cumsum(p)[:k], np.cumsum(p * score, axis=1)[:, :k]  # F and G at the knots
    rows = np.sqrt(p) * np.array([np.ones(m), *score])
    # -1 or 1 where gamma sits on the lower or upper bound: a step that would leave it moves log a alone
    pin = -1 if model.gamma <= GAMMA_BOUNDS[0] else 1 if model.gamma >= GAMMA_BOUNDS[1] else 0
    n_exceed = 0
    for first in range(0, n_boot, _BOOT_ROWS):
        z = standard_normals(seed, first * m, min(first + _BOOT_ROWS, n_boot) * m).reshape(-1, m)
        # sqrt(p) . z, and sum_j y_j d_j / sqrt(n), as sum_j p_j d_j = 0 (the gradient of sum_j p_j = 1);
        # delta, Y / n and so each distance are taken sqrt(n) times too large
        proj = np.vecdot(z[:, None, :], rows)
        d_t, d_g = (i_gg * proj[:, 1] - i_tg * proj[:, 2]) / det, (i_tt * proj[:, 2] - i_tg * proj[:, 1]) / det
        pinned = pin * d_g > 0
        d_t, d_g = np.where(pinned, proj[:, 1] / i_tt, d_t), np.where(pinned, 0.0, d_g)
        z *= rows[0]
        gap = np.cumsum(z, axis=1)[:, :k] - proj[:, :1] * cdf
        gap -= d_t[:, None] * grad[0] + d_g[:, None] * grad[1]
        n_exceed += int(np.sum(np.abs(gap, out=gap).max(axis=1) > ks * math.sqrt(n)))
    return ks, n_exceed


def bootstrap_pvalue(
    sample,
    model: SEModel,
    n_boot: int = 1000,
    seed=None,
    refit: bool = False,
    mode: str = "mle",
) -> FitReport:
    """Goodness of fit: a KS distance ``ks`` of the sample to the model and its p-value.

    With ``refit=False`` (default) ``ks`` is the one-sample KS distance and
    p = P(D_n > ks) under the Kolmogorov law (``kolmogorov_sf``). Scored
    against a fixed continuous model, a sample drawn from that model has
    F(X) ~ Uniform(0, 1) by the probability integral transform, so this is
    exactly the p-value a fixed-model parametric bootstrap estimates, and
    no replicate is drawn; ``n_boot`` and ``seed`` are only recorded. When
    the model was fitted to the same sample, this p is conservative
    (Lilliefors 1967), and on lattice intervals the lattice steps dominate
    the distance, so p is near 0 whatever the fit.

    With ``refit=True`` it is a parametric bootstrap of ``n_boot``
    replicates, each refitted and compared against its own fit, and
    p = #(KS_sim > ks) / n_boot (Clauset, Shalizi & Newman 2009). It takes
    only lattice input, the view ``IntervalSample.scaled()`` returns, and
    raises ``ValueError`` on anything else. ``ks`` is the knot distance
    max_k |C_k / n - F(k h)| (``_knot_grid``), h = 1 / <tau>. Each refit is
    its first-order step from the fitted model, the fast large-sample form
    of the parametric bootstrap (Kojadinovic, Yan & Holmes 2011; Durbin
    1973), built from the model's masses p_j and scores d_j = grad log p_j
    in (log a, gamma) over the cells ((j-1) h, j h], j = 1 ... K, and the
    open tail (K h, inf). A replicate moves the cell counts by
    y = sqrt(n) (sqrt(p) z - p (sqrt(p) . z)), z standard normal, which has
    the multinomial covariance, and its estimate by
    delta = I^-1 sum_j y_j d_j, I = n sum_j p_j d_j d_j^T, or in log a alone
    where gamma sits on a bound of ``GAMMA_BOUNDS`` that delta would leave.
    Its distance is max_k |Y_k / n - G_k . delta|, Y the cumulative sum of y
    and G_k = sum_(j <= k) p_j d_j the gradient of F(k h). z comes from
    ``splitmix.standard_normals`` of ``seed`` (None takes 0), normal
    r (K + 1) + j for cell j of replicate r, ``_BOOT_ROWS`` replicates at a
    time, so p does not depend on the block size. Every sum is a
    ``np.vecdot`` or a ``np.cumsum``, so p has the same bits at any BLAS
    thread count. Raises ``FitFailureError`` where I is singular, as when
    the model puts nearly all its mass in one cell.
    """
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    lattice = getattr(sample, "sample", None)
    if refit and lattice is None:
        raise ValueError("refit=True takes interval data as the lattice view IntervalSample.scaled()")
    n = len(sample)
    observed = sample if lattice is None else lattice
    if refit:
        ks_obs, n_exceed = _lattice_replicates(lattice, model, n_boot, 0 if seed is None else seed)
        p = n_exceed / n_boot
    else:
        ks_obs = one_sample_ks(observed, model)
        p = kolmogorov_sf(ks_obs, n)
    return FitReport(
        model=model,
        mode=mode,
        n=n,
        ks=ks_obs,
        p=p,
        n_boot=n_boot,
        seed=seed if isinstance(seed, int) else None,
        q=observed.q if isinstance(observed, IntervalSample) else None,
    )


def __getattr__(name: str):
    """``semodel.fit_mle`` and ``semodel.se_sample`` under this module's name,
    where perfbench/trace.py still wraps them; nothing here calls them."""
    if name in ("fit_mle", "se_sample"):
        from . import semodel

        return getattr(semodel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
