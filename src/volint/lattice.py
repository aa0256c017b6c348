"""Interval-censored likelihood of lattice interval counts, fitted in lockstep.

Scaled return intervals are whole minutes divided by <tau>, so they sit on
a lattice with step h = 1 / <tau>, and tau = k means that the continuous
interval fell in the cell ((k - 1) h, k h] (the discretised-Weibull idea of
Nakagawa & Osaki 1975). A cell's mass is P(1/gamma, a h**gamma) for the
first cell and Gauss-Legendre quadrature of the density for the others (12
points, or 6 for narrow cells away from 0), which avoids the cancellation
in a difference of two nearly equal survival values; a cell too wide in u
for the rule, and the open tail cell of a bootstrap replicate, take that
difference, which then cannot cancel.

The censored likelihood has no closed-form a(gamma), so safeguarded Newton
runs in (log a, gamma) jointly, with the gradient and Hessian in closed
form at the quadrature nodes. Its runs go in lockstep: the three starts of
one fit (``fit_lattice``, which ``semodel.fit_mle`` calls for lattice
input), or every replicate of a refit bootstrap (``LatticeRefit``), each
pass evaluating the cells of all runs still moving at once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import FitFailureError
from .semodel import GAMMA_BOUNDS, SEModel, _gammainc_logs, _lgamma, _profile_a, _profile_score_root, digamma, trigamma

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
# 6-point rule, for cells k >= 8 at most _NARROW_CELL wide in u, where it
# agrees with the 12-point rule to rounding: leggauss(6)
_GL6_NODES = np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                       0.2386191860831969, 0.6612093864662645, 0.9324695142031519])  # fmt: skip
_GL6_WEIGHTS = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                         0.46791393457269104, 0.3607615730481387, 0.17132449237917027])  # fmt: skip
_NARROW_CELL = 0.25
# cells per block of a likelihood pass: its (nodes x cells) arrays take 64 KiB each
_BLOCK_CELLS = 2**13 // len(_GL_NODES)
# passes of a lockstep Newton run, step halvings included
_MAX_PASSES = 200


def _edge_log_p(s, u_lo: np.ndarray, u_hi: np.ndarray) -> np.ndarray:
    """log(Q(s, u_lo) - Q(s, u_hi)) per cell, from log P or log Q at both edges; s is a float or one per cell.

    log Q is 0 at u_lo = 0 (a first cell) and -inf at u_hi = inf (an open
    one). log1p and expm1 carry a small P through 1 - P, so a first cell
    keeps the accuracy of log P(s, u_hi).
    """
    low, v = _gammainc_logs(np.tile(s, 2) if np.ndim(s) else s, np.concatenate([u_lo, u_hi]))
    with np.errstate(divide="ignore"):
        log_q = np.where(low, np.log1p(-np.exp(v)), v)
        return log_q[: len(u_lo)] + np.log(-np.expm1(log_q[len(u_lo) :] - log_q[: len(u_lo)]))


class _Grid(NamedTuple):
    """Cells ((k-1) h, k h], cell ``k_open`` the open tail: logs of their edges (-inf, inf at the ends) and nodes."""

    k: np.ndarray
    h: float
    log_lo: np.ndarray
    log_hi: np.ndarray
    log_x: np.ndarray  # one column of 12-point node logs per cell
    log_x6: np.ndarray  # and of 6-point node logs


def _grid(k: np.ndarray, h: float, k_open: float = math.inf) -> _Grid:
    with np.errstate(divide="ignore"):
        log_lo = np.log((k - 1.0) * h)
    log_hi = np.where(k == k_open, np.inf, np.log(k * h))
    log_x, log_x6 = (np.log((k - 0.5) * h + (0.5 * h) * nodes[:, None]) for nodes in (_GL_NODES, _GL6_NODES))
    return _Grid(k, h, log_lo, log_hi, log_x, log_x6)


def _cell_edges(t, g, log_lo: np.ndarray, log_hi: np.ndarray):
    """u = exp(t + gamma log x) at each cell's edges, and the mask of the cells that take ``_edge_log_p``.

    Those are the first cell (u = 0 at its lower edge), an open one and any
    cell wider than ``_WIDE_CELL`` in u: there the difference of survival
    values cannot cancel, and the quadrature would lose accuracy.
    """
    u_lo, u_hi = np.exp(t + g * log_lo), np.exp(t + g * log_hi)
    return u_lo, u_hi, (u_lo == 0.0) | (u_hi - u_lo > _WIDE_CELL)


def _cell_log_p(a: float, g: float, k: np.ndarray, h: float, k_open: float = math.inf):
    """(log p, u at (k-1) h, u at k h) of the model's mass in each cell ((k-1) h, k h]; cell ``k_open`` is open."""
    t, grid = math.log(a), _grid(k, h, k_open)
    cells = _Cells(grid, np.zeros(len(k), dtype=np.intp), np.arange(len(k)), np.ones(len(k)))
    log_p = _cell_derivs(np.array([t]), np.array([g]), np.zeros(1, dtype=bool), cells)[0]
    return log_p, *_cell_edges(t, g, grid.log_lo, grid.log_hi)[:2]


def _censored_nll(params: np.ndarray, k: np.ndarray, count: np.ndarray, h: float) -> float:
    """Negative log-likelihood of lattice counts: tau = k lies in ((k-1) h, k h]."""
    a, g = params
    if a <= 0 or g <= 0:
        return np.inf
    return -float(np.bincount(np.zeros(len(k), dtype=np.intp), count * _cell_log_p(a, g, k, h)[0])[0])


def _t_derivs(s, u_lo: np.ndarray, u_hi: np.ndarray, log_p: np.ndarray):
    """First and second derivatives of each cell's log p in t = log a, from its edges.

    With psi(u) = u**s e**-u / Gamma(s), dp/dt = psi(u_hi) - psi(u_lo) and
    dpsi/dt = psi (s - u): closed forms in the ratios psi/p, in log space.
    s is a float or one per cell; psi is 0 at u_hi = inf.
    """
    lgamma_s = _lgamma(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_lo = np.exp(s * np.log(u_lo) - u_lo - lgamma_s - log_p)
        r_hi = np.exp(s * np.log(u_hi) - u_hi - lgamma_s - log_p)
        r_hi[u_hi == np.inf] = 0.0
        curv_hi = np.where(r_hi > 0.0, r_hi * (s - u_hi), 0.0)
    d_t = r_hi - r_lo
    return d_t, curv_hi - r_lo * (s - u_lo) - d_t * d_t


class _Cells(NamedTuple):
    """Count vectors fitted in lockstep: ``count[i]`` values of run ``run[i]`` lie in cell ``col[i]`` of ``grid``."""

    grid: _Grid
    run: np.ndarray
    col: np.ndarray
    count: np.ndarray

    def of_runs(self, mask: np.ndarray) -> "_Cells":
        """The cells of the runs where ``mask`` is set."""
        keep = mask[self.run]
        return self if keep.all() else self._replace(run=self.run[keep], col=self.col[keep], count=self.count[keep])


def _cell_derivs(t: np.ndarray, g: np.ndarray, free: np.ndarray, cells: _Cells) -> np.ndarray:
    """Each cell's log p and its derivatives at its run's (t = log a, gamma); one entry per run in t, g, free.

    Per quadrature node, log f = log gamma + s t - lgamma(s) - u, with
    s = 1/gamma, u = e**t x**gamma and L = log x, so

        d/dt log f = s - u,                 d2/dt2 = -u,
        d/dgamma log f = s - (t - psi(s)) s**2 - u L,
        d2/dt dgamma = -s**2 - u L,
        d2/dgamma2 = -s**2 + 2 (t - psi(s)) s**3 - psi'(s) s**4 - u L**2.

    A cell's log p, the log of a weighted sum of f, has as gradient the
    node-share mean of the first derivatives and as Hessian the mean of the
    second plus the share covariance of the first. A cell holds c times the
    integral of exp(-a x**gamma) over it, by Gauss-Legendre quadrature with
    each cell's smallest u factored out so nothing underflows, taken
    ``_BLOCK_CELLS`` cells at a time: 12 points, or 6 for a cell k >= 8 at
    most ``_NARROW_CELL`` wide in u, where the two rules agree to rounding.
    The ``_edge_log_p`` cells take their t derivatives from ``_t_derivs``
    and their gamma derivatives by central differences, all in one
    evaluation. Returns rows (log p, d/dt, d/dgamma, d2/dt2, d2/dt dgamma,
    d2/dgamma2), one column per cell; the gamma rows are 0 for the cells of
    runs whose gamma is not ``free``.
    """
    grid, run, col = cells.grid, cells.run, cells.col
    s = 1.0 / g
    r = (t - np.array([digamma(v) for v in s.tolist()])) * s * s
    tri = np.array([trigamma(v) for v in s.tolist()]) * s**4
    log_ch = np.log(g) + t * s - _lgamma(s) + math.log(0.5 * grid.h)  # log(c h / 2)
    u_lo, u_hi, edge = _cell_edges(t[run], g[run], grid.log_lo[col], grid.log_hi[col])
    narrow = ~edge & (grid.k[col] >= 8) & (u_hi - u_lo <= _NARROW_CELL)
    del u_lo, u_hi
    out = np.zeros((6, len(col)))
    at = np.flatnonzero(edge)
    if len(at):
        sided = at[free[run[at]]]  # evaluated at gamma -+ step too
        step = 1e-5 * g[run[sided]]
        both = np.concatenate([at, sided, sided])
        g3 = np.concatenate([g[run[at]], g[run[sided]] - step, g[run[sided]] + step])
        lo3, hi3 = _cell_edges(t[run[both]], g3, grid.log_lo[col[both]], grid.log_hi[col[both]])[:2]
        p3 = _edge_log_p(1.0 / g3, lo3, hi3)
        dt3, dtt3 = _t_derivs(1.0 / g3, lo3, hi3, p3)
        e, m = len(at), len(at) + len(sided)
        out[0, at], out[1, at], out[3, at] = p3[:e], dt3[:e], dtt3[:e]
        out[2, sided] = (p3[m:] - p3[e:m]) / (2.0 * step)
        out[4, sided] = (dt3[m:] - dt3[e:m]) / (2.0 * step)
        out[5, sided] = (p3[m:] - 2.0 * p3[:e][free[run[at]]] + p3[e:m]) / step**2
    rules = [
        (np.flatnonzero(~edge & ~narrow), grid.log_x, _GL_WEIGHTS),
        (np.flatnonzero(narrow), grid.log_x6, _GL6_WEIGHTS),
    ]
    for inner, node_logs, weights in rules:
        for lo in range(0, len(inner), _BLOCK_CELLS):
            at = inner[lo : lo + _BLOCK_CELLS]
            rb, log_x = run[at], node_logs[:, col[at]]
            u = np.exp(t[rb] + g[rb] * log_x)
            w = np.exp(u[0] - u)
            w *= weights[:, None]
            total = w.sum(axis=0)
            w /= total
            wu = w * u
            m_u = wu.sum(axis=0)
            out[0, at] = np.log(total) + log_ch[rb] - u[0]
            out[1, at], out[3, at] = s[rb] - m_u, _node_sum(wu, u) - m_u * m_u - m_u
            fb = free[rb]
            if not np.all(fb):
                at, rb, u, wu, m_u, log_x = at[fb], rb[fb], u[:, fb], wu[:, fb], m_u[fb], log_x[:, fb]
            ul = u * log_x
            wul = wu * log_x
            m_ul = wul.sum(axis=0)
            sb = s[rb]
            out[2, at] = sb - r[rb] - m_ul
            out[4, at] = _node_sum(wu, ul) - m_u * m_ul - m_ul - sb * sb
            out[5, at] = _node_sum(wul, ul) - m_ul * m_ul - _node_sum(wul, log_x) - sb * sb + 2.0 * r[rb] * sb - tri[rb]
    return out


def _node_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum over the nodes (axis 0) of x * y, one per cell."""
    return np.einsum("ij,ij->j", x, y)


def _run_sums(terms: np.ndarray, cells: _Cells, free: np.ndarray):
    """Each run's log-likelihood, gradient and Hessian from its cells' ``_cell_derivs`` columns.

    Each sum is a ``np.bincount`` in cell order, so its bits depend on
    neither the other runs nor the BLAS thread count. A run whose gamma is
    not ``free`` gets a gamma curvature of -1, so that only t moves.
    """
    ll, d_t, d_g, d_tt, d_tg, d_gg = (np.bincount(cells.run, cells.count * row, len(free)) for row in terms)
    d_gg[~free] = -1.0
    return ll, (d_t, d_g), (d_tt, d_tg, d_gg)


def _censored_derivs(t: np.ndarray, g: np.ndarray, free: np.ndarray, cells: _Cells):
    """Censored log-likelihood of each run at its (t = log a, gamma), with its gradient and Hessian."""
    return _run_sums(_cell_derivs(t, g, free, cells), cells, free)


def _newton_step(g: np.ndarray, grad, hess) -> tuple[np.ndarray, np.ndarray]:
    """Each run's safeguarded step in (t, gamma); see ``_censored_newton``."""
    lo, hi = GAMMA_BOUNDS
    (g_t, g_g), (h_tt, h_tg, h_gg) = grad, hess
    with np.errstate(divide="ignore", invalid="ignore"):
        det = h_tt * h_gg - h_tg * h_tg
        newton = (h_tt < 0) & (0 < det)
        dt = np.where(newton, (h_tg * g_g - h_gg * g_t) / det, g_t)
        dg = np.where(newton, (h_tg * g_t - h_tt * g_g) / det, g_g)
        pinned = ((g <= lo) & (dg < 0)) | ((g >= hi) & (dg > 0))
        dt = np.where(pinned, np.where(h_tt < 0, -g_t / h_tt, g_t), dt)
    dg = np.where(pinned, 0.0, dg)
    scale = 1.0 / np.maximum(np.maximum(1.0, np.abs(dt)), 4.0 * np.abs(dg))
    return dt * scale, dg * scale


def _censored_newton(t, g, free: np.ndarray, cells: _Cells, first=None):
    """Maximize each run's censored likelihood from its (t = log a, gamma) by safeguarded Newton, in lockstep.

    A step solves the 2x2 Newton system where the Hessian is negative
    definite and follows the gradient elsewhere. It moves t alone where
    gamma is not ``free``, or sits on a bound of GAMMA_BOUNDS that the step
    would leave (the likelihood is concave in t). Each step is capped at 1
    in t and 1/4 in gamma, and halved until the likelihood does not fall by
    more than rounding. A step below 1e-8 in t and 1e-8 gamma in gamma is
    the last, taken without a new pass: Newton's quadratic convergence
    leaves only rounding after it. Each pass evaluates, for the runs still
    moving and only on their cells, the likelihood at their trial points;
    every run follows the same rules as it would alone, so its bits do not
    depend on the others. ``first``, when given, is ``_censored_derivs`` at
    the start. Returns the log-likelihood at the last iterate evaluated, and
    (t, gamma) after the last step, one entry per run.
    """
    lo, hi = GAMMA_BOUNDS
    t, g = np.array(t, dtype=np.float64), np.array(g, dtype=np.float64)
    ll, grad, hess = first or _censored_derivs(t, g, free, cells)
    grad, hess = np.array(grad), np.array(hess)
    dt, dg = _newton_step(g, grad, hess)
    moving = np.ones(len(t), dtype=bool)
    for _ in range(_MAX_PASSES):
        moving &= (np.abs(dt) > 1e-8) | (np.abs(dg) > 1e-8 * g)
        if not np.any(moving):
            break
        trial_t, trial_g = t + dt, np.clip(g + dg, lo, hi)
        trial_ll, trial_grad, trial_hess = _censored_derivs(trial_t, trial_g, free, cells.of_runs(moving))
        accept = moving & (trial_ll >= ll - 1e-13 * np.abs(ll))
        t[accept], g[accept], ll[accept] = trial_t[accept], trial_g[accept], trial_ll[accept]
        grad[:, accept], hess[:, accept] = np.array(trial_grad)[:, accept], np.array(trial_hess)[:, accept]
        new_dt, new_dg = _newton_step(g, grad, hess)
        dt = np.where(accept, new_dt, np.where(moving, 0.5 * dt, dt))
        dg = np.where(accept, new_dg, np.where(moving, 0.5 * dg, dg))
    last = ~moving & np.isfinite(dt + dg)  # NaN derivatives leave the iterate where it is
    return ll, np.where(last, t + dt, t), np.where(last, np.clip(g + dg, lo, hi), g)


def fit_lattice(k: np.ndarray, count: np.ndarray, h: float, k_open: float = math.inf) -> SEModel:
    """Censored MLE of the lattice values k h, each occurring ``count`` times.

    A value k h is censored to ((k-1) h, k h], so the likelihood is
    sum_k c_k log(S((k-1) h) - S(k h)), S the model's survival function;
    cell ``k_open``, if present, is the open tail ((k_open - 1) h, inf).
    Safeguarded Newton maximizes it over (log a, gamma) from the continuous
    profile root in gamma, and over log a alone at either bound of
    [0.05, 2], the three runs in lockstep; the most likely run wins. Each
    run starts at the continuous a(gamma) = n / (gamma * sum_k c_k (k h)**gamma)
    of its gamma.
    """
    if len(k) < 2:
        raise FitFailureError("all values in one lattice cell: the likelihood has no interior maximum")
    n = int(count.sum())
    log_k = np.log(k)
    root = _profile_score_root(log_k - float(log_k[-1]), count)
    g0 = np.array([root, *GAMMA_BOUNDS])
    t0 = np.log([_profile_a(g, count * (k * h) ** g, n) for g in g0.tolist()])
    m = len(k)
    cells = _Cells(_grid(k, h, k_open), np.repeat(np.arange(3), m), np.tile(np.arange(m), 3), np.tile(count, 3))
    ll, t, g = _censored_newton(t0, g0, np.array([True, False, False]), cells)
    best = int(np.argmax(np.where(np.isfinite(ll), ll, -np.inf)))
    ll, t, g = float(ll[best]), float(t[best]), float(g[best])
    with np.errstate(over="ignore"):
        a = float(np.exp(t))
    if not (np.isfinite(ll) and 0.0 < a < np.inf):
        raise FitFailureError("censored likelihood has no finite optimum", best=(a, g))
    return SEModel.normalized(a=a, gamma=g)


class LatticeRefit:
    """Censored MLE refits, in lockstep, of count vectors drawn from one fitted model.

    A count vector has one entry per cell ((k-1) h, k h], k = 1 ... K, and a
    last one for the open tail (K h, inf). Every refit starts at the
    model's (log a, gamma). There every vector shares the per-cell terms of
    the first Newton pass, so they are computed once, here, over all K + 1
    cells; ``cell_p`` are the model's cell masses. Later passes evaluate
    only the occupied cells of the vectors still moving.
    """

    def __init__(self, model: SEModel, n_cells: int, h: float):
        self.grid = _grid(np.arange(1.0, n_cells + 2.0), h, n_cells + 1.0)
        self.start = (math.log(model.a), model.gamma)
        every = _Cells(self.grid, np.zeros(n_cells + 1, dtype=np.intp), np.arange(n_cells + 1), np.ones(n_cells + 1))
        self.terms = _cell_derivs(np.array([self.start[0]]), np.array([model.gamma]), np.ones(1, dtype=bool), every)
        self.cell_p = np.exp(self.terms[0])

    def fit(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, gamma, ok) of each row's refit; ``ok`` is False where it failed.

        A refit fails where the row occupies a single cell, so that the
        likelihood has no interior maximum, or where its optimum is not
        finite; its a and gamma are then NaN.
        """
        rows = len(counts)
        row, col = np.nonzero(counts)
        fits = np.bincount(row, minlength=rows) >= 2
        keep = fits[row]
        row, col = row[keep], col[keep]
        cells = _Cells(self.grid, (np.cumsum(fits) - 1)[row], col, counts[row, col])
        n_runs = int(np.sum(fits))
        free = np.ones(n_runs, dtype=bool)
        first = _run_sums(self.terms[:, col], cells, free)
        ll, t, g = _censored_newton(np.full(n_runs, self.start[0]), np.full(n_runs, self.start[1]), free, cells, first)
        with np.errstate(over="ignore"):
            a = np.exp(t)
        good = np.isfinite(ll) & (0.0 < a) & (a < np.inf)
        ok = np.zeros(rows, dtype=bool)
        ok[fits] = good
        a_out, g_out = np.full(rows, np.nan), np.full(rows, np.nan)
        a_out[ok], g_out[ok] = a[good], g[good]
        return a_out, g_out, ok
