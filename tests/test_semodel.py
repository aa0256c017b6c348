"""Stretched-exponential density: closed forms against quadrature, fitting."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma, gammainc, gammaincc, gammaincinv, gammaln, polygamma

import volint.lattice
import volint.semodel
from volint import (
    FitFailureError,
    FitReport,
    IntervalSample,
    PdfTable,
    SEModel,
    analytic_moment,
    fit_lsq,
    fit_mle,
    normalization_c,
    se_cdf,
)
from volint.intervals import scaled_pdf
from volint.lattice import (
    _GL6_NODES,
    _GL6_WEIGHTS,
    _GL_NODES,
    _GL_WEIGHTS,
    _WIDE_CELL,
    _Cells,
    _cell_edges,
    _cell_terms,
    _censored_derivs,
    _grid,
)
from volint.semodel import GAMMA_BOUNDS, _gammainc, _profile_nll

PAIRS = [(2.0, 0.3), (5.79, 0.43), (14.2, 0.38), (26.0, 0.6), (1.0, 1.0)]


def _quad_split(f, split):
    """Integrate f over (0, inf), split where the integrand still has mass."""
    head = quad(f, 0.0, split, epsabs=0.0, epsrel=1e-11, limit=200)[0]
    tail = quad(f, split, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)[0]
    return head + tail


def _quad_moment(model, m):
    x_c = model.a ** (-1.0 / model.gamma)
    raw = _quad_split(lambda x: model.pdf(x) * x**m, 50.0 * x_c)
    return raw ** (1.0 / m)


@pytest.mark.parametrize("a,gamma", PAIRS)
def test_density_integrates_to_one(a, gamma):
    model = SEModel.normalized(a, gamma)
    x_c = a ** (-1.0 / gamma)
    total = _quad_split(model.pdf, 50.0 * x_c)
    np.testing.assert_allclose(total, 1.0, rtol=1e-9)


@pytest.mark.parametrize("a,gamma", PAIRS)
def test_cdf_matches_quadrature(a, gamma):
    model = SEModel.normalized(a, gamma)
    mu1 = model.moment(1.0)
    for x in (0.25 * mu1, mu1, 4.0 * mu1):
        direct = quad(model.pdf, 0.0, x, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        assert abs(float(se_cdf(model, x)) - direct) < 1e-9


@pytest.mark.parametrize("a,gamma", PAIRS)
@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_analytic_moment_matches_quadrature(a, gamma, m):
    model = SEModel.normalized(a, gamma)
    np.testing.assert_allclose(analytic_moment(model, m), _quad_moment(model, m), rtol=1e-8)


def test_exponential_special_case():
    assert normalization_c(1.0, 1.0) == 1.0
    model = SEModel.normalized(1.0, 1.0)
    x = np.linspace(0.1, 5.0, 20)
    np.testing.assert_allclose(model.cdf(x), 1.0 - np.exp(-x), rtol=1e-12)
    np.testing.assert_allclose(model.moment(1.0), 1.0, rtol=1e-12)
    # second root-moment of Exp(1) is sqrt(2)
    np.testing.assert_allclose(model.moment(2.0), np.sqrt(2.0), rtol=1e-12)


def test_cdf_ignores_free_c():
    free = SEModel(c=9.0, a=5.79, gamma=0.43, constrained=False)
    tied = SEModel.normalized(5.79, 0.43)
    x = np.linspace(0.0, 4.0, 9)
    np.testing.assert_array_equal(free.cdf(x), tied.cdf(x))
    assert free.moment(2.0) == tied.moment(2.0)


@given(
    st.floats(min_value=0.5, max_value=30.0),
    st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_cdf_monotone_and_bounded(a, gamma):
    model = SEModel.normalized(a, gamma)
    x = np.linspace(0.0, 20.0, 50)
    f = model.cdf(x)
    assert f[0] == 0.0
    assert np.all(np.diff(f) >= 0)
    assert np.all((f >= 0) & (f <= 1))


@given(
    st.floats(min_value=0.5, max_value=30.0),
    st.floats(min_value=0.15, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_root_moments_increase_with_order(a, gamma):
    model = SEModel.normalized(a, gamma)
    orders = np.array([0.25, 0.5, 1.0, 2.0, 3.0])
    mu = np.array([model.moment(m) for m in orders])
    assert np.all(np.diff(mu) > 0)


def test_sampler_matches_analytic_moments():
    model = SEModel.normalized(5.79, 0.43)
    x = model.sample(200_000, seed=5)
    assert np.all(x > 0)
    for m in (1.0, 2.0):
        emp = np.mean(x**m) ** (1.0 / m)
        np.testing.assert_allclose(emp, model.moment(m), rtol=0.02)


def test_sampler_deterministic():
    model = SEModel.normalized(3.0, 0.5)
    a = model.sample(100, seed=9)
    b = model.sample(100, seed=9)
    np.testing.assert_array_equal(a, b)
    c = model.sample(100, seed=10)
    assert not np.array_equal(a, c)


def test_model_validation():
    with pytest.raises(ValueError):
        SEModel(c=1.0, a=-1.0, gamma=0.5)
    with pytest.raises(ValueError):
        SEModel(c=1.0, a=1.0, gamma=2.5)
    with pytest.raises(ValueError):
        SEModel(c=99.0, a=1.0, gamma=1.0)  # c inconsistent with (a, gamma)
    free = SEModel(c=99.0, a=1.0, gamma=1.0, constrained=False)
    assert free.c == 99.0
    model = SEModel.normalized(2.0, 0.4)
    np.testing.assert_allclose(model.c, normalization_c(2.0, 0.4), rtol=1e-15)


@pytest.mark.parametrize("seed", [0, 1])
def test_fit_mle_recovers_parameters(seed):
    model = SEModel.normalized(5.79, 0.43)
    x = model.sample(10_000, seed=seed)
    fitted = fit_mle(x)
    assert abs(fitted.gamma / 0.43 - 1.0) < 0.05
    assert abs(fitted.a / 5.79 - 1.0) < 0.10
    assert fitted.constrained


def test_fit_mle_on_exponential_data():
    x = np.random.default_rng(3).exponential(1.0, 10_000)
    fitted = fit_mle(x)
    assert 0.95 < fitted.gamma < 1.05


def _continuous_nll(a, g, x):
    """-sum(log f(x)) for f = c exp(-a x**g), c = normalization_c(a, g)."""
    return -(len(x) * (np.log(g) + np.log(a) / g - gammaln(1.0 / g)) - a * np.sum(x**g))


def test_fit_mle_plain_array_unchanged():
    # pinned from the profile-score root; neither Brent's optimum of the
    # profile likelihood, (5.781109579195026, 0.42514563907594427), nor the
    # three-start L-BFGS-B fit, (5.781108669753378, 0.42514577142213195),
    # may have the higher likelihood
    x = SEModel.normalized(5.79, 0.43).sample(2_000, seed=0)
    fitted = fit_mle(x)
    np.testing.assert_allclose(fitted.a, 5.781109557270537, rtol=1e-12)
    np.testing.assert_allclose(fitted.gamma, 0.4251456444775813, rtol=1e-12)
    nll = _continuous_nll(fitted.a, fitted.gamma, x)
    assert nll <= _continuous_nll(5.781109579195026, 0.42514563907594427, x)
    assert nll <= _continuous_nll(5.781108669753378, 0.42514577142213195, x)


@pytest.mark.parametrize("gamma, n, seed", [(0.43, 2_000, 0), (0.38, 3_000, 1), (1.0, 500, 2)])
def test_fit_mle_interior_optimum_is_score_root(gamma, n, seed):
    # the central difference of the profile NLL vanishes at the fit, to
    # rounding: Brent's search stopped 1e-8 * gamma away, where it reads
    # 1.3e-5 to 3.6e-5 of its value 0.1% above the fit
    x = SEModel.normalized(5.79, gamma).sample(n, seed=seed)
    log_x = np.log(x)
    args = (log_x - log_x.max(), float(log_x.max()))
    g = fit_mle(x).gamma
    h = 1e-5 * g

    def slope(at):
        return (_profile_nll(at + h, *args) - _profile_nll(at - h, *args)) / (2 * h)

    assert GAMMA_BOUNDS[0] < g < GAMMA_BOUNDS[1]
    assert abs(slope(g)) <= 1e-6 * abs(slope(1.001 * g))


def test_polygamma_matches_scipy():
    # 1/gamma for gamma in GAMMA_BOUNDS spans [0.5, 20]
    for x in np.linspace(0.5, 20.0, 2_000):
        assert abs(volint.semodel.digamma(x) - digamma(x)) <= 4e-15 * max(1.0, abs(digamma(x)))
        assert abs(volint.semodel.trigamma(x) - polygamma(1, x)) <= 4e-15 * polygamma(1, x)


@pytest.mark.parametrize("n", [50, 10_000])
@pytest.mark.parametrize("gamma", [0.05, 0.06, 0.38, 1.0, 1.95])
def test_fit_mle_finds_global_profile_optimum(gamma, n):
    # gamma = 0.05 at n = 10_000 puts the optimum on the lower bound
    x = SEModel.normalized(1.0, gamma).sample(n, seed=11)
    x /= x.mean()
    fitted = fit_mle(x)
    nll_fit = _continuous_nll(fitted.a, fitted.gamma, x)
    for g in np.linspace(*GAMMA_BOUNDS, 2_000):
        a = n / (g * np.sum(x**g))
        assert nll_fit <= _continuous_nll(a, g, x) + 1e-9


def test_fit_mle_extreme_values_stay_finite():
    # x**gamma overflows a plain sum for gamma near 2; on the tiny values
    # a(gamma) itself overflows near the gamma of the fit
    huge = SEModel.normalized(1e-8, 0.05).sample(2_000, seed=2)
    tiny = SEModel.normalized(1.0, 1.95).sample(2_000, seed=2) * 1e-300
    assert huge.max() > 1e150
    for x in (huge, tiny):
        try:
            fitted = fit_mle(x)
        except (FitFailureError, ValueError):
            continue
        assert np.all(np.isfinite([fitted.c, fitted.a, fitted.gamma]))


def test_fit_mle_censored_geometric_is_exponential():
    # iid exceedances give geometric intervals, the lattice form of gamma = 1
    rng = np.random.default_rng(8)
    for p in (0.25, 0.05):
        sample = IntervalSample(q=1.0, tau=rng.geometric(p, 20_000), source_length=1)
        assert abs(fit_mle(sample.scaled()).gamma - 1.0) < 0.03
        if p == 0.25:
            # the continuous likelihood on the same values is pulled far above 1
            assert fit_mle(np.asarray(sample.scaled())).gamma > 1.3


def test_fit_mle_censored_recovers_stretched_exponential():
    model = SEModel.normalized(14.2, 0.38)
    x = model.sample(30_000, seed=0) / model.moment(1.0)
    for mean in (5.0, 20.0):
        sample = IntervalSample(q=1.0, tau=np.ceil(x * mean).astype(np.int64), source_length=1)
        assert abs(fit_mle(sample.scaled()).gamma / 0.38 - 1.0) < 0.03


def _censored_nll(params: np.ndarray, k: np.ndarray, count: np.ndarray, h: float) -> float:
    """Negative log-likelihood of lattice counts: tau = k lies in ((k-1) h, k h]."""
    a, g = params
    if a <= 0 or g <= 0:
        return np.inf
    return -float(np.bincount(np.zeros(len(k), dtype=np.intp), count * _cell_terms(a, g, k, h)[0][0])[0])


def test_fit_mle_censored_far_tail_stays_finite():
    rng = np.random.default_rng(1)
    tau = np.append(rng.geometric(0.3, 2_000), 2_000)
    k, count = np.unique(tau, return_counts=True)
    h = 1.0 / tau.mean()
    for params in ((50.0, 2.0), (1e-9, 0.05), (1.0, 1.0)):
        assert np.isfinite(_censored_nll(np.array(params), k.astype(float), count, h))
    fitted = fit_mle(IntervalSample(q=1.0, tau=tau, source_length=1).scaled())
    assert 0.05 <= fitted.gamma <= 2.0


def _lattice_cases():
    rng = np.random.default_rng(8)
    geometric = [rng.geometric(p, 20_000) for p in (0.25, 0.05)]
    model = SEModel.normalized(14.2, 0.38)
    x = model.sample(30_000, seed=0) / model.moment(1.0)
    ceiled = [np.ceil(x * mean).astype(np.int64) for mean in (5.0, 20.0)]
    rng = np.random.default_rng(1)
    far_tail = np.append(rng.geometric(0.3, 2_000), 2_000)
    return [IntervalSample(q=1.0, tau=t, source_length=1).scaled() for t in (*geometric, *ceiled, far_tail)]


# (a, gamma) of the earlier three-start L-BFGS-B lattice fit on each _lattice_cases() sample
_LBFGSB_FITS = [
    (1.1190946842769876, 1.0224487522232764),
    (1.0297576843268679, 0.9973328611791924),
    (3.478898363058562, 0.3834744022778637),
    (3.383613539407292, 0.38250177104933214),
    (2.3927098046340234, 0.5939919803325057),
]


@pytest.mark.parametrize(
    "i", range(len(_LBFGSB_FITS)), ids=["geom0.25", "geom0.05", "se_mean5", "se_mean20", "far_tail"]
)
def test_fit_mle_censored_optimum_and_start(i, monkeypatch):
    sample = _lattice_cases()[i]
    k, count = np.unique(np.rint(np.asarray(sample) / sample.step), return_counts=True)
    fitted = fit_mle(sample)
    nll = _censored_nll(np.array([fitted.a, fitted.gamma]), k, count, sample.step)
    assert nll <= _censored_nll(np.array(_LBFGSB_FITS[i]), k, count, sample.step) + 1e-9

    # the Newton start is a(gamma) of the continuous likelihood
    profile_a = volint.lattice._profile_a
    for factor in (1.01, 0.5):
        monkeypatch.setattr(volint.lattice, "_profile_a", lambda g, *rest, f=factor: f * profile_a(g, *rest))
        assert abs(fit_mle(sample).gamma - fitted.gamma) <= 1e-6


def test_fit_mle_censored_makes_few_likelihood_passes(monkeypatch):
    # every pass over the censored likelihood goes through _censored_derivs,
    # which evaluates the three Newton runs in lockstep
    real = volint.lattice._censored_derivs
    for sample in _lattice_cases():
        calls = []
        monkeypatch.setattr(volint.lattice, "_censored_derivs", lambda *args: calls.append(1) or real(*args))
        fit_mle(sample)
        assert len(calls) <= 8


def test_censored_derivatives_match_differences():
    # the far-tail sample: its first cell, quadrature cells and, at large
    # gamma, a cell wider than _WIDE_CELL in u
    sample = _lattice_cases()[-1]
    k, count = np.unique(np.rint(np.asarray(sample) / sample.step), return_counts=True)
    h = sample.step
    cells = np.arange(len(k))
    one = _Cells(_grid(k, h), np.zeros(len(k), dtype=np.intp), cells, count)

    def derivs(t, g):
        ll, grad, hess = _censored_derivs(np.array([t]), np.array([g]), np.ones(1, dtype=bool), one)
        return float(ll[0]), tuple(float(d[0]) for d in grad), tuple(float(d[0]) for d in hess)

    points = ((0.6, 0.55, 1), (-0.5, 1.7, 2), (0.9, 1.0, 1))
    # the three points as three runs of one lockstep pass give each run's own bits
    three = _Cells(_grid(k, h), np.repeat(np.arange(3), len(k)), np.tile(cells, 3), np.tile(count, 3))
    t3, g3 = np.array([p[0] for p in points]), np.array([p[1] for p in points])
    ll3, grad3, hess3 = _censored_derivs(t3, g3, np.ones(3, dtype=bool), three)
    for i, (t, g, _) in enumerate(points):
        assert derivs(t, g) == (ll3[i], (grad3[0][i], grad3[1][i]), tuple(d[i] for d in hess3))

    for t, g, n_edge in points:
        edge = _cell_edges(t, g, one.grid.log_lo, one.grid.log_hi)[2]
        assert edge[0] and edge.sum() == n_edge
        ll, grad, hess = derivs(t, g)
        assert ll == -_censored_nll(np.array([np.exp(t), g]), k, count, h)
        step = 1e-5

        def ll_at(dt, dg):
            return -_censored_nll(np.array([np.exp(t + dt), g + dg]), k, count, h)

        numeric = (ll_at(step, 0) - ll_at(-step, 0), ll_at(0, step) - ll_at(0, -step))
        np.testing.assert_allclose(grad, np.array(numeric) / (2 * step), rtol=1e-6)
        # the Hessian against differences of the closed-form gradient
        by_t = (np.array(derivs(t + step, g)[1]) - np.array(derivs(t - step, g)[1])) / (2 * step)
        by_g = (np.array(derivs(t, g + step)[1]) - np.array(derivs(t, g - step)[1])) / (2 * step)
        np.testing.assert_allclose([hess[0], hess[1], hess[1], hess[2]], [*by_t, *by_g], rtol=1e-5)


def test_gauss_legendre_constants_are_leggauss():
    for n, (nodes, weights) in ((12, (_GL_NODES, _GL_WEIGHTS)), (6, (_GL6_NODES, _GL6_WEIGHTS))):
        want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
        assert nodes.tobytes() == want_nodes.tobytes()
        assert weights.tobytes() == want_weights.tobytes()


def test_six_point_rule_agrees_on_narrow_cells(monkeypatch):
    # the 6-point rule takes the cells k >= 8 at most _NARROW_CELL wide in u;
    # with no cell narrow, the 12-point rule takes them all
    for sample in _lattice_cases():
        k, count = sample.sample.counts
        cells = _Cells(_grid(k, sample.step), np.zeros(len(k), dtype=np.intp), np.arange(len(k)), count)
        fit = fit_mle(sample)
        for t, g in ((np.log(fit.a), fit.gamma), (np.log(fit.a) + 0.3, 0.9 * fit.gamma)):
            args = (np.array([t]), np.array([g]), np.ones(1, dtype=bool), cells)
            six = volint.lattice._cell_derivs(*args)
            monkeypatch.setattr(volint.lattice, "_NARROW_CELL", -1.0)
            twelve = volint.lattice._cell_derivs(*args)
            monkeypatch.undo()
            scale = np.maximum(1.0, np.abs(twelve))
            np.testing.assert_array_less(np.abs(six - twelve) / scale, 1e-12)


def test_fit_mle_lattice_input_rules():
    x = IntervalSample(q=1.0, tau=np.arange(1, 61), source_length=1).scaled()
    assert x.step == 1.0 / 30.5
    # derived arrays carry no step, so they are fitted as continuous values
    assert getattr(2.0 * x, "step", None) is None
    assert x[:55].step is None
    assert fit_mle(x[:55]) == fit_mle(np.asarray(x[:55]))
    with pytest.raises(ValueError):  # too few values
        fit_mle(IntervalSample(q=1.0, tau=np.arange(1, 31), source_length=1).scaled())


def test_fit_mle_preconditions():
    with pytest.raises(ValueError):
        fit_mle(np.ones(10))  # too few values
    bad = np.concatenate([np.full(60, 0.5), [0.0]])
    with pytest.raises(ValueError):
        fit_mle(bad)  # zero value


def _exact_table(c, a, gamma, lo_exp=-4.0, hi_exp=1.2, bpd=20):
    n = int(np.ceil((hi_exp - lo_exp) * bpd))
    center = 10.0 ** np.linspace(lo_exp, hi_exp, n)
    half = 10.0 ** (1.0 / (2.0 * bpd))
    density = c * np.exp(-a * center**gamma)
    return PdfTable(
        lo=center / half,
        hi=center * half,
        center=center,
        density=density,
        count=np.ones(n, dtype=np.int64),
        n_total=n,
    )


def test_fit_lsq_recovers_exact_density():
    table = _exact_table(2.13, 14.2, 0.38)
    fitted = fit_lsq(table)
    assert abs(fitted.c / 2.13 - 1.0) < 1e-6
    assert abs(fitted.a / 14.2 - 1.0) < 1e-6
    assert abs(fitted.gamma / 0.38 - 1.0) < 1e-6
    assert not fitted.constrained


def test_fit_lsq_not_worse_than_trust_region():
    # a noisy log-binned table; (c, a, gamma) pinned from the earlier
    # trust-region least_squares fit started at the best gamma grid point
    model = SEModel.normalized(14.2, 0.38)
    x = model.sample(5_000, seed=3) / model.moment(1.0)
    table = scaled_pdf(IntervalSample(q=1.0, tau=np.ceil(x * 20).astype(np.int64), source_length=1), 10)
    y = np.log(table.density)

    def sse(c, a, gamma):
        return float(np.sum((y - (np.log(c) - a * table.center**gamma)) ** 2))

    fitted = fit_lsq(table)
    assert sse(fitted.c, fitted.a, fitted.gamma) <= sse(
        86.35726960932108, 5.929751917567875, 0.26051639235725993
    )


def test_fit_lsq_flat_density_fails():
    n = 30
    center = 10.0 ** np.linspace(-2, 1, n)
    table = PdfTable(
        lo=center * 0.9,
        hi=center * 1.1,
        center=center,
        density=np.full(n, 0.25),
        count=np.ones(n, dtype=np.int64),
        n_total=n,
    )
    with pytest.raises(FitFailureError):
        fit_lsq(table)


def test_fit_lsq_needs_enough_bins():
    table = _exact_table(2.13, 14.2, 0.38)
    small = PdfTable(
        lo=table.lo[:3],
        hi=table.hi[:3],
        center=table.center[:3],
        density=table.density[:3],
        count=table.count[:3],
        n_total=3,
    )
    with pytest.raises(ValueError):
        fit_lsq(small)


def test_gammainc_matches_scipy():
    u = np.concatenate([[0.0], np.logspace(-8, 3, 500), [np.inf]])
    tiny = np.finfo(np.float64).tiny
    for s in np.linspace(0.5, 50.0, 100):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _gammainc(s, u)
        ref = gammainc(s, u)
        assert got[0] == 0.0 and got[-1] == 1.0
        normal = ref >= tiny
        np.testing.assert_allclose(got[normal], ref[normal], rtol=1e-12, atol=0)
        assert np.all(got[~normal] < tiny)  # underflowed in both


def _scipy_cell_log_p(a, g, k, h):
    """(log p, Q at the lower edge, Q at the upper edge) from scipy's survival function."""
    q_lo = gammaincc(1.0 / g, a * ((k - 1.0) * h) ** g)
    q_hi = gammaincc(1.0 / g, a * (k * h) ** g)
    with np.errstate(divide="ignore"):
        return np.log(q_lo - q_hi), q_lo, q_hi


def _cell_log_p_error(a, g, k, h):
    """(largest |log p - scipy's|, widths in u) over the cells scipy gets right."""
    (log_p, _, _), u_lo, u_hi = _cell_terms(a, g, k, h)
    assert np.all(np.isfinite(log_p)) and np.all(log_p <= 0.0)
    ref, q_lo, q_hi = _scipy_cell_log_p(a, g, k, h)
    # where the survival difference loses no more than one bit, and away
    # from underflow, near which scipy's Q loses digits
    usable = (q_hi <= 0.5 * q_lo) & (q_lo - q_hi > 1e-280)
    return np.max(np.abs(log_p[usable] - ref[usable]), initial=0.0), (u_hi - u_lo)[usable]


def test_cell_log_p_matches_scipy():
    widths = []
    for sample in _lattice_cases():  # the far-tail sample is the last
        k = np.unique(np.rint(np.asarray(sample) / sample.step))
        for g in np.linspace(*GAMMA_BOUNDS, 14):
            for a in np.logspace(-2.0, 2.5, 10):
                error, width = _cell_log_p_error(a, g, k, sample.step)
                assert error <= 1e-10
                widths.append(width)
    # a second cell 1e3 wide in u whose Q is still far from underflow
    for g in (1.5, 1.75, 2.0):
        error, width = _cell_log_p_error(1e3 / (2.0**g - 1.0), g, np.arange(1.0, 4.0), 1.0)
        assert error <= 1e-10
        widths.append(width)
    widths = np.concatenate(widths)
    assert np.sum(widths > _WIDE_CELL) > 100 and np.isclose(widths.max(), 1e3)


def test_cell_log_p_exponential_far_tail():
    # gamma = 1 has the closed form p_k = exp(-a (k - 1) h) (1 - exp(-a h))
    k = np.arange(1.0, 3_001.0)
    for a, h in ((1.0, 0.01), (3.0, 0.3), (1000.0, 1.0)):
        log_p = _cell_terms(a, 1.0, k, h)[0][0]
        exact = -a * (k - 1.0) * h + np.log(-np.expm1(-a * h))
        np.testing.assert_allclose(log_p, exact, rtol=1e-13, atol=1e-12)


def test_normalization_c_beyond_gamma_function_range():
    # Gamma(1 / 0.004) overflows a double, so c rounds to 0 and no model is valid
    assert normalization_c(1.0, 0.004) == 0.0
    with pytest.raises(ValueError):
        SEModel.normalized(1.0, 0.004)


@pytest.mark.parametrize("minutes", [1, 3])
def test_fit_mle_one_occupied_cell_fails(minutes):
    # with every value in one cell the likelihood has no interior maximum
    sample = IntervalSample(q=1.0, tau=np.full(60, minutes), source_length=60 * minutes)
    with pytest.raises(FitFailureError):
        fit_mle(sample.scaled())


def test_quantile_grid_round_trips_through_cdf():
    model = SEModel.normalized(14.2, 0.38)
    u = (np.arange(1, 200) - 0.5) / 200.0
    x = (gammaincinv(1.0 / 0.38, u) / 14.2) ** (1.0 / 0.38)
    np.testing.assert_allclose(model.cdf(x), u, rtol=1e-10)


def test_fit_report_dict():
    model = SEModel.normalized(5.79, 0.43)
    report = FitReport(
        model=model, mode="mle", n=1234, ks=0.0123, p=0.44, n_boot=1000, seed=7, q=4.0
    )
    d = report.to_dict()
    assert d["q"] == 4.0
    assert d["mode"] == "mle"
    assert d["a"] == model.a
    assert d["gamma"] == model.gamma
    assert d["c"] == model.c
    assert d["p"] == 0.44
    assert d["n"] == 1234
    assert d["seed"] == 7
