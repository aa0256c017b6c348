"""Stretched-exponential density: closed forms against quadrature, fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincinv, gammaln

from volint import (
    FitFailureError,
    FitReport,
    IntervalSample,
    PdfTable,
    ScaledIntervals,
    SEModel,
    analytic_moment,
    fit_lsq,
    fit_mle,
    normalization_c,
    se_cdf,
)
from volint.semodel import GAMMA_BOUNDS, _censored_nll

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
    # pinned from the profile-likelihood fit; the earlier three-start L-BFGS-B
    # fit stopped at (5.781108669753378, 0.42514577142213195), which must not
    # have the higher likelihood
    x = SEModel.normalized(5.79, 0.43).sample(2_000, seed=0)
    fitted = fit_mle(x)
    np.testing.assert_allclose(fitted.a, 5.781109578966131, rtol=1e-12)
    np.testing.assert_allclose(fitted.gamma, 0.42514563913233816, rtol=1e-12)
    assert _continuous_nll(fitted.a, fitted.gamma, x) <= _continuous_nll(
        5.781108669753378, 0.42514577142213195, x
    )


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


def test_fit_mle_censored_far_tail_stays_finite():
    rng = np.random.default_rng(1)
    tau = np.append(rng.geometric(0.3, 2_000), 2_000)
    k, count = np.unique(tau, return_counts=True)
    h = 1.0 / tau.mean()
    for params in ((50.0, 2.0), (1e-9, 0.05), (1.0, 1.0)):
        assert np.isfinite(_censored_nll(np.array(params), k.astype(float), count, h))
    fitted = fit_mle(IntervalSample(q=1.0, tau=tau, source_length=1).scaled())
    assert 0.05 <= fitted.gamma <= 2.0


def test_fit_mle_lattice_input_rules():
    x = IntervalSample(q=1.0, tau=np.arange(1, 61), source_length=1).scaled()
    assert x.step == 1.0 / 30.5
    # derived arrays carry no step, so they are fitted as continuous values
    assert getattr(2.0 * x, "step", None) is None
    assert x[:55].step is None
    assert fit_mle(x[:55]) == fit_mle(np.asarray(x[:55]))
    with pytest.raises(ValueError):
        fit_mle(ScaledIntervals(np.linspace(0.11, 5.0, 60), step=0.1))
    with pytest.raises(ValueError):
        fit_mle(ScaledIntervals(np.append(np.arange(1, 60) * 0.1, 1e-9), step=0.1))
    with pytest.raises(ValueError):
        fit_mle(ScaledIntervals(np.arange(1, 31) * 0.1, step=0.1))  # too few values


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
    assert d["n_failed_refits"] == 0
