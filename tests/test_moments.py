"""Root-moments, threshold sweeps, and ESS exponent regressions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volint import (
    InsufficientPointsError,
    IntervalSample,
    empirical_moment,
    ess_mu,
    ess_xi,
    extract_intervals,
    fit_alpha,
    moment_curve,
    moment_vs_order,
)
from volint import moments, validate_config
from volint.moments import MomentCurve, _root_mean_pow, sweep_intervals
from volint.pipeline import stage_moments

TAU = np.array([1, 1, 2])


def test_hand_second_moment():
    # <x**2> of (0.75, 0.75, 1.5) is 1.125
    assert empirical_moment(TAU, 2.0) == np.float64(1.125) ** 0.5


def test_first_moment_is_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        tau = rng.integers(1, 500, size=rng.integers(2, 200))
        assert abs(empirical_moment(tau, 1.0) - 1.0) < 1e-12


def test_moment_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        empirical_moment(TAU, 0.0)
    with pytest.raises(ValueError):
        ess_mu(TAU, 2.0, -1.0)


taus = st.lists(st.integers(min_value=1, max_value=10_000), min_size=2, max_size=150)


@given(taus, st.sampled_from([0.5, 2.0, 3.0]))
@settings(max_examples=80, deadline=None)
def test_scaled_moment_equals_moment_ratio(tau_list, m):
    tau = np.array(tau_list)
    lhs = empirical_moment(tau, m)
    rhs = ess_mu(tau, m, 1.0)
    assert abs(lhs / rhs - 1.0) < 1e-10


@given(taus)
@settings(max_examples=50, deadline=None)
def test_root_moments_nondecreasing_in_order(tau_list):
    tau = np.array(tau_list)
    mu = [empirical_moment(tau, m) for m in (0.5, 1.0, 2.0, 3.0)]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(mu, mu[1:]))


def test_moment_scale_invariant():
    tau = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0])
    a = empirical_moment(tau, 12.0)
    b = empirical_moment(tau * 1e30, 12.0)
    np.testing.assert_allclose(b, a, rtol=1e-12)


def test_root_mean_pow_overflow_fallback():
    x = np.array([1e250, 1e250])
    # direct mean(x**2) overflows, the log-domain route recovers it
    np.testing.assert_allclose(_root_mean_pow(x, 2.0), 1e250, rtol=1e-12)


def test_representable_root_means_come_back():
    # mean(x**2) overflows, but the root mean and the ratio are representable
    x = np.array([1e306, 3e306])
    np.testing.assert_allclose(_root_mean_pow(x, 2.0), np.sqrt(5.0) * 1e306, rtol=1e-12)
    np.testing.assert_allclose(ess_mu(x, 2.0, 1.0), np.sqrt(5.0) / 2.0, rtol=1e-12)


def test_interval_sample_inputs_accepted():
    sample = IntervalSample(q=1.0, tau=TAU, source_length=10)
    assert empirical_moment(sample, 2.0) == empirical_moment(TAU, 2.0)


def _series_for_sweep(n=60_000, seed=12):
    rng = np.random.default_rng(seed)
    v = np.abs(rng.standard_normal(n))
    return v / np.std(v)


def test_moment_curve_means_strictly_increase():
    v = _series_for_sweep()
    curve = moment_curve(v, 2.0, np.arange(1.0, 3.51, 0.1))
    assert curve.n_points >= 5
    assert np.all(np.diff(curve.mean_tau) > 0)
    assert np.all(np.diff(curve.q) > 0)
    assert np.all(curve.n_intervals >= 1)


def test_moment_curve_reports_drops():
    v = np.array([0.1, 5.0, 0.1, 5.0, 0.1, 5.0, 0.1])
    curve = moment_curve(v, 1.0, [1.0, 2.0, 6.0])
    # q=2 selects the same exceedances as q=1, q=6 has none
    assert list(curve.q) == [1.0]
    reasons = dict(curve.dropped)
    assert "did not increase" in reasons[2.0]
    assert 6.0 in reasons


def test_moment_curve_nothing_survives():
    v = np.array([0.1, 0.2, 0.3])
    with pytest.raises(InsufficientPointsError):
        moment_curve(v, 1.0, [1.0, 2.0])


def test_fit_alpha_exact_power_law():
    mean_tau = np.geomspace(12.0, 90.0, 8)
    curve = MomentCurve(
        m=2.0,
        q=np.linspace(1, 2, 8),
        mean_tau=mean_tau,
        mu=mean_tau**0.1,
        n_intervals=np.full(8, 100),
        dropped=(),
    )
    fit = fit_alpha(curve, region=(10.0, 100.0))
    np.testing.assert_allclose(fit.alpha, 0.1, rtol=1e-12)
    assert fit.stderr < 1e-12
    assert fit.n_points == 8


def test_fit_alpha_region_is_open():
    mean_tau = np.array([10.0, 20.0, 50.0, 100.0])
    curve = MomentCurve(
        m=1.0,
        q=np.arange(4.0),
        mean_tau=mean_tau,
        mu=np.ones(4),
        n_intervals=np.full(4, 9),
        dropped=(),
    )
    # endpoints are excluded: only 20 and 50 remain, not enough points
    with pytest.raises(InsufficientPointsError):
        fit_alpha(curve, region=(10.0, 100.0))


def test_alpha_of_first_moment_vanishes():
    v = _series_for_sweep()
    curve = moment_curve(v, 1.0, np.arange(1.0, 4.01, 0.1))
    fit = fit_alpha(curve, region=(5.0, 200.0))
    assert abs(fit.alpha) < 1e-12


def test_ess_xi_identity_orders():
    v = _series_for_sweep()
    grid = np.arange(1.0, 4.01, 0.1)
    report = ess_xi(v, 1.0, 1.0, grid, region=(5.0, 200.0))
    assert report.xi == 1.0
    assert report.identity_gap == 0.0
    assert abs(report.alpha) < 1e-12


def test_ess_xi_n_one_gap_is_exactly_zero():
    v = _series_for_sweep()
    grid = np.arange(1.0, 4.01, 0.1)
    report = ess_xi(v, 2.0, 1.0, grid, region=(5.0, 200.0))
    assert report.identity_gap == 0.0
    assert report.n_points >= 3
    # iid volatility: <tau**2> grows about quadratically against <tau>
    assert abs(report.xi - 2.0) < 0.2


def test_alpha_and_ess_share_one_keep_rule():
    # <tau> runs 2, 5, 10, 200 over q = 1..4; q = 5 gives 12 and is dropped,
    # so only 2, 5 and 10 lie inside (1.5, 100) for alpha and ESS alike
    v = np.full(401, 0.5)
    v[[0, 12]] = 5.5
    v[400] = 4.5
    rest = [i for i in range(1, 400) if i != 12]
    v[rest[:38]] = 3.5
    v[rest[38:78]] = 2.5
    v[rest[78:198]] = 1.5
    grid = [1.0, 2.0, 3.0, 4.0, 5.0]
    region = (1.5, 100.0)
    curve = moment_curve(v, 2.0, grid)
    assert list(curve.mean_tau) == [2.0, 5.0, 10.0, 200.0]
    assert ess_xi(v, 2.0, 1.0, grid, region=region).n_points == 3
    assert fit_alpha(curve, region=region).n_points == 3


def test_ess_xi_too_few_points():
    v = _series_for_sweep(n=2_000)
    with pytest.raises(InsufficientPointsError):
        ess_xi(v, 2.0, 1.0, [1.0, 1.1], region=(10.0, 11.0))


def test_moment_vs_order_passes_through_unity(iid_series):
    curves = moment_vs_order(iid_series, mean_targets=(10.0,), m_grid=[0.5, 1.0, 2.0])
    assert len(curves) == 1
    curve = curves[0]
    i = list(curve.m).index(1.0)
    assert abs(curve.mu[i] - 1.0) < 1e-9
    assert abs(curve.achieved_mean - 10.0) <= 0.5
    assert curve.mu_model.shape == curve.mu.shape
    assert curve.model.constrained


def test_moment_vs_order_reads_every_target_from_one_search(iid_series, monkeypatch):
    calls = {"threshold_for_mean": 0, "extract_intervals": 0}

    def counting(name):
        real = getattr(moments, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(moments, name, counting(name))
    moment_vs_order(iid_series, mean_targets=(10.0, 30.0, 100.0), m_grid=[1.0, 2.0])
    assert calls == {"threshold_for_mean": 1, "extract_intervals": 3}


def test_ess_mu_matches_hand_value():
    np.testing.assert_allclose(
        ess_mu(TAU, 2.0, 1.0), np.float64(1.125) ** 0.5, rtol=1e-10
    )


def test_count_kernel_matches_direct_power_mean():
    rng = np.random.default_rng(5)
    for _ in range(40):
        tau = rng.integers(1, rng.integers(2, 3_000), size=rng.integers(2, 2_000))
        sample = IntervalSample(q=1.0, tau=tau, source_length=int(tau.sum()) + 1)
        for m in (0.25, 0.5, 1.5, 2.0, 3.0):
            ref = np.mean((tau / tau.mean()) ** m) ** (1.0 / m)
            assert abs(empirical_moment(sample, m) / ref - 1.0) < 1e-13
            assert abs(empirical_moment(tau, m) / ref - 1.0) < 1e-13
    v = _series_for_sweep()
    sweep = sweep_intervals(v, np.arange(1.0, 4.01, 0.1))
    for m in (0.25, 2.0, 3.0):
        taus = [extract_intervals(v, q).tau for q in sweep.q]
        ref = [np.mean((tau / tau.mean()) ** m) ** (1.0 / m) for tau in taus]
        np.testing.assert_allclose(sweep.mu(m), ref, rtol=1e-13, atol=0)


def test_moment_stage_extracts_each_grid_threshold_once(iid_series, monkeypatch):
    seen = []
    real = moments.extract_intervals

    def counting(v, q, *args, **kwargs):
        seen.append(q)
        return real(v, q, *args, **kwargs)

    monkeypatch.setattr(moments, "extract_intervals", counting)
    cfg = validate_config({})
    stage_moments(cfg, {"series": iid_series, "summary": {}})
    assert len(cfg.q_grid) == 41
    assert sorted(seen) == sorted(cfg.q_grid.tolist())


def test_curves_from_a_sweep_equal_curves_from_the_series():
    v = _series_for_sweep()
    grid = np.arange(1.0, 4.01, 0.1)
    sweep = sweep_intervals(v, grid)
    for m in (0.5, 2.0):
        a, b = moment_curve(v, m, grid), moment_curve(sweep, m)
        for field in ("q", "mean_tau", "mu", "n_intervals"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.dropped == b.dropped
        assert ess_xi(v, m, 1.0, grid, region=(5.0, 200.0)) == ess_xi(sweep, m, 1.0, region=(5.0, 200.0))
