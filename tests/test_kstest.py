"""Two-sample and one-sample KS tests, critical values, bootstrap p-values."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volint.kstest
from volint import (
    DequantizedCdf,
    FitFailureError,
    FitReport,
    IntervalSample,
    KsResult,
    NoOverlapError,
    SEModel,
    bootstrap_pvalue,
    critical_value,
    empirical_cdf,
    extract_intervals,
    fit_mle,
    ks_matrix,
    one_sample_ks,
    two_sample_ks,
)


def test_critical_value_hand():
    # m = n = 2000 gives mn/(m+n) = 1000
    assert critical_value(2000, 2000) == 1.36 / np.sqrt(1000.0)
    assert abs(critical_value(2000, 2000) - 0.04301) < 1e-5
    with pytest.raises(ValueError):
        critical_value(0, 10)


def test_critical_value_inverts_to_effective_size():
    # a published pair: CV = 0.0201 corresponds to mn/(m+n) of about 4578
    eff = (1.36 / 0.0201) ** 2
    assert abs(eff - 4578) < 2


def test_two_sample_hand_case():
    fi = empirical_cdf(np.array([1.0, 2.0, 3.0]))
    fj = empirical_cdf(np.array([2.0, 3.0, 4.0]))
    res = two_sample_ks(fi, fj)
    assert res.statistic == 1.0 - 2.0 / 3.0
    assert res.overlap == (2.0, 3.0)
    assert res.m == 2 and res.n == 2
    assert res.critical == 1.36
    assert res.accept
    assert res.decision == "accept"


def test_two_sample_symmetric():
    rng = np.random.default_rng(0)
    fi = empirical_cdf(rng.exponential(1.0, 40))
    fj = empirical_cdf(rng.exponential(2.0, 60))
    ab = two_sample_ks(fi, fj)
    ba = two_sample_ks(fj, fi)
    assert ab.statistic == ba.statistic
    assert (ab.m, ab.n) == (ba.n, ba.m)


def test_two_sample_identical_is_zero():
    x = np.array([1.0, 2.0, 2.0, 5.0])
    res = two_sample_ks(empirical_cdf(x), empirical_cdf(x))
    assert res.statistic == 0.0
    assert res.accept


def test_two_sample_counts_inside_overlap_only():
    fi = empirical_cdf(np.array([1.0, 2.0, 3.0, 10.0]))
    fj = empirical_cdf(np.array([9.0, 11.0, 12.0]))
    res = two_sample_ks(fi, fj)
    assert res.overlap == (9.0, 10.0)
    # only 10.0 on one side and 9.0 on the other fall inside
    assert res.m == 1 and res.n == 1
    # at x = 9: F_i = 3/4, F_j = 1/3; at x = 10: F_i = 1, F_j = 1/3
    np.testing.assert_allclose(res.statistic, 2.0 / 3.0, rtol=1e-15)

    whole = two_sample_ks(fi, fj, overlap_counts=False)
    assert whole.m == 4 and whole.n == 3
    assert whole.statistic == res.statistic


def test_two_sample_disjoint_supports():
    fi = empirical_cdf(np.array([1.0, 2.0]))
    fj = empirical_cdf(np.array([5.0, 6.0]))
    with pytest.raises(NoOverlapError):
        two_sample_ks(fi, fj)


@given(
    st.lists(st.integers(min_value=1, max_value=500), min_size=3, max_size=80),
    st.lists(st.integers(min_value=1, max_value=500), min_size=3, max_size=80),
)
@settings(max_examples=60, deadline=None)
def test_two_sample_invariant_under_monotone_rescale(ta, tb):
    xa = np.array(ta, dtype=float)
    xb = np.array(tb, dtype=float)
    if max(xa.min(), xb.min()) > min(xa.max(), xb.max()):
        return  # disjoint supports
    try:
        base = two_sample_ks(empirical_cdf(xa), empirical_cdf(xb))
    except NoOverlapError:
        return  # overlap empty of one sample's points
    # strictly increasing map: statistic depends on ranks only
    scaled = two_sample_ks(empirical_cdf(np.log(xa) * 3.0), empirical_cdf(np.log(xb) * 3.0))
    np.testing.assert_allclose(scaled.statistic, base.statistic, rtol=1e-12)
    assert (scaled.m, scaled.n) == (base.m, base.n)


def test_published_style_decisions():
    # the acceptance rule is statistic < critical, nothing else
    reject = KsResult(statistic=0.0363, critical=0.0201, m=1, n=1, overlap=(0.0, 1.0))
    accept = KsResult(statistic=0.0445, critical=0.0506, m=1, n=1, overlap=(0.0, 1.0))
    assert reject.decision == "reject"
    assert accept.decision == "accept"


def _geometric_samples(n, seed):
    rng = np.random.default_rng(seed)
    v = np.abs(rng.standard_normal(n))
    v = v / np.std(v)
    return [extract_intervals(v, q) for q in (1.0, 1.5, 2.0)]


def test_ks_matrix_orders_pairs():
    samples = _geometric_samples(50_000, 4)
    matrix = ks_matrix(samples[::-1])  # give them in reverse
    assert [(p.q_i, p.q_j) for p in matrix.pairs] == [
        (1.0, 1.5),
        (1.0, 2.0),
        (1.5, 2.0),
    ]
    assert matrix.verdict in ("scaling", "multiscaling")
    rows = matrix.to_rows()
    assert len(rows) == 3
    assert set(rows[0]) == {"q_i", "q_j", "ks", "cv", "m", "n", "decision"}


def test_ks_matrix_validates_input():
    samples = _geometric_samples(20_000, 5)
    with pytest.raises(ValueError):
        ks_matrix(samples[:1])
    dup = [samples[0], IntervalSample(q=samples[0].q, tau=samples[1].tau, source_length=1)]
    with pytest.raises(ValueError):
        ks_matrix(dup)


def test_ks_matrix_plain_rows_unchanged():
    # the step-CDF rows as they were before the dequantised statistic became the default
    samples = _geometric_samples(20_000, 5)
    rows = ks_matrix(samples, lattice=False).to_rows()
    assert rows == [
        {"q_i": 1.0, "q_j": 1.5, "ks": 0.19306584580624042, "cv": 0.02382862990399133,
         "m": 10966, "n": 4634, "decision": "reject"},
        {"q_i": 1.0, "q_j": 2.0, "ks": 0.16228710515868533, "cv": 0.02883757715819697,
         "m": 10966, "n": 2790, "decision": "reject"},
        {"q_i": 1.5, "q_j": 2.0, "ks": 0.15971120440888564, "cv": 0.02775751933069195,
         "m": 7371, "n": 3560, "decision": "reject"},
    ]
    assert ks_matrix(samples).to_rows() != rows


def _lattice_cdf(tau, q=1.0):
    return DequantizedCdf.from_sample(IntervalSample(q=q, tau=np.array(tau), source_length=10))


def test_dequantized_cdf_hand_values():
    # tau [1, 1, 2]: <tau> - 1/2 = 5/6, so knots 0, 1.2, 2.4 carry F = 0, 2/3, 1
    f = _lattice_cdf([1, 1, 2])
    np.testing.assert_allclose(f.x, [0.0, 1.2, 2.4], rtol=1e-15)
    np.testing.assert_array_equal(f.F, [0.0, 2.0 / 3.0, 1.0])
    np.testing.assert_allclose(
        f.eval([-1.0, 0.6, 1.8, 3.0]), [0.0, 1.0 / 3.0, 5.0 / 6.0, 1.0], rtol=1e-15
    )


def test_lattice_two_sample_hand_case():
    # tau [1, 2, 3]: <tau> - 1/2 = 3/2, knots 0, 2/3, 4/3, 2 with F = 0, 1/3, 2/3, 1.
    # Gaps at the pooled knots 2/3, 1.2, 4/3, 2 are 1/27, 1/15, 1/27, 1/9.
    fi, fj = _lattice_cdf([1, 1, 2]), _lattice_cdf([1, 2, 3], q=2.0)
    res = two_sample_ks(fi, fj)
    np.testing.assert_allclose(res.statistic, 1.0 / 9.0, rtol=1e-14)
    assert res.overlap == (0.0, 2.0)
    assert res.m == 3 and res.n == 3
    assert res.critical == critical_value(3, 3)
    assert two_sample_ks(fj, fi).statistic == res.statistic
    # the plain step CDFs of tau / <tau> differ by 1/3 on the same data
    plain = two_sample_ks(empirical_cdf(np.array([0.75, 0.75, 1.5])), empirical_cdf(np.array([0.5, 1.0, 1.5])))
    np.testing.assert_allclose(plain.statistic, 1.0 / 3.0, rtol=1e-15)

    samples = [
        IntervalSample(q=2.0, tau=np.array([1, 2, 3]), source_length=10),
        IntervalSample(q=1.0, tau=np.array([1, 1, 2]), source_length=10),
    ]
    assert ks_matrix(samples).pairs[0].result == res


def test_lattice_counts_cells_meeting_the_overlap():
    # tau [1, 2, 12]: <tau> - 1/2 = 4.5; the cell of 12, (11/4.5, 12/4.5], lies
    # beyond the other sample's support end 2.4
    fi, fj = _lattice_cdf([1, 1, 2]), _lattice_cdf([1, 2, 12], q=2.0)
    res = two_sample_ks(fi, fj)
    np.testing.assert_allclose(res.overlap, (0.0, 2.4), rtol=1e-15)
    assert (res.m, res.n) == (3, 2)
    whole = two_sample_ks(fi, fj, overlap_counts=False)
    assert (whole.m, whole.n) == (3, 3)
    assert whole.statistic == res.statistic


def test_lattice_disjoint_supports():
    # the same table shifted right by 10: supports [0, 2.4] and [10, 12.4]
    fi = _lattice_cdf([1, 1, 2])
    fj = DequantizedCdf(
        x=fi.x + 10.0, F=fi.F, upper=fi.upper + 10.0, count=fi.count, step=fi.step, n=fi.n
    )
    with pytest.raises(NoOverlapError):
        two_sample_ks(fi, fj)


def test_one_sample_ks_exact_quantiles():
    from scipy.special import gammaincinv

    model = SEModel.normalized(5.0, 0.5)
    n = 400
    u = (np.arange(1, n + 1) - 0.5) / n
    x = (gammaincinv(1.0 / 0.5, u) / 5.0) ** (1.0 / 0.5)
    np.testing.assert_allclose(one_sample_ks(x, model), 0.5 / n, rtol=1e-9)


def test_one_sample_ks_detects_both_step_sides():
    model = SEModel.normalized(1.0, 1.0)
    # one huge value: the gap just below it is 1 - F(x-) at the top step
    x = np.array([50.0] * 5)
    d = one_sample_ks(x, model)
    np.testing.assert_allclose(d, float(model.cdf(50.0)), rtol=1e-12)


def test_bootstrap_deterministic():
    model = SEModel.normalized(5.79, 0.43)
    x = model.sample(300, seed=1)
    r1 = bootstrap_pvalue(x, model, n_boot=200, seed=42)
    r2 = bootstrap_pvalue(x, model, n_boot=200, seed=42)
    assert r1.p == r2.p
    assert r1.ks == r2.ks
    assert 0.0 <= r1.p <= 1.0
    assert r1.n_boot == 200
    assert r1.seed == 42
    assert r1.n_failed_refits == 0


def test_bootstrap_rejects_wrong_model():
    right = SEModel.normalized(5.79, 0.43)
    wrong = SEModel.normalized(1.0, 1.0)
    x = right.sample(2000, seed=2)
    report = bootstrap_pvalue(x, wrong, n_boot=100, seed=0)
    assert report.p == 0.0


def test_bootstrap_refit_path():
    model = SEModel.normalized(5.79, 0.43)
    x = model.sample(300, seed=3)
    report = bootstrap_pvalue(x, model, n_boot=50, seed=7, refit=True)
    assert report.n_failed_refits == 0
    assert 0.0 <= report.p <= 1.0
    again = bootstrap_pvalue(x, model, n_boot=50, seed=7, refit=True)
    assert report.p == again.p


def test_bootstrap_records_interval_threshold():
    rng = np.random.default_rng(6)
    v = np.abs(rng.standard_normal(20_000))
    v = v / np.std(v)
    sample = extract_intervals(v, 2.0)
    model = SEModel.normalized(1.0, 1.0)
    report = bootstrap_pvalue(sample, model, n_boot=100, seed=1)
    assert isinstance(report, FitReport)
    assert report.q == 2.0
    assert report.n == len(sample)


def test_bootstrap_null_calibration_smoke():
    # under the true model, small-sample p-values should not pile up near 0
    model = SEModel.normalized(14.2, 0.38)
    ps = []
    for k in range(30):
        x = model.sample(400, seed=100 + k)
        ps.append(bootstrap_pvalue(x, model, n_boot=99, seed=k).p)
    assert np.mean(np.array(ps) < 0.05) <= 0.2


# A replicate's draws depend only on its own spawned seed, so p and ks stay
# exact. The refit=False p was re-pinned when fixed-model replicates became
# sorted uniforms (kstwo.sf gives 0.396 for this ks and n).
@pytest.mark.parametrize("refit, p", [(False, 0.46), (True, 0.075)])
def test_bootstrap_pinned_plain_array(refit, p):
    model = SEModel.normalized(5.79, 0.43)
    x = model.sample(2000, seed=12)
    report = bootstrap_pvalue(x, model, n_boot=200, seed=12, refit=refit)
    assert report.p == p
    assert report.ks == 0.01998217359014476
    assert report.n_failed_refits == 0


def test_bootstrap_pinned_lattice_sample():
    model = SEModel.normalized(1.0, 1.0)
    tau = np.ceil(model.sample(2000, seed=10) * 1000).astype(np.int64)
    sample = IntervalSample(q=3.0, tau=tau, source_length=int(tau.sum()))
    report = bootstrap_pvalue(sample, model, n_boot=200, seed=10)
    assert report.p == 0.635
    assert report.ks == 0.016568816221495114


def test_bootstrap_counts_failed_refits(monkeypatch):
    x = SEModel.normalized(5.79, 0.43).sample(300, seed=6)
    model = fit_mle(x)
    n_boot = 40
    calls = []

    def every_other_fails(draw):
        calls.append(draw)
        if len(calls) % 2 == 0:
            raise FitFailureError("planted failure")
        return fit_mle(draw)

    monkeypatch.setattr(volint.kstest, "fit_mle", every_other_fails)
    report = bootstrap_pvalue(x, model, n_boot=n_boot, seed=9, refit=True)
    assert len(calls) == n_boot
    assert report.n_failed_refits == n_boot // 2
    kept = calls[::2]
    ks_obs = one_sample_ks(x, model)
    exceed = sum(one_sample_ks(d, fit_mle(d)) > ks_obs for d in kept)
    assert report.p == exceed / len(kept)
    assert 0.0 < report.p < 1.0
    assert report.ks == ks_obs


def test_bootstrap_every_refit_failing_raises(monkeypatch):
    def always_fails(draw):
        raise FitFailureError("planted failure")

    monkeypatch.setattr(volint.kstest, "fit_mle", always_fails)
    x = SEModel.normalized(5.79, 0.43).sample(300, seed=4)
    with pytest.raises(FitFailureError, match="every bootstrap replicate failed to refit"):
        bootstrap_pvalue(x, SEModel.normalized(5.79, 0.43), n_boot=10, seed=9, refit=True)


def test_bootstrap_holds_one_replicate_at_a_time():
    # 400 replicates of 5,000 draws would take 15 MiB as one block
    model = SEModel.normalized(5.79, 0.43)
    x = model.sample(5000, seed=0)
    tracemalloc.start()
    try:
        bootstrap_pvalue(x, model, n_boot=400, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "truth, model, n, seed",
    [
        (SEModel.normalized(14.2, 0.38), SEModel.normalized(14.2, 0.38), 91, 1),
        (SEModel.normalized(1.0, 1.0), SEModel.normalized(1.0, 1.0), 571, 2),
        (SEModel.normalized(5.79, 0.43), SEModel.normalized(5.45, 0.43), 2000, 3),
    ],
)
def test_fixed_model_p_follows_kolmogorov_law(truth, model, n, seed):
    # scored against a fixed continuous model, D_n has the Kolmogorov law
    from scipy.stats import kstwo

    n_boot = 2000
    x = truth.sample(n, seed=seed)
    report = bootstrap_pvalue(x, model, n_boot=n_boot, seed=seed)
    assert 0.0 < report.p < 1.0
    tol = 4 * np.sqrt(report.p * (1 - report.p) / n_boot) + 1 / n_boot
    assert abs(report.p - kstwo.sf(report.ks, n)) <= tol


@pytest.mark.parametrize("refit", [False, True])
def test_fixed_model_replicates_call_no_model(monkeypatch, refit):
    calls = {"se_cdf": 0, "se_sample": 0}

    def counting(name):
        original = getattr(volint.kstest, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(volint.kstest, name, counting(name))
    model = SEModel.normalized(5.79, 0.43)
    x = model.sample(300, seed=5)
    n_boot = 200
    bootstrap_pvalue(x, model, n_boot=n_boot, seed=5, refit=refit)
    if refit:
        assert calls["se_sample"] == n_boot
    else:
        assert calls == {"se_cdf": 1, "se_sample": 0}


def test_refit_bootstrap_holds_one_replicate_at_a_time():
    model = SEModel.normalized(5.79, 0.43)
    x = model.sample(5000, seed=0)
    tracemalloc.start()
    try:
        bootstrap_pvalue(x, model, n_boot=40, seed=0, refit=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
