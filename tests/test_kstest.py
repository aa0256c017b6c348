"""Two-sample and one-sample KS tests, critical values, bootstrap p-values."""

import math
import subprocess
import sys
import time
from pathlib import Path

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
    gen_iid_volatility,
    kolmogorov_sf,
    ks_matrix,
    one_sample_ks,
    se_cdf,
    two_sample_ks,
)
from volint.lattice import _cell_terms, fit_lattice
from volint.semodel import GAMMA_BOUNDS
from volint.splitmix import standard_normals


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


@pytest.mark.parametrize("mean", [1.5, 20.0, 1000.0])
def test_one_sample_ks_scores_interval_counts(mean, monkeypatch):
    model = SEModel.normalized(1.3, 0.7)
    tau = np.ceil(model.sample(5_000, seed=4) * mean).astype(np.int64)
    sample = IntervalSample(q=3.0, tau=tau, source_length=int(tau.sum()))
    on_values = one_sample_ks(np.asarray(sample.scaled()), model)
    sizes = []
    real = volint.kstest.se_cdf
    monkeypatch.setattr(volint.kstest, "se_cdf", lambda m, x: sizes.append(np.size(x)) or real(m, x))
    assert one_sample_ks(sample, model) == on_values
    assert sizes == [len(sample.counts[0])] and sizes[0] < len(sample)
    assert bootstrap_pvalue(sample, model, n_boot=10, seed=1).ks == on_values


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


def test_bootstrap_rejects_wrong_model():
    right = SEModel.normalized(5.79, 0.43)
    wrong = SEModel.normalized(1.0, 1.0)
    x = right.sample(2000, seed=2)
    report = bootstrap_pvalue(x, wrong, n_boot=100, seed=0)
    # ks > 0.5, where the Kolmogorov tail is twice the exact one-sided one:
    # about exp(-2 n ks**2) = exp(-1244), below the smallest double
    assert report.ks == 0.5576296749017116
    assert report.p == 0.0


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


# The refit=False p is the Kolmogorov law's (kstwo.sf gives
# 0.3964195665150202); it was 0.46 from 200 replicates. ks was re-pinned in
# its last digits when se_cdf stopped calling scipy.
@pytest.mark.parametrize("refit, p", [(False, 0.3964195665150203)])
def test_bootstrap_pinned_plain_array(refit, p):
    model = SEModel.normalized(5.79, 0.43)
    x = model.sample(2000, seed=12)
    report = bootstrap_pvalue(x, model, n_boot=200, seed=12, refit=refit)
    assert report.p == p
    assert report.ks == 0.019982173590145424


def test_refit_takes_only_the_lattice_view():
    model = SEModel.normalized(1.0, 1.0)
    tau = np.ceil(model.sample(500, seed=4) * 10).astype(np.int64)
    sample = IntervalSample(q=2.0, tau=tau, source_length=int(tau.sum()))
    view = sample.scaled()
    # plain values, the sample itself, and copies of the view that lost its tag
    for data in (model.sample(500, seed=4), sample, np.asarray(view), view[1:], np.sort(view)):
        with pytest.raises(ValueError, match=r"IntervalSample\.scaled\(\)"):
            bootstrap_pvalue(data, model, n_boot=100, seed=0, refit=True)
    assert bootstrap_pvalue(view, model, n_boot=100, seed=0, refit=True).n_boot == 100


def test_bootstrap_pinned_lattice_sample():
    model = SEModel.normalized(1.0, 1.0)
    tau = np.ceil(model.sample(2000, seed=10) * 1000).astype(np.int64)
    sample = IntervalSample(q=3.0, tau=tau, source_length=int(tau.sum()))
    report = bootstrap_pvalue(sample, model, n_boot=200, seed=10)
    assert report.p == 0.636146000332821  # kstwo.sf; 0.635 from 200 replicates
    assert report.ks == 0.016568816221495142


def test_bootstrap_holds_one_replicate_at_a_time(peak_mib):
    # the fixed-model p draws no replicate; 400 replicates of 5,000 draws
    # would take 15 MiB as one block
    model = SEModel.normalized(5.79, 0.43)
    x = model.sample(5000, seed=0)
    assert peak_mib(bootstrap_pvalue, x, model, n_boot=400, seed=0) < 4


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


@pytest.mark.parametrize("refit", [False])
def test_fixed_model_replicates_call_no_model(monkeypatch, refit):
    calls = {"se_cdf": 0}

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
    assert calls == {"se_cdf": 1}


def test_fixed_model_p_draws_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the fixed-model p drew a replicate")

    model = SEModel.normalized(5.79, 0.43)
    x = SEModel.normalized(5.45, 0.43).sample(2000, seed=3)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    report = bootstrap_pvalue(x, model, n_boot=500, seed=5)
    assert report.p == kolmogorov_sf(report.ks, 2000)
    assert (report.n_boot, report.seed) == (500, 5)


# every branch of kolmogorov_sf: n = 140 / 141 switch the rules, and each
# n gets points either side of t = n d = 1/2, 1 and n - 1, d = 1/2,
# n d**2 = 0.754693, 2.2, 4, 18 and 370, and n d**1.5 = 1.4
_KOLMOGOROV_NS = [1, 2, 3, 5, 10, 40, 100, 139, 140, 141, 200, 1000, 2481, 10_000, 31_748, 99_999, 100_000]


def _kolmogorov_points(n: int) -> list[float]:
    from scipy.stats import kstwo

    ds = [float(kstwo.isf(p, n)) for p in np.logspace(-12, 0, 13)]
    edges = [0.5 / n, 1.0 / n, (n - 1.0) / n, 0.5, (1.4 / n) ** (2 / 3)]
    edges += [math.sqrt(c / n) for c in (0.754693, 2.2, 4.0, 18.0, 370.0)]
    ds += [e * f for e in edges for f in (1 - 1e-9, 1 + 1e-9)]
    return [d for d in ds if 0.0 < d < 1.0]


@pytest.mark.parametrize("n", _KOLMOGOROV_NS)
def test_kolmogorov_sf_matches_scipy(n):
    from scipy.stats import kstwo

    for d in _kolmogorov_points(n):
        want = float(kstwo.sf(d, n))
        took = []
        for _ in range(3):
            t0 = time.process_time()  # CPU time: a busy machine does not slow it
            got = kolmogorov_sf(d, n)
            took.append(time.process_time() - t0)
        assert abs(got - want) <= 1e-6, (n, d, got, want)
        if want >= 1e-12:
            assert abs(got - want) <= 1e-5 * want, (n, d, got, want)
        assert min(took) < 0.010, (n, d, min(took))


def test_kolmogorov_sf_closed_forms():
    n = 5
    assert kolmogorov_sf(0.5 / n, n) == 1.0
    assert kolmogorov_sf(1.0, n) == 0.0
    # Ruben-Gambino: P(D_n <= d) = n! / n**n (2 n d - 1)**n for n d <= 1
    np.testing.assert_allclose(1.0 - kolmogorov_sf(0.9 / n, n), math.factorial(n) / n**n * 0.8**n, rtol=1e-12)
    np.testing.assert_allclose(kolmogorov_sf(0.85, n), 2.0 * 0.15**n, rtol=1e-12)
    assert kolmogorov_sf(0.75, 1) == 0.5
    with pytest.raises(ValueError):
        kolmogorov_sf(0.1, 0)


def test_kolmogorov_sf_same_bits_at_any_blas_thread_count(blas_envs):
    # Durbin matrices up to 117 wide: a threaded BLAS matrix product of that
    # size gives other bits at another thread count. Where the matrix is
    # that wide the sf is 1 - cdf with a tiny cdf, so the squares themselves
    # are compared too.
    n_d = [(n, (1.4 / n) ** (2 / 3) * (1 - 1e-9)) for n in (1000, 20_000, 100_000)]
    n_d += [(140, 0.15), (5000, 0.01), (2481, 0.0697)]
    code = (
        "import numpy as np\n"
        "from volint.kstest import _square_flipped, kolmogorov_sf\n"
        "s = np.random.default_rng(0).random((117, 117))\n"
        "print(_square_flipped(s + s.T).tobytes().hex())\n"
        f"print([kolmogorov_sf(d, n).hex() for n, d in {n_d!r}])"
    )
    outputs = [
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        for env in blas_envs
    ]
    assert outputs[0] == outputs[1]


def _lattice_samples():
    """A geometric (iid) sample and a planted stretched-exponential one with K near 400, as lattice views."""
    geometric = np.random.default_rng(21).geometric(0.15, 3_000)
    x = SEModel.normalized(14.2, 0.38).sample(4_000, seed=22)
    planted = np.ceil(x / np.mean(x) * 15.0).astype(np.int64)
    samples = [IntervalSample(q=q, tau=t, source_length=int(t.sum())) for q, t in [(2.0, geometric), (3.0, planted)]]
    return [s.scaled() for s in samples]


def _cell_scores(view, model):
    """The model's masses p and scores d (one row per parameter) over the K knot cells and the open tail."""
    m = int(view.sample.counts[0][-1]) + 1
    terms = _cell_terms(model.a, model.gamma, np.arange(1.0, m + 1.0), view.step, m)[0]
    return np.exp(terms[0]), terms[1:]


def _linear_steps(p, d, n, y, gamma):
    """delta = I^-1 sum_j y_j d_j per row of cell-count fluctuations y, I = n sum_j p_j d_j d_j^T.

    Where gamma sits on a bound of GAMMA_BOUNDS that delta would leave, delta
    is taken in log a alone.
    """
    info, score = n * (p * d) @ d.T, y @ d.T
    delta = np.linalg.solve(info, score.T).T
    lo, hi = GAMMA_BOUNDS
    pinned = ((gamma <= lo) & (delta[:, 1] < 0)) | ((gamma >= hi) & (delta[:, 1] > 0))
    delta[pinned] = np.column_stack([score[pinned, 0] / info[0, 0], np.zeros(np.sum(pinned))])
    return delta


def _linear_distances(view, model, n_boot, seed):
    """The linearised bootstrap's replicate distances, as plain full arrays of every normal at once."""
    p, d = _cell_scores(view, model)
    n, m = len(view), len(p)
    z = standard_normals(seed, 0, n_boot * m).reshape(n_boot, m)
    y = np.sqrt(n) * (np.sqrt(p) * z - np.outer(z @ np.sqrt(p), p))
    delta = _linear_steps(p, d, n, y, model.gamma)
    gap = np.cumsum(y, axis=1)[:, :-1] / n - delta @ np.cumsum(p * d, axis=1)[:, :-1]
    return np.abs(gap).max(axis=1)


def _knot_distance(counts, model, view):
    """max_k |C_k / n - F(k h)| over k = 1 ... K, straight from se_cdf; the last count is the open tail."""
    k = np.arange(1.0, len(counts))
    return float(np.max(np.abs(np.cumsum(counts[:-1]) / len(view) - se_cdf(model, k / view.sample.mean_interval))))


@pytest.mark.parametrize("i", [0, 1], ids=["geometric", "planted"])
def test_linearised_refits_match_lattice_fits(i):
    # theta + delta is the refit to first order: its gap to the full censored
    # refit of the same counts shrinks as 1/n, while delta shrinks as 1/sqrt(n)
    view = _lattice_samples()[i]
    model = fit_mle(view)
    p, d = _cell_scores(view, model)
    rng = np.random.default_rng(i)
    gaps, steps = [], []
    for n in (4_000, 64_000):
        counts = rng.multinomial(n, p, size=16)
        delta = _linear_steps(p, d, n, counts - n * p, model.gamma)
        gap = []
        for row, (d_t, d_g) in zip(counts, delta):
            k = np.flatnonzero(row) + 1.0
            refit = fit_lattice(k, row[row > 0], view.step, float(len(row)))
            gap.append(math.hypot(math.log(model.a) + d_t - math.log(refit.a), model.gamma + d_g - refit.gamma))
        gaps.append(np.mean(gap))
        steps.append(np.sqrt(np.mean(delta**2)))
    assert np.any(counts[:, -1] > 0)  # some count vectors fill the open tail cell
    # n grows 16-fold: 16 for the gap and 4 for the step, where 4 for the gap would mean delta is wrong
    assert 8 <= gaps[0] / gaps[1] <= 40 and 2 <= steps[0] / steps[1] <= 8
    assert gaps[1] < 0.05 * steps[1]


@pytest.mark.parametrize("i", [0, 1], ids=["geometric", "planted"])
def test_lattice_refit_p_from_knot_distances(i, monkeypatch):
    for name in ("se_sample", "fit_mle"):
        monkeypatch.setattr(volint.kstest, name, lambda *args: pytest.fail(f"the lattice bootstrap called {name}"))
    view = _lattice_samples()[i]
    model = fit_mle(view)
    n_boot = 150
    report = bootstrap_pvalue(view, model, n_boot=n_boot, seed=i, refit=True)
    observed = np.append(np.bincount(view.sample.tau)[1:], 0)
    assert report.ks == pytest.approx(_knot_distance(observed, model, view), rel=0, abs=1e-14)
    distances = _linear_distances(view, model, n_boot, seed=i)
    assert np.min(np.abs(distances - report.ks)) > 1e-9  # no replicate sits within rounding of ks
    assert report.p == np.mean(distances > report.ks)
    assert (report.n, report.q) == (len(view), view.sample.q)
    # the knot distance is not the one-sample KS, which counts the lattice steps
    assert report.ks < 0.5 * one_sample_ks(view.sample, model)
    fixed = bootstrap_pvalue(view, model, n_boot=n_boot, seed=i)
    assert (fixed.ks, fixed.p) == (one_sample_ks(view.sample, model), bootstrap_pvalue(view.sample, model).p)


def test_lattice_refit_raises_on_singular_information():
    # nearly every interval is one minute: the fitted model sits on the upper
    # gamma bound, so the replicates whose step would leave it move log a alone
    tau = np.repeat([1, 2], [57, 3])
    view = IntervalSample(q=4.0, tau=tau, source_length=int(tau.sum())).scaled()
    model = fit_mle(view)
    assert model.gamma == GAMMA_BOUNDS[1]
    report = bootstrap_pvalue(view, model, n_boot=200, seed=1, refit=True)
    assert 0.1 < report.p == np.mean(_linear_distances(view, model, 200, seed=1) > report.ks) < 0.9
    # a model with all its mass in the first cell has no information on (a, gamma)
    with pytest.raises(FitFailureError, match="Fisher information on the lattice cells is singular"):
        bootstrap_pvalue(view, SEModel.normalized(60.0, 1.0), n_boot=20, seed=3, refit=True)


def test_lattice_refit_p_is_calibrated_on_the_iid_null():
    # iid exceedances give geometric intervals, the censored model at gamma = 1
    n_seeds = 40
    low = {2.0: 0, 3.0: 0}
    for seed in range(n_seeds):
        v = gen_iid_volatility(10_000, seed=seed)
        for q in low:
            view = extract_intervals(v, q).scaled()
            low[q] += bootstrap_pvalue(view, fit_mle(view), n_boot=100, seed=seed, refit=True).p < 0.05
    for q, count in low.items():
        assert 0.01 <= count / n_seeds <= 0.10, (q, count)


def test_lattice_refit_bootstrap_memory_is_bounded(peak_mib):
    view = _lattice_samples()[1]
    assert 350 <= view.sample.counts[0][-1] <= 500
    model = fit_mle(view)
    assert peak_mib(bootstrap_pvalue, view, model, n_boot=1000, seed=0, refit=True) < 4


def test_lattice_refit_p_does_not_depend_on_the_block_size(monkeypatch):
    view = _lattice_samples()[1]
    model = fit_mle(view)
    reports = []
    for rows in (7, 100, 1000):
        monkeypatch.setattr(volint.kstest, "_BOOT_ROWS", rows)
        reports.append(bootstrap_pvalue(view, model, n_boot=120, seed=5, refit=True))
    assert reports[0] == reports[1] == reports[2]


def test_lattice_refit_same_bits_at_any_blas_thread_count(blas_envs):
    code = (
        "import sys\n"
        "sys.path.insert(0, 'tests')\n"
        "from test_kstest import _lattice_samples\n"
        "from volint import bootstrap_pvalue, fit_mle\n"
        "for view in _lattice_samples():\n"
        "    r = bootstrap_pvalue(view, fit_mle(view), n_boot=100, seed=1, refit=True)\n"
        "    print(r.model.a.hex(), r.model.gamma.hex(), r.ks.hex(), r.p.hex())\n"
    )
    root = Path(__file__).resolve().parents[1]
    outputs = [
        subprocess.run([sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True, check=True)
        for env in blas_envs
    ]
    outputs = [run.stdout for run in outputs]
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 2
