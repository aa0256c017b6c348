"""Interval extraction, scaled distributions, threshold search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volint import (
    CdfTable,
    DequantizedCdf,
    InsufficientEventsError,
    IntervalSample,
    NormVolSeries,
    PdfTable,
    UnreachableTargetError,
    empirical_cdf,
    extract_intervals,
    gen_iid_volatility,
    scaled_pdf,
    threshold_for_mean,
)

V = np.array([0.5, 2.1, 0.3, 0.9, 2.5, 2.2])


def test_hand_extraction():
    sample = extract_intervals(V, 2.0)
    assert sample.tau.dtype == np.int64
    assert list(sample.tau) == [3, 1]
    assert sample.mean_interval == 2.0
    assert sample.q == 2.0
    assert sample.source_length == 6


def test_threshold_is_strict():
    v = np.array([2.0, 1.0, 2.0, 2.0001])
    with pytest.raises(InsufficientEventsError):
        extract_intervals(v, 2.0)  # the two 2.0 values do not count
    sample = extract_intervals(np.array([2.5, 1.0, 2.0, 2.0001]), 2.0)
    assert list(sample.tau) == [3]


def test_too_few_exceedances_reports_count():
    with pytest.raises(InsufficientEventsError) as err:
        extract_intervals(V, 10.0)
    assert err.value.n_exceedances == 0
    assert err.value.q == 10.0


def test_intervals_span_day_boundaries():
    v = np.array([3.0, 0.1, 3.0, 0.1, 3.0])
    assert list(extract_intervals(v, 2.0).tau) == [2, 2]

    # the second interval starts on day 0 and ends on day 1; it is kept
    sd = np.std(v)
    series = NormVolSeries(
        values=v / sd,
        day=np.array([0, 0, 1, 1, 1]),
        slot=np.array([571, 572, 571, 572, 573]),
    )
    assert list(extract_intervals(series, 2.0 / sd).tau) == [2, 2]


@given(
    st.lists(st.booleans(), min_size=2, max_size=300).filter(
        lambda bits: sum(bits) >= 2
    )
)
def test_interval_bookkeeping(bits):
    v = np.where(bits, 2.0, 0.5)
    sample = extract_intervals(v, 1.0)
    positions = np.flatnonzero(v > 1.0)
    assert len(sample.tau) == len(positions) - 1
    assert sample.tau.sum() == positions[-1] - positions[0]
    assert sample.tau.min() >= 1


def test_scaled_divides_by_own_mean():
    sample = IntervalSample(q=2.0, tau=np.array([1, 1, 2]), source_length=10)
    x = sample.scaled()
    assert list(x) == [0.75, 0.75, 1.5]
    assert x.step == 0.75


def _count_cases():
    rng = np.random.default_rng(3)
    return [
        np.full(40, 7),  # a single repeated tau: the degenerate PDF
        np.append(np.ones(5_000, dtype=np.int64), 10_000),  # many tau = 1 and one far-tail value
        rng.geometric(0.05, 20_000),
    ]


def _values_cdf(values):
    x, count = np.unique(values, return_counts=True)
    return CdfTable(x=x, F=np.cumsum(count) / len(values), count=count, n=len(values))


def _values_pdf(x, bins_per_decade):
    """The log-binned table made from the n scaled values themselves."""
    n, xmin, xmax = len(x), float(x.min()), float(x.max())
    if xmin == xmax:
        half = 10.0 ** (0.5 / bins_per_decade)
        lo, hi = xmin / half, xmax * half
        return np.array([lo]), np.array([hi]), np.array([xmin]), np.array([1.0 / (hi - lo)]), np.array([n])
    n_bins = max(1, int(np.ceil(np.log10(xmax / xmin) * bins_per_decade)))
    edges = 10.0 ** np.linspace(np.log10(xmin), np.log10(xmax), n_bins + 1)
    edges[0], edges[-1] = xmin, xmax
    count, _ = np.histogram(x, bins=edges)
    keep = count > 0
    lo, hi = edges[:-1][keep], edges[1:][keep]
    return lo, hi, np.sqrt(lo * hi), count[keep] / (n * (hi - lo)), count[keep]


@pytest.mark.parametrize("case", range(3), ids=["one_value", "far_tail", "geometric"])
def test_tables_from_counts_match_values(case):
    tau = _count_cases()[case]
    sample = IntervalSample(q=1.0, tau=tau, source_length=int(tau.sum()))
    k, count = sample.counts
    ref_k, ref_count = np.unique(tau, return_counts=True)
    assert k.dtype == np.float64 and np.array_equal(k, ref_k)
    assert np.array_equal(count, ref_count) and count.sum() == len(sample)
    assert sample.counts is sample.counts

    x = np.asarray(sample.scaled())
    for table, ref in ((empirical_cdf(sample), _values_cdf(x)), (empirical_cdf(x), _values_cdf(x))):
        assert table.n == ref.n
        for field in ("x", "F", "count"):
            assert np.array_equal(getattr(table, field), getattr(ref, field))

    steps = _values_cdf(tau)
    knots = np.unique(np.concatenate((steps.x - 1.0, steps.x)))
    step = 1.0 / (sample.mean_interval - 0.5)
    deq = DequantizedCdf.from_sample(sample)
    assert deq.step == step and deq.n == len(tau)
    assert np.array_equal(deq.x, knots * step) and np.array_equal(deq.F, steps.eval(knots))
    assert np.array_equal(deq.upper, steps.x * step) and np.array_equal(deq.count, steps.count)

    for bpd in (5, 20):
        pdf = scaled_pdf(sample, bins_per_decade=bpd)
        assert pdf.degenerate == (case == 0) and pdf.n_total == len(tau)
        for got, want in zip((pdf.lo, pdf.hi, pdf.center, pdf.density, pdf.count), _values_pdf(x, bpd)):
            assert np.array_equal(got, want)
        assert pdf.count.dtype.kind == "i"


def test_hand_pdf():
    sample = IntervalSample(q=2.0, tau=np.array([1, 1, 2]), source_length=10)
    table = scaled_pdf(sample, bins_per_decade=5)
    assert len(table.center) == 2
    assert list(table.count) == [2, 1]
    np.testing.assert_allclose(table.lo[0], 0.75, rtol=1e-15)
    np.testing.assert_allclose(table.hi[-1], 1.5, rtol=1e-15)
    np.testing.assert_allclose(table.hi[0], np.sqrt(1.125), rtol=1e-15)
    masses = table.density * (table.hi - table.lo)
    assert masses[0] == 2.0 / 3.0
    assert masses[1] == 1.0 / 3.0
    np.testing.assert_allclose(table.center, np.sqrt(table.lo * table.hi), rtol=1e-15)
    assert not table.degenerate


def test_degenerate_single_value_pdf():
    sample = IntervalSample(q=2.0, tau=np.array([3, 3, 3]), source_length=10)
    table = scaled_pdf(sample)
    assert table.degenerate
    assert len(table.center) == 1
    assert table.count[0] == 3
    mass = table.density[0] * (table.hi[0] - table.lo[0])
    np.testing.assert_allclose(mass, 1.0, rtol=1e-12)


@given(
    st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=300),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60)
def test_pdf_mass_sums_to_one(taus, bpd):
    sample = IntervalSample(q=1.0, tau=np.array(taus), source_length=10_000)
    table = scaled_pdf(sample, bins_per_decade=bpd)
    mass = np.sum(table.density * (table.hi - table.lo))
    np.testing.assert_allclose(mass, 1.0, rtol=1e-9)
    assert table.count.sum() == len(taus)
    assert np.all(table.density >= 0)


def test_pdf_table_validates_structure():
    with pytest.raises(ValueError):
        PdfTable(
            lo=np.array([1.0]),
            hi=np.array([0.5]),  # hi below lo
            center=np.array([0.7]),
            density=np.array([1.0]),
            count=np.array([1]),
            n_total=1,
        )


def test_empirical_cdf_right_continuous():
    cdf = empirical_cdf(np.array([1.0, 1.0, 2.0, 4.0]))
    assert cdf.n == 4
    assert cdf.eval(np.array([0.5]))[0] == 0.0
    assert cdf.eval(np.array([1.0]))[0] == 0.5
    assert cdf.eval(np.array([1.5]))[0] == 0.5
    assert cdf.eval(np.array([2.0]))[0] == 0.75
    assert cdf.eval(np.array([4.0]))[0] == 1.0
    assert cdf.eval(np.array([9.0]))[0] == 1.0


def test_threshold_for_mean_hits_target(iid_series):
    (result,) = threshold_for_mean(iid_series, [10.0])
    assert abs(result.mean_interval - 10.0) <= 0.5
    assert threshold_for_mean(iid_series, [10.0]) == [result]


def test_threshold_for_mean_validates_target(iid_series):
    with pytest.raises(ValueError):
        threshold_for_mean(iid_series, [10.0, 0.5])


def test_threshold_for_mean_unreachable(iid_series):
    with pytest.raises(UnreachableTargetError):
        threshold_for_mean(iid_series, [1e9])


def _nearest_by_brute_force(v, target):
    """(q, mean) of the candidate nearest ``target``, the lower q on a tie, from extract_intervals."""
    values = v.values if isinstance(v, NormVolSeries) else v
    means = {}
    for q in [*np.unique(values), np.nextafter(values.min(), -np.inf)]:
        try:
            means[float(q)] = extract_intervals(v, q).mean_interval
        except InsufficientEventsError:
            pass
    if not means:
        return "no threshold yields two exceedances"
    if max(means.values()) < target - 0.5:
        return "largest reachable mean interval"
    return min(means.items(), key=lambda qm: (abs(qm[1] - target), qm[0]))


def test_threshold_for_mean_is_nearest_candidate():
    v = gen_iid_volatility(3000, seed=7)
    targets = (1.0, 2.0, 5.0, 8.0, 10.0, 15.0, 20.0, 40.0, 49.0, 80.0, 300.0)
    expected = [_nearest_by_brute_force(v, t) for t in targets]
    assert threshold_for_mean(v, targets) == expected


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(st.integers(0, 4), min_size=2, max_size=40),
    target=st.floats(1.0, 25.0),
)
def test_threshold_for_mean_matches_brute_force(raw, target):
    # small integer values tie often
    v = np.array(raw, dtype=float)
    expected = _nearest_by_brute_force(v, target)
    if isinstance(expected, str):
        with pytest.raises(UnreachableTargetError, match=expected):
            threshold_for_mean(v, [target])
    else:
        assert threshold_for_mean(v, [target]) == [expected]


def test_threshold_for_mean_takes_nearest_of_several_crossings():
    # going down from the top candidate, whose two points are 49 minutes apart,
    # the mean interval crosses 80 at four pairs of neighbouring candidates:
    # 49 to 1055, 80.2 to 77.9, 77.9 to 82.0 and 82.0 to 79.75
    v = gen_iid_volatility(3000, seed=7)
    assert threshold_for_mean(v, [49.0, 80.0]) == [
        (5.442571858070578, 49.0),
        (4.22273060446448, 80.21212121212122),
    ]


def test_threshold_for_mean_reaches_target_above_top_value_mean():
    # the top candidate has a mean of 49; lower ones reach 300
    v = gen_iid_volatility(3000, seed=7)
    (result,) = threshold_for_mean(v, [300.0])
    assert result.mean_interval == 303.125
    assert extract_intervals(v, result.q).mean_interval == 303.125


# candidate 1.0 keeps positions 0, 2, 4, 6, 8 (mean 2); candidate 2.0 keeps
# the values >= 3, at positions 0, 4, 8 (mean 4)
LADDER = np.array([3.0, 1.0, 2.0, 1.0, 4.0, 1.0, 2.0, 1.0, 3.0])


def test_threshold_for_mean_tie_takes_lower_q():
    assert threshold_for_mean(LADDER, [3.0, 3.01]) == [(1.0, 2.0), (2.0, 4.0)]


def test_threshold_for_mean_top_candidate_up_to_half_a_minute():
    for result in threshold_for_mean(LADDER, [4.2, 4.5]):
        assert result == (2.0, 4.0)
        assert list(extract_intervals(LADDER, result.q).tau) == [4, 4]
    with pytest.raises(UnreachableTargetError, match="largest reachable mean interval is 4"):
        threshold_for_mean(LADDER, [4.51])


def test_threshold_for_mean_two_valued_series_keeps_every_point():
    (result,) = threshold_for_mean(np.array([1.0, 2.0, 1.0, 2.0]), [1.5])
    assert result.mean_interval == 1.0
    assert result.q < 1.0


def test_threshold_for_mean_small_targets_exist(iid_series):
    # each target in the default ladder is reachable on iid data
    targets = (10.0, 30.0, 100.0)
    for target, result in zip(targets, threshold_for_mean(iid_series, targets)):
        assert abs(result.mean_interval - target) <= 0.5


def test_threshold_for_mean_top_candidate_spans_days():
    # the two largest values fall on different days; the top candidate keeps
    # the interval between them, the largest mean of any candidate
    raw = np.array([9.0, 1, 1, 3, 1, 2, 1, 8, 2, 1, 1, 1])
    v = NormVolSeries(values=raw / np.std(raw), day=np.repeat([0, 1], 6), slot=np.arange(571, 583))
    assert threshold_for_mean(v, [7.0]) == [(v.values[3], 7.0)]
    with pytest.raises(UnreachableTargetError, match="largest reachable mean interval is 7"):
        threshold_for_mean(v, [7.6])


def test_threshold_for_mean_one_point_has_no_interval():
    with pytest.raises(UnreachableTargetError, match="no threshold yields two exceedances"):
        threshold_for_mean(np.array([3.0]), [1.0])
