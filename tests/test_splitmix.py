"""The counter-based SplitMix64 stream and its Box-Muller normals."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from volint.splitmix import splitmix64, standard_normals


def _reference(seed: int, count: int) -> list[int]:
    """The sequential SplitMix64 of Steele, Lea & Flood (2014), in Python integers."""
    mask, out = 2**64 - 1, []
    for _ in range(count):
        seed = (seed + 0x9E3779B97F4A7C15) & mask
        z = ((seed ^ (seed >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize(
    "seed, first",
    [
        (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
        (1234567, [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]),
    ],
)
def test_first_outputs_are_pinned(seed, first):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the uint64 arithmetic wraps without an overflow warning
        got = splitmix64(seed, 0, 3)
        standard_normals(seed, 0, 7)
    assert got.dtype == np.uint64 and got.tolist() == first == _reference(seed, 3)


def test_any_stretch_matches_the_sequential_stream():
    seed = 2**64 - 1  # the largest seed: the state wraps at the first step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert splitmix64(seed, 0, 40).tolist() == _reference(seed, 40)
        assert splitmix64(seed, 17, 23).tolist() == _reference(seed, 40)[17:23]
    whole = standard_normals(5, 0, 40)
    for start, stop in ((0, 1), (3, 11), (4, 10), (7, 8), (39, 40)):
        assert np.array_equal(standard_normals(5, start, stop), whole[start:stop])


def test_uniforms_are_equidistributed():
    # the uniforms that Box-Muller pairs, on their own and as consecutive pairs
    u = (splitmix64(11, 0, 2**17) >> np.uint64(11)).astype(np.float64) / 2.0**53
    bins = 64
    counts = np.bincount((u * bins).astype(np.intp), minlength=bins)
    pairs = np.bincount((u[0::2] * 8).astype(np.intp) * 8 + (u[1::2] * 8).astype(np.intp), minlength=64)
    for observed in (counts, pairs):
        expected = observed.sum() / len(observed)
        chi2 = float(np.sum((observed - expected) ** 2) / expected)
        assert chi2 < stats.chi2.ppf(0.999, len(observed) - 1), chi2


def test_normals_have_standard_moments_and_law():
    n = 200_000
    z = standard_normals(3, 0, n)
    assert abs(z.mean()) < 4.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)
    assert abs(stats.skew(z)) < 4.0 * math.sqrt(6.0 / n)
    assert abs(stats.kurtosis(z)) < 4.0 * math.sqrt(24.0 / n)
    assert stats.kstest(z, "norm").pvalue > 0.001
    # the cosine and sine halves of each pair are uncorrelated
    assert abs(np.corrcoef(z[0::2], z[1::2])[0, 1]) < 4.0 / math.sqrt(n / 2)
