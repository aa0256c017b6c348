"""SplitMix64 random numbers (Steele, Lea & Flood 2014) in numpy uint64 arithmetic.

Output c of a seed's stream mixes the state seed + (c + 1) * 0x9e3779b97f4a7c15
alone, so any stretch of the stream is computed on its own. Unlike
``numpy.random``, whose ``secrets`` import maps OpenSSL, it loads nothing.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def splitmix64(seed: int, start: int, stop: int) -> np.ndarray:
    """Outputs start ... stop - 1 of the SplitMix64 stream of ``seed`` (0 <= seed < 2**64), as uint64."""
    x = np.arange(start + 1, stop + 1, dtype=np.uint64)
    x *= _GOLDEN  # array arithmetic wraps modulo 2**64 without a warning
    x += np.uint64(seed)
    for mix, shift in zip(_MIX, (30, 27)):
        x ^= x >> np.uint64(shift)
        x *= mix
    x ^= x >> np.uint64(31)
    return x


def standard_normals(seed: int, start: int, stop: int) -> np.ndarray:
    """Normals start ... stop - 1 of the stream of ``seed``, by Box-Muller on its uniforms u = (w >> 11) / 2**53.

    Normals 2i and 2i + 1 are R cos(2 pi u_2i+1) and R sin(2 pi u_2i+1), R = sqrt(-2 log(1 - u_2i)).
    """
    lo = start - start % 2
    u = (splitmix64(seed, lo, stop + stop % 2) >> np.uint64(11)).astype(np.float64)
    u *= 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = (2.0 * math.pi) * u[1::2]
    u[0::2] = radius * np.cos(angle)
    u[1::2] = radius * np.sin(angle)
    return u[start - lo : stop - lo]
