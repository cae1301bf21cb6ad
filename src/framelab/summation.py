"""Exact summation of float64 terms: one correctly rounded rule for the package.

Every finite double is an integer M (|M| < 2^53) times 2^(e - 53), with e
from ``np.frexp``.  ``exact_sum`` splits M into a high part of 27 bits and a
low part of 26 bits and adds each part into the bin of its power of two
(``np.bincount``).  One chunk holds at most 2^16 terms, so every bin sum of a
chunk is an integer below 2^44 and exact in float64.  The chunk bins are then
added into int64 bins, which are folded into one Python int before they can
overflow.  The value is that int over a power of two; int/int true division
rounds correctly, subnormal results included.  The result is therefore the
correctly rounded exact sum, the value ``math.fsum`` returns, and it does not
depend on term order.  The sign of an exact zero is always +.
"""
from __future__ import annotations

import numpy as np

__all__ = ["exact_sum"]

_CHUNK = 1 << 16  # terms per bincount pass: bin sums stay below 2^44
_LOW_BITS = 26
_EXP_BIAS = 1073  # frexp exponents run from -1073 (the smallest subnormal) to 1024
_NBINS = 1024 + _EXP_BIAS + _LOW_BITS + 1
_SCALE = 53 + _EXP_BIAS  # bin j holds multiples of 2^(j - _SCALE)
_CHUNKS_PER_FOLD = 1 << 18  # each chunk adds < 2^44 to an int64 bin: fold well before 2^63


def exact_sum(x) -> float:
    """Correctly rounded sum of the float64 terms of x (math.fsum's value); a non-finite term is a ValueError."""
    x = np.asarray(x, dtype=float).ravel()
    bins = np.zeros(_NBINS, dtype=np.int64)
    total = 0  # folded bins, in units of 2^-_SCALE
    for n, i in enumerate(range(0, len(x), _CHUNK), start=1):
        chunk = x[i : i + _CHUNK]
        if not np.isfinite(chunk).all():
            raise ValueError("exact sum of a non-finite term")
        m, e = np.frexp(chunk)
        m = m * 2.0**53  # the integer M, exactly
        hi = np.floor(m * 2.0**-_LOW_BITS)
        lo = m - hi * 2.0**_LOW_BITS  # in [0, 2^26)
        k = e + _EXP_BIAS
        bins += (np.bincount(k, lo, _NBINS) + np.bincount(k + _LOW_BITS, hi, _NBINS)).astype(np.int64)
        if n % _CHUNKS_PER_FOLD == 0 or i + _CHUNK >= len(x):
            for j in np.flatnonzero(bins).tolist():
                total += int(bins[j]) << j
            bins[:] = 0
    return total / (1 << _SCALE)
