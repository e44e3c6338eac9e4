"""Spectral transforms: absolute values, even/odd decimation, superposition.

Each works row by row along the last axis, so a (count, n) batch such as
``SampleBatch.spectra`` is one call and a 1-D spectrum one row.  The even
set is pinned to the 2nd, 4th, ... largest singular values, which in
ascending order means indices n-1, n-3, ...; that is what the integration
identities downstream are stated in, for odd n included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecimationResult", "singular_values", "decimate", "superpose"]


@dataclass(frozen=True)
class DecimationResult:
    """Even- and odd-location singular values, both ascending; mu = n % 2."""

    even: np.ndarray
    odd: np.ndarray
    mu: int


def singular_values(spectra) -> np.ndarray:
    """Absolute values sorted ascending along the last axis; ties preserved."""
    return np.sort(np.abs(np.asarray(spectra, dtype=float)), axis=-1)


def decimate(sv) -> DecimationResult:
    """Split ascending singular values by location counted from the largest.

    even = every second value starting from the 2nd largest; in ascending
    0-based indexing that is the slice [n%2 :: 2] of the last axis.
    |even| = floor(n/2) and |odd| = ceil(n/2).  Both parts are views of
    the input.
    """
    vals = np.asarray(sv, dtype=float)
    mu = vals.shape[-1] % 2
    return DecimationResult(even=vals[..., mu::2], odd=vals[..., 1 - mu :: 2], mu=mu)


def superpose(*parts) -> np.ndarray:
    """Sorted multiset union of any number of runs, row by row."""
    return np.sort(np.concatenate([np.asarray(p, dtype=float) for p in parts], axis=-1), axis=-1)
