"""QuickSelect — Hoare's FIND (Algorithm 65, CACM 1961).

The CPU comparator the paper times ``KthLargest`` against (section 5.9).
Expected linear time, but it *rearranges data* (in-place partitioning)
and is branchy — the two properties the paper contrasts with the GPU
algorithm, which does neither.

Two implementations:

* :func:`quickselect` — the faithful in-place partition loop, exactly
  the algorithm the paper cites.
* :func:`partition_select` — ``numpy.partition``-based selection, the
  vectorized/"compiler-optimized" variant used where wall-clock speed of
  the harness itself matters.  Identical results.

Both return the k-th **largest** element (k = 1 is the maximum), to
match the paper's ``KthLargest`` convention.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError


def _validate_k(k: int, size: int) -> None:
    if size == 0:
        raise QueryError("cannot select from an empty array")
    if not 1 <= k <= size:
        raise QueryError(f"k={k} outside [1, {size}]")


def quickselect(values: np.ndarray, k: int, seed: int = 0x5EED) -> float:
    """The k-th largest element via Hoare's FIND with random pivots.

    Operates on a copy (the caller's data is not rearranged, but the
    algorithm itself is the in-place partitioning one — the copy stands
    in for the scratch array a real system would use).
    """
    data = np.asarray(values).ravel().copy()
    _validate_k(k, data.size)
    rng = np.random.default_rng(seed)
    # k-th largest == order statistic (n - k) in ascending 0-based terms.
    target = data.size - k
    lo, hi = 0, data.size - 1
    while True:
        if lo == hi:
            return data[lo].item()
        pivot_index = int(rng.integers(lo, hi + 1))
        pivot_index = _partition(data, lo, hi, pivot_index)
        if target == pivot_index:
            return data[target].item()
        if target < pivot_index:
            hi = pivot_index - 1
        else:
            lo = pivot_index + 1


def _partition(data: np.ndarray, lo: int, hi: int, pivot_index: int) -> int:
    """Lomuto partition around ``data[pivot_index]``; returns the pivot's
    final position.  Branchy by design — every element comparison is a
    conditional move-or-not."""
    pivot = data[pivot_index]
    data[pivot_index], data[hi] = data[hi], data[pivot_index]
    store = lo
    for i in range(lo, hi):
        if data[i] < pivot:
            data[store], data[i] = data[i], data[store]
            store += 1
    data[store], data[hi] = data[hi], data[store]
    return store


def partition_select(values: np.ndarray, k: int) -> float:
    """Vectorized selection of the k-th largest via ``numpy.partition``."""
    data = np.asarray(values).ravel()
    _validate_k(k, data.size)
    return np.partition(data, data.size - k)[data.size - k].item()


def median(values: np.ndarray, vectorized: bool = True) -> float:
    """The paper's median convention: the ceil(n/2)-th largest element
    (a single order statistic, not the two-element average)."""
    # Runtime import: repro.core builds on this CPU baseline.
    from ..core.aggregates import order_ranks

    data = np.asarray(values).ravel()
    if data.size == 0:
        raise QueryError("cannot take the median of an empty array")
    (k,) = order_ranks("median", data.size)
    if vectorized:
        return partition_select(data, k)
    return quickselect(data, k)
