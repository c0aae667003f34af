"""Numeric kernels: the step-function quote lookup, the sorted-key join,
group sums and rows in row order, and the median. None imports numpy.ma
(about 10 ms), as np.median, np.quantile and numpy's sorting isin do."""

from __future__ import annotations

import numpy as np

# There is no compiled path; the benchmark harness stamps this flag on every run.
USING_NUMBA = False


def step_mid_lookup(ts, bid, ask, queries, staleness_ms):
    """Last-quote-at-or-before midpoint lookup (step function).

    Returns (mids, ok); ok is false where no quote is at or before the time,
    or the last one is more than ``staleness_ms`` older, and the mid there is 0.
    """
    idx = np.searchsorted(ts, queries, side="right") - 1
    safe = np.maximum(idx, 0)
    ok = (idx >= 0) & (queries - ts[safe] <= staleness_ms)
    mids = np.zeros(queries.shape, dtype=np.float64)
    mids[ok] = (bid[safe[ok]] + ask[safe[ok]]) / 2.0
    return mids, ok


def lookup(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """The index of each integer of ``keys`` in ascending ``sorted_keys``, or
    -1 where it is absent; memory in proportion to the keys, not their values."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < len(sorted_keys)
    found[found] = sorted_keys[at[found]] == keys[found]
    return np.where(found, at, -1)


def group_sum(codes: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Per group 0..n-1, the sum of the ``weights`` whose ``codes`` name it,
    added left to right in index order from 0.0 (what builtin sum() does up
    to Python 3.11; from 3.12 sum() compensates). np.bincount adds in index
    order; numpy's own sum adds pairwise."""
    return np.bincount(codes, weights=weights, minlength=n).astype(np.float64, copy=False)


def keyed_sums(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct ``keys`` in the order they first appear, the sum of each
    one's ``values`` added left to right in index order): a dict filled by
    ``d[key] += value`` from 0.0, in order. Summing its values by group_sum
    keeps the dict's order."""
    distinct, first, code = np.unique(keys, return_index=True, return_inverse=True)
    seen = np.argsort(first)
    rank = np.empty_like(seen)
    rank[seen] = np.arange(len(seen))
    return distinct[seen], group_sum(rank[code], values, len(distinct))


def group_rows(codes: np.ndarray, n: int) -> list[np.ndarray]:
    """Per group 0..n-1, the indices whose ``codes`` name it, in index order."""
    order = np.argsort(codes, kind="stable")
    return np.split(order, np.cumsum(np.bincount(codes, minlength=n))[:-1]) if n else []


def median(values: np.ndarray) -> np.ndarray:
    """np.median(values, axis=0) to the bit, a NaN's payload aside: the
    middle value or (a + b) / 2 of the two middles, summed from 0.0 as
    np.mean does, so -0.0 + -0.0 is 0.0 but 0.0 + -5e-324 halves to -0.0."""
    half, odd = divmod(len(values), 2)
    part = np.partition(values, half if odd else [half - 1, half], axis=0)
    middle = 0.0 + part[half] if odd else (0.0 + part[half - 1] + part[half]) / 2
    return np.where(np.isnan(values).any(axis=0), np.nan, middle)

