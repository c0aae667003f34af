"""Numeric kernels: the step-function quote lookup and the splitmix64 stream."""

from __future__ import annotations

import numpy as np

# There is no compiled path; the benchmark harness stamps this flag on every run.
USING_NUMBA = False

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

LOOKUP_OK = 0
LOOKUP_NO_QUOTE = 1
LOOKUP_STALE = 2


def step_mid_lookup(ts, bid, ask, queries, staleness_ms):
    """Last-quote-at-or-before midpoint lookup (step function).

    Returns (mids, status); status 0 = ok, 1 = no quote before, 2 = stale.
    """
    idx = np.searchsorted(ts, queries, side="right") - 1
    status = np.zeros(queries.shape, dtype=np.int8)
    mids = np.zeros(queries.shape, dtype=np.float64)
    missing = idx < 0
    status[missing] = LOOKUP_NO_QUOTE
    safe = np.where(missing, 0, idx)
    gap = queries - ts[safe]
    stale = (~missing) & (gap > staleness_ms)
    status[stale] = LOOKUP_STALE
    ok = status == LOOKUP_OK
    mids[ok] = (bid[safe[ok]] + ask[safe[ok]]) / 2.0
    return mids, status


def splitmix64(seed, start, count):
    """Counter-based splitmix64 stream: value i = mix(seed + (start+i+1)*golden)."""
    i = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed) + i * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniform01(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles from the splitmix64 stream."""
    return (splitmix64(np.uint64(seed), start, count) >> np.uint64(11)) * 2.0**-53
