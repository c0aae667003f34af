import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cexdex import _kernels as k


def random_series(rng, n):
    ts = np.cumsum(rng.integers(1, 500, n)).astype(np.int64)
    bid = 100.0 + rng.normal(0, 0.5, n).cumsum()
    ask = bid + rng.uniform(0.001, 0.5, n)
    return ts, bid, ask


def linear_scan_lookup(ts, bid, ask, t, staleness_ms):
    """Reference implementation: walk the series, no binary search."""
    best = -1
    for i in range(len(ts)):
        if ts[i] <= t:
            best = i
        else:
            break
    if best < 0:
        return k.LOOKUP_NO_QUOTE, 0.0
    if t - ts[best] > staleness_ms:
        return k.LOOKUP_STALE, 0.0
    return k.LOOKUP_OK, (bid[best] + ask[best]) / 2.0


def test_lookup_matches_linear_scan():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        ts, bid, ask = random_series(rng, n)
        queries = rng.integers(ts[0] - 2000, ts[-1] + 10000, 100).astype(np.int64)
        mids, codes = k.step_mid_lookup(ts, bid, ask, queries, 5000)
        for q, code, mid in zip(queries, codes, mids):
            ref_code, ref_mid = linear_scan_lookup(ts, bid, ask, int(q), 5000)
            assert code == ref_code
            if code == k.LOOKUP_OK:
                assert mid == ref_mid


def test_splitmix_counter_based_slicing():
    # stream position i is a pure function of (seed, i): slices concatenate
    whole = k.splitmix64(np.uint64(9), np.uint64(0), 100)
    part1 = k.splitmix64(np.uint64(9), np.uint64(0), 40)
    part2 = k.splitmix64(np.uint64(9), np.uint64(40), 60)
    assert np.array_equal(whole, np.concatenate([part1, part2]))


def test_splitmix_seed_sensitivity():
    a = k.splitmix64(np.uint64(1), np.uint64(0), 100)
    b = k.splitmix64(np.uint64(2), np.uint64(0), 100)
    assert not np.array_equal(a, b)


def test_uniform01_range_and_determinism():
    u = k.uniform01(123, 0, 100000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, k.uniform01(123, 0, 100000))
    # roughly uniform
    assert abs(u.mean() - 0.5) < 0.01


@given(
    st.lists(st.integers(min_value=0, max_value=10 ** 9), min_size=1, max_size=50),
    st.integers(min_value=-1000, max_value=10 ** 9 + 10 ** 5),
)
@settings(max_examples=200, deadline=None)
def test_lookup_property_vs_linear_scan(raw_ts, query):
    ts = np.array(sorted(set(raw_ts)), dtype=np.int64)
    bid = np.linspace(10, 20, len(ts))
    ask = bid + 0.5
    mids, codes = k.step_mid_lookup(ts, bid, ask, np.array([query], dtype=np.int64), 5000)
    ref_code, ref_mid = linear_scan_lookup(ts, bid, ask, query, 5000)
    assert codes[0] == ref_code
    if ref_code == k.LOOKUP_OK:
        assert mids[0] == ref_mid
