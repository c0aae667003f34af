import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cexdex import _kernels as k
from cexdex import synth


def random_series(rng, n):
    ts = np.cumsum(rng.integers(1, 500, n)).astype(np.int64)
    bid = 100.0 + rng.normal(0, 0.5, n).cumsum()
    ask = bid + rng.uniform(0.001, 0.5, n)
    return ts, bid, ask


def linear_scan_lookup(ts, bid, ask, t, staleness_ms):
    """Reference implementation: walk the series, no binary search; (ok, mid)."""
    best = -1
    for i in range(len(ts)):
        if ts[i] <= t:
            best = i
        else:
            break
    if best < 0 or t - ts[best] > staleness_ms:
        return False, 0.0
    return True, (bid[best] + ask[best]) / 2.0


def test_lookup_matches_linear_scan():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        ts, bid, ask = random_series(rng, n)
        queries = rng.integers(ts[0] - 2000, ts[-1] + 10000, 100).astype(np.int64)
        mids, ok = k.step_mid_lookup(ts, bid, ask, queries, 5000)
        assert ok.dtype == bool
        for q, fresh, mid in zip(queries, ok.tolist(), mids.tolist()):
            assert (fresh, mid) == linear_scan_lookup(ts, bid, ask, int(q), 5000)


def test_splitmix_counter_based_slicing():
    # stream position i is a pure function of (seed, i): slices concatenate
    whole = synth.splitmix64(np.uint64(9), np.uint64(0), 100)
    part1 = synth.splitmix64(np.uint64(9), np.uint64(0), 40)
    part2 = synth.splitmix64(np.uint64(9), np.uint64(40), 60)
    assert np.array_equal(whole, np.concatenate([part1, part2]))


def test_splitmix_seed_sensitivity():
    a = synth.splitmix64(np.uint64(1), np.uint64(0), 100)
    b = synth.splitmix64(np.uint64(2), np.uint64(0), 100)
    assert not np.array_equal(a, b)


def test_uniform01_range_and_determinism():
    u = synth.uniform01(123, 0, 100000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, synth.uniform01(123, 0, 100000))
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
    mids, ok = k.step_mid_lookup(ts, bid, ask, np.array([query], dtype=np.int64), 5000)
    assert (bool(ok[0]), float(mids[0])) == linear_scan_lookup(ts, bid, ask, query, 5000)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=9),
                  elements=st.floats() | st.sampled_from([0.0, -0.0, np.nan])))
@settings(max_examples=500, deadline=None)
@example(np.array([0.0, -5e-324]))  # np.mean's sum from 0.0 keeps the half's sign: -0.0
def test_median_has_the_bits_of_np_median(values):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and a sum past the largest
        got, want = k.median(values), np.asarray(np.median(values, axis=0))
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()  # -0.0 and 0.0 told apart


@given(st.lists(st.integers(-2**62, 2**62) | st.integers(-3, 3), max_size=20),
       st.lists(st.integers(-2**62, 2**62) | st.integers(-3, 3), max_size=20))
@settings(max_examples=300, deadline=None)
def test_lookup_finds_each_key_as_a_linear_search_does(keys, table):
    """The first index of each key in the sorted table, or -1, for keys
    as far apart as 2**63 and tables with repeats."""
    table.sort()
    got = k.lookup(np.array(keys, dtype=np.int64), np.array(table, dtype=np.int64))
    assert got.tolist() == [table.index(x) if x in table else -1 for x in keys]
