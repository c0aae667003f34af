import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cexdex.data_model import SearcherLabelFile
from cexdex.errors import UnknownToken
from cexdex.market import (
    _midranks,
    classify_exclusivity,
    hhi,
    lagged_correlation,
    major_major_shares,
    rolling_correlation,
    spearman,
)

from conftest import TOKA, TOKC, USDT, WBTC, WETH, integration_of, make_trade, trade_table


def brute_spearman(x, y):
    """Rank-based Pearson with midranks, straight from the definition."""
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        r = np.empty(len(v))
        for i, a in enumerate(v):
            less = np.sum(v < a)
            equal = np.sum(v == a)
            r[i] = less + (equal + 1) / 2.0
        return r

    rx, ry = ranks(x), ranks(y)
    sx, sy = rx - rx.mean(), ry - ry.mean()
    return float(np.sum(sx * sy) / np.sqrt(np.sum(sx ** 2) * np.sum(sy ** 2)))


def test_hhi_values():
    assert hhi([1.0]) == 1.0
    assert hhi([0.25] * 4) == 0.25
    assert hhi([0.5, 0.3, 0.2]) == pytest.approx(0.38, abs=1e-15)


def test_integration_matrix_normalization():
    trades = [
        make_trade("0x1", searcher_label="s1", builder_label="bA", volume_usd=60.0),
        make_trade("0x2", searcher_label="s1", builder_label="bB", volume_usd=40.0),
        make_trade("0x3", searcher_label="s2", builder_label="bA", volume_usd=10.0),
    ]
    m = integration_of(*trades)
    assert m.searchers == ["s1", "s2"]
    assert m.builders == ["bA", "bB"]
    assert m.cells == pytest.approx(np.array([[0.6, 0.4], [1.0, 0.0]]))
    assert np.allclose(m.cells.sum(axis=1), 1.0)


def test_exclusivity_classes():
    trades = [
        make_trade("0x1", searcher_label="graves", builder_label="titan", volume_usd=100.0),
        make_trade("0x2", searcher_label="kayle", builder_label="titan", volume_usd=52.0),
        make_trade("0x3", searcher_label="kayle", builder_label="rsync", volume_usd=48.0),
        make_trade("0x4", searcher_label="draven", builder_label="titan", volume_usd=50.0),
        make_trade("0x5", searcher_label="draven", builder_label="rsync", volume_usd=50.0),
        make_trade("0x6", searcher_label="scp", builder_label="titan", volume_usd=90.0),
        make_trade("0x7", searcher_label="scp", builder_label="rsync", volume_usd=10.0),
    ]
    labels = SearcherLabelFile(labels={}, integrated_with={"scp": "beaver"})
    classes = classify_exclusivity(integration_of(*trades), labels, 0.5)
    assert classes["graves"] == ("Exclusive", "titan")  # 100%
    assert classes["kayle"] == ("Exclusive", "titan")  # 52%
    assert classes["draven"] == ("Neutral", None)  # exactly 50% is not enough
    assert classes["scp"] == ("Integrated", "beaver")  # config wins over volume


def test_major_major_share(registry):
    """Per searcher code; searcher 1 has no trades, searcher 0's trades are
    interleaved with searcher 2's."""
    trades = [
        make_trade("0x1", token_bought=WETH, token_sold=USDT, volume_usd=50.0),
        make_trade("0x2", token_bought=WBTC, token_sold=USDT, volume_usd=40.0),
        make_trade("0x5", token_bought=TOKA, token_sold=TOKC, volume_usd=0.0),
        make_trade("0x3", token_bought=TOKA, token_sold=USDT, volume_usd=5.0),
        make_trade("0x4", token_bought=TOKA, token_sold=TOKC, volume_usd=5.0),
    ]
    code = np.array([0, 0, 2, 0, 0])
    counts, volumes = major_major_shares(trade_table(*trades), code, 3, registry)
    assert counts == [0.5, 0.0, 0.0] and volumes == [0.9, 0.0, 0.0]
    assert major_major_shares(trade_table(), np.zeros(0, dtype=np.int64), 2, registry) == (
        [0.0, 0.0], [0.0, 0.0])


def test_spearman_monotone():
    assert spearman([1, 2, 3], [2, 4, 6]).rho == pytest.approx(1.0)
    assert spearman([1, 2, 3], [6, 4, 2]).rho == pytest.approx(-1.0)


def test_spearman_hand_value():
    res = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    assert res.rho == pytest.approx(0.8, abs=1e-15)
    assert res.n == 4


def test_spearman_matches_brute_force_with_ties():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        x = rng.integers(0, 5, n).astype(float)  # heavy ties
        y = rng.integers(0, 5, n).astype(float)
        res = spearman(x, y)
        if res is None:
            assert len(set(x)) == 1 or len(set(y)) == 1
            continue
        assert res.rho == pytest.approx(brute_spearman(x, y), abs=1e-12)


def loop_midranks(values: np.ndarray) -> np.ndarray:
    """Midranks by walking the sorted values: each run of values equal (==)
    to its first shares the mean of its 0-based positions, plus 1."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    sorted_vals = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1.0
        i = j + 1
    return ranks


# few distinct values, so that most series hold ties; signed zeros, infinities and NaN
tied_floats = st.sampled_from([0.0, -0.0, 1.0, 2.5, -7.0, float("inf"), float("-inf"),
                               float("nan")]) | st.floats()


@given(st.lists(tied_floats, max_size=40))
@settings(max_examples=300, deadline=None)
def test_midranks_equal_the_loop(values):
    values = np.array(values, dtype=np.float64)
    assert _midranks(values).tobytes() == loop_midranks(values).tobytes()


def test_spearman_exact_p_small_n():
    # n=4 exhaustive permutation: 8 of 24 rank orders reach |rho| >= 0.8
    res = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    assert res.p_value == pytest.approx(8 / 24)


def test_spearman_t_approx_large_n():
    from scipy import stats
    x = np.arange(20, dtype=float)
    y = x + np.sin(x) * 5
    res = spearman(x, y)
    ref_rho, ref_p = stats.spearmanr(x, y)
    assert res.rho == pytest.approx(ref_rho, abs=1e-12)
    assert res.p_value == pytest.approx(ref_p, rel=1e-9)


@pytest.mark.parametrize("n", [10, 11, 30, 365, 10_000])
@pytest.mark.parametrize("rho", [1e-9, -1e-9, 0.3, -0.3, 0.999999, -0.999999, 1.0, -1.0])
def test_t_approx_p_bit_identical_to_scipy_stats(rho, n):
    from scipy import stats

    from cexdex.market import _t_approx_p
    if abs(rho) == 1.0:
        assert _t_approx_p(rho, n) == 0.0
        return
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    assert _t_approx_p(rho, n) == float(2.0 * stats.t.sf(abs(t), df=n - 2))


def test_spearman_errors():
    assert spearman([1, 2], [1, 2]) is None
    assert spearman([1, 1, 1], [1, 2, 3]) is None


def test_lag_zero_equals_spearman():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=15)
    y = rng.uniform(size=15)
    lagged = lagged_correlation(x, y, lags=(0,))
    assert len(lagged) == 1
    plain = spearman(x, y)
    assert lagged[0].rho == plain.rho and lagged[0].p_value == plain.p_value


def test_lagged_shift_recovery():
    x = np.arange(10, dtype=float) ** 2
    y = np.roll(x, 1)
    y[0] = -1.0  # x(t) perfectly predicts y(t+1)
    res = {r.lag_days: r.rho for r in lagged_correlation(x, y, lags=(1,))}
    assert res[1] == pytest.approx(1.0)


def test_lagged_too_short():
    assert lagged_correlation([1, 2, 3, 4], [1, 2, 3, 4], lags=(3,)) == [None, None]


def test_lagged_entry_per_lag_none_where_too_short():
    """On 8 points lag 7 leaves 1 pair; lags 1 and 3 leave 7 and 5."""
    x = np.arange(8, dtype=float)
    y = np.array([3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0])
    out = lagged_correlation(x, y)
    assert [None if r is None else r.lag_days for r in out] == [None, -3, -1, 1, 3, None]
    assert out[3] == spearman(x[:7], y[1:], lag_days=1)
    assert out[1] == spearman(x[3:], y[:5], lag_days=-3)


def test_rolling_monotone():
    x = np.arange(40, dtype=float)
    y = 2 * x + 1
    dates = [f"d{i}" for i in range(40)]
    out = rolling_correlation(x, y, dates=dates, window_days=30)
    assert [end for end, _ in out] == dates[29:]
    assert all(r.rho == pytest.approx(1.0) for _, r in out)


def test_rolling_below_window_empty():
    dates = [f"d{i}" for i in range(29)]
    assert rolling_correlation(np.arange(29.0), np.arange(29.0), dates=dates, window_days=30) == []


def test_decline_vs_major_antitone():
    declines = [0.9, 0.7, 0.5, 0.3]
    shares = [0.1, 0.2, 0.3, 0.4]
    assert spearman(declines, shares).rho == pytest.approx(-1.0)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(9)
    x = rng.uniform(size=12)
    y = rng.uniform(size=12)
    base = spearman(x, y).rho
    assert spearman(np.exp(x), y).rho == pytest.approx(base, abs=1e-12)
    assert spearman(x, y ** 3 + 5).rho == pytest.approx(base, abs=1e-12)


def test_major_major_share_names_the_first_unknown_token(registry):
    """The first unknown token of the lowest-coded searcher holding one, in
    row order, a trade's bought token first."""
    unknown_a, unknown_b = "0x" + "e" * 40, "0x" + "f" * 40
    trades = [make_trade("0x1", token_bought=WETH, token_sold=USDT),
              make_trade("0x2", token_bought=TOKA, token_sold=unknown_b),
              make_trade("0x3", token_bought=unknown_a, token_sold=unknown_b)]
    with pytest.raises(UnknownToken, match=unknown_b):
        major_major_shares(trade_table(*trades), np.zeros(3, dtype=np.int64), 1, registry)
    with pytest.raises(UnknownToken, match=unknown_a):
        major_major_shares(trade_table(*trades[2:]), np.zeros(1, dtype=np.int64), 1, registry)
    # searcher 0's only trade comes last in row order, and it comes first
    with pytest.raises(UnknownToken, match=unknown_a):
        major_major_shares(trade_table(*trades), np.array([1, 1, 0]), 2, registry)


def test_rolling_drops_only_windows_with_a_constant_series():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    y = np.array([5.0, 1.0, 2.0, 2.0, 2.0, 8.0, 3.0])  # days 2-4 are flat
    dates = [f"d{i}" for i in range(7)]
    out = rolling_correlation(x, y, dates=dates, window_days=3)
    assert [end for end, _ in out] == ["d2", "d3", "d5", "d6"]
    assert [r for _, r in out] == [spearman(x[e - 2 : e + 1], y[e - 2 : e + 1]) for e in (2, 3, 5, 6)]
