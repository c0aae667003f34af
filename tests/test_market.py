import numpy as np
import pytest

from cexdex.data_model import SearcherLabelFile
from cexdex.errors import (
    DegenerateRanks,
    LengthMismatch,
    SharesDontSumToOne,
    TooShort,
    UnknownToken,
)
from cexdex.market import (
    classify_exclusivity,
    decline_vs_major_correlation,
    hhi,
    integration_matrix,
    lagged_correlation,
    major_major_share,
    pair_class,
    rolling_correlation,
    spearman,
)

from conftest import TOKA, TOKC, USDT, WBTC, WETH, make_trade


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


def test_hhi_rejects_bad_sum():
    with pytest.raises(SharesDontSumToOne):
        hhi([0.5, 0.4])


def test_integration_matrix_normalization():
    trades = [
        make_trade("0x1", searcher_label="s1", builder_label="bA", volume_usd=60.0),
        make_trade("0x2", searcher_label="s1", builder_label="bB", volume_usd=40.0),
        make_trade("0x3", searcher_label="s2", builder_label="bA", volume_usd=10.0),
    ]
    m = integration_matrix(trades)
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
    classes = classify_exclusivity(integration_matrix(trades), labels, 0.5)
    assert classes["graves"] == ("Exclusive", "titan")  # 100%
    assert classes["kayle"] == ("Exclusive", "titan")  # 52%
    assert classes["draven"] == ("Neutral", None)  # exactly 50% is not enough
    assert classes["scp"] == ("Integrated", "beaver")  # config wins over volume


def test_pair_class(registry):
    assert pair_class(WETH, USDT, registry) == "MajorMajor"
    assert pair_class(WETH, TOKA, registry) == "MajorAlt"
    assert pair_class(TOKA, TOKC, registry) == "AltAlt"
    with pytest.raises(UnknownToken):
        pair_class("0x" + "f" * 40, USDT, registry)


def test_major_major_share(registry):
    trades = [
        make_trade("0x1", token_bought=WETH, token_sold=USDT, volume_usd=50.0),
        make_trade("0x2", token_bought=WBTC, token_sold=USDT, volume_usd=40.0),
        make_trade("0x3", token_bought=TOKA, token_sold=USDT, volume_usd=5.0),
        make_trade("0x4", token_bought=TOKA, token_sold=TOKC, volume_usd=5.0),
    ]
    count_frac, vol_frac, empty = major_major_share(trades, registry)
    assert count_frac == 0.5 and vol_frac == 0.9 and not empty


def test_major_major_share_empty(registry):
    assert major_major_share([], registry) == (0.0, 0.0, True)


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
        try:
            res = spearman(x, y)
        except DegenerateRanks:
            assert len(set(x)) == 1 or len(set(y)) == 1
            continue
        assert res.rho == pytest.approx(brute_spearman(x, y), abs=1e-12)


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


def test_spearman_errors():
    with pytest.raises(TooShort):
        spearman([1, 2], [1, 2])
    with pytest.raises(LengthMismatch):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(DegenerateRanks):
        spearman([1, 1, 1], [1, 2, 3])


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
    with pytest.raises(TooShort):
        lagged_correlation([1, 2, 3, 4], [1, 2, 3, 4], lags=(3,))


def test_rolling_monotone():
    x = np.arange(40, dtype=float)
    y = 2 * x + 1
    out = rolling_correlation(x, y, window_days=30)
    assert len(out) == 11
    assert all(r.rho == pytest.approx(1.0) for _, r in out)


def test_rolling_below_window_empty():
    assert rolling_correlation(np.arange(29.0), np.arange(29.0), window_days=30) == []


def test_decline_vs_major_antitone():
    declines = [0.9, 0.7, 0.5, 0.3]
    shares = [0.1, 0.2, 0.3, 0.4]
    r_count, r_vol = decline_vs_major_correlation(declines, shares, shares)
    assert r_count.rho == pytest.approx(-1.0)
    assert r_vol.rho == pytest.approx(-1.0)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(9)
    x = rng.uniform(size=12)
    y = rng.uniform(size=12)
    base = spearman(x, y).rho
    assert spearman(np.exp(x), y).rho == pytest.approx(base, abs=1e-12)
    assert spearman(x, y ** 3 + 5).rho == pytest.approx(base, abs=1e-12)
