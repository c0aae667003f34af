import pytest

from cexdex.errors import PatternThreeExcluded
from cexdex.estimate import (
    TradeEconomics,
    cumulative_ev_series,
    searcher_summary,
    trade_economics,
)
from cexdex.horizon import SearcherProfile

from conftest import make_trade

DAY_MS = 86_400_000
T0 = 1_717_200_000_000  # 2024-06-01T00:00:00Z


def profile(t_star=0.0, pattern="P1"):
    return SearcherProfile(searcher_label="s1", t_star_s=t_star, pattern=pattern,
                           decline_3s_fraction=0.2, n_arb_trades=500,
                           low_confidence=False)


def econ(ev, pnl, *, label="s1", slot=T0, volume=100.0):
    return TradeEconomics(tx_hash="0x", searcher_label=label, builder_label="b",
                          block_number=1, slot_time_ms=slot, volume_usd=volume,
                          ev_usd=ev, pnl_usd=pnl,
                          margin=(pnl / ev if ev > 0 else None),
                          builder_tip_usd=ev - pnl, base_fee_usd=0.0)


def test_anchor_negative_ev_with_tips():
    # EV = -1, tips = 10 -> PnL = -11, margin undefined
    trade = make_trade(base_fee_eth=0.001, builder_tip_eth=0.005)
    e = trade_economics(trade, 1.0, profile(), eth_usd_at_slot=2000.0)
    assert e.ev_usd == pytest.approx(-1.0, abs=1e-12)
    assert e.builder_tip_usd == pytest.approx(10.0, abs=1e-12)
    assert e.pnl_usd == pytest.approx(-11.0, abs=1e-12)
    assert e.margin is None


def test_hand_eq_values():
    # MR(t*) = 12, base fee 2, tips 3 -> EV 10, PnL 7, margin 0.7
    trade = make_trade(base_fee_eth=0.001, builder_tip_eth=0.0015)
    e = trade_economics(trade, 12.0, profile(), eth_usd_at_slot=2000.0)
    assert e.ev_usd == pytest.approx(10.0)
    assert e.pnl_usd == pytest.approx(7.0)
    assert e.margin == pytest.approx(0.7)


def test_zero_ev_margin_undefined():
    trade = make_trade(base_fee_eth=0.001, builder_tip_eth=0.002)
    e = trade_economics(trade, 2.0, profile(), eth_usd_at_slot=2000.0)
    assert e.ev_usd == 0.0
    assert e.margin is None
    assert e.pnl_usd == pytest.approx(-4.0)


def test_p3_excluded():
    trade = make_trade()
    with pytest.raises(PatternThreeExcluded):
        trade_economics(trade, 5.0, profile(t_star=None, pattern="P3"), 2000.0)


def test_summary_singleton():
    s = searcher_summary("s1", [econ(10.0, 7.0)])
    assert s.total_ev_usd == 10.0 and s.total_pnl_usd == 7.0
    assert s.median_trade_ev == 10.0 and s.median_trade_pnl == 7.0
    assert s.median_margin == pytest.approx(0.7)
    assert s.count_arbitrage == 1 and s.count_profitable == 1


def test_summary_profit_split():
    s = searcher_summary("s1", [econ(6.0, 5.0), econ(1.0, -2.0)])
    assert s.count_profitable == 1 and s.count_unprofitable == 1
    assert s.total_pnl_usd == pytest.approx(s.total_ev_usd - s.total_tips_usd)


def test_summary_median_margin_defined_subset():
    s = searcher_summary("s1", [econ(10.0, 2.0), econ(-1.0, -2.0), econ(10.0, 6.0)])
    # margins {0.2, n/a, 0.6} -> median 0.4
    assert s.median_margin == pytest.approx(0.4)


def test_summary_counts_include_exclusions():
    s = searcher_summary("s1", [econ(1.0, 1.0)], n_inventory_adj=2, n_quote_gap=3)
    assert s.count_total == 6
    assert s.count_inventory_adj == 2 and s.count_quote_gap == 3


def test_cumulative_series_daily():
    rows = [econ(3.0, 3.0, slot=T0), econ(4.0, 4.0, slot=T0 + 1000),
            econ(5.0, 5.0, slot=T0 + 2 * DAY_MS)]
    series = cumulative_ev_series(rows)["s1"]
    assert series == [
        ("2024-06-01", 7.0, 7.0),
        ("2024-06-02", 0.0, 7.0),  # empty day emitted
        ("2024-06-03", 5.0, 12.0),
    ]


def test_utc_day_boundary():
    rows = [econ(1.0, 1.0, slot=T0 + DAY_MS - 1), econ(2.0, 2.0, slot=T0 + DAY_MS)]
    series = cumulative_ev_series(rows)["s1"]
    assert series[0][:2] == ("2024-06-01", 1.0)
    assert series[1][:2] == ("2024-06-02", 2.0)
