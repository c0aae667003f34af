import numpy as np
import pytest

from cexdex.config import MarkoutGrid, PipelineConfig
from cexdex.data_model import Table, strings
from cexdex.estimate import (
    CumulativeEv,
    TradeEconomics,
    cumulative_ev_series,
    searcher_summaries,
    t_star_column,
    trade_economics,
)
from cexdex.horizon import SearcherProfile

from conftest import make_trade, searcher_coding, trade_table

DAY_MS = 86_400_000
T0 = 1_717_200_000_000  # 2024-06-01T00:00:00Z


def profile(t_star=0.0, pattern="P1"):
    return SearcherProfile(searcher_label="s1", t_star_s=t_star, pattern=pattern,
                           decline_3s_fraction=0.2, n_arb_trades=500,
                           low_confidence=False)


def economics_of(trade, mr_usd, eth_usd_at_slot):
    """trade_economics of one trade, as its row."""
    table = trade_economics(trade_table(trade), np.array([mr_usd]), np.array([eth_usd_at_slot]))
    (e,) = table.rows()
    return e


def searcher_summary(label, rows, n_inventory_adj=0, n_quote_gap=0):
    """searcher_summaries of one searcher, as its row."""
    (s,) = searcher_summaries(strings([label]), np.zeros(len(rows), dtype=np.intp),
                              Table.of_rows(TradeEconomics, rows), np.array([n_inventory_adj]),
                              np.array([n_quote_gap])).rows()
    return s


def cumulative_ev_of(rows):
    """cumulative_ev_series of economics rows, their searchers coded by label."""
    table = Table.of_rows(TradeEconomics, rows)
    return cumulative_ev_series(*searcher_coding(table), table).rows()


def econ(ev, pnl, *, label="s1", slot=T0, volume=100.0):
    return TradeEconomics(tx_hash="0x", searcher_label=label, builder_label="b",
                          block_number=1, slot_time_ms=slot, volume_usd=volume,
                          ev_usd=ev, pnl_usd=pnl,
                          margin=(pnl / ev if ev > 0 else None),
                          builder_tip_usd=ev - pnl, base_fee_usd=0.0)


def test_anchor_negative_ev_with_tips():
    # EV = -1, tips = 10 -> PnL = -11, margin undefined
    trade = make_trade(base_fee_eth=0.001, builder_tip_eth=0.005)
    e = economics_of(trade, 1.0, eth_usd_at_slot=2000.0)
    assert e.ev_usd == pytest.approx(-1.0, abs=1e-12)
    assert e.builder_tip_usd == pytest.approx(10.0, abs=1e-12)
    assert e.pnl_usd == pytest.approx(-11.0, abs=1e-12)
    assert e.margin is None


def test_hand_eq_values():
    # MR(t*) = 12, base fee 2, tips 3 -> EV 10, PnL 7, margin 0.7
    trade = make_trade(base_fee_eth=0.001, builder_tip_eth=0.0015)
    e = economics_of(trade, 12.0, eth_usd_at_slot=2000.0)
    assert e.ev_usd == pytest.approx(10.0)
    assert e.pnl_usd == pytest.approx(7.0)
    assert e.margin == pytest.approx(0.7)


def test_zero_ev_margin_undefined():
    trade = make_trade(base_fee_eth=0.001, builder_tip_eth=0.002)
    e = economics_of(trade, 2.0, eth_usd_at_slot=2000.0)
    assert e.ev_usd == 0.0
    assert e.margin is None
    assert e.pnl_usd == pytest.approx(-4.0)


def test_p3_excluded():
    grid = MarkoutGrid(PipelineConfig())
    assert t_star_column(profile(t_star=1.0), grid) == grid.index_of(1.0)


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
    series = cumulative_ev_of(rows)
    assert series == [
        CumulativeEv("s1", "2024-06-01", 7.0, 7.0),
        CumulativeEv("s1", "2024-06-02", 0.0, 7.0),  # empty day emitted
        CumulativeEv("s1", "2024-06-03", 5.0, 12.0),
    ]


def test_cumulative_series_of_the_searchers_with_rows():
    """A searcher of ``labels`` without an economics row has no series; the
    others' follow label order, whatever the row order."""
    rows = [econ(2.0, 2.0, label="s3", slot=T0), econ(1.0, 1.0, label="s1", slot=T0 + DAY_MS)]
    series = cumulative_ev_series(strings(["s1", "s2", "s3"]), np.array([2, 0]),
                                  Table.of_rows(TradeEconomics, rows)).rows()
    assert series == [CumulativeEv("s1", "2024-06-02", 1.0, 1.0),
                      CumulativeEv("s3", "2024-06-01", 2.0, 2.0)]


def test_utc_day_boundary():
    rows = [econ(1.0, 1.0, slot=T0 + DAY_MS - 1), econ(2.0, 2.0, slot=T0 + DAY_MS)]
    series = cumulative_ev_of(rows)
    assert [(r.searcher_label, r.date, r.ev_usd) for r in series] == [
        ("s1", "2024-06-01", 1.0), ("s1", "2024-06-02", 2.0)]
