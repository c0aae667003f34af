import numpy as np
import pytest

from cexdex import pipeline
from cexdex.config import PipelineConfig
from cexdex.errors import InvalidConfig
from cexdex.markout import (
    EXCLUSION_INVENTORY,
    EXCLUSION_QUOTE_GAP,
    markout_table,
)

from conftest import (
    TOKA, TOKC, USDT, WBTC, WETH, legs, make_store, make_trade, mr_at_zero, trade_table,
)
from markout_oracle import assert_same_row, oracle_curve


def flat_store(price_a=55.0, full_grid_ms=11_000):
    # constant quotes covering the whole markout window around slot 1_000_000,
    # and ETH quoted 1 s before the slot
    ticks = [(1_000_000 - 2000 + k * 500, price_a, price_a) for k in range(30)]
    return make_store({
        "TOKAUSDT": ticks,
        "ETHUSDT": [(999_000, 2000.0, 2000.0)],
    })


def two_leg_trade():
    # x=2 TOKA bought at P_A=55, y=100 USDT sold at P_B=1
    return make_trade(amount_bought="2", amount_sold="100", volume_usd=110.0)


def test_markout_revenue_hand_value(registry, config):
    # 110 - 100 - 0.0001725 * 210
    mr = mr_at_zero(two_leg_trade(), flat_store(), registry, config)
    assert mr == pytest.approx(9.963775, abs=1e-12)


def test_markout_revenue_zero_fee_symmetric(registry):
    cfg = PipelineConfig(taker_fee_rate=0.0)
    trade = make_trade(amount_bought="2", amount_sold="110", volume_usd=110.0)
    mr = mr_at_zero(trade, flat_store(), registry, cfg)
    assert mr == pytest.approx(0.0, abs=1e-12)


def test_markout_revenue_fee_only(registry, config):
    # both legs at 100 USD: MR = -0.0345
    store = flat_store(price_a=50.0)
    trade = make_trade(amount_bought="2", amount_sold="100", volume_usd=100.0)
    mr = mr_at_zero(trade, store, registry, config)
    assert mr == pytest.approx(-0.0345, abs=1e-12)


def test_markout_curve_full_grid(registry, config):
    trade = two_leg_trade()
    table = markout_table(trade_table(trade), legs(registry, trade), flat_store(), registry, config)
    assert table.exclusion_reason == [""]
    (mr,), (gr,) = table.mr_usd, table.gr
    assert len(mr) == 23
    # constant prices -> constant curve
    assert np.allclose(mr, mr[0])
    assert np.allclose(gr, mr / 110.0)


def test_markout_curve_quote_gap_excludes(registry, config):
    # no quotes late in the window -> excluded entirely
    store = make_store({
        "TOKAUSDT": [(999_000, 55.0, 55.0)],  # stale by +10s offset
        "ETHUSDT": [(999_000, 2000.0, 2000.0)],
    })
    trade = two_leg_trade()
    table = markout_table(trade_table(trade), legs(registry, trade), store, registry, config)
    assert table.exclusion_reason == [EXCLUSION_QUOTE_GAP]


def test_inventory_flag_all_below(registry, config):
    trade = make_trade(amount_bought="2", amount_sold="100", volume_usd=100.0,
                       base_fee_eth=0.001)
    store = flat_store(price_a=50.0)
    table = markout_table(trade_table(trade), legs(registry, trade), store, registry, config)
    # MR = -0.0345 everywhere, cost = 2 USD at ETH 2000
    assert table.exclusion_reason == [EXCLUSION_INVENTORY]


def test_inventory_flag_single_crossing(registry, config):
    trade = make_trade(amount_bought="2", amount_sold="100", volume_usd=100.0,
                       base_fee_eth=0.001)
    ticks = [(1_000_000 - 2000 + k * 500, 50.0, 50.0) for k in range(30)]
    # one rich tick inside the window lifts MR above cost there
    ticks[6] = (ticks[6][0], 53.0, 53.0)
    store = make_store({"TOKAUSDT": ticks, "ETHUSDT": [(999_000, 2000.0, 2000.0)]})
    table = markout_table(trade_table(trade), legs(registry, trade), store, registry, config)
    assert table.exclusion_reason == [""]


def test_inventory_flag_zero_boundary(registry):
    # base fee 0 and MR identically 0: strict < fails, not flagged
    cfg = PipelineConfig(taker_fee_rate=0.0)
    trade = make_trade(amount_bought="2", amount_sold="110", volume_usd=110.0,
                       base_fee_eth=0.0)
    table = markout_table(trade_table(trade), legs(registry, trade), flat_store(), registry, cfg)
    assert not table.mr_usd.any()
    assert table.exclusion_reason == [""]


def test_mr_scale_invariance_of_gr(registry, config):
    base = make_trade(amount_bought="2", amount_sold="100", volume_usd=110.0)
    scaled = make_trade(amount_bought="6", amount_sold="300", volume_usd=330.0)
    c1 = markout_table(trade_table(base), legs(registry, base), flat_store(), registry, config)
    c2 = markout_table(trade_table(scaled), legs(registry, scaled), flat_store(), registry, config)
    assert np.allclose(c2.mr_usd, 3.0 * c1.mr_usd, rtol=1e-12)
    assert np.allclose(c2.gr, c1.gr, rtol=1e-12)


# ---------------------------------------------------------------------------
# the batched markout stage against the frozen per-trade reference

SLOT0 = 1_000_000


def branch_store(with_eth: bool = True):
    """TOKA, BTC and ETH quoted every 500 ms from 900 s to 1,100 s (in ms),
    with a TOKA gap after 1,050 s and an ETH gap after 1,080 s; no TOKC series."""
    def ticks(base, step, skip):
        return [(900_000 + 500 * k, base + step * (k % 37), base + step * (k % 37) + step / 2)
                for k in range(401) if not skip(900_000 + 500 * k)]
    series = {
        "TOKAUSDT": ticks(55.0, 0.013, lambda ts: 1_050_000 < ts < 1_070_000),
        "BTCUSDT": ticks(60_000.0, 7.1, lambda ts: False),
    }
    if with_eth:
        series["ETHUSDT"] = ticks(2_000.0, 0.37, lambda ts: 1_080_000 < ts < 1_095_000)
    return make_store(series)


def branch_trades():
    """One trade per branch of the markout, then trades of several symbols
    interleaved, so the per-symbol lookups must scatter back in trade order."""
    trades = [
        make_trade("0xnoseries", token_bought=TOKC),
        make_trade("0xnoquote", slot_time_ms=900_500),  # nothing before 899.5 s
        make_trade("0xlatestale", slot_time_ms=1_046_000),  # stale from +4.5 s on
        make_trade("0xusdt", token_bought=USDT, amount_bought="101", amount_sold="100",
                   base_fee_eth=0.0),
        make_trade("0xzerovol", volume_usd=0.0),
        make_trade("0xnegvol", volume_usd=-5.0),
        make_trade("0xstaleeth", slot_time_ms=1_090_000),
        make_trade("0xinventory", base_fee_eth=10.0),
    ]
    pairs = [(TOKA, "2", USDT, "100"), (WETH, "0.05", USDT, "99.5"),
             (WBTC, "0.002", TOKA, "2.1"), (USDT, "120", WBTC, "0.0019"),
             (WETH, "0.04", WBTC, "0.0013")]
    for i in range(30):
        bought, x, sold, y = pairs[i % len(pairs)]
        trades.append(make_trade(
            f"0xmix{i}", searcher_label=f"s{i % 3}", slot_time_ms=SLOT0 + 1_234 * i,
            token_bought=bought, amount_bought=x, token_sold=sold, amount_sold=y,
            volume_usd=100.0 + i, base_fee_eth=0.0001 * (i % 4),
        ))
    return trades


@pytest.mark.parametrize("with_eth", [True, False])
def test_batched_markout_equals_per_trade_reference(registry, config, with_eth):
    store = branch_store(with_eth)
    trades = branch_trades()
    table = markout_table(trade_table(*trades), legs(registry, *trades), store, registry, config)
    assert table.mr_usd.shape == (len(trades), len(config.offsets_ms))
    for i, trade in enumerate(trades):
        assert_same_row(table, i, trade, oracle_curve(trade, store, registry, config))
    hashes = [t.tx_hash for t in trades]
    reason = dict(zip(hashes, table.exclusion_reason))
    gap_in_markout = ["0xnoseries", "0xnoquote", "0xlatestale"]
    assert all(reason[h] == EXCLUSION_QUOTE_GAP for h in gap_in_markout)
    mr = dict(zip(hashes, table.mr_usd))
    assert all(not mr[h].any() for h in gap_in_markout)
    if with_eth:
        assert reason["0xstaleeth"] == EXCLUSION_QUOTE_GAP and mr["0xstaleeth"].all()
        assert reason["0xinventory"] == EXCLUSION_INVENTORY
        assert reason["0xusdt"] == "" and reason["0xmix0"] == ""
    else:  # no ETHUSDT series: every trade is a QuoteGap, priced ones keep their MR
        assert set(reason.values()) == {EXCLUSION_QUOTE_GAP}
        assert mr["0xusdt"].all() and mr["0xmix0"].all()
    gr = dict(zip(hashes, table.gr))
    assert mr["0xzerovol"].all() and not gr["0xzerovol"].any() and not gr["0xnegvol"].any()


def test_public_markout_curve_equals_reference(tmp_path, registry, config):
    """The one-trade entry (pipeline._curve_for_trade, through
    markout.markout_curve) and a one-row markout_table decide exclusion as
    the stage does, ETH and inventory rules included."""
    store = branch_store()
    ws = pipeline.Workspace(tmp_path, tmp_path / "out")
    ws.quotes, ws.registry = store, registry
    for trade in branch_trades():
        want = oracle_curve(trade, store, registry, config)
        assert_same_row(markout_table(trade_table(trade), legs(registry, trade),
                                      store, registry, config), 0, trade, want)
        assert_same_row(pipeline._curve_for_trade(trade, ws), 0, trade, want)


def test_grid_index_rounds_to_ms_and_refuses_off_grid(config):
    # the default grid, pinned: -1.0 s to 10.0 s by 0.5 s, offset 0 at column 2
    assert config.offsets_ms == list(range(-1000, 10_001, 500))
    assert config.offsets_s == [-1.0 + 0.5 * k for k in range(23)]
    assert config.index_of(0.0) == 2
    assert config.index_of(0.5) == config.index_of(0.5004) == 3
    tenths = PipelineConfig(grid_start_s=-0.1, grid_end_s=0.3, grid_step_s=0.1)
    assert tenths.offsets_ms == [-100, 0, 100, 200, 300]
    assert tenths.index_of(0.1 + 0.2) == 4  # 0.3 to the ms
    with pytest.raises(InvalidConfig):
        config.index_of(0.25)
