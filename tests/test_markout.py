import numpy as np
import pytest

from cexdex import pipeline
from cexdex.config import PipelineConfig
from cexdex.markout import (
    EXCLUSION_QUOTE_GAP,
    MarkoutCurve,
    flag_inventory_adjustment,
    markout_curve,
    markout_revenue,
)

from conftest import TOKA, TOKB, TOKC, USDT, WBTC, WETH, make_store, make_trade
from markout_oracle import assert_same_curve, oracle_curve, same_bits


def flat_store(price_a=55.0, full_grid_ms=11_000):
    # constant quotes covering the whole markout window around slot 1_000_000
    ticks = [(1_000_000 - 2000 + k * 500, price_a, price_a) for k in range(30)]
    return make_store({
        "TOKAUSDT": ticks,
        "ETHUSDT": [(990_000, 2000.0, 2000.0)],
    })


def two_leg_trade():
    # x=2 TOKA bought at P_A=55, y=100 USDT sold at P_B=1
    return make_trade(amount_bought="2", amount_sold="100", volume_usd=110.0)


def test_markout_revenue_hand_value(registry, config):
    # 110 - 100 - 0.0001725 * 210
    mr = markout_revenue(two_leg_trade(), 0.0, flat_store(), registry, config)
    assert mr == pytest.approx(9.963775, abs=1e-12)


def test_markout_revenue_zero_fee_symmetric(registry):
    cfg = PipelineConfig(taker_fee_rate=0.0)
    trade = make_trade(amount_bought="2", amount_sold="110", volume_usd=110.0)
    mr = markout_revenue(trade, 0.0, flat_store(), registry, cfg)
    assert mr == pytest.approx(0.0, abs=1e-12)


def test_markout_revenue_fee_only(registry, config):
    # both legs at 100 USD: MR = -0.0345
    store = flat_store(price_a=50.0)
    trade = make_trade(amount_bought="2", amount_sold="100", volume_usd=100.0)
    mr = markout_revenue(trade, 0.0, store, registry, config)
    assert mr == pytest.approx(-0.0345, abs=1e-12)


def test_markout_curve_full_grid(registry, config, grid):
    curve = markout_curve(two_leg_trade(), grid, flat_store(), registry, config)
    assert not curve.excluded
    assert len(curve.mr_usd) == 23
    # constant prices -> constant curve
    assert np.allclose(curve.mr_usd, curve.mr_usd[0])
    assert np.allclose(curve.gr, curve.mr_usd / 110.0)


def test_markout_curve_matches_scalar_path(registry, config, grid):
    store = make_store({
        "TOKAUSDT": [(1_000_000 - 2000 + k * 500, 55.0 + 0.1 * k, 55.2 + 0.1 * k)
                     for k in range(30)],
        "ETHUSDT": [(990_000, 2000.0, 2000.0)],
    })
    trade = two_leg_trade()
    curve = markout_curve(trade, grid, store, registry, config)
    for off in grid.offsets_s:
        assert curve.mr_at(off) == pytest.approx(
            markout_revenue(trade, off, store, registry, config), abs=1e-12
        )


def test_markout_curve_quote_gap_excludes(registry, config, grid):
    # no quotes late in the window -> excluded entirely
    store = make_store({
        "TOKAUSDT": [(999_000, 55.0, 55.0)],  # stale by +10s offset
        "ETHUSDT": [(990_000, 2000.0, 2000.0)],
    })
    curve = markout_curve(two_leg_trade(), grid, store, registry, config)
    assert curve.excluded
    assert curve.exclusion_reason == EXCLUSION_QUOTE_GAP


def test_inventory_flag_all_below(registry, config, grid):
    trade = make_trade(amount_bought="2", amount_sold="100", volume_usd=100.0,
                       base_fee_eth=0.001)
    store = flat_store(price_a=50.0)
    curve = markout_curve(trade, grid, store, registry, config)
    # MR = -0.0345 everywhere, cost = 2 USD
    assert flag_inventory_adjustment(curve, trade, 2000.0) is True


def test_inventory_flag_single_crossing(registry, config, grid):
    trade = make_trade(amount_bought="2", amount_sold="100", volume_usd=100.0,
                       base_fee_eth=0.001)
    ticks = [(1_000_000 - 2000 + k * 500, 50.0, 50.0) for k in range(30)]
    # one rich tick inside the window lifts MR above cost there
    ticks[6] = (ticks[6][0], 53.0, 53.0)
    store = make_store({"TOKAUSDT": ticks, "ETHUSDT": [(990_000, 2000.0, 2000.0)]})
    curve = markout_curve(trade, grid, store, registry, config)
    assert flag_inventory_adjustment(curve, trade, 2000.0) is False


def test_inventory_flag_zero_boundary(registry, grid):
    # base fee 0 and MR identically 0: strict < fails, not flagged
    cfg = PipelineConfig(taker_fee_rate=0.0)
    trade = make_trade(amount_bought="2", amount_sold="110", volume_usd=110.0,
                       base_fee_eth=0.0)
    curve = markout_curve(trade, grid, flat_store(), registry, cfg)
    assert flag_inventory_adjustment(curve, trade, 2000.0) is False


def test_mr_scale_invariance_of_gr(registry, config, grid):
    base = make_trade(amount_bought="2", amount_sold="100", volume_usd=110.0)
    scaled = make_trade(amount_bought="6", amount_sold="300", volume_usd=330.0)
    c1 = markout_curve(base, grid, flat_store(), registry, config)
    c2 = markout_curve(scaled, grid, flat_store(), registry, config)
    assert np.allclose(c2.mr_usd, 3.0 * c1.mr_usd, rtol=1e-12)
    assert np.allclose(c2.gr, c1.gr, rtol=1e-12)


# ---------------------------------------------------------------------------
# the batched markout stage against the frozen per-trade reference

UNKNOWN = "0x" + "f" * 40
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
        make_trade("0xunknown", token_bought=UNKNOWN),
        make_trade("0xunlisted", token_sold=TOKB),
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


def batched_curves(tmp_path, store, registry):
    ws = pipeline.Workspace(tmp_path, tmp_path / "out")
    ws.quotes, ws.registry = store, registry
    return ws, pipeline._markout_curves(branch_trades(), ws)


@pytest.mark.parametrize("with_eth", [True, False])
def test_batched_markout_equals_per_trade_reference(tmp_path, registry, with_eth):
    store = branch_store(with_eth)
    ws, curves = batched_curves(tmp_path, store, registry)
    trades = branch_trades()
    assert len(curves) == len(trades)
    for trade, got in zip(trades, curves):
        want = oracle_curve(trade, ws.grid, store, registry, ws.config)
        assert_same_curve(got, want)
        assert_same_curve(pipeline._curve_for_trade(trade, ws), want)
    reason = {c.tx_hash: c.exclusion_reason for c in curves}
    gap_in_markout = ["0xunknown", "0xunlisted", "0xnoseries", "0xnoquote", "0xlatestale"]
    assert all(reason[h] == EXCLUSION_QUOTE_GAP for h in gap_in_markout)
    mr = {c.tx_hash: c.mr_usd for c in curves}
    assert all(not mr[h].any() for h in gap_in_markout)
    if with_eth:
        assert reason["0xstaleeth"] == EXCLUSION_QUOTE_GAP and mr["0xstaleeth"].all()
        assert reason["0xinventory"] == "InventoryAdjustment"
        assert reason["0xusdt"] is None and reason["0xmix0"] is None
    else:  # no ETHUSDT series: every trade is a QuoteGap, priced ones keep their MR
        assert set(reason.values()) == {EXCLUSION_QUOTE_GAP}
        assert mr["0xusdt"].all() and mr["0xmix0"].all()
    gr = {c.tx_hash: c.gr for c in curves}
    assert mr["0xzerovol"].all() and not gr["0xzerovol"].any() and not gr["0xnegvol"].any()


def test_public_markout_curve_equals_reference_before_the_eth_check(registry, config, grid):
    store = branch_store()
    for trade in branch_trades():
        want = oracle_curve(trade, grid, store, registry, config)
        got = markout_curve(trade, grid, store, registry, config)
        assert same_bits(got.mr_usd, want.mr_usd) and same_bits(got.gr, want.gr)
        assert got.excluded == (want.exclusion_reason == EXCLUSION_QUOTE_GAP
                                and not want.mr_usd.any())


def test_mr_at_rounds_to_ms_and_refuses_off_grid(registry, config, grid):
    curve = markout_curve(two_leg_trade(), grid, flat_store(), registry, config)
    assert curve.mr_at(0.5) == curve.mr_at(0.5004) == float(curve.mr_usd[3])
    off_grid = MarkoutCurve("0x", [0.1, 0.2, 0.1 + 0.2], np.arange(3.0), np.zeros(3))
    assert off_grid.mr_at(0.3) == 2.0  # 0.1 + 0.2 is 0.3 to the ms
    with pytest.raises(ValueError):
        curve.mr_at(0.25)
