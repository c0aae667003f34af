import numpy as np
import pytest

from cexdex.config import PipelineConfig
from cexdex.markout import (
    EXCLUSION_QUOTE_GAP,
    flag_inventory_adjustment,
    markout_curve,
    markout_revenue,
)

from conftest import TOKA, USDT, make_store, make_trade


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
