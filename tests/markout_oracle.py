"""The per-trade markout as it was computed before the markout stage was
batched, frozen here as the reference the batched path must equal bit for bit.

One trade per call, of CEX-listed tokens, returning its (MR, GR, exclusion
reason): a quote lookup for each leg at every grid offset, then one ETHUSDT
lookup at the slot for the inventory rule. It shares no code with
``cexdex.markout`` or the quote store's lookup: it reads the store's
(ts, bid, ask) arrays with its own step lookup.
"""

from bisect import bisect_right

import numpy as np


def _mids(store, symbol, t_ms, staleness_ms):
    """The mid of the last quote of ``symbol`` at or before each time in
    ``t_ms``, or None when one of them has none within ``staleness_ms``."""
    if symbol not in store.series:
        return None
    ts, bid, ask = store.series[symbol]
    mids = []
    for t in t_ms:
        i = bisect_right(ts, t) - 1
        if i < 0 or t - ts[i] > staleness_ms:
            return None
        mids.append((bid[i] + ask[i]) / 2.0)
    return np.array(mids)


def _usd_price(token, t_ms, store, registry, staleness_ms):
    """USD prices of the listed ``token`` at ``t_ms``, or None: USDT is 1,
    any other token is its <quote_symbol>USDT mid."""
    row = registry.rows(np.array([token], dtype=np.dtypes.StringDType()))[0]
    if registry.quote_symbol[row] == "USDT":
        return np.ones(len(t_ms))
    return _mids(store, f"{registry.quote_symbol[row]}USDT", t_ms, staleness_ms)


def oracle_curve(trade, store, registry, cfg):
    """(MR, GR, exclusion reason, "" for an included trade) of one trade over ``cfg``'s grid."""
    n = len(cfg.offsets_ms)
    query_ts = [trade.slot_time_ms + off for off in cfg.offsets_ms]
    pa = _usd_price(trade.token_bought, query_ts, store, registry, cfg.quote_staleness_ms)
    pb = _usd_price(trade.token_sold, query_ts, store, registry, cfg.quote_staleness_ms)
    if pa is None or pb is None:
        return np.zeros(n), np.zeros(n), "QuoteGap"
    leg_a = float(trade.amount_bought) * pa
    leg_b = float(trade.amount_sold) * pb
    mr = leg_a - leg_b - cfg.taker_fee_rate * (leg_a + leg_b)
    gr = mr / trade.volume_usd if trade.volume_usd > 0 else np.zeros(n)
    eth = _mids(store, "ETHUSDT", [trade.slot_time_ms], cfg.quote_staleness_ms)
    if eth is None:
        return mr, gr, "QuoteGap"
    if np.all(mr < trade.base_fee_eth * eth[0]):
        return mr, gr, "InventoryAdjustment"
    return mr, gr, ""


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_row(table, i: int, trade, want) -> None:
    """Row ``i`` of a MarkoutTable is ``trade``'s, with its volume and the
    oracle's MR, GR and reason."""
    mr, gr, reason = want
    assert same_bits(table.volume_usd[i], trade.volume_usd), trade.tx_hash
    assert same_bits(table.mr_usd[i], mr), (trade.tx_hash, table.mr_usd[i], mr)
    assert same_bits(table.gr[i], gr), (trade.tx_hash, table.gr[i], gr)
    assert table.exclusion_reason[i] == reason, trade.tx_hash
