"""The per-trade markout as it was computed before the markout stage was
batched, frozen here as the reference the batched path must equal bit for bit.

One trade per call, returning its (MR, GR, exclusion reason): the registry
rule and a raising quote lookup for each leg at every grid offset, then one
ETHUSDT lookup at the slot for the inventory rule. It deliberately shares no
code with ``cexdex.markout`` beyond the quote store's single-series lookup.
"""

import numpy as np

from cexdex.errors import NoQuoteBefore, StaleQuote, UnknownToken, UnlistedToken


def _usd_price(token, t_ms, store, registry, staleness_ms):
    info = registry.get(token)
    if info is None:
        raise UnknownToken(token)
    if not info.cex_listed:
        raise UnlistedToken(token)
    if info.quote_symbol == "USDT":
        return np.ones(len(t_ms))
    return store.mid(f"{info.quote_symbol}USDT", t_ms, staleness_ms)


def oracle_curve(trade, grid, store, registry, cfg):
    """(MR, GR, exclusion reason or None) of one trade over ``grid``."""
    n = len(grid.offsets_ms)
    query_ts = np.asarray([trade.slot_time_ms + off for off in grid.offsets_ms], dtype=np.int64)
    try:
        pa = _usd_price(trade.token_bought, query_ts, store, registry, cfg.quote_staleness_ms)
        pb = _usd_price(trade.token_sold, query_ts, store, registry, cfg.quote_staleness_ms)
    except (NoQuoteBefore, StaleQuote, UnlistedToken, UnknownToken):
        return np.zeros(n), np.zeros(n), "QuoteGap"
    leg_a = float(trade.amount_bought) * pa
    leg_b = float(trade.amount_sold) * pb
    mr = leg_a - leg_b - cfg.taker_fee_rate * (leg_a + leg_b)
    gr = mr / trade.volume_usd if trade.volume_usd > 0 else np.zeros(n)
    try:
        eth = store.mid("ETHUSDT", trade.slot_time_ms, cfg.quote_staleness_ms)
    except (NoQuoteBefore, StaleQuote):
        return mr, gr, "QuoteGap"
    if np.all(mr < trade.base_fee_eth * eth):
        return mr, gr, "InventoryAdjustment"
    return mr, gr, None


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_row(table, i: int, trade, want) -> None:
    """Row ``i`` of a MarkoutTable is ``trade``'s, with the oracle's MR, GR and reason."""
    mr, gr, reason = want
    assert table.tx_hash[i] == trade.tx_hash
    assert table.searcher_label[i] == trade.searcher_label
    assert same_bits(table.volume_usd[i], trade.volume_usd), trade.tx_hash
    assert same_bits(table.mr_usd[i], mr), (trade.tx_hash, table.mr_usd[i], mr)
    assert same_bits(table.gr[i], gr), (trade.tx_hash, table.gr[i], gr)
    assert table.exclusion_reason[i] == reason, trade.tx_hash
