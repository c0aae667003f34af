"""The per-trade markout as it was computed before the markout stage was
batched, frozen here as the reference the batched path must equal bit for bit.

One curve per call: the registry rule and a raising quote lookup for each leg
at every grid offset, then one ETHUSDT lookup at the slot for the inventory
rule. It deliberately shares no code with ``cexdex.markout`` beyond the
``MarkoutCurve`` type and the quote store's single-series lookup.
"""

import numpy as np

from cexdex.errors import NoQuoteBefore, StaleQuote, UnknownToken, UnlistedToken
from cexdex.markout import MarkoutCurve


def _usd_price(token, t_ms, store, registry, staleness_ms):
    info = registry.get(token)
    if info is None:
        raise UnknownToken(token)
    if not info.cex_listed:
        raise UnlistedToken(token)
    if info.quote_symbol == "USDT":
        return np.ones(len(t_ms))
    return store.mid(f"{info.quote_symbol}USDT", t_ms, staleness_ms)


def oracle_curve(trade, grid, store, registry, cfg) -> MarkoutCurve:
    n = len(grid.offsets_ms)
    query_ts = np.asarray([trade.slot_time_ms + off for off in grid.offsets_ms], dtype=np.int64)
    try:
        pa = _usd_price(trade.token_bought, query_ts, store, registry, cfg.quote_staleness_ms)
        pb = _usd_price(trade.token_sold, query_ts, store, registry, cfg.quote_staleness_ms)
    except (NoQuoteBefore, StaleQuote, UnlistedToken, UnknownToken):
        return MarkoutCurve(trade.tx_hash, list(grid.offsets_s), np.zeros(n), np.zeros(n),
                            True, "QuoteGap", trade.searcher_label)
    leg_a = float(trade.amount_bought) * pa
    leg_b = float(trade.amount_sold) * pb
    mr = leg_a - leg_b - cfg.taker_fee_rate * (leg_a + leg_b)
    gr = mr / trade.volume_usd if trade.volume_usd > 0 else np.zeros(n)
    curve = MarkoutCurve(trade.tx_hash, list(grid.offsets_s), mr, gr,
                         searcher_label=trade.searcher_label)
    try:
        eth = store.mid("ETHUSDT", trade.slot_time_ms, cfg.quote_staleness_ms)
    except (NoQuoteBefore, StaleQuote):
        curve.excluded, curve.exclusion_reason = True, "QuoteGap"
        return curve
    if np.all(mr < trade.base_fee_eth * eth):
        curve.excluded, curve.exclusion_reason = True, "InventoryAdjustment"
    return curve


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_curve(got: MarkoutCurve, want: MarkoutCurve) -> None:
    assert got.tx_hash == want.tx_hash
    assert got.offsets_s == want.offsets_s
    assert same_bits(got.mr_usd, want.mr_usd), (got.tx_hash, got.mr_usd, want.mr_usd)
    assert same_bits(got.gr, want.gr), (got.tx_hash, got.gr, want.gr)
    assert (got.excluded, got.exclusion_reason) == (want.excluded, want.exclusion_reason)
    assert type(got.excluded) is bool
    assert got.searcher_label == want.searcher_label
