"""Markout revenue and gross return of trades over the markout grid.

MR(t) = x * P_A(t) - y * P_B(t) - taker fees, with the fee charged on both
hedge legs' notionals (the hedge closes both directions on the CEX). Any
quote failure at any grid offset excludes the whole trade. All trades are
marked out together: one quote lookup per quote series over the
(trades, offsets) matrix of query times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MarkoutGrid, PipelineConfig
from .data_model import TokenRegistry
from .detect import ArbTrade
from .errors import NoQuoteBefore, UnknownToken, UnlistedToken
from .quotes import QuoteStore

EXCLUSION_QUOTE_GAP = "QuoteGap"
EXCLUSION_INVENTORY = "InventoryAdjustment"


@dataclass
class MarkoutCurve:
    tx_hash: str
    offsets_s: list[float]
    mr_usd: np.ndarray  # aligned with offsets_s
    gr: np.ndarray
    excluded: bool = False
    exclusion_reason: str | None = None
    searcher_label: str | None = None  # the trade's, for grouping curves by searcher

    def mr_at(self, offset_s: float) -> float:
        """MR at ``offset_s`` rounded to ms; ValueError if that is not on the grid."""
        ms = round(offset_s * 1000)
        try:  # a grid's offsets are ms / 1000.0, found without rounding each one
            idx = self.offsets_s.index(ms / 1000.0)
        except ValueError:
            idx = [round(o * 1000) for o in self.offsets_s].index(ms)
        return float(self.mr_usd[idx])


def _mr(x, pa, y, pb, cfg: PipelineConfig):
    """MR in USD of buying x at USD price pa and selling y at pb; scalars or
    arrays, elementwise."""
    leg_a = x * pa
    leg_b = y * pb
    return leg_a - leg_b - cfg.taker_fee_rate * (leg_a + leg_b)


def gross_return(mr: np.ndarray, volume_usd: np.ndarray) -> np.ndarray:
    """GR = MR / volume_usd per row of ``mr``; zeros on rows whose volume is not above 0."""
    volume = np.asarray(volume_usd, dtype=np.float64)[:, None]
    return np.divide(mr, volume, out=np.zeros_like(mr), where=volume > 0)


def never_covers_base_fee(mr, base_fee_eth, eth_usd):
    """Per row of ``mr``: True iff MR is below the base-fee cost at every offset."""
    cost = np.multiply(base_fee_eth, eth_usd)
    return np.all(mr < np.expand_dims(cost, -1), axis=-1)


def markout_revenue(trade: ArbTrade, t_offset_s: float, store: QuoteStore,
                    registry: TokenRegistry, cfg: PipelineConfig) -> float:
    """MR at one offset, in USD. Propagates quote errors."""
    t_ms = trade.slot_time_ms + round(t_offset_s * 1000)
    pa = store.usd_price(trade.token_bought, t_ms, registry, cfg.quote_staleness_ms)
    pb = store.usd_price(trade.token_sold, t_ms, registry, cfg.quote_staleness_ms)
    return _mr(float(trade.amount_bought), pa, float(trade.amount_sold), pb, cfg)


def _usd_prices(tokens: list[str], queries: np.ndarray, store: QuoteStore,
                registry: TokenRegistry, staleness_ms: int):
    """USD prices of ``tokens[i]`` at the times in row i of ``queries``, and a
    mask of the rows priced at every time. One lookup per quote series."""
    prices = np.ones(queries.shape)
    ok = np.ones(len(tokens), dtype=bool)
    rows_by_token: dict[str, list[int]] = {}
    for i, token in enumerate(tokens):
        rows_by_token.setdefault(token, []).append(i)
    rows_by_series: dict[str, tuple] = {}
    for token, rows in rows_by_token.items():
        try:
            series = store.usd_series(token, registry)
        except (NoQuoteBefore, UnlistedToken, UnknownToken):
            ok[rows] = False
            continue
        if series is not None:
            rows_by_series.setdefault(series.symbol, (series, []))[1].extend(rows)
    for series, rows in rows_by_series.values():
        prices[rows], status = series.mid_many(queries[rows], staleness_ms)
        ok[rows] &= ~status.any(axis=1)
    return prices, ok


def markout_table(trades: list[ArbTrade], grid: MarkoutGrid, store: QuoteStore,
                  registry: TokenRegistry, cfg: PipelineConfig):
    """MR and GR of every trade at every grid offset, as two (trades, offsets)
    arrays, and the mask of trades a quote failure at any offset excludes
    (their MR and GR are zeros)."""
    n = len(trades)
    slot_ms = np.array([t.slot_time_ms for t in trades], dtype=np.int64)
    queries = slot_ms[:, None] + np.array(grid.offsets_ms, dtype=np.int64)
    prices, ok = _usd_prices(
        [t.token_bought for t in trades] + [t.token_sold for t in trades],
        np.concatenate([queries, queries]), store, registry, cfg.quote_staleness_ms,
    )
    x = np.array([float(t.amount_bought) for t in trades])[:, None]
    y = np.array([float(t.amount_sold) for t in trades])[:, None]
    mr = _mr(x, prices[:n], y, prices[n:], cfg)
    gap = ~(ok[:n] & ok[n:])
    mr[gap] = 0.0
    return mr, gross_return(mr, np.array([t.volume_usd for t in trades])), gap


def markout_curve(trade: ArbTrade, grid: MarkoutGrid, store: QuoteStore,
                  registry: TokenRegistry, cfg: PipelineConfig) -> MarkoutCurve:
    """One MR/GR sample per grid offset; quote failures mark the trade excluded."""
    (mr,), (gr,), (gap,) = markout_table([trade], grid, store, registry, cfg)
    return MarkoutCurve(trade.tx_hash, list(grid.offsets_s), mr, gr, bool(gap),
                        EXCLUSION_QUOTE_GAP if gap else None, trade.searcher_label)


def flag_inventory_adjustment(
    curve: MarkoutCurve, trade: ArbTrade, eth_usd_at_slot: float
) -> bool:
    """True iff MR never covers base-fee cost anywhere on the grid."""
    if curve.excluded:
        raise ValueError("curve already excluded")
    return bool(never_covers_base_fee(curve.mr_usd, trade.base_fee_eth, eth_usd_at_slot))
