"""Markout revenue and gross return of trades over the markout grid.

MR(t) = x * P_A(t) - y * P_B(t) - taker fees, with the fee charged on both
hedge legs' notionals (the hedge closes both directions on the CEX). All
trades are marked out together into one MarkoutTable, a row per trade and a
column per grid offset, with one quote lookup per quote series over the
(trades, offsets) matrix of query times. ``markout_table`` is the only place
that decides which trades are excluded, and why.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import MarkoutGrid, PipelineConfig
from .data_model import TokenRegistry
from .detect import ArbTrade
from .errors import NoQuoteBefore, UnknownToken, UnlistedToken
from .quotes import QuoteStore

EXCLUSION_QUOTE_GAP = "QuoteGap"
EXCLUSION_INVENTORY = "InventoryAdjustment"


@dataclass
class MarkoutTable:
    """MR of trades (rows, in the order they were marked out) at every grid
    offset (columns, in grid order). ``exclusion_reason[i]`` is None for a
    trade that is included."""

    tx_hash: list[str]
    searcher_label: list[str]
    volume_usd: np.ndarray
    mr_usd: np.ndarray  # (trades, offsets)
    exclusion_reason: list[str | None]

    @cached_property
    def gr(self) -> np.ndarray:
        return gross_return(self.mr_usd, self.volume_usd)

    def included_rows(self) -> dict[str, list[int]]:
        """Searcher label -> rows of its included trades; searchers with none are absent."""
        rows: dict[str, list[int]] = {}
        for i, (label, reason) in enumerate(zip(self.searcher_label, self.exclusion_reason)):
            if reason is None:
                rows.setdefault(label, []).append(i)
        return rows


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
                  registry: TokenRegistry, cfg: PipelineConfig) -> MarkoutTable:
    """Every trade's MR at every grid offset, and why a trade is excluded.

    A trade is a QuoteGap when either leg lacks a fresh USD quote at any
    offset (its MR is then zeros) or ETH has no fresh quote at its slot, and
    an InventoryAdjustment when its MR never covers its base fee.
    """
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
    priced = ok[:n] & ok[n:]
    mr[~priced] = 0.0
    eth, eth_priced = store.eth_usd_many(slot_ms, cfg.quote_staleness_ms)
    base_fee_usd = np.array([t.base_fee_eth for t in trades]) * eth
    inventory = np.all(mr < base_fee_usd[:, None], axis=1)  # MR never covers the base fee
    reasons = [
        EXCLUSION_QUOTE_GAP if not (p and e) else EXCLUSION_INVENTORY if inv else None
        for p, e, inv in zip(priced.tolist(), eth_priced.tolist(), inventory.tolist())
    ]
    return MarkoutTable([t.tx_hash for t in trades], [t.searcher_label for t in trades],
                        np.array([t.volume_usd for t in trades], dtype=np.float64), mr, reasons)


def markout_curve(trade: ArbTrade, grid: MarkoutGrid, store: QuoteStore,
                  registry: TokenRegistry, cfg: PipelineConfig) -> MarkoutTable:
    """One trade's one-row table; kept for perfbench/spans.py until ROADMAP item 1."""
    return markout_table([trade], grid, store, registry, cfg)
