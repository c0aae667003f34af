"""Markout revenue and gross return of trades over the markout grid.

MR(t) = x * P_A(t) - y * P_B(t) - taker fees, with the fee charged on both
hedge legs' notionals (the hedge closes both directions on the CEX). All
trades, a Table of ArbTrade, are marked out together into one MarkoutTable,
a row per trade and a column per grid offset, with one quote lookup per
quote series over the (trades, offsets) matrix of query times.
``markout_table`` is the only place that decides which trades are excluded,
and why.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import MarkoutGrid, PipelineConfig
from ._kernels import group_rows
from .data_model import Table, TokenRegistry, strings
from .detect import ArbTrade
from .quotes import QuoteStore

EXCLUSION_QUOTE_GAP = "QuoteGap"
EXCLUSION_INVENTORY = "InventoryAdjustment"


@dataclass
class MarkoutTable:
    """MR of trades (rows, in the order they were marked out) at every grid
    offset (columns, in grid order). markouts.csv holds the keys, a row per
    trade, and markouts_mr.npy the MR matrix. ``exclusion_reason[i]`` is ""
    for a trade that is included, as markouts.csv writes it."""

    tx_hash: np.ndarray  # StringDType, as searcher_label and exclusion_reason
    searcher_label: np.ndarray
    volume_usd: np.ndarray
    mr_usd: np.ndarray  # (trades, offsets)
    exclusion_reason: np.ndarray

    @cached_property
    def gr(self) -> np.ndarray:
        """GR = MR / volume_usd; zeros on rows whose volume is not above 0."""
        volume = np.asarray(self.volume_usd, dtype=np.float64)[:, None]
        return np.divide(self.mr_usd, volume, out=np.zeros_like(self.mr_usd), where=volume > 0)

    def included(self) -> np.ndarray:
        """The mask of the included trades."""
        return self.exclusion_reason == ""


def _usd_prices(rows: np.ndarray, queries: np.ndarray, store: QuoteStore,
                registry: TokenRegistry, staleness_ms: int):
    """USD prices of the token at ``registry`` row ``rows[i]`` at the times in
    row i of ``queries``, and a mask of the rows priced at every time. An
    unknown (row -1) or unlisted token has no price; USDT is 1; any other
    token is its ``<quote_symbol>USDT`` mid. One lookup per quote series."""
    prices = np.ones(queries.shape)
    ok = np.append(registry.listed, False)[rows]  # row -1 reads the appended False
    listed = np.flatnonzero(ok)
    series: dict[str, int] = {}  # the registry's quote symbols, coded in row order
    code = np.array([series.setdefault(s, len(series)) for s in registry.quote_symbol.tolist()],
                    dtype=np.int64)
    for symbol, at in zip(series, group_rows(code[rows[listed]], len(series))):
        if symbol != "USDT" and len(at):
            at = listed[at]
            prices[at], fresh = store.mids(f"{symbol}USDT", queries[at], staleness_ms)
            ok[at] &= fresh.all(axis=1)
    return prices, ok


def markout_table(trades: Table, grid: MarkoutGrid, store: QuoteStore,
                  registry: TokenRegistry, cfg: PipelineConfig) -> MarkoutTable:
    """Every trade's MR at every grid offset, and why a trade is excluded.

    A trade is a QuoteGap when either leg lacks a fresh USD quote at any
    offset (its MR is then zeros) or ETH has no fresh quote at its slot, and
    an InventoryAdjustment when its MR never covers its base fee. An amount
    is read as float() reads its text, which is float() of its Decimal.
    """
    n = len(trades)
    queries = trades.slot_time_ms[:, None] + np.array(grid.offsets_ms, dtype=np.int64)
    prices, ok = _usd_prices(  # rows of each column: concatenating them would copy the text
        np.concatenate([registry.rows(trades.token_bought), registry.rows(trades.token_sold)]),
        np.concatenate([queries, queries]), store, registry, cfg.quote_staleness_ms,
    )
    leg_a = trades.amount_bought.astype(np.float64)[:, None] * prices[:n]
    leg_b = trades.amount_sold.astype(np.float64)[:, None] * prices[n:]
    mr = leg_a - leg_b - cfg.taker_fee_rate * (leg_a + leg_b)
    priced = ok[:n] & ok[n:]
    mr[~priced] = 0.0
    eth, eth_priced = store.eth_usd(trades.slot_time_ms, cfg.quote_staleness_ms)
    base_fee_usd = trades.base_fee_eth * eth
    inventory = np.all(mr < base_fee_usd[:, None], axis=1)  # MR never covers the base fee
    reasons = strings(np.where(priced & eth_priced, np.where(inventory, EXCLUSION_INVENTORY, ""),
                               EXCLUSION_QUOTE_GAP))
    return MarkoutTable(trades.tx_hash, trades.searcher_label, trades.volume_usd, mr, reasons)


def markout_curve(trade: ArbTrade, grid: MarkoutGrid, store: QuoteStore,
                  registry: TokenRegistry, cfg: PipelineConfig) -> MarkoutTable:
    """One trade's one-row table; kept for perfbench/spans.py until ROADMAP item 1."""
    return markout_table(Table.of_rows(ArbTrade, [trade]), grid, store, registry, cfg)
