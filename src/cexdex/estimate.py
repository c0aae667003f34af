"""Per-trade EV / PnL / margin at the searcher's horizon, plus summaries.

EV = MR(t*) - base fees, PnL = EV - builder tips (priority fee + coinbase
transfer), margin = PnL / EV only when EV > 0. MR(t*) is the trade's row of
the markout table read at t*'s grid column. Fee conversions use the
ETH-USDT mid at slot time.

TradeEconomics, SearcherSummary and CumulativeEv declare the rows of
economics.csv, summary.csv and cumulative_ev.csv; the economics are held as
a Table and computed elementwise, and every total is a group sum that adds
left to right in row order (as builtin sum() does up to Python 3.11), unless
it says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from ._kernels import group_rows, group_sum, median
from .data_model import Table, optional

DAY_MS = 86_400_000


@dataclass(frozen=True)
class TradeEconomics:
    tx_hash: str
    searcher_label: str
    builder_label: str
    block_number: int
    slot_time_ms: int
    volume_usd: float
    ev_usd: float
    pnl_usd: float
    margin: float | None
    builder_tip_usd: float
    base_fee_usd: float


def trade_economics(trades: Table, mr_usd: np.ndarray, eth_usd_at_slot: np.ndarray) -> Table:
    """Economics of included trades, a Table of ArbTrade, whose MR at their
    searchers' t* is ``mr_usd``: a Table of TradeEconomics, row for row."""
    base_fee_usd = trades.base_fee_eth * eth_usd_at_slot
    tip_usd = trades.builder_tip_eth * eth_usd_at_slot
    ev = mr_usd - base_fee_usd
    pnl = ev - tip_usd
    defined = ev > 0
    margin = np.divide(pnl, ev, out=np.zeros_like(ev), where=defined)
    return Table(TradeEconomics, [
        trades.tx_hash, trades.searcher_label, trades.builder_label, trades.block_number,
        trades.slot_time_ms, trades.volume_usd, ev, pnl, optional(margin, defined), tip_usd,
        base_fee_usd,
    ])


@dataclass
class SearcherSummary:
    searcher_label: str
    total_volume_usd: float
    total_ev_usd: float
    total_tips_usd: float
    total_pnl_usd: float
    median_trade_ev: float | None
    median_trade_pnl: float | None
    median_margin: float | None
    count_total: int
    count_inventory_adj: int
    count_quote_gap: int
    count_arbitrage: int
    count_profitable: int
    count_unprofitable: int


def searcher_summaries(labels: np.ndarray, code: np.ndarray, economics: Table,
                       n_inventory_adj: np.ndarray, n_quote_gap: np.ndarray) -> Table:
    """Totals and per-trade medians of each searcher of ``labels``, sorted,
    as a Table of SearcherSummary; ``code`` is each economics row's index
    into ``labels``.

    Margin medians cover only margin-defined trades; EV/PnL medians cover
    every arbitrage trade. Excluded trades, ``n_inventory_adj`` and
    ``n_quote_gap`` per label, contribute to counts only. Total EV and PnL
    are numpy's pairwise sums of the searcher's rows.
    """
    n = len(labels)
    defined = np.not_equal(economics.margin, None)
    margin = np.where(defined, economics.margin, 0.0).astype(np.float64)
    n_arb = np.bincount(code, minlength=n)
    profitable = np.bincount(code[economics.pnl_usd >= 0], minlength=n)
    total_ev, total_pnl, median_ev, median_pnl, median_margin = [], [], [], [], []
    for rows in group_rows(code, n):
        evs, pnls = economics.ev_usd[rows], economics.pnl_usd[rows]
        margins = margin[rows][defined[rows]]
        total_ev.append(float(evs.sum()))
        total_pnl.append(float(pnls.sum()))
        median_ev.append(float(median(evs)) if len(rows) else None)
        median_pnl.append(float(median(pnls)) if len(rows) else None)
        median_margin.append(float(median(margins)) if len(margins) else None)
    return Table(SearcherSummary, [
        labels, group_sum(code, economics.volume_usd, n), total_ev,
        group_sum(code, economics.builder_tip_usd, n), total_pnl, median_ev, median_pnl,
        median_margin, n_arb + n_inventory_adj + n_quote_gap, n_inventory_adj, n_quote_gap,
        n_arb, profitable, n_arb - profitable,
    ])


def _utc_day(ts_ms: int) -> str:
    return datetime.fromtimestamp(ts_ms / 1000, tz=timezone.utc).strftime("%Y-%m-%d")


@dataclass(frozen=True)
class CumulativeEv:
    searcher_label: str
    date: str
    ev_usd: float
    cumulative_ev_usd: float


def cumulative_ev_series(labels: np.ndarray, code: np.ndarray, economics: Table) -> Table:
    """Per-searcher daily EV sums and their running total, by label then
    day, as a Table of CumulativeEv; ``code`` is each economics row's index
    into ``labels``, sorted.

    Trades are bucketed by UTC day number; empty days between a searcher's
    first and last trade are emitted with 0, and each row's day is
    formatted once.
    """
    present, code = np.unique(code, return_inverse=True)  # the searchers with a row
    labels = labels[present]
    day = economics.slot_time_ms // DAY_MS
    first, last = np.zeros(len(labels), dtype=np.int64), np.zeros(len(labels), dtype=np.int64)
    for k, rows in enumerate(group_rows(code, len(labels))):
        first[k], last[k] = day[rows].min(), day[rows].max()
    span = last - first + 1
    starts = np.cumsum(span) - span
    # a row per searcher and day of its span; each trade's EV added to its row
    ev = group_sum(starts[code] + day - first[code], economics.ev_usd, int(span.sum()))
    cumulative = np.concatenate([np.cumsum(np.concatenate([[0.0], ev[a:a + k]]))[1:]
                                 for a, k in zip(starts.tolist(), span.tolist())] or [[]])
    days = np.repeat(first - starts, span) + np.arange(len(ev))
    dates = [_utc_day(d * DAY_MS) for d in days.tolist()]
    return Table(CumulativeEv, [np.repeat(labels, span), dates, ev, cumulative])
