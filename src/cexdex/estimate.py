"""Per-trade EV / PnL / margin at the searcher's horizon, plus summaries.

EV = MR(t*) - base fees, PnL = EV - builder tips (priority fee + coinbase
transfer), margin = PnL / EV only when EV > 0. MR(t*) is the trade's row of
the markout table read at t*'s grid column. Fee conversions use the
ETH-USDT mid at slot time.

TradeEconomics, SearcherSummary and CumulativeEv declare the rows of
economics.csv, summary.csv and cumulative_ev.csv.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .detect import ArbTrade
from .errors import PatternThreeExcluded
from .horizon import PATTERN_FLAT, SearcherProfile

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


def trade_economics(
    trade: ArbTrade,
    mr_usd: float,
    profile: SearcherProfile,
    eth_usd_at_slot: float,
) -> TradeEconomics:
    """Economics of an included trade whose MR at its searcher's t* is ``mr_usd``."""
    if profile.pattern == PATTERN_FLAT or profile.t_star_s is None:
        raise PatternThreeExcluded(profile.searcher_label)
    base_fee_usd = trade.base_fee_eth * eth_usd_at_slot
    tip_usd = trade.builder_tip_eth * eth_usd_at_slot
    ev = mr_usd - base_fee_usd
    pnl = ev - tip_usd
    margin = pnl / ev if ev > 0 else None
    return TradeEconomics(
        tx_hash=trade.tx_hash,
        searcher_label=trade.searcher_label,
        builder_label=trade.builder_label,
        block_number=trade.block_number,
        slot_time_ms=trade.slot_time_ms,
        volume_usd=trade.volume_usd,
        ev_usd=ev,
        pnl_usd=pnl,
        margin=margin,
        builder_tip_usd=tip_usd,
        base_fee_usd=base_fee_usd,
    )


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


def searcher_summary(
    label: str,
    economics: list[TradeEconomics],
    n_inventory_adj: int = 0,
    n_quote_gap: int = 0,
) -> SearcherSummary:
    """Totals and per-trade medians for one searcher.

    Margin medians cover only margin-defined trades; EV/PnL medians cover
    every arbitrage trade. Excluded trades contribute to counts only.
    """
    evs = np.array([e.ev_usd for e in economics]) if economics else np.array([])
    pnls = np.array([e.pnl_usd for e in economics]) if economics else np.array([])
    margins = [e.margin for e in economics if e.margin is not None]
    n_arb = len(economics)
    profitable = int(sum(1 for e in economics if e.pnl_usd >= 0))
    return SearcherSummary(
        searcher_label=label,
        total_volume_usd=float(sum(e.volume_usd for e in economics)),
        total_ev_usd=float(evs.sum()) if n_arb else 0.0,
        total_tips_usd=float(sum(e.builder_tip_usd for e in economics)),
        total_pnl_usd=float(pnls.sum()) if n_arb else 0.0,
        median_trade_ev=float(np.median(evs)) if n_arb else None,
        median_trade_pnl=float(np.median(pnls)) if n_arb else None,
        median_margin=float(np.median(margins)) if margins else None,
        count_total=n_arb + n_inventory_adj + n_quote_gap,
        count_inventory_adj=n_inventory_adj,
        count_quote_gap=n_quote_gap,
        count_arbitrage=n_arb,
        count_profitable=profitable,
        count_unprofitable=n_arb - profitable,
    )


def _utc_day(ts_ms: int) -> str:
    return datetime.fromtimestamp(ts_ms / 1000, tz=timezone.utc).strftime("%Y-%m-%d")


@dataclass(frozen=True)
class CumulativeEv:
    searcher_label: str
    date: str
    ev_usd: float
    cumulative_ev_usd: float


def cumulative_ev_series(economics: list[TradeEconomics]) -> list[CumulativeEv]:
    """Per-searcher daily EV sums and their running total, by label then day.

    Trades are bucketed by UTC day number; empty days between a searcher's
    first and last trade are emitted with 0, and each day is formatted once.
    """
    by_searcher: dict[str, dict[int, float]] = {}
    for e in economics:
        day = e.slot_time_ms // DAY_MS
        buckets = by_searcher.setdefault(e.searcher_label, {})
        buckets[day] = buckets.get(day, 0.0) + e.ev_usd

    out: list[CumulativeEv] = []
    for label in sorted(by_searcher):
        buckets = by_searcher[label]
        cum = 0.0
        for day in range(min(buckets), max(buckets) + 1):
            v = buckets.get(day, 0.0)
            cum += v
            out.append(CumulativeEv(label, _utc_day(day * DAY_MS), v, cum))
    return out
