"""Per-trade markout revenue and gross return over the markout grid.

MR(t) = x * P_A(t) - y * P_B(t) - taker fees, with the fee charged on both
hedge legs' notionals (the hedge closes both directions on the CEX). Any
quote failure at any grid offset excludes the whole trade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MarkoutGrid, PipelineConfig
from .data_model import TokenRegistry
from .detect import ArbTrade
from .errors import NoQuoteBefore, StaleQuote, UnknownToken, UnlistedToken
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

    def mr_at(self, offset_s: float) -> float:
        ms = round(offset_s * 1000)
        idx = [round(o * 1000) for o in self.offsets_s].index(ms)
        return float(self.mr_usd[idx])


def _mr(trade: ArbTrade, t_ms, store: QuoteStore, registry: TokenRegistry,
        cfg: PipelineConfig):
    """MR at one time (a float) or an array of times (an array), in USD."""
    pa = store.usd_price(trade.token_bought, t_ms, registry, cfg.quote_staleness_ms)
    pb = store.usd_price(trade.token_sold, t_ms, registry, cfg.quote_staleness_ms)
    leg_a = float(trade.amount_bought) * pa
    leg_b = float(trade.amount_sold) * pb
    return leg_a - leg_b - cfg.taker_fee_rate * (leg_a + leg_b)


def markout_revenue(
    trade: ArbTrade,
    t_offset_s: float,
    store: QuoteStore,
    registry: TokenRegistry,
    cfg: PipelineConfig,
) -> float:
    """MR at one offset, in USD. Propagates quote errors."""
    return _mr(trade, trade.slot_time_ms + round(t_offset_s * 1000), store, registry, cfg)


def markout_curve(
    trade: ArbTrade,
    grid: MarkoutGrid,
    store: QuoteStore,
    registry: TokenRegistry,
    cfg: PipelineConfig,
) -> MarkoutCurve:
    """One MR/GR sample per grid offset; quote failures mark the trade excluded."""
    n = len(grid)
    query_ts = np.asarray(
        [trade.slot_time_ms + off for off in grid.offsets_ms], dtype=np.int64
    )
    try:
        mr = _mr(trade, query_ts, store, registry, cfg)
    except (NoQuoteBefore, StaleQuote, UnlistedToken, UnknownToken):
        return MarkoutCurve(
            tx_hash=trade.tx_hash,
            offsets_s=list(grid.offsets_s),
            mr_usd=np.zeros(n),
            gr=np.zeros(n),
            excluded=True,
            exclusion_reason=EXCLUSION_QUOTE_GAP,
        )
    gr = mr / trade.volume_usd if trade.volume_usd > 0 else np.zeros(n)
    return MarkoutCurve(
        tx_hash=trade.tx_hash,
        offsets_s=list(grid.offsets_s),
        mr_usd=mr,
        gr=gr,
    )


def flag_inventory_adjustment(
    curve: MarkoutCurve, trade: ArbTrade, eth_usd_at_slot: float
) -> bool:
    """True iff MR never covers base-fee cost anywhere on the grid."""
    if curve.excluded:
        raise ValueError("curve already excluded")
    cost = trade.base_fee_eth * eth_usd_at_slot
    return bool(np.all(curve.mr_usd < cost))
